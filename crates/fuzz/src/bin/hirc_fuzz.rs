//! `hirc-fuzz` — deterministic mutational fuzzer for the HIR pipeline.
//!
//! ```text
//! hirc-fuzz --iters=500 --seed=1 --corpus=examples --save=fuzz-crashes
//! ```
//!
//! Each iteration derives a mutant from the corpus (reproducible from
//! `(seed, iteration)` alone), runs it through parse → verify → optimize →
//! print → codegen, and records any panic that escapes a stage. Exit code 0
//! means the *diagnostics, never panics* contract held for every iteration;
//! 1 means at least one crash (saved under `--save` for `hirc-reduce`);
//! 2 means usage error.

use hir_fuzz::{
    check_equivalence, check_sim_engines, load_corpus, mutant, run_pipeline, synth_multi_func,
    EquivOracle, SimOracle,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::process::ExitCode;

const USAGE: &str = "usage: hirc-fuzz [options]

options:
  --iters=N      number of fuzz iterations (default 500)
  --seed=N       base RNG seed; (seed, iteration) reproduces a case (default 1)
  --corpus=DIR   directory of .mlir seed files (default examples)
  --save=DIR     write crashing inputs here (default fuzz-crashes)
  --max-mutations=N  max stacked mutations per input (default 4)
  --check-equiv[=K]  for every mutant that survives through codegen, also run
                 the BMC miter as an oracle: prove (bounded to K cycles,
                 default 8) that the standard pipeline preserved its
                 semantics. Replay-confirmed miscompiles are saved like
                 crashes and fail the run. Conflict-only budgets keep the
                 verdict deterministic per (seed, iteration).
  --check-sim[=LANES]  for every mutant that survives through codegen, run the
                 simulator-engine differential oracle: bytecode vs
                 event-driven on every function, plus one batched pass with
                 LANES random stimulus lanes (default 4) that must reproduce
                 every scalar run bit for bit. Divergences are saved like
                 crashes and fail the run.
  --help, -h     show this help
";

struct Options {
    iters: u64,
    seed: u64,
    corpus: String,
    save: String,
    max_mutations: usize,
    check_equiv: Option<u32>,
    check_sim: Option<usize>,
}

fn parse_args() -> Result<Option<Options>, String> {
    let mut opts = Options {
        iters: 500,
        seed: 1,
        corpus: "examples".into(),
        save: "fuzz-crashes".into(),
        max_mutations: 4,
        check_equiv: None,
        check_sim: None,
    };
    for a in std::env::args().skip(1) {
        if let Some(v) = a.strip_prefix("--iters=") {
            opts.iters = v.parse().map_err(|_| format!("bad --iters '{v}'"))?;
        } else if let Some(v) = a.strip_prefix("--seed=") {
            opts.seed = v.parse().map_err(|_| format!("bad --seed '{v}'"))?;
        } else if let Some(v) = a.strip_prefix("--corpus=") {
            opts.corpus = v.to_string();
        } else if let Some(v) = a.strip_prefix("--save=") {
            opts.save = v.to_string();
        } else if let Some(v) = a.strip_prefix("--max-mutations=") {
            opts.max_mutations = v
                .parse()
                .map_err(|_| format!("bad --max-mutations '{v}'"))?;
        } else if a == "--check-equiv" {
            opts.check_equiv = Some(8);
        } else if let Some(v) = a.strip_prefix("--check-equiv=") {
            let k: u32 = v.parse().map_err(|_| format!("bad --check-equiv '{v}'"))?;
            if k == 0 {
                return Err("--check-equiv needs at least 1 cycle".into());
            }
            opts.check_equiv = Some(k);
        } else if a == "--check-sim" {
            opts.check_sim = Some(4);
        } else if let Some(v) = a.strip_prefix("--check-sim=") {
            let lanes: usize = v.parse().map_err(|_| format!("bad --check-sim '{v}'"))?;
            if lanes == 0 || lanes > 64 {
                return Err("--check-sim needs 1..=64 lanes".into());
            }
            opts.check_sim = Some(lanes);
        } else if a == "--help" || a == "-h" {
            print!("{USAGE}");
            return Ok(None);
        } else {
            return Err(format!("unknown argument '{a}'"));
        }
    }
    Ok(Some(opts))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(o)) => o,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hirc-fuzz: {e}");
            return ExitCode::from(2);
        }
    };
    // The harness catches panics itself; the default hook would spray one
    // backtrace per triggered bug into the log.
    std::panic::set_hook(Box::new(|_| {}));

    let corpus = match load_corpus(std::path::Path::new(&opts.corpus)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("hirc-fuzz: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "hirc-fuzz: {} corpus file(s), {} iterations, seed {}",
        corpus.len(),
        opts.iters,
        opts.seed
    );

    let mut crashes: u64 = 0;
    let mut miscompiles: u64 = 0;
    let mut divergences: u64 = 0;
    let mut outcomes = [0u64; 3]; // [rejected, verified, codegen_ok]
    let mut equiv = [0u64; 3]; // [proved, sampled, skipped]
    let mut sim = [0u64; 2]; // [agreed, skipped]
    for iter in 0..opts.iters {
        // Fresh RNG per iteration: any crash reproduces from (seed, iter)
        // without replaying the previous iterations.
        let mut rng = StdRng::seed_from_u64(opts.seed ^ (iter.wrapping_mul(0x9E37_79B9)));
        // One iteration in four starts from a synthesized multi-function
        // module (cross-calls, 2-8 funcs) to drive the cross-function paths
        // (symbol lookup, call checks); the rest mutate the on-disk corpus.
        let input = if rng.gen_bool(0.25) {
            let base = synth_multi_func(&mut rng);
            mutant(base.as_bytes(), opts.max_mutations, &mut rng)
        } else {
            let (_, base) = &corpus[rng.gen_range(0..corpus.len())];
            mutant(base, opts.max_mutations, &mut rng)
        };
        match run_pipeline(&input) {
            Ok(o) => {
                let bucket = if o.codegen_ok {
                    2
                } else if o.verified && o.parse_errors == 0 {
                    1
                } else {
                    0
                };
                outcomes[bucket] += 1;
                // The translation-validation oracle: only inputs that compile
                // all the way through codegen have two designs to compare.
                if let (Some(k), true) = (opts.check_equiv, o.codegen_ok) {
                    match check_equivalence(&input, k) {
                        Ok(EquivOracle::Proved) => equiv[0] += 1,
                        Ok(EquivOracle::Sampled) => equiv[1] += 1,
                        Ok(EquivOracle::Skipped(_)) => equiv[2] += 1,
                        Ok(EquivOracle::Miscompile(detail)) => {
                            miscompiles += 1;
                            let msg = format!("miscompile (replay-confirmed): {detail}");
                            save_finding(&opts.save, "miscompile", opts.seed, iter, &input, &msg);
                        }
                        Err(report) => {
                            crashes += 1;
                            let msg = format!("equiv oracle {report}");
                            save_finding(&opts.save, "crash", opts.seed, iter, &input, &msg);
                        }
                    }
                }
                // The engine differential oracle: bytecode vs event-driven vs
                // batched, on random stimuli derived from (seed, iteration).
                if let (Some(lanes), true) = (opts.check_sim, o.codegen_ok) {
                    match check_sim_engines(&input, opts.seed ^ iter, lanes) {
                        Ok(SimOracle::Agreed { .. }) => sim[0] += 1,
                        Ok(SimOracle::Skipped(_)) => sim[1] += 1,
                        Ok(SimOracle::Divergence(detail)) => {
                            divergences += 1;
                            let msg = format!("engine divergence: {detail}");
                            save_finding(&opts.save, "divergence", opts.seed, iter, &input, &msg);
                        }
                        Err(report) => {
                            crashes += 1;
                            let msg = format!("sim oracle {report}");
                            save_finding(&opts.save, "crash", opts.seed, iter, &input, &msg);
                        }
                    }
                }
            }
            Err(report) => {
                crashes += 1;
                save_finding(
                    &opts.save,
                    "crash",
                    opts.seed,
                    iter,
                    &input,
                    &report.to_string(),
                );
            }
        }
    }
    eprintln!(
        "hirc-fuzz: {} iterations: {} rejected/partial, {} verified, {} through codegen, {} panic(s)",
        opts.iters, outcomes[0], outcomes[1], outcomes[2], crashes
    );
    if opts.check_equiv.is_some() {
        eprintln!(
            "hirc-fuzz: equiv oracle: {} proved, {} sampled, {} skipped, {} miscompile(s)",
            equiv[0], equiv[1], equiv[2], miscompiles
        );
    }
    if opts.check_sim.is_some() {
        eprintln!(
            "hirc-fuzz: sim oracle: {} agreed, {} skipped, {} divergence(s)",
            sim[0], sim[1], divergences
        );
    }
    if crashes > 0 || miscompiles > 0 || divergences > 0 {
        eprintln!("hirc-fuzz: contract violated; reduce with: hirc-reduce <saved-input>");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// Persist a finding's input under `save_dir` and log a one-line report.
fn save_finding(save_dir: &str, kind: &str, seed: u64, iter: u64, input: &str, msg: &str) {
    let dir = std::path::Path::new(save_dir);
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("{kind}-seed{seed}-iter{iter}.mlir"));
    match std::fs::write(&path, input) {
        Ok(()) => eprintln!(
            "hirc-fuzz: iter {iter}: {msg} -- input saved to {}",
            path.display()
        ),
        Err(e) => eprintln!("hirc-fuzz: iter {iter}: {msg} -- could not save input: {e}"),
    }
}
