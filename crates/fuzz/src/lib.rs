//! Deterministic mutational fuzzing for the HIR compiler pipeline.
//!
//! The robustness contract of the toolchain is *diagnostics, never panics*:
//! arbitrary input may be rejected with errors but must not crash the
//! compiler. This crate enforces the contract mechanically:
//!
//! * [`mutate`] derives corrupted inputs from the `examples/` corpus with a
//!   seed-driven mix of byte- and token-level mutations (bit flips, splices,
//!   token swaps, keyword injection). Everything is driven by the vendored
//!   SplitMix64 [`rand`] stand-in, so a `(seed, iteration)` pair always
//!   reproduces the same input.
//! * [`run_pipeline`] pushes a candidate through the same stages `hirc` runs
//!   — parse (with recovery) → verify → optimize → print/round-trip →
//!   codegen — each under `catch_unwind`, and reports the first stage whose
//!   code panics rather than returning diagnostics.
//! * [`reduce_lines`] greedily shrinks a crashing input while a caller
//!   predicate (typically "still panics in the same stage") holds, powering
//!   the `hirc-reduce` binary.
//!
//! The `hirc-fuzz` binary wires these together for CI smoke runs.

use rand::{rngs::StdRng, Rng, RngCore};

// ---------------------------------------------------------------------------
// Panic-observing pipeline harness
// ---------------------------------------------------------------------------

/// A panic escaping one of the pipeline stages: the fuzz bug report.
#[derive(Clone, Debug)]
pub struct PanicReport {
    /// Stage whose code panicked (`parse`, `verify`, `optimize`, `print`,
    /// `roundtrip`, `codegen`).
    pub stage: &'static str,
    /// The panic payload, when it was a string.
    pub message: String,
}

impl std::fmt::Display for PanicReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "panic in stage '{}': {}", self.stage, self.message)
    }
}

/// How far a (possibly corrupted) input made it through the pipeline with
/// clean diagnostics.
#[derive(Clone, Copy, Debug, Default)]
pub struct PipelineOutcome {
    /// Number of parse errors reported by the recovering parser.
    pub parse_errors: usize,
    /// Structure + schedule verification both passed.
    pub verified: bool,
    /// The standard optimization pipeline ran without internal errors.
    pub optimized: bool,
    /// Verilog generation succeeded.
    pub codegen_ok: bool,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn guard<T>(stage: &'static str, f: impl FnOnce() -> T) -> Result<T, PanicReport> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|p| PanicReport {
        stage,
        message: panic_message(&*p),
    })
}

/// Run `source` through the full compile pipeline, containing each stage in
/// `catch_unwind`.
///
/// Returns `Ok` with how far the input got (rejection with diagnostics is a
/// *success* for the robustness contract) or `Err` naming the stage that
/// panicked.
///
/// # Errors
/// A [`PanicReport`] for the first stage whose code panics.
pub fn run_pipeline(source: &str) -> Result<PipelineOutcome, PanicReport> {
    let mut outcome = PipelineOutcome::default();

    // Same front-end dispatch as hirc: pretty form vs generic form.
    let pretty_input = source
        .lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with("//"))
        .is_some_and(|l| l.starts_with("hir.func"));
    let (mut module, n_errors) = guard("parse", || {
        if pretty_input {
            let r = hir::parse_pretty_recover(source, 0);
            (r.module, r.errors.len())
        } else {
            let r = ir::parse_module_recover(source, 0);
            (r.module, r.errors.len())
        }
    })?;
    outcome.parse_errors = n_errors;

    let registry = hir::hir_registry();
    outcome.verified = guard("verify", || {
        let mut diags = ir::DiagnosticEngine::new();
        ir::verify_module(&module, &registry, &mut diags).is_ok()
            && hir_verify::verify_schedule(&module, &mut diags).is_ok()
    })?;

    // Printers must handle anything the parser produced, including partially
    // recovered modules.
    guard("print", || {
        let _ = ir::print_module(&module);
        let _ = hir::pretty_module(&module);
    })?;
    guard("roundtrip", || {
        let text = ir::print_module(&module);
        let _ = ir::parse_module_recover(&text, 0);
    })?;

    // Passes and codegen assume verified IR (as in MLIR); run them only on
    // modules that passed both verifiers.
    if outcome.verified && n_errors == 0 {
        outcome.optimized = guard("optimize", || {
            let mut diags = ir::DiagnosticEngine::new();
            hir_opt::standard_pipeline()
                .run(&mut module, &registry, &mut diags)
                .is_ok()
        })?;
        outcome.codegen_ok = guard("codegen", || {
            hir_codegen::generate_design(&module, &hir_codegen::CodegenOptions::default()).is_ok()
        })?;
    }
    Ok(outcome)
}

// ---------------------------------------------------------------------------
// Translation-validation oracle
// ---------------------------------------------------------------------------

/// Verdict of the bounded-equivalence fuzz oracle on one input.
#[derive(Clone, Debug)]
pub enum EquivOracle {
    /// All functions proved equivalent across the standard pipeline.
    Proved,
    /// At least one function degraded to a sampled differential (budget
    /// exhausted); the samples agreed, so no miscompile was *observed*.
    Sampled,
    /// Replay-confirmed miscompile: the standard pipeline changed the
    /// semantics of this input. The payload describes the divergence.
    Miscompile(String),
    /// The oracle could not run on this input (e.g. a construct the
    /// transition-system lowering rejects); not a finding.
    Skipped(String),
}

/// Run the BMC miter as a fuzz oracle: prove (bounded to `k` cycles) that the
/// standard pipeline preserved the semantics of `source`.
///
/// The budget is conflict-only — no wall clock — so a `(seed, iteration)`
/// pair yields the same verdict on every machine and the fixed-seed CI smoke
/// stays deterministic. Counterexamples are replay-confirmed inside `bmc`
/// before being reported, so a [`EquivOracle::Miscompile`] is a real,
/// reproducible compiler bug, not a solver artifact.
///
/// # Errors
/// A [`PanicReport`] if the oracle itself panics — that is a fuzz finding in
/// its own right, not an input rejection.
pub fn check_equivalence(source: &str, k: u32) -> Result<EquivOracle, PanicReport> {
    guard("equiv", || {
        // Same front-end dispatch as `run_pipeline`.
        let pretty_input = source
            .lines()
            .map(str::trim)
            .find(|l| !l.is_empty() && !l.starts_with("//"))
            .is_some_and(|l| l.starts_with("hir.func"));
        let (base, n_errors) = if pretty_input {
            let r = hir::parse_pretty_recover(source, 0);
            (r.module, r.errors.len())
        } else {
            let r = ir::parse_module_recover(source, 0);
            (r.module, r.errors.len())
        };
        if n_errors != 0 {
            return EquivOracle::Skipped("parse errors".to_string());
        }
        let registry = hir::hir_registry();
        let mut diags = ir::DiagnosticEngine::new();
        if ir::verify_module(&base, &registry, &mut diags).is_err()
            || hir_verify::verify_schedule(&base, &mut diags).is_err()
        {
            return EquivOracle::Skipped("verification failed".to_string());
        }

        let mut opt = base.clone();
        let mut diags = ir::DiagnosticEngine::new();
        if hir_opt::standard_pipeline()
            .run(&mut opt, &registry, &mut diags)
            .is_err()
        {
            return EquivOracle::Skipped("optimization failed".to_string());
        }

        let opts = bmc::EquivOptions {
            k_cycles: k,
            conflict_budget: 200_000,
            time_budget_ms: None, // determinism: conflict-only budget
            samples: 4,
            replay_max_cycles: 100_000,
        };
        match bmc::check_module_equivalence(&base, &opt, &opts) {
            Ok(reports) => {
                let mut sampled = false;
                for r in reports {
                    match r.status {
                        bmc::EquivStatus::Counterexample(cex) => {
                            return EquivOracle::Miscompile(format!(
                                "@{} cycle {}: {}",
                                r.func, cex.cycle, cex.detail
                            ));
                        }
                        bmc::EquivStatus::Sampled { .. } => sampled = true,
                        bmc::EquivStatus::Proved => {}
                    }
                }
                if sampled {
                    EquivOracle::Sampled
                } else {
                    EquivOracle::Proved
                }
            }
            Err(e) => EquivOracle::Skipped(e.to_string()),
        }
    })
}

// ---------------------------------------------------------------------------
// Simulator-engine differential oracle
// ---------------------------------------------------------------------------

/// Verdict of the simulator-engine differential oracle on one input.
#[derive(Clone, Debug)]
pub enum SimOracle {
    /// Every simulable function agreed across bytecode, event-driven, and
    /// batched engines on every random stimulus lane.
    Agreed {
        /// Functions that were actually simulated.
        functions: usize,
        /// Stimulus lanes checked per function.
        lanes: usize,
    },
    /// Two engines disagreed on results, latency, memory contents, or
    /// failure behavior: a simulator bug. The payload describes where.
    Divergence(String),
    /// The oracle could not run on this input; not a finding.
    Skipped(String),
}

/// Deterministic random harness arguments for `func`: readable memrefs get
/// small non-negative words (some kernels index memory with data values),
/// write-only memrefs start zeroed, scalars get small integers.
fn random_args(
    m: &ir::Module,
    func: hir::ops::FuncOp,
    rng: &mut StdRng,
) -> Vec<hir_codegen::testbench::HarnessArg> {
    use hir_codegen::testbench::HarnessArg;
    func.args(m)
        .iter()
        .map(|&v| {
            let ty = m.value_type(v);
            match hir::types::MemrefInfo::from_type(&ty) {
                Some(info) => {
                    let n = info.num_elements() as usize;
                    if info.port.can_read() {
                        HarnessArg::Mem((0..n).map(|_| rng.gen_range(0..16i128)).collect())
                    } else {
                        HarnessArg::zero_mem(n)
                    }
                }
                None => HarnessArg::Int(rng.gen_range(0..8i128)),
            }
        })
        .collect()
}

/// Run the engine differential as a fuzz oracle: simulate every function of
/// a compiled input under the bytecode engine, the event-driven engine, and
/// — when all scalar runs succeed — one batched pass with `lanes` random
/// stimulus lanes, requiring bit-identical results, latency, and memories
/// lane for lane. Deterministic per `(source, seed, lanes)`.
///
/// # Errors
/// A [`PanicReport`] if a simulator engine itself panics — a fuzz finding,
/// not an input rejection.
pub fn check_sim_engines(source: &str, seed: u64, lanes: usize) -> Result<SimOracle, PanicReport> {
    use hir_codegen::testbench::{Harness, HarnessReport, DEFAULT_SIM_MAX_CYCLES};
    use rand::SeedableRng;
    guard("sim-diff", || {
        // Same front-end dispatch as `run_pipeline`.
        let pretty_input = source
            .lines()
            .map(str::trim)
            .find(|l| !l.is_empty() && !l.starts_with("//"))
            .is_some_and(|l| l.starts_with("hir.func"));
        let (module, n_errors) = if pretty_input {
            let r = hir::parse_pretty_recover(source, 0);
            (r.module, r.errors.len())
        } else {
            let r = ir::parse_module_recover(source, 0);
            (r.module, r.errors.len())
        };
        if n_errors != 0 {
            return SimOracle::Skipped("parse errors".to_string());
        }
        let registry = hir::hir_registry();
        let mut diags = ir::DiagnosticEngine::new();
        if ir::verify_module(&module, &registry, &mut diags).is_err()
            || hir_verify::verify_schedule(&module, &mut diags).is_err()
        {
            return SimOracle::Skipped("verification failed".to_string());
        }
        let mut design =
            match hir_codegen::generate_design(&module, &hir_codegen::CodegenOptions::default()) {
                Ok(d) => d,
                Err(e) => return SimOracle::Skipped(format!("codegen failed: {e}")),
            };
        // Behavioral stubs for external callees, as `hirc --emit=sim` does.
        match hir_codegen::extern_stubs(&module) {
            Ok(stubs) => {
                for stub in stubs {
                    design.add(stub);
                }
            }
            Err(e) => return SimOracle::Skipped(format!("extern stubs failed: {e}")),
        }

        let same = |a: &HarnessReport, b: &HarnessReport| -> bool {
            a.cycles == b.cycles && a.results == b.results && a.mems == b.mems
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut functions = 0usize;
        for &op in module.top_ops() {
            let Some(f) = hir::ops::FuncOp::wrap(&module, op) else {
                continue;
            };
            if f.is_external(&module) {
                continue;
            }
            let name = f.name(&module);
            let lane_args: Vec<Vec<_>> = (0..lanes.max(1))
                .map(|_| random_args(&module, f, &mut rng))
                .collect();
            // External declarations and functions whose ports the harness
            // cannot model are skipped, not findings.
            if Harness::new(&design, &module, f, &lane_args[0]).is_err() {
                continue;
            }
            // Scalar differential: bytecode vs event-driven, lane by lane.
            let mut scalar: Vec<Result<HarnessReport, String>> = Vec::new();
            for (lane, args) in lane_args.iter().enumerate() {
                let mut runs = Vec::new();
                for engine in [verilog::Engine::Bytecode, verilog::Engine::Event] {
                    let mut h = Harness::new(&design, &module, f, args).expect("probed above");
                    h.set_engine(engine);
                    runs.push(h.run(DEFAULT_SIM_MAX_CYCLES).map_err(|e| e.to_string()));
                }
                match (&runs[0], &runs[1]) {
                    (Ok(bc), Ok(ev)) if same(bc, ev) => {}
                    (Err(be), Err(ee)) if be == ee => {}
                    _ => {
                        return SimOracle::Divergence(format!(
                            "@{name} lane {lane}: bytecode vs event: {:?} vs {:?}",
                            runs[0], runs[1]
                        ))
                    }
                }
                scalar.push(runs.swap_remove(0));
            }
            // Batched differential: only meaningful when every scalar lane
            // completed (a failing lane aborts the whole batch by design).
            if scalar.iter().all(Result::is_ok) {
                let mut bh = match Harness::new_batched(&design, &module, f, &lane_args) {
                    Ok(h) => h,
                    Err(e) => {
                        return SimOracle::Divergence(format!(
                            "@{name}: batched harness failed where scalar succeeded: {e}"
                        ))
                    }
                };
                match bh.run_batched(DEFAULT_SIM_MAX_CYCLES) {
                    Ok(batch) => {
                        for (lane, (b, s)) in batch.iter().zip(&scalar).enumerate() {
                            let s = s.as_ref().expect("all lanes ok");
                            if !same(b, s) {
                                return SimOracle::Divergence(format!(
                                    "@{name} lane {lane}: batched diverged from scalar \
                                     (cycles {} vs {})",
                                    b.cycles, s.cycles
                                ));
                            }
                        }
                    }
                    Err(e) => {
                        return SimOracle::Divergence(format!(
                            "@{name}: batched run failed where every scalar lane \
                             succeeded: {e}"
                        ))
                    }
                }
            }
            functions += 1;
        }
        if functions == 0 {
            return SimOracle::Skipped("no simulable functions".to_string());
        }
        SimOracle::Agreed {
            functions,
            lanes: lanes.max(1),
        }
    })
}

// ---------------------------------------------------------------------------
// Mutation engine
// ---------------------------------------------------------------------------

/// Keywords and fragments from both HIR syntaxes: injecting these drives the
/// fuzzer into deeper parser states than raw byte noise would.
const DICTIONARY: &[&str] = &[
    "hir.func",
    "hir.alloc",
    "hir.for",
    "hir.yield",
    "hir.return",
    "hir.time",
    "hir.delay",
    "!hir.time",
    "!hir.memref",
    "!hir.const",
    "offset",
    "at",
    "iter_time",
    "->",
    "i32",
    "i1",
    "f32",
    "index",
    "%t",
    "%0",
    "%arg0",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    "\"",
    ":",
    ",",
    "=",
    "0",
    "1",
    "16",
    "4294967295",
    "-1",
];

/// Apply one random mutation to `input`, returning the mutant.
///
/// Mutations are a mix of byte-level (flip, insert, delete, duplicate-span,
/// truncate) and token-level (delete/duplicate/swap a whitespace-token,
/// splice a dictionary keyword) operators. Deterministic in `rng`.
pub fn mutate(input: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut out = input.to_vec();
    if out.is_empty() {
        out.extend_from_slice(DICTIONARY[rng.gen_range(0..DICTIONARY.len())].as_bytes());
        return out;
    }
    match rng.gen_range(0..8u32) {
        // Flip a random bit.
        0 => {
            let i = rng.gen_range(0..out.len());
            out[i] ^= 1 << rng.gen_range(0..8u32);
        }
        // Insert a random byte (biased towards printable ASCII).
        1 => {
            let i = rng.gen_range(0..out.len() + 1);
            let b = if rng.gen_bool(0.8) {
                rng.gen_range(0x20u32..0x7f) as u8
            } else {
                rng.next_u64() as u8
            };
            out.insert(i, b);
        }
        // Delete a short span.
        2 => {
            let i = rng.gen_range(0..out.len());
            let len = rng.gen_range(1..9usize).min(out.len() - i);
            out.drain(i..i + len);
        }
        // Duplicate a span somewhere else.
        3 => {
            let i = rng.gen_range(0..out.len());
            let len = rng.gen_range(1..17usize).min(out.len() - i);
            let span: Vec<u8> = out[i..i + len].to_vec();
            let j = rng.gen_range(0..out.len() + 1);
            out.splice(j..j, span);
        }
        // Truncate the tail.
        4 => {
            let keep = rng.gen_range(0..out.len());
            out.truncate(keep);
        }
        // Inject a dictionary token at a random position.
        5 => {
            let tok = DICTIONARY[rng.gen_range(0..DICTIONARY.len())];
            let j = rng.gen_range(0..out.len() + 1);
            out.splice(j..j, tok.bytes());
        }
        // Delete or duplicate one whitespace-separated token.
        6 => {
            let text = String::from_utf8_lossy(&out).into_owned();
            let mut toks: Vec<&str> = text.split_whitespace().collect();
            if toks.len() > 1 {
                let i = rng.gen_range(0..toks.len());
                if rng.gen_bool(0.5) {
                    toks.remove(i);
                } else {
                    let t = toks[i];
                    toks.insert(i, t);
                }
                out = toks.join(" ").into_bytes();
            }
        }
        // Swap two whole lines (breaks SSA dominance / schedule order).
        _ => {
            let text = String::from_utf8_lossy(&out).into_owned();
            let mut lines: Vec<&str> = text.lines().collect();
            if lines.len() > 1 {
                let i = rng.gen_range(0..lines.len());
                let j = rng.gen_range(0..lines.len());
                lines.swap(i, j);
                out = lines.join("\n").into_bytes();
            }
        }
    }
    out
}

/// Derive a fuzz candidate from `base` with `1..=rounds` stacked mutations.
pub fn mutant(base: &[u8], rounds: usize, rng: &mut StdRng) -> String {
    let n = rng.gen_range(1..rounds.max(1) + 1);
    let mut data = base.to_vec();
    for _ in 0..n {
        data = mutate(&data, rng);
    }
    String::from_utf8_lossy(&data).into_owned()
}

// ---------------------------------------------------------------------------
// Multi-function module synthesis
// ---------------------------------------------------------------------------

/// Synthesize a *valid* module of 2–8 functions with cross-function
/// `hir.call`s, deterministically from `rng`.
///
/// The first function is an external declaration; every later function has a
/// body that calls one randomly chosen earlier function (delays balanced with
/// `hir.delay` so the module passes schedule verification). Seeding the
/// mutator with these drives cross-function calls, callee signature checks
/// and multi-function codegen, which the `examples/` corpus mostly lacks.
pub fn synth_multi_func(rng: &mut StdRng) -> String {
    let n = rng.gen_range(2..9usize);
    // delays[k] = declared result delay of function k.
    let mut delays: Vec<u64> = Vec::with_capacity(n);
    let mut out = String::new();
    let d0 = rng.gen_range(1..4u64);
    out.push_str(&format!(
        "\"hir.func\"() {{arg_types = [i32, i32], external = unit, \
         result_delays = [{d0} : index], result_types = [i32], \
         sym_name = \"f0\"}} : () -> ()\n"
    ));
    delays.push(d0);
    for k in 1..n {
        // Call any earlier function; the callee's latency becomes this
        // function's latency (the add after the call is combinational).
        let callee = rng.gen_range(0..k);
        let d = delays[callee];
        out.push_str(&format!(
            "\"hir.func\"() ({{\n\
             ^bb(%0: i32, %1: i32, %2: i32, %3: !hir.time):\n\
             \x20 %4 = \"hir.call\"(%0, %1, %3) {{callee = @f{callee}, offset = 0 : index}} : (i32, i32, !hir.time) -> (i32)\n\
             \x20 %5 = \"hir.delay\"(%2, %3) {{by = {d} : index, offset = 0 : index}} : (i32, !hir.time) -> (i32)\n\
             \x20 %6 = \"hir.add\"(%4, %5) : (i32, i32) -> (i32)\n\
             \x20 \"hir.return\"(%6) : (i32) -> ()\n\
             }}) {{arg_names = [\"a\", \"b\", \"c\"], result_delays = [{d} : index], sym_name = \"f{k}\"}} : () -> ()\n"
        ));
        delays.push(d);
    }
    out
}

// ---------------------------------------------------------------------------
// Reducer
// ---------------------------------------------------------------------------

/// Greedily shrink `source` by deleting line chunks while `keeps_failing`
/// still holds (ddmin-style: halving chunk sizes down to single lines).
///
/// The predicate receives each candidate and must return `true` when the
/// candidate still exhibits the behaviour being isolated (e.g. panics in the
/// same stage). The final result always satisfies the predicate.
pub fn reduce_lines(source: &str, mut keeps_failing: impl FnMut(&str) -> bool) -> String {
    let mut lines: Vec<String> = source.lines().map(String::from).collect();
    let mut chunk = lines.len().max(1);
    while chunk > 0 {
        let mut i = 0;
        while i < lines.len() {
            let end = (i + chunk).min(lines.len());
            let mut candidate = lines.clone();
            candidate.drain(i..end);
            let text = candidate.join("\n");
            if keeps_failing(&text) {
                lines = candidate; // keep the deletion; same index is new text
            } else {
                i = end;
            }
        }
        chunk /= 2;
    }
    lines.join("\n")
}

/// Character-level tail reduction on the (already line-reduced) text: trim
/// trailing characters while the predicate holds. Cheap and often strips
/// noise the line pass cannot.
pub fn reduce_tail(source: &str, mut keeps_failing: impl FnMut(&str) -> bool) -> String {
    let mut text = source.to_string();
    let mut cut = text.len() / 2;
    while cut > 0 {
        while text.len() > cut {
            let mut candidate = text.clone();
            let new_len = text.len() - cut;
            // Truncate on a char boundary.
            let mut n = new_len;
            while n > 0 && !candidate.is_char_boundary(n) {
                n -= 1;
            }
            candidate.truncate(n);
            if keeps_failing(&candidate) {
                text = candidate;
            } else {
                break;
            }
        }
        cut /= 2;
    }
    text
}

// ---------------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------------

/// Load the fuzz corpus: every `.mlir` file under `dir`, sorted by name for
/// deterministic iteration order.
///
/// # Errors
/// Returns an error string when the directory cannot be read or holds no
/// `.mlir` files.
pub fn load_corpus(dir: &std::path::Path) -> Result<Vec<(String, Vec<u8>)>, String> {
    let rd = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut files: Vec<(String, Vec<u8>)> = Vec::new();
    for entry in rd.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) == Some("mlir") {
            let data = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            files.push((path.display().to_string(), data));
        }
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    if files.is_empty() {
        return Err(format!("no .mlir files in {}", dir.display()));
    }
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn quiet<T>(f: impl FnOnce() -> T + std::panic::UnwindSafe) -> T {
        // Keep expected panics out of test output.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = f();
        std::panic::set_hook(hook);
        r
    }

    const VALID: &str = r#"
"hir.func"() {arg_types = [i32, i32], external = unit, result_delays = [2 : index], result_types = [i32], sym_name = "mult"} : () -> ()
"#;

    #[test]
    fn mutation_is_deterministic_per_seed() {
        let base = b"hir.func @f at %t () -> () { }";
        let a: Vec<String> = {
            let mut rng = StdRng::seed_from_u64(7);
            (0..10).map(|_| mutant(base, 4, &mut rng)).collect()
        };
        let b: Vec<String> = {
            let mut rng = StdRng::seed_from_u64(7);
            (0..10).map(|_| mutant(base, 4, &mut rng)).collect()
        };
        assert_eq!(a, b);
        let c: Vec<String> = {
            let mut rng = StdRng::seed_from_u64(8);
            (0..10).map(|_| mutant(base, 4, &mut rng)).collect()
        };
        assert_ne!(a, c, "different seeds should diverge");
    }

    #[test]
    fn pipeline_accepts_trivial_valid_module() {
        let outcome = run_pipeline(VALID).expect("no panic");
        assert_eq!(outcome.parse_errors, 0);
        assert!(outcome.verified);
    }

    #[test]
    fn pipeline_reports_diagnostics_not_panics_on_garbage() {
        for garbage in [
            "",
            "}}}}((((",
            "hir.func \u{0} @x",
            "%1 = \"a.b\"(%9) : (i32) -> (i32)",
            "hir.func @f at %t(%x : !hir.memref<oops>",
        ] {
            let outcome = quiet(|| run_pipeline(garbage)).unwrap_or_else(|r| {
                panic!("contract violated on {garbage:?}: {r}");
            });
            let _ = outcome; // rejection is fine; panicking is not
        }
    }

    #[test]
    fn mini_fuzz_smoke_holds_the_contract() {
        // A small in-test smoke run; CI runs the real 500-iteration binary.
        let base = VALID.as_bytes();
        quiet(|| {
            for seed in 0..60u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let input = mutant(base, 4, &mut rng);
                if let Err(report) = run_pipeline(&input) {
                    panic!("seed {seed}: {report}\ninput:\n{input}");
                }
            }
        });
    }

    #[test]
    fn synthesized_multi_func_modules_compile_clean() {
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let src = synth_multi_func(&mut rng);
            assert!(src.matches("hir.func").count() >= 2, "seed {seed}:\n{src}");
            assert!(src.contains("hir.call"), "seed {seed}: no cross-call");
            let outcome = run_pipeline(&src).expect("no panic");
            assert_eq!(outcome.parse_errors, 0, "seed {seed}:\n{src}");
            assert!(outcome.verified, "seed {seed}:\n{src}");
            assert!(outcome.optimized, "seed {seed}:\n{src}");
        }
    }

    #[test]
    fn multi_func_mutants_hold_the_contract() {
        quiet(|| {
            for seed in 0..30u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let base = synth_multi_func(&mut rng);
                let input = mutant(base.as_bytes(), 4, &mut rng);
                if let Err(report) = run_pipeline(&input) {
                    panic!("seed {seed}: {report}\ninput:\n{input}");
                }
            }
        });
    }

    #[test]
    fn sim_oracle_agrees_on_valid_corpus_file() {
        // The mac example exercises scalars, a memref, and a result port.
        let src = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/mac.mlir"),
        )
        .expect("examples/mac.mlir");
        match check_sim_engines(&src, 42, 3).expect("no panic") {
            SimOracle::Agreed { functions, lanes } => {
                assert!(functions >= 1);
                assert_eq!(lanes, 3);
            }
            other => panic!("expected agreement on a shipped example, got {other:?}"),
        }
    }

    #[test]
    fn sim_oracle_skips_garbage() {
        match quiet(|| check_sim_engines("}}}}((((", 1, 2)).expect("no panic") {
            SimOracle::Skipped(_) => {}
            other => panic!("garbage must be skipped, got {other:?}"),
        }
    }

    #[test]
    fn reducer_shrinks_to_the_failing_line() {
        let input = "line one\nline two\nBOOM here\nline four\nline five";
        let reduced = reduce_lines(input, |s| s.contains("BOOM"));
        assert_eq!(reduced, "BOOM here");
        let reduced = reduce_tail(&reduced, |s| s.contains("BOOM"));
        assert_eq!(reduced, "BOOM");
    }

    #[test]
    fn reducer_result_always_satisfies_predicate() {
        let input = (0..32)
            .map(|i| format!("line {i} {}", if i == 13 || i == 27 { "X" } else { "" }))
            .collect::<Vec<_>>()
            .join("\n");
        // Needs BOTH markers: forces the reducer to keep two separated lines.
        let pred = |s: &str| s.matches('X').count() >= 2;
        let reduced = reduce_lines(&input, pred);
        assert!(pred(&reduced));
        assert_eq!(reduced.lines().count(), 2);
    }
}
