//! `hirbench`: the HIR toolchain's end-to-end benchmark.
//!
//! ```text
//! hirbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!          --hirc <path> --work-dir <dir>
//! ```
//!
//! One client runs operations one at a time in a closed loop for `--seconds`
//! seconds; every operation's output is checked against a known answer.
//! With `--trace 0` the last stdout line reports the end-to-end metrics;
//! with `--trace 1` each operation is followed by a traced copy of itself on
//! the same input, and the line reports per-layer metrics instead (see
//! `layers.rs`). Earlier stdout lines print every metric by name and unit.
//! `run.sh` builds `hirc` and this binary and supplies `--hirc`/`--work-dir`.

mod compile;
mod equiv;
mod layers;
mod metrics;
mod rss;
mod sim;
mod spawner;
mod stats;

use layers::{Layers, TraceLog};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

/// Set-ups per benchmark run, at least [`SETUP_MIN_REPS`] and at least
/// [`SETUP_MIN_SECONDS`] in total; `setup_s` is their median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_SECONDS: f64 = 1.0;

/// Metric values by name.
pub type Metrics = BTreeMap<String, f64>;

/// One reported metric: name, unit, value.
type Row = (String, &'static str, f64);

/// Operations attempted and failed (output differs from its known answer).
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Record one checked operation; a failed check is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("hirbench: check failed: {}", what());
        }
    }
}

/// One workload: its set-up state and its operation.
pub trait Workload {
    /// Run operation `i` untraced, check its output, and return its wall
    /// time in seconds.
    fn op(&mut self, i: u64, tally: &mut Tally) -> Result<f64, String>;
    /// Run operation `i` again with every layer call timed into `layers`;
    /// return the operation's wall time (probes excluded).
    fn traced_op(&mut self, i: u64, layers: &mut Layers, tally: &mut Tally) -> Result<f64, String>;
    /// End-to-end metrics besides `op_s_p75`, `op_s_tail` and `setup_s`.
    fn report(&mut self, out: &mut Metrics) -> Result<(), String>;
    /// Percentile reported as `op_s_tail`: fixed per workload so that it
    /// names the same statistic in every run. 100 is the maximum, for
    /// workloads too slow to leave ten samples beyond any percentile above
    /// p75.
    fn tail_percentile(&self) -> f64;
    /// Once per run, untimed: check a known defect of the program and
    /// record it as a per-layer count, with a line on stdout.
    fn audit(&mut self, _out: &mut Metrics) -> Result<(), String> {
        Ok(())
    }
    /// Per-layer metrics derived from the aggregated layer times.
    fn derive(&self, _out: &mut Metrics) {}
}

/// Paths and settings every workload's set-up may use.
pub struct Env {
    pub seed: u64,
    pub hirc: PathBuf,
    pub work_dir: PathBuf,
    /// Runs child processes (see `spawner.rs`).
    pub spawner: Rc<RefCell<spawner::Spawner>>,
}

/// A 64-bit value mixed from `seed` and two stream indices (splitmix64), for
/// per-operation stimulus seeds.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    hirc: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key.to_string(), value);
    }
    let mut take = |k: &str| kv.remove(k).ok_or_else(|| format!("missing --{k}"));
    let args = Args {
        workload: take("workload")?,
        seed: take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: take("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, got '{t}'")),
        },
        hirc: take("hirc")?.into(),
        work_dir: take("work-dir")?.into(),
    };
    if let Some(k) = kv.keys().next() {
        return Err(format!("unknown flag --{k}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn setup(env: &Env, workload: &str) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "compile_multi" => Box::new(compile::CompileMulti::setup(env)?),
        "sim_gemm" => Box::new(sim::SimWorkload::setup(env.seed, sim::Design::Gemm)?),
        "sim_busy" => Box::new(sim::SimWorkload::setup(env.seed, sim::Design::Conv)?),
        "equiv_gemm" => Box::new(equiv::EquivGemm::setup(env.seed)?),
        w => return Err(format!("unknown workload '{w}'")),
    })
}

/// Render the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, with every value printed in full precision.
fn result_line(tally: &Tally, metrics: &[Row]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<(Tally, Vec<Row>), String> {
    // First, while this process is small.
    let spawner = Rc::new(RefCell::new(spawner::Spawner::start()?));
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("{}: {e}", args.work_dir.display()))?;
    let env = Env {
        seed: args.seed,
        hirc: args.hirc.clone(),
        work_dir: args.work_dir.clone(),
        spawner,
    };

    let mut setup_times = Vec::new();
    let mut workload = None;
    while setup_times.len() < SETUP_MIN_REPS || setup_times.iter().sum::<f64>() < SETUP_MIN_SECONDS
    {
        let t0 = Instant::now();
        workload = Some(setup(&env, &args.workload)?);
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one set-up");

    let mut audit = Metrics::new();
    w.audit(&mut audit)?;
    // `peak_rss_mb` covers the measured operations only.
    rss::reset_peak()?;

    let mut tally = Tally::default();
    let mut times = Vec::new();
    let mut log = TraceLog::default();
    let start = Instant::now();
    for i in 0.. {
        let t = w.op(i, &mut tally)?;
        times.push(t);
        if args.trace {
            let mut layers = Layers::default();
            let traced = w.traced_op(i, &mut layers, &mut tally)?;
            log.push(traced, t, layers);
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let mut values = Metrics::new();
    let catalogue: Vec<(String, &'static str)> = if args.trace {
        values = log.metrics()?;
        values.append(&mut audit);
        w.derive(&mut values);
        metrics::per_layer()
    } else {
        let p = w.tail_percentile();
        let pct = |p| stats::percentile(&times, p);
        println!(
            "operation times: {} samples; min {:.6}, p10 {:.6}, p25 {:.6}, median {:.6}, mean {:.6}, p75 {:.6}, p90 {:.6}, max {:.6} s; op_s_tail is p{p}, {} samples beyond it",
            times.len(),
            pct(0.0),
            pct(10.0),
            pct(25.0),
            stats::median(&times),
            stats::mean(&times),
            pct(75.0),
            pct(90.0),
            pct(100.0),
            stats::beyond(times.len(), p)
        );
        println!(
            "setup_s: {} set-ups; min {:.6}, p25 {:.6}, median {:.6} s",
            setup_times.len(),
            stats::percentile(&setup_times, 0.0),
            stats::percentile(&setup_times, 25.0),
            stats::median(&setup_times)
        );
        // The upper quartile, not the median: on a shared host whose speed
        // comes in bursts, the median flips between the fast and the slow
        // mode from run to run; p75 stays in the slow mode (README.md).
        values.insert("op_s_p75".into(), pct(75.0));
        values.insert("op_s_tail".into(), stats::percentile(&times, p));
        values.insert("setup_s".into(), stats::median(&setup_times));
        w.report(&mut values)?;
        metrics::END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let mut rows = Vec::new();
    for (name, unit) in catalogue {
        // A layer this workload never calls reads 0; an end-to-end metric
        // must always be measured.
        let v = match values.remove(&name) {
            Some(v) => v,
            None if args.trace => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        if !v.is_finite() {
            return Err(format!("{name} is not a finite number: {v}"));
        }
        rows.push((name, unit, v));
    }
    if let Some(name) = values.keys().next() {
        return Err(format!("metric {name} is missing from the catalogue"));
    }
    Ok((tally, rows))
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--spawner") {
        return spawner::serve();
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hirbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((tally, rows)) => {
            println!(
                "workload {} seed {}: {} operations attempted, {} failed",
                args.workload, args.seed, tally.attempted, tally.failed
            );
            for (name, unit, v) in &rows {
                println!("  {name:<44} {v:>16.6} {unit}");
            }
            println!("{}", result_line(&tally, &rows));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hirbench: {e}");
            ExitCode::FAILURE
        }
    }
}
