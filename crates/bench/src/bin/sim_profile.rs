//! Profiles every simulator engine on the generated GEMM testbench: the
//! bytecode baseline, the tree-walk oracle, the event-driven scheduler
//! (quiescent cones skipped), and the batched engine (N independent
//! stimulus lanes evaluated bit-parallel). Same design, same stimulus
//! (lane 0), every engine runs to completion and must produce the reference
//! GEMM result. The measurements are written to `BENCH_sim_profile.json` so
//! CI can archive engine-throughput baselines next to the pass profile.
//!
//! Flags:
//!   --quick       one repetition instead of three
//!   --n=SIZE      GEMM size (power of two, default 16)
//!   --lanes=N     stimulus lanes for the batched engine (default 16)
//!   --out=PATH    write the JSON somewhere other than the default
//!   --gate-event  exit 1 unless event-driven cycles/s >= bytecode cycles/s
//!                 (the CI no-regression drift gate)
//!   --gate-sched-off=PCT
//!                 exit 1 if a stats-off event run re-measured *after* the
//!                 sched-stats runs is more than PCT% slower than the
//!                 recorded event row (the zero-cost-when-off gate: the
//!                 compiled-in scheduler-stats plane must not tax the off
//!                 path)

use hir_codegen::testbench::{Harness, HarnessArg};
use obs::json::escape;
use std::time::Instant;

const OUT_FILE: &str = "BENCH_sim_profile.json";

struct EngineRun {
    label: &'static str,
    cycles: u64,
    best_ns: u128,
    cycles_per_s: f64,
    lanes: usize,
    /// Aggregate throughput: (cycles x lanes) per second.
    lane_cycles_per_s: f64,
}

fn main() {
    let mut reps = 3usize;
    let mut n = 16u64;
    let mut lanes = 16usize;
    let mut out_file = OUT_FILE.to_string();
    let mut gate_event = false;
    let mut gate_sched_off: Option<f64> = None;
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            reps = 1;
        } else if arg == "--gate-event" {
            gate_event = true;
        } else if let Some(v) = arg.strip_prefix("--gate-sched-off=") {
            gate_sched_off = Some(v.parse().expect("--gate-sched-off=PCT"));
        } else if let Some(v) = arg.strip_prefix("--n=") {
            n = v.parse().expect("--n=SIZE");
        } else if let Some(v) = arg.strip_prefix("--lanes=") {
            lanes = v.parse().expect("--lanes=N");
            assert!((1..=64).contains(&lanes), "--lanes accepts 1..=64");
        } else if let Some(path) = arg.strip_prefix("--out=") {
            out_file = path.to_string();
        } else {
            eprintln!(
                "unknown flag {arg} (expected --quick, --n=, --lanes=, --out=, --gate-event, --gate-sched-off=)"
            );
            std::process::exit(2);
        }
    }

    let nn = (n * n) as usize;
    let mut m = kernels::gemm::hir_gemm(n, 32);
    let (design, _) = kernels::compile_hir(&mut m, true).expect("compile");
    let func = kernels::find_func(&m, kernels::gemm::FUNC);
    let a: Vec<i128> = (0..nn as i128).map(|x| x % 9 - 4).collect();
    let b: Vec<i128> = (0..nn as i128).map(|x| 2 * x % 7 - 3).collect();
    let args = [
        HarnessArg::mem_from(&a),
        HarnessArg::mem_from(&b),
        HarnessArg::zero_mem(nn),
    ];
    let expect = kernels::gemm::reference(n, &a, &b);

    let report_row = |r: &EngineRun| {
        println!(
            "{:<12} {:>8} cycles in {:>8.4}s  ({:>12.0} cycles/s, {:>14.0} lane-cycles/s)",
            r.label,
            r.cycles,
            r.best_ns as f64 / 1e9,
            r.cycles_per_s,
            r.lane_cycles_per_s
        );
    };

    type Measured = (
        EngineRun,
        Option<verilog::TelemetryReport>,
        Option<verilog::SchedStatsReport>,
    );
    let measure =
        |engine: verilog::Engine, label: &'static str, telemetry: bool, sched: bool| -> Measured {
            let mut best = u128::MAX;
            let mut cycles = 0u64;
            let mut telem = None;
            let mut sched_rep = None;
            for _ in 0..reps {
                let mut h = Harness::new(&design, &m, func, &args).expect("harness");
                h.set_engine(engine);
                if telemetry {
                    h.enable_telemetry(false);
                }
                if sched {
                    h.enable_sched_stats();
                }
                let t0 = Instant::now();
                let report = h.run(1_000_000).expect("run");
                best = best.min(t0.elapsed().as_nanos());
                cycles = report.cycles;
                assert_eq!(report.mems[&2], expect, "{label}: wrong GEMM result");
                if telemetry {
                    telem = h.telemetry_report(None);
                }
                if sched {
                    sched_rep = h.sched_stats_report();
                }
            }
            let rate = cycles as f64 / (best as f64 / 1e9);
            let run = EngineRun {
                label,
                cycles,
                best_ns: best,
                cycles_per_s: rate,
                lanes: 1,
                lane_cycles_per_s: rate,
            };
            report_row(&run);
            (run, telem, sched_rep)
        };

    // One batched pass simulates `lanes` independent GEMMs: lane 0 carries
    // the baseline stimulus, later lanes offset matrix A per lane so every
    // lane computes (and checks) a different product.
    let measure_batched = || -> EngineRun {
        let lane_args: Vec<Vec<HarnessArg>> = (0..lanes)
            .map(|lane| {
                let al: Vec<i128> = a.iter().map(|v| v + lane as i128).collect();
                vec![
                    HarnessArg::mem_from(&al),
                    HarnessArg::mem_from(&b),
                    HarnessArg::zero_mem(nn),
                ]
            })
            .collect();
        let expects: Vec<Vec<i128>> = lane_args
            .iter()
            .map(|la| match &la[0] {
                HarnessArg::Mem(al) => kernels::gemm::reference(n, al, &b),
                _ => unreachable!(),
            })
            .collect();
        let mut best = u128::MAX;
        let mut cycles = 0u64;
        for _ in 0..reps {
            let mut h =
                Harness::new_batched(&design, &m, func, &lane_args).expect("batched harness");
            let t0 = Instant::now();
            let reports = h.run_batched(1_000_000).expect("batched run");
            best = best.min(t0.elapsed().as_nanos());
            cycles = reports[0].cycles;
            for (lane, (rep, exp)) in reports.iter().zip(&expects).enumerate() {
                assert_eq!(rep.mems[&2], *exp, "batched lane {lane}: wrong GEMM result");
            }
        }
        let rate = cycles as f64 / (best as f64 / 1e9);
        let run = EngineRun {
            label: "batched",
            cycles,
            best_ns: best,
            cycles_per_s: rate,
            lanes,
            lane_cycles_per_s: rate * lanes as f64,
        };
        report_row(&run);
        run
    };

    let tape = {
        let h = Harness::new(&design, &m, func, &args).expect("harness");
        let (na, st, nal, sp, nr) = h.sim().tape_stats();
        println!("assigns {na} (settle tape {st}), always {nal} (step tape {sp}), regs {nr}");
        (na, st, nal, sp, nr)
    };
    println!("GEMM N={n} testbench, best of {reps}, {lanes} batched lanes");
    let (bc, _, _) = measure(verilog::Engine::Bytecode, "bytecode", false, false);
    let (tw, _, _) = measure(verilog::Engine::TreeWalk, "tree-walk", false, false);
    let (ev, _, _) = measure(verilog::Engine::Event, "event", false, false);
    {
        // Scheduler activity: how much of the cone graph the event engine
        // actually runs per cycle (the skip ratio the speedup comes from).
        let mut h = Harness::new(&design, &m, func, &args).expect("harness");
        h.set_engine(verilog::Engine::Event);
        let rep = h.run(1_000_000).expect("run");
        {
            // Quiescent floor: cost of a step when nothing is pending.
            let t0 = Instant::now();
            h.sim_mut().run(532).expect("idle run");
            println!(
                "event quiescent floor: {:.0} ns/cycle",
                t0.elapsed().as_nanos() as f64 / 532.0
            );
        }
        if let Some((sruns, pruns, scones, pcones, sinsns, pinsns)) = h.sim().event_activity() {
            let cy = rep.cycles as f64;
            println!(
                "event activity: {:.1}/{} settle cones ({:.0} insns) and {:.1}/{} step cones ({:.0} insns) per cycle",
                sruns as f64 / cy,
                scones,
                sinsns as f64 / cy,
                pruns as f64 / cy,
                pcones,
                pinsns as f64 / cy,
            );
        }
    }
    let bt = measure_batched();
    let (bct, _, _) = measure(verilog::Engine::Bytecode, "bc+telem", true, false);
    let (evt, telem, _) = measure(verilog::Engine::Event, "ev+telem", true, false);
    // The scheduler's own statistics plane, measured like telemetry: the
    // event engine with `--sched-stats` on, against the plain event row.
    let (evs, _, sched) = measure(verilog::Engine::Event, "ev+sched", false, true);
    let speedup = bc.cycles_per_s / tw.cycles_per_s;
    let speedup_event = ev.cycles_per_s / bc.cycles_per_s;
    let speedup_batched = bt.lane_cycles_per_s / bc.cycles_per_s;
    println!("speedup    bytecode/tree-walk {speedup:.1}x, event/bytecode {speedup_event:.1}x, batched lane-cycles/bytecode {speedup_batched:.1}x");
    // Telemetry slowdown (counters on vs off, same engine). Under the
    // bytecode engine the live tape run carries the per-pc counting
    // observer; the event engine keeps its dispatch and adds a full-tape
    // scratch counting run. The recorded overhead is the event-mode figure.
    let overhead_bc_pct = 100.0 * (1.0 - bct.cycles_per_s / bc.cycles_per_s);
    let overhead_pct = 100.0 * (1.0 - evt.cycles_per_s / ev.cycles_per_s);
    println!(
        "telemetry overhead {overhead_pct:.1}% (event-driven; bytecode {overhead_bc_pct:.1}%)"
    );
    let telem = telem.expect("telemetry report from instrumented run");
    let overall = telem.overall_quiescence();
    let (worst_name, worst_frac) = telem
        .worst_cone()
        .map(|(name, frac)| (name.to_string(), frac))
        .unwrap_or_default();
    println!("quiescence overall {overall:.3}, worst cone {worst_name} ({worst_frac:.3})");
    // Scheduler-overhead baseline for the ROADMAP item 2 hunt: how much of
    // the event engine's cycle goes to wake walks and commit compares, how
    // many wakes were spurious, and what the stats plane itself costs.
    let sched = sched.expect("sched stats report from instrumented run");
    let overhead_sched_pct = 100.0 * (1.0 - evs.cycles_per_s / ev.cycles_per_s);
    let share = sched.cycle_share();
    println!(
        "sched stats overhead {overhead_sched_pct:.1}% (event-driven); spurious wake rate {:.1}%",
        sched.spurious_wake_rate() * 100.0
    );
    println!(
        "sched cycle share: interpreter {:.1}% | wake walks {:.1}% | commit compares {:.1}%",
        share[0].2 * 100.0,
        share[1].2 * 100.0,
        share[2].2 * 100.0
    );
    println!(
        "reader walks: {} net wakes (mean len {} max {}), {} mem wakes (mean len {} max {})",
        sched.net_wake_walk.count(),
        sched.net_wake_walk.mean(),
        sched.net_wake_walk.max(),
        sched.mem_wake_walk.count(),
        sched.mem_wake_walk.mean(),
        sched.mem_wake_walk.max()
    );

    let engines: Vec<String> = [&bc, &tw, &ev, &bt, &bct, &evt, &evs]
        .iter()
        .map(|r| {
            format!(
                r#"    {{"engine":"{}","cycles":{},"best_ns":{},"cycles_per_s":{:.0},"lanes":{},"lane_cycles_per_s":{:.0}}}"#,
                escape(r.label),
                r.cycles,
                r.best_ns,
                r.cycles_per_s,
                r.lanes,
                r.lane_cycles_per_s,
            )
        })
        .collect();
    let sched_json = format!(
        "{{\"overhead_on_pct\":{:.1},\"spurious_wake_rate\":{:.6},\"cycle_share\":{{\"interpreter\":{:.6},\"wake_walks\":{:.6},\"commit_compares\":{:.6}}},\"net_wake_walk\":{},\"mem_wake_walk\":{},\"dirty_cones\":{}}}",
        overhead_sched_pct,
        sched.spurious_wake_rate(),
        share[0].2,
        share[1].2,
        share[2].2,
        sched.net_wake_walk.to_json(),
        sched.mem_wake_walk.to_json(),
        sched.dirty_cones.to_json(),
    );
    let doc = format!(
        "{{\n  \"gemm_n\": {n},\n  \"reps\": {reps},\n  \"tape\": {{\"assigns\":{},\"settle_tape\":{},\"always\":{},\"step_tape\":{},\"regs\":{}}},\n  \"engines\": [\n{}\n  ],\n  \"speedup_bytecode_vs_treewalk\": {:.2},\n  \"speedup_event_vs_bytecode\": {:.2},\n  \"speedup_batched_lane_cycles_vs_bytecode\": {:.2},\n  \"telemetry\": {{\"overhead_pct\":{:.1},\"overhead_pct_bytecode\":{:.1},\"toggle_coverage\":{:.6}}},\n  \"quiescence\": {{\"overall\":{:.6},\"worst_cone\":\"{}\",\"worst_fraction\":{:.6}}},\n  \"sched\": {}\n}}\n",
        tape.0,
        tape.1,
        tape.2,
        tape.3,
        tape.4,
        engines.join(",\n"),
        speedup,
        speedup_event,
        speedup_batched,
        overhead_pct,
        overhead_bc_pct,
        telem.toggle_coverage(),
        overall,
        escape(&worst_name),
        worst_frac,
        sched_json,
    );
    // Same rule as pass_profile: prove the document parses before writing.
    obs::json::parse(&doc).expect("generated JSON is valid");
    std::fs::write(&out_file, &doc).expect("write profile");
    println!("wrote {out_file}");

    if gate_event && ev.cycles_per_s < bc.cycles_per_s {
        eprintln!(
            "sim_profile: REGRESSION: event engine ({:.0} cycles/s) is slower than bytecode ({:.0} cycles/s)",
            ev.cycles_per_s, bc.cycles_per_s
        );
        std::process::exit(1);
    }
    if let Some(pct) = gate_sched_off {
        // Zero-cost-when-off check: re-measure the plain event row now that
        // the stats plane has been exercised; it must sit within the noise
        // band of the row recorded above, or the off path grew a tax. A
        // real tax fails every attempt; scheduler/frequency noise does not,
        // so the gate takes the best of a few tries before failing.
        let mut slowdown_pct = f64::INFINITY;
        for attempt in 1..=3 {
            let (off, _, _) = measure(verilog::Engine::Event, "ev (off)", false, false);
            slowdown_pct = slowdown_pct.min(100.0 * (1.0 - off.cycles_per_s / ev.cycles_per_s));
            println!("sched-stats-off re-measurement #{attempt}: {slowdown_pct:+.1}% vs recorded event row (gate {pct}%)");
            if slowdown_pct <= pct {
                break;
            }
        }
        if slowdown_pct > pct {
            eprintln!(
                "sim_profile: REGRESSION: stats-off event runs stayed {slowdown_pct:.1}% slower than the recorded event row ({:.0} cycles/s); --gate-sched-off={pct}",
                ev.cycles_per_s
            );
            std::process::exit(1);
        }
    }
}
