//! The metric catalogue: every name the benchmark reports, with its unit.
//! `BENCHMARK.json` at the repository root lists the same names (a unit
//! test keeps the two in step). Every workload reports every metric; a
//! per-layer metric of a layer the workload never calls reads 0.

/// End-to-end metrics, reported with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_s_p75", "s"),
    ("op_s_tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("design_lut", "count"),
    ("design_ff", "count"),
    ("design_cycles", "cycles"),
];

/// Simulation engines timed by the sim workloads, in operation order.
pub const ENGINES: [&str; 3] = ["bytecode", "event", "batched"];

/// The two timed equivalence instances.
pub const VERDICTS: [&str; 2] = ["proved", "refuted"];

/// Solver statistics reported per verdict, as returned in
/// `FuncReport.solver`.
pub const BMC_STATS: &[(&str, &str)] = &[
    ("blast_ms", "ms"),
    ("solve_ms", "ms"),
    ("replay_ms", "ms"),
    ("clauses", "count"),
    ("blast_hits", "count"),
    ("blast_misses", "count"),
    ("blast_hit_rate", "ratio"),
    ("conflicts", "count"),
    ("decisions", "count"),
];

/// Metric name of the standard pipeline's pass at position `pos`.
pub fn pass_metric(pos: usize, suffix: &str) -> String {
    format!(
        "hir-opt.pass.{}.{pos}{suffix}",
        hir_opt::STANDARD_PASS_NAMES[pos]
    )
}

/// Per-layer metrics, reported by the traced run.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| v.push((name, unit));
    for (n, u) in [
        ("ir.parse_s", "s"),
        ("ir.parse_ops", "count"),
        ("ir.verify_s", "s"),
        ("hir-verify.schedule_s", "s"),
        ("hir-verify.reverify_s", "s"),
        ("ir.split_top_s", "s"),
        ("ir.splice_top_s", "s"),
        ("hir-opt.pipeline_s", "s"),
        ("hir-opt.serial_s", "s"),
        ("hir-opt.serial_verilog_differs", "count"),
    ] {
        add(n.into(), u);
    }
    for pos in 0..hir_opt::STANDARD_PASS_NAMES.len() {
        add(pass_metric(pos, "_s"), "s");
        add(pass_metric(pos, ".ops_after"), "count");
    }
    for (n, u) in [
        ("hir-codegen.codegen_s", "s"),
        ("verilog.print_s", "s"),
        ("verilog.print_bytes", "bytes"),
        ("synth.estimate_s", "s"),
        ("verilog.harness_build_s", "s"),
        ("verilog.event_tables_s", "s"),
        ("verilog.batch_build_s", "s"),
    ] {
        add(n.into(), u);
    }
    for e in ENGINES {
        add(format!("verilog.run_s.{e}"), "s");
        add(format!("verilog.run_cycles_per_s.{e}"), "1/s");
    }
    for (n, u) in [
        ("verilog.sched.wake_walk_sum", "count"),
        ("verilog.sched.dirty_cones_mean", "count"),
        ("verilog.sched.spurious_wake_rate", "ratio"),
        ("verilog.tsys_lower_s", "s"),
        ("bmc.k24_miscompile_missed", "count"),
    ] {
        add(n.into(), u);
    }
    for verdict in VERDICTS {
        add(format!("bmc.check_s.{verdict}"), "s");
        for (stat, unit) in BMC_STATS {
            add(format!("bmc.{stat}.{verdict}"), unit);
        }
    }
    for (n, u) in [
        ("unattributed_s", "s"),
        ("trace.op_s", "s"),
        ("trace.untraced_op_s", "s"),
        ("trace.overhead_pct", "%"),
        ("trace.ops", "count"),
    ] {
        add(n.into(), u);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one section of `BENCHMARK.json`.
    fn listed(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = obs::json::parse(&text).expect("BENCHMARK.json is strict JSON");
        doc.get(section)
            .and_then(|v| v.as_array())
            .expect("section is an array")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
    }

    #[test]
    fn names_fit_the_contract() {
        for (name, _) in per_layer() {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
    }
}
