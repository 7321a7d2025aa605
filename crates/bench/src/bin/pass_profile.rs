//! Profiles the standard optimization pipeline over the kernels suite.
//!
//! Compiles every benchmark through verify → optimize → codegen several
//! times and writes `BENCH_pass_profile.json`: per-pass mean wall time and
//! op counts for each kernel, a total-pipeline wall-clock row, a GEMM
//! scaling section (N = 8/16/32) that documents near-linear pass cost, a
//! multi-kernel section timing the serial pass manager on two
//! multi-function modules, and the aggregate mean per pass across the
//! suite. A human-readable summary goes to stdout.
//!
//! Flags:
//!   --quick            fewer repetitions (CI smoke mode)
//!   --out=PATH         write the JSON somewhere other than the default
//!   --check-ops=PATH   compare per-kernel/per-pass `ops_after` against a
//!                      previously written profile; exit 1 on any drift

use obs::json::escape;
use std::collections::BTreeMap;
use std::time::Instant;

const OUT_FILE: &str = "BENCH_pass_profile.json";
const GEMM_SCALING_NS: [u64; 3] = [8, 16, 32];
/// Functions in the synthetic replica workload.
const REPLICAS: usize = 8;

struct PassSample {
    total_ns: u128,
    runs: usize,
    ops_before: usize,
    ops_after: usize,
}

struct KernelProfile {
    samples: BTreeMap<String, PassSample>,
    /// Mean wall-clock of one full pipeline run (verify + optimize).
    total_ns: u128,
}

/// Run verify → standard pipeline `reps` times over freshly built modules.
fn profile_pipeline(build: &dyn Fn() -> ir::Module, reps: usize, codegen: bool) -> KernelProfile {
    let registry = hir::hir_registry();
    let mut samples: BTreeMap<String, PassSample> = BTreeMap::new();
    let mut total_ns = 0u128;
    for _ in 0..reps {
        let mut m = build();
        let mut diags = ir::DiagnosticEngine::new();
        let start = Instant::now();
        ir::verify_module(&m, &registry, &mut diags).expect("verify");
        hir_verify::verify_schedule(&m, &mut diags).expect("schedule");
        let mut pm = hir_opt::standard_pipeline();
        pm.run(&mut m, &registry, &mut diags).expect("pipeline");
        total_ns += start.elapsed().as_nanos();
        // Passes can repeat in the pipeline; repeated instances fold together.
        for t in pm.timings() {
            let s = samples.entry(t.name.clone()).or_insert(PassSample {
                total_ns: 0,
                runs: 0,
                ops_before: t.ops_before,
                ops_after: t.ops_after,
            });
            s.total_ns += t.duration.as_nanos();
            s.runs += 1;
            s.ops_before = s.ops_before.max(t.ops_before);
            s.ops_after = s.ops_after.min(t.ops_after);
        }
        if codegen {
            // Codegen keeps the profile honest about end-to-end compile cost.
            hir_codegen::generate_design(&m, &hir_codegen::CodegenOptions::default())
                .expect("codegen");
        }
    }
    KernelProfile {
        samples,
        total_ns: total_ns / reps as u128,
    }
}

/// All five benchmark kernels spliced into one module: the realistic
/// multi-function workload.
fn suite_module() -> ir::Module {
    let mods: Vec<ir::Module> = kernels::compiled_benchmarks()
        .iter()
        .map(|b| (b.build_hir)())
        .collect();
    ir::Module::splice_top(&mods)
}

/// A synthetic module of [`REPLICAS`] renamed GEMM functions of uniform
/// cost.
fn replica_module() -> ir::Module {
    let mods: Vec<ir::Module> = (0..REPLICAS)
        .map(|_| kernels::gemm::hir_gemm(kernels::sizes::GEMM_N, 32))
        .collect();
    let mut m = ir::Module::splice_top(&mods);
    let tops: Vec<ir::OpId> = m.top_ops().to_vec();
    for (i, t) in tops.into_iter().enumerate() {
        m.set_attr(t, ir::SYM_NAME, ir::Attribute::string(format!("gemm_r{i}")));
    }
    m
}

/// Time the serial standard pipeline on one multi-function workload: mean,
/// min and max over `reps` runs, plus `ops_after` per pipeline position.
/// Returns the JSON object for the `multi_kernel` section.
fn profile_multi_kernel(name: &str, build: &dyn Fn() -> ir::Module, reps: usize) -> String {
    let registry = hir::hir_registry();
    let functions = build().top_ops().len();
    let mut times = Vec::with_capacity(reps);
    let mut ops_after: Vec<(String, usize)> = Vec::new();
    for _ in 0..reps {
        let mut m = build();
        let mut diags = ir::DiagnosticEngine::new();
        let mut pm = hir_opt::standard_pipeline();
        let t0 = Instant::now();
        pm.run(&mut m, &registry, &mut diags).expect("pipeline");
        times.push(t0.elapsed().as_nanos());
        ops_after = pm
            .timings()
            .iter()
            .map(|t| (t.name.clone(), t.ops_after))
            .collect();
    }
    let mean = times.iter().sum::<u128>() / reps as u128;
    let (min, max) = (times.iter().min().unwrap(), times.iter().max().unwrap());
    println!(
        "{name} ({functions} functions): serial pipeline mean {:>10}  (min {}, max {})",
        obs::format_duration_ns(mean as u64),
        obs::format_duration_ns(*min as u64),
        obs::format_duration_ns(*max as u64),
    );
    let passes: Vec<String> = ops_after
        .iter()
        .map(|(pass, ops)| format!(r#"      {{"pass":"{}","ops_after":{ops}}}"#, escape(pass)))
        .collect();
    format!(
        "    {{\"kernel\":\"{}\",\"functions\":{},\"reps\":{},\"serial\":{{\"mean_ns\":{mean},\"min_ns\":{min},\"max_ns\":{max}}},\"passes\":[\n{}\n    ]}}",
        escape(name),
        functions,
        reps,
        passes.join(",\n"),
    )
}

/// Extract `(kernel, pass) -> ops_after` from a parsed profile document.
fn ops_after_map(doc: &obs::json::Value) -> BTreeMap<(String, String), usize> {
    let mut out = BTreeMap::new();
    for section in ["kernels", "gemm_scaling", "multi_kernel"] {
        let Some(kernels) = doc.get(section).and_then(|v| v.as_array()) else {
            continue;
        };
        for k in kernels {
            let Some(name) = k.get("kernel").and_then(|v| v.as_str()) else {
                continue;
            };
            let Some(passes) = k.get("passes").and_then(|v| v.as_array()) else {
                continue;
            };
            for p in passes {
                if let (Some(pass), Some(ops)) = (
                    p.get("pass").and_then(|v| v.as_str()),
                    p.get("ops_after").and_then(|v| v.as_f64()),
                ) {
                    out.insert((name.to_string(), pass.to_string()), ops as usize);
                }
            }
        }
    }
    out
}

fn kernel_json(name: &str, func: &str, reps: usize, prof: &KernelProfile) -> String {
    let mut pass_json = Vec::new();
    for (pass, s) in &prof.samples {
        pass_json.push(format!(
            r#"      {{"pass":"{}","mean_ns":{},"runs":{},"ops_before":{},"ops_after":{}}}"#,
            escape(pass),
            s.total_ns / s.runs as u128,
            s.runs,
            s.ops_before,
            s.ops_after,
        ));
    }
    format!(
        "    {{\"kernel\":\"{}\",\"func\":\"{}\",\"reps\":{},\"total_pipeline_ns\":{},\"passes\":[\n{}\n    ]}}",
        escape(name),
        escape(func),
        reps,
        prof.total_ns,
        pass_json.join(",\n"),
    )
}

fn print_profile(name: &str, prof: &KernelProfile) {
    println!("{name}");
    for (pass, s) in &prof.samples {
        println!(
            "  {:<20} mean {:>10}  ops {} -> {}",
            pass,
            obs::format_duration_ns((s.total_ns / s.runs as u128) as u64),
            s.ops_before,
            s.ops_after,
        );
    }
    println!(
        "  {:<20} mean {:>10}",
        "total pipeline",
        obs::format_duration_ns(prof.total_ns as u64),
    );
}

fn main() {
    let mut reps = 5usize;
    let mut out_file = OUT_FILE.to_string();
    let mut check_ops: Option<String> = None;
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            reps = 2;
        } else if let Some(path) = arg.strip_prefix("--out=") {
            out_file = path.to_string();
        } else if let Some(path) = arg.strip_prefix("--check-ops=") {
            check_ops = Some(path.to_string());
        } else {
            eprintln!("unknown flag {arg} (expected --quick, --out=, --check-ops=)");
            std::process::exit(2);
        }
    }

    let mut kernels_json = Vec::new();
    // Aggregate mean per pass name across the whole suite.
    let mut aggregate: BTreeMap<String, PassSample> = BTreeMap::new();

    for b in kernels::compiled_benchmarks() {
        let prof = profile_pipeline(&b.build_hir, reps, true);
        print_profile(b.name, &prof);
        for (pass, s) in &prof.samples {
            let agg = aggregate.entry(pass.clone()).or_insert(PassSample {
                total_ns: 0,
                runs: 0,
                ops_before: 0,
                ops_after: 0,
            });
            agg.total_ns += s.total_ns;
            agg.runs += s.runs;
        }
        kernels_json.push(kernel_json(b.name, b.hir_func, reps, &prof));
    }

    // GEMM scaling: the op count grows ~N², so near-linear pass hot paths
    // show up as total pipeline time growing ~4x per N doubling (and far
    // from the ~16x a quadratic pass would cost).
    println!("\nGEMM scaling");
    let mut scaling_json = Vec::new();
    for n in GEMM_SCALING_NS {
        let build = move || kernels::gemm::hir_gemm(n, 32);
        // Codegen is skipped here: this section isolates pipeline scaling.
        let prof = profile_pipeline(&build, reps, false);
        let ops = prof
            .samples
            .values()
            .map(|s| s.ops_before)
            .max()
            .unwrap_or(0);
        println!(
            "  N={:<3} ops {:>6}  total pipeline mean {:>10}",
            n,
            ops,
            obs::format_duration_ns(prof.total_ns as u64),
        );
        scaling_json.push(kernel_json(
            &format!("GEMM N={n}"),
            kernels::gemm::FUNC,
            reps,
            &prof,
        ));
    }

    // Multi-function workloads through the serial pass manager.
    println!("\nmulti-kernel");
    let multi_json = [
        profile_multi_kernel("suite", &suite_module, reps),
        profile_multi_kernel(&format!("gemm_x{REPLICAS}"), &replica_module, reps),
    ];

    let mut agg_json = Vec::new();
    for (name, s) in &aggregate {
        agg_json.push(format!(
            r#"    {{"pass":"{}","mean_ns":{},"runs":{}}}"#,
            escape(name),
            s.total_ns / s.runs as u128,
            s.runs,
        ));
    }

    let doc = format!(
        "{{\n  \"kernels\": [\n{}\n  ],\n  \"gemm_scaling\": [\n{}\n  ],\n  \"multi_kernel\": [\n{}\n  ],\n  \"aggregate\": [\n{}\n  ]\n}}\n",
        kernels_json.join(",\n"),
        scaling_json.join(",\n"),
        multi_json.join(",\n"),
        agg_json.join(",\n"),
    );
    // The emitter and the parser live in the same crate: prove the file is
    // well-formed before writing it.
    let parsed = obs::json::parse(&doc).expect("generated JSON is valid");

    if let Some(baseline_path) = check_ops {
        let baseline_text = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("read {baseline_path}: {e}"));
        let baseline = obs::json::parse(&baseline_text).expect("baseline JSON is valid");
        let want = ops_after_map(&baseline);
        let got = ops_after_map(&parsed);
        let mut drift = 0;
        for ((kernel, pass), ops) in &want {
            match got.get(&(kernel.clone(), pass.clone())) {
                Some(g) if g == ops => {}
                Some(g) => {
                    eprintln!("ops drift: {kernel} / {pass}: baseline {ops}, now {g}");
                    drift += 1;
                }
                None => {
                    eprintln!("ops drift: {kernel} / {pass}: missing from new profile");
                    drift += 1;
                }
            }
        }
        if drift > 0 {
            eprintln!("{drift} kernel/pass pairs drifted from {baseline_path}");
            std::process::exit(1);
        }
        println!(
            "ops check: {} kernel/pass pairs match {baseline_path}",
            want.len()
        );
    }

    std::fs::write(&out_file, &doc).expect("write profile");
    println!("\nwrote {out_file}");
}
