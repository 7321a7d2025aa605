//! `compile_multi`: one operation is one `hirc <file> --opt -o <out>` child
//! process on a 13-function generic-syntax module (the five paper kernels at
//! paper sizes plus eight renamed GEMM N=16 replicas, function order
//! permuted by the seed).
//!
//! Known answer: the hirc Verilog must be byte-identical to the same steps
//! (`hir_opt::standard_function_pipeline` plus codegen) run in this process
//! on the same text during set-up. That is a consistency check between the
//! CLI and the library, not an independent reference.
//!
//! The serial pass manager (`hir_opt::standard_pipeline()`) is not
//! byte-identical to that: codegen names memory nets after arena op ids,
//! which the per-function split and splice renumber. The audit records
//! whether the two still differ, and whether only in those names.

use crate::layers::Layers;
use crate::spawner::Spawner;
use crate::{metrics, mix, Env, Metrics, Tally, Workload};
use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

/// Renamed GEMM N=16 replicas beside the five paper kernels: more functions
/// than cores, so the per-function pipeline's worker pool is on the path.
const REPLICAS: usize = 8;

pub struct CompileMulti {
    spawner: Rc<RefCell<Spawner>>,
    hirc: PathBuf,
    /// The module text hirc compiles.
    text: String,
    input: PathBuf,
    output: PathBuf,
    /// Verilog of the in-process serial reference compile.
    expect: String,
    lut: u64,
    ff: u64,
    cycles: i64,
}

/// The 13-function module, function order permuted by `seed`.
pub fn build_module(seed: u64) -> ir::Module {
    let mut mods: Vec<ir::Module> = kernels::compiled_benchmarks()
        .iter()
        .map(|b| (b.build_hir)())
        .collect();
    for r in 0..REPLICAS {
        let mut m = kernels::gemm::hir_gemm(kernels::sizes::GEMM_N, 32);
        let top = m.top_ops()[0];
        m.set_attr(
            top,
            ir::SYM_NAME,
            ir::Attribute::string(format!("gemm_r{r}")),
        );
        mods.push(m);
    }
    // Fisher-Yates over the per-function modules.
    for i in (1..mods.len()).rev() {
        let j = (mix(seed, 1, i as u64) % (i as u64 + 1)) as usize;
        mods.swap(i, j);
    }
    ir::Module::splice_top(&mods)
}

/// Verilog for `text` after verification and the standard passes, run by
/// the per-function pipeline (what `hirc --opt` does) or, with `serial`, by
/// the serial pass manager. Also returns the optimized module and design.
pub fn reference_compile(
    text: &str,
    serial: bool,
) -> Result<(ir::Module, verilog::Design, String), String> {
    let mut m = ir::parse_module(text).map_err(|e| format!("parse: {e}"))?;
    let registry = hir::hir_registry();
    let mut diags = ir::DiagnosticEngine::new();
    let fail = |d: &ir::DiagnosticEngine| d.render();
    ir::verify_module(&m, &registry, &mut diags).map_err(|_| fail(&diags))?;
    hir_verify::verify_schedule(&m, &mut diags).map_err(|_| fail(&diags))?;
    let run = if serial {
        hir_opt::standard_pipeline().run(&mut m, &registry, &mut diags)
    } else {
        hir_opt::standard_function_pipeline(0).run(&mut m, &registry, &mut diags)
    };
    run.map_err(|e| e.to_string())?;
    hir_verify::verify_schedule(&m, &mut diags).map_err(|_| fail(&diags))?;
    let (design, _) =
        hir_codegen::generate_design_with_report(&m, &hir_codegen::CodegenOptions::default())
            .map_err(|e| e.to_string())?;
    let verilog = verilog::print_design(&design);
    Ok((m, design, verilog))
}

/// Names of the module's non-external functions, in module order.
fn func_names(m: &ir::Module) -> Vec<String> {
    m.top_ops()
        .iter()
        .filter_map(|&t| hir::ops::FuncOp::wrap(m, t))
        .filter(|f| !f.is_external(m))
        .map(|f| f.name(m))
        .collect()
}

/// Synth estimate summed over every function's top module.
pub fn estimate(m: &ir::Module, design: &verilog::Design) -> synth::Resources {
    let model = synth::CostModel::default();
    let mut total = synth::Resources::new();
    for f in func_names(m) {
        let r = synth::estimate_design(design, &hir_codegen::module_name(&f), &model);
        total.lut += r.lut;
        total.ff += r.ff;
    }
    total
}

impl CompileMulti {
    pub fn setup(env: &Env) -> Result<Self, String> {
        let text = ir::print_module(&build_module(env.seed));
        let input = env.work_dir.join("multi.mlir");
        std::fs::write(&input, &text).map_err(|e| format!("{}: {e}", input.display()))?;
        let (m, design, expect) = reference_compile(&text, false)?;
        let res = estimate(&m, &design);
        let cycles = hir_verify::schedule_report(&m)
            .functions
            .iter()
            .map(|f| f.pipeline_depth)
            .sum();
        Ok(CompileMulti {
            spawner: Rc::clone(&env.spawner),
            hirc: env.hirc.clone(),
            output: env.work_dir.join("multi.v"),
            text,
            input,
            expect,
            lut: res.lut,
            ff: res.ff,
            cycles,
        })
    }

    fn check_output(&self, exit_ok: bool, tally: &mut Tally) {
        check_verilog(&self.output, exit_ok, &self.expect, tally);
    }
}

/// Check the Verilog a compile wrote to `path` against `expect`.
pub fn check_verilog(path: &std::path::Path, exit_ok: bool, expect: &str, tally: &mut Tally) {
    let got = std::fs::read_to_string(path).unwrap_or_default();
    tally.check(exit_ok && got == expect, || {
        format!(
            "compile output ({} bytes, exit ok: {exit_ok}) differs from the reference ({} bytes)",
            got.len(),
            expect.len()
        )
    });
}

impl Workload for CompileMulti {
    fn op(&mut self, _i: u64, tally: &mut Tally) -> Result<f64, String> {
        // A stale file must never pass the check.
        let _ = std::fs::remove_file(&self.output);
        let path = |p: &PathBuf| p.to_str().map(str::to_owned).ok_or("non-UTF-8 path");
        let argv = [
            path(&self.hirc)?,
            path(&self.input)?,
            "--opt".into(),
            "-o".into(),
            path(&self.output)?,
        ];
        let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
        let (t, ok) = self.spawner.borrow_mut().run(&argv)?;
        self.check_output(ok, tally);
        Ok(t)
    }

    /// The steps `hirc --opt` takes, called in the same order from this
    /// process, followed by probes that time the split/splice, the serial
    /// pass manager, each pass alone and the synth estimate.
    fn traced_op(&mut self, _i: u64, l: &mut Layers, tally: &mut Tally) -> Result<f64, String> {
        let _ = std::fs::remove_file(&self.output);
        let registry = hir::hir_registry();
        let threads = ir::resolve_thread_count(0);
        let t0 = Instant::now();
        let source = std::fs::read_to_string(&self.input).map_err(|e| e.to_string())?;
        let parsed = l.time("ir.parse_s", || ir::parse_module_recover(&source, 0));
        if !parsed.errors.is_empty() {
            return Err(format!("{} parse errors", parsed.errors.len()));
        }
        let mut m = parsed.module;
        let mut diags = ir::DiagnosticEngine::new();
        let ok = l.time("ir.verify_s", || {
            ir::verify_module(&m, &registry, &mut diags).is_ok()
        }) && l.time("hir-verify.schedule_s", || {
            hir_verify::verify_schedule_with_threads(&m, &mut diags, threads).is_ok()
        });
        if !ok {
            return Err(diags.render());
        }
        // The probes below need the verified module; its copy is not part
        // of the operation.
        let t_before = t0.elapsed();
        let pre = m.clone();
        let t1 = Instant::now();
        let mut fp = hir_opt::standard_function_pipeline(threads);
        l.time("hir-opt.pipeline_s", || {
            fp.run(&mut m, &registry, &mut diags)
        })
        .map_err(|e| e.to_string())?;
        let ok = l.time("hir-verify.reverify_s", || {
            hir_verify::verify_schedule_with_threads(&m, &mut diags, threads).is_ok()
        });
        if !ok {
            return Err(diags.render());
        }
        let (design, _) = l
            .time("hir-codegen.codegen_s", || {
                hir_codegen::generate_design_with_report(
                    &m,
                    &hir_codegen::CodegenOptions::default(),
                )
            })
            .map_err(|e| e.to_string())?;
        let text = l.time("verilog.print_s", || verilog::print_design(&design));
        std::fs::write(&self.output, &text).map_err(|e| e.to_string())?;
        let t = (t_before + t1.elapsed()).as_secs_f64();
        self.check_output(true, tally);

        l.count("ir.parse_ops", pre.op_count() as f64);
        l.count("verilog.print_bytes", text.len() as f64);
        l.probe("synth.estimate_s", || estimate(&m, &design));
        let parts = l.probe("ir.split_top_s", || pre.split_top());
        l.probe("ir.splice_top_s", || ir::Module::splice_top(&parts));
        let mut serial = pre.clone();
        l.probe("hir-opt.serial_s", || {
            hir_opt::standard_pipeline().run(&mut serial, &registry, &mut diags)
        })
        .map_err(|e| e.to_string())?;
        let mut alone = pre;
        for (pos, name) in hir_opt::STANDARD_PASS_NAMES.iter().enumerate() {
            let mut pm = hir_opt::pipeline_from_names(&[name])?;
            l.probe(&metrics::pass_metric(pos, "_s"), || {
                pm.run(&mut alone, &registry, &mut diags)
            })
            .map_err(|e| e.to_string())?;
            l.count(
                &metrics::pass_metric(pos, ".ops_after"),
                alone.op_count() as f64,
            );
        }
        Ok(t)
    }

    fn tail_percentile(&self) -> f64 {
        // About 50 compiles in a 25-second run: fewer than ten lie beyond
        // any percentile above p75, so report the maximum.
        100.0
    }

    fn audit(&mut self, out: &mut Metrics) -> Result<(), String> {
        let (_, _, serial) = reference_compile(&self.text, true)?;
        let differs = serial != self.expect;
        if differs {
            let names_only = canonical_names(&serial) == canonical_names(&self.expect);
            println!(
                "known defect: serial pass manager Verilog ({} bytes) differs from the default per-function pipeline's ({} bytes); {}",
                serial.len(),
                self.expect.len(),
                if names_only {
                    "only in arena-id net names"
                } else {
                    "beyond net names"
                }
            );
        }
        out.insert(
            "hir-opt.serial_verilog_differs".into(),
            f64::from(u8::from(differs)),
        );
        Ok(())
    }

    fn report(&mut self, out: &mut Metrics) -> Result<(), String> {
        out.insert(
            "peak_rss_mb".into(),
            self.spawner.borrow_mut().children_peak_mb()?,
        );
        out.insert("design_lut".into(), self.lut as f64);
        out.insert("design_ff".into(), self.ff as f64);
        out.insert("design_cycles".into(), self.cycles as f64);
        Ok(())
    }
}

/// `verilog` with every arena-id net prefix (`m<digits>_`) renumbered in
/// order of first appearance, so two designs that differ only in those ids
/// compare equal.
pub fn canonical_names(verilog: &str) -> String {
    let mut ids: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    let mut out = String::with_capacity(verilog.len());
    let bytes = verilog.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let word_start = i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_');
        if word_start && bytes[i] == b'm' {
            let digits = bytes[i + 1..]
                .iter()
                .take_while(|b| b.is_ascii_digit())
                .count();
            if digits > 0 && bytes.get(i + 1 + digits) == Some(&b'_') {
                let id = &verilog[i + 1..i + 1 + digits];
                let n = ids.len();
                let k = *ids.entry(id).or_insert(n);
                out.push_str(&format!("m{k}"));
                i += 1 + digits;
                continue;
            }
        }
        let ch = verilog[i..].chars().next().expect("in bounds");
        out.push(ch);
        i += ch.len_utf8();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_text_repeats_for_a_seed_and_order_follows_it() {
        let text = |seed| ir::print_module(&build_module(seed));
        assert_eq!(text(3), text(3));
        assert_ne!(text(3), text(4));
    }

    /// Negative control: the check catches a corrupted reference.
    #[test]
    fn a_corrupted_reference_fails_the_check() {
        let dir = std::env::temp_dir().join(format!("hirbench-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.v");
        std::fs::write(&path, "module m; endmodule\n").unwrap();
        let mut tally = Tally::default();
        check_verilog(&path, true, "module m; endmodule\n", &mut tally);
        check_verilog(&path, true, "module m; endmodule \n", &mut tally);
        check_verilog(&path, false, "module m; endmodule\n", &mut tally);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!((tally.attempted, tally.failed), (3, 2));
    }

    #[test]
    fn canonical_names_ignore_arena_ids_only() {
        let a = "reg m967_0_b0; wire m968_x; assign m967_0_b0 = m968_x;";
        let b = "reg m1448_0_b0; wire m1449_x; assign m1448_0_b0 = m1449_x;";
        assert_eq!(canonical_names(a), canonical_names(b));
        let c = "reg m1448_0_b0; wire m1449_x; assign m1448_0_b0 = m1448_0_b0;";
        assert_ne!(canonical_names(a), canonical_names(c));
        assert_eq!(canonical_names("sum_m3_x"), "sum_m3_x");
    }
}
