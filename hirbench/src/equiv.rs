//! `equiv_gemm`: translation validation of GEMM N=4 at a fixed bound
//! K=32. One operation is one pair of `bmc::check_func_equivalence` calls
//! with known answers: optimized vs unoptimized must be `Proved`, and the
//! unoptimized module vs its `test-miscompile` rewrite must be a
//! `Counterexample`. The proofs are symbolic over every input, so the seed
//! does not change this workload.

use crate::layers::Layers;
use crate::{metrics::VERDICTS, rss, Metrics, Tally, Workload};
use std::time::Instant;

const N: u64 = 4;
/// The timed bound.
pub const K: u32 = 32;

/// Deterministic options: a conflict budget only, no wall-clock budget, so
/// a verdict never depends on machine speed.
pub fn options(k: u32) -> bmc::EquivOptions {
    bmc::EquivOptions {
        k_cycles: k,
        conflict_budget: 5_000_000,
        time_budget_ms: None,
        samples: 4,
        replay_max_cycles: 100_000,
    }
}

/// Whether a verdict matches the known answer `expect_proved`.
pub fn matches(status: &bmc::EquivStatus, expect_proved: bool) -> bool {
    match status {
        bmc::EquivStatus::Proved => expect_proved,
        bmc::EquivStatus::Counterexample(_) => !expect_proved,
        bmc::EquivStatus::Sampled { .. } => false,
    }
}

/// GEMM of size `n` before optimization, after the standard pipeline, and
/// after the deliberately miscompiling `test-miscompile` pass.
pub fn modules(n: u64) -> Result<(ir::Module, ir::Module, ir::Module), String> {
    let base = kernels::gemm::hir_gemm(n, 32);
    let mut opt = base.clone();
    hir_opt::optimize(&mut opt)?;
    let mut bad = base.clone();
    let mut diags = ir::DiagnosticEngine::new();
    hir_opt::pipeline_from_names(&["test-miscompile"])?
        .run(&mut bad, &hir::hir_registry(), &mut diags)
        .map_err(|e| e.to_string())?;
    Ok((base, opt, bad))
}

pub struct EquivGemm {
    base: ir::Module,
    opt: ir::Module,
    bad: ir::Module,
    lut: u64,
    ff: u64,
    cycles: u64,
}

impl EquivGemm {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let (base, opt, bad) = modules(N)?;
        let mut compiled = base.clone();
        let (design, _) = kernels::compile_hir(&mut compiled, true)?;
        let res = synth::estimate_design(
            &design,
            &kernels::hir_top(kernels::gemm::FUNC),
            &synth::CostModel::default(),
        );
        // Latency of the checked design, from one simulated stimulus.
        let nn = (N * N) as usize;
        let a = kernels::workload::random_i32s(crate::mix(seed, 0, 1), nn);
        let b = kernels::workload::random_i32s(crate::mix(seed, 0, 2), nn);
        let args = [
            hir_codegen::testbench::HarnessArg::mem_from(&a),
            hir_codegen::testbench::HarnessArg::mem_from(&b),
            hir_codegen::testbench::HarnessArg::zero_mem(nn),
        ];
        let func = kernels::find_func(&compiled, kernels::gemm::FUNC);
        let r = hir_codegen::testbench::Harness::new(&design, &compiled, func, &args)
            .and_then(|mut h| h.run(100_000))
            .map_err(|e| e.to_string())?;
        if r.mems.get(&2) != Some(&kernels::gemm::reference(N, &a, &b)) {
            return Err("GEMM N=4 simulation differs from the software reference".into());
        }
        Ok(EquivGemm {
            base,
            opt,
            bad,
            lut: res.lut,
            ff: res.ff,
            cycles: r.cycles,
        })
    }

    fn check(&self, proved: bool) -> Result<bmc::FuncReport, String> {
        let other = if proved { &self.opt } else { &self.bad };
        bmc::check_func_equivalence(&self.base, other, kernels::gemm::FUNC, &options(K))
            .map_err(|e| e.to_string())
    }

    /// Check a pair of verdicts against their known answers.
    fn tally(reports: &[bmc::FuncReport], tally: &mut Tally) {
        let ok = matches(&reports[0].status, true) && matches(&reports[1].status, false);
        tally.check(ok, || {
            format!(
                "K={K}: verdicts {} / {}, expected proved / counterexample",
                reports[0].status.label(),
                reports[1].status.label()
            )
        });
    }
}

impl Workload for EquivGemm {
    fn op(&mut self, _i: u64, tally: &mut Tally) -> Result<f64, String> {
        let t0 = Instant::now();
        let reports = [self.check(true)?, self.check(false)?];
        let t = t0.elapsed().as_secs_f64();
        Self::tally(&reports, tally);
        Ok(t)
    }

    fn traced_op(&mut self, _i: u64, l: &mut Layers, tally: &mut Tally) -> Result<f64, String> {
        let t0 = Instant::now();
        let mut reports = Vec::new();
        for (verdict, proved) in VERDICTS.iter().zip([true, false]) {
            reports.push(l.time(&format!("bmc.check_s.{verdict}"), || self.check(proved))?);
        }
        let t = t0.elapsed().as_secs_f64();
        Self::tally(&reports, tally);
        for (verdict, r) in VERDICTS.iter().zip(&reports) {
            let st = &r.solver;
            for (stat, v) in [
                ("blast_ms", st.blast_ms),
                ("solve_ms", st.solve_ms),
                ("replay_ms", st.replay_ms),
            ] {
                l.probe_value(&format!("bmc.{stat}.{verdict}"), v as f64);
            }
            let lookups = (st.blast_cache_hits + st.blast_cache_misses).max(1);
            for (stat, v) in [
                ("clauses", st.clauses as f64),
                ("blast_hits", st.blast_cache_hits as f64),
                ("blast_misses", st.blast_cache_misses as f64),
                (
                    "blast_hit_rate",
                    st.blast_cache_hits as f64 / lookups as f64,
                ),
                ("conflicts", st.conflicts as f64),
                ("decisions", st.decisions as f64),
            ] {
                l.count(&format!("bmc.{stat}.{verdict}"), v);
            }
        }
        // The word-level lowering alone, on the optimized design.
        let (design, _) = hir_codegen::generate_design_with_report(&self.opt, &Default::default())
            .map_err(|e| e.to_string())?;
        let top = kernels::hir_top(kernels::gemm::FUNC);
        l.probe("verilog.tsys_lower_s", || {
            verilog::tsys::lower(&design, &top)
        })
        .map_err(|e| e.to_string())?;
        Ok(t)
    }

    fn tail_percentile(&self) -> f64 {
        // About a dozen verdict pairs in a 25-second run: report the maximum.
        100.0
    }

    /// The miscompile at K=24 has a known answer of `Counterexample`; today
    /// the proof returns `Proved` (a vacuous bound: no symbolic value
    /// reaches an observable yet).
    fn audit(&mut self, out: &mut Metrics) -> Result<(), String> {
        let t0 = Instant::now();
        let r =
            bmc::check_func_equivalence(&self.base, &self.bad, kernels::gemm::FUNC, &options(24))
                .map_err(|e| e.to_string())?;
        let missed = !matches(&r.status, false);
        if missed {
            println!(
                "known defect: test-miscompile at K=24 returns {} in {:.3} s, known answer counterexample",
                r.status.label(),
                t0.elapsed().as_secs_f64()
            );
        }
        out.insert(
            "bmc.k24_miscompile_missed".into(),
            f64::from(u8::from(missed)),
        );
        Ok(())
    }

    fn report(&mut self, out: &mut Metrics) -> Result<(), String> {
        out.insert("peak_rss_mb".into(), rss::self_peak_mb()?);
        out.insert("design_lut".into(), self.lut as f64);
        out.insert("design_ff".into(), self.ff as f64);
        out.insert("design_cycles".into(), self.cycles as f64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Negative control: an instance whose known answer is `Proved`, fed
    /// the miscompile instead, fails the check.
    #[test]
    fn a_miscompile_fails_the_proved_check() {
        let (base, _, bad) = modules(2).unwrap();
        let r =
            bmc::check_func_equivalence(&base, &bad, kernels::gemm::FUNC, &options(24)).unwrap();
        assert!(matches(&r.status, false), "refuted: {}", r.status.label());
        assert!(!matches(&r.status, true));
        let mut tally = Tally::default();
        EquivGemm::tally(&[r.clone(), r], &mut tally);
        assert_eq!((tally.attempted, tally.failed), (1, 1));
    }

    #[test]
    fn a_degraded_proof_never_matches() {
        let sampled = bmc::EquivStatus::Sampled {
            samples: 4,
            reason: "budget".into(),
        };
        assert!(!matches(&sampled, true) && !matches(&sampled, false));
    }
}
