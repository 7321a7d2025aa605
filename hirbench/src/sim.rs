//! `sim_gemm` and `sim_busy`: one operation is one seeded stimulus run to a
//! checked result on three engines: `Harness::new` → `run` on the bytecode
//! engine, the same with `set_engine(Event)`, and one batched harness of
//! [`LANES`] lanes whose lane 0 is the operation's stimulus. Every result is
//! checked against the `kernels` software reference. The design is compiled
//! once, during set-up.

use crate::layers::Layers;
use crate::{metrics::ENGINES, mix, rss, Metrics, Tally, Workload};
use hir_codegen::testbench::{Harness, HarnessArg, HarnessReport};
use std::time::Instant;

/// Stimulus lanes of the batched harness.
const LANES: usize = 8;
/// Simulation cycle bound per run (far above either design's latency).
const MAX_CYCLES: u64 = 1_000_000;
/// Convolution image size of `sim_busy`.
const CONV_HW: u64 = 64;

#[derive(Clone, Copy)]
pub enum Design {
    /// GEMM N=16: mostly quiescent, the harness build dominates.
    Gemm,
    /// Convolution 64×64: nearly every cone live on every cycle.
    Conv,
}

impl Design {
    fn build(self) -> (ir::Module, &'static str) {
        match self {
            Design::Gemm => (
                kernels::gemm::hir_gemm(kernels::sizes::GEMM_N, 32),
                kernels::gemm::FUNC,
            ),
            Design::Conv => (
                kernels::conv::hir_conv(CONV_HW, CONV_HW, 32),
                kernels::conv::FUNC,
            ),
        }
    }

    /// Harness arguments and the expected output memory for stimulus
    /// `stream`.
    fn stimulus(self, stream: u64) -> (Vec<HarnessArg>, Vec<i128>) {
        match self {
            Design::Gemm => {
                let n = kernels::sizes::GEMM_N;
                let nn = (n * n) as usize;
                let a = kernels::workload::random_i32s(mix(stream, 0, 1), nn);
                let b = kernels::workload::random_i32s(mix(stream, 0, 2), nn);
                let expect = kernels::gemm::reference(n, &a, &b);
                (
                    vec![
                        HarnessArg::Mem(a),
                        HarnessArg::Mem(b),
                        HarnessArg::zero_mem(nn),
                    ],
                    expect,
                )
            }
            Design::Conv => {
                let len = (CONV_HW * CONV_HW) as usize;
                let img = kernels::workload::random_i32s(mix(stream, 0, 1), len);
                let expect = kernels::conv::reference(CONV_HW, CONV_HW, &img);
                (
                    vec![HarnessArg::Mem(img), HarnessArg::zero_mem(len)],
                    expect,
                )
            }
        }
    }

    fn output_arg(self) -> usize {
        match self {
            Design::Gemm => 2,
            Design::Conv => 1,
        }
    }
}

/// The stimuli of one operation: lane 0 drives the scalar engines.
struct Stimuli {
    lanes: Vec<Vec<HarnessArg>>,
    expect: Vec<Vec<i128>>,
}

pub struct SimWorkload {
    kind: Design,
    module: ir::Module,
    design: verilog::Design,
    func: &'static str,
    seed: u64,
    lut: u64,
    ff: u64,
    /// Simulated cycles of operation 0 (the same for every stimulus).
    cycles: Option<u64>,
}

impl SimWorkload {
    pub fn setup(seed: u64, kind: Design) -> Result<Self, String> {
        let (mut module, func) = kind.build();
        let (design, _) = kernels::compile_hir(&mut module, true)?;
        let res = synth::estimate_design(
            &design,
            &kernels::hir_top(func),
            &synth::CostModel::default(),
        );
        Ok(SimWorkload {
            kind,
            module,
            design,
            func,
            seed,
            lut: res.lut,
            ff: res.ff,
            cycles: None,
        })
    }

    fn stimuli(&self, i: u64) -> Stimuli {
        let (lanes, expect) = (0..LANES as u64)
            .map(|lane| self.kind.stimulus(mix(self.seed, i, lane)))
            .unzip();
        Stimuli { lanes, expect }
    }

    fn func(&self) -> hir::ops::FuncOp {
        kernels::find_func(&self.module, self.func)
    }

    fn harness(&self, args: &[HarnessArg]) -> Result<Harness, String> {
        Harness::new(&self.design, &self.module, self.func(), args).map_err(|e| e.to_string())
    }

    /// Check one engine's report against the reference; `Err` describes
    /// the mismatch.
    fn check(&mut self, engine: &str, r: &HarnessReport, expect: &[i128]) -> Result<(), String> {
        let got = r.mems.get(&self.kind.output_arg());
        let cycles = *self.cycles.get_or_insert(r.cycles);
        if got.map(Vec::as_slice) == Some(expect) && r.cycles == cycles {
            return Ok(());
        }
        Err(format!(
            "{engine}: result differs from the software reference (cycles {} vs {cycles})",
            r.cycles
        ))
    }

    /// One operation; `l` times each layer call when tracing.
    fn run_op(
        &mut self,
        s: &Stimuli,
        mut l: Option<&mut Layers>,
        tally: &mut Tally,
    ) -> Result<f64, String> {
        let time = |l: &mut Option<&mut Layers>, layer: &str, f: &mut dyn FnMut()| match l {
            Some(l) => l.time(layer, f),
            None => f(),
        };
        let mut wrong = Vec::new();
        let t0 = Instant::now();
        for engine in [verilog::Engine::Bytecode, verilog::Engine::Event] {
            let name = if engine == verilog::Engine::Event {
                "event"
            } else {
                "bytecode"
            };
            let mut h = None;
            time(&mut l, "verilog.harness_build_s", &mut || {
                h = Some(self.harness(&s.lanes[0]))
            });
            let mut h = h.expect("built")?;
            if engine == verilog::Engine::Event {
                time(&mut l, "verilog.event_tables_s", &mut || {
                    h.set_engine(engine)
                });
            }
            let mut r = None;
            time(&mut l, &format!("verilog.run_s.{name}"), &mut || {
                r = Some(h.run(MAX_CYCLES))
            });
            let r = r.expect("ran").map_err(|e| format!("{name}: {e}"))?;
            wrong.extend(self.check(name, &r, &s.expect[0]).err());
        }
        let mut h = None;
        time(&mut l, "verilog.batch_build_s", &mut || {
            h = Some(Harness::new_batched(
                &self.design,
                &self.module,
                self.func(),
                &s.lanes,
            ))
        });
        let mut h = h.expect("built").map_err(|e| e.to_string())?;
        let mut rs = None;
        time(&mut l, "verilog.run_s.batched", &mut || {
            rs = Some(h.run_batched(MAX_CYCLES))
        });
        let rs = rs.expect("ran").map_err(|e| format!("batched: {e}"))?;
        for (lane, (r, expect)) in rs.iter().zip(&s.expect).enumerate() {
            wrong.extend(self.check(&format!("batched lane {lane}"), r, expect).err());
        }
        drop(h);
        let t = t0.elapsed().as_secs_f64();
        tally.check(wrong.is_empty(), || wrong.join("; "));
        Ok(t)
    }
}

impl Workload for SimWorkload {
    fn op(&mut self, i: u64, tally: &mut Tally) -> Result<f64, String> {
        let s = self.stimuli(i);
        self.run_op(&s, None, tally)
    }

    fn traced_op(&mut self, i: u64, l: &mut Layers, tally: &mut Tally) -> Result<f64, String> {
        let s = self.stimuli(i);
        let t = self.run_op(&s, Some(l), tally)?;
        // Scheduler statistics of the event engine on the run's first
        // stimulus, so the counts repeat exactly for a seed.
        let s0 = self.stimuli(0);
        let mut h = self.harness(&s0.lanes[0])?;
        h.set_engine(verilog::Engine::Event);
        h.enable_sched_stats();
        h.run(MAX_CYCLES).map_err(|e| e.to_string())?;
        let st = h.sched_stats_report().ok_or("no scheduler statistics")?;
        l.count(
            "verilog.sched.wake_walk_sum",
            (st.net_wake_walk.sum() + st.mem_wake_walk.sum()) as f64,
        );
        l.count(
            "verilog.sched.dirty_cones_mean",
            st.dirty_cones.sum() as f64 / st.dirty_cones.count().max(1) as f64,
        );
        l.count("verilog.sched.spurious_wake_rate", st.spurious_wake_rate());
        Ok(t)
    }

    fn tail_percentile(&self) -> f64 {
        // A 25-second run takes over 100 GEMM stimuli (ten beyond p90) and
        // over 200 convolution stimuli (ten beyond p95).
        match self.kind {
            Design::Gemm => 90.0,
            Design::Conv => 95.0,
        }
    }

    fn report(&mut self, out: &mut Metrics) -> Result<(), String> {
        out.insert("peak_rss_mb".into(), rss::self_peak_mb()?);
        out.insert("design_lut".into(), self.lut as f64);
        out.insert("design_ff".into(), self.ff as f64);
        out.insert("design_cycles".into(), self.cycles.unwrap_or(0) as f64);
        Ok(())
    }

    fn derive(&self, out: &mut Metrics) {
        let cycles = self.cycles.unwrap_or(0) as f64;
        for e in ENGINES {
            let run_s = out[&format!("verilog.run_s.{e}")];
            out.insert(format!("verilog.run_cycles_per_s.{e}"), cycles / run_s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stimuli_repeat_for_a_seed() {
        let w = SimWorkload::setup(5, Design::Gemm).unwrap();
        let (a, b) = (w.stimuli(3), w.stimuli(3));
        assert_eq!(a.expect, b.expect);
        assert_ne!(a.expect, w.stimuli(4).expect);
    }

    /// Negative control: the check catches a corrupted reference.
    #[test]
    fn a_corrupted_reference_fails_the_check() {
        let mut w = SimWorkload::setup(5, Design::Gemm).unwrap();
        let mut s = w.stimuli(0);
        let mut tally = Tally::default();
        w.run_op(&s, None, &mut tally).unwrap();
        assert_eq!((tally.attempted, tally.failed), (1, 0));
        s.expect[LANES - 1][7] += 1;
        w.run_op(&s, None, &mut tally).unwrap();
        assert_eq!((tally.attempted, tally.failed), (2, 1));
    }
}
