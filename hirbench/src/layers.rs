//! Per-layer tracing, done from the benchmark's side: each call into a
//! layer's public function is timed here, around the call, so the program
//! under test carries no extra instrumentation.
//!
//! A traced operation is a *chain* of layer calls whose times, plus the
//! remainder the chain spends outside any layer (`unattributed_s`), add up
//! to the operation's wall time. *Probes* are extra calls made after the
//! operation to time one layer on its own (a pass run alone, the serial
//! pass manager); they are not part of the operation's time. *Counts* are
//! deterministic outputs of a layer (ops after a pass, SAT clauses) and
//! must repeat exactly for the same input.

use std::collections::BTreeMap;
use std::time::Instant;

/// Layer timings and counts of one traced operation.
#[derive(Default)]
pub struct Layers {
    chain: BTreeMap<String, f64>,
    probes: BTreeMap<String, f64>,
    counts: BTreeMap<String, f64>,
}

impl Layers {
    /// Time `f` as a step of the operation's chain, charged to `layer`.
    pub fn time<T>(&mut self, layer: &str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        *self.chain.entry(layer.to_string()).or_default() += t0.elapsed().as_secs_f64();
        out
    }

    /// Time `f` as a probe outside the operation, charged to `layer`.
    pub fn probe<T>(&mut self, layer: &str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        *self.probes.entry(layer.to_string()).or_default() += t0.elapsed().as_secs_f64();
        out
    }

    /// Record a probe value measured by the caller (a phase time the layer
    /// itself reports).
    pub fn probe_value(&mut self, name: &str, value: f64) {
        *self.probes.entry(name.to_string()).or_default() += value;
    }

    /// Record a deterministic count.
    pub fn count(&mut self, name: &str, value: f64) {
        self.counts.insert(name.to_string(), value);
    }

    fn chain_sum(&self) -> f64 {
        self.chain.values().sum()
    }
}

/// Layer records of every traced operation in a run, with the wall time of
/// each traced operation and of the untraced operation run beside it on the
/// same input.
#[derive(Default)]
pub struct TraceLog {
    ops: Vec<(f64, Layers)>,
    untraced: Vec<f64>,
}

impl TraceLog {
    pub fn push(&mut self, traced_s: f64, untraced_s: f64, layers: Layers) {
        self.ops.push((traced_s, layers));
        self.untraced.push(untraced_s);
    }

    /// Per-layer metrics: the mean of each chain layer and probe over the
    /// traced operations (means, so the chain adds up to the operation time
    /// exactly), `unattributed_s`, the tracing overhead, and the counts.
    ///
    /// # Errors
    /// Fails if a count differs between two operations on the same input,
    /// or if the chain's layers overlap (more layer time than wall time).
    pub fn metrics(&self) -> Result<BTreeMap<String, f64>, String> {
        let mut out = BTreeMap::new();
        let n = self.ops.len().max(1) as f64;
        for (_, l) in &self.ops {
            for (k, v) in l.chain.iter().chain(&l.probes) {
                *out.entry(k.clone()).or_default() += v / n;
            }
        }
        let traced: Vec<f64> = self.ops.iter().map(|(t, _)| *t).collect();
        let op = crate::stats::mean(&traced);
        let chain = crate::stats::mean(
            &self
                .ops
                .iter()
                .map(|(_, l)| l.chain_sum())
                .collect::<Vec<_>>(),
        );
        let unattributed = op - chain;
        if unattributed < 0.0 {
            return Err(format!(
                "layer times ({chain:.6} s) exceed the traced operation ({op:.6} s)"
            ));
        }
        let untraced = crate::stats::mean(&self.untraced);
        out.insert("unattributed_s".into(), unattributed);
        out.insert("trace.op_s".into(), op);
        out.insert("trace.untraced_op_s".into(), untraced);
        out.insert("trace.overhead_pct".into(), (op / untraced - 1.0) * 100.0);
        out.insert("trace.ops".into(), self.ops.len() as f64);
        for (_, l) in &self.ops {
            for (k, v) in &l.counts {
                match out.get(k) {
                    Some(prev) if prev != v => {
                        return Err(format!("count {k} is not deterministic: {prev} vs {v}"))
                    }
                    _ => {
                        out.insert(k.clone(), *v);
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_plus_unattributed_is_the_operation() {
        let mut log = TraceLog::default();
        for t in [1.0, 2.0] {
            let mut l = Layers::default();
            l.chain.insert("a".into(), 0.25 * t);
            l.chain.insert("b".into(), 0.5 * t);
            l.probes.insert("p".into(), 9.0);
            log.push(t, t, l);
        }
        let m = log.metrics().unwrap();
        assert_eq!(m["a"] + m["b"] + m["unattributed_s"], m["trace.op_s"]);
        assert_eq!(m["p"], 9.0);
        assert_eq!(m["trace.overhead_pct"], 0.0);
    }

    #[test]
    fn a_drifting_count_is_an_error() {
        let mut log = TraceLog::default();
        for v in [1.0, 2.0] {
            let mut l = Layers::default();
            l.count("c", v);
            log.push(1.0, 1.0, l);
        }
        assert!(log.metrics().is_err());
    }
}
