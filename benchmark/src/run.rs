//! What every workload is given and what it hands back.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::trace::Tracer;

/// Inputs of one workload run.
pub struct Ctx {
    pub seed: u64,
    /// Length of the timed region.
    pub seconds: f64,
    pub smoke: bool,
    /// Traced pass: spans are recorded and the per-layer numbers derived.
    pub traced: bool,
    /// Worker threads and ranks.
    pub par: usize,
    /// Load-generator connections of a closed loop.
    pub connections: usize,
    pub tracer: Tracer,
}

impl Ctx {
    /// Time one call into a layer: a span when traced, and the elapsed
    /// seconds either way.
    pub fn timed<R>(&self, name: &'static str, ops: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let t0 = Instant::now();
        let out = self.tracer.span_n(name, 0, ops, |_| f());
        (out, t0.elapsed().as_secs_f64())
    }
}

/// Results of one workload run.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the timed region (row updates or requests).
    pub attempted: u64,
    /// Operations whose output was wrong, late, or an error.
    pub failed: u64,
    /// Why operations failed, for the human reading the run.
    pub notes: Vec<String>,
    pub e2e: BTreeMap<&'static str, Summary>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Per-slice (or per-iteration) values behind the medians, printed so a
    /// disturbed slice can be seen for what it is.
    pub series: Vec<(&'static str, Vec<f64>)>,
}

impl Outcome {
    pub fn set_e2e(&mut self, name: &'static str, value: f64, spread: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.name == name),
            "`{name}` is not an end-to-end metric"
        );
        self.e2e.insert(name, Summary { value, spread });
    }

    pub fn set_layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "`{name}` is not a per-layer metric"
        );
        self.layers.insert(name, value);
    }

    /// Record a failed check: `ops` operations count as failed.
    pub fn fail(&mut self, ops: u64, why: impl Into<String>) {
        self.failed += ops;
        // A storm of identical failures should not bury the first ones.
        if self.notes.len() < 16 {
            self.notes.push(why.into());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}
