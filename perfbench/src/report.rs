//! The record a run prints: human-readable lines, then one JSON line.

/// One reported metric. `n` is the number of samples behind it (1 for
/// a count or a single reading); `note` is printed after it.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
    pub note: &'static str,
}

/// Operations attempted and failed in the timed phase, plus the
/// metrics the run reports.
#[derive(Default)]
pub struct Record {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Record {
    /// Counts one timed operation; `ok == false` marks it failed and
    /// says why on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED op #{}: {}", self.attempted, what());
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, n: usize) {
        self.metric_with_note(name, value, unit, n, "");
    }

    pub fn metric_with_note(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        n: usize,
        note: &'static str,
    ) {
        assert!(value.is_finite(), "metric {name} is not a finite number: {value}");
        self.metrics.push(Metric { name, value, unit, n, note });
    }

    /// Prints every metric with its unit and sample count, the op
    /// tally, and the final JSON line for machine readers.
    pub fn print(&self) {
        for m in &self.metrics {
            let n = format!("n={}", m.n);
            println!("metric {:<26} {:>16.6} {:<6} {n:<6} {}", m.name, m.value, m.unit, m.note);
        }
        println!("ops attempted={} failed={}", self.attempted, self.failed);
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}
