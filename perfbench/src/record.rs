//! The run record: named metrics with units, printed one per line for
//! people and as a single JSON object on the last line for tools.

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `ms`, `MiB`, `count`.
    pub unit: &'static str,
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Simulated job releases the run performed.
    pub attempted: u64,
    /// Releases counted as failed (all of them when a check failed).
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

impl Record {
    /// A record over `attempted` releases; a failed check fails them all.
    pub fn new(correct: bool, attempted: u64, metrics: Vec<Metric>) -> Record {
        Record { correct, attempted, failed: if correct { 0 } else { attempted }, metrics }
    }

    /// Human-readable lines, one metric per line.
    pub fn lines(&self) -> Vec<String> {
        self.metrics.iter().map(|m| format!("{:<32} {:>22} {}", m.name, m.value, m.unit)).collect()
    }

    /// The one-line JSON object. Values print in the shortest form that
    /// round-trips, so no digit is lost; they must be finite, as JSON has no
    /// NaN.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.to_owned(), value, unit }
    }

    #[test]
    fn json_record_has_the_four_keys_and_full_precision() {
        let record = Record::new(
            true,
            1000,
            vec![metric("wall_s", 1.2034567891234, "s"), metric("gpu.events", 42.0, "count")],
        );
        assert_eq!(
            record.to_json(),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.2034567891234, \"unit\": \"s\"}, \
             \"gpu.events\": {\"value\": 42, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn a_failed_check_fails_every_release() {
        let record = Record::new(false, 77, Vec::new());
        assert_eq!(record.failed, 77);
        assert!(record
            .to_json()
            .starts_with("{\"correct\": false, \"attempted\": 77, \"failed\": 77"));
    }
}
