//! Output checks shared by every workload: job conservation and the run's
//! list of failed checks.

use daris_metrics::PrioritySummary;

/// Failed checks of one run, each a one-line reason.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records `reason` as failed unless `ok`.
    pub fn expect(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(reason());
        }
    }

    /// Records every conservation violation of one outcome, labelled `what`.
    pub fn conserved(
        &mut self,
        what: &str,
        high: &PrioritySummary,
        low: &PrioritySummary,
        total: &PrioritySummary,
    ) {
        for (class, p) in [("hp", high), ("lp", low), ("total", total)] {
            for reason in conservation_violations(p) {
                self.failures.push(format!("{what}: {class} {reason}"));
            }
        }
        self.expect(total.released == high.released + low.released, || {
            format!(
                "{what}: total released {} != hp {} + lp {}",
                total.released, high.released, low.released
            )
        });
    }

    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The failed checks.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// Job-conservation violations of one priority class: every release is
/// accepted or rejected, and completions and misses never exceed the
/// accepted jobs.
pub fn conservation_violations(p: &PrioritySummary) -> Vec<String> {
    let mut out = Vec::new();
    if p.released != p.accepted + p.rejected {
        out.push(format!(
            "released {} != accepted {} + rejected {}",
            p.released, p.accepted, p.rejected
        ));
    }
    if p.completed > p.accepted {
        out.push(format!("completed {} > accepted {}", p.completed, p.accepted));
    }
    if p.deadline_misses > p.accepted {
        out.push(format!("misses {} > accepted {}", p.deadline_misses, p.accepted));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class(
        released: usize,
        accepted: usize,
        rejected: usize,
        completed: usize,
        misses: usize,
    ) -> PrioritySummary {
        PrioritySummary {
            released,
            accepted,
            rejected,
            completed,
            deadline_misses: misses,
            ..PrioritySummary::default()
        }
    }

    #[test]
    fn a_consistent_outcome_passes() {
        let hp = class(10, 10, 0, 9, 0);
        let lp = class(20, 15, 5, 14, 2);
        let total = class(30, 25, 5, 23, 2);
        let mut checks = Checks::default();
        checks.conserved("run", &hp, &lp, &total);
        assert!(checks.passed(), "{:?}", checks.failures());
    }

    #[test]
    fn each_broken_invariant_is_reported() {
        assert_eq!(conservation_violations(&class(10, 8, 1, 5, 0)).len(), 1);
        assert_eq!(conservation_violations(&class(10, 10, 0, 11, 0)).len(), 1);
        assert_eq!(conservation_violations(&class(10, 10, 0, 10, 11)).len(), 1);
        let mut checks = Checks::default();
        let ok = class(10, 10, 0, 10, 0);
        checks.conserved("run", &ok, &ok, &class(21, 21, 0, 20, 0));
        assert_eq!(checks.failures(), ["run: total released 21 != hp 10 + lp 10"]);
    }

    #[test]
    fn expect_records_only_failures() {
        let mut checks = Checks::default();
        checks.expect(true, || "unused".into());
        checks.expect(false, || "hash differs".into());
        assert_eq!(checks.failures(), ["hash differs"]);
    }
}
