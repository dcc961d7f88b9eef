//! The perf-regression gate: diff a CI-produced suite report against the
//! committed baseline.
//!
//! Raw nanosecond timings are not comparable across machines — the
//! committed `BENCH_results.json` comes from whatever box last
//! regenerated it, while CI runs on a shared runner. What *is*
//! machine-portable is each [`crate::suite::Comparison`]'s **speedup ratio**
//! (pre-optimization engine vs fast engine, measured in the same
//! process on the same host). The gate therefore tracks, per workload,
//!
//! ```text
//! slowdown = committed_speedup / ci_speedup
//! ```
//!
//! and fails when some workload's slowdown exceeds the configured
//! threshold (2.5× in CI — loose enough for noisy runners, tight enough
//! to catch a fast path quietly falling back to the reference engine).
//! It also fails when a workload appears in only one report: the full
//! and `--quick` suites register the same rows, so an unmatched row
//! means the committed baseline is stale and that row would go ungated.

use crate::suite::SuiteReport;

/// One tracked ratio: a workload's speedup in both reports.
#[derive(Debug, Clone)]
pub struct RatioRow {
    /// Workload id, e.g. `e2e_round_federated_8c`.
    pub name: String,
    /// Speedup recorded in the committed baseline.
    pub committed_speedup: f64,
    /// Speedup measured by the current (CI) run.
    pub current_speedup: f64,
    /// `committed_speedup / current_speedup` (> 1 means the current run
    /// regressed).
    pub slowdown: f64,
    /// Whether the slowdown stays under the threshold.
    pub ok: bool,
}

/// The gate's verdict over every tracked ratio.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// Per-workload rows, in committed-baseline order.
    pub rows: Vec<RatioRow>,
    /// Workloads present in only one of the two reports; any fails the
    /// gate.
    pub missing: Vec<String>,
    /// The failure threshold the rows were judged against.
    pub max_slowdown: f64,
}

impl CompareReport {
    /// Whether every tracked ratio stays under the threshold and every
    /// workload appears in both reports.
    pub fn passed(&self) -> bool {
        self.missing.is_empty() && self.rows.iter().all(|r| r.ok)
    }

    /// The rows that breached the threshold.
    pub fn regressions(&self) -> Vec<&RatioRow> {
        self.rows.iter().filter(|r| !r.ok).collect()
    }

    /// Renders the verdict as a markdown table for the CI job log.
    pub fn markdown(&self) -> String {
        let mut out = String::from(
            "| benchmark | committed speedup | current speedup | slowdown | status |\n\
             |---|---:|---:|---:|---|\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "| {} | {:.2}× | {:.2}× | {:.2}× | {} |\n",
                r.name,
                r.committed_speedup,
                r.current_speedup,
                r.slowdown,
                if r.ok { "ok" } else { "**REGRESSED**" },
            ));
        }
        for name in &self.missing {
            out.push_str(&format!("| {name} | — | — | — | **UNMATCHED** |\n"));
        }
        out.push_str(&format!(
            "\ngate: max allowed slowdown {:.2}× — **{}**\n",
            self.max_slowdown,
            if self.passed() { "PASS" } else { "FAIL" },
        ));
        out
    }
}

/// Diffs `current` against `committed`, failing any tracked ratio whose
/// slowdown exceeds `max_slowdown`.
pub fn compare(committed: &SuiteReport, current: &SuiteReport, max_slowdown: f64) -> CompareReport {
    let mut rows = Vec::new();
    let mut missing = Vec::new();
    for base in &committed.comparisons {
        match current.comparisons.iter().find(|c| c.name == base.name) {
            Some(cur) if cur.speedup > 0.0 && base.speedup > 0.0 => {
                let slowdown = base.speedup / cur.speedup;
                rows.push(RatioRow {
                    name: base.name.clone(),
                    committed_speedup: base.speedup,
                    current_speedup: cur.speedup,
                    slowdown,
                    ok: slowdown <= max_slowdown,
                });
            }
            _ => missing.push(base.name.clone()),
        }
    }
    for cur in &current.comparisons {
        if !committed.comparisons.iter().any(|b| b.name == cur.name) {
            missing.push(cur.name.clone());
        }
    }
    CompareReport {
        rows,
        missing,
        max_slowdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::Comparison;

    fn report(pairs: &[(&str, f64)]) -> SuiteReport {
        SuiteReport {
            quick: false,
            hardware_threads: 1,
            generated_unix_s: 0,
            peak_rss_kb: None,
            simd_isa: String::new(),
            entries: Vec::new(),
            comparisons: pairs
                .iter()
                .map(|(name, speedup)| Comparison {
                    name: name.to_string(),
                    baseline_ms: 1.0 * speedup,
                    fast_ms: 1.0,
                    speedup: *speedup,
                })
                .collect(),
        }
    }

    #[test]
    fn self_comparison_passes_with_unit_slowdowns() {
        let r = report(&[("a", 2.0), ("b", 3.5)]);
        let verdict = compare(&r, &r, 2.5);
        assert!(verdict.passed());
        assert_eq!(verdict.rows.len(), 2);
        for row in &verdict.rows {
            assert!((row.slowdown - 1.0).abs() < 1e-12);
        }
        assert!(verdict.missing.is_empty());
    }

    #[test]
    fn regression_beyond_threshold_fails() {
        let committed = report(&[("a", 3.0), ("b", 3.0)]);
        // a: 3.0 → 1.0 speedup is a 3.0× slowdown; b only 1.5×.
        let current = report(&[("a", 1.0), ("b", 2.0)]);
        let verdict = compare(&committed, &current, 2.5);
        assert!(!verdict.passed());
        let regressed: Vec<&str> = verdict
            .regressions()
            .iter()
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(regressed, vec!["a"]);
        assert!(verdict.markdown().contains("**REGRESSED**"));
        assert!(verdict.markdown().contains("FAIL"));
    }

    #[test]
    fn noise_under_threshold_passes() {
        let committed = report(&[("a", 2.5)]);
        let current = report(&[("a", 1.1)]); // 2.27× slowdown < 2.5×
        assert!(compare(&committed, &current, 2.5).passed());
    }

    #[test]
    fn unmatched_workloads_fail_the_gate() {
        let committed = report(&[("a", 2.0), ("gone", 4.0)]);
        let current = report(&[("a", 2.0), ("new", 1.5)]);
        let verdict = compare(&committed, &current, 2.5);
        assert!(!verdict.passed());
        assert!(verdict.regressions().is_empty(), "no ratio regressed");
        assert_eq!(verdict.rows.len(), 1);
        assert_eq!(verdict.missing, vec!["gone".to_string(), "new".to_string()]);
        assert!(verdict.markdown().contains("**UNMATCHED**"));
        assert!(verdict.markdown().contains("FAIL"));
        // An extra row alone fails too.
        let extra = report(&[("a", 2.0), ("gone", 4.0), ("new", 1.5)]);
        assert!(!compare(&committed, &extra, 2.5).passed());
    }

    #[test]
    fn faster_than_baseline_is_fine() {
        let committed = report(&[("a", 2.0)]);
        let current = report(&[("a", 5.0)]);
        let verdict = compare(&committed, &current, 2.5);
        assert!(verdict.passed());
        assert!(verdict.rows[0].slowdown < 1.0);
    }
}
