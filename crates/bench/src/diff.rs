//! `bench diff`: compare a candidate `fmm-bench/v1` document against a
//! baseline and classify what changed.
//!
//! Two failure tiers, because CI needs to gate them differently:
//!
//! * **Structural** — the candidate is not comparable: a baseline target
//!   is missing, a target recorded zero passes (silent "no data"), or a
//!   deterministic extras counter drifted (same seed, different I/O count
//!   is a correctness change, not noise). These always fail. The one
//!   excused absence is a roof target whose micro-kernel ISA the
//!   candidate's CPU lacks, as its manifest's `kernel_isa` shows; it is
//!   reported as `SKIP` and does not fail.
//! * **Timing** — `cand.p50 > base.p50 · (1 + tol)`, strictly: exactly
//!   at tolerance passes. A zero-p50 baseline with a nonzero candidate
//!   is also a timing regression (the ratio is unbounded). Tolerances
//!   come per-target from the *baseline* document; `--tol` overrides all
//!   of them. CI's `bench-smoke` treats timing as warn-only (shared
//!   runners), while structural failures gate.

use crate::doc::BenchDoc;
use fmm_obs::trace::format_ns;

/// Knobs for one comparison.
#[derive(Clone, Debug, Default)]
pub struct DiffOptions {
    /// Replace every per-target tolerance with this one.
    pub tol_override: Option<f64>,
}

/// One timing regression row.
#[derive(Clone, Debug, PartialEq)]
pub struct TimingRegression {
    pub target: String,
    pub base_p50_ns: u64,
    pub cand_p50_ns: u64,
    /// `cand/base` (infinite when the baseline p50 is 0).
    pub ratio: f64,
    pub tol: f64,
}

/// One deterministic-counter drift row.
#[derive(Clone, Debug, PartialEq)]
pub struct ExtraDrift {
    pub target: String,
    pub key: String,
    pub base: String,
    pub cand: String,
}

/// Everything `diff` found.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Baseline targets absent from the candidate (structural).
    pub missing: Vec<String>,
    /// Baseline roof targets absent because the candidate's CPU lacks
    /// their ISA: (target, ISA). Informational only.
    pub skipped: Vec<(String, &'static str)>,
    /// Targets with `passes == 0` in either document (structural).
    pub empty: Vec<String>,
    /// Deterministic extras that changed value (structural).
    pub drift: Vec<ExtraDrift>,
    /// p50 beyond tolerance (timing).
    pub timing: Vec<TimingRegression>,
    /// Candidate targets the baseline lacks (informational only).
    pub new_targets: Vec<String>,
}

impl DiffReport {
    /// True when nothing fails. With `warn_timing`, timing regressions
    /// are reported but do not fail the diff.
    pub fn is_clean(&self, warn_timing: bool) -> bool {
        self.missing.is_empty()
            && self.empty.is_empty()
            && self.drift.is_empty()
            && (warn_timing || self.timing.is_empty())
    }

    /// One line per finding, most severe first; `"bench diff: ok..."`
    /// when clean.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for t in &self.missing {
            out.push_str(&format!(
                "STRUCT missing   {t}: in baseline, not in candidate\n"
            ));
        }
        for (t, isa) in &self.skipped {
            out.push_str(&format!(
                "SKIP   isa       {t}: the candidate's CPU lacks {isa}\n"
            ));
        }
        for t in &self.empty {
            out.push_str(&format!("STRUCT no-data   {t}: zero timed passes\n"));
        }
        for d in &self.drift {
            out.push_str(&format!(
                "STRUCT drift     {}: {} {} -> {} (deterministic counter changed)\n",
                d.target, d.key, d.base, d.cand
            ));
        }
        for r in &self.timing {
            let ratio = if r.ratio.is_finite() {
                format!("{:.2}x", r.ratio)
            } else {
                "inf".to_string()
            };
            out.push_str(&format!(
                "TIMING regress   {}: p50 {} -> {} ({ratio} > 1+{:.2})\n",
                r.target,
                format_ns(r.base_p50_ns),
                format_ns(r.cand_p50_ns),
                r.tol
            ));
        }
        for t in &self.new_targets {
            out.push_str(&format!(
                "NOTE   new       {t}: not in baseline (ignored)\n"
            ));
        }
        if self.missing.is_empty()
            && self.empty.is_empty()
            && self.drift.is_empty()
            && self.timing.is_empty()
        {
            out.push_str("bench diff: ok (no structural failures, no timing regressions)\n");
        }
        out
    }
}

/// Compare `cand` against `base`.
pub fn diff(base: &BenchDoc, cand: &BenchDoc, opts: &DiffOptions) -> DiffReport {
    let mut report = DiffReport::default();
    for bt in &base.targets {
        let Some(ct) = cand.targets.iter().find(|t| t.name == bt.name) else {
            match crate::targets::roof_isa(&bt.name).filter(|isa| lacks(cand, isa)) {
                Some(isa) => report.skipped.push((bt.name.clone(), isa)),
                None => report.missing.push(bt.name.clone()),
            }
            continue;
        };
        if bt.stats.passes == 0 || ct.stats.passes == 0 {
            report.empty.push(bt.name.clone());
            continue;
        }
        for (key, bv) in &bt.extras {
            if let Some(cv) = ct.extras.get(key) {
                if cv != bv {
                    report.drift.push(ExtraDrift {
                        target: bt.name.clone(),
                        key: key.clone(),
                        base: bv.clone(),
                        cand: cv.clone(),
                    });
                }
            }
        }
        let tol = opts.tol_override.unwrap_or(bt.tol);
        let (b50, c50) = (bt.stats.p50_ns, ct.stats.p50_ns);
        let regressed = if b50 == 0 {
            c50 > 0
        } else {
            (c50 as f64) > (b50 as f64) * (1.0 + tol)
        };
        if regressed {
            report.timing.push(TimingRegression {
                target: bt.name.clone(),
                base_p50_ns: b50,
                cand_p50_ns: c50,
                ratio: if b50 == 0 {
                    f64::INFINITY
                } else {
                    c50 as f64 / b50 as f64
                },
                tol,
            });
        }
    }
    for ct in &cand.targets {
        if !base.targets.iter().any(|t| t.name == ct.name) {
            report.new_targets.push(ct.name.clone());
        }
    }
    report
}

/// Whether `doc`'s manifest shows a CPU without the `isa` micro-kernel:
/// `kernel_isa` is the first of [`fmm_kernel::F64_KERNELS`] the CPU
/// runs, so every kernel listed before it is one the CPU lacks.
fn lacks(doc: &BenchDoc, isa: &str) -> bool {
    let at = |name: &str| fmm_kernel::F64_KERNELS.iter().position(|k| *k == name);
    let chosen = doc.manifest.get("kernel_isa").and_then(|k| at(k));
    matches!((at(isa), chosen), (Some(i), Some(c)) if i < c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::{TargetResult, TargetStats};
    use std::collections::BTreeMap;

    fn doc(targets: Vec<TargetResult>) -> BenchDoc {
        BenchDoc {
            profile: "quick".into(),
            manifest: BTreeMap::new(),
            targets,
        }
    }

    fn target(name: &str, p50: u64, tol: f64, extras: &[(&str, &str)]) -> TargetResult {
        TargetResult {
            name: name.into(),
            group: name.split('/').next().unwrap_or("").into(),
            tol,
            stats: TargetStats {
                warmup: 1,
                passes: 5,
                p50_ns: p50,
                p95_ns: p50 * 2,
                p99_ns: p50 * 2,
                min_ns: p50 / 2,
                max_ns: p50 * 2,
            },
            extras: extras
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    #[test]
    fn identical_documents_are_clean() {
        let base = doc(vec![target("a/x", 1000, 0.35, &[("io", "7")])]);
        let report = diff(&base, &base.clone(), &DiffOptions::default());
        assert!(report.is_clean(false), "{}", report.render());
        assert!(report.render().contains("bench diff: ok"));
    }

    #[test]
    fn missing_target_is_structural() {
        let base = doc(vec![target("a/x", 1000, 0.35, &[])]);
        let cand = doc(vec![]);
        let report = diff(&base, &cand, &DiffOptions::default());
        assert_eq!(report.missing, vec!["a/x".to_string()]);
        // Structural failures are not excused by warn-only timing.
        assert!(!report.is_clean(true));
    }

    #[test]
    fn a_roof_is_skipped_only_when_the_candidates_cpu_lacks_its_isa() {
        let base = doc(vec![
            target("kernel/roof/fma_avx512", 1000, 0.35, &[]),
            target("kernel/roof/fma_avx2", 1000, 0.35, &[]),
        ]);
        let on = |isa: Option<&str>| {
            let mut cand = doc(vec![]);
            if let Some(isa) = isa {
                cand.manifest.insert("kernel_isa".into(), isa.into());
            }
            diff(&base, &cand, &DiffOptions::default())
        };
        // An AVX2 CPU lacks AVX-512F; it could run the avx2 roof, so that
        // one missing is structural.
        let avx2 = on(Some("avx2+fma"));
        assert_eq!(
            avx2.skipped,
            vec![("kernel/roof/fma_avx512".to_string(), "avx512f")]
        );
        assert_eq!(avx2.missing, vec!["kernel/roof/fma_avx2".to_string()]);
        assert!(avx2
            .render()
            .contains("SKIP   isa       kernel/roof/fma_avx512"));
        // A portable-only CPU lacks both; nothing fails.
        let portable = on(Some("portable"));
        assert_eq!(portable.skipped.len(), 2);
        assert!(portable.is_clean(false), "{}", portable.render());
        // An AVX-512F CPU, or a manifest that does not say, excuses nothing.
        for isa in [Some("avx512f"), None] {
            let report = on(isa);
            assert!(report.skipped.is_empty(), "{isa:?}");
            assert_eq!(report.missing.len(), 2, "{isa:?}");
        }
    }

    #[test]
    fn zero_pass_target_is_no_data_not_zero() {
        let base = doc(vec![target("a/x", 1000, 0.35, &[])]);
        let mut empty = target("a/x", 0, 0.35, &[]);
        empty.stats.passes = 0;
        let report = diff(&base, &doc(vec![empty]), &DiffOptions::default());
        assert_eq!(report.empty, vec!["a/x".to_string()]);
        assert!(!report.is_clean(true));
    }

    #[test]
    fn exactly_at_tolerance_passes_strictly_beyond_fails() {
        let base = doc(vec![target("a/x", 1000, 0.35, &[])]);
        let at = doc(vec![target("a/x", 1350, 0.35, &[])]);
        assert!(diff(&base, &at, &DiffOptions::default()).is_clean(false));
        let over = doc(vec![target("a/x", 1351, 0.35, &[])]);
        let report = diff(&base, &over, &DiffOptions::default());
        assert_eq!(report.timing.len(), 1);
        assert!(!report.is_clean(false));
        assert!(report.is_clean(true), "warn-only timing must not fail");
        assert!(report.render().contains("TIMING regress"));
    }

    #[test]
    fn zero_baseline_with_nonzero_candidate_regresses() {
        let base = doc(vec![target("a/x", 0, 0.35, &[])]);
        let cand = doc(vec![target("a/x", 10, 0.35, &[])]);
        let report = diff(&base, &cand, &DiffOptions::default());
        assert_eq!(report.timing.len(), 1);
        assert!(report.timing[0].ratio.is_infinite());
        // And zero → zero is fine.
        assert!(diff(&base, &base.clone(), &DiffOptions::default()).is_clean(false));
    }

    #[test]
    fn extras_drift_is_structural_and_tol_override_applies() {
        let base = doc(vec![target("a/x", 1000, 0.01, &[("io", "7")])]);
        let cand = doc(vec![target("a/x", 1005, 0.01, &[("io", "8")])]);
        let report = diff(&base, &cand, &DiffOptions::default());
        assert_eq!(report.drift.len(), 1);
        assert!(report.render().contains("io 7 -> 8"));
        // 1005 within 1% of 1000 — timing clean; only drift fails.
        assert!(report.timing.is_empty());
        // Override shrinks tolerance to zero: now timing also regresses.
        let tight = diff(
            &base,
            &cand,
            &DiffOptions {
                tol_override: Some(0.0),
            },
        );
        assert_eq!(tight.timing.len(), 1);
    }

    #[test]
    fn new_candidate_targets_are_informational() {
        let base = doc(vec![]);
        let cand = doc(vec![target("b/new", 5, 0.35, &[])]);
        let report = diff(&base, &cand, &DiffOptions::default());
        assert_eq!(report.new_targets, vec!["b/new".to_string()]);
        assert!(report.is_clean(false));
    }
}
