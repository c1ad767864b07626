//! Correctness oracles, one per workload. None of them calls the code path
//! a job times: the live and record oracles use the paper's ground truth
//! for each workload, the cluster oracle a sequential replay computed at
//! set-up plus the pattern labels, and the what-if oracle the labels.
//!
//! Reports are compared on findings and run statistics only; their `obs`
//! section snapshots process-global telemetry, which grows across jobs.

use predator_core::{FixVerdict, Report, SharingClass};
use predator_workloads::{Expectation, Variant};

use crate::gen::{Kind, Label, Region};

/// Oracle result: `Err` names the first mismatch.
pub type Verdict = Result<(), String>;

/// A tracked or recorded paper workload must match its ground truth. The
/// broken layout is judged by its [`Expectation`]; a fixed layout must show
/// no *observed* false sharing (a prediction may remain, as streamcluster's
/// does).
pub fn paper_workload(expect: Expectation, variant: Variant, report: &Report) -> Verdict {
    let observed = report.has_observed_false_sharing();
    let ok = match (variant, expect) {
        (Variant::Fixed, _) => !observed,
        (Variant::Broken, Expectation::Clean) => !report.has_false_sharing(),
        (Variant::Broken, Expectation::Observed) => observed,
        (Variant::Broken, Expectation::PredictedOnly) => {
            !observed && report.has_predicted_false_sharing()
        }
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{variant:?} layout expected {expect:?}, report has observed={observed} \
             predicted={}",
            report.has_predicted_false_sharing()
        ))
    }
}

/// Findings and statistics must equal the reference report's.
pub fn same_report(report: &Report, reference: &Report) -> Verdict {
    if report.findings != reference.findings {
        return Err(format!(
            "findings differ from the sequential replay ({} vs {})",
            report.findings.len(),
            reference.findings.len()
        ));
    }
    if report.stats != reference.stats {
        return Err("run statistics differ from the sequential replay".into());
    }
    Ok(())
}

/// Every labelled region gets the verdict its pattern dictates: false
/// sharing and no true sharing for ping-pong and reader-writer, true
/// sharing and no false sharing for true-share, nothing for striped.
pub fn region_verdicts(regions: &[Region], report: &Report) -> Verdict {
    for r in regions {
        let classes: Vec<SharingClass> = report
            .findings
            .iter()
            .filter(|f| f.object.start < r.end && f.object.end > r.start)
            .map(|f| f.class)
            .collect();
        let has = |c: SharingClass| classes.contains(&c);
        let ok = match r.label() {
            Label::FalseSharing => {
                has(SharingClass::FalseSharing) && !has(SharingClass::TrueSharing)
            }
            Label::TrueSharing => {
                has(SharingClass::TrueSharing) && !has(SharingClass::FalseSharing)
            }
            Label::Clean => classes.is_empty(),
            Label::Unchecked => true,
        };
        if !ok {
            return Err(format!(
                "{:?} region at {:#x} expected {:?}, findings {classes:?}",
                r.kind,
                r.start,
                r.label()
            ));
        }
    }
    Ok(())
}

/// What-if: every false-sharing finding on a ping-pong region carries a
/// verified fix of verdict [`FixVerdict::Fixes`] that leaves no MESI
/// invalidation at any portfolio geometry. On a reader-writer region the
/// read word is shared by several readers, which padding per thread cannot
/// separate, so its finding may stay unverified; if verified, the same rule
/// holds. Every true-sharing finding's advice is
/// [`FixVerdict::Ineffective`]. The regions must also get their verdicts.
/// Findings on random-mix regions are not checked, as
/// [`region_verdicts`] does not check them: a fix for mixed traffic may
/// rightly be only partial.
pub fn whatif(regions: &[Region], report: &Report, geometries: usize) -> Verdict {
    region_verdicts(regions, report)?;
    for (i, f) in report.findings.iter().enumerate() {
        let region = regions
            .iter()
            .find(|r| f.object.start < r.end && f.object.end > r.start);
        if region.is_some_and(|r| r.label() == Label::Unchecked) {
            continue;
        }
        let must_verify = region.is_some_and(|r| r.kind == Kind::PingPong);
        let at = || {
            format!(
                "finding {i} ({}, {}) at {:#x}",
                f.class, f.kind, f.object.start
            )
        };
        let Some(v) = f.verified.as_ref() else {
            if must_verify || f.class == SharingClass::TrueSharing {
                return Err(format!("{} was not verified", at()));
            }
            continue;
        };
        match f.class {
            SharingClass::FalseSharing => {
                if v.verdict != FixVerdict::Fixes {
                    return Err(format!("{}: fix verdict {}", at(), v.verdict));
                }
                if v.deltas.len() != geometries || v.deltas.iter().any(|d| d.mesi_after != 0) {
                    return Err(format!("{}: MESI invalidations remain after the fix", at()));
                }
            }
            SharingClass::TrueSharing => {
                if v.verdict != FixVerdict::Ineffective {
                    return Err(format!("{}: fix verdict {}", at(), v.verdict));
                }
            }
            SharingClass::Mixed => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, Mix};
    use predator_bench::eval_config;
    use predator_core::{build_report, Predator, Session};
    use predator_trace::{whatif_events, AnalyzeConfig, WhatIfFix};
    use predator_workloads::{by_name, WorkloadConfig};

    const SMALL: Mix = Mix {
        regions: 10,
        per_thread: 1_500,
    };

    fn live_report(name: &str, variant: Variant) -> Report {
        let session = Session::with_config(eval_config());
        let cfg = WorkloadConfig {
            iters: 5_000,
            variant,
            ..WorkloadConfig::default()
        };
        by_name(name).unwrap().run_tracked(&session, &cfg);
        session.report()
    }

    fn replay(trace: &gen::Trace) -> Report {
        let rt = Predator::new(eval_config(), gen::BASE, gen::SIZE);
        for a in &trace.events {
            rt.handle_access(a.tid, a.addr, a.size, a.kind);
        }
        build_report(&rt, None)
    }

    fn first(report: &Report, class: SharingClass) -> usize {
        report
            .findings
            .iter()
            .position(|f| f.class == class)
            .expect("finding of class")
    }

    #[test]
    fn paper_workload_oracle_rejects_wrong_reports() {
        let _serial = crate::HEAVY_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let broken = live_report("histogram", Variant::Broken);
        paper_workload(Expectation::Observed, Variant::Broken, &broken).unwrap();
        assert!(paper_workload(Expectation::Clean, Variant::Broken, &broken).is_err());
        assert!(paper_workload(Expectation::PredictedOnly, Variant::Broken, &broken).is_err());
        assert!(paper_workload(Expectation::Observed, Variant::Fixed, &broken).is_err());
        let mut emptied = broken.clone();
        emptied.findings.clear();
        assert!(paper_workload(Expectation::Observed, Variant::Broken, &emptied).is_err());

        let latent = live_report("linear_regression", Variant::Broken);
        paper_workload(Expectation::PredictedOnly, Variant::Broken, &latent).unwrap();
        let mut emptied = latent.clone();
        emptied.findings.clear();
        assert!(paper_workload(Expectation::PredictedOnly, Variant::Broken, &emptied).is_err());
    }

    #[test]
    fn cluster_oracles_reject_wrong_reports() {
        let _serial = crate::HEAVY_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let trace = gen::generate_trace(&SMALL, 5);
        let reference = replay(&trace);
        same_report(&reference, &reference).unwrap();
        region_verdicts(&trace.regions, &reference).unwrap();

        let mut dropped = reference.clone();
        dropped.findings.pop();
        assert!(same_report(&dropped, &reference).is_err());
        let mut recounted = reference.clone();
        recounted.findings[0].invalidations += 1;
        assert!(same_report(&recounted, &reference).is_err());

        let mut flipped = reference.clone();
        let fs = first(&flipped, SharingClass::FalseSharing);
        flipped.findings[fs].class = SharingClass::TrueSharing;
        assert!(region_verdicts(&trace.regions, &flipped).is_err());
        let mut flipped = reference.clone();
        let ts = first(&flipped, SharingClass::TrueSharing);
        flipped.findings[ts].class = SharingClass::FalseSharing;
        assert!(region_verdicts(&trace.regions, &flipped).is_err());
        let mut emptied = reference.clone();
        emptied.findings.clear();
        assert!(region_verdicts(&trace.regions, &emptied).is_err());
    }

    #[test]
    fn whatif_oracle_rejects_wrong_reports() {
        let _serial = crate::HEAVY_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let trace = gen::generate_trace(&SMALL, 9);
        let cfg = AnalyzeConfig::new(eval_config(), 2);
        let out = whatif_events(
            &trace.events,
            gen::BASE,
            gen::SIZE,
            None,
            &cfg,
            &WhatIfFix::Suggested,
        );
        let n = predator_core::CacheGeometry::PORTFOLIO_LINE_SIZES.len();
        let good = out.report;
        whatif(&trace.regions, &good, n).unwrap();

        let ts = first(&good, SharingClass::TrueSharing);
        let mutate = |f: &dyn Fn(&mut Report)| {
            let mut r = good.clone();
            f(&mut r);
            whatif(&trace.regions, &r, n)
        };
        let ping_pong = good
            .findings
            .iter()
            .position(|f| {
                f.class == SharingClass::FalseSharing
                    && trace.regions.iter().any(|r| {
                        r.kind == Kind::PingPong && f.object.start < r.end && f.object.end > r.start
                    })
            })
            .expect("a ping-pong finding");
        assert!(mutate(&|r| r.findings[ping_pong].verified = None).is_err());
        assert!(mutate(
            &|r| r.findings[ping_pong].verified.as_mut().unwrap().verdict = FixVerdict::Partial
        )
        .is_err());
        assert!(mutate(
            &|r| r.findings[ping_pong].verified.as_mut().unwrap().deltas[0].mesi_after = 1
        )
        .is_err());
        assert!(
            mutate(&|r| r.findings[ts].verified.as_mut().unwrap().verdict = FixVerdict::Fixes)
                .is_err()
        );
        assert!(mutate(&|r| r.findings[ts].verified = None).is_err());
    }
}
