//! What-if layout replay: verified fix suggestions over a geometry
//! portfolio.
//!
//! The paper predicts false sharing for doubled line sizes and shifted
//! start addresses (§3). The `.ptrace` format enables the generalisation:
//! take the recorded trace, apply a proposed layout fix as a pure address
//! remap ([`crate::remap::AddressRemap`] — injective, order-preserving),
//! replay the remapped events through the detector, and report the
//! *measured* invalidation delta instead of untested advice. Every delta is
//! computed at all four portfolio line sizes
//! ([`CacheGeometry::PORTFOLIO_LINE_SIZES`]) and cross-checked against the
//! MESI ground-truth simulator, so a "this padding removes 97% of
//! invalidations" claim is backed by replay numbers at every geometry.
//!
//! ## Cluster-scoped replay
//!
//! A fix moves one object, and a finding's numbers depend only on the
//! events near it, so nothing replays the whole trace:
//!
//! 1. The trace is cut once into byte-range clusters far enough apart that
//!    no two share detector state or a cache line at any portfolio
//!    geometry. Remaps only insert gaps, so the cut survives every fix.
//! 2. A finding's *replay set* is the clusters near its object, plus those
//!    near any attributed object (global or recorded heap object) that
//!    overlaps it. When such an object spans the trace, the set is the
//!    whole trace: full replay is the fallback, not a separate path.
//! 3. Each replay set gets one baseline (analysis + MESI at the four
//!    geometries; at the analysis geometry the initial report is reused),
//!    and each (edit list, replay set) one fix replay.
//! 4. Every scoped analysis runs one detector in the calling thread, on a
//!    shadow covering only the set's lines plus margins.
//!
//! DESIGN.md gives the soundness argument; `tests/whatif_replay.rs` checks
//! the annotations byte for byte against whole-trace replay.

use std::collections::HashMap;
use std::fmt::Write as _;

use predator_core::{
    build_report_merged, lower_fix, suggest_fixes, Attribution, CacheGeometry, DetectorConfig,
    Finding, GeometryDelta, LayoutEdit, Predator, Report, VerifiedFix,
};
use predator_sim::mesi::MesiSim;
use predator_sim::Access;

use crate::analyze::{analyze_events, link_gap, AnalyzeConfig};
use crate::format::TraceMeta;
use crate::remap::AddressRemap;

/// What the replay applies to the recorded layout.
#[derive(Debug, Clone)]
pub enum WhatIfFix {
    /// Verify each finding's own first [`predator_core::FixSuggestion`]
    /// (lowered per finding via [`predator_core::lower_fix`]).
    Suggested,
    /// Apply one user-supplied edit list to the whole trace and measure its
    /// effect on every finding.
    Edits(Vec<LayoutEdit>),
}

/// Result of a what-if replay: the baseline report with per-finding
/// [`VerifiedFix`] annotations filled in.
#[derive(Debug)]
pub struct WhatIfOutcome {
    /// Baseline report (analysis geometry), findings annotated.
    pub report: Report,
    /// Events replayed.
    pub events: u64,
    /// Findings that received a verification.
    pub verified: usize,
}

impl WhatIfOutcome {
    /// Headline improvement: the best finding's worst-geometry percentage
    /// removed, over findings that had anything to remove. `None` when
    /// nothing was verifiable.
    pub fn best_pct(&self) -> Option<u64> {
        self.report
            .findings
            .iter()
            .filter_map(|f| f.verified.as_ref())
            .filter(|v| v.deltas.iter().any(|d| d.before > 0))
            .map(VerifiedFix::min_pct_removed)
            .max()
    }

    /// Deterministic text rendering (the `predator whatif` default and the
    /// golden-fixture format).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "WHAT-IF REPLAY: {} events; {}/{} findings verified; portfolio {:?}",
            self.events,
            self.verified,
            self.report.findings.len(),
            CacheGeometry::PORTFOLIO_LINE_SIZES
        );
        for (i, f) in self.report.findings.iter().enumerate() {
            let Some(v) = &f.verified else { continue };
            let _ = writeln!(
                out,
                "finding {i} ({} / {}): object {:#x} size {}",
                f.class,
                f.kind.family(),
                f.object.start,
                f.object.size
            );
            let _ = write!(out, "{v}");
        }
        match self.best_pct() {
            Some(p) => {
                let _ = writeln!(
                    out,
                    "best fix removes {p}% of invalidations (worst geometry)"
                );
            }
            None => {
                let _ = writeln!(out, "nothing to verify (no invalidations to remove)");
            }
        }
        out
    }
}

/// Replays `events` under `fix` and returns the annotated baseline report.
pub fn whatif_events(
    events: &[Access],
    base: u64,
    size: u64,
    meta: Option<&TraceMeta>,
    cfg: &AnalyzeConfig,
    fix: &WhatIfFix,
) -> WhatIfOutcome {
    let outcome = analyze_events(events, base, size, meta, cfg);
    let mut report = outcome.report;
    let verified = annotate_fixes(events, base, size, meta, &mut report, cfg, fix);
    WhatIfOutcome {
        report,
        events: outcome.events,
        verified,
    }
}

/// The `analyze --verify-fixes` entry point: annotates every finding of an
/// already-built report with its suggested fix's replay numbers. Returns
/// the number of findings annotated.
///
/// `report` must be the unfiltered [`analyze_events`] report of `events`
/// under `cfg`: its numbers stand in for the baseline at the analysis
/// geometry.
pub fn verify_fixes(
    events: &[Access],
    base: u64,
    size: u64,
    meta: Option<&TraceMeta>,
    report: &mut Report,
    cfg: &AnalyzeConfig,
) -> usize {
    annotate_fixes(events, base, size, meta, report, cfg, &WhatIfFix::Suggested)
}

/// The largest portfolio line. Clusters, replay-set closure and shadow
/// margins are all measured in it, so they hold at every portfolio
/// geometry at once.
const MAX_LINE: u64 = CacheGeometry::MAX_PORTFOLIO_LINE;

/// One past the last byte an access touches (a zero-size access touches
/// one byte, as in [`CacheGeometry::lines_touched`]).
fn access_end(a: &Access) -> u64 {
    a.addr.saturating_add(a.size.max(1) as u64)
}

/// The trace cut into byte-range clusters that share no detector state and
/// no cache line at any portfolio geometry — before or after any
/// [`AddressRemap`], which only ever widens gaps.
struct Clusters {
    /// `[lo, hi)` bytes touched by each cluster, in address order.
    spans: Vec<(u64, u64)>,
    /// Indices of each cluster's events, in stream order.
    members: Vec<Vec<u32>>,
}

impl Clusters {
    /// Cuts between consecutive touched `MAX_LINE` lines more than
    /// `link_gap + 1` apart. The byte gap at a cut then exceeds
    /// `(link_gap + 1) × MAX_LINE`, so at every portfolio geometry the
    /// lines on either side are more than `link_gap` apart: exactly the
    /// separation that makes sharded analysis equal sequential analysis.
    fn build(events: &[Access], det: &DetectorConfig) -> Clusters {
        assert!(
            u32::try_from(events.len()).is_ok(),
            "what-if replay indexes events with u32"
        );
        let line = |addr: u64| addr / MAX_LINE;
        let mut lines: Vec<u64> = Vec::with_capacity(events.len());
        for a in events {
            let (first, last) = (line(a.addr), line(access_end(a) - 1));
            lines.push(first);
            if last != first {
                lines.push(last);
            }
        }
        lines.sort_unstable();
        lines.dedup();
        let join = link_gap(det) + 1;
        let mut firsts: Vec<u64> = Vec::new();
        for (i, &l) in lines.iter().enumerate() {
            if i == 0 || l - lines[i - 1] > join {
                firsts.push(l);
            }
        }
        let mut spans = vec![(u64::MAX, 0u64); firsts.len()];
        let mut members = vec![Vec::new(); firsts.len()];
        for (i, a) in events.iter().enumerate() {
            let c = firsts.partition_point(|&f| f <= line(a.addr)) - 1;
            spans[c].0 = spans[c].0.min(a.addr);
            spans[c].1 = spans[c].1.max(access_end(a));
            members[c].push(i as u32);
        }
        Clusters { spans, members }
    }

    /// Clusters whose bytes come within `MAX_LINE` of `[lo, hi)`: every
    /// cluster that can put an event on a portfolio line overlapping it.
    fn near(&self, lo: u64, hi: u64) -> std::ops::Range<usize> {
        let from = self
            .spans
            .partition_point(|&(_, e)| e.saturating_add(MAX_LINE) <= lo);
        let to = self
            .spans
            .partition_point(|&(s, _)| s < hi.saturating_add(MAX_LINE));
        from..to.max(from)
    }

    /// The clusters whose events decide every finding overlapping
    /// `[lo, hi)`: those near the range itself (line-attributed findings)
    /// and those near any attributed object overlapping it (an object's
    /// finding sums every line attributed to it, wherever they sit).
    fn replay_set(&self, lo: u64, hi: u64, objects: &[(u64, u64)]) -> Vec<usize> {
        let mut set: Vec<usize> = self.near(lo, hi).collect();
        for &(s, e) in objects.iter().filter(|&&(s, e)| s < hi && e > lo) {
            set.extend(self.near(s, e));
        }
        set.sort_unstable();
        set.dedup();
        set
    }

    /// The events of `set`, in stream order.
    fn gather(&self, set: &[usize], events: &[Access]) -> Vec<Access> {
        let mut idx: Vec<u32> = set
            .iter()
            .flat_map(|&c| self.members[c].iter().copied())
            .collect();
        if set.len() > 1 {
            idx.sort_unstable();
        }
        idx.into_iter().map(|i| events[i as usize]).collect()
    }
}

/// Byte ranges of every attributed object (globals and heap objects).
fn attributed_objects(meta: &TraceMeta) -> Vec<(u64, u64)> {
    let globals = meta.globals.iter().map(|g| (g.start, g.size));
    let objects = meta.objects.iter().map(|o| (o.start, o.size));
    globals
        .chain(objects)
        .filter(|&(_, size)| size > 0)
        .map(|(start, size)| (start, start.saturating_add(size)))
        .collect()
}

/// Shadow range for a detector fed only `events` (whole clusters): their
/// bytes widened to whole `MAX_LINE << max_scale_log2` blocks plus `r`
/// largest lines of margin on each side, clipped to the traced range
/// `[base, base + size)`. It holds every line the whole-trace detector
/// could promote, analyse or attach a unit to for these events, and the
/// clip reproduces its treatment of out-of-range events. `None` when no
/// event can land in range.
fn shadow_window(
    events: &[Access],
    base: u64,
    size: u64,
    det: &DetectorConfig,
) -> Option<(u64, u64)> {
    let lo = events.iter().map(|a| a.addr).min()?;
    let hi = events.iter().map(access_end).max()?;
    let block = MAX_LINE << det.max_scale_log2;
    let margin = ((1u64 << det.max_scale_log2) - 1) * MAX_LINE;
    let lo = (lo / block * block).saturating_sub(margin).max(base);
    let hi = (hi.saturating_add(block - 1) / block * block)
        .saturating_add(margin)
        .min(base.saturating_add(size));
    (lo < hi).then_some((lo, hi))
}

fn cores_for(events: &[Access]) -> usize {
    events.iter().map(|a| a.tid.index() + 1).max().unwrap_or(1)
}

fn count_replayed(events: &[Access]) {
    predator_obs::static_counter!("whatif_replayed_events_total").add(events.len() as u64);
}

fn run_mesi(events: &[Access], n_cores: usize, geom: CacheGeometry) -> MesiSim {
    let _sp = predator_obs::span("mesi");
    count_replayed(events);
    let mut sim = MesiSim::new(n_cores, geom);
    for a in events {
        sim.access(a.tid, a.addr, a.size, a.kind);
    }
    sim
}

/// One portfolio geometry's replay of a replay set.
struct GeometryRun {
    geom: CacheGeometry,
    /// Findings of the scoped analysis; `None` stands for the initial
    /// report's, which were computed at this geometry over the whole trace.
    findings: Option<Vec<Finding>>,
    mesi: MesiSim,
}

impl GeometryRun {
    /// The run's findings, given the initial report's.
    fn findings<'a>(&'a self, initial: &'a [Finding]) -> &'a [Finding] {
        self.findings.as_deref().unwrap_or(initial)
    }
}

/// What a scoped replay needs besides its events.
struct ReplayScope<'a> {
    base: u64,
    size: u64,
    meta: Option<&'a TraceMeta>,
    det: &'a DetectorConfig,
    /// Core count of the whole trace (MESI needs every thread a slot).
    n_cores: usize,
}

impl ReplayScope<'_> {
    /// Replays `events` (a union of whole clusters) at every portfolio
    /// geometry: MESI, and one detector in the calling thread on a shadow
    /// covering only their lines. The detector is skipped at `reuse`, the
    /// geometry whose findings the caller already holds.
    fn portfolio(&self, events: &[Access], reuse: Option<CacheGeometry>) -> Vec<GeometryRun> {
        let dir = self.meta.map(TraceMeta::directory);
        let attr = match dir.as_ref() {
            Some(d) => Attribution::Directory(d),
            None => Attribution::None,
        };
        CacheGeometry::portfolio()
            .into_iter()
            .map(|geom| {
                let findings = (Some(geom) != reuse).then(|| {
                    let mut det = *self.det;
                    det.geometry = geom;
                    self.analyze(events, &det, attr)
                });
                GeometryRun {
                    geom,
                    findings,
                    mesi: run_mesi(events, self.n_cores, geom),
                }
            })
            .collect()
    }

    fn analyze(
        &self,
        events: &[Access],
        det: &DetectorConfig,
        attr: Attribution<'_>,
    ) -> Vec<Finding> {
        let Some((lo, hi)) = shadow_window(events, self.base, self.size, det) else {
            return Vec::new();
        };
        count_replayed(events);
        let rt = Predator::new(*det, lo, hi - lo);
        for a in events {
            rt.handle_access(a.tid, a.addr, a.size, a.kind);
        }
        if let Some(m) = self.meta {
            m.apply_globals(&rt);
        }
        build_report_merged(&[&rt], attr).findings
    }
}

/// Detector invalidations attributed to any finding whose object overlaps
/// `[start, end)`.
fn range_invalidations(findings: &[Finding], start: u64, end: u64) -> u64 {
    findings
        .iter()
        .filter(|f| f.object.start < end && f.object.end > start)
        .map(|f| f.invalidations)
        .sum()
}

/// MESI invalidation events on the lines covering `[start, end)`.
fn mesi_range_invalidations(sim: &MesiSim, geom: CacheGeometry, start: u64, end: u64) -> u64 {
    if end <= start {
        return 0;
    }
    (geom.line_index(start)..=geom.line_index(end - 1))
        .map(|l| sim.line_invalidations(l))
        .sum()
}

/// Which finding gets which fix: `(finding index, description, edits)`.
fn plan_targets(
    report: &Report,
    cfg: &AnalyzeConfig,
    fix: &WhatIfFix,
) -> Vec<(usize, String, Vec<LayoutEdit>)> {
    match fix {
        WhatIfFix::Suggested => {
            let mut seen = std::collections::HashSet::new();
            suggest_fixes(report, cfg.det.geometry)
                .into_iter()
                .filter(|(i, _)| seen.insert(*i)) // first suggestion per finding
                .map(|(i, s)| {
                    let edits = lower_fix(&report.findings[i], &s);
                    (i, s.to_string(), edits)
                })
                .collect()
        }
        WhatIfFix::Edits(edits) => {
            let desc = if edits.is_empty() {
                "no-op layout edit".to_string()
            } else {
                let parts: Vec<String> = edits
                    .iter()
                    .map(|e| format!("+{}B@{:#x}", e.pad, e.at))
                    .collect();
                format!("user layout edit: {}", parts.join(", "))
            };
            (0..report.findings.len())
                .map(|i| (i, desc.clone(), edits.clone()))
                .collect()
        }
    }
}

/// An edit list as sorted `(at, pad)` pairs: equal keys replay alike.
type EditKey = Vec<(u64, u64)>;

/// A replay set's events and baseline runs.
struct Baseline {
    events: Vec<Access>,
    runs: Vec<GeometryRun>,
}

/// Annotates the planned findings of `report` — the whole-trace analysis
/// of `events` under `cfg` — with replay-measured deltas.
fn annotate_fixes(
    events: &[Access],
    base: u64,
    size: u64,
    meta: Option<&TraceMeta>,
    report: &mut Report,
    cfg: &AnalyzeConfig,
    fix: &WhatIfFix,
) -> usize {
    let targets = plan_targets(report, cfg, fix);
    if targets.is_empty() {
        return 0;
    }
    let clusters = Clusters::build(events, &cfg.det);
    let objects = meta.map(attributed_objects).unwrap_or_default();
    let scope = ReplayScope {
        base,
        size,
        meta,
        det: &cfg.det,
        n_cores: cores_for(events),
    };

    // Baselines per replay set; replays per (edit list, replay set).
    let mut baselines: HashMap<Vec<usize>, Baseline> = HashMap::new();
    let mut replays: HashMap<(EditKey, Vec<usize>), Vec<GeometryRun>> = HashMap::new();

    let mut annotations = Vec::with_capacity(targets.len());
    for (idx, desc, edits) in targets {
        let (obj_start, obj_end) = {
            let o = &report.findings[idx].object;
            (o.start, o.end)
        };
        let set = clusters.replay_set(obj_start, obj_end, &objects);
        let baseline = baselines.entry(set.clone()).or_insert_with(|| {
            let _sp = predator_obs::span("whatif_baseline");
            let events = clusters.gather(&set, events);
            let runs = scope.portfolio(&events, Some(cfg.det.geometry));
            Baseline { events, runs }
        });
        let remap = AddressRemap::from_edits(&edits);
        // A no-op edit compares the baseline against itself.
        let (afters, new_start, new_end) = if remap.is_identity() {
            (&baseline.runs, obj_start, obj_end)
        } else {
            let mut key: EditKey = edits.iter().map(|e| (e.at, e.pad)).collect();
            key.sort_unstable();
            let afters = replays.entry((key, set)).or_insert_with(|| {
                let _sp = predator_obs::span("whatif_replay");
                let (mapped, mapped_meta) = {
                    let _sp = predator_obs::span("remap");
                    (
                        remap.apply_events(&baseline.events),
                        meta.map(|m| remap.apply_meta(m)),
                    )
                };
                let shifted = ReplayScope {
                    size: size.saturating_add(remap.total_pad()),
                    meta: mapped_meta.as_ref(),
                    ..scope
                };
                shifted.portfolio(&mapped, None)
            });
            let new_start = remap.apply(obj_start);
            let new_end = if obj_end > obj_start {
                remap.apply(obj_end - 1) + 1
            } else {
                new_start
            };
            (&*afters, new_start, new_end)
        };
        let deltas: Vec<GeometryDelta> = baseline
            .runs
            .iter()
            .zip(afters)
            .map(|(b, a)| GeometryDelta {
                line_size: b.geom.line_size(),
                before: range_invalidations(b.findings(&report.findings), obj_start, obj_end),
                after: range_invalidations(a.findings(&report.findings), new_start, new_end),
                mesi_before: mesi_range_invalidations(&b.mesi, b.geom, obj_start, obj_end),
                mesi_after: mesi_range_invalidations(&a.mesi, a.geom, new_start, new_end),
            })
            .collect();
        let verdict = VerifiedFix::classify(&deltas);
        annotations.push((
            idx,
            VerifiedFix {
                fix: desc,
                pad_bytes: remap.total_pad(),
                deltas,
                verdict,
            },
        ));
    }
    let annotated = annotations.len();
    for (idx, v) in annotations {
        report.findings[idx].verified = Some(v);
    }
    annotated
}

#[cfg(test)]
mod tests {
    use super::*;
    use predator_core::{DetectorConfig, FixVerdict};
    use predator_sim::ThreadId;

    const BASE: u64 = 0x4000_0000;
    const SIZE: u64 = 1 << 20;

    fn cfg() -> AnalyzeConfig {
        AnalyzeConfig::new(DetectorConfig::sensitive(), 2)
    }

    /// Two threads ping-pong adjacent words: classic false sharing.
    fn false_sharing_trace(n: u64) -> Vec<Access> {
        (0..n)
            .map(|i| Access::write(ThreadId((i % 2) as u16), BASE + (i % 2) * 8, 8))
            .collect()
    }

    /// Two threads hammer the same word: true sharing, padding can't help.
    fn true_sharing_trace(n: u64) -> Vec<Access> {
        (0..n)
            .map(|i| Access::write(ThreadId((i % 2) as u16), BASE, 8))
            .collect()
    }

    #[test]
    fn suggested_padding_fix_removes_over_90_pct_at_every_geometry() {
        let events = false_sharing_trace(800);
        let out = whatif_events(&events, BASE, SIZE, None, &cfg(), &WhatIfFix::Suggested);
        assert!(out.verified >= 1, "{}", out.to_text());
        let v = out.report.findings[0].verified.as_ref().unwrap();
        assert_eq!(v.verdict, FixVerdict::Fixes, "{}", out.to_text());
        assert_eq!(v.deltas.len(), 4);
        for d in &v.deltas {
            assert!(d.before > 0, "{d:?}");
            assert_eq!(d.after, 0, "exact min_separation must zero {d:?}");
            assert!(d.mesi_before > 0, "{d:?}");
            // MESI keeps the two cold installs but no sharing traffic:
            // padding must eliminate (almost) all ground-truth events too.
            assert!(
                d.mesi_after * 100 <= d.mesi_before * 10,
                "MESI cross-check failed at {}B: {} -> {}",
                d.line_size,
                d.mesi_before,
                d.mesi_after
            );
            assert!(d.pct_removed() >= 90, "{d:?}");
        }
        assert!(out.best_pct().unwrap() >= 90);
    }

    #[test]
    fn true_sharing_fix_is_ineffective() {
        let events = true_sharing_trace(800);
        let out = whatif_events(&events, BASE, SIZE, None, &cfg(), &WhatIfFix::Suggested);
        assert!(out.verified >= 1);
        let v = out.report.findings[0].verified.as_ref().unwrap();
        assert_eq!(v.verdict, FixVerdict::Ineffective, "{}", out.to_text());
        assert_eq!(v.pad_bytes, 0, "true-sharing advice lowers to no edits");
        for d in &v.deltas {
            assert_eq!(d.before, d.after, "{d:?}");
        }
        assert_eq!(out.best_pct(), Some(0));
    }

    #[test]
    fn exactly_min_separation_yields_zero_predicted_false_sharing_everywhere() {
        // The satellite check for fixes.rs::min_separation: padding by
        // exactly that amount must leave zero false-sharing findings at
        // every portfolio geometry — including predicted (doubled /
        // scaled / remap) ones.
        let events = false_sharing_trace(800);
        let sep = CacheGeometry::portfolio_separation();
        let edits = vec![LayoutEdit {
            at: BASE + 8,
            pad: sep,
        }];
        let remap = AddressRemap::from_edits(&edits);
        let mapped = remap.apply_events(&events);
        for geom in CacheGeometry::portfolio() {
            let mut det = DetectorConfig::sensitive();
            det.geometry = geom;
            let out = analyze_events(&mapped, BASE, SIZE + sep, None, &AnalyzeConfig::new(det, 2));
            assert!(
                !out.report.has_false_sharing(),
                "predicted false sharing survives at {}B lines:\n{}",
                geom.line_size(),
                out.report
            );
        }
    }

    #[test]
    fn user_edit_annotates_every_finding() {
        let events = false_sharing_trace(600);
        let edits = vec![LayoutEdit {
            at: BASE + 8,
            pad: 512,
        }];
        let out = whatif_events(&events, BASE, SIZE, None, &cfg(), &WhatIfFix::Edits(edits));
        assert_eq!(out.verified, out.report.findings.len());
        let v = out.report.findings[0].verified.as_ref().unwrap();
        assert_eq!(v.pad_bytes, 512);
        assert!(v.fix.contains("user layout edit"), "{}", v.fix);
        assert_eq!(v.verdict, FixVerdict::Fixes);
    }

    #[test]
    fn noop_edit_reports_zero_delta() {
        let events = false_sharing_trace(600);
        let out = whatif_events(
            &events,
            BASE,
            SIZE,
            None,
            &cfg(),
            &WhatIfFix::Edits(Vec::new()),
        );
        assert!(out.verified >= 1);
        let v = out.report.findings[0].verified.as_ref().unwrap();
        assert_eq!(v.verdict, FixVerdict::Ineffective);
        assert_eq!(v.pad_bytes, 0);
        for d in &v.deltas {
            assert_eq!(d.before, d.after);
            assert_eq!(d.mesi_before, d.mesi_after);
        }
        assert!(v.fix.contains("no-op"), "{}", v.fix);
    }

    #[test]
    fn text_rendering_is_stable_and_informative() {
        let events = false_sharing_trace(600);
        let out = whatif_events(&events, BASE, SIZE, None, &cfg(), &WhatIfFix::Suggested);
        let text = out.to_text();
        assert!(text.contains("WHAT-IF REPLAY"), "{text}");
        assert!(text.contains("portfolio [32, 64, 128, 256]"), "{text}");
        assert!(text.contains("Verified fix (fixes"), "{text}");
        assert!(text.contains("% removed"), "{text}");
        // Rendering twice gives identical bytes.
        assert_eq!(text, out.to_text());
    }
}
