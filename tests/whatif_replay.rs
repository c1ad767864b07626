//! Property tests for the what-if layer (the `predator whatif`
//! foundation): identity remaps change nothing, line-multiple padding never
//! makes the MESI ground truth worse, remapped traces survive the `.ptrace`
//! encode/decode round trip losslessly, and cluster-scoped replay annotates
//! every finding exactly as whole-trace replay does.

use std::collections::{HashMap, HashSet};
use std::io::{BufReader, Cursor};

use proptest::prelude::*;

use predator::core::{
    lower_fix, suggest_fixes, DetectorConfig, GeometryDelta, LayoutEdit, Report, VerifiedFix,
};
use predator::sim::interleave::{interleave, Schedule, Script};
use predator::sim::mesi::MesiSim;
use predator::sim::patterns::{generate, Pattern};
use predator::sim::{Access, CacheGeometry, ThreadId};
use predator::trace::{
    analyze_events, whatif_events, AddressRemap, AnalyzeConfig, MetaObject, TraceMeta, TraceReader,
    TraceWriter, WhatIfFix,
};

const BASE: u64 = 0x4000_0000;
const SIZE: u64 = 1 << 20;

/// Findings + run stats, serialised. The `obs` section is excluded: it
/// snapshots process-global telemetry that accumulates across tests.
fn essence(r: &Report) -> String {
    format!(
        "{}\n{}",
        serde_json::to_string(&r.findings).unwrap(),
        serde_json::to_string(&r.stats).unwrap()
    )
}

fn cfg() -> AnalyzeConfig {
    AnalyzeConfig::new(DetectorConfig::sensitive(), 2)
}

/// Word-granular traffic from a handful of threads over a small region:
/// distinct threads on distinct words of shared lines — false-sharing-heavy
/// by construction.
fn arb_events() -> impl Strategy<Value = Vec<Access>> {
    proptest::collection::vec((0u16..4, 0u64..64, prop::bool::ANY), 1..400).prop_map(|ops| {
        ops.into_iter()
            .map(|(tid, word, w)| {
                let addr = BASE + word * 8;
                if w {
                    Access::write(ThreadId(tid), addr, 8)
                } else {
                    Access::read(ThreadId(tid), addr, 8)
                }
            })
            .collect()
    })
}

/// Layout edits at word-aligned spots whose pads are multiples of 256 —
/// a whole-line multiple of every portfolio geometry, so the remap only
/// ever splits cache lines, never merges them.
fn arb_line_multiple_edits() -> impl Strategy<Value = Vec<LayoutEdit>> {
    proptest::collection::vec((0u64..64, 1u64..4), 0..6).prop_map(|pads| {
        pads.into_iter()
            .map(|(word, k)| LayoutEdit {
                at: BASE + word * 8,
                pad: k * 256,
            })
            .collect()
    })
}

/// Total remote copies killed — the MESI quantity that is provably monotone
/// under line-splitting remaps. (Distinct invalidation *events* are not:
/// splitting a line can spread the same — or fewer — copy kills over more
/// distinct writes, so the event count may go up while total damage drops.)
fn mesi_copies_killed(events: &[Access], geom: CacheGeometry) -> u64 {
    let mut sim = MesiSim::new(4, geom);
    for a in events {
        sim.access(a.tid, a.addr, a.size, a.kind);
    }
    sim.stats().lines_invalidated
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The identity remap is a no-op end to end: re-analyzing the remapped
    /// event stream produces a byte-identical report to plain `analyze`.
    #[test]
    fn prop_identity_remap_reanalysis_is_byte_identical(events in arb_events()) {
        let remap = AddressRemap::identity();
        let mapped = remap.apply_events(&events);
        prop_assert_eq!(&mapped, &events);
        let plain = analyze_events(&events, BASE, SIZE, None, &cfg());
        let replay = analyze_events(&mapped, BASE, SIZE, None, &cfg());
        prop_assert_eq!(essence(&plain.report), essence(&replay.report));
    }

    /// A padding-fix remap on a false-sharing-only trace never makes MESI
    /// worse. "False-sharing-only" means every word is touched by exactly
    /// one thread (here: word owner = word index mod 4); the fix pads every
    /// ownership boundary by a whole-line multiple ≥ 512 bytes, separating
    /// any two different-owner words past the largest portfolio line. After
    /// the remap every cache line is single-threaded, so sharing traffic is
    /// not just non-increasing — it is zero at every geometry. (Arbitrary
    /// line-splitting remaps are NOT monotone: a coarse-line kill destroys
    /// a multi-sub-line copy in one event, where the split layout pays one
    /// kill per sub-line — see DESIGN.md for the counterexample.)
    #[test]
    fn prop_padding_fix_never_increases_mesi_on_false_sharing_trace(
        ops in proptest::collection::vec((0u64..64, prop::bool::ANY), 1..400),
        ks in proptest::collection::vec(1u64..3, 64),
    ) {
        let events: Vec<Access> = ops
            .into_iter()
            .map(|(word, w)| {
                let tid = ThreadId((word % 4) as u16); // owner-partitioned words
                let addr = BASE + word * 8;
                if w {
                    Access::write(tid, addr, 8)
                } else {
                    Access::read(tid, addr, 8)
                }
            })
            .collect();
        // Owners alternate every word, so every word boundary is an
        // ownership boundary: pad each one by k × 512 bytes.
        let edits: Vec<LayoutEdit> = (1..64)
            .map(|w| LayoutEdit { at: BASE + w * 8, pad: ks[w as usize] * 512 })
            .collect();
        let remap = AddressRemap::from_edits(&edits);
        let mapped = remap.apply_events(&events);
        for ls in CacheGeometry::PORTFOLIO_LINE_SIZES {
            let geom = CacheGeometry::new(ls);
            let before = mesi_copies_killed(&events, geom);
            let after = mesi_copies_killed(&mapped, geom);
            prop_assert_eq!(
                after, 0,
                "{}B lines: separated footprints still share ({} kills)",
                ls, after
            );
            prop_assert!(after <= before);
        }
    }

    /// A remapped trace written to `.ptrace` decodes back to exactly the
    /// remapped events, with the (grown) address range intact.
    #[test]
    fn prop_remapped_traces_round_trip_ptrace(
        events in arb_events(),
        edits in arb_line_multiple_edits(),
    ) {
        let remap = AddressRemap::from_edits(&edits);
        let mapped = remap.apply_events(&events);
        let new_size = SIZE + remap.total_pad();

        let mut w = TraceWriter::create(Vec::new(), BASE, new_size).unwrap();
        w.write_events(&mapped).unwrap();
        let (summary, bytes) = w.finish().unwrap();
        prop_assert_eq!(summary.events, mapped.len() as u64);

        let mut r = TraceReader::new(BufReader::new(Cursor::new(bytes))).unwrap();
        prop_assert_eq!(r.base(), BASE);
        prop_assert_eq!(r.size(), new_size);
        let decoded: Vec<Access> = (&mut r).collect();
        prop_assert!(!r.stats().any(), "lossless round trip");
        prop_assert_eq!(decoded, mapped);
    }
}

// ---- Cluster-scoped replay ≡ whole-trace replay ---------------------------

/// One portfolio geometry's whole-trace report and MESI run.
type GeometryRun = (CacheGeometry, Report, MesiSim);

/// Whole-trace what-if replay, kept as the oracle for the cluster-scoped
/// path: every baseline and every fix replay re-analyses the whole
/// (remapped) trace at each portfolio geometry and runs MESI over all of
/// it. Returns each finding's annotation, in report order.
fn annotate_fixes_full(
    events: &[Access],
    base: u64,
    size: u64,
    meta: Option<&TraceMeta>,
    cfg: &AnalyzeConfig,
    fix: &WhatIfFix,
) -> Vec<Option<VerifiedFix>> {
    let report = analyze_events(events, base, size, meta, cfg).report;
    let targets: Vec<(usize, String, Vec<LayoutEdit>)> = match fix {
        WhatIfFix::Suggested => {
            let mut seen = HashSet::new();
            suggest_fixes(&report, cfg.det.geometry)
                .into_iter()
                .filter(|(i, _)| seen.insert(*i))
                .map(|(i, s)| (i, s.to_string(), lower_fix(&report.findings[i], &s)))
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
    };
    let n_cores = events.iter().map(|a| a.tid.index() + 1).max().unwrap_or(1);
    let portfolio = |events: &[Access], size: u64, meta: Option<&TraceMeta>| {
        CacheGeometry::portfolio()
            .into_iter()
            .map(|geom| {
                let mut det = cfg.det;
                det.geometry = geom;
                let gcfg = AnalyzeConfig { det, ..cfg.clone() };
                let report = analyze_events(events, base, size, meta, &gcfg).report;
                let mut sim = MesiSim::new(n_cores, geom);
                for a in events {
                    sim.access(a.tid, a.addr, a.size, a.kind);
                }
                (geom, report, sim)
            })
            .collect::<Vec<GeometryRun>>()
    };
    let detector = |r: &Report, start: u64, end: u64| -> u64 {
        r.findings
            .iter()
            .filter(|f| f.object.start < end && f.object.end > start)
            .map(|f| f.invalidations)
            .sum()
    };
    let mesi = |sim: &MesiSim, geom: CacheGeometry, start: u64, end: u64| -> u64 {
        if end <= start {
            return 0;
        }
        (geom.line_index(start)..=geom.line_index(end - 1))
            .map(|l| sim.line_invalidations(l))
            .sum()
    };

    let baselines = portfolio(events, size, meta);
    let mut replays: HashMap<Vec<(u64, u64)>, Vec<GeometryRun>> = HashMap::new();
    let mut out = vec![None; report.findings.len()];
    for (idx, desc, edits) in targets {
        let (start, end) = (
            report.findings[idx].object.start,
            report.findings[idx].object.end,
        );
        let remap = AddressRemap::from_edits(&edits);
        let afters = if remap.is_identity() {
            &baselines
        } else {
            let mut key: Vec<(u64, u64)> = edits.iter().map(|e| (e.at, e.pad)).collect();
            key.sort_unstable();
            replays.entry(key).or_insert_with(|| {
                let mapped = remap.apply_events(events);
                let mapped_meta = meta.map(|m| remap.apply_meta(m));
                portfolio(&mapped, size + remap.total_pad(), mapped_meta.as_ref())
            })
        };
        let new_start = remap.apply(start);
        let new_end = if end > start {
            remap.apply(end - 1) + 1
        } else {
            new_start
        };
        let deltas: Vec<GeometryDelta> = baselines
            .iter()
            .zip(afters.iter())
            .map(|((geom, b, bm), (_, a, am))| GeometryDelta {
                line_size: geom.line_size(),
                before: detector(b, start, end),
                after: detector(a, new_start, new_end),
                mesi_before: mesi(bm, *geom, start, end),
                mesi_after: mesi(am, *geom, new_start, new_end),
            })
            .collect();
        let verdict = VerifiedFix::classify(&deltas);
        out[idx] = Some(VerifiedFix {
            fix: desc,
            pad_bytes: remap.total_pad(),
            deltas,
            verdict,
        });
    }
    out
}

/// Asserts scoped and whole-trace replay annotate every finding with
/// byte-identical [`VerifiedFix`] records; returns how many were annotated.
fn assert_scoped_matches_full(
    events: &[Access],
    meta: Option<&TraceMeta>,
    cfg: &AnalyzeConfig,
    fix: &WhatIfFix,
) -> usize {
    let out = whatif_events(events, BASE, SIZE, meta, cfg, fix);
    let scoped: Vec<Option<VerifiedFix>> = out
        .report
        .findings
        .iter()
        .map(|f| f.verified.clone())
        .collect();
    let full = annotate_fixes_full(events, BASE, SIZE, meta, cfg, fix);
    assert_eq!(
        serde_json::to_string_pretty(&scoped).unwrap(),
        serde_json::to_string_pretty(&full).unwrap()
    );
    assert_eq!(out.verified, full.iter().flatten().count());
    out.verified
}

/// One region of the pattern matrix: `(kind, gap class, jitter, threads)`.
type RegionSpec = (u8, u8, u64, usize);

/// Lays the regions out from `BASE + 0x1000`, each at a gap from the
/// previous region's start picked by its gap class: inside one cluster,
/// straddling the cluster cut, or far apart. Returns the events (threads
/// interleaved under a seeded schedule) and each region's start.
fn pattern_matrix_trace(
    specs: &[RegionSpec],
    per_thread: usize,
    seed: u64,
) -> (Vec<Access>, Vec<u64>) {
    let max_threads = specs.iter().map(|s| s.3).max().unwrap_or(1);
    let mut merged = Script::new(max_threads);
    let mut starts = Vec::with_capacity(specs.len());
    let mut at = BASE + 0x1000;
    for (i, &(kind, gap, jitter, threads)) in specs.iter().enumerate() {
        if i > 0 {
            at += match gap % 3 {
                0 => 256 + jitter * 8,
                1 => 512 + jitter * 16,
                _ => 0x4000 + jitter * 8,
            };
        }
        starts.push(at);
        let pattern = match kind % 5 {
            0 => Pattern::PingPong { threads, base: at },
            1 => Pattern::TrueShare { threads, addr: at },
            2 => Pattern::Striped {
                threads,
                base: at,
                stride: 72,
            },
            3 => Pattern::ReaderWriter { threads, base: at },
            _ => Pattern::RandomMix {
                threads,
                base: at,
                lines: 4,
                write_pct: 50,
                seed,
            },
        };
        let script = generate(pattern, per_thread);
        for (t, ops) in script.per_thread.iter().enumerate() {
            for &a in ops {
                merged.push(t, a);
            }
        }
    }
    (interleave(&merged, &Schedule::Seeded(seed)), starts)
}

fn whatif_cfg(max_scale_log2: u32) -> AnalyzeConfig {
    let mut det = DetectorConfig::sensitive();
    det.max_scale_log2 = max_scale_log2;
    AnalyzeConfig::new(det, 2)
}

fn heap_object(start: u64, end: u64) -> TraceMeta {
    TraceMeta {
        globals: Vec::new(),
        objects: vec![MetaObject {
            start,
            size: end - start,
            owner: 0,
            frames: Vec::new(),
        }],
        app_live_bytes: end - start,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cluster-scoped replay annotates every finding byte-identically to
    /// whole-trace replay: over the pattern matrix on multi-cluster
    /// layouts, with and without an attributed object spanning regions,
    /// for suggested fixes and for arbitrary user edits — pads that are
    /// not line multiples, and edits in a different cluster from the
    /// finding or between clusters.
    #[test]
    fn prop_scoped_replay_matches_full_replay(
        specs in proptest::collection::vec((0u8..5, 0u8..3, 0u64..64, 2usize..5), 1..5),
        per_thread in 30usize..120,
        seed in any::<u64>(),
        scale in 1u32..3,
        with_object in any::<bool>(),
        object in (0usize..4, 0u64..72, 0usize..4, 0u64..72),
        suggested in any::<bool>(),
        edits in proptest::collection::vec((0usize..4, 0u64..2048, 1u64..1200), 0..3),
    ) {
        let (events, starts) = pattern_matrix_trace(&specs, per_thread, seed);
        let meta = with_object.then(|| {
            let (a, a_off, b, b_off) = object;
            let a = starts[a % starts.len()] + a_off;
            let b = starts[b % starts.len()] + b_off;
            heap_object(a.min(b), a.max(b) + 8)
        });
        let fix = if suggested {
            WhatIfFix::Suggested
        } else {
            WhatIfFix::Edits(
                edits
                    .iter()
                    .map(|&(r, off, pad)| LayoutEdit { at: starts[r % starts.len()] + off, pad })
                    .collect(),
            )
        };
        assert_scoped_matches_full(&events, meta.as_ref(), &whatif_cfg(scale), &fix);
    }
}

/// Ping-pong between threads 0 and 1 on the words at `a` and `a + 8`.
fn ping_pong(a: u64, i: u64) -> Access {
    Access::write(ThreadId((i % 2) as u16), a + (i % 2) * 8, 8)
}

#[test]
fn scoped_replay_closes_over_an_object_spanning_two_clusters() {
    // A recorded heap object starts mid-line in one cluster and ends in
    // another, far away. The line holding its start is attributed to no
    // object (its hottest word lies before the object), yet its finding
    // overlaps the object — whose own finding sums the far cluster's
    // invalidations. Replaying the line's cluster alone would miss them.
    let (a, b) = (BASE + 0x1000, BASE + 0x9000);
    let events: Vec<Access> = (0..2000u64)
        .map(|i| match i % 8 {
            2 => Access::read(ThreadId(2), a + 40, 8),
            6 | 7 => ping_pong(b, i),
            _ => ping_pong(a, i),
        })
        .collect();
    let meta = heap_object(a + 32, b + 16);
    for scale in [1, 2] {
        let cfg = whatif_cfg(scale);
        let report = analyze_events(&events, BASE, SIZE, Some(&meta), &cfg).report;
        let line = report
            .findings
            .iter()
            .find(|f| f.object.start == a && f.object.end == a + 64)
            .expect("the object's first line carries a line-attributed finding");
        assert!(line.invalidations > 0);
        assert!(report
            .findings
            .iter()
            .any(|f| f.object.start == a + 32 && f.object.end == b + 16));
        for fix in [
            WhatIfFix::Suggested,
            WhatIfFix::Edits(vec![LayoutEdit {
                at: a + 8,
                pad: 512,
            }]),
            WhatIfFix::Edits(vec![LayoutEdit {
                at: b + 8,
                pad: 100,
            }]),
        ] {
            let n = assert_scoped_matches_full(&events, Some(&meta), &cfg, &fix);
            assert!(n >= 2, "{fix:?}");
        }
    }
}

#[test]
fn scoped_replay_reaches_a_cluster_sharing_a_line_with_the_object() {
    // A second cluster starts 8 bytes past the end of a large object whose
    // only hot words sit at its start, thousands of bytes away. The line
    // holding the object's tail also holds that cluster: its finding and
    // its MESI traffic count towards the object at every geometry.
    let a = BASE + 0x1000;
    let tail = a + 0xfc8;
    let events: Vec<Access> = (0..1200u64)
        .map(|i| {
            if i % 2 == 0 {
                ping_pong(a, i / 2)
            } else {
                ping_pong(tail + 8, i / 2)
            }
        })
        .collect();
    let meta = heap_object(a, tail);
    let cfg = whatif_cfg(1);
    for fix in [
        WhatIfFix::Suggested,
        WhatIfFix::Edits(vec![LayoutEdit {
            at: a + 8,
            pad: 700,
        }]),
        WhatIfFix::Edits(Vec::new()),
    ] {
        let n = assert_scoped_matches_full(&events, Some(&meta), &cfg, &fix);
        assert!(n >= 1, "{fix:?}");
    }
}

#[test]
fn scoped_replay_matches_at_the_edges_of_the_traced_range() {
    // Heavy traffic just outside both ends of the traced range comes
    // first — including accesses straddling each end — and only then
    // ping-pong on the range's first and last words. The whole-trace
    // detector ignores the out-of-range parts, so they must not promote
    // the in-range lines early in the scoped replay either.
    let end = BASE + SIZE;
    let mut events = Vec::new();
    for i in 0..400u64 {
        let t = ThreadId((i % 2) as u16);
        events.push(match i % 4 {
            0 => Access::write(t, end - 4, 8),
            1 => Access::write(t, end + 8 + (i % 2) * 8, 8),
            2 => Access::write(t, BASE - 4, 8),
            _ => Access::write(t, BASE - 24 + (i % 2) * 8, 8),
        });
    }
    for i in 0..600u64 {
        events.push(if i % 3 == 0 {
            ping_pong(BASE, i)
        } else {
            ping_pong(end - 16, i)
        });
    }
    let crossing = heap_object(end - 16, end + 64);
    for scale in [1, 2] {
        let cfg = whatif_cfg(scale);
        for meta in [None, Some(&crossing)] {
            for fix in [
                WhatIfFix::Suggested,
                WhatIfFix::Edits(vec![LayoutEdit {
                    at: end - 8,
                    pad: 40,
                }]),
                WhatIfFix::Edits(vec![LayoutEdit {
                    at: BASE + 8,
                    pad: 300,
                }]),
            ] {
                let n = assert_scoped_matches_full(&events, meta, &cfg, &fix);
                assert!(n >= 2, "{fix:?}");
            }
        }
    }
}
