//! Sharded offline analysis: partition cache lines across worker threads,
//! run an independent detector per shard, merge into one report.
//!
//! ## Why line sharding is sound
//!
//! Every piece of detector state — per-line access histories, word
//! histograms, invalidation counts, prediction units — is keyed by cache
//! line, and an access to line `L` can only read or write state for lines
//! within `r = (1 << max_scale_log2) − 1` of `L` (neighbour promotion,
//! the virtual-line analysis window, and unit attachment all reach at most
//! `r`). Two accesses whose lines are more than `2r` apart therefore share
//! no state at all. We cluster the touched lines so that consecutive lines
//! stay together when their gap is ≤ `max(2r, 1)` (the `max(…, 1)` keeps
//! the two lines of a straddling access in one cluster), assign whole
//! clusters to shards, and route each event to exactly one shard. Within a
//! shard, events arrive in the original stream order; since clusters on
//! different shards are non-interacting, each shard's detector state is
//! *identical* to the state the sequential detector would hold for those
//! lines. [`predator_core::build_report_merged`] then re-sorts the
//! per-shard snapshots into global line order, reproducing the sequential
//! report byte for byte.
//!
//! Sampling is the one global the argument must cover: the skip counter is
//! kept **per tracked line**, not per detector, so it too shards cleanly.

use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;
use std::sync::mpsc::sync_channel;

use predator_core::{build_report_merged, Attribution, DetectorConfig, Predator, Report};
use predator_sim::Access;

use crate::format::{TraceMeta, MAGIC};
use crate::jsonl::JsonlIter;
use crate::reader::{LossStats, TraceError, TraceReader};

/// Events per batch handed from the dispatcher to a shard worker.
pub const DISPATCH_BATCH: usize = 4096;
/// Bounded depth of each shard's batch queue.
const CHANNEL_DEPTH: usize = 8;

/// Knobs for one offline analysis run.
#[derive(Debug, Clone)]
pub struct AnalyzeConfig {
    /// Detector configuration every shard runs with.
    pub det: DetectorConfig,
    /// Worker shard count (≥ 1; clusters may cap the useful number).
    pub shards: usize,
    /// Events per dispatched batch.
    pub batch: usize,
}

impl AnalyzeConfig {
    /// Detector config + shard count, default batching.
    pub fn new(det: DetectorConfig, shards: usize) -> Self {
        AnalyzeConfig {
            det,
            shards: shards.max(1),
            batch: DISPATCH_BATCH,
        }
    }
}

/// Result of an offline analysis run.
#[derive(Debug)]
pub struct AnalyzeOutcome {
    /// The merged report — identical to what a sequential replay produces.
    pub report: Report,
    /// Events delivered to shard detectors.
    pub events: u64,
    /// Shards that actually received work.
    pub shards_used: usize,
    /// Line clusters found in the trace.
    pub clusters: usize,
    /// Trace damage encountered while reading (zeros for JSONL).
    pub loss: LossStats,
    /// Attribution metadata was present and applied.
    pub meta_applied: bool,
}

/// Maps every touched cache line to its shard.
#[derive(Debug)]
pub struct ShardPlan {
    assignment: HashMap<u64, usize>,
    /// Non-interacting line clusters discovered.
    pub clusters: usize,
    /// Shards holding at least one cluster.
    pub shards_used: usize,
}

impl ShardPlan {
    /// Builds a plan from per-line event counts.
    ///
    /// Lines whose gap is ≤ `link` join one cluster; clusters are assigned
    /// longest-processing-time-first to the least-loaded shard, which keeps
    /// the heaviest cluster from sharing a shard while lighter ones exist.
    pub fn build(counts: &BTreeMap<u64, u64>, shards: usize, link: u64) -> ShardPlan {
        let shards = shards.max(1);
        // Pass over sorted lines, cutting clusters at gaps > link.
        let mut clusters: Vec<(Vec<u64>, u64)> = Vec::new();
        let mut prev: Option<u64> = None;
        for (&line, &n) in counts {
            match prev {
                Some(p) if line - p <= link => {
                    let last = clusters.last_mut().unwrap();
                    last.0.push(line);
                    last.1 += n;
                }
                _ => clusters.push((vec![line], n)),
            }
            prev = Some(line);
        }
        let n_clusters = clusters.len();
        // LPT assignment: heaviest first onto the lightest shard. Sort is
        // stable with the line-order tiebreak already implicit, so the plan
        // is deterministic (not that correctness needs it — any cluster →
        // shard map yields the same merged report).
        let mut order: Vec<usize> = (0..n_clusters).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(clusters[i].1));
        let mut load = vec![0u64; shards];
        let mut assignment = HashMap::new();
        for i in order {
            let shard = (0..shards).min_by_key(|&s| (load[s], s)).unwrap();
            load[shard] += clusters[i].1;
            for &line in &clusters[i].0 {
                assignment.insert(line, shard);
            }
        }
        let shards_used = load.iter().filter(|&&w| w > 0).count().max(1);
        ShardPlan {
            assignment,
            clusters: n_clusters,
            shards_used,
        }
    }

    /// Shard owning `line` (0 for lines never seen in pass 1 — harmless,
    /// the detector ignores out-of-range addresses anyway).
    #[inline]
    pub fn shard_of(&self, line: u64) -> usize {
        self.assignment.get(&line).copied().unwrap_or(0)
    }
}

/// Cluster link distance for a detector config: `max(2r, 1)` with
/// `r = (1 << max_scale_log2) − 1` (see the module doc).
pub fn link_gap(det: &DetectorConfig) -> u64 {
    let r = (1u64 << det.max_scale_log2) - 1;
    (2 * r).max(1)
}

/// Accumulates per-line event counts for planning (pass 1).
pub fn count_lines<I: Iterator<Item = Access>>(
    events: I,
    det: &DetectorConfig,
) -> BTreeMap<u64, u64> {
    let _sp = predator_obs::span("trace_scan");
    let geom = det.geometry;
    let mut counts = BTreeMap::new();
    for a in events {
        for line in geom.lines_touched(a.addr, a.size) {
            *counts.entry(line).or_insert(0u64) += 1;
        }
    }
    counts
}

/// Pass 2: routes `events` to per-shard detectors and merges the results.
/// Returns the merged report, the delivered event count, and the plan.
pub fn run_sharded<I: Iterator<Item = Access>>(
    counts: &BTreeMap<u64, u64>,
    events: &mut I,
    base: u64,
    size: u64,
    meta: Option<&TraceMeta>,
    cfg: &AnalyzeConfig,
) -> (Report, u64, ShardPlan) {
    let plan = ShardPlan::build(counts, cfg.shards, link_gap(&cfg.det));
    // LPT fills shards 0..clusters first, so with fewer clusters than
    // shards the rest would stay idle: don't build their detectors.
    let n = cfg.shards.min(plan.clusters).max(1);
    let geom = cfg.det.geometry;
    let batch = cfg.batch.max(1);
    let rts: Vec<Predator> = (0..n).map(|_| Predator::new(cfg.det, base, size)).collect();
    let mut delivered = 0u64;
    std::thread::scope(|s| {
        let mut txs = Vec::with_capacity(n);
        for rt in &rts {
            let (tx, rx) = sync_channel::<Vec<Access>>(CHANNEL_DEPTH);
            txs.push(tx);
            s.spawn(move || {
                let _sp = predator_obs::span("shard_analyze");
                for batch in rx {
                    for a in batch {
                        rt.handle_access(a.tid, a.addr, a.size, a.kind);
                    }
                }
            });
        }
        let _sp = predator_obs::span("shard_dispatch");
        let mut bufs: Vec<Vec<Access>> = (0..n).map(|_| Vec::with_capacity(batch)).collect();
        for a in events {
            let shard = plan.shard_of(geom.line_index(a.addr));
            let buf = &mut bufs[shard];
            buf.push(a);
            delivered += 1;
            if buf.len() >= batch {
                let full = std::mem::replace(buf, Vec::with_capacity(batch));
                // A send only fails if the worker panicked; propagate.
                txs[shard].send(full).expect("shard worker died");
            }
        }
        for (shard, buf) in bufs.into_iter().enumerate() {
            if !buf.is_empty() {
                txs[shard].send(buf).expect("shard worker died");
            }
        }
        // Dropping the senders ends each worker's loop; scope joins them.
    });
    if let Some(m) = meta {
        m.apply_globals(&rts[0]);
    }
    let dir = meta.map(TraceMeta::directory);
    let attr = match dir.as_ref() {
        Some(d) => Attribution::Directory(d),
        None => Attribution::None,
    };
    let refs: Vec<&Predator> = rts.iter().collect();
    let report = build_report_merged(&refs, attr);
    (report, delivered, plan)
}

/// Analyses an in-memory event slice (both passes over the slice).
pub fn analyze_events(
    events: &[Access],
    base: u64,
    size: u64,
    meta: Option<&TraceMeta>,
    cfg: &AnalyzeConfig,
) -> AnalyzeOutcome {
    let counts = count_lines(events.iter().copied(), &cfg.det);
    let mut pass2 = events.iter().copied();
    let (report, delivered, plan) = run_sharded(&counts, &mut pass2, base, size, meta, cfg);
    AnalyzeOutcome {
        report,
        events: delivered,
        shards_used: plan.shards_used,
        clusters: plan.clusters,
        loss: LossStats::default(),
        meta_applied: meta.is_some(),
    }
}

/// Trace file encodings accepted by [`analyze_file`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Binary `.ptrace`.
    Ptrace,
    /// JSON lines.
    Jsonl,
}

/// Decides a file's format from its leading bytes (`.ptrace` magic or not).
pub fn sniff_format(path: &Path) -> Result<TraceFormat, String> {
    let mut f = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut head = [0u8; 6];
    let mut got = 0;
    while got < head.len() {
        match f.read(&mut head[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) => return Err(format!("{}: {e}", path.display())),
        }
    }
    Ok(if got == 6 && head == *MAGIC {
        TraceFormat::Ptrace
    } else {
        TraceFormat::Jsonl
    })
}

/// Offline analysis of a trace file (`.ptrace` or JSONL, sniffed).
///
/// For `.ptrace` the traced address range and attribution metadata come
/// from the file itself; `fallback_base`/`fallback_size` cover JSONL,
/// which carries neither.
pub fn analyze_file(
    path: &Path,
    cfg: &AnalyzeConfig,
    fallback_base: u64,
    fallback_size: u64,
) -> Result<AnalyzeOutcome, String> {
    match sniff_format(path)? {
        TraceFormat::Ptrace => analyze_ptrace(path, cfg),
        TraceFormat::Jsonl => analyze_jsonl(path, cfg, fallback_base, fallback_size),
    }
}

fn open_ptrace(path: &Path) -> Result<TraceReader<BufReader<File>>, String> {
    let f = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    TraceReader::new(BufReader::new(f)).map_err(|e: TraceError| format!("{}: {e}", path.display()))
}

fn analyze_ptrace(path: &Path, cfg: &AnalyzeConfig) -> Result<AnalyzeOutcome, String> {
    let mut pass1 = open_ptrace(path)?;
    let counts = count_lines(&mut pass1, &cfg.det);
    pass1.drain();
    let meta = pass1.take_meta();
    let (base, size) = (pass1.base(), pass1.size());
    // Recycle pass 1's window and queue for pass 2 instead of reallocating.
    let f = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut pass2 = pass1
        .reuse(BufReader::new(f))
        .map_err(|e: TraceError| format!("{}: {e}", path.display()))?;
    let (report, delivered, plan) =
        run_sharded(&counts, &mut pass2, base, size, meta.as_ref(), cfg);
    pass2.drain();
    Ok(AnalyzeOutcome {
        report,
        events: delivered,
        shards_used: plan.shards_used,
        clusters: plan.clusters,
        loss: pass2.stats(),
        meta_applied: meta.is_some(),
    })
}

fn analyze_jsonl(
    path: &Path,
    cfg: &AnalyzeConfig,
    base: u64,
    size: u64,
) -> Result<AnalyzeOutcome, String> {
    let open = || -> Result<_, String> {
        let f = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(JsonlIter::new(BufReader::new(f)))
    };
    let mut bad: Option<String> = None;
    let counts = count_lines(
        open()?.map_while(|r| match r {
            Ok(a) => Some(a),
            Err(e) => {
                bad = Some(e.to_string());
                None
            }
        }),
        &cfg.det,
    );
    if let Some(e) = bad {
        return Err(format!("{}: {e}", path.display()));
    }
    let mut pass2 = open()?.map_while(Result::ok);
    let (report, delivered, plan) = run_sharded(&counts, &mut pass2, base, size, None, cfg);
    Ok(AnalyzeOutcome {
        report,
        events: delivered,
        shards_used: plan.shards_used,
        clusters: plan.clusters,
        loss: LossStats::default(),
        meta_applied: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use predator_core::build_report;
    use predator_sim::ThreadId;

    /// Two threads ping-pong on adjacent words in several well-separated
    /// regions — multiple clusters, real false sharing in each.
    fn multi_cluster_trace(regions: u64, per_region: u64, base: u64) -> Vec<Access> {
        let mut out = Vec::new();
        for i in 0..per_region {
            for r in 0..regions {
                let rbase = base + r * 0x10000;
                out.push(Access::write(
                    ThreadId((i % 2) as u16),
                    rbase + (i % 2) * 8,
                    8,
                ));
            }
        }
        out
    }

    fn sequential_report(events: &[Access], base: u64, size: u64, det: &DetectorConfig) -> Report {
        let rt = Predator::new(*det, base, size);
        for a in events {
            rt.handle_access(a.tid, a.addr, a.size, a.kind);
        }
        build_report(&rt, None)
    }

    /// Findings + run stats, serialised. The `obs` section is excluded: it
    /// snapshots process-global telemetry, which accumulates across runs.
    fn essence(r: &Report) -> String {
        format!(
            "{}\n{}",
            serde_json::to_string(&r.findings).unwrap(),
            serde_json::to_string(&r.stats).unwrap()
        )
    }

    #[test]
    fn plan_separates_distant_clusters_and_links_near_lines() {
        let mut counts = BTreeMap::new();
        counts.insert(100u64, 10u64);
        counts.insert(101, 5); // gap 1 ≤ link → same cluster
        counts.insert(200, 20); // far away → new cluster
        counts.insert(201, 1);
        let plan = ShardPlan::build(&counts, 2, 2);
        assert_eq!(plan.clusters, 2);
        assert_eq!(plan.shard_of(100), plan.shard_of(101));
        assert_eq!(plan.shard_of(200), plan.shard_of(201));
        assert_ne!(plan.shard_of(100), plan.shard_of(200));
        assert_eq!(plan.shards_used, 2);
    }

    #[test]
    fn single_cluster_uses_one_shard() {
        let mut counts = BTreeMap::new();
        counts.insert(7u64, 100u64);
        counts.insert(8, 100);
        let plan = ShardPlan::build(&counts, 8, 2);
        assert_eq!(plan.clusters, 1);
        assert_eq!(plan.shards_used, 1);
    }

    /// `run_sharded` builds only `min(shards, clusters)` detectors, so the
    /// plan must never route a line past them.
    #[test]
    fn fewer_clusters_than_shards_fill_the_low_shards() {
        let mut counts = BTreeMap::new();
        for (i, line) in [10u64, 100, 1000].into_iter().enumerate() {
            counts.insert(line, 1 + i as u64);
        }
        let plan = ShardPlan::build(&counts, 8, 2);
        assert_eq!(plan.clusters, 3);
        for line in counts.keys() {
            assert!(plan.shard_of(*line) < plan.clusters, "line {line}");
        }
    }

    #[test]
    fn sharded_matches_sequential_exactly() {
        let base = 0x4000_0000u64;
        let size = 1u64 << 20;
        let events = multi_cluster_trace(6, 400, base);
        let det = DetectorConfig::sensitive();
        let seq = sequential_report(&events, base, size, &det);
        assert!(!seq.findings.is_empty(), "workload must produce findings");
        for shards in [1usize, 2, 4, 8] {
            let out = analyze_events(&events, base, size, None, &AnalyzeConfig::new(det, shards));
            assert_eq!(out.events, events.len() as u64);
            assert_eq!(out.clusters, 6);
            assert_eq!(
                essence(&out.report),
                essence(&seq),
                "shards={shards} diverged from sequential"
            );
        }
    }

    #[test]
    fn sharded_matches_sequential_with_sampling_and_prediction() {
        let base = 0x4000_0000u64;
        let size = 1u64 << 20;
        let events = multi_cluster_trace(4, 2000, base);
        let det = DetectorConfig::paper(); // sampling + prediction on
        let seq = sequential_report(&events, base, size, &det);
        let out = analyze_events(&events, base, size, None, &AnalyzeConfig::new(det, 4));
        assert_eq!(essence(&out.report), essence(&seq));
    }

    #[test]
    fn straddling_access_stays_in_one_shard() {
        // An access crossing a line boundary links the two lines even at
        // the minimum link distance of 1.
        let geom = predator_sim::CacheGeometry::new(64);
        let a = Access::write(ThreadId(0), 0x1000 - 4, 8); // straddles 2 lines
        let mut counts = BTreeMap::new();
        for line in geom.lines_touched(a.addr, a.size) {
            counts.insert(line, 1u64);
        }
        let plan = ShardPlan::build(&counts, 2, 1);
        let lines: Vec<u64> = counts.keys().copied().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(plan.shard_of(lines[0]), plan.shard_of(lines[1]));
    }
}
