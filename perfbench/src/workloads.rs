//! The four workloads: what a job calls, and how its output is checked.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use predator_bench::eval_config;
use predator_core::{
    build_report, lower_fix, suggest_fixes, CacheGeometry, DetectorConfig, Predator, Report,
    Session,
};
use predator_policy::{evaluate_report, to_sarif_string, PolicyConfig};
use predator_sim::mesi::MesiSim;
use predator_sim::Access;
use predator_trace::{
    analyze_events, analyze_file, whatif_events, AddressRemap, AnalyzeConfig, AnalyzeOutcome,
    TraceMeta, TraceReader, TraceSink, WhatIfFix, WriteSummary,
};
use predator_workloads::{all, by_name, Variant, Workload, WorkloadConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::gen::{self, Region};
use crate::harness::{median, Bench, Ctx, Facts, Probes};
use crate::oracle::{self, Verdict};
use crate::sys;
use crate::tracer::Tracer;

/// Per-thread iterations of a `live-suite` job (the workloads' default).
pub const LIVE_ITERS: u64 = 20_000;
/// Per-thread iterations of a `ci-record-analyze` job.
pub const RECORD_ITERS: u64 = 10_000;
/// Per-thread iterations of the warm-up runs in set-up.
const WARMUP_ITERS: u64 = 1_000;
/// Record-and-analyze jobs `ci-record-analyze` warms up with.
const WARMUP_JOBS: usize = 7;
/// Worker threads of every paper workload (the workloads' default).
const THREADS: usize = 4;

/// The workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = [
    "live-suite",
    "ci-record-analyze",
    "analyze-clusters",
    "whatif-replay",
];

/// One paper workload at one layout.
struct PaperJob {
    workload: Box<dyn Workload>,
    cfg: WorkloadConfig,
}

/// The 21 paper workloads in a seeded order; each at `variants` in turn.
fn paper_jobs(seed: u64, iters: u64, variants: &[Variant]) -> Vec<PaperJob> {
    let mut names: Vec<&str> = all().iter().map(|w| w.name()).collect();
    gen::shuffle(&mut names, &mut SmallRng::seed_from_u64(seed));
    let mut jobs = Vec::with_capacity(names.len() * variants.len());
    for name in names {
        for &variant in variants {
            jobs.push(PaperJob {
                workload: by_name(name).expect("registry name resolves"),
                cfg: WorkloadConfig {
                    threads: THREADS,
                    iters,
                    seed,
                    variant,
                },
            });
        }
    }
    jobs
}

/// Runs every paper workload once, small, at the evaluation configuration.
fn warm_up(seed: u64) {
    for job in paper_jobs(seed, WARMUP_ITERS, &[Variant::Broken]) {
        let session = Session::with_config(eval_config());
        job.workload.run_tracked(&session, &job.cfg);
        std::hint::black_box(session.report());
    }
}

/// Times a decode-only pass over a `.ptrace`: `(ns, events)`.
fn decode_pass(path: &Path) -> Result<(u64, u64), String> {
    let start = Instant::now();
    let f = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut reader = TraceReader::new(BufReader::new(f)).map_err(|e| e.to_string())?;
    let events = reader.by_ref().count() as u64;
    reader.drain();
    Ok((start.elapsed().as_nanos() as u64, events))
}

/// `analyze_file` with the process CPU it burned: `(outcome, cpu_s, wall_s)`.
fn timed_analyze(path: &Path, cfg: &AnalyzeConfig) -> Result<(AnalyzeOutcome, f64, f64), String> {
    let cpu0 = sys::cpu_s();
    let start = Instant::now();
    let out = analyze_file(path, cfg, 0, 0)?;
    Ok((out, sys::cpu_s() - cpu0, start.elapsed().as_secs_f64()))
}

/// Trace damage or a short read fails a job.
fn check_loss(out: &AnalyzeOutcome, expected_events: u64) -> Verdict {
    if out.loss.any() {
        return Err(format!("trace loss: {:?}", out.loss));
    }
    if out.events != expected_events {
        return Err(format!(
            "analyzed {} events, the trace holds {expected_events}",
            out.events
        ));
    }
    Ok(())
}

fn analyze_facts(out: &AnalyzeOutcome, cpu_s: f64, wall_s: f64) -> Facts {
    Facts {
        clusters: out.clusters as f64,
        shards_used: out.shards_used as f64,
        records_lost: out.loss.records_lost as f64,
        analyze_cpu_s: cpu_s,
        analyze_wall_s: wall_s,
        ..Facts::default()
    }
}

// ---------------------------------------------------------------- live-suite

/// `live-suite`: each of the 21 paper workloads, broken then fixed, run
/// tracked in-process at the evaluation configuration.
pub struct LiveSuite {
    jobs: Vec<PaperJob>,
    policy: PolicyConfig,
    /// Accesses of each job, from the first traced rotation.
    accesses: Vec<u64>,
}

/// A `live-suite` job's output.
pub struct LiveOut {
    report: Report,
    accesses: u64,
    metadata_bytes: usize,
}

impl Bench for LiveSuite {
    type Out = LiveOut;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        warm_up(ctx.seed);
        let jobs = paper_jobs(ctx.seed, LIVE_ITERS, &[Variant::Broken, Variant::Fixed]);
        Ok(LiveSuite {
            accesses: vec![0; jobs.len()],
            jobs,
            policy: PolicyConfig::default(),
        })
    }

    fn rotation(&self) -> usize {
        self.jobs.len()
    }

    fn run(&mut self, i: usize, tr: &mut Tracer) -> Result<LiveOut, String> {
        let job = &self.jobs[i];
        let session = Session::with_config(eval_config());
        tr.span("workloads.run_tracked", |_| {
            job.workload.run_tracked(&session, &job.cfg)
        });
        let report = tr.span("core.report", |_| session.report());
        let eval = tr.span("policy.evaluate", |_| {
            evaluate_report(&report, &self.policy)
        });
        std::hint::black_box(eval);
        Ok(LiveOut {
            report,
            accesses: session.runtime().events(),
            metadata_bytes: session.runtime().metadata_bytes(),
        })
    }

    fn check(&self, i: usize, out: &LiveOut) -> Verdict {
        let job = &self.jobs[i];
        oracle::paper_workload(job.workload.expectation(), job.cfg.variant, &out.report)
            .map_err(|e| format!("{}: {e}", job.workload.name()))
    }

    fn events(&self, out: &LiveOut) -> u64 {
        out.accesses
    }

    fn facts(&self, out: &LiveOut) -> Facts {
        Facts {
            metadata_bytes: out.metadata_bytes as f64,
            ..Facts::default()
        }
    }

    fn probe_job(&mut self, i: usize, out: &LiveOut, _probes: &mut Probes) {
        self.accesses[i] = out.accesses;
    }

    /// Fig. 7's overhead per access: the traced `run_tracked` time at the
    /// evaluation configuration minus the same run with the detector off.
    fn probe_end(&mut self, run_tracked_ns: &[(usize, u64)], probes: &mut Probes) {
        let mut detect_ns = 0.0;
        for (i, job) in self.jobs.iter().enumerate() {
            let mut on: Vec<f64> = run_tracked_ns
                .iter()
                .filter(|(idx, _)| *idx == i)
                .map(|(_, ns)| *ns as f64)
                .collect();
            let off = {
                let session = Session::with_config(DetectorConfig::disabled());
                let start = Instant::now();
                job.workload.run_tracked(&session, &job.cfg);
                start.elapsed().as_nanos() as f64
            };
            detect_ns += median(&mut on) - off;
        }
        let accesses: u64 = self.accesses.iter().sum();
        probes.detect_ns_per_access = detect_ns / accesses.max(1) as f64;
    }
}

// --------------------------------------------------------- ci-record-analyze

/// `ci-record-analyze`: record a broken paper workload to a `.ptrace`
/// (detection off, trace tap on, as `predator record` does), analyze it
/// sharded, evaluate the policy and render SARIF.
pub struct CiRecordAnalyze {
    jobs: Vec<PaperJob>,
    path: PathBuf,
    analyze: AnalyzeConfig,
    policy: PolicyConfig,
    /// Decode-only passes over the first traced rotation: (ns, events).
    decoded: (u64, u64),
}

/// A `ci-record-analyze` job's output.
pub struct CiOut {
    written: WriteSummary,
    analyzed: AnalyzeOutcome,
    analyze_cpu_s: f64,
    analyze_wall_s: f64,
    sarif_bytes: usize,
}

fn record(job: &PaperJob, path: &Path, tr: &mut Tracer) -> Result<WriteSummary, String> {
    let mut det = eval_config();
    det.enabled = false;
    let session = Session::with_config(det);
    let file = File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let sink = Arc::new(
        TraceSink::create(
            BufWriter::new(file),
            session.space().base(),
            session.space().size(),
        )
        .map_err(|e| e.to_string())?,
    );
    session.runtime().install_tap(sink.clone())?;
    tr.span("trace.record", |tr| {
        tr.span("workloads.run_tracked", |_| {
            job.workload.run_tracked(&session, &job.cfg)
        });
        let meta = TraceMeta::capture(session.runtime(), session.heap());
        sink.finish(&meta).map_err(|e| e.to_string())
    })
}

impl Bench for CiRecordAnalyze {
    type Out = CiOut;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        std::fs::create_dir_all(&ctx.work).map_err(|e| format!("{}: {e}", ctx.work.display()))?;
        let mut bench = CiRecordAnalyze {
            jobs: paper_jobs(ctx.seed, WARMUP_ITERS, &[Variant::Broken]),
            path: ctx.work.join("record.ptrace"),
            analyze: AnalyzeConfig::new(eval_config(), ctx.shards),
            policy: PolicyConfig::default(),
            decoded: (0, 0),
        };
        let mut off = Tracer::new();
        for i in 0..WARMUP_JOBS {
            std::hint::black_box(bench.run(i, &mut off)?);
        }
        bench.jobs = paper_jobs(ctx.seed, RECORD_ITERS, &[Variant::Broken]);
        Ok(bench)
    }

    fn rotation(&self) -> usize {
        self.jobs.len()
    }

    fn run(&mut self, i: usize, tr: &mut Tracer) -> Result<CiOut, String> {
        let written = record(&self.jobs[i], &self.path, tr)?;
        let (analyzed, cpu, wall) = tr.span("trace.analyze", |_| {
            timed_analyze(&self.path, &self.analyze)
        })?;
        let eval = tr.span("policy.evaluate", |_| {
            evaluate_report(&analyzed.report, &self.policy)
        });
        let geom = self.analyze.det.geometry;
        let sarif = tr.span("policy.render", |_| {
            to_sarif_string(&analyzed.report, &eval, geom)
        });
        Ok(CiOut {
            written,
            analyzed,
            analyze_cpu_s: cpu,
            analyze_wall_s: wall,
            sarif_bytes: sarif.len(),
        })
    }

    fn check(&self, i: usize, out: &CiOut) -> Verdict {
        let job = &self.jobs[i];
        check_loss(&out.analyzed, out.written.events)?;
        if out.sarif_bytes == 0 {
            return Err("empty SARIF".into());
        }
        oracle::paper_workload(
            job.workload.expectation(),
            Variant::Broken,
            &out.analyzed.report,
        )
        .map_err(|e| format!("{}: {e}", job.workload.name()))
    }

    fn events(&self, out: &CiOut) -> u64 {
        out.written.events
    }

    fn facts(&self, out: &CiOut) -> Facts {
        Facts {
            written_bytes: out.written.bytes as f64,
            written_events: out.written.events as f64,
            render_bytes: out.sarif_bytes as f64,
            ..analyze_facts(&out.analyzed, out.analyze_cpu_s, out.analyze_wall_s)
        }
    }

    /// Decodes the trace the job just analyzed, while it is still on disk.
    fn probe_job(&mut self, _i: usize, _out: &CiOut, _probes: &mut Probes) {
        if let Ok((ns, events)) = decode_pass(&self.path) {
            self.decoded.0 += ns;
            self.decoded.1 += events;
        }
    }

    fn probe_end(&mut self, _: &[(usize, u64)], probes: &mut Probes) {
        probes.decode_ns_per_event = self.decoded.0 as f64 / self.decoded.1.max(1) as f64;
    }

    fn cleanup(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

// ---------------------------------------------------------- analyze-clusters

/// `analyze-clusters`: one seeded many-cluster `.ptrace`, analyzed sharded
/// by every job.
pub struct AnalyzeClusters {
    regions: Vec<Region>,
    path: PathBuf,
    written: WriteSummary,
    reference: Report,
    analyze: AnalyzeConfig,
    policy: PolicyConfig,
}

/// An `analyze-clusters` job's output.
pub struct ClustersOut {
    analyzed: AnalyzeOutcome,
    cpu_s: f64,
    wall_s: f64,
}

/// The sequential single-detector replay the sharded analyzer must equal.
fn sequential_report(events: &[Access], det: DetectorConfig) -> Report {
    let rt = Predator::new(det, gen::BASE, gen::SIZE);
    for a in events {
        rt.handle_access(a.tid, a.addr, a.size, a.kind);
    }
    build_report(&rt, None)
}

impl Bench for AnalyzeClusters {
    type Out = ClustersOut;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        std::fs::create_dir_all(&ctx.work).map_err(|e| format!("{}: {e}", ctx.work.display()))?;
        let trace = gen::generate_trace(&gen::CLUSTERS, ctx.seed);
        let path = ctx.work.join("clusters.ptrace");
        let file = File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let (written, w) = gen::write_ptrace(BufWriter::new(file), &trace.events)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        w.into_inner()
            .map_err(|e| e.to_string())?
            .sync_all()
            .map_err(|e| e.to_string())?;
        let analyze = AnalyzeConfig::new(eval_config(), ctx.shards);
        let reference = sequential_report(&trace.events, analyze.det);
        let mut bench = AnalyzeClusters {
            regions: trace.regions,
            path,
            written,
            reference,
            analyze,
            policy: PolicyConfig::default(),
        };
        drop(trace.events);
        let warm = bench.run(0, &mut Tracer::new())?;
        bench.check(0, &warm)?;
        Ok(bench)
    }

    fn rotation(&self) -> usize {
        1
    }

    fn run(&mut self, _i: usize, tr: &mut Tracer) -> Result<ClustersOut, String> {
        let (analyzed, cpu_s, wall_s) = tr.span("trace.analyze", |_| {
            timed_analyze(&self.path, &self.analyze)
        })?;
        let eval = tr.span("policy.evaluate", |_| {
            evaluate_report(&analyzed.report, &self.policy)
        });
        std::hint::black_box(eval);
        Ok(ClustersOut {
            analyzed,
            cpu_s,
            wall_s,
        })
    }

    fn check(&self, _i: usize, out: &ClustersOut) -> Verdict {
        check_loss(&out.analyzed, self.written.events)?;
        oracle::same_report(&out.analyzed.report, &self.reference)?;
        oracle::region_verdicts(&self.regions, &out.analyzed.report)
    }

    fn events(&self, out: &ClustersOut) -> u64 {
        out.analyzed.events
    }

    fn facts(&self, out: &ClustersOut) -> Facts {
        analyze_facts(&out.analyzed, out.cpu_s, out.wall_s)
    }

    fn setup_facts(&self) -> Facts {
        Facts {
            written_bytes: self.written.bytes as f64,
            written_events: self.written.events as f64,
            ..Facts::default()
        }
    }

    fn probe_end(&mut self, _: &[(usize, u64)], probes: &mut Probes) {
        let mut per_event: Vec<f64> = (0..3)
            .filter_map(|_| decode_pass(&self.path).ok())
            .map(|(ns, events)| ns as f64 / events.max(1) as f64)
            .collect();
        probes.decode_ns_per_event = median(&mut per_event);
    }

    fn cleanup(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

// ------------------------------------------------------------- whatif-replay

/// `whatif-replay`: verify every finding's suggested fix by replay over a
/// small seeded in-memory trace.
pub struct WhatIfReplay {
    regions: Vec<Region>,
    events: Vec<Access>,
    analyze: AnalyzeConfig,
    last_report: Option<Report>,
}

/// A `whatif-replay` job's output.
pub struct WhatIfOut {
    report: Report,
    events: u64,
}

impl Bench for WhatIfReplay {
    type Out = WhatIfOut;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let trace = gen::generate_trace(&gen::WHATIF, ctx.seed);
        let analyze = AnalyzeConfig::new(eval_config(), ctx.shards);
        let warm = analyze_events(&trace.events, gen::BASE, gen::SIZE, None, &analyze);
        oracle::region_verdicts(&trace.regions, &warm.report)?;
        Ok(WhatIfReplay {
            regions: trace.regions,
            events: trace.events,
            analyze,
            last_report: None,
        })
    }

    fn rotation(&self) -> usize {
        1
    }

    fn run(&mut self, _i: usize, tr: &mut Tracer) -> Result<WhatIfOut, String> {
        let out = tr.span("trace.whatif", |_| {
            whatif_events(
                &self.events,
                gen::BASE,
                gen::SIZE,
                None,
                &self.analyze,
                &WhatIfFix::Suggested,
            )
        });
        Ok(WhatIfOut {
            report: out.report,
            events: out.events,
        })
    }

    fn check(&self, _i: usize, out: &WhatIfOut) -> Verdict {
        if out.events != self.events.len() as u64 {
            return Err(format!(
                "replayed {} of {} events",
                out.events,
                self.events.len()
            ));
        }
        oracle::whatif(
            &self.regions,
            &out.report,
            CacheGeometry::PORTFOLIO_LINE_SIZES.len(),
        )
    }

    fn events(&self, out: &WhatIfOut) -> u64 {
        out.events
    }

    fn facts(&self, out: &WhatIfOut) -> Facts {
        Facts {
            replayed_events: out.events as f64,
            ..Facts::default()
        }
    }

    fn probe_job(&mut self, _i: usize, out: &WhatIfOut, _probes: &mut Probes) {
        self.last_report = Some(out.report.clone());
    }

    /// Remap and MESI cost per event, outside the replay: the remap of each
    /// finding's first suggested fix, and a MESI pass at each portfolio
    /// geometry.
    fn probe_end(&mut self, _: &[(usize, u64)], probes: &mut Probes) {
        let events = &self.events;
        if let Some(report) = &self.last_report {
            let mut seen = std::collections::HashSet::new();
            let (mut ns, mut n) = (0u128, 0usize);
            for (i, s) in suggest_fixes(report, self.analyze.det.geometry) {
                if !seen.insert(i) {
                    continue;
                }
                let remap = AddressRemap::from_edits(&lower_fix(&report.findings[i], &s));
                let start = Instant::now();
                std::hint::black_box(remap.apply_events(events));
                ns += start.elapsed().as_nanos();
                n += events.len();
            }
            probes.remap_ns_per_event = ns as f64 / n.max(1) as f64;
        }
        let cores = gen::THREADS;
        let start = Instant::now();
        for geom in CacheGeometry::portfolio() {
            let mut sim = MesiSim::new(cores, geom);
            for a in events {
                sim.access(a.tid, a.addr, a.size, a.kind);
            }
            std::hint::black_box(sim.stats());
        }
        let passes = CacheGeometry::PORTFOLIO_LINE_SIZES.len() * events.len();
        probes.mesi_ns_per_event = start.elapsed().as_nanos() as f64 / passes.max(1) as f64;
    }
}
