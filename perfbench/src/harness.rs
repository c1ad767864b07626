//! The closed loop every workload runs in, and the metrics it yields.
//!
//! One client in one process: a job starts only after the previous one
//! finished and was checked. A run times set-up [`SETUP_REPS`] times, then
//! runs whole *rotations* (every distinct job of the workload once, in a
//! seeded order) until `--seconds` have passed, so every run of a workload
//! times the same mix of jobs.
//!
//! The timing metrics are medians: over jobs for wall time, over rotations
//! for throughput and CPU per job. A burst of interference from outside
//! the process then moves a few samples, not the reported value. Peak
//! resident set comes from one more rotation after the timed loop, each
//! job started from a trimmed heap.
//!
//! The traced run alternates an untraced and a traced copy of each job.
//! Exact counts come from the traced copies of the first rotation, which
//! run the same sequence of work in every run of a seed; times come from
//! all traced copies.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::oracle::Verdict;
use crate::sys;
use crate::tracer::{ObsReading, Tracer};

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// What every workload's set-up receives.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Scratch directory for trace files.
    pub work: PathBuf,
    /// Analysis shards: the CPU count, as the CLI defaults to.
    pub shards: usize,
}

/// Per-job facts a layer reports about its own work (0 = not applicable).
#[derive(Debug, Clone, Copy, Default)]
pub struct Facts {
    /// `Predator::metadata_bytes()` after the job.
    pub metadata_bytes: f64,
    /// `.ptrace` bytes written.
    pub written_bytes: f64,
    /// Events written to the `.ptrace`.
    pub written_events: f64,
    /// Line clusters found by the analyzer.
    pub clusters: f64,
    /// Shards that received work.
    pub shards_used: f64,
    /// Trace records lost while reading.
    pub records_lost: f64,
    /// SARIF bytes rendered.
    pub render_bytes: f64,
    /// Process CPU seconds during `analyze_file`.
    pub analyze_cpu_s: f64,
    /// Wall seconds of `analyze_file`.
    pub analyze_wall_s: f64,
    /// Trace events a what-if job replayed.
    pub replayed_events: f64,
}

/// One-off measurements a traced run makes outside the timed jobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// Detector cost per access (live suite).
    pub detect_ns_per_access: f64,
    /// Decode-only `TraceReader` pass.
    pub decode_ns_per_event: f64,
    /// `AddressRemap::apply_events` per event.
    pub remap_ns_per_event: f64,
    /// `MesiSim::access` per event.
    pub mesi_ns_per_event: f64,
}

/// A workload: a set-up and a rotation of jobs.
pub trait Bench: Sized {
    /// What a job returns for checking.
    type Out;

    /// Builds the inputs, the oracle and warms up.
    fn setup(ctx: &Ctx) -> Result<Self, String>;

    /// Distinct jobs in a rotation.
    fn rotation(&self) -> usize;

    /// Runs job `i` of the rotation; only this is timed.
    fn run(&mut self, i: usize, tr: &mut Tracer) -> Result<Self::Out, String>;

    /// Checks job `i`'s output against the oracle.
    fn check(&self, i: usize, out: &Self::Out) -> Verdict;

    /// Events the job processed.
    fn events(&self, out: &Self::Out) -> u64;

    /// Facts for the per-layer metrics.
    fn facts(&self, out: &Self::Out) -> Facts;

    /// Facts of the set-up itself (e.g. a trace it wrote).
    fn setup_facts(&self) -> Facts {
        Facts::default()
    }

    /// Called after each traced job of the first rotation, untimed.
    fn probe_job(&mut self, _i: usize, _out: &Self::Out, _probes: &mut Probes) {}

    /// Called once after the traced loop, untimed. `run_tracked_ns` holds
    /// each traced job's `(rotation index, run_tracked ns)`.
    fn probe_end(&mut self, _run_tracked_ns: &[(usize, u64)], _probes: &mut Probes) {}

    /// Removes files the workload created.
    fn cleanup(&mut self) {}
}

/// One finished job.
#[derive(Debug, Clone)]
pub struct Job {
    /// Rotation index.
    pub idx: usize,
    /// Wall time, ns.
    pub wall_ns: u64,
    /// Events processed (0 on failure).
    pub events: u64,
    /// Peak resident set during the job, MiB.
    pub peak_rss_mb: f64,
    /// Failure, if any.
    pub error: Option<String>,
    /// Layer facts (traced copies only).
    pub facts: Facts,
    /// Counter deltas (traced copies only).
    pub obs: ObsReading,
}

/// Everything a run measured.
#[derive(Debug)]
pub struct Run {
    /// Set-up durations.
    pub setups: Vec<Duration>,
    /// Untraced jobs, in order.
    pub untraced: Vec<Job>,
    /// Traced jobs, in order (empty for an untraced run).
    pub traced: Vec<Job>,
    /// The untraced run's memory pass: one rotation after the timed loop,
    /// each job started from a trimmed heap.
    pub memory: Vec<Job>,
    /// Per rotation: events of its untraced jobs ÷ its wall seconds.
    pub rotation_events_per_s: Vec<f64>,
    /// Per rotation: process CPU seconds ÷ its jobs.
    pub rotation_cpu_s_per_job: Vec<f64>,
    /// Jobs per rotation.
    pub rotation: usize,
    /// The traced run's recorder.
    pub tracer: Tracer,
    /// The traced run's probes.
    pub probes: Probes,
    /// Facts of the set-up.
    pub setup_facts: Facts,
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

fn one_job<B: Bench>(
    b: &mut B,
    idx: usize,
    id: u64,
    traced: bool,
    tr: &mut Tracer,
) -> (Job, Option<B::Out>) {
    tr.begin_job(id, traced);
    sys::reset_peak_rss();
    let start = Instant::now();
    let before = traced.then(ObsReading::now);
    let res = catch_unwind(AssertUnwindSafe(|| tr.span("job", |tr| b.run(idx, tr))));
    let obs = before
        .map(|b| ObsReading::now().since(&b))
        .unwrap_or_default();
    let wall_ns = start.elapsed().as_nanos() as u64;
    let peak_rss_mb = sys::peak_rss_mb();
    let out = match res {
        Ok(Ok(out)) => b.check(idx, &out).map(|()| out),
        Ok(Err(e)) => Err(e),
        Err(p) => Err(format!("panic: {}", panic_text(p))),
    };
    let (events, facts, error, out) = match out {
        Ok(out) => (b.events(&out), b.facts(&out), None, Some(out)),
        Err(e) => (0, Facts::default(), Some(e), None),
    };
    let job = Job {
        idx,
        wall_ns,
        events,
        peak_rss_mb,
        error,
        facts,
        obs,
    };
    (job, out)
}

/// Sets up `B`, then runs its closed loop for at least `seconds`.
pub fn drive<B: Bench>(ctx: &Ctx, seconds: u64, traced: bool) -> Result<Run, String> {
    // Without the reset, a job's peak would be the process's peak so far,
    // set-up included, and `peak_rss_mb` would mean something else.
    if !sys::reset_peak_rss() {
        return Err("cannot reset the resident-set high-water mark \
                    (/proc/self/clear_refs), so peak_rss_mb cannot be measured per job"
            .into());
    }
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut bench: Option<B> = None;
    for _ in 0..SETUP_REPS {
        if let Some(mut old) = bench.take() {
            old.cleanup();
        }
        let t = Instant::now();
        bench = Some(B::setup(ctx)?);
        setups.push(t.elapsed());
    }
    let mut b = bench.expect("at least one set-up");
    let rotation = b.rotation();
    let mut tr = Tracer::new();
    let mut probes = Probes::default();
    let mut untraced = Vec::new();
    let mut traced_jobs = Vec::new();
    let budget = Duration::from_secs(seconds);

    let mut rotation_events_per_s = Vec::new();
    let mut rotation_cpu_s_per_job = Vec::new();
    let start = Instant::now();
    let mut id = 0u64;
    let mut first = true;
    while first || start.elapsed() < budget {
        let (cpu0, wall0, jobs0) = (sys::cpu_s(), Instant::now(), untraced.len());
        for idx in 0..rotation {
            untraced.push(one_job(&mut b, idx, id, false, &mut tr).0);
            id += 1;
            if traced {
                let (job, out) = one_job(&mut b, idx, id, true, &mut tr);
                id += 1;
                if let (true, Some(out)) = (first, out.as_ref()) {
                    b.probe_job(idx, out, &mut probes);
                }
                traced_jobs.push(job);
            }
        }
        let events: u64 = untraced[jobs0..].iter().map(|j| j.events).sum();
        rotation_events_per_s.push(events as f64 / wall0.elapsed().as_secs_f64());
        rotation_cpu_s_per_job.push((sys::cpu_s() - cpu0) / rotation as f64);
        first = false;
    }

    let mut memory = Vec::new();
    if traced {
        // Traced job ids are odd: job 2k+1 is the traced copy of pair k.
        let by_idx: Vec<(usize, u64)> = tr
            .per_job_ns("workloads.run_tracked")
            .into_iter()
            .map(|(job, ns)| ((job / 2) as usize % rotation, ns))
            .collect();
        b.probe_end(&by_idx, &mut probes);
    } else {
        // Freed memory the allocator keeps would otherwise count towards
        // every later job's resident set, and how much it keeps varies
        // between runs.
        for idx in 0..rotation {
            sys::trim_heap();
            memory.push(one_job(&mut b, idx, id, false, &mut tr).0);
            id += 1;
        }
    }
    let setup_facts = b.setup_facts();
    b.cleanup();
    Ok(Run {
        setups,
        untraced,
        traced: traced_jobs,
        memory,
        rotation_events_per_s,
        rotation_cpu_s_per_job,
        rotation,
        tracer: tr,
        probes,
        setup_facts,
    })
}

/// Median of `v` (mean of the middle two for even lengths); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Samples behind the value (jobs, set-ups or probe passes).
    pub n: usize,
}

fn metric(name: &'static str, unit: &'static str, value: f64, n: usize) -> Metric {
    let value = if value.is_finite() { value } else { 0.0 };
    Metric {
        name,
        unit,
        value,
        n,
    }
}

impl Run {
    /// Every job the run attempted.
    pub fn jobs(&self) -> impl Iterator<Item = &Job> {
        self.untraced.iter().chain(&self.traced).chain(&self.memory)
    }

    /// Jobs that failed.
    pub fn failures(&self) -> Vec<&Job> {
        self.jobs().filter(|j| j.error.is_some()).collect()
    }

    /// The end-to-end metrics, from the untraced jobs.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let jobs = &self.untraced;
        let n = jobs.len();
        let mut setup: Vec<f64> = self.setups.iter().map(Duration::as_secs_f64).collect();
        let mut walls: Vec<f64> = jobs.iter().map(|j| j.wall_ns as f64 / 1e6).collect();
        let peak_rss = self
            .memory
            .iter()
            .map(|j| j.peak_rss_mb)
            .fold(0.0, f64::max);
        let mut events_per_s = self.rotation_events_per_s.clone();
        let mut cpu_per_job = self.rotation_cpu_s_per_job.clone();
        let rotations = events_per_s.len();
        let failed = jobs.iter().filter(|j| j.error.is_some()).count();
        vec![
            metric("setup_s", "s", median(&mut setup), self.setups.len()),
            metric("job_p50_ms", "ms", median(&mut walls), n),
            metric(
                "events_per_s",
                "events/s",
                median(&mut events_per_s),
                rotations,
            ),
            metric("cpu_s_per_job", "s", median(&mut cpu_per_job), rotations),
            metric("peak_rss_mb", "MiB", peak_rss, self.memory.len()),
            metric("error_rate", "fraction", failed as f64 / n as f64, n),
        ]
    }

    /// The per-layer metrics, from the traced jobs and probes. A layer the
    /// workload never calls reads 0.
    pub fn per_layer(&self) -> Vec<Metric> {
        let traced = &self.traced;
        let first: Vec<&Job> = traced.iter().take(self.rotation).collect();
        let nf = first.len();
        let mean_first = |f: &dyn Fn(&Job) -> f64| -> f64 {
            first.iter().map(|j| f(j)).sum::<f64>() / nf.max(1) as f64
        };
        let counter = |name: &'static str| mean_first(&|j: &Job| j.obs.counter(name) as f64);
        let span_ms = |name: &str| -> (f64, usize) {
            let mut v: Vec<f64> = self
                .tracer
                .per_job_ns(name)
                .into_iter()
                .map(|(_, ns)| ns as f64 / 1e6)
                .collect();
            let n = v.len();
            (median(&mut v), n)
        };
        let obs_span_ms = |name: &str| -> f64 {
            let mut v: Vec<f64> = traced
                .iter()
                .map(|j| j.obs.span_sum_ns(name) as f64 / 1e6)
                .collect();
            median(&mut v)
        };
        let sum_first = |f: &dyn Fn(&Facts) -> f64| first.iter().map(|j| f(&j.facts)).sum::<f64>();
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

        let spawned: f64 = first
            .iter()
            .map(|j| j.obs.counter("predict_units_spawned_total") as f64)
            .sum();
        let verified: f64 = first
            .iter()
            .map(|j| j.obs.units_verified.max(0) as f64)
            .sum();
        let written_bytes = sum_first(&|f| f.written_bytes) + self.setup_facts.written_bytes;
        let written_events = sum_first(&|f| f.written_events) + self.setup_facts.written_events;
        let analyze_cpu: f64 = traced.iter().map(|j| j.facts.analyze_cpu_s).sum();
        let analyze_wall: f64 = traced.iter().map(|j| j.facts.analyze_wall_s).sum();
        let replayed = sum_first(&|f| f.replayed_events);
        let accesses_first: f64 = first
            .iter()
            .map(|j| j.obs.counter("runtime_accesses_total") as f64)
            .sum();

        let mut untraced: Vec<f64> = self.untraced.iter().map(|j| j.wall_ns as f64).collect();
        let mut traced_walls: Vec<f64> = traced.iter().map(|j| j.wall_ns as f64).collect();
        let (p50_u, p50_t) = (median(&mut untraced), median(&mut traced_walls));

        let nt = traced.len();
        let p = &self.probes;
        let (run_tracked, n_rt) = span_ms("workloads.run_tracked");
        let (report, n_rep) = span_ms("core.report");
        let (record, n_rec) = span_ms("trace.record");
        let (analyze, n_an) = span_ms("trace.analyze");
        let (whatif, n_wi) = span_ms("trace.whatif");
        let (evaluate, n_ev) = span_ms("policy.evaluate");
        let (render, n_re) = span_ms("policy.render");
        vec![
            metric("workloads.run_tracked_ms", "ms", run_tracked, n_rt),
            metric(
                "core.accesses",
                "count",
                counter("runtime_accesses_total"),
                nf,
            ),
            metric(
                "core.sampled_accesses",
                "count",
                counter("track_sampled_accesses_total"),
                nf,
            ),
            metric(
                "core.invalidations",
                "count",
                counter("track_invalidations_total"),
                nf,
            ),
            metric(
                "core.lines_promoted",
                "count",
                counter("runtime_lines_promoted_total"),
                nf,
            ),
            metric(
                "core.predict_analyses",
                "count",
                counter("predict_analyses_total"),
                nf,
            ),
            metric(
                "core.units_spawned",
                "count",
                counter("predict_units_spawned_total"),
                nf,
            ),
            metric(
                "core.units_verified_ratio",
                "ratio",
                ratio(verified, spawned),
                nf,
            ),
            metric(
                "core.detect_ns_per_access",
                "ns",
                p.detect_ns_per_access,
                nf,
            ),
            metric(
                "core.metadata_mb",
                "MiB",
                mean_first(&|j: &Job| j.facts.metadata_bytes) / (1 << 20) as f64,
                nf,
            ),
            metric("core.report_ms", "ms", report, n_rep),
            metric("trace.record_ms", "ms", record, n_rec),
            metric(
                "trace.bytes_per_event",
                "bytes",
                ratio(written_bytes, written_events),
                nf,
            ),
            metric("trace.analyze_ms", "ms", analyze, n_an),
            metric(
                "trace.analyze_parallelism",
                "ratio",
                ratio(analyze_cpu, analyze_wall),
                nt,
            ),
            metric("trace.scan_ms", "ms", obs_span_ms("span_trace_scan_ns"), nt),
            metric(
                "trace.dispatch_ms",
                "ms",
                obs_span_ms("span_shard_dispatch_ns"),
                nt,
            ),
            metric(
                "trace.shard_thread_ms",
                "ms",
                obs_span_ms("span_shard_analyze_ns"),
                nt,
            ),
            metric("trace.decode_ns_per_event", "ns", p.decode_ns_per_event, nf),
            metric(
                "trace.clusters",
                "count",
                mean_first(&|j: &Job| j.facts.clusters),
                nf,
            ),
            metric(
                "trace.shards_used",
                "count",
                mean_first(&|j: &Job| j.facts.shards_used),
                nf,
            ),
            metric(
                "trace.records_lost",
                "count",
                mean_first(&|j: &Job| j.facts.records_lost),
                nf,
            ),
            metric("trace.whatif_ms", "ms", whatif, n_wi),
            metric(
                "trace.whatif_amplification",
                "ratio",
                ratio(accesses_first, replayed),
                nf,
            ),
            metric("trace.remap_ns_per_event", "ns", p.remap_ns_per_event, 1),
            metric("sim.mesi_ns_per_event", "ns", p.mesi_ns_per_event, 1),
            metric(
                "sim.mesi_invalidations",
                "count",
                counter("mesi_invalidation_events_total"),
                nf,
            ),
            metric("policy.evaluate_ms", "ms", evaluate, n_ev),
            metric("policy.render_ms", "ms", render, n_re),
            metric(
                "policy.render_bytes",
                "bytes",
                mean_first(&|j: &Job| j.facts.render_bytes),
                nf,
            ),
            metric(
                "tracing_overhead_pct",
                "%",
                ratio(p50_t - p50_u, p50_u) * 100.0,
                nt,
            ),
        ]
    }
}
