//! The traced run's instruments: spans recorded by the benchmark around
//! its calls into each layer, and per-job deltas of the program's own
//! `predator_obs` counters. Nothing here adds tracing inside the program.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `trace.analyze`.
    pub name: &'static str,
    /// Job the span belongs to.
    pub job: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. When off, [`Tracer::span`] only calls its body.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    job: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A recorder that starts off.
    pub fn new() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            job: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off for the next job, and names that job.
    pub fn begin_job(&mut self, job: u64, on: bool) {
        self.on = on;
        self.job = job;
        // A job that panicked mid-span leaves its spans open; drop them.
        self.stack.clear();
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's. Spans
    /// are recorded on one thread, so children never overlap.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.ns());
            }
        }
        own
    }

    /// Per job, the summed duration of spans named `name`, as
    /// `(job, ns)` (jobs without one are absent).
    pub fn per_job_ns(&self, name: &str) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            match out.last_mut() {
                Some((job, ns)) if *job == s.job => *ns += s.ns(),
                _ => out.push((s.job, s.ns())),
            }
        }
        out
    }

    /// The spans as JSON lines: name, job, parent, start, end, self time.
    pub fn to_jsonl(&self) -> String {
        let own = self.self_ns();
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"job\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name, s.job, s.start_ns, s.end_ns, own[i]
            );
        }
        out
    }
}

/// Counters read per job, by registry name.
pub const COUNTERS: [&str; 7] = [
    "runtime_accesses_total",
    "track_sampled_accesses_total",
    "track_invalidations_total",
    "runtime_lines_promoted_total",
    "predict_analyses_total",
    "predict_units_spawned_total",
    "mesi_invalidation_events_total",
];

/// Span histograms whose sums are read per job (ns, summed over threads).
pub const SPAN_SUMS: [&str; 3] = [
    "span_trace_scan_ns",
    "span_shard_dispatch_ns",
    "span_shard_analyze_ns",
];

/// The program's counters at one instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsReading {
    /// Values of [`COUNTERS`], in order.
    pub counters: [u64; COUNTERS.len()],
    /// Sums of [`SPAN_SUMS`], in order.
    pub span_ns: [u64; SPAN_SUMS.len()],
    /// The `predict_units_verified` gauge (set by each report build).
    pub units_verified: i64,
}

impl ObsReading {
    /// Reads the global registry.
    pub fn now() -> Self {
        let snap = predator_obs::global().snapshot();
        let mut r = ObsReading::default();
        for (name, v) in &snap.counters {
            if let Some(i) = COUNTERS.iter().position(|c| c == name) {
                r.counters[i] = *v;
            }
        }
        for h in &snap.histograms {
            if let Some(i) = SPAN_SUMS.iter().position(|c| *c == h.name) {
                r.span_ns[i] = h.sum;
            }
        }
        if let Some((_, v)) = snap
            .gauges
            .iter()
            .find(|(n, _)| n == "predict_units_verified")
        {
            r.units_verified = *v;
        }
        r
    }

    /// `self − earlier` for counters and span sums; the gauge as read now.
    pub fn since(&self, earlier: &ObsReading) -> ObsReading {
        let mut d = self.clone();
        for (x, e) in d.counters.iter_mut().zip(earlier.counters) {
            *x = x.saturating_sub(e);
        }
        for (x, e) in d.span_ns.iter_mut().zip(earlier.span_ns) {
            *x = x.saturating_sub(e);
        }
        d
    }

    /// Counter value by registry name.
    pub fn counter(&self, name: &str) -> u64 {
        let i = COUNTERS
            .iter()
            .position(|c| *c == name)
            .expect("known counter");
        self.counters[i]
    }

    /// Span sum by histogram name, ns.
    pub fn span_sum_ns(&self, name: &str) -> u64 {
        let i = SPAN_SUMS
            .iter()
            .position(|c| *c == name)
            .expect("known span");
        self.span_ns[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.begin_job(1, true);
        t.span("job", |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        t.begin_job(2, false);
        t.span("job", |_| ());
        let spans = t.spans();
        assert_eq!(spans.len(), 3, "untraced job records nothing");
        assert_eq!(spans[1].parent, Some(0));
        let own = t.self_ns();
        assert_eq!(own[0], spans[0].ns() - spans[1].ns() - spans[2].ns());
        assert_eq!(t.per_job_ns("a"), vec![(1, spans[1].ns())]);
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }
}
