//! Seeded synthetic traces for the two trace-driven workloads.
//!
//! A trace is a set of *regions*, each running one canonical sharing
//! pattern from [`predator_sim::patterns`] on four threads. Regions sit in
//! equal slots spread across the whole 64 MiB traced range, so they are
//! far farther apart than the analyzer's cluster link gap at every
//! portfolio geometry: every region is its own line cluster. Each thread
//! steps through all of its regions in turn, and the threads are merged
//! with [`Schedule::Seeded`], so every region is active for the whole
//! trace.
//!
//! The seed picks the order of the regions, where each sits inside its
//! slot, the random-mix contents and the thread schedule. It never changes
//! the number of regions of each pattern or the number of events, so runs
//! on different seeds do the same amount of work.

use std::io::{self, Write};

use predator_sim::interleave::{interleave, Schedule, Script};
use predator_sim::patterns::{generate, Pattern};
use predator_sim::Access;
use predator_trace::{TraceWriter, WriteSummary, SEGMENT_CAPACITY};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// First traced byte.
pub const BASE: u64 = 0x4000_0000;
/// Traced range: 64 MiB.
pub const SIZE: u64 = 64 << 20;
/// Threads per region.
pub const THREADS: usize = 4;
/// Stride of the striped regions: every thread on its own line even at
/// the largest (256-byte) portfolio geometry.
pub const STRIPE: u64 = 2048;
/// Lines covered by a random-mix region.
pub const MIX_LINES: u64 = 16;
/// Region starts are aligned to this, so a region's layout relative to
/// line boundaries is the same at every portfolio geometry.
const ALIGN: u64 = 4096;
/// Bytes a region can span: a striped region reaches `3 * STRIPE + 8`.
const REGION_SPAN: u64 = 8192;

/// What the detector must say about a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    /// Distinct threads on distinct words of one line.
    FalseSharing,
    /// Several threads writing the same word.
    TrueSharing,
    /// No line is shared.
    Clean,
    /// Random traffic: any verdict is acceptable.
    Unchecked,
}

/// The pattern kinds a mix cycles through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// [`Pattern::PingPong`].
    PingPong,
    /// [`Pattern::ReaderWriter`].
    ReaderWriter,
    /// [`Pattern::TrueShare`].
    TrueShare,
    /// [`Pattern::Striped`] at [`STRIPE`].
    Striped,
    /// [`Pattern::RandomMix`] over [`MIX_LINES`] lines.
    RandomMix,
}

const KINDS: [Kind; 5] = [
    Kind::PingPong,
    Kind::ReaderWriter,
    Kind::TrueShare,
    Kind::Striped,
    Kind::RandomMix,
];

/// Shape of a generated trace.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Number of regions; kinds are dealt round-robin.
    pub regions: usize,
    /// Accesses per thread per region.
    pub per_thread: usize,
}

/// The `analyze-clusters` trace: 48 regions, about 3 M events.
pub const CLUSTERS: Mix = Mix {
    regions: 48,
    per_thread: 16_000,
};

/// The `whatif-replay` trace: the same patterns as [`CLUSTERS`] on fewer
/// regions and accesses.
pub const WHATIF: Mix = Mix {
    regions: 10,
    per_thread: 3_000,
};

/// One generated region.
#[derive(Debug, Clone)]
pub struct Region {
    /// Pattern kind.
    pub kind: Kind,
    /// The pattern as generated.
    pub pattern: Pattern,
    /// First byte any access of the region touches.
    pub start: u64,
    /// One past the last byte any access of the region touches.
    pub end: u64,
}

impl Region {
    /// The verdict the detector must reach on this region.
    pub fn label(&self) -> Label {
        match self.kind {
            Kind::PingPong | Kind::ReaderWriter => Label::FalseSharing,
            Kind::TrueShare => Label::TrueSharing,
            Kind::Striped => Label::Clean,
            Kind::RandomMix => Label::Unchecked,
        }
    }
}

/// A generated trace.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Regions in address order.
    pub regions: Vec<Region>,
    /// The interleaved event stream.
    pub events: Vec<Access>,
}

fn pattern_for(kind: Kind, base: u64, rng: &mut SmallRng) -> Pattern {
    match kind {
        Kind::PingPong => Pattern::PingPong {
            threads: THREADS,
            base,
        },
        Kind::ReaderWriter => Pattern::ReaderWriter {
            threads: THREADS,
            base,
        },
        Kind::TrueShare => Pattern::TrueShare {
            threads: THREADS,
            addr: base + 8,
        },
        Kind::Striped => Pattern::Striped {
            threads: THREADS,
            base,
            stride: STRIPE,
        },
        Kind::RandomMix => Pattern::RandomMix {
            threads: THREADS,
            base,
            lines: MIX_LINES,
            write_pct: 50,
            seed: rng.gen(),
        },
    }
}

/// Seeded Fisher-Yates shuffle.
pub fn shuffle<T>(v: &mut [T], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        v.swap(i, j);
    }
}

/// Generates the trace for `mix` from `seed`.
pub fn generate_trace(mix: &Mix, seed: u64) -> Trace {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut kinds: Vec<Kind> = (0..mix.regions).map(|i| KINDS[i % KINDS.len()]).collect();
    shuffle(&mut kinds, &mut rng);
    let slot = (SIZE / mix.regions as u64) / ALIGN * ALIGN;
    assert!(slot > REGION_SPAN + ALIGN, "too many regions for the range");
    let offsets = (slot - REGION_SPAN) / ALIGN;

    let mut regions = Vec::with_capacity(mix.regions);
    let mut scripts = Vec::with_capacity(mix.regions);
    for (i, &kind) in kinds.iter().enumerate() {
        let base = BASE + i as u64 * slot + rng.gen_range(0..offsets) * ALIGN;
        let pattern = pattern_for(kind, base, &mut rng);
        let script = generate(pattern, mix.per_thread);
        let touched = script.per_thread.iter().flatten();
        let start = touched
            .clone()
            .map(|a| a.addr)
            .min()
            .expect("non-empty region");
        let end = touched
            .map(|a| a.addr + a.size as u64)
            .max()
            .expect("non-empty region");
        regions.push(Region {
            kind,
            pattern,
            start,
            end,
        });
        scripts.push(script);
    }

    // Each thread visits its regions round-robin, one access at a time.
    let mut merged = Script::new(THREADS);
    for step in 0..mix.per_thread {
        for script in &scripts {
            for (t, ops) in script.per_thread.iter().enumerate() {
                merged.push(t, ops[step]);
            }
        }
    }
    let events = interleave(&merged, &Schedule::Seeded(seed));
    Trace { regions, events }
}

/// Writes `events` as a `.ptrace` (no attribution metadata), in chunks the
/// size a recording would produce.
pub fn write_ptrace<W: Write>(w: W, events: &[Access]) -> io::Result<(WriteSummary, W)> {
    let mut writer = TraceWriter::create(w, BASE, SIZE)?;
    for chunk in events.chunks(SEGMENT_CAPACITY) {
        writer.write_events(chunk)?;
    }
    writer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use predator_core::CacheGeometry;
    use predator_sim::mesi::MesiSim;
    use predator_sim::AccessKind;
    use predator_trace::analyze::link_gap;
    use std::collections::BTreeMap;

    const SMALL: Mix = Mix {
        regions: 10,
        per_thread: 300,
    };

    fn ptrace_bytes(seed: u64) -> Vec<u8> {
        let trace = generate_trace(&SMALL, seed);
        write_ptrace(Vec::new(), &trace.events).unwrap().1
    }

    #[test]
    fn same_seed_gives_byte_identical_ptrace() {
        assert_eq!(ptrace_bytes(7), ptrace_bytes(7));
        assert_ne!(ptrace_bytes(7), ptrace_bytes(8));
    }

    #[test]
    fn seed_changes_contents_but_not_sizes() {
        for mix in [CLUSTERS, WHATIF] {
            let small = Mix {
                per_thread: 50,
                ..mix
            };
            let a = generate_trace(&small, 1);
            let b = generate_trace(&small, 2);
            assert_eq!(a.events.len(), b.events.len());
            assert_eq!(a.regions.len(), mix.regions);
            let count = |t: &Trace, k: Kind| t.regions.iter().filter(|r| r.kind == k).count();
            for k in KINDS {
                assert_eq!(count(&a, k), count(&b, k), "{k:?}");
            }
        }
    }

    #[test]
    fn regions_are_farther_apart_than_the_link_gap_at_the_largest_geometry() {
        let largest = *CacheGeometry::PORTFOLIO_LINE_SIZES.last().unwrap();
        let geom = CacheGeometry::new(largest);
        let gap = link_gap(&predator_bench::eval_config());
        for mix in [CLUSTERS, WHATIF] {
            for seed in 0..8 {
                let trace = generate_trace(
                    &Mix {
                        per_thread: 4,
                        ..mix
                    },
                    seed,
                );
                for pair in trace.regions.windows(2) {
                    let last = geom.line_index(pair[0].end - 1);
                    let first = geom.line_index(pair[1].start);
                    assert!(
                        first > last + gap,
                        "regions at {:#x} and {:#x} are within the link gap",
                        pair[0].start,
                        pair[1].start
                    );
                }
                for r in &trace.regions {
                    assert!(r.start >= BASE && r.end <= BASE + SIZE);
                }
            }
        }
    }

    /// Runs one region's events alone through MESI and classifies the
    /// sharing it sees from the word-level access sets.
    fn mesi_label(region: &Region, events: &[Access]) -> Label {
        let mine: Vec<Access> = events
            .iter()
            .copied()
            .filter(|a| a.addr >= region.start && a.addr < region.end)
            .collect();
        let mut sim = MesiSim::new(THREADS, CacheGeometry::new(64));
        for a in &mine {
            sim.access(a.tid, a.addr, a.size, a.kind);
        }
        if sim.stats().invalidation_events == 0 {
            return Label::Clean;
        }
        // Threads per word, and whether anyone writes it.
        let mut words: BTreeMap<u64, (u32, bool)> = BTreeMap::new();
        for a in &mine {
            let e = words.entry(a.addr / 8).or_default();
            e.0 |= 1 << a.tid.index();
            e.1 |= a.kind == AccessKind::Write;
        }
        let shared_written = words
            .values()
            .any(|&(threads, written)| written && threads.count_ones() > 1);
        if shared_written {
            Label::TrueSharing
        } else {
            Label::FalseSharing
        }
    }

    #[test]
    fn each_pattern_label_agrees_with_mesi() {
        let trace = generate_trace(&SMALL, 3);
        for r in &trace.regions {
            let seen = mesi_label(r, &trace.events);
            match r.label() {
                Label::Unchecked => {}
                want => assert_eq!(seen, want, "{:?} at {:#x}", r.kind, r.start),
            }
        }
    }
}
