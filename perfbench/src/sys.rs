//! Process resource usage (`getrusage`) and machine facts.

use std::os::raw::{c_int, c_long};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then 14 longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

const RUSAGE_SELF: c_int = 0;

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    #[cfg(target_env = "gnu")]
    fn malloc_trim(pad: usize) -> c_int;
}

/// Returns the allocator's free memory to the kernel (glibc `malloc_trim`),
/// so the resident set holds only live data. A no-op elsewhere.
pub fn trim_heap() {
    // SAFETY: malloc_trim takes no pointers and may be called at any time;
    // it only releases pages the allocator holds free.
    #[cfg(target_env = "gnu")]
    unsafe {
        malloc_trim(0);
    }
}

fn rusage() -> Rusage {
    let mut u = Rusage::default();
    // SAFETY: `u` is a live, writable `struct rusage` with the C layout;
    // getrusage writes only inside it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    u
}

/// User + system CPU seconds of the whole process, all threads (those
/// already joined included).
pub fn cpu_s() -> f64 {
    let u = rusage();
    let tv = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    tv(&u.ru_utime) + tv(&u.ru_stime)
}

/// Resets the process's resident-set high-water mark, so the next
/// [`peak_rss_mb`] covers only what follows. Returns false where the kernel
/// does not support it (Linux < 4.0, or no `/proc`).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set since the last [`reset_peak_rss`] (else since the
/// process started), MiB.
pub fn peak_rss_mb() -> f64 {
    let hwm_kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        });
    // ru_maxrss is in KiB on Linux too, but ignores resets.
    hwm_kib.unwrap_or_else(|| rusage().ru_maxrss as f64) / 1024.0
}

/// CPUs this process may run on.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work() {
        let before = cpu_s();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_s() > before);
    }

    #[test]
    fn peak_rss_resets_to_the_current_resident_set() {
        let _serial = crate::HEAVY_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        let with_big = peak_rss_mb();
        drop(big);
        if reset_peak_rss() {
            assert!(
                peak_rss_mb() < with_big - 32.0,
                "reset forgets the freed 64 MiB"
            );
        }
        assert!(peak_rss_mb() > 1.0);
    }
}
