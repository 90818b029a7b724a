//! Host measurements: process CPU time, peak resident set, and the peak
//! reset that lets one process measure several runs separately.

use std::time::Instant;

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    _rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User + system CPU seconds of the whole process (every thread, so pool
/// workers count) since it started.
pub fn cpu_seconds() -> f64 {
    let mut u = Rusage {
        ru_utime: Timeval { tv_sec: 0, tv_usec: 0 },
        ru_stime: Timeval { tv_sec: 0, tv_usec: 0 },
        _rest: [0; 14],
    };
    // SAFETY: `u` is a properly sized, writable `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage failed");
    let tv = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    tv(&u.ru_utime) + tv(&u.ru_stime)
}

fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].trim().trim_end_matches("kB").trim().parse().ok()
}

/// Peak resident set (MB) since start or since the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Reset the kernel's peak-RSS mark to the current RSS, so the next
/// [`peak_rss_mb`] reads the peak of one run, not of the whole process.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Wall clock and CPU clock started together.
pub struct Clocks {
    wall: Instant,
    cpu: f64,
}

impl Clocks {
    pub fn start() -> Clocks {
        Clocks { wall: Instant::now(), cpu: cpu_seconds() }
    }

    /// `(wall seconds, cpu seconds)` since [`Clocks::start`].
    pub fn read(&self) -> (f64, f64) {
        (self.wall.elapsed().as_secs_f64(), cpu_seconds() - self.cpu)
    }
}
