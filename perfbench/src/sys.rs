//! Process accounting: CPU time, peak resident memory, output digests.

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long` counters.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_THREAD: i32 = 1;

fn rusage(who: i32) -> Rusage {
    let mut u = Rusage { utime: [0; 2], stime: [0; 2], rest: [0; 14] };
    // SAFETY: `u` is a live, writable value whose layout matches the
    // 64-bit Linux `struct rusage` that `getrusage` fills; both `who`
    // values used here are valid.
    let rc = unsafe { getrusage(who, &mut u) };
    assert_eq!(rc, 0, "getrusage cannot fail with valid arguments");
    u
}

/// User plus system CPU seconds the whole process has used so far.
pub fn cpu_seconds() -> f64 {
    let u = rusage(RUSAGE_SELF);
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    secs(u.utime) + secs(u.stime)
}

/// Context switches of the calling thread so far, voluntary plus
/// involuntary (`ru_nvcsw + ru_nivcsw`).
pub fn thread_switches() -> i64 {
    let u = rusage(RUSAGE_THREAD);
    u.rest[12] + u.rest[13]
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// FNV-1a over `bytes`: the pinned output digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
