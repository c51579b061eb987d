//! Core-speed probe: a fixed reference kernel, timed in thread CPU
//! time, that tells how fast the cores ran while a measurement ran.
//!
//! On a shared host the speed of a vCPU drifts with what its neighbours
//! run: the same grid campaign measured 5.1 and 10.2 trials/s a minute
//! apart, in wall-clock and CPU time alike. The drift is per vCPU (two
//! concurrent copies of one trial do not slow together) and hits
//! floating-point work much harder than integer work. The kernel below
//! is the benchmark's own, never the program's: a batch-1 f32 MLP
//! forward, backward and SGD step, the instruction mix of the trials
//! it stands beside. Timed alongside a campaign on the same cores, its
//! mean CPU time per call tracked the campaign's throughput with
//! correlation 0.94; dividing throughput by the relative speed cut
//! the spread of one campaign's rate from 0.25 to 0.07 of its median.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Steps of the reference kernel per sample, in chunks: about 2 ms of
/// CPU in all.
const REPS: usize = 1200;
const CHUNKS: usize = 8;

/// CPU seconds one sample takes at the reference speed: the fastest
/// stretch seen on the 2-vCPU host the benchmark was written on. The
/// constant only fixes the scale; a speed of 1 means that host at its
/// best.
pub const REFERENCE_S: f64 = 1.6e-3;

/// Gap between the background sampler's samples: about 5% of a core.
const PERIOD: Duration = Duration::from_millis(40);

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU seconds the calling thread has used so far.
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable value laid out as the 64-bit
    // Linux `struct timespec`; the clock id is valid for every thread.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) cannot fail");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// The reference kernel: `reps` batch-1 steps of a 6-32-32-4 ReLU MLP
/// (forward, squared-error backward, SGD update) on fixed inputs.
fn kernel(reps: usize) -> f32 {
    const DIMS: [usize; 4] = [6, 32, 32, 4];
    let mut w: Vec<Vec<f32>> = (0..3)
        .map(|l| {
            (0..DIMS[l] * DIMS[l + 1])
                .map(|i| (i.wrapping_mul(2_654_435_761) % 1000) as f32 / 1000.0 - 0.5)
                .collect()
        })
        .collect();
    let mut acts: Vec<Vec<f32>> = DIMS.iter().map(|&d| vec![0.0; d]).collect();
    let mut grads: Vec<Vec<f32>> = DIMS.iter().map(|&d| vec![0.0; d]).collect();
    let mut s = 1u32;
    for _ in 0..reps {
        for x in acts[0].iter_mut() {
            s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            *x = (s >> 16) as f32 / 65536.0;
        }
        for l in 0..3 {
            let (lo, hi) = acts.split_at_mut(l + 1);
            let (x, y) = (&lo[l], &mut hi[0]);
            for (o, y) in y.iter_mut().enumerate() {
                let row = &w[l][o * DIMS[l]..(o + 1) * DIMS[l]];
                let acc: f32 = row.iter().zip(x).map(|(w, x)| w * x).sum();
                *y = if l < 2 { acc.max(0.0) } else { acc };
            }
        }
        for (g, a) in grads[3].iter_mut().zip(&acts[3]) {
            *g = a - 0.5;
        }
        for l in (0..3).rev() {
            let (lo, hi) = grads.split_at_mut(l + 1);
            let (gin, gout) = (&mut lo[l], &hi[0]);
            gin.fill(0.0);
            for (o, &g) in gout.iter().enumerate() {
                let g = if l < 2 && acts[l + 1][o] <= 0.0 { 0.0 } else { g };
                let row = &mut w[l][o * DIMS[l]..(o + 1) * DIMS[l]];
                for ((w, gi), a) in row.iter_mut().zip(gin.iter_mut()).zip(&acts[l]) {
                    *gi += *w * g;
                    *w -= 1e-4 * g * a;
                }
            }
        }
    }
    w[2].iter().sum()
}

/// One probe sample on the calling thread: CPU seconds of [`REPS`]
/// kernel steps, as [`CHUNKS`] times the median chunk that ran without
/// a context switch; `None` if none did. A worker that preempts the
/// probe leaves it cold caches, or moves it to the other core; in
/// `study-eval` a worker commits about every millisecond and does that
/// several times a sample, and counting those chunks made the cores
/// read slower the faster the campaign ran.
pub fn sample() -> Option<f64> {
    let mut clean = Vec::with_capacity(CHUNKS);
    for _ in 0..CHUNKS {
        let (sw0, t0) = (crate::sys::thread_switches(), thread_cpu_s());
        std::hint::black_box(kernel(std::hint::black_box(REPS / CHUNKS)));
        let (t1, sw1) = (thread_cpu_s(), crate::sys::thread_switches());
        if sw1 == sw0 {
            clean.push(t1 - t0);
        }
    }
    (!clean.is_empty()).then(|| crate::stats::median(&clean) * CHUNKS as f64)
}

/// Speed relative to the reference, from samples' CPU seconds: below
/// 1 on a slower stretch. The mean of the samples' speeds, not the
/// speed of their mean time: samples come at a steady rate, so this is
/// the time-average speed, which is what sets both the work two busy
/// cores get through in a window and the time a fixed amount of work
/// takes. NaN for no samples.
pub fn speed(samples_s: &[f64]) -> f64 {
    samples_s.iter().map(|s| REFERENCE_S / s).sum::<f64>() / samples_s.len() as f64
}

/// [`speed`] over the timestamped samples taken in `[from, to]`.
pub fn speed_between(samples: &[(Instant, f64)], from: Instant, to: Instant) -> f64 {
    let inside: Vec<f64> =
        samples.iter().filter(|(at, _)| (from..=to).contains(at)).map(|&(_, s)| s).collect();
    speed(&inside)
}

/// Takes a sample every [`PERIOD`] until `stop` is set; returns when
/// each was taken and its CPU seconds. Runs beside a campaign's workers
/// so the samples land on the cores they use, in proportion.
pub fn sample_until(stop: &AtomicBool) -> Vec<(Instant, f64)> {
    let mut samples = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let at = Instant::now();
        samples.extend(sample().map(|s| (at, s)));
        std::thread::sleep(PERIOD);
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_samples_are_positive() {
        assert_eq!(kernel(50).to_bits(), kernel(50).to_bits());
        let s: Vec<f64> = (0..4).filter_map(|_| sample()).collect();
        assert!(!s.is_empty(), "an idle thread runs some chunk without a switch");
        assert!(s.iter().all(|&x| x > 0.0), "{s:?}");
        let v = speed(&s);
        assert!(v.is_finite() && v > 0.0, "{v}");
        assert!(speed(&[]).is_nan());
    }
}
