//! Measures how fast the run's CPU is while a rep runs, so that a rep's
//! timings can be stated at one fixed speed.
//!
//! The calibration host is a VM whose vCPUs share physical cores with other
//! guests. For seconds or for minutes at a time the same instructions take
//! 10 to 50 % longer, on one vCPU and not the other, and nothing the guest
//! can read (steal time, load) shows it. Runs of the same code then spread
//! by 15 to 30 % (README, "Calibration"), which no run length or rep count
//! averages out. So a thread on the run's own CPU repeats a fixed arithmetic
//! kernel every 10 ms and records the CPU time each pass took. The mean over
//! a rep, against the run's undisturbed passes, is the rep's slowdown, and
//! the rep's timings are divided by it. The kernel's time tracks the
//! workloads' rep for rep (correlation 0.8 to 0.9, slope 0.8 to 1.2 in log
//! space) and is the same under every workload, because it stays in the L1
//! cache and shares no code or data with the program under test.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Share of a run's passes, counted from the fastest, taken as undisturbed.
/// Even in the slowest quarter of an hour seen, the tenth-fastest pass in a
/// hundred took the same time to 2 % in every run, while the mean went from
/// 1.04 to 1.43 times that. A constant would not do in its place: the same
/// source built in two directories gave kernels 9 % apart (code alignment),
/// and every change to the program would move it again.
const UNDISTURBED: f64 = 0.10;

/// Pause between passes: 2 % of the CPU goes to the probe.
const PAUSE: Duration = Duration::from_millis(10);

/// A rep shorter than this many passes takes the slowdown of the whole run.
const MIN_PASSES: usize = 3;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time the calling thread has used: time on the CPU only, so a pass
/// that a machine thread preempts is not charged for the wait.
fn thread_cpu_s() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` (two C longs on 64-bit
    // Linux); the clock id is a constant the kernel knows.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID)");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// 200 Cholesky factorisations of a 20 × 20 matrix: 3 KB of data, half a
/// million dependent and independent floating-point operations.
#[allow(clippy::needless_range_loop)] // the textbook's indices, as calibrated
fn kernel() -> f64 {
    const D: usize = 20;
    let mut acc = 0.0;
    for pass in 0..200 {
        let shift = std::hint::black_box(pass as f64 * 1e-3);
        let mut a = [[0.0f64; D]; D];
        for (i, row) in a.iter_mut().enumerate() {
            for (j, x) in row.iter_mut().enumerate() {
                *x = if i == j {
                    25.0 + shift
                } else {
                    1.0 / (1.0 + (i + j) as f64)
                };
            }
        }
        for j in 0..D {
            let mut sum = a[j][j];
            for k in 0..j {
                sum -= a[j][k] * a[j][k];
            }
            let pivot = sum.sqrt();
            a[j][j] = pivot;
            for i in j + 1..D {
                let mut sum = a[i][j];
                for k in 0..j {
                    sum -= a[i][k] * a[j][k];
                }
                a[i][j] = sum / pivot;
            }
        }
        acc += a[D - 1][7];
    }
    acc
}

/// The probe thread. It inherits the affinity of the thread that starts it:
/// start it after pinning.
pub struct Probe {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<(Instant, f64)>>,
}

impl Probe {
    pub fn start() -> Probe {
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut passes = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let at = Instant::now();
                    let before = thread_cpu_s();
                    std::hint::black_box(kernel());
                    passes.push((at, thread_cpu_s() - before));
                    std::thread::sleep(PAUSE);
                }
                passes
            })
        };
        Probe { stop, thread }
    }

    /// Stops the thread after its next pass; at least one is on record.
    pub fn stop(self) -> Passes {
        self.stop.store(true, Ordering::Relaxed);
        let passes = self.thread.join().expect("probe thread panicked");
        let mut took: Vec<f64> = passes.iter().map(|(_, took)| *took).collect();
        took.sort_by(f64::total_cmp);
        Passes {
            undisturbed_s: took[(took.len() as f64 * UNDISTURBED) as usize],
            passes,
        }
    }
}

/// A finished probe's record.
pub struct Passes {
    passes: Vec<(Instant, f64)>,
    /// CPU time of a pass when nothing else contends for the core.
    pub undisturbed_s: f64,
}

impl Passes {
    /// Mean pass time between `from` and `to`, as a multiple of the
    /// undisturbed one.
    pub fn slowdown(&self, from: Instant, to: Instant) -> f64 {
        let during = |(at, took): &(Instant, f64)| (from..=to).contains(at).then_some(*took);
        let mut took: Vec<f64> = self.passes.iter().filter_map(during).collect();
        if took.len() < MIN_PASSES {
            took = self.passes.iter().map(|(_, took)| *took).collect();
        }
        took.iter().sum::<f64>() / took.len() as f64 / self.undisturbed_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_mean_pass_time_of_the_window_or_of_the_run() {
        let probe = Probe::start();
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_millis(150));
        let t1 = Instant::now();
        let passes = probe.stop();
        // The kernel takes 0.2 ms on the calibration host; any box of the
        // last decade is within a factor of five of that.
        let undisturbed_ms = passes.undisturbed_s * 1e3;
        assert!((0.04..1.0).contains(&undisturbed_ms), "{undisturbed_ms}");
        let window = passes.slowdown(t0, t1);
        assert!((0.9..5.0).contains(&window), "{window}");
        // Nothing ran in an empty window: the run's mean stands in.
        let before = t0 - Duration::from_secs(1);
        assert_eq!(passes.slowdown(before, before), passes.slowdown(before, t1));
    }
}
