//! Confines a run to one CPU.
//!
//! On the two-vCPU VM this benchmark is calibrated on, a machine thread
//! that blocks in `recv` idles its vCPU, and waking it costs a trip through
//! the host's scheduler: 20 µs or 1 ms, depending on what the host's other
//! guests do that minute. The locking workloads block ~50 % of the time, so
//! run medians drifted by 30 % within minutes and spreads reached 33 %
//! (README, "Calibration"). With both machine threads on one CPU a blocked
//! machine hands the CPU to the other, the vCPU never idles, and the same
//! workloads are steadier *and faster* (`pr-locking-tcp`: 0.95 s against
//! 1.7 to 2.0 s). What is measured is then the work on the blocking path of
//! both machines, not how well they overlap.

/// glibc's `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Confines the calling thread, and every thread it spawns from now on, to
/// the last CPU it is allowed on (interrupts tend to land on the first).
/// Returns that CPU's number.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let os_error = |what: &str| format!("{what}: {}", std::io::Error::last_os_error());
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return Err(os_error("sched_getaffinity"));
    }
    let cpu = allowed
        .iter()
        .enumerate()
        .rev()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + 63 - word.leading_zeros() as usize)
        .ok_or("empty CPU affinity mask")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed and is only
    // read; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return Err(os_error("sched_setaffinity"));
    }
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pinned_thread_and_its_children_are_allowed_on_one_cpu() {
        let allowed_cpus = || {
            let mut set: CpuSet = [0; 16];
            // SAFETY: as in `pin_to_one_cpu`.
            assert_eq!(
                unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) },
                0
            );
            set.iter().map(|w| w.count_ones()).sum::<u32>()
        };
        // On a thread of its own: the test harness's other threads keep
        // their CPUs.
        std::thread::spawn(move || {
            pin_to_one_cpu().unwrap();
            assert_eq!(allowed_cpus(), 1);
            assert_eq!(std::thread::spawn(allowed_cpus).join().unwrap(), 1);
        })
        .join()
        .unwrap();
    }
}
