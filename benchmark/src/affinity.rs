//! CPU placement: the harness and every daemon it spawns run on **one**
//! CPU — the first the process is allowed when it starts — so that nothing
//! on the measured path ever crosses CPUs. With a single CPU there is
//! nothing to pin.
//!
//! Sharing a core between load generator and system under test is the
//! opposite of the textbook layout, and it is deliberate. This benchmark is
//! built for 2-vCPU virtual machines, where a wake-up across vCPUs is an
//! interrupt the hypervisor delivers: the slowest step of every loop and by
//! far the least steady. Measured on the build host, same seed, runs
//! alternating (events/s, closed loop; min–max over 8 runs each):
//!
//! | workload      | daemon on the other CPU | all on one CPU   |
//! |---------------|-------------------------|------------------|
//! | `wire_tota`   | 73.6k – 166.1k          | 162.3k – 187.7k  |
//! | `shards_mux`  | 76.5k – 144.5k          | 119.5k – 140.2k  |
//! | `city_demcom` | 35.2k – 56.9k           | 45.9k – 58.4k    |
//!
//! and `fed_pair`, whose lockstep driver pays four such wake-ups per event,
//! runs at ≈4.6k events/s (±27 %) apart and ≈13k together. Apart, a noisy
//! minute on the host halves the served numbers; together it moves them by
//! a tenth. On one CPU the harness's own cost per event (two system calls
//! per burst and a frame scan — code no later change touches) is part of
//! every served number, so a daemon-side gain shows slightly diluted; that
//! is the price of a number that repeats. Left unpinned, the scheduler
//! spreads the threads over both CPUs and the result is the "apart" column.
//!
//! A child inherits its parent's mask, so pinning the harness before
//! anything is spawned places the daemons too; every spawned daemon's mask
//! is nevertheless read back from `/proc/<pid>/status` and checked, so the
//! placement a result file states is the placement that was measured.

use std::ffi::c_int;
use std::io;

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const CpuSet) -> c_int;
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut CpuSet) -> c_int;
}

/// The CPUs the calling thread may run on, ascending.
fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a live, writable 128-byte cpu_set_t and the size
    // passed is its size; pid 0 is the calling thread. The call writes only
    // into the mask.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Where the harness and its daemons run. Empty = nothing is pinned (one
/// CPU, or the kernel refused).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Placement {
    pub cpus: Vec<usize>,
}

impl Placement {
    /// Pin the calling thread — and with it every thread and process it
    /// later spawns — to the first CPU it is allowed. Call once, from the
    /// main thread, before anything is spawned.
    pub fn pin() -> Placement {
        let allowed = allowed_cpus();
        let [first, _, ..] = allowed[..] else {
            return Placement::default();
        };
        let mut mask: CpuSet = [0; 16];
        mask[first / 64] |= 1 << (first % 64);
        // SAFETY: `mask` is a live 128-byte cpu_set_t and the size passed
        // is its size; pid 0 is the calling thread. The call only reads it.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) };
        if rc != 0 {
            return Placement::default();
        }
        Placement { cpus: vec![first] }
    }

    /// Check that process `pid` may run exactly where the harness runs
    /// (`Cpus_allowed_list` in `/proc/<pid>/status`).
    pub fn verify(&self, pid: u32) -> io::Result<()> {
        if self.cpus.is_empty() {
            return Ok(());
        }
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
        let actual = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .map(|list| parse_cpu_list(list.trim()));
        if actual.as_deref() == Some(&self.cpus[..]) {
            Ok(())
        } else {
            Err(io::Error::other(format!(
                "process {pid} may run on CPUs {actual:?}, not on {:?} with the harness",
                self.cpus
            )))
        }
    }
}

/// `"0-2,5"` → `[0, 1, 2, 5]` (the kernel's cpu-list format).
fn parse_cpu_list(list: &str) -> Vec<usize> {
    list.split(',')
        .filter_map(|part| {
            let (lo, hi) = part.split_once('-').unwrap_or((part, part));
            Some(lo.trim().parse().ok()?..=hi.trim().parse().ok()?)
        })
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("1"), [1]);
        assert_eq!(parse_cpu_list("0-2,5"), [0, 1, 2, 5]);
        assert_eq!(parse_cpu_list(""), [] as [usize; 0]);
    }

    /// A child spawned after the pin is where the harness is, the check
    /// sees it, and the check catches a process that is somewhere else.
    #[test]
    fn children_run_with_the_harness_and_the_check_sees_strays() {
        let sleeper = || {
            std::process::Command::new("sleep")
                .arg("5")
                .spawn()
                .expect("sleep spawns")
        };
        // A child of the unpinned test runner, allowed everywhere.
        let mut stray = sleeper();
        // Pin from a scratch thread so the runner's other threads keep
        // their CPUs.
        let (placement, allowed_after, mut child) = std::thread::spawn(move || {
            let placement = Placement::pin();
            (placement, allowed_cpus(), sleeper())
        })
        .join()
        .expect("pinning thread");
        let verdicts = (placement.verify(child.id()), placement.verify(stray.id()));
        for c in [&mut child, &mut stray] {
            let _ = c.kill();
            let _ = c.wait();
        }
        if placement.cpus.is_empty() {
            return; // one CPU: nothing to pin, nothing to check
        }
        assert_eq!(allowed_after, placement.cpus);
        verdicts
            .0
            .expect("a child spawned after the pin inherits it");
        assert!(verdicts.1.is_err(), "a process elsewhere must be caught");
    }
}
