//! `matchd` as a child process: spawn, discover its ephemeral port from
//! the addr-file, read its memory high-water mark, and make sure it is
//! gone before the harness exits.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::affinity::Placement;
use crate::spec::DAEMON_QUEUE;

/// How long a daemon gets to bind and write its addr-file.
const SPAWN_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a `--once` daemon gets to exit after its last connection
/// closed before it is killed (and the pass counted as failed).
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);

static NEXT_ADDR_FILE: AtomicU64 = AtomicU64::new(0);

/// Where the daemon binary is, where addr-files may be written, and which
/// CPU harness and daemons share.
#[derive(Debug, Clone)]
pub struct DaemonEnv {
    pub matchd: PathBuf,
    pub scratch: PathBuf,
    pub placement: Placement,
}

/// A running `matchd --once` child. Dropping it kills the process if it
/// is still alive, so no daemon outlives the harness on any exit path.
pub struct Daemon {
    child: Child,
    pub addr: String,
    addr_file: PathBuf,
}

impl Daemon {
    /// `matchd --once --addr 127.0.0.1:0 --addr-file F --queue Q
    /// [--shards N] [--no-telemetry]` — every other flag stays at its
    /// default (see [`DAEMON_QUEUE`] for why `--queue` does not). The
    /// process inherits the harness's CPU, and that is checked.
    pub fn spawn(env: &DaemonEnv, shards: usize, telemetry: bool) -> io::Result<Daemon> {
        let addr_file = env.scratch.join(format!(
            "matchd-{}-{}.addr",
            std::process::id(),
            NEXT_ADDR_FILE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_file(&addr_file);
        let mut cmd = Command::new(&env.matchd);
        cmd.args(["--once", "--addr", "127.0.0.1:0", "--addr-file"])
            .arg(&addr_file)
            .args(["--queue", &DAEMON_QUEUE.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        if shards > 1 {
            cmd.args(["--shards", &shards.to_string()]);
        }
        if !telemetry {
            cmd.arg("--no-telemetry");
        }
        let child = cmd.spawn().map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("cannot spawn {}: {e}", env.matchd.display()),
            )
        })?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            addr_file,
        };
        env.placement.verify(daemon.child.id())?;
        daemon.addr = daemon.wait_for_addr()?;
        Ok(daemon)
    }

    /// Poll the addr-file every millisecond (matchd renames it into place
    /// atomically, so a non-empty read is a whole address).
    fn wait_for_addr(&mut self) -> io::Result<String> {
        let started = Instant::now();
        loop {
            if let Ok(addr) = std::fs::read_to_string(&self.addr_file) {
                if !addr.is_empty() {
                    return Ok(addr);
                }
            }
            if let Some(status) = self.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "matchd exited before listening: {status}"
                )));
            }
            if started.elapsed() > SPAWN_TIMEOUT {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "matchd did not write its addr-file in time",
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The daemon's peak resident set so far, MiB (`VmHWM` in
    /// `/proc/<pid>/status`) — the paper's memory metric for the serving
    /// process.
    pub fn peak_rss_mib(&mut self) -> io::Result<f64> {
        if let Some(status) = self.child.try_wait()? {
            return Err(io::Error::other(format!(
                "matchd exited mid-session: {status}"
            )));
        }
        vm_hwm_mib(Path::new(&format!("/proc/{}/status", self.child.id())))
    }

    /// Wait for a `--once` daemon to exit on its own after every
    /// connection closed. `Ok(true)` = clean exit in time.
    pub fn wait_exit(mut self) -> io::Result<bool> {
        let started = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait()? {
                return Ok(status.success());
            }
            if started.elapsed() > EXIT_TIMEOUT {
                return Ok(false); // Drop kills it
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.addr_file);
    }
}

fn vm_hwm_mib(status: &Path) -> io::Result<f64> {
    let text = std::fs::read_to_string(status)?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other(format!("no VmHWM line in {}", status.display())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_high_water_mark() {
        let mib = vm_hwm_mib(Path::new("/proc/self/status")).unwrap();
        assert!(mib > 0.5, "a test process uses more than half a MiB: {mib}");
    }
}
