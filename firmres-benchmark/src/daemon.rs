//! The daemon under test, as a separate process: this binary re-run
//! with `serve …`, which hands its arguments to the same
//! `firmres_suite::cli::run` entry point `firmres-cli serve` uses.

use firmres_service::{Client, ServiceStatus};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a daemon may take to write its port file.
const START_TIMEOUT: Duration = Duration::from_secs(30);

/// A running daemon. Dropping it kills and reaps the process; [`stop`]
/// drains it first.
///
/// [`stop`]: Daemon::stop
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
}

/// How to start a daemon: the model file, the store directory and an
/// optional known-library index.
pub struct DaemonSpec<'a> {
    pub work: &'a Path,
    pub model: &'a Path,
    pub store: &'a Path,
    pub libid: Option<&'a Path>,
}

impl Daemon {
    /// Spawn a daemon, wait until it listens, and complete a handshake.
    /// Returns the daemon and the time from spawn to listening: the
    /// daemon has loaded its model, opened its store and bound its
    /// socket. The handshake is not timed, because the accept loop polls
    /// every 10 ms and whether the first connection lands before or
    /// after its first poll would swing the time by that much.
    pub fn start(spec: &DaemonSpec) -> Result<(Daemon, Duration), String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let port_file = spec.work.join("daemon.port");
        let _ = std::fs::remove_file(&port_file);
        let mut cmd = Command::new(exe);
        cmd.arg("serve")
            .arg("127.0.0.1:0")
            .arg(spec.model)
            .arg("--cache")
            .arg(spec.store)
            .arg("--port-file")
            .arg(&port_file);
        if let Some(index) = spec.libid {
            cmd.arg("--libid").arg(index);
        }
        let t0 = Instant::now();
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        // From here on the guard reaps the child on every error path.
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let listening;
        daemon.addr = loop {
            if let Some(addr) = std::fs::read_to_string(&port_file)
                .ok()
                .and_then(|s| s.trim().parse::<SocketAddr>().ok())
            {
                listening = t0.elapsed();
                break addr;
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited before listening: {status}"));
            }
            if t0.elapsed() > START_TIMEOUT {
                return Err("daemon did not write its port file".to_string());
            }
            std::thread::sleep(Duration::from_micros(100));
        };
        Client::connect(daemon.addr).map_err(|e| format!("daemon handshake: {e}"))?;
        Ok((daemon, listening))
    }

    pub fn status(&self) -> Result<ServiceStatus, String> {
        Client::connect(self.addr)
            .and_then(|mut c| c.status())
            .map_err(|e| format!("status: {e}"))
    }

    /// Peak resident set (`VmHWM`) of the daemon process, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(self.child.id())
    }

    /// Drain the daemon and wait for the process to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let drained = Client::connect(self.addr)
            .and_then(|mut c| c.drain())
            .map_err(|e| format!("drain: {e}"));
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        drained?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `VmHWM` of process `pid` from `/proc/<pid>/status`, in MB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line".to_string())
}

/// The filesystem type the store directory lives on, from
/// `/proc/self/mountinfo` (longest mount point that prefixes the path).
pub fn filesystem_of(path: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else {
        return "unknown".to_string();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    info.lines()
        .filter_map(|line| {
            let (left, right) = line.split_once(" - ")?;
            let mount = left.split_whitespace().nth(4)?;
            let fs = right.split_whitespace().next()?;
            abs.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
        .unwrap_or_else(|| "unknown".to_string())
}
