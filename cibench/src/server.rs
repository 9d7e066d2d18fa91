//! The `easeml-ci serve` process under test: spawn, stop, restart, and
//! what the benchmark reads from it (`/metrics`, peak memory).

use crate::client::{request_bytes, Conn};
use easeml_serve::obs::expo::{self, Exposition};
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Durability mode every run uses (the server's default).
pub const DURABILITY: &str = "group";

/// A running server. Dropping it kills the process and waits for it, so
/// no server outlives the benchmark, even when a check panics.
#[derive(Debug)]
pub struct ServerProc {
    child: Child,
    /// Kept open so the server never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The bound address.
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Start `bin serve` on an ephemeral port over `data_dir` and wait
    /// for its `listening on` line, which it prints once its data
    /// directory is recovered and the socket is bound.
    ///
    /// # Errors
    ///
    /// Spawn failures, or a server that exits before listening.
    pub fn spawn(bin: &Path, data_dir: &Path) -> io::Result<ServerProc> {
        let mut child = Command::new(bin)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--durability", DURABILITY])
            .arg("--data-dir")
            .arg(data_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = read.ok().and_then(|_| {
            line.strip_prefix("listening on ")?
                .split_whitespace()
                .next()?
                .parse::<SocketAddr>()
                .ok()
        });
        match addr {
            Some(addr) => Ok(ServerProc {
                child,
                _stdout: stdout,
                addr,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "server did not report its address (first line: {line:?})"
                )))
            }
        }
    }

    /// Spawn and wait for the first `200` from `/healthz`; returns the
    /// server and the time from spawn to that response.
    ///
    /// # Errors
    ///
    /// Spawn failures and a non-200 health check.
    pub fn spawn_ready(bin: &Path, data_dir: &Path) -> io::Result<(ServerProc, Duration)> {
        let start = Instant::now();
        let server = ServerProc::spawn(bin, data_dir)?;
        let reply =
            Conn::connect(server.addr)?.roundtrip(&request_bytes("GET", "/healthz", None))?;
        let elapsed = start.elapsed();
        if reply.status != 200 {
            return Err(io::Error::other(format!(
                "/healthz answered {}: {}",
                reply.status,
                reply.text()
            )));
        }
        Ok((server, elapsed))
    }

    /// Peak resident set size (`VmHWM`) in MB.
    ///
    /// # Errors
    ///
    /// When `/proc/<pid>/status` cannot be read or lacks the field.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM line"))
    }

    /// Parse a `GET /metrics` scrape.
    ///
    /// # Errors
    ///
    /// Transport failures, a non-200 answer, or an unparsable body.
    pub fn scrape(&self) -> io::Result<Exposition> {
        let reply = Conn::connect(self.addr)?.roundtrip(&request_bytes("GET", "/metrics", None))?;
        if reply.status != 200 {
            return Err(io::Error::other(format!(
                "/metrics answered {}",
                reply.status
            )));
        }
        expo::parse(&reply.text()).map_err(io::Error::other)
    }

    /// Kill the process (SIGKILL, a crash from the store's point of
    /// view) and wait for it to exit.
    ///
    /// # Errors
    ///
    /// When the kill or the wait fails.
    pub fn kill(mut self) -> io::Result<()> {
        self.child.kill()?;
        self.child.wait()?;
        Ok(())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // Already reaped by `kill` in the normal path; errors here only
        // mean the process is gone.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Filesystem type of the mount holding `path`, from
/// `/proc/self/mountinfo` (longest mount point that prefixes the path).
#[must_use]
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(dash) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(dash + 1)) else {
            continue;
        };
        let mount = PathBuf::from(mount.replace("\\040", " "));
        if path.starts_with(&mount) {
            let depth = mount.components().count();
            if best.as_ref().is_none_or(|(d, _)| depth >= *d) {
                best = Some((depth, (*fstype).to_owned()));
            }
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fstype)| fstype)
}

/// Whether a filesystem type is RAM-backed.
#[must_use]
pub fn ram_backed(fstype: &str) -> bool {
    matches!(fstype, "tmpfs" | "ramfs")
}

/// Whether the fsync-eliding shim (`cibench/nofsync`) is preloaded into
/// this process, and so into every server it starts.
#[must_use]
pub fn flushes_elided() -> bool {
    std::fs::read_to_string("/proc/self/maps").is_ok_and(|maps| maps.contains("cibench_nofsync"))
}
