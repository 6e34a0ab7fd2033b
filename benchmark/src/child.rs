//! The spawned `alicoco-serve` process: port choice, readiness polling,
//! `/proc` readings, graceful stop, and a `Drop` guard that kills it if the
//! harness leaves by any other door. A server that is not ready, or does
//! not drain, within its deadline is an error — the run fails, it never
//! hangs and never leaves a process behind.

use std::fs::{self, File};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::client::Conn;

const READY_DEADLINE: Duration = Duration::from_secs(30);
const STOP_DEADLINE: Duration = Duration::from_secs(10);

pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    spawned: Instant,
}

fn failed(msg: String) -> io::Error {
    io::Error::other(msg)
}

impl Server {
    /// Start `binary` on `snapshot` with `workers` worker threads, on a
    /// port found by binding `:0` and releasing it. The server's stderr
    /// goes to `log`.
    pub fn spawn(binary: &Path, snapshot: &Path, workers: usize, log: &Path) -> io::Result<Server> {
        let addr = TcpListener::bind("127.0.0.1:0")?.local_addr()?;
        let spawned = Instant::now();
        let child = Command::new(binary)
            .arg(snapshot)
            .args(["--addr", &addr.to_string()])
            .args(["--workers", &workers.to_string()])
            .arg("--shutdown-on-stdin")
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(File::create(log)?)
            .spawn()?;
        Ok(Server {
            child,
            addr,
            spawned,
        })
    }

    /// Ask for `probe` every millisecond until the server accepts the
    /// connection; the reply must be a `200`. Returns the time since
    /// `spawn` and the reply body.
    pub fn wait_ready(&mut self, probe: &str) -> io::Result<(Duration, Vec<u8>)> {
        let mut conn = Conn::new(self.addr);
        loop {
            match conn.get(probe) {
                Ok(reply) if reply.status == 200 => {
                    return Ok((self.spawned.elapsed(), conn.body(&reply).to_vec()));
                }
                Ok(reply) => {
                    return Err(failed(format!(
                        "{probe} answered {} at start-up",
                        reply.status
                    )));
                }
                Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {}
                Err(e) => return Err(e),
            }
            if let Some(status) = self.child.try_wait()? {
                return Err(failed(format!(
                    "alicoco-serve exited at start-up: {status}"
                )));
            }
            if self.spawned.elapsed() > READY_DEADLINE {
                return Err(failed(format!(
                    "alicoco-serve not ready in {READY_DEADLINE:?}"
                )));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// CPU time the server's threads have run so far, in µs: the first
    /// field of each `/proc/<pid>/task/<tid>/schedstat`, which counts
    /// nanoseconds where `/proc/<pid>/stat` counts 10 ms ticks. The server
    /// keeps its threads for life, so none drops out of the sum.
    pub fn cpu_us(&self) -> io::Result<f64> {
        let mut ns = 0u64;
        for task in fs::read_dir(format!("/proc/{}/task", self.child.id()))? {
            let schedstat = fs::read_to_string(task?.path().join("schedstat"))?;
            ns += parse_run_ns(&schedstat)
                .ok_or_else(|| failed(format!("unreadable schedstat: {schedstat:?}")))?;
        }
        Ok(ns as f64 / 1e3)
    }

    /// Peak resident set (`VmHWM`) of the server process, in MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        parse_vm_hwm_kb(&status)
            .map(|kb| kb as f64 / 1024.0)
            .ok_or_else(|| failed("no VmHWM in /proc/<pid>/status".into()))
    }

    /// Close the server's stdin, which makes it drain and exit, and wait
    /// for a clean exit.
    pub fn stop(mut self) -> io::Result<()> {
        drop(self.child.stdin.take());
        let asked = Instant::now();
        loop {
            match self.child.try_wait()? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(failed(format!("alicoco-serve exited with {status}"))),
                None if asked.elapsed() > STOP_DEADLINE => {
                    return Err(failed(format!(
                        "alicoco-serve still running {STOP_DEADLINE:?} after stdin closed"
                    )));
                }
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }
}

impl Drop for Server {
    /// Reached with a live child only on an error or panic path (`stop`
    /// reaps it otherwise): kill, then reap.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Nanoseconds on a CPU: the first field of a `schedstat` file.
fn parse_run_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_ascii_whitespace().next()?.parse().ok()
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_run_time_is_the_first_field() {
        assert_eq!(parse_run_ns("505608123 13014592 40\n"), Some(505_608_123));
        assert_eq!(parse_run_ns(""), None);
        assert_eq!(parse_run_ns("garbage 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\talicoco-serve\nVmPeak:\t  900000 kB\nVmHWM:\t  501234 kB\nVmRSS:\t  400000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(501_234));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn own_process_is_readable() {
        let schedstat = fs::read_to_string("/proc/self/task/self/schedstat")
            .or_else(|_| fs::read_to_string("/proc/self/schedstat"))
            .unwrap();
        assert!(parse_run_ns(&schedstat).is_some());
        let status = fs::read_to_string("/proc/self/status").unwrap();
        assert!(parse_vm_hwm_kb(&status).unwrap() > 0);
    }
}
