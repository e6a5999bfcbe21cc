//! The server child process: the benchmark re-executes itself with
//! `--serve --db DIR`, which does nothing but open the directory durably
//! and serve it with the shipped defaults — no flags set.

use snapshot_server::{Client, Server, ServerConfig};
use snapshot_session::{PersistenceOptions, SharedDatabase};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The child's main: `SharedDatabase::open_durable` + `Server::run` with
/// `ServerConfig::default()` and `PersistenceOptions::default()` (sync
/// `Always`, checkpoint every 64 statements, parallelism 1). Prints the
/// bound address, then serves until killed or asked to shut down.
pub fn serve(db: &Path) -> Result<(), String> {
    let config = ServerConfig::default();
    let (shared, _report) =
        SharedDatabase::open_durable(db, config.options, PersistenceOptions::default())?;
    let server = Server::bind(shared, "127.0.0.1:0", config).map_err(|e| e.to_string())?;
    let mut out = std::io::stdout();
    writeln!(out, "LISTEN {}", server.local_addr()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    server.run().map(|_| ())
}

/// A running server child. Dropping it kills the process and waits for it,
/// so no run can leave a server behind.
#[derive(Debug)]
pub struct Child {
    proc: std::process::Child,
    pub addr: SocketAddr,
    /// When the process was spawned (recovery time is measured from here).
    pub spawned: Instant,
}

impl Child {
    /// Spawns the child on `db` and waits for its listen address.
    pub fn spawn(db: &Path) -> Result<Child, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let spawned = Instant::now();
        let mut proc = Command::new(exe)
            .arg("--serve")
            .arg("--db")
            .arg(db)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn the server child: {e}"))?;
        let stdout = proc.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = match (read, line.trim().strip_prefix("LISTEN ")) {
            (Ok(n), Some(addr)) if n > 0 => addr.parse::<SocketAddr>().ok(),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = proc.kill();
            let _ = proc.wait();
            return Err(format!(
                "server child did not report a listen address (got {line:?})"
            ));
        };
        Ok(Child {
            proc,
            addr,
            spawned,
        })
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect_timeout(&self.addr, Duration::from_secs(10)).map_err(|e| e.to_string())
    }

    /// `kill -9`, then reap.
    pub fn kill9(mut self) {
        let _ = self.proc.kill();
        let _ = self.proc.wait();
    }

    /// User + system CPU the child has consumed so far, in milliseconds
    /// (`/proc/<pid>/stat` fields 14 and 15).
    pub fn cpu_ms(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.proc.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // The command name (field 2) may contain spaces; fields resume
        // after its closing parenthesis.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest)
            .ok_or_else(|| format!("{path}: unexpected format"))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| format!("{path}: missing field"))
        };
        // `rest` starts at field 3, so fields 14/15 are at offsets 11/12.
        Ok((ticks(11)? + ticks(12)?) * 1e3 / clock_ticks_per_second())
    }

    /// The child's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.proc.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        let _ = self.proc.kill();
        let _ = self.proc.wait();
    }
}

/// `getconf CLK_TCK` (100 on every mainstream Linux; asked once anyway).
fn clock_ticks_per_second() -> f64 {
    static TICKS: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *TICKS.get_or_init(|| {
        Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse::<f64>().ok())
            .filter(|t| *t > 0.0)
            .unwrap_or(100.0)
    })
}
