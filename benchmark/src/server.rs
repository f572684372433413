//! The thin server child and the parent's handle on it.
//!
//! The child is this same executable run as `rexbench serve --engine E`:
//! a `Session` with the paper's two delta handlers registered, behind
//! `rex_server::Server` with its default configuration except that
//! `threads` is the core count. It reads no `REX_*` toggles. The parent
//! talks to it only over TCP, and reads its CPU time and peak memory from
//! `/proc`.

use crate::api::e2e::{Client, FlippedJoin, PrAgg, Server, ServerConfig, Session, SpAgg};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

pub type Result<T> = std::result::Result<T, String>;

/// Propagation threshold of Listing 1's `PRAgg`: rank changes of at most
/// 1% are absorbed.
pub const PAGERANK_DELTA: f64 = 0.01;

/// A session on `engine` (`local` or `cluster:N`) with `PRAgg` and `SPAgg`
/// registered as the listings use them (`FROM graph, PR` puts the state
/// relation on the right, hence flipped).
pub fn session(engine: &str) -> Result<Session> {
    let mut s = match engine.strip_prefix("cluster:") {
        None if engine == "local" => Session::local(),
        Some(n) => Session::cluster(n.parse().map_err(|_| format!("bad engine {engine:?}"))?),
        None => return Err(format!("bad engine {engine:?} (local | cluster:N)")),
    };
    s.register_join("PRAgg", Arc::new(FlippedJoin(Arc::new(PrAgg::delta(PAGERANK_DELTA)))));
    s.register_join("SPAgg", Arc::new(FlippedJoin(Arc::new(SpAgg { delta_mode: true }))));
    Ok(s)
}

/// The server configuration every workload is served with.
pub fn server_config() -> ServerConfig {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    ServerConfig { threads, ..ServerConfig::default() }
}

/// Body of `rexbench serve`: bind an ephemeral port, announce it, serve
/// until a client sends `SHUTDOWN`.
pub fn serve(engine: &str) -> Result<()> {
    let server = Server::start(session(engine)?, "127.0.0.1:0", server_config())
        .map_err(|e| e.to_string())?;
    println!("LISTENING {}", server.local_addr());
    server.wait().map_err(|e| e.to_string())
}

/// A running server child. Dropping it kills the child if it was not shut
/// down, so no process outlives the benchmark on an error path.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
}

impl ServerProc {
    pub fn spawn(engine: &str) -> Result<ServerProc> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(["serve", "--engine", engine])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server child: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout was piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line.trim().strip_prefix("LISTENING ").and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(ServerProc { child, addr }),
            (r, _) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server child did not announce its address: {r:?} {line:?}"))
            }
        }
    }

    pub fn connect(&self) -> Result<Client> {
        Client::connect(self.addr).map(|(c, _)| c).map_err(|e| e.to_string())
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User plus system CPU seconds the child has consumed so far.
    pub fn cpu_seconds(&self) -> Result<f64> {
        cpu_seconds(&format!("/proc/{}/stat", self.pid()))
    }

    /// Peak resident set size so far (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64> {
        let path = format!("/proc/{}/status", self.pid());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        text.lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }

    /// Ask the server to shut down and wait for the child to exit.
    pub fn shutdown(mut self) -> Result<()> {
        self.connect()?.shutdown_server().map_err(|e| e.to_string())?;
        let status = self.child.wait().map_err(|e| format!("wait for server child: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server child exited with {status}"))
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// CPU seconds of this (driver) process.
pub fn self_cpu_seconds() -> Result<f64> {
    cpu_seconds("/proc/self/stat")
}

/// utime + stime from a `/proc/<pid>/stat` file. The fields are in clock
/// ticks; Linux reports them to user space at 100 per second on every
/// architecture.
fn cpu_seconds(path: &str) -> Result<f64> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = text.rsplit_once(')').map(|(_, r)| r).ok_or_else(|| format!("{path}: no comm"))?;
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => Ok((u + s) / 100.0),
        _ => Err(format!("{path}: short stat line")),
    }
}
