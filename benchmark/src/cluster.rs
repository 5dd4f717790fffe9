//! The deployment under test: four real `sstore-server` processes on
//! loopback, each with its own WAL directory, and the `/proc` readers that
//! observe them from outside.

use std::fs;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::spec::{B, FSYNC, KEY_SEED, N, SUMMARY_EVERY};

/// How long the four servers may take to report that they listen.
const UP_DEADLINE: Duration = Duration::from_secs(20);

/// `sysconf(_SC_CLK_TCK)`: 100 on every Linux this runs on; reading it needs
/// libc, which the workspace does not have.
const TICKS_PER_S: f64 = 100.0;

/// Where the benchmark keeps everything it writes: `out/` beside its
/// manifest, inside the checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The `sstore-server` binary beside this executable.
///
/// # Errors
///
/// The build command, when the binary is missing.
pub fn server_binary() -> Result<PathBuf, String> {
    let bin = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("sstore-server")))
        .filter(|p| p.is_file());
    bin.ok_or_else(|| {
        "sstore-server not found beside this executable; build both with\n  \
         cargo build --release --offline --manifest-path benchmark/Cargo.toml \
         -p sstore-benchmark -p sstore-net --bin sstore-benchmark --bin sstore-server"
            .to_string()
    })
}

/// Removes run directories left by benchmark processes that no longer exist
/// (killed before their guard could run).
pub fn sweep_stale_runs() {
    let Ok(entries) = fs::read_dir(out_dir()) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let pid = name.to_str().and_then(|n| n.strip_prefix("run-"));
        if pid.is_some_and(|pid| !Path::new("/proc").join(pid).exists()) {
            let _ = fs::remove_dir_all(entry.path());
        }
    }
}

/// The last `--stats-every` line a server printed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// WAL append/fsync failures and deferred-ack cap rejections.
    pub storage_faults: u64,
    /// Frames dropped at write-queue backpressure caps.
    pub dropped_frames: u64,
    /// Requests refused with an explicit shed reply.
    pub sheds: u64,
}

/// Parses `sstore-server N: stats storage_faults=A dropped_frames=B sheds=C`.
pub fn parse_stats_line(line: &str) -> Option<ServerStats> {
    let (_, fields) = line.split_once(": stats ")?;
    let mut stats = ServerStats::default();
    for field in fields.split_whitespace() {
        let (key, value) = field.split_once('=')?;
        let value: u64 = value.parse().ok()?;
        match key {
            "storage_faults" => stats.storage_faults = value,
            "dropped_frames" => stats.dropped_frames = value,
            "sheds" => stats.sheds = value,
            _ => {}
        }
    }
    Some(stats)
}

/// What the stdout reader has learnt about one server.
#[derive(Debug, Default)]
struct Seen {
    listening: bool,
    stats: ServerStats,
}

struct Server {
    child: Child,
    seen: Arc<Mutex<Seen>>,
    reader: Option<JoinHandle<()>>,
    /// Set by [`Cluster::kill`]: the server's counters as it died.
    killed: Option<ProcSample>,
}

/// Resource counters of one process, cumulative since it started.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// Time on a processor, µs, from the scheduler's nanosecond accounting
    /// of the live threads.
    pub cpu_us: f64,
    /// User-mode CPU, µs, in 10 ms clock ticks: only the split is used.
    pub user_us: f64,
    /// Kernel-mode CPU, µs, in 10 ms clock ticks.
    pub sys_us: f64,
    /// Voluntary plus involuntary context switches of every thread.
    pub ctx_switches: f64,
    /// Bytes the process caused to be written to the storage layer.
    pub write_bytes: f64,
    /// Peak resident set, KiB.
    pub hwm_kib: f64,
}

impl ProcSample {
    /// `f` of the two samples, field by field: their sum over processes
    /// (peak memory adds too, the processes coexist) or their difference
    /// over a window.
    pub fn zip(self, o: ProcSample, f: impl Fn(f64, f64) -> f64) -> ProcSample {
        ProcSample {
            cpu_us: f(self.cpu_us, o.cpu_us),
            user_us: f(self.user_us, o.user_us),
            sys_us: f(self.sys_us, o.sys_us),
            ctx_switches: f(self.ctx_switches, o.ctx_switches),
            write_bytes: f(self.write_bytes, o.write_bytes),
            hwm_kib: f(self.hwm_kib, o.hwm_kib),
        }
    }
}

/// Splits `/proc/<pid>/stat` after the parenthesised command name, which may
/// itself contain spaces; field 14 (utime) is then index 11.
fn stat_ticks(stat: &str) -> Option<(u64, u64)> {
    let rest = stat.rsplit_once(") ")?.1;
    let mut fields = rest.split_whitespace().skip(11);
    Some((fields.next()?.parse().ok()?, fields.next()?.parse().ok()?))
}

fn status_field(text: &str, key: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Samples process `pid` (`"self"` for the caller). Files that cannot be
/// read count as zero, so an exited process reads as no further use.
pub fn sample_proc(pid: &str) -> ProcSample {
    let read = |file: &str| fs::read_to_string(format!("/proc/{pid}/{file}")).unwrap_or_default();
    let (utime, stime) = stat_ticks(&read("stat")).unwrap_or((0, 0));
    let status = read("status");
    // Scheduler accounting is per thread; the event loop is not the main one.
    let (mut cpu_ns, mut ctx_switches) = (0.0, 0.0);
    for task in fs::read_dir(format!("/proc/{pid}/task"))
        .into_iter()
        .flatten()
        .flatten()
    {
        let text = fs::read_to_string(task.path().join("status")).unwrap_or_default();
        ctx_switches += status_field(&text, "voluntary_ctxt_switches:")
            + status_field(&text, "nonvoluntary_ctxt_switches:");
        let sched = fs::read_to_string(task.path().join("schedstat")).unwrap_or_default();
        cpu_ns += sched
            .split_whitespace()
            .next()
            .and_then(|ns| ns.parse::<f64>().ok())
            .unwrap_or(0.0);
    }
    ProcSample {
        cpu_us: cpu_ns / 1e3,
        user_us: utime as f64 * 1e6 / TICKS_PER_S,
        sys_us: stime as f64 * 1e6 / TICKS_PER_S,
        ctx_switches,
        write_bytes: status_field(&read("io"), "write_bytes:"),
        hwm_kib: status_field(&status, "VmHWM:"),
    }
}

/// Four running servers. Dropping the cluster kills every server still
/// alive, waits for it, joins its stdout reader and removes the data
/// directories — on return, on error and on panic alike. A server orphaned
/// by a SIGKILL of the benchmark dies on its next stats line (its stdout
/// pipe is gone), and [`sweep_stale_runs`] removes its directory next time.
pub struct Cluster {
    servers: Vec<Server>,
    addrs: Vec<SocketAddr>,
    root: PathBuf,
}

impl Cluster {
    /// Spawns the deployment on ephemeral loopback ports with fresh data
    /// directories and waits until every server listens.
    ///
    /// # Errors
    ///
    /// Anything that keeps the four servers from coming up.
    pub fn start(server_bin: &Path, tag: &str) -> Result<Cluster, String> {
        let root = out_dir()
            .join(format!("run-{}", std::process::id()))
            .join(tag);
        fs::create_dir_all(&root).map_err(|e| format!("cannot create {}: {e}", root.display()))?;
        // Reserve the ports, then release them for the servers to bind.
        let addrs: Vec<SocketAddr> = {
            let listeners: Result<Vec<TcpListener>, _> =
                (0..N).map(|_| TcpListener::bind("127.0.0.1:0")).collect();
            let listeners = listeners.map_err(|e| format!("cannot bind loopback: {e}"))?;
            let addrs: Result<Vec<SocketAddr>, _> =
                listeners.iter().map(TcpListener::local_addr).collect();
            addrs.map_err(|e| format!("no local address: {e}"))?
        };
        let peers = addrs
            .iter()
            .map(SocketAddr::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let mut cluster = Cluster {
            servers: Vec::new(),
            addrs,
            root,
        };
        for id in 0..N {
            let data_dir = cluster.root.join(format!("s{id}"));
            let mut child = Command::new(server_bin)
                .args(["--id", &id.to_string(), "--b", &B.to_string()])
                .args(["--listen", &cluster.addrs[id].to_string()])
                .args(["--peers", &peers, "--clients", "1"])
                .args(["--key-seed", &format!("{KEY_SEED:#x}")])
                .args(["--data-dir", &data_dir.display().to_string()])
                .args(["--fsync", FSYNC])
                .args(["--gossip-summary-every", &SUMMARY_EVERY.to_string()])
                .args(["--serving", "event-loop", "--stats-every", "1"])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| format!("cannot spawn {}: {e}", server_bin.display()))?;
            let seen = Arc::new(Mutex::new(Seen::default()));
            let reader = child.stdout.take().map(|out| {
                let seen = seen.clone();
                std::thread::spawn(move || {
                    for line in BufReader::new(out).lines().map_while(Result::ok) {
                        let mut seen = seen.lock().unwrap_or_else(PoisonError::into_inner);
                        if line.contains(" listening on ") {
                            seen.listening = true;
                        } else if let Some(stats) = parse_stats_line(&line) {
                            seen.stats = stats;
                        }
                    }
                })
            });
            cluster.servers.push(Server {
                child,
                seen,
                reader,
                killed: None,
            });
        }
        let deadline = Instant::now() + UP_DEADLINE;
        while !cluster.servers.iter().all(|s| {
            s.seen
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .listening
        }) {
            cluster.check_alive()?;
            if Instant::now() >= deadline {
                return Err("servers did not come up within 20 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(cluster)
    }

    /// Listen addresses in server-id order.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// SIGKILLs server `id`; it stays down. The caller is the load
    /// generator, so this does not wait for the process to go: the drop
    /// guard reaps it.
    pub fn kill(&mut self, id: usize) {
        if let Some(s) = self.servers.get_mut(id) {
            // `/proc/<pid>` goes with the process: keep what it used.
            s.killed = Some(sample_proc(&s.child.id().to_string()));
            let _ = s.child.kill();
        }
    }

    /// Fails if a server this benchmark did not kill has exited.
    ///
    /// # Errors
    ///
    /// Names the server and its exit status.
    pub fn check_alive(&mut self) -> Result<(), String> {
        for (id, s) in self.servers.iter_mut().enumerate() {
            if s.killed.is_some() {
                continue;
            }
            match s.child.try_wait() {
                Ok(None) => {}
                Ok(Some(status)) => return Err(format!("server {id} exited early: {status}")),
                Err(e) => return Err(format!("server {id}: {e}")),
            }
        }
        Ok(())
    }

    /// Sum of the servers' resource counters.
    pub fn sample(&self) -> ProcSample {
        self.servers
            .iter()
            .map(|s| {
                s.killed
                    .unwrap_or_else(|| sample_proc(&s.child.id().to_string()))
            })
            .fold(ProcSample::default(), |sum, s| sum.zip(s, |a, b| a + b))
    }

    /// Sum of the servers' latest stats lines.
    pub fn stats(&self) -> ServerStats {
        let mut sum = ServerStats::default();
        for s in &self.servers {
            let seen = s.seen.lock().unwrap_or_else(PoisonError::into_inner);
            sum.storage_faults += seen.stats.storage_faults;
            sum.dropped_frames += seen.stats.dropped_frames;
            sum.sheds += seen.stats.sheds;
        }
        sum
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for s in &mut self.servers {
            let _ = s.child.kill();
            let _ = s.child.wait();
            if let Some(reader) = s.reader.take() {
                let _ = reader.join();
            }
        }
        let _ = fs::remove_dir_all(&self.root);
        // The per-process parent goes once its last cluster is gone.
        if let Some(parent) = self.root.parent() {
            let _ = fs::remove_dir(parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_line_parses() {
        let line = "sstore-server 2: stats storage_faults=1 dropped_frames=20 sheds=300";
        assert_eq!(
            parse_stats_line(line),
            Some(ServerStats {
                storage_faults: 1,
                dropped_frames: 20,
                sheds: 300
            })
        );
        assert_eq!(
            parse_stats_line("sstore-server 2/4 (b=1) listening on x"),
            None
        );
        assert_eq!(parse_stats_line("sstore-server 2: stats sheds=x"), None);
    }

    #[test]
    fn stat_fields_survive_spaces_in_the_command_name() {
        let stat = "42 (a b) c) S 1 42 42 0 -1 4194560 95 0 0 0 7 3 0 0 20 0 2 0 100 200 50";
        assert_eq!(stat_ticks(stat), Some((7, 3)));
        let me = sample_proc("self");
        assert!(me.hwm_kib > 0.0, "VmHWM of this process");
    }
}
