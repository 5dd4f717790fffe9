//! What the benchmark measures: the deployment, the four workloads and every
//! metric name. `BENCHMARK.json` at the repository root is this module
//! rendered by [`manifest_json`]; a unit test keeps the two equal.

/// Servers in the deployment under test.
pub const N: usize = 4;
/// Byzantine servers tolerated.
pub const B: usize = 1;
/// `--fsync` of every server: ack-after-fsync, at most 8 records or 500 µs
/// per sync.
pub const FSYNC: &str = "group-commit:8:500";
/// The same policy for the layer walk's in-process stores.
pub const GROUP_COMMIT_BATCH: u32 = 8;
/// See [`GROUP_COMMIT_BATCH`].
pub const GROUP_COMMIT_DELAY_US: u64 = 500;
/// `--gossip-summary-every` of every server.
pub const SUMMARY_EVERY: u32 = 4;
/// Key seed shared by servers and the load generator.
pub const KEY_SEED: u64 = 0x7ea1;
/// Related-data groups in the keyspace.
pub const GROUPS: usize = 16;
/// Single-writer items per group; one operation in flight per item.
pub const SLOTS: usize = 256;
/// Zipf skew of the group choice.
pub const ZIPF: f64 = 1.1;
/// Operations in flight in the closed loop, and during preload.
pub const CLOSED_SLOTS: usize = 64;
/// Seconds of unrecorded load on each deployment before its window.
pub const WARMUP_S: f64 = 1.0;
/// Seconds measured per run, all deployments together, that the manifest
/// asks the driver for. The issue asked for 30 s; the driver's cap on total
/// time (92 runs with their set-ups in 3420 s) leaves 18 s.
pub const RUN_SECONDS: u64 = 18;
/// Deployments set up and measured per run, each for a third of the window;
/// `setup_s` is the median of their set-up times.
pub const SETUPS: usize = 3;
/// Operations of the layer walk, per pass.
pub const WALK_OPS: usize = 3000;

/// Arrival rate of `read-open` and `degraded-open`: 40 % of the closed-loop
/// goodput of the 90/10 128 B mix at 64 slots on the builder's machine
/// (median of five `calibrate` runs: 18025 ops/s), rounded down to two
/// significant digits. Frozen: later changes are measured against it.
pub const RATE_READ: f64 = 7200.0;
/// Arrival rate of `write-open`: 26 % of the closed-loop goodput of the 30/70
/// 4 KiB mix (median of five: 3797 ops/s), not the 40 % the rule gives. At
/// 1500 ops/s each server snapshots its 16 MiB every 3.9 s and 45 to 50 % of
/// all operations queue behind one of those stalls, so the median sat on the
/// knee of the latency distribution (p25 2.1 ms, p50 2.25 ms, p75 5.5 ms) and
/// moved by 24 % between identical runs on the driver's machine. At 1000
/// ops/s every window still holds one snapshot per server (every 5.9 s), a
/// fifth of the operations are behind it, and the median is in the bulk.
/// Frozen like [`RATE_READ`].
pub const RATE_WRITE: f64 = 1000.0;
/// Virtual arrival rate of `saturate-closed` in the layer walk, which has no
/// real capacity to saturate: the closed-loop goodput `RATE_READ` came from.
pub const RATE_WALK_SATURATE: f64 = 18000.0;

/// How arrivals are generated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Fixed-interval schedule at this many operations per second.
    Open(f64),
    /// [`CLOSED_SLOTS`] callers, each waiting for its reply.
    Closed,
}

/// One traffic mix against the fixed deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name used on the command line and in the manifest.
    pub name: &'static str,
    /// One line for the manifest: why the workload exists.
    pub why: &'static str,
    /// Open or closed loop.
    pub arrival: Arrival,
    /// Share of reads, in percent.
    pub read_pct: u32,
    /// Bytes per value.
    pub value_bytes: usize,
    /// Whether server `seed % N` is killed half-way through the window.
    pub kill: bool,
}

/// The four workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "read-open",
        why: "open loop at 7200 ops/s, 90% reads, 128 B values: per-message overhead dominates and the WAL is almost idle; the latency workload for the read path",
        arrival: Arrival::Open(RATE_READ),
        read_pct: 90,
        value_bytes: 128,
        kill: false,
    },
    Workload {
        name: "write-open",
        why: "open loop at 1000 ops/s, 70% writes, 4096 B values: digest, sign, verify, WAL append, fsync before ack and gossip do the work; the reads show what a write-path gain costs readers",
        arrival: Arrival::Open(RATE_WRITE),
        read_pct: 30,
        value_bytes: 4096,
        kill: false,
    },
    Workload {
        name: "saturate-closed",
        why: "closed loop, 64 operations in flight, the read-open mix: measures capacity, so a change that only frees CPU shows here and barely moves read-open latency",
        arrival: Arrival::Closed,
        read_pct: 90,
        value_bytes: 128,
        kill: false,
    },
    Workload {
        name: "degraded-open",
        why: "read-open, but server seed%4 is SIGKILLed half-way through the window: deadlines, hedging, quarantine and quorums with exactly b servers gone; no operation may fail",
        arrival: Arrival::Open(RATE_READ),
        read_pct: 90,
        value_bytes: 128,
        kill: true,
    },
];

/// The server a run with this seed kills, where the workload kills one.
pub fn victim(seed: u64) -> usize {
    (seed % N as u64) as usize
}

/// Measured values by metric name, in manifest order.
pub type Metrics = Vec<(&'static str, f64)>;

/// Finds a workload by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The manifest's spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the store would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, reported for every workload. The issue's two 99th
/// percentiles are per-layer metrics instead (`latency.*`): between identical
/// runs on the two-core sandbox they spread by 5 to 55 %, on `write-open`
/// with the length of the snapshot stalls they measure, and a driver cannot
/// hold a bound of at most 25 % on that. Each bound is about three times the
/// widest quartile spread seen between identical runs (the sandbox has noisy
/// spells in which CPU per operation spreads by 12 % and the medians by 7 %),
/// capped at 25 %.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("goodput_ops_s", "ops/s", Better::Higher, 0.15),
    e2e("read_p50_us", "us", Better::Lower, 0.20),
    e2e("write_p50_us", "us", Better::Lower, 0.20),
    e2e("ok_share", "ratio", Better::Higher, 0.001),
    e2e("server_cpu_us_per_op", "us", Better::Lower, 0.25),
    e2e("client_cpu_us_per_op", "us", Better::Lower, 0.25),
    e2e("server_rss_mb", "MiB", Better::Lower, 0.15),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// A metric of one layer (one module of this repository).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every per-layer metric. The first eighteen are read from outside the
/// server processes, by the tracing-off run; the rest come from the layer
/// walk.
pub const PER_LAYER: [PerLayer; 53] = [
    lower("latency.read_p99_us", "us"),
    lower("latency.write_p99_us", "us"),
    lower("loadgen.lag_p99_us", "us"),
    lower("loadgen.shed_arrivals", "count"),
    lower("pipeline.msgs_per_op", "count"),
    lower("pipeline.wire_bytes_per_op", "bytes"),
    lower("pipeline.hedges_per_kop", "count"),
    lower("pipeline.expired_per_kop", "count"),
    lower("pipeline.sheds_seen_per_kop", "count"),
    lower("pipeline.quarantined_links", "count"),
    lower("netserver.cpu_user_us_per_op", "us"),
    lower("netserver.cpu_sys_us_per_op", "us"),
    lower("netserver.ctx_switches_per_op", "count"),
    lower("netserver.sheds_per_kop", "count"),
    lower("netserver.dropped_frames_per_kop", "count"),
    lower("netserver.storage_faults", "count"),
    lower("storage.disk_write_bytes_per_op", "bytes"),
    lower("storage.wal_bytes_per_user_byte", "ratio"),
    lower("client.begin_ns_per_op", "ns"),
    lower("client.on_message_ns_per_msg", "ns"),
    lower("client.signs_per_op", "count"),
    lower("client.verifies_per_op", "count"),
    higher("client.verify_cached_per_op", "count"),
    lower("codec.encode_ns_per_msg", "ns"),
    lower("codec.decode_ns_per_msg", "ns"),
    lower("codec.bytes_per_msg", "bytes"),
    lower("coalesce.drain_ns_per_msg", "ns"),
    higher("coalesce.msgs_per_frame", "count"),
    lower("conn.enqueue_flush_ns_per_frame", "ns"),
    lower("conn.reassemble_ns_per_frame", "ns"),
    lower("server.handle_read_ns_per_msg", "ns"),
    lower("server.handle_write_ns_per_msg", "ns"),
    lower("server.handle_gossip_ns_per_msg", "ns"),
    lower("server.gossip_timer_ns_per_round", "ns"),
    lower("server.gossip_bytes_per_round", "bytes"),
    lower("server.flush_commits_ns_per_call", "ns"),
    higher("server.acks_per_flush", "count"),
    lower("server.verifies_per_op", "count"),
    higher("server.verify_cached_per_op", "count"),
    higher("server.batch_items_per_batch", "count"),
    lower("vcache.check_ns", "ns"),
    higher("vcache.hit_ratio", "ratio"),
    lower("crypto.sign_ns", "ns"),
    lower("crypto.verify_ns", "ns"),
    lower("crypto.verify_batch_ns_per_sig", "ns"),
    lower("crypto.digest_ns_per_kib", "ns"),
    lower("storage.append_ns_per_record", "ns"),
    lower("storage.sync_ns_per_call", "ns"),
    higher("storage.records_per_sync", "count"),
    lower("storage.appends_per_op", "count"),
    lower("storage.syncs_per_op", "count"),
    lower("trace.overhead_pct", "%"),
    higher("trace.coverage", "ratio"),
];

/// `BENCHMARK.json`, exactly as committed at the repository root.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// The `list` subcommand: every name with unit and bound.
pub fn print_list() {
    println!(
        "deployment: n={N} b={B}, {N} sstore-server processes on loopback, --fsync {FSYNC}, \
         --gossip-summary-every {SUMMARY_EVERY}, event loop, no injected delay"
    );
    println!(
        "keyspace: {GROUPS} groups x {SLOTS} items, zipf:{ZIPF} over groups, preloaded; \
         window {RUN_SECONDS} s after {WARMUP_S} s warm-up\n"
    );
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<16} {}", w.name, w.why);
    }
    println!("\nend-to-end metrics (every workload):");
    for m in &END_TO_END {
        println!(
            "  {:<26} {:<6} better {:<6} bound {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    println!("\nper-layer metrics (--trace 1):");
    for m in &PER_LAYER {
        println!(
            "  {:<36} {:<6} better {}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_fit_the_manifest_schema() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "workload name {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains(['\n', '"', '\\']));
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
        assert!(setup.is_some_and(|m| m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn committed_manifest_is_the_program_s() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest_json(), "regenerate with `manifest`");
        assert!(committed.len() <= 64 * 1024);
    }
}
