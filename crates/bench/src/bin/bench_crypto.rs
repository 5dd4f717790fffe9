//! Wall-clock crypto micro-benchmark with a persistent record.
//!
//! Times Schnorr sign / verify (and the schoolbook verify baseline the
//! Montgomery rewrite replaced) at every preset group size, plus SHA-256
//! and HMAC-SHA-256 over the same payload the signatures cover, and appends
//! one entry to `BENCH_crypto.json` at the repository root, so the perf
//! history of the signature hot path survives across changes.
//! EXPERIMENTS.md quotes these numbers (F3: signatures against MACs; F9:
//! the verify speedup).
//!
//! Usage: `cargo run --release -p sstore-bench --bin bench_crypto
//! [-- --out PATH] [--note TEXT]`

use std::hint::black_box;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use sstore_crypto::hmac::hmac_sha256;
use sstore_crypto::schnorr::{SchnorrParams, SigningKey};
use sstore_crypto::sha256::digest;

/// Bytes signed, verified, hashed and MACed by every timing.
const PAYLOAD_BYTES: usize = 256;

/// Median-of-runs nanoseconds per operation. One untimed warmup call, then
/// enough iterations to spend ~100ms or `max_iters`, whichever is first.
fn time_ns(mut op: impl FnMut(), max_iters: u32) -> u64 {
    op(); // warmup (also builds any lazy tables)
    let probe = Instant::now();
    op();
    let est = probe.elapsed().as_nanos().max(1);
    let iters = ((100_000_000 / est) as u32).clamp(3, max_iters);
    let mut samples: Vec<u64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            op();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

struct GroupResult {
    label: &'static str,
    p_bits: usize,
    q_bits: usize,
    sign_ns: u64,
    verify_ns: u64,
    verify_schoolbook_ns: u64,
}

fn measure(label: &'static str, params: std::sync::Arc<SchnorrParams>) -> GroupResult {
    let key = SigningKey::from_seed(&params, 1);
    let vk = key.verifying_key().clone();
    let msg = vec![0x11u8; PAYLOAD_BYTES];
    let sig = key.sign(&msg);
    let sign_ns = time_ns(
        || {
            key.sign(&msg);
        },
        500,
    );
    let verify_ns = time_ns(
        || {
            vk.verify(&msg, &sig).unwrap();
        },
        500,
    );
    let verify_schoolbook_ns = time_ns(
        || {
            vk.verify_schoolbook(&msg, &sig).unwrap();
        },
        100,
    );
    GroupResult {
        label,
        p_bits: params.modulus().bit_len(),
        q_bits: params.order().bit_len(),
        sign_ns,
        verify_ns,
        verify_schoolbook_ns,
    }
}

/// SHA-256 and HMAC-SHA-256 ns over the signed payload: the cheap end of
/// F3's "signatures dominate, MACs are cheap" ratio.
fn measure_hashes() -> (u64, u64) {
    let msg = vec![0x11u8; PAYLOAD_BYTES];
    let sha256_ns = time_ns(
        || {
            black_box(digest(black_box(&msg)));
        },
        10_000,
    );
    let hmac_ns = time_ns(
        || {
            black_box(hmac_sha256(b"pairwise key", black_box(&msg)));
        },
        10_000,
    );
    (sha256_ns, hmac_ns)
}

fn entry_json(
    results: &[GroupResult],
    (sha256_ns, hmac_sha256_ns): (u64, u64),
    note: &str,
) -> String {
    let recorded = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut out = String::new();
    out.push_str("  {\n");
    out.push_str(&format!("    \"recorded_unix\": {recorded},\n"));
    out.push_str(&format!("    \"note\": \"{}\",\n", note.replace('"', "'")));
    out.push_str(&format!(
        "    \"payload_bytes\": {PAYLOAD_BYTES}, \"sha256_ns\": {sha256_ns}, \
         \"hmac_sha256_ns\": {hmac_sha256_ns},\n"
    ));
    out.push_str("    \"groups\": [\n");
    for (i, r) in results.iter().enumerate() {
        let speedup = r.verify_schoolbook_ns as f64 / r.verify_ns.max(1) as f64;
        out.push_str(&format!(
            "      {{\"group\": \"{}\", \"p_bits\": {}, \"q_bits\": {}, \
             \"sign_ns\": {}, \"verify_ns\": {}, \"verify_schoolbook_ns\": {}, \
             \"verify_speedup\": {:.2}}}{}\n",
            r.label,
            r.p_bits,
            r.q_bits,
            r.sign_ns,
            r.verify_ns,
            r.verify_schoolbook_ns,
            speedup,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("    ]\n  }");
    out
}

/// Appends `entry` to the JSON array in `path`, creating the file if absent.
fn append_entry(path: &str, entry: &str) -> std::io::Result<()> {
    let new_content = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let trimmed = existing.trim_end();
            let without_close = trimmed
                .strip_suffix(']')
                .map(str::trim_end)
                .unwrap_or(trimmed);
            if without_close.trim() == "[" {
                format!("[\n{entry}\n]\n")
            } else {
                format!("{without_close},\n{entry}\n]\n")
            }
        }
        Err(_) => format!("[\n{entry}\n]\n"),
    };
    std::fs::write(path, new_content)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let arg_after = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out = arg_after("--out")
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_crypto.json").into());
    let note = arg_after("--note").unwrap_or_else(|| {
        "montgomery + fixed-base verify; schoolbook column = pre-Montgomery baseline".into()
    });

    let groups = [
        ("micro-128", SchnorrParams::micro()),
        ("toy-256", SchnorrParams::toy()),
        ("group-512", SchnorrParams::group_512()),
        ("group-1024", SchnorrParams::group_1024()),
    ];
    let mut results = Vec::new();
    for (label, params) in groups {
        eprintln!("measuring {label}...");
        let r = measure(label, params);
        eprintln!(
            "  sign {} ns  verify {} ns  verify-schoolbook {} ns  ({:.1}x)",
            r.sign_ns,
            r.verify_ns,
            r.verify_schoolbook_ns,
            r.verify_schoolbook_ns as f64 / r.verify_ns.max(1) as f64
        );
        results.push(r);
    }
    let entry = entry_json(&results, measure_hashes(), &note);
    append_entry(&out, &entry).expect("write BENCH_crypto.json");
    println!("{entry}");
    println!("appended to {out}");
}
