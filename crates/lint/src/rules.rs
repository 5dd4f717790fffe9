//! The invariant rules. L1–L5 are token-pattern checks over
//! [`crate::lexer`] output; L6–L10 additionally use the structural layer
//! in [`crate::parse`] (block tree, call extents, per-function facts) to
//! reason about guard lifetimes, closure boundaries, and in-function
//! dataflow. Each rule has a path scope; test code (`#[cfg(test)]` /
//! `#[test]`) is always exempt.
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | L1 | panic-freedom on Byzantine-facing paths (no `unwrap`/`expect`/`panic!`-family/indexing/`unchecked_*`) |
//! | L2 | quorum arithmetic only in `core/src/quorum.rs` |
//! | L3 | wire decode sites live next to a verify/dispatch step |
//! | L4 | digest/signature/mac byte comparison goes through `ct_eq` |
//! | L5 | no bare narrowing `as` casts in codec paths |
//! | L6 | lock acquisitions in `crates/net` follow the declared order, no re-entry |
//! | L7 | no blocking calls on the event-loop tick path |
//! | L8 | WAL-appending files emit `WriteAck`/`CtxWriteAck` only via the `deferred_acks`/`flush_commits` pipeline |
//! | L9 | allocations sized by decoded wire lengths are clamped first |
//! | L10 | no discarded `Result`s (`let _ =` / trailing `.ok()`) from durability or verification calls |
//! | L11 | the `unsafe` keyword appears in `crates/ready/src/lib.rs` and nowhere else, test code included |

use crate::lexer::{Lexed, Tok, TokKind};
use crate::parse::{last_ident_before, Structure};

/// One rule violation at a source line.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Repo-relative path, `/`-separated.
    pub path: String,
    pub line: u32,
    /// `L1`..`L5`, or `LINT` for malformed suppressions (never baselinable).
    pub rule: &'static str,
    pub msg: String,
}

/// All rules, in report order.
pub const RULES: &[&str] = &[
    "L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9", "L10", "L11",
];

/// The rules shipped after the baseline was zeroed: the structural ones
/// and L11. They start with no debt, so they are never baselinable: any
/// violation fails check mode outright, everywhere.
pub const STRUCTURAL_RULES: &[&str] = &["L6", "L7", "L8", "L9", "L10", "L11"];

/// The one file that may say `unsafe` (L11): the `ppoll(2)` call under
/// the event loop.
const UNSAFE_FILE: &str = "crates/ready/src/lib.rs";

/// Files where L1/L3 must be zero regardless of the baseline: everything
/// that parses bytes straight off a socket, or off a disk that may have
/// crashed mid-write or rotted.
pub const ZERO_TOLERANCE: &[&str] = &[
    "crates/net/src/frame.rs",
    "crates/net/src/server.rs",
    "crates/net/src/client.rs",
    "crates/net/src/conn.rs",
    "crates/net/src/event_loop.rs",
    "crates/net/src/pipeline.rs",
    "crates/net/src/backoff.rs",
    "crates/net/src/coalesce.rs",
    "crates/net/src/wirechaos.rs",
    "crates/crypto/src/schnorr/batch.rs",
    "crates/core/src/server/storage/mod.rs",
    "crates/core/src/server/storage/record.rs",
    "crates/core/src/server/storage/backend.rs",
    UNSAFE_FILE,
];

/// Rust keywords that may directly precede `[` when it is *not* an index
/// expression (array literals, types, patterns).
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "static", "struct", "super", "trait", "true", "type", "unsafe",
    "use", "where", "while",
];

/// Macros whose expansion can abort the process.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Digest/signature-flavoured identifiers whose `==`/`!=` comparison must
/// go through `sstore_crypto::ct::ct_eq` (L4).
const SECRET_NAMES: &[&str] = &["digest", "value_digest", "signature", "mac"];

fn in_scope_l1(path: &str) -> bool {
    path == "crates/core/src/codec.rs"
        || path == "crates/core/src/chaos.rs"
        || path.starts_with("crates/core/src/server/")
        || path.starts_with("crates/core/src/client/")
        || path.starts_with("crates/net/src/")
        || path.starts_with("crates/crypto/src/")
        || path.starts_with("crates/ready/src/")
}

fn in_scope_l2(path: &str) -> bool {
    path != "crates/core/src/quorum.rs"
}

fn in_scope_l3(path: &str) -> bool {
    path.starts_with("crates/net/src/") || path.starts_with("crates/core/src/server/")
}

fn in_scope_l4(path: &str) -> bool {
    path != "crates/crypto/src/ct.rs"
}

fn in_scope_l5(path: &str) -> bool {
    matches!(
        path,
        "crates/core/src/codec.rs" | "crates/core/src/encoding.rs" | "crates/net/src/frame.rs"
    )
}

/// L6 watches every file in the net crate — that is where the threaded
/// server and event loop share `Mutex`-guarded state.
fn in_scope_l6(path: &str) -> bool {
    path.starts_with("crates/net/src/")
}

/// L7's zero-tolerance event-loop files: everything that runs on the
/// single readiness-driven thread. `frame.rs` is deliberately absent —
/// its blocking helpers serve the threaded path and the client.
fn in_scope_l7(path: &str) -> bool {
    matches!(
        path,
        "crates/net/src/event_loop.rs" | "crates/net/src/conn.rs" | "crates/net/src/coalesce.rs"
    )
}

/// L8 covers every file that can both append to the WAL and emit acks.
fn in_scope_l8(path: &str) -> bool {
    path.starts_with("crates/core/src/server/")
        || path.starts_with("crates/net/src/")
        || path == "crates/core/src/sim.rs"
}

/// L9 covers the decode paths where a length is read off the wire or off
/// disk before anything is allocated from it.
fn in_scope_l9(path: &str) -> bool {
    matches!(
        path,
        "crates/core/src/codec.rs"
            | "crates/net/src/frame.rs"
            | "crates/net/src/conn.rs"
            | "crates/core/src/server/storage/record.rs"
            | "crates/core/src/server/storage/backend.rs"
    )
}

/// L10 covers the Byzantine-facing server and wire paths where a
/// swallowed error can silently void durability or verification.
fn in_scope_l10(path: &str) -> bool {
    path.starts_with("crates/core/src/server/") || path.starts_with("crates/net/src/")
}

/// Runs every applicable rule over one lexed file.
pub fn check_file(path: &str, lexed: &Lexed) -> Vec<Violation> {
    let toks = &lexed.toks;
    let structure = Structure::build(toks);
    let mut out = Vec::new();
    if in_scope_l1(path) {
        rule_l1(path, toks, &mut out);
    }
    if in_scope_l2(path) {
        rule_l2(path, toks, &mut out);
    }
    if in_scope_l3(path) {
        rule_l3(path, toks, &mut out);
    }
    if in_scope_l4(path) {
        rule_l4(path, toks, &mut out);
    }
    if in_scope_l5(path) {
        rule_l5(path, toks, &mut out);
    }
    if in_scope_l6(path) {
        rule_l6(path, toks, &structure, &mut out);
    }
    if in_scope_l7(path) {
        rule_l7(path, toks, &structure, &mut out);
    }
    if in_scope_l8(path) {
        rule_l8(path, toks, &structure, &mut out);
    }
    if in_scope_l9(path) {
        rule_l9(path, toks, &structure, &mut out);
    }
    if in_scope_l10(path) {
        rule_l10(path, toks, &structure, &mut out);
    }
    apply_suppressions(lexed, &mut out);
    // After the suppressions: no `lint:allow` waives L11.
    if path != UNSAFE_FILE {
        rule_l11(path, toks, &mut out);
    }
    out.sort_by_key(|v| (v.line, v.rule));
    out
}

fn push(
    out: &mut Vec<Violation>,
    path: &str,
    line: u32,
    rule: &'static str,
    msg: impl Into<String>,
) {
    out.push(Violation {
        path: path.to_string(),
        line,
        rule,
        msg: msg.into(),
    });
}

/// L1: panic-freedom. Flags `.unwrap()` / `.expect(`, the panic macro
/// family, `.unchecked_*(`, and index/slice expressions `expr[...]`.
fn rule_l1(path: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        match t.kind {
            TokKind::Ident => {
                let prev_dot = i > 0 && toks[i - 1].text == ".";
                let next_paren = toks.get(i + 1).is_some_and(|n| n.text == "(");
                let next_bang = toks.get(i + 1).is_some_and(|n| n.text == "!");
                if prev_dot && next_paren && (t.text == "unwrap" || t.text == "expect") {
                    push(out, path, t.line, "L1", format!(".{}() can panic", t.text));
                } else if prev_dot && next_paren && t.text.starts_with("unchecked_") {
                    push(
                        out,
                        path,
                        t.line,
                        "L1",
                        format!(".{}() skips checks", t.text),
                    );
                } else if next_bang && PANIC_MACROS.contains(&t.text.as_str()) {
                    push(
                        out,
                        path,
                        t.line,
                        "L1",
                        format!("{}! aborts the node", t.text),
                    );
                }
            }
            TokKind::Punct if t.text == "[" && i > 0 => {
                let p = &toks[i - 1];
                let indexes = match p.kind {
                    TokKind::Ident => !KEYWORDS.contains(&p.text.as_str()),
                    TokKind::Punct => p.text == ")" || p.text == "]" || p.text == "?",
                    TokKind::Lit => true,
                    _ => false,
                };
                if indexes {
                    push(out, path, t.line, "L1", "index/slice expression can panic");
                }
            }
            _ => {}
        }
    }
}

/// L2: quorum hygiene. Flags hand-rolled threshold arithmetic —
/// `(… b … 1 …) / 2` and `2 * … b … + 1` — outside `core/src/quorum.rs`.
fn rule_l2(path: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    let live: Vec<&Tok> = toks.iter().filter(|t| !t.in_test).collect();
    for i in 0..live.len() {
        let t = live[i];
        // `) / 2` with `b` and `1` in the parenthesized group.
        if t.text == "/" && live.get(i + 1).is_some_and(|n| n.text == "2") {
            let window = &live[i.saturating_sub(14)..i];
            let has_b = window
                .iter()
                .any(|w| w.kind == TokKind::Ident && (w.text == "b" || w.text == "n"));
            let has_one = window
                .iter()
                .any(|w| w.kind == TokKind::Num && w.text == "1");
            if has_b && has_one {
                push(
                    out,
                    path,
                    t.line,
                    "L2",
                    "quorum-style `(.. b .. 1) / 2` outside quorum.rs",
                );
            }
        }
        // `2 * … b … + 1`.
        if t.kind == TokKind::Num && t.text == "2" && live.get(i + 1).is_some_and(|n| n.text == "*")
        {
            let window = &live[i + 1..(i + 11).min(live.len())];
            let has_b = window
                .iter()
                .any(|w| w.kind == TokKind::Ident && w.text == "b");
            let plus_one = window
                .windows(2)
                .any(|w| w[0].text == "+" && w[1].kind == TokKind::Num && w[1].text == "1");
            if has_b && plus_one {
                push(
                    out,
                    path,
                    t.line,
                    "L2",
                    "quorum-style `2 * b + 1` outside quorum.rs",
                );
            }
        }
    }
}

/// L3: verify-before-use, approximated at file granularity: a file that
/// calls the wire decoders must also contain a `verify*` call or dispatch
/// into a protocol state machine (`.handle(` on the server, `.on_message(`
/// on the client), which performs verification.
fn rule_l3(path: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    let live: Vec<&Tok> = toks.iter().filter(|t| !t.in_test).collect();
    let redeemed = live.windows(2).any(|w| {
        w[1].text == "("
            && w[0].kind == TokKind::Ident
            && (w[0].text.starts_with("verify")
                || w[0].text == "handle"
                || w[0].text == "on_message")
    });
    if redeemed {
        return;
    }
    for i in 0..live.len() {
        let t = live[i];
        if t.kind == TokKind::Ident
            && (t.text == "decode_msg" || t.text == "decode_hello")
            && live.get(i + 1).is_some_and(|n| n.text == "(")
            && !(i > 0 && live[i - 1].text == "fn")
        {
            push(
                out,
                path,
                t.line,
                "L3",
                format!(
                    "`{}` result used without a verify/dispatch step in this file",
                    t.text
                ),
            );
        }
    }
}

/// L4: constant-time digests. Flags `==`/`!=` whose operand chain is
/// anchored on a digest/signature/mac identifier; those comparisons must
/// route through `sstore_crypto::ct::ct_eq`.
fn rule_l4(path: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    let live: Vec<&Tok> = toks.iter().filter(|t| !t.in_test).collect();
    for i in 0..live.len() {
        let t = live[i];
        if t.text != "==" && t.text != "!=" {
            continue;
        }
        let back = backward_anchor(&live, i);
        let fwd = forward_anchor(&live, i);
        let hit = |a: Option<&str>| a.is_some_and(|a| SECRET_NAMES.contains(&a));
        if hit(back) || hit(fwd) {
            push(
                out,
                path,
                t.line,
                "L4",
                format!("`{}` on digest/signature bytes; use ct_eq", t.text),
            );
        }
    }
}

/// Last identifier of the expression ending just before `live[op]`:
/// `self.meta.value_digest ==` → `value_digest`; `digest(&v) ==` → `digest`.
fn backward_anchor<'a>(live: &[&'a Tok], op: usize) -> Option<&'a str> {
    let mut j = op.checked_sub(1)?;
    if live[j].text == ")" {
        let mut depth = 1i32;
        while depth > 0 {
            j = j.checked_sub(1)?;
            match live[j].text.as_str() {
                ")" => depth += 1,
                "(" => depth -= 1,
                _ => {}
            }
        }
        j = j.checked_sub(1)?;
    }
    (live[j].kind == TokKind::Ident).then(|| live[j].text.as_str())
}

/// Last identifier of the `a.b::c` chain starting just after `live[op]`.
fn forward_anchor<'a>(live: &[&'a Tok], op: usize) -> Option<&'a str> {
    let mut j = op + 1;
    // Skip leading `&`, `*`, `!`.
    while live
        .get(j)
        .is_some_and(|t| matches!(t.text.as_str(), "&" | "*" | "!"))
    {
        j += 1;
    }
    let mut last = None;
    while let Some(t) = live.get(j) {
        match t.kind {
            TokKind::Ident => last = Some(t.text.as_str()),
            TokKind::Punct if t.text == "." || t.text == "::" => {}
            _ => break,
        }
        j += 1;
    }
    last
}

/// L5: checked narrowing. Flags bare `as u8|u16|u32` in codec paths;
/// widths there must be proven with `try_from` + an explicit error.
fn rule_l5(path: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    let live: Vec<&Tok> = toks.iter().filter(|t| !t.in_test).collect();
    for w in live.windows(2) {
        if w[0].text == "as"
            && w[0].kind == TokKind::Ident
            && matches!(w[1].text.as_str(), "u8" | "u16" | "u32")
        {
            push(
                out,
                path,
                w[0].line,
                "L5",
                format!(
                    "bare narrowing `as {}`; use try_from with a codec error",
                    w[1].text
                ),
            );
        }
    }
}

/// The declared lock acquisition order for `crates/net` (L6). A thread
/// holding a lock may only acquire locks that appear *later* in this
/// list: the state machine first, the loop's join handle, then the
/// wire-byte counters the flush phase holds while it writes.
pub const LOCK_ORDER: &[&str] = &["node", "thread", "stats"];

fn lock_rank(name: &str) -> Option<usize> {
    LOCK_ORDER.iter().position(|l| *l == name)
}

/// One lock acquisition with the token range over which its guard is
/// considered held.
struct Acq {
    /// Token index of the acquiring call.
    at: usize,
    /// Guard considered held for tokens in `at..=extent`.
    extent: usize,
    name: String,
    line: u32,
}

/// L6: lock-order hygiene. Finds `locked(&…x)` helper calls and bare
/// `.lock()` method calls, computes each guard's extent from the block
/// tree (a `let`-bound guard lives to the end of its enclosing block; a
/// guard in a `for`/`if`/`while`/`match` head lives through the attached
/// block; a temporary lives to the end of its statement), then flags any
/// acquisition made while a held guard ranks *later* in [`LOCK_ORDER`],
/// and any re-acquisition of a lock already held (self-deadlock with
/// `std::sync::Mutex`).
fn rule_l6(path: &str, toks: &[Tok], s: &Structure, out: &mut Vec<Violation>) {
    let mut acqs: Vec<Acq> = Vec::new();
    for c in &s.calls {
        if toks.get(c.callee).is_none_or(|t| t.in_test) {
            continue;
        }
        let name = if c.name == "locked" && !c.is_method {
            last_ident_before(toks, c.close)
        } else if c.name == "lock" && c.is_method {
            // `x.lock()` — the lock is the chain before the `.`.
            last_ident_before(toks, c.callee)
        } else {
            None
        };
        let Some(name) = name else { continue };
        acqs.push(Acq {
            at: c.callee,
            extent: guard_extent(toks, s, c.callee, c.close),
            name: name.to_string(),
            line: c.line,
        });
    }
    for b in &acqs {
        for a in &acqs {
            if a.at >= b.at || b.at > a.extent {
                continue;
            }
            if a.name == b.name {
                push(
                    out,
                    path,
                    b.line,
                    "L6",
                    format!(
                        "re-acquires `{}` while its guard from line {} is still held \
                         (self-deadlock)",
                        b.name, a.line
                    ),
                );
            } else if let (Some(ra), Some(rb)) = (lock_rank(&a.name), lock_rank(&b.name)) {
                if ra > rb {
                    push(
                        out,
                        path,
                        b.line,
                        "L6",
                        format!(
                            "acquires `{}` while holding `{}` — inverts the declared lock \
                             order {:?}",
                            b.name, a.name, LOCK_ORDER
                        ),
                    );
                }
            }
        }
    }
}

/// Token index through which a guard acquired at `call_idx` (argument
/// list closing at `close`) is considered held.
fn guard_extent(toks: &[Tok], s: &Structure, call_idx: usize, close: usize) -> usize {
    let start = s.stmt_start(toks, call_idx);
    match toks.get(start).map(|t| t.text.as_str()) {
        // `let g = locked(…);` — guard lives to the end of the block.
        Some("let") => {
            let home = s.block_of(call_idx);
            s.blocks.get(home).map_or(toks.len(), |b| b.close)
        }
        // `for x in locked(…)…{}` / `if let … = locked(…) {}` — the
        // guard lives through the attached block: the first `{` after
        // the call at the same depth.
        Some("for") | Some("while") | Some("if") | Some("match") => {
            let home = s.block_of(call_idx);
            let mut j = close;
            while j < toks.len() {
                if s.block_of(j) == home && toks.get(j).is_some_and(|t| t.text == "{") {
                    return s
                        .blocks
                        .iter()
                        .find(|b| b.open == j)
                        .map_or(toks.len(), |b| b.close);
                }
                if s.block_of(j) == home && toks.get(j).is_some_and(|t| t.text == ";") {
                    break;
                }
                j += 1;
            }
            s.stmt_end(toks, call_idx)
        }
        // Temporary: held to the end of the statement.
        _ => s.stmt_end(toks, call_idx),
    }
}

/// Callee names that park the calling thread (L7). `read`/`write` are
/// absent on purpose: the event loop's nonblocking sockets return
/// `WouldBlock` instead of parking.
const BLOCKING_CALLS: &[&str] = &[
    "sleep",
    "join",
    "connect",
    "connect_timeout",
    "sync_all",
    "sync_data",
    "sync_now",
    "read_exact",
    "read_to_end",
    "write_all",
    "recv",
    "recv_timeout",
    "wait",
    "wait_timeout",
    "park",
    "park_timeout",
];

/// L7: no blocking calls on the event-loop tick path. Calls inside a
/// `thread::spawn(…)` argument extent are exempt — those run on helper
/// threads (e.g. the dial workers), not the loop.
fn rule_l7(path: &str, toks: &[Tok], s: &Structure, out: &mut Vec<Violation>) {
    for c in &s.calls {
        if toks.get(c.callee).is_none_or(|t| t.in_test) {
            continue;
        }
        if !BLOCKING_CALLS.contains(&c.name.as_str()) {
            continue;
        }
        if s.inside_call_to(&["spawn"], c.callee) {
            continue;
        }
        push(
            out,
            path,
            c.line,
            "L7",
            format!("blocking `{}` on the event-loop tick path", c.name),
        );
    }
}

/// L8: ack-after-fsync dataflow, at file granularity. Two checks: (a) a
/// file that dispatches into the server (`.handle(`) must also drive
/// `flush_commits(`, or deferred acks would sit forever; (b) a file that
/// appends to the WAL (`append`/`append_batch` calls or a `wal_buf`
/// field) may construct `Msg::WriteAck` / `Msg::CtxWriteAck` only if it
/// also owns the `deferred_acks` + `flush_commits` pipeline.
fn rule_l8(path: &str, toks: &[Tok], s: &Structure, out: &mut Vec<Violation>) {
    let has_ident = |name: &str| {
        toks.iter()
            .any(|t| !t.in_test && t.kind == TokKind::Ident && t.text == name)
    };
    let drives_flush = has_ident("flush_commits");
    for c in &s.calls {
        if c.is_method
            && c.name == "handle"
            && toks.get(c.callee).is_some_and(|t| !t.in_test)
            && !drives_flush
        {
            push(
                out,
                path,
                c.line,
                "L8",
                "`.handle(` dispatch without a `flush_commits` driver in this file — deferred \
                 acks would never release",
            );
        }
    }
    let appends_wal = has_ident("wal_buf")
        || s.calls.iter().any(|c| {
            toks.get(c.callee).is_some_and(|t| !t.in_test)
                && (c.name == "append" || c.name == "append_batch")
        });
    if !appends_wal || (has_ident("deferred_acks") && drives_flush) {
        return;
    }
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || t.kind != TokKind::Ident {
            continue;
        }
        if (t.text == "WriteAck" || t.text == "CtxWriteAck")
            && toks.get(i + 1).is_some_and(|n| n.text == "{")
        {
            push(
                out,
                path,
                t.line,
                "L8",
                format!(
                    "`{}` constructed in a WAL-appending file outside the \
                     deferred_acks/flush_commits pipeline",
                    t.text
                ),
            );
        }
    }
}

/// Identifier is a `SCREAMING_CASE` constant (trusted, not a decoded
/// length).
fn is_const_name(name: &str) -> bool {
    !name.is_empty() && !name.chars().any(|c| c.is_ascii_lowercase())
}

/// L9: untrusted-length allocation. Flags `with_capacity(n)`,
/// `reserve(n)` and `vec![…; n]` where `n` is a bare lowercase
/// identifier, unless the enclosing function visibly clamps it first:
/// either `n` is bound by a statement that calls a clamping helper
/// (`count`, `min`, `clamp`), or some comparison (`n >`, `n <=`, …)
/// guards it. Composite arguments (`1 + body.len()`) are derived from
/// in-memory data and pass.
fn rule_l9(path: &str, toks: &[Tok], s: &Structure, out: &mut Vec<Violation>) {
    // `with_capacity` / `reserve` call sites.
    for c in &s.calls {
        if toks.get(c.callee).is_none_or(|t| t.in_test) {
            continue;
        }
        if c.name != "with_capacity" && c.name != "reserve" {
            continue;
        }
        check_alloc_arg(path, toks, s, c.open + 1, c.close, c.callee, c.line, out);
    }
    // `vec![elem; n]` — the length is the segment after the `;`.
    for i in 0..toks.len() {
        let is_vec = toks.get(i).is_some_and(|t| !t.in_test && t.text == "vec")
            && toks.get(i + 1).is_some_and(|t| t.text == "!")
            && toks.get(i + 2).is_some_and(|t| t.text == "[");
        if !is_vec {
            continue;
        }
        let mut depth = 0i64;
        let mut semi = None;
        let mut j = i + 2;
        let close = loop {
            match toks.get(j).map(|t| t.text.as_str()) {
                Some("[") | Some("(") | Some("{") => depth += 1,
                Some(")") | Some("}") => depth -= 1,
                Some("]") => {
                    depth -= 1;
                    if depth <= 0 {
                        break j;
                    }
                }
                Some(";") if depth == 1 => semi = Some(j),
                None => break j,
                _ => {}
            }
            j += 1;
        };
        if let Some(semi) = semi {
            check_alloc_arg(path, toks, s, semi + 1, close, i, toks[i].line, out);
        }
    }
}

/// Shared L9 check: the argument token range `[start, end)` must not be
/// a bare unclamped lowercase identifier.
#[allow(clippy::too_many_arguments)]
fn check_alloc_arg(
    path: &str,
    toks: &[Tok],
    s: &Structure,
    start: usize,
    end: usize,
    site: usize,
    line: u32,
    out: &mut Vec<Violation>,
) {
    if end != start + 1 {
        return; // composite expression — derived, not a raw wire length
    }
    let arg = match toks.get(start) {
        Some(t) if t.kind == TokKind::Ident && !is_const_name(&t.text) => &t.text,
        _ => return,
    };
    // Search the enclosing fn body (or whole file) for a clamp.
    let (lo, hi) = match s.enclosing_fn(site).and_then(|f| f.body) {
        Some(b) => s
            .blocks
            .get(b)
            .map_or((0, toks.len()), |blk| (blk.open, blk.close)),
        None => (0, toks.len()),
    };
    const CLAMPS: &[&str] = &["count", "min", "clamp"];
    // (1) comparison guard: `arg >`, `arg <=`, `> arg`, …
    let compared = (lo..hi.min(toks.len())).any(|j| {
        toks.get(j).is_some_and(|t| t.text == *arg)
            && (toks
                .get(j + 1)
                .is_some_and(|n| matches!(n.text.as_str(), ">" | ">=" | "<" | "<="))
                || (j > 0
                    && toks
                        .get(j - 1)
                        .is_some_and(|p| matches!(p.text.as_str(), ">" | ">=" | "<" | "<="))))
    });
    if compared {
        return;
    }
    // (2) binding statement `let [mut] arg = …` that calls a clamp.
    for j in lo..hi.min(toks.len()) {
        let binds = toks.get(j).is_some_and(|t| t.text == "let")
            && (toks.get(j + 1).is_some_and(|t| t.text == *arg)
                || (toks.get(j + 1).is_some_and(|t| t.text == "mut")
                    && toks.get(j + 2).is_some_and(|t| t.text == *arg)));
        if !binds {
            continue;
        }
        let stmt_end = s.stmt_end(toks, j);
        let clamped = s
            .calls
            .iter()
            .any(|c| j < c.callee && c.callee < stmt_end && CLAMPS.contains(&c.name.as_str()));
        if clamped {
            return;
        }
    }
    push(
        out,
        path,
        line,
        "L9",
        format!(
            "allocation sized by `{arg}` with no visible clamp (compare against a MAX_* bound \
             or derive it via a counted decode)"
        ),
    );
}

/// Call names whose `Result` must not be discarded on Byzantine-facing
/// paths (L10) — durability, verification, and frame-delivery calls.
const SWALLOW_SENSITIVE: &[&str] = &[
    "append",
    "append_batch",
    "sync_now",
    "sync_all",
    "sync_data",
    "persist",
    "install_snapshot",
    "recover",
    "write_frame",
    "enqueue",
];

fn is_sensitive(name: &str) -> bool {
    SWALLOW_SENSITIVE.contains(&name) || name.starts_with("verify")
}

/// L10: no error-swallowing. Flags `let _ = <expr>;` statements and
/// trailing `.ok();` where the discarded expression contains a
/// durability/verification call. A named binding (`let _res = …`) or an
/// `if let Err(…)` handler passes.
fn rule_l10(path: &str, toks: &[Tok], s: &Structure, out: &mut Vec<Violation>) {
    for i in 0..toks.len() {
        let discards = toks.get(i).is_some_and(|t| !t.in_test && t.text == "let")
            && toks.get(i + 1).is_some_and(|t| t.text == "_")
            && toks.get(i + 2).is_some_and(|t| t.text == "=");
        if !discards {
            continue;
        }
        let end = s.stmt_end(toks, i);
        if let Some(c) = s
            .calls
            .iter()
            .find(|c| i < c.callee && c.callee < end && is_sensitive(&c.name))
        {
            push(
                out,
                path,
                toks[i].line,
                "L10",
                format!(
                    "`let _ =` discards the `{}` result on a durability path",
                    c.name
                ),
            );
        }
    }
    for c in &s.calls {
        let trailing_ok = c.is_method
            && c.name == "ok"
            && toks.get(c.callee).is_some_and(|t| !t.in_test)
            && toks.get(c.close + 1).is_some_and(|t| t.text == ";");
        if !trailing_ok {
            continue;
        }
        let start = s.stmt_start(toks, c.callee);
        if let Some(d) = s
            .calls
            .iter()
            .find(|d| start <= d.callee && d.callee < c.callee && is_sensitive(&d.name))
        {
            push(
                out,
                path,
                c.line,
                "L10",
                format!(
                    "trailing `.ok()` discards the `{}` result on a durability path",
                    d.name
                ),
            );
        }
    }
}

/// L11: `unsafe` confinement. Every crate but `sstore-ready` forbids
/// unsafe code at compile time; this is the same promise stated once for
/// the whole workspace, so that dropping a `forbid` attribute or adding a
/// second FFI site fails here. Test code is not exempt.
fn rule_l11(path: &str, toks: &[Tok], out: &mut Vec<Violation>) {
    for t in toks {
        if t.kind == TokKind::Ident && t.text == "unsafe" {
            push(
                out,
                path,
                t.line,
                "L11",
                format!("`unsafe` outside {UNSAFE_FILE}"),
            );
        }
    }
}

/// Removes violations covered by a justified `lint:allow` on the same
/// line or in the comment block directly above (multi-line
/// justifications extend the suppression to the line below the block).
fn apply_suppressions(lexed: &Lexed, out: &mut Vec<Violation>) {
    out.retain(|v| {
        !lexed.allows.iter().any(|a| {
            a.has_reason
                && v.line >= a.line
                && v.line <= a.end_line + 1
                && a.rules.iter().any(|r| r == v.rule)
        })
    });
}

/// [`check_file`] plus `LINT` violations for malformed suppression
/// comments (unknown rule name or missing justification) — those always
/// fail and can never be baselined away.
pub fn check_file_full(path: &str, lexed: &Lexed) -> Vec<Violation> {
    let mut out = check_file(path, lexed);
    for a in &lexed.allows {
        let bad_rule = a.rules.iter().any(|r| !RULES.contains(&r.as_str()));
        if !a.has_reason || bad_rule {
            push(
                &mut out,
                path,
                a.line,
                "LINT",
                "malformed lint:allow (unknown rule or missing justification)",
            );
        }
    }
    out.sort_by_key(|v| (v.line, v.rule));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(path: &str, src: &str) -> Vec<Violation> {
        check_file_full(path, &lex(src))
    }

    const NET: &str = "crates/net/src/frame.rs";

    #[test]
    fn l1_unwrap_expect_panic() {
        let v = run(
            NET,
            "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"boom\"); }",
        );
        assert_eq!(v.iter().filter(|v| v.rule == "L1").count(), 3);
    }

    #[test]
    fn l1_indexing_flagged_but_not_array_types() {
        let v = run(
            NET,
            "fn f(a: [u8; 4], v: &[u8]) -> u8 { let _x: Vec<[u8; 2]> = vec![]; v[0] }",
        );
        let l1: Vec<_> = v.iter().filter(|v| v.rule == "L1").collect();
        assert_eq!(l1.len(), 1, "{l1:?}");
    }

    #[test]
    fn l1_slice_patterns_are_fine() {
        let v = run(
            NET,
            "fn f(v: &[u8]) { let [a, b] = v else { return }; let _ = (a, b); }",
        );
        assert!(v.iter().all(|v| v.rule != "L1"), "{v:?}");
    }

    #[test]
    fn l1_ignores_unwrap_or_else_and_tests() {
        let v = run(
            NET,
            "fn f() { x.unwrap_or_else(|e| e.into_inner()); }\n#[cfg(test)]\nmod t { fn g() { y.unwrap(); } }",
        );
        assert!(v.iter().all(|v| v.rule != "L1"), "{v:?}");
    }

    #[test]
    fn l1_out_of_scope_file_ignored() {
        let v = run("crates/core/src/sim.rs", "fn f() { x.unwrap(); }");
        assert!(v.iter().all(|v| v.rule != "L1"));
    }

    #[test]
    fn l2_flags_handrolled_quorum_math() {
        let v = run(NET, "fn t(n: usize, b: usize) -> usize { (n + b + 1) / 2 }");
        assert_eq!(v.iter().filter(|v| v.rule == "L2").count(), 1);
        let v = run(NET, "fn t(&self) -> usize { 2 * self.dir.b() + 1 }");
        assert_eq!(v.iter().filter(|v| v.rule == "L2").count(), 1);
    }

    #[test]
    fn l2_allows_quorum_rs_and_plain_halving() {
        let v = run(
            "crates/core/src/quorum.rs",
            "pub fn q(n: usize, b: usize) -> usize { (n + b + 1) / 2 }",
        );
        assert!(v.iter().all(|v| v.rule != "L2"));
        let v = run(NET, "fn mid(len: usize) -> usize { len / 2 }");
        assert!(v.iter().all(|v| v.rule != "L2"));
    }

    #[test]
    fn l3_decode_without_verify_flagged() {
        let v = run(
            "crates/net/src/server.rs",
            "fn r() { let m = decode_msg(&buf); store(m); }",
        );
        assert_eq!(v.iter().filter(|v| v.rule == "L3").count(), 1);
    }

    #[test]
    fn l3_decode_with_dispatch_ok() {
        let v = run(
            "crates/net/src/server.rs",
            "fn r(&self) { let m = decode_msg(&buf); self.node.handle(m); }",
        );
        assert!(v.iter().all(|v| v.rule != "L3"));
        // Client-side dispatch counts too.
        let v = run(
            "crates/net/src/client.rs",
            "fn r(&mut self) { let m = decode_msg(&buf); self.core.on_message(sid, m, now); }",
        );
        assert!(v.iter().all(|v| v.rule != "L3"));
        // Definition sites don't count as uses.
        let v = run(NET, "pub fn decode_hello(p: &[u8]) -> R { todo() }");
        assert!(v.iter().all(|v| v.rule != "L3"));
    }

    #[test]
    fn l4_digest_comparison_flagged() {
        let v = run(
            "crates/core/src/item.rs",
            "fn f(&self) { if digest(&self.value) != self.meta.value_digest { } }",
        );
        assert_eq!(v.iter().filter(|v| v.rule == "L4").count(), 1);
    }

    #[test]
    fn l4_plain_comparisons_ok() {
        let v = run(
            "crates/core/src/item.rs",
            "fn f(a: u8, e: u8) { if a == e { } }",
        );
        assert!(v.iter().all(|v| v.rule != "L4"));
    }

    #[test]
    fn l5_narrowing_cast_flagged_in_codec_only() {
        let v = run(
            "crates/core/src/encoding.rs",
            "fn f(v: &[u8]) -> u32 { v.len() as u32 }",
        );
        assert_eq!(v.iter().filter(|v| v.rule == "L5").count(), 1);
        let v = run(
            "crates/core/src/encoding.rs",
            "fn f(v: &[u8]) -> u64 { v.len() as u64 }",
        );
        assert!(v.iter().all(|v| v.rule != "L5"));
        let v = run("crates/core/src/sim.rs", "fn f(x: u64) -> u32 { x as u32 }");
        assert!(v.iter().all(|v| v.rule != "L5"));
    }

    #[test]
    fn suppression_with_reason_works() {
        let v = run(
            NET,
            "fn f() { // lint:allow(L1): length checked two lines up\n x.unwrap(); }",
        );
        assert!(v.iter().all(|v| v.rule != "L1"), "{v:?}");
    }

    #[test]
    fn suppression_without_reason_is_error() {
        let v = run(NET, "fn f() { // lint:allow(L1)\n x.unwrap(); }");
        assert!(v.iter().any(|v| v.rule == "LINT"));
        assert!(v.iter().any(|v| v.rule == "L1"));
    }

    #[test]
    fn suppression_reaches_below_multiline_comment_block() {
        let v = run(
            NET,
            "fn f() {\n// lint:allow(L1): the index is bounded by the\n// frame header check above\n x[0]; }",
        );
        assert!(v.iter().all(|v| v.rule != "L1"), "{v:?}");
        // A code line between the comment block and the site breaks the run.
        let v = run(
            NET,
            "fn f() {\n// lint:allow(L1): stale justification\n let y = 1;\n// unrelated comment\n x[0]; let _ = y; }",
        );
        assert!(v.iter().any(|v| v.rule == "L1"), "{v:?}");
    }

    // ---- seeded-violation self-tests: one fixture per structural rule ----

    const EVLOOP: &str = "crates/net/src/event_loop.rs";

    #[test]
    fn l6_fires_on_lock_order_inversion() {
        let v = run(
            EVLOOP,
            "fn f(&self) { let g = locked(&self.stats); let h = locked(&self.node); drop((g, h)); }",
        );
        let l6: Vec<_> = v.iter().filter(|v| v.rule == "L6").collect();
        assert_eq!(l6.len(), 1, "{v:?}");
        assert!(l6[0].msg.contains("inverts"), "{}", l6[0].msg);
    }

    #[test]
    fn l6_fires_on_reentrant_acquisition() {
        let v = run(
            EVLOOP,
            "fn f(&self) { let g = locked(&self.node); let h = locked(&self.node); drop((g, h)); }",
        );
        assert!(
            v.iter()
                .any(|v| v.rule == "L6" && v.msg.contains("re-acquires")),
            "{v:?}"
        );
    }

    #[test]
    fn l6_ordered_and_scoped_acquisitions_pass() {
        // Declared order, and a temporary whose guard dies at the `;`.
        let v = run(
            EVLOOP,
            "fn f(&self) { let g = locked(&self.thread); drop(g); }\n\
             fn h(&self) { locked(&self.node).tick(); locked(&self.stats).bump(); }",
        );
        assert!(v.iter().all(|v| v.rule != "L6"), "{v:?}");
        // Match arms are alternatives, not nesting.
        let v = run(
            EVLOOP,
            "fn f(&self) -> u64 { match self.imp { A(x) => locked(&x.stats).n, B(y) => locked(&y.node).n, } }",
        );
        assert!(v.iter().all(|v| v.rule != "L6"), "{v:?}");
    }

    #[test]
    fn l7_fires_on_blocking_call_and_exempts_spawn() {
        let v = run(EVLOOP, "fn tick() { std::thread::sleep(d); }");
        assert!(
            v.iter().any(|v| v.rule == "L7" && v.msg.contains("sleep")),
            "{v:?}"
        );
        let v = run(
            EVLOOP,
            "fn dial() { std::thread::spawn(move || { let _s = TcpStream::connect(addr); }); }",
        );
        assert!(v.iter().all(|v| v.rule != "L7"), "{v:?}");
    }

    #[test]
    fn l11_fires_on_unsafe_anywhere_but_the_wait_set() {
        let src = "fn f(p: *const u8) -> u8 { unsafe { *p } }";
        let v = run(EVLOOP, src);
        assert!(v.iter().any(|v| v.rule == "L11"), "{v:?}");
        let v = run("crates/ready/src/lib.rs", src);
        assert!(v.iter().all(|v| v.rule != "L11"), "{v:?}");
        // Not in tests, not with a waiver; the attribute that forbids it
        // and prose about it are fine.
        let v = run(
            "crates/bench/src/lib.rs",
            "#![forbid(unsafe_code)]\n// unsafe is confined\n#[cfg(test)] mod t {\n\
             // lint:allow(L11): we really want to\nunsafe fn g() {} }",
        );
        assert_eq!(v.iter().filter(|v| v.rule == "L11").count(), 1, "{v:?}");
    }

    const SERVER: &str = "crates/core/src/server/storage/wal.rs";

    #[test]
    fn l8_fires_on_ack_in_wal_file_outside_pipeline() {
        let v = run(
            SERVER,
            "fn f(&mut self) { self.wal.append(rec); out.push(Msg::WriteAck { op }); }",
        );
        assert!(
            v.iter()
                .any(|v| v.rule == "L8" && v.msg.contains("WriteAck")),
            "{v:?}"
        );
    }

    #[test]
    fn l8_pipeline_files_and_handle_drivers_pass() {
        // The real pipeline shape: acks deferred, released by flush_commits.
        let v = run(
            SERVER,
            "fn f(&mut self) { self.wal.append(rec); self.deferred_acks.push(op); }\n\
             fn flush_commits(&mut self) { for op in self.deferred_acks.drain(..) { out.push(Msg::WriteAck { op }); } }",
        );
        assert!(v.iter().all(|v| v.rule != "L8"), "{v:?}");
        // `.handle(` with no flush_commits driver in the file.
        let v = run(
            EVLOOP,
            "fn f(&mut self) { let r = self.node.handle(msg); send(r); }",
        );
        assert!(
            v.iter()
                .any(|v| v.rule == "L8" && v.msg.contains("flush_commits")),
            "{v:?}"
        );
    }

    #[test]
    fn l9_fires_on_unclamped_wire_length() {
        let v = run(
            NET,
            "fn read(&mut self) { let len = self.peek_len(); let buf = Vec::with_capacity(len); fill(buf); }",
        );
        assert!(
            v.iter().any(|v| v.rule == "L9" && v.msg.contains("len")),
            "{v:?}"
        );
        // vec![0; n] form.
        let v = run(NET, "fn read(n: usize) -> Vec<u8> { vec![0u8; n] }");
        assert!(v.iter().any(|v| v.rule == "L9"), "{v:?}");
    }

    #[test]
    fn l9_clamped_or_derived_lengths_pass() {
        // Comparison guard against a bound.
        let v = run(
            NET,
            "fn read(&mut self) -> Result<(), E> { if len > self.max_frame { return Err(E::TooBig); } let buf = Vec::with_capacity(len); Ok(()) }",
        );
        assert!(v.iter().all(|v| v.rule != "L9"), "{v:?}");
        // Counted-decode binding and a composite expression.
        let v = run(
            NET,
            "fn read(d: &mut Dec) { let n = d.count(8)?; let v = Vec::with_capacity(n); w.reserve(1 + body.len()); }",
        );
        assert!(v.iter().all(|v| v.rule != "L9"), "{v:?}");
        // SCREAMING_CASE constants are trusted.
        let v = run(NET, "fn f() { let v = Vec::with_capacity(MAX_FRAME); }");
        assert!(v.iter().all(|v| v.rule != "L9"), "{v:?}");
    }

    #[test]
    fn l10_fires_on_let_underscore_and_trailing_ok() {
        let v = run(SERVER, "fn f(&mut self) { let _ = self.wal.append(rec); }");
        assert!(
            v.iter()
                .any(|v| v.rule == "L10" && v.msg.contains("append")),
            "{v:?}"
        );
        let v = run(SERVER, "fn f(&mut self) { self.store.sync_now().ok(); }");
        assert!(
            v.iter()
                .any(|v| v.rule == "L10" && v.msg.contains("sync_now")),
            "{v:?}"
        );
    }

    #[test]
    fn l10_named_binding_and_handled_errors_pass() {
        let v = run(
            SERVER,
            "fn f(&mut self) { let appended = self.wal.append(rec); if appended.is_err() { self.faults += 1; } }",
        );
        assert!(v.iter().all(|v| v.rule != "L10"), "{v:?}");
        let v = run(
            SERVER,
            "fn f(&mut self) { if let Err(e) = self.store.sync_now() { warn(e); } let _ = tmp_path(); }",
        );
        assert!(v.iter().all(|v| v.rule != "L10"), "{v:?}");
    }
}
