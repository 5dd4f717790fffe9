//! sstore-lint: workspace invariant checker for the secure-store repo.
//!
//! The store's safety argument leans on a handful of repo-wide invariants
//! that ordinary type checking cannot see — a Byzantine server may send
//! arbitrary bytes, so code that parses or reacts to the wire must never
//! be able to panic; quorum thresholds must come from one audited module;
//! digest comparisons must be constant-time. This tool enforces those as
//! token-pattern rules (L1–L5) plus structural dataflow rules over a
//! block-tree/call-extent analysis (L6–L10, see `rules.rs` and
//! `parse.rs`) with a committed baseline ratchet: the baseline is now
//! empty (every grandfathered count has been burned down), so any
//! violation anywhere fails; `lint_baseline.toml` remains as the ratchet
//! mechanism and can only ever shrink.
//!
//! Usage:
//! ```text
//! cargo run -p sstore-lint --              # check against the baseline (CI gate)
//! cargo run -p sstore-lint -- --audit      # list all violations + totals
//! cargo run -p sstore-lint -- --update-baseline   # lock improvements in
//! ```

#![forbid(unsafe_code)]

mod baseline;
mod lexer;
mod parse;
mod rules;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use baseline::{Baseline, Drift};
use rules::{Violation, RULES, STRUCTURAL_RULES, ZERO_TOLERANCE};

const BASELINE_FILE: &str = "lint_baseline.toml";

enum Mode {
    Check,
    Audit,
    UpdateBaseline,
}

fn main() -> ExitCode {
    let mut mode = Mode::Check;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--audit" => mode = Mode::Audit,
            "--update-baseline" => mode = Mode::UpdateBaseline,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage("--root needs a path"),
            },
            "--help" | "-h" => {
                eprintln!("sstore-lint [--audit | --update-baseline] [--root PATH]");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    let root = root.unwrap_or_else(default_root);
    if !root.join("Cargo.toml").is_file() {
        eprintln!("sstore-lint: `{}` is not a workspace root", root.display());
        return ExitCode::from(2);
    }
    match run(&root, mode) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("sstore-lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("sstore-lint: {msg}\nusage: sstore-lint [--audit | --update-baseline] [--root PATH]");
    ExitCode::from(2)
}

/// Workspace root relative to this crate's manifest, so `cargo run -p
/// sstore-lint` works from any cwd.
fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn run(root: &Path, mode: Mode) -> Result<bool, String> {
    let files = collect_files(root)?;
    let mut violations: Vec<Violation> = Vec::new();
    for rel in &files {
        let src =
            std::fs::read_to_string(root.join(rel)).map_err(|e| format!("read {rel}: {e}"))?;
        violations.extend(rules::check_file_full(rel, &lexer::lex(&src)));
    }
    violations.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    let actual = count(&violations);

    match mode {
        Mode::Audit => {
            for v in &violations {
                println!("{}:{}: {}: {}", v.path, v.line, v.rule, v.msg);
            }
            println!("\n== totals ==");
            let mut grand = 0u64;
            for rule in RULES {
                let n: u64 = actual
                    .iter()
                    .filter(|(k, _)| k.ends_with(&format!(":{rule}")))
                    .map(|(_, n)| n)
                    .sum();
                grand += n;
                println!("{rule}: {n}");
            }
            println!("total: {grand}");
            Ok(true)
        }
        Mode::Check => check(root, &violations, &actual),
        Mode::UpdateBaseline => update_baseline(root, &violations, &actual),
    }
}

fn check(root: &Path, violations: &[Violation], actual: &Baseline) -> Result<bool, String> {
    let text = std::fs::read_to_string(root.join(BASELINE_FILE))
        .map_err(|_| format!("{BASELINE_FILE} not found — generate it with `--update-baseline`"))?;
    let base = baseline::parse(&text)?;
    let mut clean = true;

    // Malformed suppressions always fail.
    for v in violations.iter().filter(|v| v.rule == "LINT") {
        clean = false;
        eprintln!("error: {}:{}: {}", v.path, v.line, v.msg);
    }

    // Zero-tolerance files: socket-facing decode paths may not carry any
    // L1/L3 debt, baselined or not.
    for v in violations {
        if ZERO_TOLERANCE.contains(&v.path.as_str()) && (v.rule == "L1" || v.rule == "L3") {
            clean = false;
            eprintln!(
                "error: {}:{}: {}: {} (zero-tolerance file: may not be baselined)",
                v.path, v.line, v.rule, v.msg
            );
        }
    }

    // The structural rules (L6–L10) and `unsafe` confinement (L11)
    // started with zero debt and can never be baselined, anywhere.
    for v in violations {
        if STRUCTURAL_RULES.contains(&v.rule) {
            clean = false;
            eprintln!(
                "error: {}:{}: {}: {} (structural rule: may not be baselined)",
                v.path, v.line, v.rule, v.msg
            );
        }
    }

    for d in baseline::diff(&base, actual) {
        clean = false;
        match d {
            Drift::Regression {
                key,
                baseline,
                actual,
            } => {
                eprintln!(
                    "error: {key}: {actual} violation(s), baseline allows {baseline} — new \
                     violations below:"
                );
                let (path, rule) = split_key(&key);
                for v in violations
                    .iter()
                    .filter(|v| v.path == path && v.rule == rule)
                {
                    eprintln!("  {}:{}: {}: {}", v.path, v.line, v.rule, v.msg);
                }
            }
            Drift::Unlocked {
                key,
                baseline,
                actual,
            } => {
                eprintln!(
                    "error: {key}: {actual} violation(s), baseline still says {baseline} — \
                     improvement not locked in; run `cargo run -p sstore-lint -- \
                     --update-baseline`"
                );
            }
        }
    }
    if clean {
        let total: u64 = actual.values().sum();
        println!(
            "sstore-lint: clean ({total} grandfathered violation(s) across {} file:rule keys)",
            actual.len()
        );
    }
    Ok(clean)
}

fn update_baseline(
    root: &Path,
    violations: &[Violation],
    actual: &Baseline,
) -> Result<bool, String> {
    for v in violations.iter().filter(|v| v.rule == "LINT") {
        eprintln!("error: {}:{}: {}", v.path, v.line, v.msg);
    }
    if violations.iter().any(|v| v.rule == "LINT") {
        return Ok(false);
    }
    let mut floor_broken = false;
    for v in violations {
        let zero_tol =
            ZERO_TOLERANCE.contains(&v.path.as_str()) && (v.rule == "L1" || v.rule == "L3");
        if zero_tol || STRUCTURAL_RULES.contains(&v.rule) {
            floor_broken = true;
            eprintln!(
                "error: {}:{}: {}: {} (fix, don't baseline)",
                v.path, v.line, v.rule, v.msg
            );
        }
    }
    if floor_broken {
        return Ok(false);
    }
    let path = root.join(BASELINE_FILE);
    if let Ok(text) = std::fs::read_to_string(&path) {
        let prev = baseline::parse(&text)?;
        let grew = baseline::growth(&prev, actual);
        if !grew.is_empty() {
            for key in &grew {
                eprintln!(
                    "error: {key}: {} violation(s), baseline allows {} — the ratchet only \
                     shrinks; fix or suppress with `lint:allow` + justification",
                    actual.get(key).copied().unwrap_or(0),
                    prev.get(key).copied().unwrap_or(0),
                );
            }
            return Ok(false);
        }
    }
    std::fs::write(&path, baseline::serialize(actual))
        .map_err(|e| format!("write baseline: {e}"))?;
    let total: u64 = actual.values().sum();
    println!("sstore-lint: baseline updated ({total} grandfathered violation(s))");
    Ok(true)
}

fn count(violations: &[Violation]) -> Baseline {
    let mut map = BTreeMap::new();
    for v in violations.iter().filter(|v| v.rule != "LINT") {
        *map.entry(format!("{}:{}", v.path, v.rule)).or_insert(0u64) += 1;
    }
    map
}

fn split_key(key: &str) -> (&str, &str) {
    key.rsplit_once(':').unwrap_or((key, ""))
}

/// All lintable sources: `crates/*/src/**/*.rs`, except this tool itself.
fn collect_files(root: &Path) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    let entries = std::fs::read_dir(&crates).map_err(|e| format!("read_dir crates/: {e}"))?;
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name == "lint" {
            continue;
        }
        let src = entry.path().join("src");
        if src.is_dir() {
            walk(&src, &mut |p| {
                if p.extension().is_some_and(|e| e == "rs") {
                    if let Ok(rel) = p.strip_prefix(root) {
                        out.push(rel.to_string_lossy().replace('\\', "/"));
                    }
                }
            })?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, f: &mut impl FnMut(&Path)) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            walk(&p, f)?;
        } else {
            f(&p);
        }
    }
    Ok(())
}
