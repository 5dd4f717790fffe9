//! Lightweight structural analysis over the [`crate::lexer`] token
//! stream: a brace-matched block tree, per-function facts, and extracted
//! call sites with balanced-paren extents. This is the substrate for the
//! dataflow-flavoured rules (L6–L10) that need to reason about "which
//! guards are held here", "is this token inside a spawned closure", or
//! "does this function clamp that identifier" — questions a flat token
//! scan cannot answer.
//!
//! The builder is total: it never panics, whatever bytes the lexer was
//! fed. Mismatched braces are tolerated (an unclosed block extends to the
//! end of the file; a stray `}` is ignored), which a proptest in this
//! module enforces on arbitrary input.

use crate::lexer::{Tok, TokKind};

/// Sentinel block id meaning "file top level" (no enclosing block).
pub const TOP_LEVEL: usize = usize::MAX;

/// One brace-matched `{ … }` region. `open`/`close` are token indices of
/// the braces; a file-truncated block gets `close == toks.len()`.
#[derive(Debug, Clone)]
pub struct Block {
    pub open: usize,
    pub close: usize,
    /// Enclosing block id, or [`TOP_LEVEL`].
    pub parent: usize,
}

/// One `fn` item: name, signature position, and the body block (if any —
/// trait method declarations have none). Name and position fields are
/// part of the structural API even while only `body` has a rule consumer.
#[derive(Debug, Clone)]
#[allow(dead_code)]
pub struct FnFact {
    pub name: String,
    /// Token index of the name identifier.
    pub name_idx: usize,
    /// Block id of the body, if the fn has one.
    pub body: Option<usize>,
    pub line: u32,
}

/// One call site `name( … )` or method call `.name( … )`.
#[derive(Debug, Clone)]
pub struct Call {
    pub name: String,
    /// Token index of the callee identifier.
    pub callee: usize,
    /// Preceded by `.` (method-call syntax).
    pub is_method: bool,
    /// Token indices of the opening and closing parens; `close` is
    /// `toks.len()` when the file ends mid-argument-list.
    pub open: usize,
    pub close: usize,
    pub line: u32,
}

/// Structural facts for one file.
#[derive(Debug, Default)]
pub struct Structure {
    pub blocks: Vec<Block>,
    pub fns: Vec<FnFact>,
    pub calls: Vec<Call>,
    /// Innermost enclosing block id per token ([`TOP_LEVEL`] outside all
    /// braces).
    block_of: Vec<usize>,
}

impl Structure {
    /// Builds the block tree, function facts and call list for a token
    /// stream. Total: tolerates any brace/paren mismatch.
    pub fn build(toks: &[Tok]) -> Structure {
        let mut s = Structure {
            block_of: vec![TOP_LEVEL; toks.len()],
            ..Structure::default()
        };
        let mut stack: Vec<usize> = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            s.block_of[i] = stack.last().copied().unwrap_or(TOP_LEVEL);
            if t.kind != TokKind::Punct {
                continue;
            }
            if t.text == "{" {
                let parent = stack.last().copied().unwrap_or(TOP_LEVEL);
                stack.push(s.blocks.len());
                s.blocks.push(Block {
                    open: i,
                    close: toks.len(),
                    parent,
                });
            } else if t.text == "}" {
                if let Some(id) = stack.pop() {
                    if let Some(b) = s.blocks.get_mut(id) {
                        b.close = i;
                    }
                }
            }
        }
        s.collect_fns(toks);
        s.collect_calls(toks);
        s
    }

    fn collect_fns(&mut self, toks: &[Tok]) {
        for i in 0..toks.len() {
            let is_fn = toks.get(i).is_some_and(|t| t.text == "fn");
            let name = match toks.get(i + 1) {
                Some(n) if is_fn && n.kind == TokKind::Ident => n,
                _ => continue,
            };
            // The body is the first `{` before a `;` at signature depth
            // (trait method declarations end with `;` and have no body).
            let mut depth = 0i64;
            let mut body = None;
            let mut j = i + 2;
            while let Some(t) = toks.get(j) {
                match t.text.as_str() {
                    "(" | "[" | "<" => depth += 1,
                    ")" | "]" | ">" => depth -= 1,
                    "{" => {
                        body = self.block_at(j);
                        break;
                    }
                    ";" if depth <= 0 => break,
                    _ => {}
                }
                j += 1;
            }
            self.fns.push(FnFact {
                name: name.text.clone(),
                name_idx: i + 1,
                body,
                line: name.line,
            });
        }
    }

    fn collect_calls(&mut self, toks: &[Tok]) {
        for i in 0..toks.len() {
            let t = match toks.get(i) {
                Some(t) if t.kind == TokKind::Ident => t,
                _ => continue,
            };
            if toks.get(i + 1).map(|n| n.text.as_str()) != Some("(") {
                continue;
            }
            // `fn name(` is a definition, not a call.
            if i > 0 && toks.get(i - 1).is_some_and(|p| p.text == "fn") {
                continue;
            }
            let is_method = i > 0 && toks.get(i - 1).is_some_and(|p| p.text == ".");
            let close = matching_paren(toks, i + 1);
            self.calls.push(Call {
                name: t.text.clone(),
                callee: i,
                is_method,
                open: i + 1,
                close,
                line: t.line,
            });
        }
    }

    /// Block id whose `open` is the given token index.
    fn block_at(&self, open: usize) -> Option<usize> {
        self.blocks.iter().position(|b| b.open == open)
    }

    /// Innermost block containing token `idx` ([`TOP_LEVEL`] if none).
    pub fn block_of(&self, idx: usize) -> usize {
        self.block_of.get(idx).copied().unwrap_or(TOP_LEVEL)
    }

    /// Whether block `outer` contains token `idx` (directly or nested).
    pub fn block_contains(&self, outer: usize, idx: usize) -> bool {
        let mut b = self.block_of(idx);
        let mut fuel = self.blocks.len() + 1;
        while b != TOP_LEVEL && fuel > 0 {
            if b == outer {
                return true;
            }
            b = self.blocks.get(b).map_or(TOP_LEVEL, |blk| blk.parent);
            fuel -= 1;
        }
        false
    }

    /// The innermost `fn` whose body contains token `idx`.
    pub fn enclosing_fn(&self, idx: usize) -> Option<&FnFact> {
        self.fns
            .iter()
            .filter(|f| f.body.is_some_and(|b| self.block_contains(b, idx)))
            .max_by_key(|f| f.body.map(|b| self.blocks.get(b).map_or(0, |blk| blk.open)))
    }

    /// Token index where the statement containing `idx` starts: the token
    /// after the previous `;`, `{` or `}` at the same block depth (also
    /// `,` when the block is a `match` body, so arms stay separate).
    pub fn stmt_start(&self, toks: &[Tok], idx: usize) -> usize {
        let home = self.block_of(idx);
        let arm_sep = self.is_match_body(toks, home);
        let mut j = idx;
        while j > 0 {
            let p = j - 1;
            if self.block_of(p) != home {
                return j;
            }
            match toks.get(p).map(|t| t.text.as_str()) {
                Some(";") | Some("{") | Some("}") => return j,
                Some(",") if arm_sep => return j,
                _ => j = p,
            }
        }
        0
    }

    /// Whether block `id` is the body of a `match` expression: scanning
    /// back from its `{`, a `match` keyword appears before any statement
    /// boundary.
    fn is_match_body(&self, toks: &[Tok], id: usize) -> bool {
        let Some(open) = self.blocks.get(id).map(|b| b.open) else {
            return false;
        };
        let mut j = open;
        while j > 0 {
            j -= 1;
            match toks.get(j).map(|t| t.text.as_str()) {
                Some("match") => return true,
                Some(";") | Some("{") | Some("}") | Some("=>") => return false,
                _ => {}
            }
        }
        false
    }

    /// Token index one past the end of the statement containing `idx`:
    /// past the next `;` at the same block depth, or at the closing brace
    /// of the enclosing block.
    pub fn stmt_end(&self, toks: &[Tok], idx: usize) -> usize {
        let home = self.block_of(idx);
        let arm_sep = self.is_match_body(toks, home);
        let mut j = idx;
        while j < toks.len() {
            if self.block_of(j) != home && !self.enclosed_by(home, j) {
                return j;
            }
            if self.block_of(j) == home {
                match toks.get(j).map(|t| t.text.as_str()) {
                    Some(";") => return j + 1,
                    Some(",") if arm_sep => return j + 1,
                    // The closing brace of `home` itself ends the statement.
                    Some("}") if j > idx => return j,
                    _ => {}
                }
            }
            j += 1;
        }
        toks.len()
    }

    fn enclosed_by(&self, outer: usize, idx: usize) -> bool {
        if outer == TOP_LEVEL {
            return true;
        }
        self.block_contains(outer, idx)
    }

    /// Whether token `idx` falls inside the argument extent of any call to
    /// one of `names` (e.g. a closure passed to `thread::spawn`).
    pub fn inside_call_to(&self, names: &[&str], idx: usize) -> bool {
        self.calls
            .iter()
            .any(|c| names.contains(&c.name.as_str()) && c.open < idx && idx < c.close)
    }
}

/// Index of the `)` matching the `(` at `open` (or `toks.len()` if the
/// file ends first). Total for arbitrary input.
pub fn matching_paren(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    let mut j = open;
    while let Some(t) = toks.get(j) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth <= 0 {
                        return j;
                    }
                }
                _ => {}
            }
        }
        j += 1;
    }
    toks.len()
}

/// Last identifier of the `a.b.c` / `a::b` chain ending at token `end`
/// (exclusive): `locked(&self.shared.node)` → `node`.
pub fn last_ident_before(toks: &[Tok], end: usize) -> Option<&str> {
    let mut j = end;
    while j > 0 {
        j -= 1;
        match toks.get(j) {
            Some(t) if t.kind == TokKind::Ident => return Some(t.text.as_str()),
            Some(t) if matches!(t.text.as_str(), ")" | "]") => continue,
            Some(_) => continue,
            None => return None,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn build(src: &str) -> (Vec<Tok>, Structure) {
        let l = lex(src);
        let s = Structure::build(&l.toks);
        (l.toks, s)
    }

    #[test]
    fn block_tree_nests() {
        let (toks, s) = build("fn a() { if x { y(); } }");
        assert_eq!(s.blocks.len(), 2);
        assert_eq!(s.blocks[1].parent, 0);
        let y = toks.iter().position(|t| t.text == "y").unwrap();
        assert!(s.block_contains(0, y));
        assert!(s.block_contains(1, y));
    }

    #[test]
    fn unclosed_block_extends_to_eof() {
        let (toks, s) = build("fn a() { x(");
        assert_eq!(s.blocks.len(), 1);
        assert_eq!(s.blocks[0].close, toks.len());
    }

    #[test]
    fn stray_close_ignored() {
        let (_, s) = build("} fn a() { }");
        assert_eq!(s.blocks.len(), 1);
        assert!(s.blocks[0].close != usize::MAX);
    }

    #[test]
    fn fn_facts_and_enclosing() {
        let (toks, s) = build("fn outer() { inner_call(); }\nfn two() {}");
        assert_eq!(s.fns.len(), 2);
        assert_eq!(s.fns[0].name, "outer");
        let c = toks.iter().position(|t| t.text == "inner_call").unwrap();
        assert_eq!(s.enclosing_fn(c).map(|f| f.name.as_str()), Some("outer"));
    }

    #[test]
    fn trait_decl_has_no_body() {
        let (_, s) = build("trait T { fn decl(&self) -> u8; fn with_body(&self) {} }");
        let decl = s.fns.iter().find(|f| f.name == "decl").unwrap();
        assert!(decl.body.is_none());
        let wb = s.fns.iter().find(|f| f.name == "with_body").unwrap();
        assert!(wb.body.is_some());
    }

    #[test]
    fn calls_with_extents() {
        let (toks, s) = build("fn f() { g(h(1), 2); x.m(); }");
        let g = s.calls.iter().find(|c| c.name == "g").unwrap();
        assert_eq!(toks[g.close].text, ")");
        assert!(!g.is_method);
        let m = s.calls.iter().find(|c| c.name == "m").unwrap();
        assert!(m.is_method);
        // h(1) nests inside g's extent.
        let h = s.calls.iter().find(|c| c.name == "h").unwrap();
        assert!(g.open < h.callee && h.close < g.close);
    }

    #[test]
    fn spawn_extent_detection() {
        let (toks, s) = build("fn f() { thread::spawn(move || { conn(x); }); after(); }");
        let conn = toks.iter().position(|t| t.text == "conn").unwrap();
        let after = toks.iter().position(|t| t.text == "after").unwrap();
        assert!(s.inside_call_to(&["spawn"], conn));
        assert!(!s.inside_call_to(&["spawn"], after));
    }

    #[test]
    fn stmt_bounds() {
        let (toks, s) = build("fn f() { let a = g(); h(a); }");
        let h = toks.iter().position(|t| t.text == "h").unwrap();
        let start = s.stmt_start(&toks, h);
        assert_eq!(toks[start].text, "h");
        let end = s.stmt_end(&toks, h);
        assert_eq!(toks[end - 1].text, ";");
    }

    #[test]
    fn last_ident_of_chain() {
        let (toks, _) = build("locked(&self.shared.node)");
        let close = toks.iter().position(|t| t.text == ")").unwrap();
        assert_eq!(last_ident_before(&toks, close), Some("node"));
    }

    #[test]
    fn total_on_garbage() {
        // A quick fixed-vector sanity net; the proptests below cover
        // arbitrary bytes.
        for src in ["{{{", "}}}", "fn fn fn (", "){(}", "fn a() { { } ", ""] {
            let l = lex(src);
            let s = Structure::build(&l.toks);
            for i in 0..l.toks.len() + 2 {
                let _ = s.block_of(i);
                let _ = s.enclosing_fn(i);
                let _ = s.stmt_start(&l.toks, i.min(l.toks.len()));
                let _ = s.stmt_end(&l.toks, i.min(l.toks.len()));
            }
        }
    }

    /// Runs every Structure query at every token index — any panic or
    /// inconsistent block id fails the property.
    fn probe(src: &str) -> Result<(), String> {
        let l = lex(src);
        let s = Structure::build(&l.toks);
        for i in 0..l.toks.len() {
            let b = s.block_of(i);
            if b != TOP_LEVEL && b >= s.blocks.len() {
                return Err(format!("token {i} maps to bogus block {b}"));
            }
            let _ = s.enclosing_fn(i);
            let _ = s.inside_call_to(&["spawn"], i);
            let start = s.stmt_start(&l.toks, i);
            let end = s.stmt_end(&l.toks, i);
            if start > i || end < i {
                return Err(format!("stmt bounds [{start}, {end}] exclude {i}"));
            }
        }
        for b in &s.blocks {
            if b.open > b.close {
                return Err(format!("block opens at {} after close {}", b.open, b.close));
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(256))]

        #[test]
        fn build_total_on_arbitrary_bytes(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..1024)
        ) {
            let src = String::from_utf8_lossy(&bytes);
            proptest::prop_assert!(probe(&src).is_ok(), "{:?}", probe(&src));
        }

        #[test]
        fn build_total_on_brace_soup(
            picks in proptest::collection::vec(proptest::prelude::any::<u16>(), 0..512)
        ) {
            // Dense delimiter/keyword soup hits the tree-builder's edge
            // cases far more often than uniform bytes do.
            const VOCAB: &[&str] = &[
                "{", "}", "(", ")", "[", "]", ";", ",", "=>", "fn", "let",
                "match", "if", "for", "while", "spawn", "locked", ".", "'a",
                "'x'", "\"s\"", "r#\"raw\"#", "//c\n", "/*n*/", "x", "#",
            ];
            let src: String = picks
                .iter()
                .map(|p| VOCAB[*p as usize % VOCAB.len()])
                .collect::<Vec<_>>()
                .join(" ");
            proptest::prop_assert!(probe(&src).is_ok(), "{:?}", probe(&src));
        }
    }
}
