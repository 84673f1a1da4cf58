//! The lint rules: workspace invariants as token- and tree-pattern checks.
//!
//! Every rule walks the [`lexer`](crate::lexer) token stream of one file —
//! the flow rules additionally consult the brace-matched
//! [`SyntaxTree`] — and reports violations with
//! exact `line:col` spans. Rules never fire inside test code (`#[test]`
//! functions, `#[cfg(test)]` modules) and each can be silenced per-site
//! with a justified suppression:
//!
//! ```text
//! // scg-allow(SCG003): k ≤ MAX_DEGREE = 20 fits u8
//! ```
//!
//! either trailing the offending line or alone on the line above. A
//! suppression without a reason, or one that matches nothing, is itself
//! reported (as `SCG000`). `SCG008` (panic reachability) is a
//! workspace-level rule emitted by the [`driver`](crate::driver) from the
//! [`callgraph`](crate::callgraph); its `scg-allow` marks sit at the
//! audited *panic site*, not at the entry point.

use std::collections::BTreeSet;

use crate::lexer::{Token, TokenKind};
use crate::syntax::SyntaxTree;

/// The identity of a rule (or of the suppression-hygiene meta check).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Suppression hygiene: malformed or unused `scg-allow` comments.
    Scg000,
    /// No `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/
    /// `unimplemented!` in library code.
    Scg001,
    /// No cache-bypassing topology construction outside the topology
    /// engine (`to_graph` / `Materialized::build`).
    Scg002,
    /// No potentially lossy `as` casts to narrow integer types in the
    /// symbol/index hot-path crates (`perm`, `core`, `graph`).
    Scg003,
    /// Atomic-ordering hygiene: non-`Relaxed` orderings, and `Relaxed` on
    /// plain loads/stores/exchanges, need an adjacent `// ord:` comment.
    Scg004,
    /// No `let _ = ...` discards and no never-read `_`-prefixed bindings
    /// in library code (silently dropping a `Result` is how routing
    /// errors vanish).
    Scg005,
    /// Every `unsafe { .. }` block needs an adjacent `// SAFETY:`
    /// justification.
    Scg006,
    /// Results of `extern "C"` calls must flow into a check (`cvt`-style)
    /// rather than being dropped in statement position.
    Scg007,
    /// No unaudited panicking callee reachable from the wire-decode and
    /// routing entry points (workspace-level; see
    /// [`callgraph`](crate::callgraph)).
    Scg008,
    /// No blocking call inside the serve crate while a lock guard is
    /// live (`lock()` bindings in event-loop bodies).
    Scg009,
}

/// Every real rule, in report order (`SCG000` is emitted by the driver).
pub const ALL_RULES: [RuleId; 9] = [
    RuleId::Scg001,
    RuleId::Scg002,
    RuleId::Scg003,
    RuleId::Scg004,
    RuleId::Scg005,
    RuleId::Scg006,
    RuleId::Scg007,
    RuleId::Scg008,
    RuleId::Scg009,
];

impl RuleId {
    /// The `SCG00x` code used in diagnostics and suppressions.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            RuleId::Scg000 => "SCG000",
            RuleId::Scg001 => "SCG001",
            RuleId::Scg002 => "SCG002",
            RuleId::Scg003 => "SCG003",
            RuleId::Scg004 => "SCG004",
            RuleId::Scg005 => "SCG005",
            RuleId::Scg006 => "SCG006",
            RuleId::Scg007 => "SCG007",
            RuleId::Scg008 => "SCG008",
            RuleId::Scg009 => "SCG009",
        }
    }

    /// Parses a `SCG00x` code (as written in a suppression).
    #[must_use]
    pub fn from_code(code: &str) -> Option<RuleId> {
        match code.trim() {
            "SCG000" => Some(RuleId::Scg000),
            "SCG001" => Some(RuleId::Scg001),
            "SCG002" => Some(RuleId::Scg002),
            "SCG003" => Some(RuleId::Scg003),
            "SCG004" => Some(RuleId::Scg004),
            "SCG005" => Some(RuleId::Scg005),
            "SCG006" => Some(RuleId::Scg006),
            "SCG007" => Some(RuleId::Scg007),
            "SCG008" => Some(RuleId::Scg008),
            "SCG009" => Some(RuleId::Scg009),
            _ => None,
        }
    }

    /// One-line description for `--list-rules` and reports.
    #[must_use]
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::Scg000 => {
                "suppression hygiene: scg-allow needs a reason and a matching finding"
            }
            RuleId::Scg001 => {
                "no unwrap/expect/panic!/unreachable!/todo!/unimplemented! in library code"
            }
            RuleId::Scg002 => "no to_graph/Materialized::build outside the topology engine",
            RuleId::Scg003 => "no lossy `as` casts to narrow integers in perm/core/graph",
            RuleId::Scg004 => "atomic orderings need an adjacent `// ord:` justification",
            RuleId::Scg005 => "no `let _ =` discards or never-read `_`-bindings in library code",
            RuleId::Scg006 => "every `unsafe` block needs an adjacent `// SAFETY:` justification",
            RuleId::Scg007 => "extern \"C\" call results must flow into a check, not be dropped",
            RuleId::Scg008 => "no unaudited panic reachable from wire-decode/routing entry points",
            RuleId::Scg009 => "no blocking call in the serve crate while a lock guard is live",
        }
    }
}

/// One finding, before suppression matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired.
    pub rule: RuleId,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description of the site.
    pub message: String,
}

/// Per-file facts the rules need beyond the token stream.
#[derive(Debug, Clone)]
pub struct FileInfo {
    /// Workspace-relative path with `/` separators, e.g.
    /// `crates/perm/src/rank.rs`.
    pub rel_path: String,
    /// The crate directory name (`perm`, `core`, ..) or `supercayley` for
    /// the root `src/` tree.
    pub crate_name: String,
}

/// Indices (into the token slice) of non-comment tokens — the stream rules
/// pattern-match on.
#[must_use]
pub fn significant(tokens: &[Token]) -> Vec<usize> {
    tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .map(|(i, _)| i)
        .collect()
}

/// Files where the raw topology constructors are the implementation, not a
/// bypass: the topology engine itself and the network trait it builds on.
fn scg002_allowed(rel_path: &str) -> bool {
    rel_path == "crates/core/src/topology.rs" || rel_path == "crates/core/src/network.rs"
}

/// Crates whose index arithmetic SCG003 audits.
fn scg003_applies(crate_name: &str) -> bool {
    matches!(crate_name, "perm" | "core" | "graph")
}

/// Runs every per-file rule over one lexed file; the syntax `tree` carries
/// test regions, unsafe blocks, extern declarations, and fn bodies.
#[must_use]
pub fn check_file(
    src: &str,
    tokens: &[Token],
    info: &FileInfo,
    tree: &SyntaxTree,
) -> Vec<Violation> {
    let sig = &tree.sig;
    let mut out = Vec::new();
    scg001(src, tokens, sig, &mut out);
    if !scg002_allowed(&info.rel_path) {
        scg002(src, tokens, sig, &mut out);
    }
    if scg003_applies(&info.crate_name) {
        scg003(src, tokens, sig, &mut out);
    }
    scg004(src, tokens, sig, &mut out);
    scg005(src, tokens, sig, tree, &mut out);
    scg006(src, tokens, tree, &mut out);
    scg007(src, tokens, sig, tree, &mut out);
    if info.crate_name == "serve" {
        scg009(src, tokens, tree, &mut out);
    }
    out.retain(|v| !tree.is_test_line(v.line));
    out.sort_by_key(|v| (v.line, v.col, v.rule));
    out
}

/// `tok(sig[i])` helper: the token at significant index `i`, if any.
fn at<'t>(tokens: &'t [Token], sig: &[usize], i: usize) -> Option<&'t Token> {
    sig.get(i).map(|&ix| &tokens[ix])
}

fn text_at<'s>(src: &'s str, tokens: &[Token], sig: &[usize], i: usize) -> Option<&'s str> {
    at(tokens, sig, i).map(|t| t.text(src))
}

fn is_punct(tokens: &[Token], sig: &[usize], i: usize, src: &str, ch: &str) -> bool {
    at(tokens, sig, i).is_some_and(|t| t.kind == TokenKind::Punct && t.text(src) == ch)
}

/// SCG001 — panicking constructs in library code.
fn scg001(src: &str, tokens: &[Token], sig: &[usize], out: &mut Vec<Violation>) {
    for i in 0..sig.len() {
        let Some(tok) = at(tokens, sig, i) else { break };
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let name = tok.text(src);
        let method_call = matches!(name, "unwrap" | "expect")
            && i > 0
            && is_punct(tokens, sig, i - 1, src, ".")
            && is_punct(tokens, sig, i + 1, src, "(");
        let macro_call = matches!(name, "panic" | "unreachable" | "todo" | "unimplemented")
            && is_punct(tokens, sig, i + 1, src, "!");
        if method_call || macro_call {
            let shape = if method_call { "()" } else { "!" };
            out.push(Violation {
                rule: RuleId::Scg001,
                line: tok.line,
                col: tok.col,
                message: format!("`{name}{shape}` in library code; return a Result instead"),
            });
        }
    }
}

/// SCG002 — topology-cache bypass.
fn scg002(src: &str, tokens: &[Token], sig: &[usize], out: &mut Vec<Violation>) {
    for i in 0..sig.len() {
        let Some(tok) = at(tokens, sig, i) else { break };
        if tok.kind != TokenKind::Ident {
            continue;
        }
        match tok.text(src) {
            "to_graph"
                if i > 0
                    && is_punct(tokens, sig, i - 1, src, ".")
                    && is_punct(tokens, sig, i + 1, src, "(") =>
            {
                out.push(Violation {
                    rule: RuleId::Scg002,
                    line: tok.line,
                    col: tok.col,
                    message: "`.to_graph()` bypasses the topology cache; use \
                              `scg_core::materialize` (shared Arcs, parallel build)"
                        .to_string(),
                });
            }
            "Materialized"
                if is_punct(tokens, sig, i + 1, src, ":")
                    && is_punct(tokens, sig, i + 2, src, ":")
                    && text_at(src, tokens, sig, i + 3) == Some("build")
                    && is_punct(tokens, sig, i + 4, src, "(") =>
            {
                out.push(Violation {
                    rule: RuleId::Scg002,
                    line: tok.line,
                    col: tok.col,
                    message: "`Materialized::build()` rebuilds cached state; go through \
                              `scg_core::materialize`"
                        .to_string(),
                });
            }
            _ => {}
        }
    }
}

/// Integer types an `as` cast may truncate or re-sign into.
const NARROW_INTS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// SCG003 — lossy `as` casts in symbol/index arithmetic.
fn scg003(src: &str, tokens: &[Token], sig: &[usize], out: &mut Vec<Violation>) {
    for i in 0..sig.len() {
        let Some(tok) = at(tokens, sig, i) else { break };
        if tok.kind != TokenKind::Ident || tok.text(src) != "as" {
            continue;
        }
        let Some(target) = at(tokens, sig, i + 1) else {
            continue;
        };
        if target.kind == TokenKind::Ident && NARROW_INTS.contains(&target.text(src)) {
            out.push(Violation {
                rule: RuleId::Scg003,
                line: tok.line,
                col: tok.col,
                message: format!(
                    "`as {}` may truncate a symbol/index; use `try_into` or a \
                     checked helper",
                    target.text(src)
                ),
            });
        }
    }
}

/// Atomic orderings SCG004 recognizes.
const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Atomic accessors whose `Relaxed` use is a plain cross-thread read/write
/// (not a lost-update-free counter RMW) and therefore needs justifying.
const PLAIN_ACCESS: [&str; 4] = ["load", "store", "swap", "compare_exchange"];

/// SCG004 — atomic-ordering justification comments.
fn scg004(src: &str, tokens: &[Token], sig: &[usize], out: &mut Vec<Violation>) {
    for i in 0..sig.len() {
        let Some(tok) = at(tokens, sig, i) else { break };
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let name = tok.text(src);
        if !ORDERINGS.contains(&name) {
            continue;
        }
        // Must be a path segment (`Ordering::Relaxed` or a `use`-imported
        // `::Relaxed`); a bare struct field named `Release` is not ours.
        if !(i >= 2
            && is_punct(tokens, sig, i - 1, src, ":")
            && is_punct(tokens, sig, i - 2, src, ":"))
        {
            continue;
        }
        let needs_reason = if name == "Relaxed" {
            // Walk back to the start of the statement and look at which
            // accessor this ordering feeds.
            let mut plain = false;
            let mut rmw = false;
            for j in (0..i).rev() {
                let Some(t) = at(tokens, sig, j) else { break };
                let txt = t.text(src);
                if t.kind == TokenKind::Punct && matches!(txt, ";" | "{" | "}") {
                    break;
                }
                if t.kind == TokenKind::Ident {
                    if PLAIN_ACCESS.contains(&txt) || txt == "compare_exchange_weak" {
                        plain = true;
                        break;
                    }
                    if txt.starts_with("fetch_") {
                        rmw = true;
                        break;
                    }
                }
            }
            plain || !rmw
        } else {
            true
        };
        if needs_reason && !has_ord_comment(src, tokens, tok.line) {
            out.push(Violation {
                rule: RuleId::Scg004,
                line: tok.line,
                col: tok.col,
                message: format!("`Ordering::{name}` without an adjacent `// ord:` justification"),
            });
        }
    }
}

/// Whether a comment on `line` or the line above carries an `ord:` tag.
fn has_ord_comment(src: &str, tokens: &[Token], line: u32) -> bool {
    tokens.iter().any(|t| {
        matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
            && (t.line == line || t.line + 1 == line)
            && t.text(src).contains("ord:")
    })
}

/// SCG005 — `let _ =` discards and never-read `_`-prefixed bindings.
fn scg005(src: &str, tokens: &[Token], sig: &[usize], tree: &SyntaxTree, out: &mut Vec<Violation>) {
    for i in 0..sig.len() {
        let Some(tok) = at(tokens, sig, i) else { break };
        if tok.kind != TokenKind::Ident || tok.text(src) != "let" {
            continue;
        }
        // `let _ = ..` — the plain discard.
        if text_at(src, tokens, sig, i + 1) == Some("_")
            && at(tokens, sig, i + 1).is_some_and(|t| t.kind == TokenKind::Ident)
            && is_punct(tokens, sig, i + 2, src, "=")
        {
            out.push(Violation {
                rule: RuleId::Scg005,
                line: tok.line,
                col: tok.col,
                message: "`let _ =` silently discards a value (Results vanish here); \
                          handle or document it"
                    .to_string(),
            });
            continue;
        }
        // `let [mut] _name = ..` where `_name` is never read afterwards —
        // the same discard wearing a binding.
        let mut j = i + 1;
        if text_at(src, tokens, sig, j) == Some("mut") {
            j += 1;
        }
        let Some(bind) = at(tokens, sig, j) else {
            continue;
        };
        let name = bind.text(src);
        if bind.kind != TokenKind::Ident
            || !name.starts_with('_')
            || name == "_"
            || !is_punct(tokens, sig, j + 1, src, "=")
        {
            continue;
        }
        // Scope of the read scan: the enclosing fn body, or the whole
        // file for non-fn contexts (consts, statics).
        let (lo, hi) = tree
            .enclosing_fn(j)
            .and_then(|f| f.body)
            .unwrap_or((0, sig.len()));
        let read = (lo..hi).filter(|&k| k != j).any(|k| {
            at(tokens, sig, k).is_some_and(|t| t.kind == TokenKind::Ident && t.text(src) == name)
        });
        if !read {
            out.push(Violation {
                rule: RuleId::Scg005,
                line: tok.line,
                col: tok.col,
                message: format!(
                    "`{name}` is never read — a discard wearing a binding; handle \
                     the value or justify the drop"
                ),
            });
        }
    }
}

/// SCG006 — `unsafe` blocks need an adjacent `// SAFETY:` comment: on the
/// block's first line, or in the contiguous comment run directly above.
fn scg006(src: &str, tokens: &[Token], tree: &SyntaxTree, out: &mut Vec<Violation>) {
    if tree.unsafe_blocks.is_empty() {
        return;
    }
    // Per-line facts: does the line carry a SAFETY comment; is it
    // comment-only (so an upward walk may continue through it).
    let mut safety: BTreeSet<u32> = BTreeSet::new();
    let mut has_code: BTreeSet<u32> = BTreeSet::new();
    let mut has_any: BTreeSet<u32> = BTreeSet::new();
    for t in tokens {
        has_any.insert(t.line);
        if matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            if t.text(src).contains("SAFETY:") {
                safety.insert(t.line);
            }
        } else {
            has_code.insert(t.line);
        }
    }
    for ub in &tree.unsafe_blocks {
        if ub.is_test {
            continue;
        }
        let mut justified = safety.contains(&ub.line);
        let mut l = ub.line.saturating_sub(1);
        while !justified && l >= 1 && has_any.contains(&l) && !has_code.contains(&l) {
            justified = safety.contains(&l);
            l -= 1;
        }
        if !justified {
            out.push(Violation {
                rule: RuleId::Scg006,
                line: ub.line,
                col: ub.col,
                message: "`unsafe` block without an adjacent `// SAFETY:` justification"
                    .to_string(),
            });
        }
    }
}

/// SCG007 — results of `extern "C"` calls must flow somewhere (a binding,
/// an argument, a `cvt`-style check); a foreign call in statement
/// position drops the status code on the floor.
fn scg007(src: &str, tokens: &[Token], sig: &[usize], tree: &SyntaxTree, out: &mut Vec<Violation>) {
    if tree.extern_decls.is_empty() {
        return;
    }
    let names: BTreeSet<&str> = tree.extern_decls.iter().map(|d| d.name.as_str()).collect();
    for i in 0..sig.len() {
        let Some(tok) = at(tokens, sig, i) else { break };
        if tok.kind != TokenKind::Ident
            || !names.contains(tok.text(src))
            || !is_punct(tokens, sig, i + 1, src, "(")
        {
            continue;
        }
        // Skip the foreign declaration itself and any shadowing method.
        let prev = text_at(src, tokens, sig, i.wrapping_sub(1));
        if prev == Some("fn") || prev == Some(".") {
            continue;
        }
        // The consumer of the expression: hop over an `unsafe {` wrapper.
        let mut s = i;
        if is_punct(tokens, sig, s.wrapping_sub(1), src, "{")
            && text_at(src, tokens, sig, s.wrapping_sub(2)) == Some("unsafe")
        {
            s -= 2;
        }
        let before = text_at(src, tokens, sig, s.wrapping_sub(1));
        if s == 0 || matches!(before, Some(";" | "{" | "}")) {
            out.push(Violation {
                rule: RuleId::Scg007,
                line: tok.line,
                col: tok.col,
                message: format!(
                    "result of extern \"C\" `{}()` is discarded; route it through a \
                     checked helper (`cvt`-style)",
                    tok.text(src)
                ),
            });
        }
    }
}

/// Calls that park the calling thread (or can): forbidden while a lock
/// guard is live in serve event-loop code.
const BLOCKING: [&str; 12] = [
    "accept",
    "connect",
    "join",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "recv",
    "recv_timeout",
    "sleep",
    "wait",
    "wait_timeout",
    "write_all",
];

/// SCG009 — blocking calls while a `lock()` guard binding is live, scoped
/// to the serve crate (the epoll event loops). A guard is a `let` whose
/// initializer *ends* in `.lock()` (optionally `.expect(..)`/`.unwrap()`),
/// and it lives until the enclosing block closes or `drop(guard)`.
fn scg009(src: &str, tokens: &[Token], tree: &SyntaxTree, out: &mut Vec<Violation>) {
    let sig = &tree.sig;
    for f in &tree.fns {
        let Some((open, close)) = f.body else {
            continue;
        };
        if f.is_test {
            continue;
        }
        let mut i = open + 1;
        while i < close {
            if at(tokens, sig, i).is_some_and(|t| t.kind == TokenKind::Ident)
                && text_at(src, tokens, sig, i) == Some("let")
            {
                let (stmt_end, guard) = let_statement(src, tokens, sig, i, close);
                if let Some(bind) = guard {
                    check_guard_region(src, tokens, sig, stmt_end + 1, close, &bind, out);
                }
                i = stmt_end + 1;
            } else {
                i += 1;
            }
        }
    }
}

/// Scans the `let` statement starting at `i`: returns the index of its
/// terminating `;` and the bound name when the initializer ends in a
/// `.lock()` chain (a live guard).
fn let_statement(
    src: &str,
    tokens: &[Token],
    sig: &[usize],
    i: usize,
    limit: usize,
) -> (usize, Option<String>) {
    let mut j = i + 1;
    if text_at(src, tokens, sig, j) == Some("mut") {
        j += 1;
    }
    let bind = at(tokens, sig, j)
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text(src).to_string());
    // Find the terminating `;` at statement depth.
    let mut depth = 0usize;
    let mut end = i;
    let mut k = i;
    while k < limit {
        match text_at(src, tokens, sig, k) {
            Some("(" | "[" | "{") => depth += 1,
            Some(")" | "]" | "}") => depth = depth.saturating_sub(1),
            Some(";") if depth == 0 => {
                end = k;
                break;
            }
            _ => {}
        }
        k += 1;
    }
    if end == i {
        return (limit, None);
    }
    // Guard iff a `.lock(` chain (plus optional `.expect`/`.unwrap`)
    // reaches the `;` — a lock temporary consumed mid-expression dies at
    // the statement end and holds nothing.
    let mut m = i;
    let mut guard = false;
    while m < end {
        if text_at(src, tokens, sig, m) == Some("lock")
            && is_punct(tokens, sig, m.wrapping_sub(1), src, ".")
            && is_punct(tokens, sig, m + 1, src, "(")
        {
            let mut after = skip_balanced(src, tokens, sig, m + 1, end + 1);
            while is_punct(tokens, sig, after, src, ".")
                && matches!(
                    text_at(src, tokens, sig, after + 1),
                    Some("expect" | "unwrap")
                )
                && is_punct(tokens, sig, after + 2, src, "(")
            {
                after = skip_balanced(src, tokens, sig, after + 2, end + 1);
            }
            if after == end {
                guard = true;
            }
        }
        m += 1;
    }
    (end, if guard { bind } else { None })
}

/// Skips past the balanced group opening at `i`; returns the index just
/// past its closer.
fn skip_balanced(src: &str, tokens: &[Token], sig: &[usize], i: usize, limit: usize) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    while j < limit {
        match text_at(src, tokens, sig, j) {
            Some("(" | "[" | "{") => depth += 1,
            Some(")" | "]" | "}") => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Scans from just past a guard binding to the close of its enclosing
/// block, flagging blocking calls; `drop(guard)` ends the region early.
fn check_guard_region(
    src: &str,
    tokens: &[Token],
    sig: &[usize],
    start: usize,
    limit: usize,
    bind: &str,
    out: &mut Vec<Violation>,
) {
    let mut depth = 0usize;
    let mut j = start;
    while j < limit {
        let Some(tok) = at(tokens, sig, j) else { break };
        let t = tok.text(src);
        match t {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                if depth == 0 && t == "}" {
                    return; // enclosing block closed — guard dropped
                }
                depth = depth.saturating_sub(1);
            }
            "drop"
                if is_punct(tokens, sig, j + 1, src, "(")
                    && text_at(src, tokens, sig, j + 2) == Some(bind)
                    && is_punct(tokens, sig, j + 3, src, ")") =>
            {
                return; // explicit early drop
            }
            _ if tok.kind == TokenKind::Ident
                && is_punct(tokens, sig, j + 1, src, "(")
                && (BLOCKING.contains(&t)
                    || (t == "lock" && is_punct(tokens, sig, j.wrapping_sub(1), src, "."))) =>
            {
                out.push(Violation {
                    rule: RuleId::Scg009,
                    line: tok.line,
                    col: tok.col,
                    message: format!(
                        "`{t}()` while lock guard `{bind}` is live; shrink the lock \
                         scope or drop the guard before blocking"
                    ),
                });
            }
            _ => {}
        }
        j += 1;
    }
}
