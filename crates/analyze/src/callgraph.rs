//! The workspace call graph and the SCG008 panic-reachability analysis.
//!
//! Per file, [`summarize_file`] reduces every non-test function with a
//! body to a [`FnSummary`]: its panic sites (the `SCG001` construct set
//! plus the `assert!` family, *excluding* `debug_assert*` which compiles
//! out of release builds) and its outgoing calls. Name resolution is
//! deliberately pragmatic — path segments plus per-file `use` maps, which
//! is sound for this zero-external-dep workspace:
//!
//! * `Type::method(..)` and `Self::method(..)` resolve against `impl`
//!   blocks (the latter through the enclosing impl from the syntax tree);
//! * `scg_perm::cast::sym_u8(..)`-style paths resolve through the crate
//!   prefix; bare `sym_u8(..)` resolves through the file's `use` map and
//!   falls back to same-crate free functions;
//! * `.method(..)` on a non-`self` receiver resolves by name against
//!   every workspace `impl` method the calling crate can call (its own,
//!   and the `pub` or trait-impl ones of its dependencies) —
//!   except names that shadow std-prelude methods (`push`, `len`,
//!   `lock`, ..), which resolve to std and are assumed total. Workspace
//!   methods behind such names are therefore only audited at `self.`
//!   and `Type::`-qualified call sites: a documented under-approximation
//!   that buys freedom from std false positives.
//!
//! Unresolved names are external (std) and assumed non-panicking; slice
//! indexing and arithmetic overflow are documented non-goals of the
//! token-level analysis. A panic site can be *audited away* with a
//! `// scg-allow(SCG008): reason` on its line (or the line above) — the
//! mark asserts a caller-checked invariant makes the panic unreachable,
//! and [`reachability`] then treats the function as total there.
//!
//! [`reachability`] runs BFS from each wire-decode/routing entry point
//! and reports every reachable unaudited panic with its full call chain.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Token, TokenKind};
use crate::rules::FileInfo;
use crate::syntax::SyntaxTree;

/// The entry points SCG008 proves panic-free: `(crate, function)` pairs.
/// Every function with a matching name in the crate is an entry (both
/// `parse` free function and `JsonParser::parse` in `scg_obs::json`).
pub const DEFAULT_ENTRIES: [(&str, &str); 9] = [
    ("serve", "decode_request"),
    ("serve", "decode_reply"),
    ("serve", "peek_frame"),
    ("serve", "route_payload"),
    ("obs", "parse"),
    ("core", "route_into"),
    ("core", "route_packed"),
    ("core", "pack_labels"),
    ("core", "star_sort_links"),
];

/// Method names that shadow std-prelude/collection methods; `.name(..)`
/// on a non-`self` receiver resolves to std (assumed total) for these.
const STD_METHODS: [&str; 64] = [
    "as_bytes",
    "as_mut",
    "as_mut_ptr",
    "as_ptr",
    "as_ref",
    "as_slice",
    "as_str",
    "bytes",
    "chars",
    "clear",
    "clone",
    "cmp",
    "collect",
    "contains",
    "copied",
    "copy_from_slice",
    "count",
    "drain",
    "ends_with",
    "enumerate",
    "extend",
    "extend_from_slice",
    "fill",
    "filter",
    "find",
    "first",
    "flush",
    "fold",
    "get",
    "get_mut",
    "insert",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "last",
    "len",
    "lock",
    "map",
    "max",
    "min",
    "next",
    "position",
    "pop",
    "push",
    "push_str",
    "read",
    "remove",
    "reserve",
    "resize",
    "rev",
    "skip",
    "sort",
    "split",
    "starts_with",
    "sum",
    "swap",
    "take",
    "to_string",
    "to_vec",
    "trim",
    "write",
    "zip",
];

/// Keywords and intrinsics a bare `ident (` is never a workspace call of.
const NON_CALLS: [&str; 16] = [
    "as", "box", "drop", "else", "fn", "for", "if", "in", "let", "loop", "match", "move", "mut",
    "ref", "return", "while",
];

/// One panicking construct inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What panics there, e.g. `unwrap()` or `assert!`.
    pub what: String,
    /// Whether a `// scg-allow(SCG008): reason` audits the site away.
    pub audited: bool,
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `foo(..)` — a same-crate free function.
    Bare(String),
    /// `Type::method(..)` with no crate qualifier in scope.
    Typed(String, String),
    /// A crate-qualified call: `(crate, impl type if any, name)`.
    Cratewide(String, Option<String>, String),
    /// `.method(..)` on a non-`self` receiver.
    Method(String),
}

/// One outgoing call from a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The callee reference as written.
    pub callee: Callee,
}

/// The per-function unit of the call graph.
#[derive(Debug, Clone)]
pub struct FnSummary {
    /// Crate directory name (`serve`, `perm`, ..).
    pub krate: String,
    /// Workspace-relative file path.
    pub file: String,
    /// Function name.
    pub name: String,
    /// Enclosing `impl` type, if any.
    pub impl_type: Option<String>,
    /// Whether other crates can call it (see [`FnItem::is_pub`]).
    ///
    /// [`FnItem::is_pub`]: crate::syntax::FnItem::is_pub
    pub is_pub: bool,
    /// 1-based line of the name token.
    pub line: u32,
    /// 1-based column of the name token.
    pub col: u32,
    /// Panic sites in the body.
    pub panics: Vec<PanicSite>,
    /// Outgoing calls from the body.
    pub calls: Vec<CallSite>,
}

impl FnSummary {
    /// `Type::name` or plain `name`, for chain rendering.
    #[must_use]
    pub fn display(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Where a `use`-imported name points.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ImportTarget {
    /// std / core / alloc — assumed total.
    External,
    /// A workspace crate (directory name), plus the penultimate path
    /// segment when it looks like a type.
    Crate(String, Option<String>),
    /// `crate::` / `self::` / `super::` — the current crate.
    Local(Option<String>),
}

/// A SCG008 finding: an unaudited panic reachable from an entry point.
#[derive(Debug, Clone)]
pub struct PanicFinding {
    /// File of the entry-point function.
    pub file: String,
    /// 1-based line of the entry-point name token.
    pub line: u32,
    /// 1-based column of the entry-point name token.
    pub col: u32,
    /// Full description including the call chain and the panic site.
    pub message: String,
}

/// Extracts the summaries of every non-test bodied function in one file.
///
/// `allow_lines` are the lines carrying a justified `scg-allow(SCG008)`
/// comment; the returned set is the subset actually consumed by a panic
/// site (the driver feeds this back into `SCG000` unused-suppression
/// accounting).
pub fn summarize_file(
    src: &str,
    tokens: &[Token],
    tree: &SyntaxTree,
    info: &FileInfo,
    allow_lines: &BTreeSet<u32>,
) -> (Vec<FnSummary>, BTreeSet<u32>) {
    let imports = import_map(src, tokens, tree);
    let mut used = BTreeSet::new();
    let mut out = Vec::new();
    for f in &tree.fns {
        let Some((open, close)) = f.body else {
            continue;
        };
        if f.is_test {
            continue;
        }
        let mut summary = FnSummary {
            krate: info.crate_name.clone(),
            file: info.rel_path.clone(),
            name: f.name.clone(),
            impl_type: f.impl_type.clone(),
            is_pub: f.is_pub,
            line: f.line,
            col: f.col,
            panics: Vec::new(),
            calls: Vec::new(),
        };
        scan_body(
            src,
            tokens,
            tree,
            (open, close),
            f.impl_type.as_deref(),
            &imports,
            allow_lines,
            &mut used,
            &mut summary,
        );
        out.push(summary);
    }
    (out, used)
}

/// Tokens helpers over the significant index space.
fn txt<'s>(src: &'s str, tokens: &[Token], sig: &[usize], i: usize) -> &'s str {
    sig.get(i).map_or("", |&ix| tokens[ix].text(src))
}

fn is_ident(tokens: &[Token], sig: &[usize], i: usize) -> bool {
    sig.get(i)
        .is_some_and(|&ix| tokens[ix].kind == TokenKind::Ident)
}

/// Walks one body range extracting panic sites and call sites.
#[allow(clippy::too_many_arguments)]
fn scan_body(
    src: &str,
    tokens: &[Token],
    tree: &SyntaxTree,
    (open, close): (usize, usize),
    impl_type: Option<&str>,
    imports: &BTreeMap<String, ImportTarget>,
    allow_lines: &BTreeSet<u32>,
    used: &mut BTreeSet<u32>,
    out: &mut FnSummary,
) {
    let sig = &tree.sig;
    let mut i = open + 1;
    while i < close {
        if !is_ident(tokens, sig, i) {
            i += 1;
            continue;
        }
        let name = txt(src, tokens, sig, i);
        let tok = &tokens[sig[i]];
        let next_bang = txt(src, tokens, sig, i + 1) == "!";
        // `debug_assert*!` compiles out of release builds: skip the whole
        // macro group, calls inside it included.
        if name.starts_with("debug_assert") && next_bang {
            i = skip_group(src, tokens, sig, i + 2, close);
            continue;
        }
        let macro_panic = matches!(
            name,
            "panic"
                | "unreachable"
                | "todo"
                | "unimplemented"
                | "assert"
                | "assert_eq"
                | "assert_ne"
        ) && next_bang;
        let method_panic = matches!(name, "unwrap" | "expect")
            && txt(src, tokens, sig, i - 1) == "."
            && txt(src, tokens, sig, i + 1) == "(";
        if macro_panic || method_panic {
            let audited = allow_lines.contains(&tok.line)
                || (tok.line > 1 && allow_lines.contains(&(tok.line - 1)));
            if audited {
                if allow_lines.contains(&tok.line) {
                    used.insert(tok.line);
                } else {
                    used.insert(tok.line - 1);
                }
            }
            out.panics.push(PanicSite {
                line: tok.line,
                col: tok.col,
                what: if macro_panic {
                    format!("{name}!")
                } else {
                    format!("{name}()")
                },
                audited,
            });
            i += 1;
            continue;
        }
        // A call site: ident followed by `(` (macros handled above keep
        // their argument tokens in the scan).
        if txt(src, tokens, sig, i + 1) != "(" || next_bang {
            i += 1;
            continue;
        }
        if NON_CALLS.contains(&name) {
            i += 1;
            continue;
        }
        if let Some(callee) = classify_call(src, tokens, sig, i, impl_type, imports) {
            out.calls.push(CallSite { callee });
        }
        i += 1;
    }
}

/// Skips past the balanced `( .. )` / `[ .. ]` / `{ .. }` group starting
/// at significant index `i` (the opening delimiter).
fn skip_group(src: &str, tokens: &[Token], sig: &[usize], i: usize, limit: usize) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    while j < limit {
        match txt(src, tokens, sig, j) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
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

/// Classifies the call whose name token sits at significant index `i`.
fn classify_call(
    src: &str,
    tokens: &[Token],
    sig: &[usize],
    i: usize,
    impl_type: Option<&str>,
    imports: &BTreeMap<String, ImportTarget>,
) -> Option<Callee> {
    let name = txt(src, tokens, sig, i)
        .trim_start_matches("r#")
        .to_string();
    let prev = txt(src, tokens, sig, i.wrapping_sub(1));
    if prev == "." {
        // Method call. `self.method(..)` resolves through the enclosing
        // impl; anything else resolves by name unless std shadows it.
        let recv_is_self = txt(src, tokens, sig, i.wrapping_sub(2)) == "self"
            && txt(src, tokens, sig, i.wrapping_sub(3)) != ".";
        if recv_is_self {
            if let Some(t) = impl_type {
                return Some(Callee::Typed(t.to_string(), name));
            }
        }
        if STD_METHODS.contains(&name.as_str()) {
            return None;
        }
        return Some(Callee::Method(name));
    }
    if prev == ":" && txt(src, tokens, sig, i.wrapping_sub(2)) == ":" {
        // Path call: collect the segments walking backwards.
        let mut segs = vec![name.clone()];
        let mut j = i;
        while j >= 3
            && txt(src, tokens, sig, j - 1) == ":"
            && txt(src, tokens, sig, j - 2) == ":"
            && is_ident(tokens, sig, j - 3)
        {
            segs.push(
                txt(src, tokens, sig, j - 3)
                    .trim_start_matches("r#")
                    .to_string(),
            );
            j -= 3;
        }
        segs.reverse();
        return classify_path(&segs, impl_type, imports);
    }
    // Bare call. Uppercase initials are tuple-struct/variant constructors
    // (`Some`, `Ok`, `NetId`) — total by construction.
    if name.chars().next().is_some_and(char::is_uppercase) {
        return None;
    }
    match imports.get(&name) {
        Some(ImportTarget::External) => None,
        Some(ImportTarget::Crate(k, ty)) => Some(Callee::Cratewide(k.clone(), ty.clone(), name)),
        Some(ImportTarget::Local(Some(t))) => Some(Callee::Typed(t.clone(), name)),
        Some(ImportTarget::Local(None)) | None => Some(Callee::Bare(name)),
    }
}

/// Resolves a `::`-path call head against the import map.
fn classify_path(
    segs: &[String],
    impl_type: Option<&str>,
    imports: &BTreeMap<String, ImportTarget>,
) -> Option<Callee> {
    let name = segs.last()?.clone();
    let first = segs.first()?.as_str();
    let qualifier = (segs.len() >= 2).then(|| segs[segs.len() - 2].clone());
    let ty = qualifier
        .as_ref()
        .filter(|q| q.chars().next().is_some_and(char::is_uppercase) && q.as_str() != first)
        .cloned();
    match first {
        "std" | "core" | "alloc" => None,
        "Self" => Some(Callee::Typed(impl_type?.to_string(), name)),
        "crate" | "self" | "super" => match ty {
            Some(t) => Some(Callee::Typed(t, name)),
            None => Some(Callee::Bare(name)),
        },
        _ if first.starts_with("scg_") => Some(Callee::Cratewide(
            first.trim_start_matches("scg_").to_string(),
            ty,
            name,
        )),
        _ => match imports.get(first) {
            Some(ImportTarget::External) => None,
            Some(ImportTarget::Crate(k, _)) => {
                // `module::f(..)` where the module was imported from a
                // workspace crate, or `Type::m(..)` where the type was.
                let ty = is_type_name(first).then(|| first.to_string());
                Some(Callee::Cratewide(k.clone(), ty, name))
            }
            Some(ImportTarget::Local(_)) | None => {
                if is_type_name(first) && segs.len() == 2 {
                    Some(Callee::Typed(first.to_string(), name))
                } else {
                    Some(Callee::Bare(name))
                }
            }
        },
    }
}

fn is_type_name(s: &str) -> bool {
    s.chars().next().is_some_and(char::is_uppercase)
}

/// Builds the per-file `use` map: leaf name → where it points.
fn import_map(src: &str, tokens: &[Token], tree: &SyntaxTree) -> BTreeMap<String, ImportTarget> {
    let sig = &tree.sig;
    let mut out = BTreeMap::new();
    let mut i = 0usize;
    while i < sig.len() {
        if txt(src, tokens, sig, i) == "use" && is_use_position(src, tokens, sig, i) {
            i = parse_use_tree(src, tokens, sig, i + 1, &mut Vec::new(), &mut out);
        } else {
            i += 1;
        }
    }
    out
}

/// `use` the keyword, not `use` inside a path or attr (`#[allow(unused_use)]`).
fn is_use_position(src: &str, tokens: &[Token], sig: &[usize], i: usize) -> bool {
    let prev = txt(src, tokens, sig, i.wrapping_sub(1));
    i == 0 || matches!(prev, ";" | "}" | "{" | "]")
}

/// Recursively parses one use-tree starting at `i`; returns the index
/// just past it.
fn parse_use_tree(
    src: &str,
    tokens: &[Token],
    sig: &[usize],
    mut i: usize,
    prefix: &mut Vec<String>,
    out: &mut BTreeMap<String, ImportTarget>,
) -> usize {
    let depth_at_entry = prefix.len();
    let mut last: Option<String> = None;
    loop {
        let t = txt(src, tokens, sig, i);
        match t {
            "" | ";" => {
                if let Some(leaf) = last.take() {
                    bind(prefix, &leaf, &leaf, out);
                }
                prefix.truncate(depth_at_entry);
                return i + 1;
            }
            ":" => i += 1,
            "," => {
                if let Some(leaf) = last.take() {
                    bind(prefix, &leaf, &leaf, out);
                }
                prefix.truncate(depth_at_entry);
                i += 1;
            }
            "{" => {
                if let Some(seg) = last.take() {
                    prefix.push(seg);
                }
                i += 1;
            }
            "}" => {
                if let Some(leaf) = last.take() {
                    bind(prefix, &leaf, &leaf, out);
                }
                prefix.truncate(depth_at_entry);
                i += 1;
            }
            "as" => {
                let alias = txt(src, tokens, sig, i + 1).to_string();
                if let Some(leaf) = last.take() {
                    bind(prefix, &leaf, &alias, out);
                }
                i += 2;
            }
            "*" => {
                last = None;
                i += 1;
            }
            _ => {
                if let Some(seg) = last.take() {
                    prefix.push(seg);
                }
                last = Some(t.trim_start_matches("r#").to_string());
                i += 1;
            }
        }
    }
}

/// Records one imported leaf under `alias`.
fn bind(prefix: &[String], leaf: &str, alias: &str, out: &mut BTreeMap<String, ImportTarget>) {
    let Some(first) = prefix.first().map(String::as_str).or(Some(leaf)) else {
        return;
    };
    let penultimate = if prefix.is_empty() {
        None
    } else {
        prefix.last().cloned()
    };
    let ty = penultimate.filter(|p| is_type_name(p));
    let target = match first {
        "std" | "core" | "alloc" => ImportTarget::External,
        "crate" | "self" | "super" => ImportTarget::Local(ty),
        _ if first.starts_with("scg_") => {
            ImportTarget::Crate(first.trim_start_matches("scg_").to_string(), ty)
        }
        _ => return, // unknown root (macro import, extern crate) — skip
    };
    out.insert(alias.to_string(), target);
}

/// Runs panic-reachability over the whole workspace's summaries.
///
/// `deps` maps each crate to its direct workspace dependencies; an edge
/// from crate `a` may only land in `a` itself or its transitive deps.
/// Entries that do not exist in `summaries` are skipped (fixtures
/// exercise subsets of the workspace).
#[must_use]
pub fn reachability(
    summaries: &[FnSummary],
    deps: &BTreeMap<String, BTreeSet<String>>,
    entries: &[(&str, &str)],
) -> Vec<PanicFinding> {
    // Transitive dependency closure per crate.
    let mut visible: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let crates: BTreeSet<&str> = summaries.iter().map(|s| s.krate.as_str()).collect();
    for &c in &crates {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack = vec![c];
        while let Some(k) = stack.pop() {
            if seen.insert(k) {
                if let Some(ds) = deps.get(k) {
                    stack.extend(ds.iter().map(String::as_str));
                }
            }
        }
        visible.insert(c, seen);
    }
    let empty = BTreeSet::new();
    let vis = |from: &str, to: &str| from == to || visible.get(from).unwrap_or(&empty).contains(to);
    // A method is callable from its own crate, and from a dependent crate
    // only if it is `pub`.
    let callable = |from: &FnSummary, id: usize| {
        let to = &summaries[id];
        from.krate == to.krate || (to.is_pub && vis(&from.krate, &to.krate))
    };

    // Name indexes.
    let mut free: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut typed: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut any: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (id, s) in summaries.iter().enumerate() {
        any.entry((&s.krate, &s.name)).or_default().push(id);
        match &s.impl_type {
            None => free.entry((&s.krate, &s.name)).or_default().push(id),
            Some(t) => {
                typed
                    .entry((t.as_str(), s.name.as_str()))
                    .or_default()
                    .push(id);
                methods.entry(&s.name).or_default().push(id);
            }
        }
    }

    // Resolve edges.
    let resolve = |from: &FnSummary, call: &CallSite| -> Vec<usize> {
        let mut ids: Vec<usize> = match &call.callee {
            Callee::Bare(name) => free
                .get(&(from.krate.as_str(), name.as_str()))
                .cloned()
                .unwrap_or_default(),
            Callee::Typed(ty, name) => typed
                .get(&(ty.as_str(), name.as_str()))
                .map(|v| v.iter().copied().filter(|&id| callable(from, id)).collect())
                .unwrap_or_default(),
            Callee::Cratewide(k, ty, name) => match ty {
                Some(t) => typed
                    .get(&(t.as_str(), name.as_str()))
                    .map(|v| {
                        v.iter()
                            .copied()
                            .filter(|&id| summaries[id].krate == *k)
                            .collect()
                    })
                    .unwrap_or_default(),
                None => {
                    let f = free.get(&(k.as_str(), name.as_str())).cloned();
                    f.unwrap_or_else(|| {
                        any.get(&(k.as_str(), name.as_str()))
                            .cloned()
                            .unwrap_or_default()
                    })
                }
            },
            Callee::Method(name) => methods
                .get(name.as_str())
                .map(|v| v.iter().copied().filter(|&id| callable(from, id)).collect())
                .unwrap_or_default(),
        };
        ids.sort_unstable();
        ids.dedup();
        ids
    };
    let edges: Vec<Vec<usize>> = summaries
        .iter()
        .map(|s| {
            let mut out: Vec<usize> = s.calls.iter().flat_map(|c| resolve(s, c)).collect();
            out.sort_unstable();
            out.dedup();
            out
        })
        .collect();

    // BFS from each entry, reporting every reachable unaudited panic.
    let mut findings = Vec::new();
    for &(ekrate, ename) in entries {
        let entry_ids: Vec<usize> = summaries
            .iter()
            .enumerate()
            .filter(|(_, s)| s.krate == ekrate && s.name == ename)
            .map(|(id, _)| id)
            .collect();
        for entry in entry_ids {
            let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
            let mut queue = std::collections::VecDeque::from([entry]);
            let mut seen = BTreeSet::from([entry]);
            while let Some(id) = queue.pop_front() {
                if let Some(site) = summaries[id].panics.iter().find(|p| !p.audited) {
                    let mut chain = vec![id];
                    let mut cur = id;
                    while let Some(&p) = parent.get(&cur) {
                        chain.push(p);
                        cur = p;
                    }
                    chain.reverse();
                    let path = chain
                        .iter()
                        .map(|&c| summaries[c].display())
                        .collect::<Vec<_>>()
                        .join(" → ");
                    let e = &summaries[entry];
                    findings.push(PanicFinding {
                        file: e.file.clone(),
                        line: e.line,
                        col: e.col,
                        message: format!(
                            "panic reachable from entry `{}`: {} — {} at {}:{}",
                            e.display(),
                            path,
                            site.what,
                            summaries[id].file,
                            site.line
                        ),
                    });
                }
                for &t in &edges[id] {
                    if seen.insert(t) {
                        parent.insert(t, id);
                        queue.push_back(t);
                    }
                }
            }
        }
    }
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.col, &a.message).cmp(&(&b.file, b.line, b.col, &b.message))
    });
    findings
}
