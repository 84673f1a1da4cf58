//! The brace-matched item tree: a syntactic layer between the lexer and
//! the flow rules.
//!
//! The original driver located test code with line heuristics (attribute
//! scan + a one-shot brace match). The flow rules of the v2 analyzer need
//! real structure — which `fn` a token sits in, which `impl` a `fn` sits
//! in, where an `unsafe { .. }` block opens and closes, which foreign
//! functions an `extern "C"` block declares — so this module runs one
//! linear pass over the significant tokens with an explicit scope stack
//! and produces a [`SyntaxTree`]: every function item with its resolved
//! body span, every unsafe block, every extern declaration, and the exact
//! set of test-gated lines (`#[test]` / `#[cfg(test)]`, with
//! `not(test)` *keeping* an item in the lint set).
//!
//! It is still not a parser: expression grammar is opaque to it, struct
//! literals simply open anonymous scopes, and the only headers it
//! understands are the item kinds the rules consume. That is exactly as
//! much Rust as the invariants need, in the same spirit as the lexer.

use std::collections::BTreeSet;

use crate::lexer::{Token, TokenKind};

/// A function item (including bodiless trait/extern signatures).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name, `r#` prefix stripped.
    pub name: String,
    /// The enclosing `impl` type, if any (`impl Foo` and
    /// `impl Trait for Foo` both yield `Foo`).
    pub impl_type: Option<String>,
    /// 1-based line of the name token.
    pub line: u32,
    /// 1-based column of the name token.
    pub col: u32,
    /// Significant-token index range of the body, inclusive of both
    /// braces; `None` for signatures without a body.
    pub body: Option<(usize, usize)>,
    /// Whether the item sits inside test-gated code.
    pub is_test: bool,
    /// Whether other crates can name it: declared plain `pub` (not
    /// `pub(crate)` and the like), or a method of an `impl Trait for`
    /// block, which is as visible as its trait.
    pub is_pub: bool,
}

/// An `unsafe { .. }` block expression (not an `unsafe fn` header).
#[derive(Debug, Clone)]
pub struct UnsafeBlock {
    /// 1-based line of the `unsafe` keyword.
    pub line: u32,
    /// 1-based column of the `unsafe` keyword.
    pub col: u32,
    /// Significant-token indices of the `{` and matching `}`.
    pub open: usize,
    /// See [`UnsafeBlock::open`].
    pub close: usize,
    /// Whether the block sits inside test-gated code.
    pub is_test: bool,
}

/// One foreign function declared inside an `extern "abi" { .. }` block.
#[derive(Debug, Clone)]
pub struct ExternDecl {
    /// The declared name.
    pub name: String,
    /// 1-based line of the name token.
    pub line: u32,
}

/// The item tree of one file.
#[derive(Debug, Default)]
pub struct SyntaxTree {
    /// Every `fn` item, in source order.
    pub fns: Vec<FnItem>,
    /// Every `unsafe { .. }` block, in source order.
    pub unsafe_blocks: Vec<UnsafeBlock>,
    /// Every foreign function declared in this file.
    pub extern_decls: Vec<ExternDecl>,
    /// Indices (into the token slice) of non-comment tokens.
    pub sig: Vec<usize>,
    test_lines: BTreeSet<u32>,
}

impl SyntaxTree {
    /// Whether a 1-based line sits inside test-gated code.
    #[must_use]
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_lines.contains(&line)
    }

    /// The innermost function whose body covers significant index `i`.
    #[must_use]
    pub fn enclosing_fn(&self, i: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| f.body.is_some_and(|(o, c)| o < i && i < c))
            .max_by_key(|f| f.body.map(|(o, _)| o))
    }
}

/// What one entry of the scope stack is.
enum ScopeKind {
    /// An anonymous `{ .. }`: block expression, struct literal, struct
    /// body, match body — anything the walker has no header for.
    Block,
    /// A `fn` body; the payload indexes [`SyntaxTree::fns`].
    Fn(usize),
    /// An `impl` body with the resolved type name, and whether it
    /// implements a trait.
    Impl(String, bool),
    /// An `unsafe { .. }` block; the payload indexes
    /// [`SyntaxTree::unsafe_blocks`].
    Unsafe(usize),
    /// An `extern "abi" { .. }` foreign block.
    Extern,
}

struct Scope {
    kind: ScopeKind,
    start_line: u32,
    test: bool,
}

/// Builds the item tree for one lexed file.
#[must_use]
pub fn build(src: &str, tokens: &[Token]) -> SyntaxTree {
    let sig: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .map(|(i, _)| i)
        .collect();
    let mut tree = SyntaxTree {
        sig,
        ..SyntaxTree::default()
    };
    Walker {
        src,
        tokens,
        tree: &mut tree,
        scopes: Vec::new(),
        pending_test: false,
        pending_start: None,
    }
    .walk();
    tree
}

struct Walker<'a> {
    src: &'a str,
    tokens: &'a [Token],
    tree: &'a mut SyntaxTree,
    scopes: Vec<Scope>,
    pending_test: bool,
    pending_start: Option<u32>,
}

impl Walker<'_> {
    fn tok(&self, i: usize) -> Option<&Token> {
        self.tree.sig.get(i).map(|&ix| &self.tokens[ix])
    }

    fn txt(&self, i: usize) -> &str {
        self.tok(i).map_or("", |t| t.text(self.src))
    }

    fn line(&self, i: usize) -> u32 {
        self.tok(i).map_or(0, |t| t.line)
    }

    fn in_test(&self) -> bool {
        self.scopes.last().is_some_and(|s| s.test)
    }

    /// Consumes the pending attribute state for an item opening at `line`.
    fn take_pending(&mut self, line: u32) -> (bool, u32) {
        let test = self.pending_test || self.in_test();
        let start = self.pending_start.unwrap_or(line);
        self.pending_test = false;
        self.pending_start = None;
        (test, start)
    }

    fn mark(&mut self, from: u32, to: u32) {
        for l in from..=to {
            self.tree.test_lines.insert(l);
        }
    }

    fn walk(&mut self) {
        let n = self.tree.sig.len();
        let mut i = 0usize;
        while i < n {
            match self.txt(i) {
                "#" if self.txt(i + 1) == "[" => {
                    let (is_test, after) = scan_attr(self.src, self.tokens, &self.tree.sig, i);
                    self.pending_start = Some(self.pending_start.unwrap_or(self.line(i)));
                    self.pending_test |= is_test;
                    i = after;
                }
                "#" if self.txt(i + 1) == "!" && self.txt(i + 2) == "[" => {
                    // Inner attribute `#![..]`: file-level, never a region.
                    let (_, after) = scan_attr(self.src, self.tokens, &self.tree.sig, i + 1);
                    i = after;
                }
                // The Ident guard keeps fn-pointer types (`fn(u8) -> u8`
                // in type position) from registering as items.
                "fn" if self.tok(i + 1).is_some_and(|t| t.kind == TokenKind::Ident) => {
                    i = self.item_fn(i);
                }
                "impl" => i = self.item_impl(i),
                "unsafe" if self.txt(i + 1) == "{" => {
                    let (test, start) = {
                        let t = self.in_test();
                        (t, self.line(i))
                    };
                    let tok = self.tok(i).copied();
                    let ix = self.tree.unsafe_blocks.len();
                    self.tree.unsafe_blocks.push(UnsafeBlock {
                        line: tok.map_or(0, |t| t.line),
                        col: tok.map_or(0, |t| t.col),
                        open: i + 1,
                        close: i + 1,
                        is_test: test || self.pending_test,
                    });
                    self.scopes.push(Scope {
                        kind: ScopeKind::Unsafe(ix),
                        start_line: start,
                        test,
                    });
                    i += 2;
                }
                "extern" => i = self.item_extern(i),
                "{" => {
                    let line = self.line(i);
                    let (test, start) = self.take_pending(line);
                    self.scopes.push(Scope {
                        kind: ScopeKind::Block,
                        start_line: start,
                        test,
                    });
                    i += 1;
                }
                "}" => {
                    let line = self.line(i);
                    if let Some(scope) = self.scopes.pop() {
                        match scope.kind {
                            ScopeKind::Fn(ix) => {
                                if let Some((open, _)) = self.tree.fns[ix].body {
                                    self.tree.fns[ix].body = Some((open, i));
                                }
                            }
                            ScopeKind::Unsafe(ix) => self.tree.unsafe_blocks[ix].close = i,
                            _ => {}
                        }
                        if scope.test {
                            self.mark(scope.start_line, line);
                        }
                    }
                    i += 1;
                }
                ";" if self.pending_test => {
                    // An attributed item without a body (`#[cfg(test)]
                    // use ..;`, tuple struct, const): the region is the
                    // attribute through this terminator.
                    let line = self.line(i);
                    let (test, start) = self.take_pending(line);
                    if test {
                        self.mark(start, line);
                    }
                    i += 1;
                }
                _ => i += 1,
            }
        }
    }

    /// Handles `fn name .. ( { body } | ; )`; returns the resume index.
    fn item_fn(&mut self, i: usize) -> usize {
        let Some(name_tok) = self.tok(i + 1).copied() else {
            return i + 1;
        };
        let name = name_tok.text(self.src).trim_start_matches("r#").to_string();
        let (test, start) = self.take_pending(name_tok.line);
        let impl_type = self.scopes.iter().rev().find_map(|s| match &s.kind {
            ScopeKind::Impl(name, _) => Some(name.clone()),
            _ => None,
        });
        let is_pub = self.declared_pub(i)
            || self
                .scopes
                .last()
                .is_some_and(|s| matches!(s.kind, ScopeKind::Impl(_, true)));
        let in_extern = self
            .scopes
            .last()
            .is_some_and(|s| matches!(s.kind, ScopeKind::Extern));
        if in_extern {
            self.tree.extern_decls.push(ExternDecl {
                name: name.clone(),
                line: name_tok.line,
            });
        }
        // Scan the signature for the body `{` or the terminating `;`.
        // Neither appears inside parameter or return types in this
        // workspace (no const-generic brace expressions).
        let mut j = i + 2;
        loop {
            match self.txt(j) {
                "{" => break,
                ";" | "" => {
                    self.tree.fns.push(FnItem {
                        name,
                        impl_type,
                        line: name_tok.line,
                        col: name_tok.col,
                        body: None,
                        is_test: test,
                        is_pub,
                    });
                    if test {
                        self.mark(start, self.line(j.min(self.tree.sig.len() - 1)));
                    }
                    return j + 1;
                }
                _ => j += 1,
            }
        }
        let ix = self.tree.fns.len();
        self.tree.fns.push(FnItem {
            name,
            impl_type,
            line: name_tok.line,
            col: name_tok.col,
            body: Some((j, j)),
            is_test: test,
            is_pub,
        });
        self.scopes.push(Scope {
            kind: ScopeKind::Fn(ix),
            start_line: start,
            test,
        });
        j + 1
    }

    /// Whether the `fn` keyword at `i` follows a plain `pub`, past any
    /// `const`, `async`, `unsafe` and `extern "abi"` qualifiers.
    fn declared_pub(&self, i: usize) -> bool {
        let mut j = i;
        while j > 0 {
            j -= 1;
            let qualifier = matches!(self.txt(j), "const" | "async" | "unsafe" | "extern")
                || self.tok(j).is_some_and(|t| t.kind == TokenKind::Str);
            if !qualifier {
                return self.txt(j) == "pub";
            }
        }
        false
    }

    /// Handles `impl<..> [Trait for] Type {`; returns the resume index
    /// (just past the body `{`).
    fn item_impl(&mut self, i: usize) -> usize {
        let (test, start) = self.take_pending(self.line(i));
        let mut j = i + 1;
        let mut name = String::new();
        let mut angle = 0usize;
        let mut of_trait = false;
        loop {
            let t = self.txt(j);
            match t {
                "" => return j,
                "{" if angle == 0 => break,
                "<" => angle += 1,
                // `->` inside `Fn()` bounds is an arrow, not a close.
                ">" if angle > 0 && self.txt(j - 1) != "-" => angle -= 1,
                "for" if angle == 0 => {
                    name.clear();
                    of_trait = true;
                }
                "where" if angle == 0 => {
                    // The type is fully named before the clause.
                    while !matches!(self.txt(j), "{" | "") {
                        j += 1;
                    }
                    break;
                }
                _ => {
                    if angle == 0 && self.tok(j).is_some_and(|t| t.kind == TokenKind::Ident) {
                        name = t.trim_start_matches("r#").to_string();
                    }
                }
            }
            j += 1;
        }
        self.scopes.push(Scope {
            kind: ScopeKind::Impl(name, of_trait),
            start_line: start,
            test,
        });
        j + 1
    }

    /// Handles the three `extern` forms; returns the resume index.
    fn item_extern(&mut self, i: usize) -> usize {
        let abi = self.tok(i + 1).copied();
        match abi.map(|t| t.kind) {
            // `extern "C" { .. }` — a foreign block.
            Some(TokenKind::Str) if self.txt(i + 2) == "{" => {
                let (test, start) = self.take_pending(self.line(i));
                self.scopes.push(Scope {
                    kind: ScopeKind::Extern,
                    start_line: start,
                    test,
                });
                i + 3
            }
            // `extern "C" fn` — a qualifier; let `fn` handle the rest.
            Some(TokenKind::Str) => i + 2,
            // `extern crate ..;` or a bare `extern` qualifier.
            _ => i + 1,
        }
    }
}

/// Scans the attribute starting at significant index `i` (`#` `[` ..).
/// Returns whether it test-gates its item, and the index just past `]`.
pub(crate) fn scan_attr(src: &str, tokens: &[Token], sig: &[usize], i: usize) -> (bool, usize) {
    let mut depth = 0usize;
    let mut j = i + 1; // at `[`
    let mut is_test = false;
    while j < sig.len() {
        let t = tokens[sig[j]].text(src);
        match t {
            "[" | "(" => depth += 1,
            "]" | ")" => {
                depth -= 1;
                if depth == 0 {
                    return (is_test, j + 1);
                }
            }
            "test" => {
                // `not(test)` keeps the item in the lint set.
                let negated = j >= 2
                    && tokens[sig[j - 1]].text(src) == "("
                    && tokens[sig[j - 2]].text(src) == "not";
                if !negated {
                    is_test = true;
                }
            }
            _ => {}
        }
        j += 1;
    }
    (is_test, j)
}
