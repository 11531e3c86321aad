//! A minimal syntax layer over the lossless token stream.
//!
//! The concurrency rules (see [`crate::concurrency`]) need three things
//! no flat token scan provides: *where blocks begin and end* (a lock
//! guard lives to the end of its enclosing scope), *where functions
//! begin and end* (so acquisitions can be summarised per function and
//! propagated to call sites), and *what calls what* (so `close_window(...)`
//! under a held guard contributes the locks `close_window` itself
//! takes). This module recovers exactly that — a brace-matched scope
//! tree, `fn` item boundaries, and call sites with receiver chains and
//! argument identifiers — from the total lexer, with the same contract:
//!
//! - **total**: any token stream indexes without panicking; stray `}`
//!   are ignored, unclosed `{` scopes run to end of file;
//! - **tiling**: every byte offset has exactly one innermost scope, and
//!   the scopes containing an offset are precisely the parent chain of
//!   its innermost scope (pinned by proptests in
//!   `tests/syntax_props.rs`);
//! - **no parse tree**: this is deliberately not `syn` — it knows
//!   nothing about types or expressions, only about braces, parens,
//!   `fn` headers, and `a.b.c(...)` shapes, which is all the rules use.

use crate::lexer::{TokKind, Token};

/// A brace-delimited scope: index 0 is the whole-file root, every other
/// entry is one `{ ... }` block in source order of the opening brace.
#[derive(Debug, Clone, Copy)]
pub struct Scope {
    /// Byte offset of the opening `{` (0 for the root).
    pub start: usize,
    /// Byte offset one past the closing `}` (file length for the root
    /// and for unterminated blocks).
    pub end: usize,
    /// Index of the enclosing scope (`None` for the root).
    pub parent: Option<usize>,
}

/// How a call site names its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `recv.callee(...)` — a method call.
    Method,
    /// `seg::callee(...)` — a path call.
    Path,
    /// `callee(...)` — a bare call (free function, tuple constructor).
    Bare,
}

/// One `callee(...)` site in code (comments/strings never produce one).
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The callee identifier text.
    pub callee: String,
    /// Method, path, or bare.
    pub kind: CallKind,
    /// Index of the callee identifier in [`SyntaxIndex::code`].
    pub idx: usize,
    /// Index of the matching `)` in [`SyntaxIndex::code`] (the last
    /// code token when the argument list is unterminated).
    pub close: usize,
    /// For methods: the dotted receiver chain (`self.shared.queue`),
    /// with index expressions elided. For path calls: the path segment
    /// directly before the final `::`. Empty for bare calls and when
    /// the receiver is not a plain chain.
    pub receiver: String,
    /// Every identifier token appearing inside the argument list, in
    /// order (duplicates kept).
    pub arg_idents: Vec<String>,
    /// Whether the argument list holds no code tokens at all.
    pub empty_args: bool,
}

impl CallSite {
    /// Byte offset of the callee identifier.
    pub fn offset(&self, index: &SyntaxIndex) -> usize {
        index.code[self.idx].start
    }

    /// Byte offset one past the matching `)`.
    pub fn close_offset(&self, index: &SyntaxIndex) -> usize {
        index.code[self.close].end
    }
}

/// One `fn` item (or nested fn) boundary.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// Byte offset of the `fn` keyword.
    pub offset: usize,
    /// Scope index of the body block; `None` for bodyless declarations
    /// (trait methods ending in `;`).
    pub body: Option<usize>,
}

/// The syntax index of one source file.
#[derive(Debug)]
pub struct SyntaxIndex {
    /// The code tokens (whitespace and comments filtered out).
    pub code: Vec<Token>,
    /// The scope tree; entry 0 is the file root.
    pub scopes: Vec<Scope>,
    /// Every call site, in source order.
    pub calls: Vec<CallSite>,
    /// Every `fn` item, in source order.
    pub fns: Vec<FnDef>,
}

/// Keywords that can precede `(` without being a call.
const NON_CALL_KEYWORDS: [&str; 14] = [
    "if", "while", "match", "return", "for", "loop", "in", "let", "fn", "move", "mut", "ref",
    "box", "yield",
];

impl SyntaxIndex {
    /// Builds the index for `text` from its lossless token stream.
    pub fn build(text: &str, tokens: &[Token]) -> SyntaxIndex {
        let code: Vec<Token> = tokens
            .iter()
            .filter(|t| {
                !matches!(
                    t.kind,
                    TokKind::Whitespace | TokKind::LineComment | TokKind::BlockComment
                )
            })
            .copied()
            .collect();
        let scopes = build_scopes(text, &code);
        let calls = build_calls(text, &code);
        let fns = build_fns(text, &code, &scopes);
        SyntaxIndex {
            code,
            scopes,
            calls,
            fns,
        }
    }

    /// The innermost scope containing a byte offset. Total: the root
    /// scope contains every offset.
    pub fn innermost_scope(&self, offset: usize) -> usize {
        self.scopes
            .iter()
            .enumerate()
            .filter(|(_, s)| s.start <= offset && offset < s.end.max(s.start + 1))
            .max_by_key(|(i, s)| (s.start, *i))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// The innermost `fn` whose body contains a byte offset.
    pub fn enclosing_fn(&self, offset: usize) -> Option<&FnDef> {
        self.fns
            .iter()
            .filter(|f| {
                f.body
                    .map(|b| self.scopes[b].start <= offset && offset < self.scopes[b].end)
                    .unwrap_or(false)
            })
            .max_by_key(|f| f.offset)
    }

    /// Index of the first code token of the statement containing
    /// `code[idx]`: walks back to just past the previous `;`, `{`, or
    /// `}` (or the start of file).
    pub fn statement_start(&self, idx: usize, text: &str) -> usize {
        let mut i = idx;
        while i > 0 {
            if matches!(self.code[i - 1].text(text), ";" | "{" | "}") {
                break;
            }
            i -= 1;
        }
        i
    }

    /// Byte offset where the statement containing `code[from]` ends:
    /// the next `;` at bracket depth zero (one past it), or the closing
    /// bracket of the enclosing group, or end of file.
    pub fn statement_end(&self, from: usize, text: &str) -> usize {
        let mut depth = 0usize;
        let mut k = from + 1;
        while k < self.code.len() {
            let t = self.code[k];
            match t.text(text) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        return t.start;
                    }
                    depth -= 1;
                }
                ";" if depth == 0 => return t.end,
                _ => {}
            }
            k += 1;
        }
        text.len()
    }
}

/// Builds the scope tree by matching `{`/`}` over code tokens.
fn build_scopes(text: &str, code: &[Token]) -> Vec<Scope> {
    let mut scopes = vec![Scope {
        start: 0,
        end: text.len(),
        parent: None,
    }];
    let mut stack = vec![0usize];
    for t in code {
        match t.text(text) {
            "{" => {
                let id = scopes.len();
                scopes.push(Scope {
                    start: t.start,
                    end: text.len(),
                    parent: stack.last().copied(),
                });
                stack.push(id);
            }
            // A stray `}` with only the root open is ignored: the
            // lexer is total, so the index must be too.
            "}" if stack.len() > 1 => {
                let id = stack.pop().unwrap_or(0);
                scopes[id].end = t.end;
            }
            _ => {}
        }
    }
    scopes
}

/// Extracts every `callee(...)` site, with kind, receiver chain, and
/// argument identifiers.
fn build_calls(text: &str, code: &[Token]) -> Vec<CallSite> {
    let tok = |i: usize| -> Option<&str> { code.get(i).map(|t| t.text(text)) };
    let mut calls = Vec::new();
    for i in 0..code.len() {
        if code[i].kind != TokKind::Ident {
            continue;
        }
        let name = code[i].text(text);
        if NON_CALL_KEYWORDS.contains(&name) || tok(i + 1) != Some("(") {
            continue;
        }
        let prev = i.checked_sub(1).and_then(&tok);
        if prev == Some("fn") {
            continue; // a definition, not a call
        }
        let kind = if prev == Some(".") {
            CallKind::Method
        } else if prev == Some(":") && i >= 2 && tok(i - 2) == Some(":") {
            CallKind::Path
        } else {
            CallKind::Bare
        };
        let receiver = match kind {
            CallKind::Method => receiver_chain(text, code, i - 1),
            CallKind::Path => match i.checked_sub(3).map(|p| code[p]) {
                Some(t) if t.kind == TokKind::Ident => t.text(text).to_owned(),
                _ => String::new(),
            },
            CallKind::Bare => String::new(),
        };
        // Match the argument parens and collect identifiers inside.
        let open = i + 1;
        let mut depth = 1usize;
        let mut k = open + 1;
        let mut arg_idents = Vec::new();
        while k < code.len() && depth > 0 {
            match code[k].text(text) {
                "(" => depth += 1,
                ")" => depth -= 1,
                _ => {
                    if code[k].kind == TokKind::Ident {
                        arg_idents.push(code[k].text(text).to_owned());
                    }
                }
            }
            if depth == 0 {
                break;
            }
            k += 1;
        }
        let close = k.min(code.len().saturating_sub(1));
        calls.push(CallSite {
            callee: name.to_owned(),
            kind,
            idx: i,
            close,
            receiver,
            arg_idents,
            empty_args: close == open + 1,
        });
    }
    calls
}

/// Walks a dotted receiver chain backwards from the `.` at `dot` and
/// returns it in source order (`self.shared.queue`). Index expressions
/// (`pools[i]`) are elided; the walk stops at the first token that is
/// not part of a plain `a.b[c].d` chain, keeping whatever suffix was
/// collected (a call in the chain yields the partial chain after it).
fn receiver_chain(text: &str, code: &[Token], dot: usize) -> String {
    let mut parts: Vec<&str> = Vec::new();
    let mut j = dot; // index of the `.` before the current component
    while let Some(before) = j.checked_sub(1) {
        let mut c = before;
        // Skip one `[...]` index group, e.g. `pools[self.lane]`.
        if code[c].text(text) == "]" {
            let mut depth = 1usize;
            while depth > 0 {
                let Some(p) = c.checked_sub(1) else {
                    return join(&parts);
                };
                c = p;
                match code[c].text(text) {
                    "]" => depth += 1,
                    "[" => depth -= 1,
                    _ => {}
                }
            }
            let Some(p) = c.checked_sub(1) else {
                return join(&parts);
            };
            c = p;
        }
        if !matches!(code[c].kind, TokKind::Ident | TokKind::Number) {
            break;
        }
        parts.push(code[c].text(text));
        match c.checked_sub(1) {
            Some(p) if code[p].text(text) == "." => j = p,
            _ => break,
        }
    }
    join(&parts)
}

fn join(parts: &[&str]) -> String {
    let mut out = String::new();
    for p in parts.iter().rev() {
        if !out.is_empty() {
            out.push('.');
        }
        out.push_str(p);
    }
    out
}

/// Finds every `fn` item and resolves its body to a scope: from the
/// header, the first `{` at paren depth zero opens the body; a `;`
/// first means a bodyless declaration.
fn build_fns(text: &str, code: &[Token], scopes: &[Scope]) -> Vec<FnDef> {
    let mut fns = Vec::new();
    for i in 0..code.len() {
        if code[i].text(text) != "fn" {
            continue;
        }
        let Some(name_tok) = code.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokKind::Ident {
            continue; // `fn(` pointer types etc.
        }
        let name = name_tok.text(text).to_owned();
        let mut depth = 0usize;
        let mut body = None;
        let mut k = i + 2;
        while k < code.len() {
            match code[k].text(text) {
                "(" => depth += 1,
                ")" => depth = depth.saturating_sub(1),
                "{" if depth == 0 => {
                    let start = code[k].start;
                    body = scopes.iter().position(|s| s.start == start);
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        fns.push(FnDef {
            name,
            offset: code[i].start,
            body,
        });
    }
    fns
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn index(src: &str) -> SyntaxIndex {
        SyntaxIndex::build(src, &lex(src))
    }

    #[test]
    fn scopes_nest_and_close() {
        let src = "fn a() { if x { y(); } }\nfn b() { z(); }\n";
        let ix = index(src);
        assert_eq!(ix.scopes.len(), 4, "root + a + if + b");
        let y = src.find("y()").unwrap();
        let z = src.find("z()").unwrap();
        let sy = ix.innermost_scope(y);
        let sz = ix.innermost_scope(z);
        assert_ne!(sy, sz);
        assert_eq!(
            ix.scopes[sy].parent.and_then(|p| ix.scopes[p].parent),
            Some(0)
        );
        assert_eq!(ix.scopes[sz].parent, Some(0));
    }

    #[test]
    fn unbalanced_braces_do_not_panic() {
        for src in ["}", "}}}{", "fn a() {", "{ { }", ""] {
            let ix = index(src);
            for (i, s) in ix.scopes.iter().enumerate() {
                assert!(s.start <= s.end, "scope {i} inverted in {src:?}");
                if let Some(p) = s.parent {
                    assert!(p < i, "parent must precede child");
                }
            }
            let _ = ix.innermost_scope(0);
        }
    }

    #[test]
    fn call_kinds_and_receivers() {
        let src = "fn f(q: &Q) { self.shared.pools[self.lane].take(); crate::sync::lock(&q.m); close_window(a, b); m!(x); }";
        let ix = index(src);
        let take = ix.calls.iter().find(|c| c.callee == "take").unwrap();
        assert_eq!(take.kind, CallKind::Method);
        assert_eq!(take.receiver, "self.shared.pools");
        assert!(take.empty_args);

        let lock = ix.calls.iter().find(|c| c.callee == "lock").unwrap();
        assert_eq!(lock.kind, CallKind::Path);
        assert_eq!(lock.receiver, "sync");
        assert_eq!(lock.arg_idents, vec!["q".to_owned(), "m".to_owned()]);

        let cw = ix
            .calls
            .iter()
            .find(|c| c.callee == "close_window")
            .unwrap();
        assert_eq!(cw.kind, CallKind::Bare);
        assert_eq!(cw.arg_idents, vec!["a".to_owned(), "b".to_owned()]);

        assert!(
            !ix.calls.iter().any(|c| c.callee == "m"),
            "macro invocations are not calls"
        );
    }

    #[test]
    fn fn_bodies_resolve_to_scopes() {
        let src =
            "trait T { fn decl(&self) -> Result<(), E>; }\nfn has_body(x: u32) -> u32 { x }\n";
        let ix = index(src);
        let decl = ix.fns.iter().find(|f| f.name == "decl").unwrap();
        assert!(decl.body.is_none());
        let hb = ix.fns.iter().find(|f| f.name == "has_body").unwrap();
        let b = hb.body.expect("body scope");
        let x = src.rfind("{ x }").unwrap();
        assert_eq!(ix.scopes[b].start, x);
        assert_eq!(
            ix.enclosing_fn(x + 2).map(|f| f.name.as_str()),
            Some("has_body")
        );
    }

    #[test]
    fn statement_boundaries() {
        let src = "fn f() { let g = m.lock(); g.push(1); }";
        let ix = index(src);
        let lock = ix.calls.iter().find(|c| c.callee == "lock").unwrap();
        let start = ix.statement_start(lock.idx, src);
        assert_eq!(ix.code[start].text(src), "let");
        let end = ix.statement_end(lock.close, src);
        assert_eq!(&src[end - 1..end], ";");
        assert!(end < src.find("g.push").unwrap());
    }
}
