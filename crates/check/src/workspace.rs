//! The workspace model the rules run against.
//!
//! A [`Workspace`] is a set of lexed [`SourceFile`]s plus the design
//! document (for the metric-name catalogue rule). It can be built two
//! ways: [`Workspace::from_root`] walks a real checkout (this is what
//! the `mt-check` binary and the umbrella-crate enforcement test use),
//! and [`Workspace::in_memory`] assembles one from `(path, text)`
//! pairs (this is what the fixture tests use, so a deliberately-bad
//! snippet can be dropped into any crate/role without creating a real
//! crate on disk).
//!
//! Library and binary sources are scanned — `crates/*/src/**` and the
//! umbrella `src/**` — plus integration-test and example trees
//! (`crates/*/tests/**`, the umbrella `tests/**` and `examples/**`),
//! which carry the [`Role::Test`] role: `no_panic` and the registration
//! direction of `metric_names` exempt them, but determinism, atomics
//! discipline, and the concurrency rules apply — a test that deadlocks
//! or races hangs CI just as hard as library code. `vendor/` (offline
//! stand-ins for crates.io) and `target/` are out of scope.

use crate::lexer::{lex, TokKind, Token};
use std::path::{Path, PathBuf};

/// How a source file participates in the build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Part of a crate's library (`src/**`, excluding `src/bin`).
    Lib,
    /// A binary target (`src/bin/**` or `src/main.rs`).
    Bin,
    /// An integration test or example (`tests/**`, `examples/**`).
    Test,
}

/// A recognised `// check: allow(<rule>, <reason>)` pragma.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// The rule id the pragma names (not yet validated against the
    /// rule set; unknown ids simply never match a violation).
    pub rule: String,
    /// The stated reason. Pragmas with an empty reason are inert: the
    /// whole point is to force the author to argue the invariant.
    pub reason: String,
    /// 1-based line the pragma comment starts on.
    pub line: usize,
}

/// One lexed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel_path: String,
    /// The crate the file belongs to: the directory name under
    /// `crates/` (e.g. `types`), or `metatelescope` for the umbrella
    /// `src/` tree.
    pub crate_name: String,
    /// Library or binary code.
    pub role: Role,
    /// The file contents.
    pub text: String,
    /// The lossless token stream.
    pub tokens: Vec<Token>,
    /// Byte offset of the start of each line (index 0 = line 1).
    line_starts: Vec<usize>,
    /// Byte ranges covered by `#[cfg(test)]` items, in ascending order.
    test_regions: Vec<(usize, usize)>,
    /// All pragmas in the file, in line order.
    pub pragmas: Vec<Pragma>,
}

impl SourceFile {
    /// Builds a source file from its workspace-relative path and text.
    pub fn new(rel_path: &str, text: String) -> SourceFile {
        let tokens = lex(&text);
        let mut line_starts = vec![0usize];
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        let (crate_name, role) = classify(rel_path);
        let test_regions = find_test_regions(&text, &tokens);
        let mut file = SourceFile {
            rel_path: rel_path.to_owned(),
            crate_name,
            role,
            text,
            tokens,
            line_starts,
            test_regions,
            pragmas: Vec::new(),
        };
        file.pragmas = file.collect_pragmas();
        file
    }

    /// 1-based `(line, col)` of a byte offset.
    pub fn line_col(&self, offset: usize) -> (usize, usize) {
        let line = self
            .line_starts
            .partition_point(|&s| s <= offset)
            .saturating_sub(1);
        let col = self.text[self.line_starts[line]..offset].chars().count() + 1;
        (line + 1, col)
    }

    /// 1-based line of a byte offset.
    pub fn line_of(&self, offset: usize) -> usize {
        self.line_col(offset).0
    }

    /// Whether a byte offset falls inside a `#[cfg(test)]` item.
    pub fn in_test_region(&self, offset: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(s, e)| (s..e).contains(&offset))
    }

    /// Tokens that are code: everything except whitespace and comments.
    pub fn code_tokens(&self) -> impl Iterator<Item = &Token> {
        self.tokens.iter().filter(|t| {
            !matches!(
                t.kind,
                TokKind::Whitespace | TokKind::LineComment | TokKind::BlockComment
            )
        })
    }

    /// The comment text of every comment on the given 1-based line,
    /// with its leading `//`/`///`/`//!`/`/*` markers stripped.
    pub fn comments_on_line(&self, line: usize) -> Vec<&str> {
        if line == 0 || line > self.line_starts.len() {
            return Vec::new();
        }
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .copied()
            .unwrap_or(self.text.len());
        self.tokens
            .iter()
            .filter(|t| {
                matches!(t.kind, TokKind::LineComment | TokKind::BlockComment)
                    && t.start < end
                    && t.end > start
            })
            .map(|t| strip_comment_markers(t.text(&self.text)))
            .collect()
    }

    /// Whether the given 1-based line holds nothing but whitespace and
    /// comments (used to walk justification-comment blocks upward).
    pub fn line_is_comment_only(&self, line: usize) -> bool {
        if line == 0 || line > self.line_starts.len() {
            return false;
        }
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .copied()
            .unwrap_or(self.text.len());
        let mut saw_comment = false;
        for t in &self.tokens {
            if t.end <= start || t.start >= end {
                continue;
            }
            match t.kind {
                TokKind::Whitespace => {}
                TokKind::LineComment | TokKind::BlockComment => saw_comment = true,
                _ => return false,
            }
        }
        saw_comment
    }

    /// Whether a violation of `rule` at 1-based `line` is suppressed by
    /// a pragma on the same line or the line directly above.
    pub fn suppressed(&self, rule: &str, line: usize) -> bool {
        self.pragmas.iter().any(|p| {
            p.rule == rule && !p.reason.is_empty() && (p.line == line || p.line + 1 == line)
        })
    }

    /// The pragma that [`SourceFile::suppressed`] would match for a
    /// violation of `rule` at `line`, for the suppression inventory.
    pub fn suppression_for(&self, rule: &str, line: usize) -> Option<&Pragma> {
        self.pragmas.iter().find(|p| {
            p.rule == rule && !p.reason.is_empty() && (p.line == line || p.line + 1 == line)
        })
    }

    /// The first effective pragma for `rule` anywhere in the file.
    pub fn suppression_anywhere_for(&self, rule: &str) -> Option<&Pragma> {
        self.pragmas
            .iter()
            .find(|p| p.rule == rule && !p.reason.is_empty())
    }

    fn collect_pragmas(&self) -> Vec<Pragma> {
        let mut out = Vec::new();
        for t in &self.tokens {
            if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
                continue;
            }
            let body = strip_comment_markers(t.text(&self.text));
            if let Some(p) = parse_pragma(body) {
                out.push(Pragma {
                    rule: p.0,
                    reason: p.1,
                    line: self.line_of(t.start),
                });
            }
        }
        out
    }
}

/// Strips `//`, `///`, `//!`, `/*`, `/**`, `*/` comment furniture and
/// surrounding whitespace from a comment token's text.
fn strip_comment_markers(text: &str) -> &str {
    let t = text
        .trim_start_matches("//!")
        .trim_start_matches("///")
        .trim_start_matches("//");
    let t = if let Some(inner) = t.strip_prefix("/*") {
        inner.strip_suffix("*/").unwrap_or(inner)
    } else {
        t
    };
    t.trim()
}

/// Parses `check: allow(<rule>, <reason>)` from a stripped comment
/// body. The reason may be bare words or a quoted string; surrounding
/// quotes are removed.
fn parse_pragma(body: &str) -> Option<(String, String)> {
    let rest = body.strip_prefix("check:")?.trim_start();
    let rest = rest.strip_prefix("allow(")?;
    let rest = rest.strip_suffix(')')?;
    let (rule, reason) = rest.split_once(',')?;
    let reason = reason.trim().trim_matches('"').trim();
    Some((rule.trim().to_owned(), reason.to_owned()))
}

/// `(crate_name, role)` from a workspace-relative path.
fn classify(rel_path: &str) -> (String, Role) {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let (crate_name, in_crate): (String, &[&str]) = if parts.first() == Some(&"crates") {
        (
            parts.get(1).copied().unwrap_or_default().to_owned(),
            parts.get(2..).unwrap_or_default(),
        )
    } else {
        ("metatelescope".to_owned(), &parts[..])
    };
    let role = if in_crate.first() == Some(&"tests") || in_crate.first() == Some(&"examples") {
        Role::Test
    } else if in_crate.get(1) == Some(&"bin") || in_crate == ["src", "main.rs"] {
        Role::Bin
    } else {
        Role::Lib
    };
    (crate_name, role)
}

/// Keywords that open an item (or a `let`) after a `#[cfg(test)]`
/// gate; anything else gated is a struct field, a struct-literal field
/// or an expression statement.
const ITEM_KEYWORDS: [&str; 16] = [
    "mod",
    "fn",
    "impl",
    "struct",
    "enum",
    "union",
    "trait",
    "type",
    "const",
    "static",
    "use",
    "extern",
    "unsafe",
    "async",
    "macro_rules",
    "let",
];

/// Finds byte ranges of `#[cfg(test)]` items: the attribute tokens
/// through the close of the item's brace block. Works for `mod tests`
/// and for individually-gated items; attributes and doc comments
/// between the gate and the item are skipped. A gated field or
/// expression statement ends at the first `,` or `;` outside its own
/// brackets, or where its enclosing block or list closes.
fn find_test_regions(src: &str, tokens: &[Token]) -> Vec<(usize, usize)> {
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| {
            !matches!(
                t.kind,
                TokKind::Whitespace | TokKind::LineComment | TokKind::BlockComment
            )
        })
        .collect();
    let is = |i: usize, s: &str| code.get(i).is_some_and(|t| t.text(src) == s);
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        // #[cfg(test)]
        if is(i, "#") && is(i + 1, "[") && is(i + 2, "cfg") && is(i + 3, "(") && is(i + 4, "test") {
            // Find the attribute's closing ']'.
            let attr_start = code[i].start;
            let mut j = i + 2;
            let mut bracket_depth = 1usize;
            while j < code.len() && bracket_depth > 0 {
                match code[j].text(src) {
                    "[" => bracket_depth += 1,
                    "]" => bracket_depth -= 1,
                    _ => {}
                }
                j += 1;
            }
            // Past further attributes and a visibility, what is gated?
            let mut k = j;
            loop {
                // `#[..]`, or the group of `pub(..)`.
                if (is(k, "#") && is(k + 1, "[")) || (is(k, "pub") && is(k + 1, "(")) {
                    k = skip_group(&code, src, k + 1);
                } else if is(k, "pub") {
                    k += 1;
                } else {
                    break;
                }
            }
            let is_item = code
                .get(k)
                .is_some_and(|t| ITEM_KEYWORDS.contains(&t.text(src)));
            if !is_item {
                let mut depth = 0usize;
                while let Some(t) = code.get(j) {
                    match t.text(src) {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" if depth == 0 => {
                            j -= 1; // the enclosing list or block closes
                            break;
                        }
                        ")" | "]" | "}" => depth -= 1,
                        "," | ";" if depth == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                let end = code.get(j).map(|t| t.end).unwrap_or_else(|| src.len());
                regions.push((attr_start, end));
                i = j + 1;
                continue;
            }
            // Skip to the gated item's opening brace, then match it.
            while j < code.len() && !is(j, "{") {
                // A `;` before any `{` means the gated item has no
                // body (e.g. a gated `use`); the region ends there.
                if is(j, ";") {
                    break;
                }
                j += 1;
            }
            if is(j, "{") {
                let mut depth = 0usize;
                while j < code.len() {
                    match code[j].text(src) {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            let end = code.get(j).map(|t| t.end).unwrap_or_else(|| src.len());
            regions.push((attr_start, end));
            i = j + 1;
        } else {
            i += 1;
        }
    }
    regions
}

/// The index just past the bracket group opening at `open`.
fn skip_group(code: &[&Token], src: &str, open: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in code.iter().enumerate().skip(open) {
        match t.text(src) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return k + 1;
                }
            }
            _ => {}
        }
    }
    code.len()
}

/// A set of source files plus the design document.
#[derive(Debug)]
pub struct Workspace {
    /// All scanned files, in path order.
    pub files: Vec<SourceFile>,
    /// `DESIGN.md` contents, when present.
    pub design_md: Option<String>,
    /// The root the workspace was loaded from (display only).
    pub root: String,
}

impl Workspace {
    /// Builds a workspace from `(relative_path, text)` pairs — the
    /// fixture-test entry point.
    pub fn in_memory(files: Vec<(&str, String)>, design_md: Option<String>) -> Workspace {
        let mut files: Vec<SourceFile> = files
            .into_iter()
            .map(|(p, text)| SourceFile::new(p, text))
            .collect();
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        Workspace {
            files,
            design_md,
            root: "<in-memory>".to_owned(),
        }
    }

    /// Walks a checkout: `crates/*/{src,tests}/**/*.rs`, the umbrella
    /// `src/**/*.rs`, `tests/**/*.rs`, and `examples/**/*.rs`, plus
    /// `DESIGN.md`.
    pub fn from_root(root: &Path) -> std::io::Result<Workspace> {
        let mut paths: Vec<PathBuf> = Vec::new();
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            for entry in std::fs::read_dir(&crates_dir)? {
                let dir = entry?.path();
                for sub in ["src", "tests"] {
                    let tree = dir.join(sub);
                    if tree.is_dir() {
                        collect_rs(&tree, &mut paths)?;
                    }
                }
            }
        }
        for sub in ["src", "tests", "examples"] {
            let tree = root.join(sub);
            if tree.is_dir() {
                collect_rs(&tree, &mut paths)?;
            }
        }
        paths.sort();
        let mut files = Vec::with_capacity(paths.len());
        for p in paths {
            let text = std::fs::read_to_string(&p)?;
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            files.push(SourceFile::new(&rel, text));
        }
        let design_md = std::fs::read_to_string(root.join("DESIGN.md")).ok();
        Ok(Workspace {
            files,
            design_md,
            root: root.to_string_lossy().into_owned(),
        })
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(
            classify("crates/types/src/lib.rs"),
            ("types".to_owned(), Role::Lib)
        );
        assert_eq!(
            classify("crates/bench/src/bin/repro.rs"),
            ("bench".to_owned(), Role::Bin)
        );
        assert_eq!(
            classify("src/lib.rs"),
            ("metatelescope".to_owned(), Role::Lib)
        );
        assert_eq!(
            classify("crates/stream/tests/queue.rs"),
            ("stream".to_owned(), Role::Test)
        );
        assert_eq!(
            classify("tests/static_analysis.rs"),
            ("metatelescope".to_owned(), Role::Test)
        );
        assert_eq!(
            classify("examples/profile.rs"),
            ("metatelescope".to_owned(), Role::Test)
        );
    }

    #[test]
    fn test_regions_cover_gated_mod() {
        let src = "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n  fn b() { y.unwrap(); }\n}\nfn c() {}\n";
        let f = SourceFile::new("crates/demo/src/lib.rs", src.to_owned());
        let a = src.find("x.unwrap").unwrap();
        let b = src.find("y.unwrap").unwrap();
        let c = src.find("fn c").unwrap();
        assert!(!f.in_test_region(a));
        assert!(f.in_test_region(b));
        assert!(!f.in_test_region(c));
    }

    #[test]
    fn a_gated_field_or_statement_covers_only_itself() {
        let src = "struct S {\n    a: u8,\n    #[cfg(test)]\n    pub(crate) hook: Box<dyn Fn(u8, u8)>,\n}\n\
                   impl S {\n    fn new() -> S {\n        S {\n            a: 1,\n            #[cfg(test)]\n            hook: Box::new(|_, _| {}),\n        }\n    }\n\
                   fn run(&mut self) {\n        #[cfg(test)]\n        (self.hook)(1, 2);\n        x.unwrap();\n    }\n}\n";
        let f = SourceFile::new("crates/demo/src/lib.rs", src.to_owned());
        for gated in ["pub(crate) hook", "hook: Box::new", "(self.hook)"] {
            assert!(f.in_test_region(src.find(gated).unwrap()), "{gated}");
        }
        for live in ["impl S", "a: 1", "x.unwrap"] {
            assert!(!f.in_test_region(src.find(live).unwrap()), "{live}");
        }
    }

    #[test]
    fn cfg_test_in_string_is_ignored() {
        let src = "const S: &str = \"#[cfg(test)]\";\nfn f() {}\n";
        let f = SourceFile::new("crates/demo/src/lib.rs", src.to_owned());
        assert!(!f.in_test_region(src.find("fn f").unwrap()));
    }

    #[test]
    fn pragma_parsing() {
        let src = "// check: allow(no_panic, \"len checked above\")\nx.unwrap();\n// check: allow(no_panic, )\ny.unwrap();\n";
        let f = SourceFile::new("crates/demo/src/lib.rs", src.to_owned());
        assert!(f.suppressed("no_panic", 2), "pragma above covers line 2");
        assert!(f.suppressed("no_panic", 1), "and its own line");
        assert!(
            !f.suppressed("no_panic", 4),
            "empty reason does not suppress"
        );
        assert!(!f.suppressed("hash_policy", 2), "other rules unaffected");
    }

    #[test]
    fn pragma_inside_string_is_inert() {
        let src = "let s = \"check: allow(no_panic, fake)\";\nx.unwrap();\n";
        let f = SourceFile::new("crates/demo/src/lib.rs", src.to_owned());
        assert!(f.pragmas.is_empty());
    }

    #[test]
    fn comment_only_lines() {
        let src = "// just a comment\nlet x = 1; // trailing\n\n";
        let f = SourceFile::new("crates/demo/src/lib.rs", src.to_owned());
        assert!(f.line_is_comment_only(1));
        assert!(!f.line_is_comment_only(2));
        assert!(!f.line_is_comment_only(3));
    }
}
