//! The three concurrency analyses: `lock_order`, `atomic_protocol`,
//! and `blocking_under_lock`.
//!
//! These rules exist because the multi-lane ingest architecture (mt-serve
//! sharded loops feeding `MultiStreamService` through a shared window
//! gate) put real lock and atomic protocols on the hot path, and the
//! defect classes they target — lock-order inversion, half-fenced
//! publishes, syscalls made with a guard held — do not announce
//! themselves in any single line of code. All three are *lexical*
//! analyses over the [`crate::syntax`] layer: no type information, no
//! alias analysis. The deal that makes that sound enough to enforce is
//! the `// lock: <name>` annotation discipline — every acquisition site
//! names the lock it takes, the analyzer builds the workspace
//! acquisition graph from names, and DESIGN.md declares the legal total
//! order between `mt-check:lock-catalogue` markers. What the lexical
//! scan cannot see (a lock taken behind a method call, a guard smuggled
//! through a struct field) is out of scope by construction and
//! documented as such in DESIGN.md §10.
//!
//! Heuristics, stated plainly:
//!
//! - An **acquisition** is `.lock(...)`, an empty-argument `.read()` /
//!   `.write()` (RwLock), `sync::lock(...)` (the mt-stream poisoning
//!   helpers), or a bare call named `lock` / `lock_*`.
//! - A **guard** is live from just after the acquisition's closing `)`
//!   until: the end of the statement (temporaries, including
//!   `lock(x).field` projections); or, for `let [mut] g = <acq>;`
//!   bindings, until `drop(g)` or the end of the innermost enclosing
//!   scope.
//! - **Edges** come from an acquisition inside a live guard's range, and
//!   from *bare* calls inside a live guard's range to same-crate
//!   functions whose bodies (transitively, through bare calls) acquire
//!   named locks. Method and path calls deliberately contribute no
//!   summaries: resolving `x.take()` by name alone would invent edges.
//! - The reserved name `generic` marks a helper whose lock identity
//!   varies per caller (`mt_stream::sync::lock`'s own `.lock()` call);
//!   such sites satisfy the annotation requirement but join no graph.
//! - Condvar waits (`wait`, `wait_while`, ...) that receive the guard
//!   variable as an argument atomically release it, so that guard is
//!   exempt at that site; every other blocking call under any live
//!   guard fires `blocking_under_lock`. The blocking surface is named,
//!   not inferred: io/socket/channel methods, `JoinHandle::join`,
//!   Block-policy queue pushes, and the file writes that sit behind a
//!   plain-looking call — `std::fs::{write, rename}` and mt-store's
//!   `write_window`/`write_summary`.

use crate::report::Report;
use crate::syntax::{CallKind, CallSite, SyntaxIndex};
use crate::workspace::{Role, SourceFile, Workspace};
use std::collections::{BTreeMap, BTreeSet};

/// The reserved `// lock:` name for helpers whose lock identity varies
/// per caller; satisfies the annotation rule, joins no graph.
pub const GENERIC_LOCK_NAME: &str = "generic";

/// One lock-acquisition site with its resolved guard extent.
struct Acq {
    /// Byte offset of the callee identifier.
    offset: usize,
    /// Byte offset one past the closing `)` — the guard exists from
    /// here.
    acquired: usize,
    /// Byte offset where the guard dies.
    end: usize,
    /// 1-based line/col of the site.
    line: usize,
    col: usize,
    /// The `// lock:` annotation, when present and well-formed.
    name: Option<String>,
    /// The `let`-bound guard variable, when the site binds one.
    var: Option<String>,
}

impl Acq {
    fn named(&self) -> Option<&str> {
        match self.name.as_deref() {
            Some(GENERIC_LOCK_NAME) | None => None,
            s => s,
        }
    }
}

/// Per-file analysis state shared by the three rules.
struct FileAnalysis {
    ix: SyntaxIndex,
    acqs: Vec<Acq>,
}

/// One nested-acquisition edge in the workspace lock graph.
struct Edge {
    from: String,
    to: String,
    /// File index, 1-based line/col of the inner site.
    fi: usize,
    line: usize,
    col: usize,
}

/// Runs the three concurrency rules over the workspace.
pub fn check(ws: &Workspace, report: &mut Report) {
    let analyses: Vec<FileAnalysis> = ws.files.iter().map(analyze_file).collect();
    check_lock_order(ws, &analyses, report);
    atomic_protocol(ws, &analyses, report);
    blocking_under_lock(ws, &analyses, report);
}

/// Whether a call site is a lock acquisition.
fn is_acquisition(c: &CallSite) -> bool {
    match c.kind {
        CallKind::Method => {
            c.callee == "lock" || ((c.callee == "read" || c.callee == "write") && c.empty_args)
        }
        CallKind::Path => c.callee == "lock" && c.receiver == "sync",
        CallKind::Bare => c.callee == "lock" || c.callee.starts_with("lock_"),
    }
}

/// Builds the per-file syntax index and acquisition list.
fn analyze_file(file: &SourceFile) -> FileAnalysis {
    let ix = SyntaxIndex::build(&file.text, &file.tokens);
    let mut acqs = Vec::new();
    for c in ix.calls.iter() {
        if !is_acquisition(c) {
            continue;
        }
        let offset = c.offset(&ix);
        if file.in_test_region(offset) {
            continue;
        }
        let acquired = c.close_offset(&ix);
        let (line, col) = file.line_col(offset);
        let name = annotated_lock_name(file, line);

        // Guard binding: `let [mut] g = <acquisition>;` binds a guard
        // variable living to drop(g) or end of scope; anything else is
        // a temporary dying at the end of its statement. Poison-handling
        // adapters chained onto the acquisition (`.expect(...)`,
        // `.unwrap()`, `.unwrap_or_else(|e| e.into_inner())`) still
        // yield the guard, so the chain is skipped before looking for
        // the `;`; any other projection (`.tracker`, `.pop()`) means
        // the guard itself dies with the statement.
        let mut k = c.close + 1;
        loop {
            let is_adapter = ix.code.get(k).map(|t| t.text(&file.text)) == Some(".")
                && ix.code.get(k + 1).is_some_and(|t| {
                    matches!(t.text(&file.text), "unwrap" | "expect" | "unwrap_or_else")
                })
                && ix.code.get(k + 2).map(|t| t.text(&file.text)) == Some("(");
            if !is_adapter {
                break;
            }
            let mut depth = 0usize;
            k += 2;
            while let Some(t) = ix.code.get(k) {
                match t.text(&file.text) {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            k += 1;
        }
        let after = ix.code.get(k).map(|t| t.text(&file.text));
        let mut var = None;
        if after == Some(";") {
            let s = ix.statement_start(c.idx, &file.text);
            if ix.code.get(s).map(|t| t.text(&file.text)) == Some("let") {
                let mut vi = s + 1;
                if ix.code.get(vi).map(|t| t.text(&file.text)) == Some("mut") {
                    vi += 1;
                }
                let is_ident = ix
                    .code
                    .get(vi)
                    .is_some_and(|t| t.kind == crate::lexer::TokKind::Ident);
                if is_ident
                    && ix.code.get(vi + 1).map(|t| t.text(&file.text)) == Some("=")
                    && vi < c.idx
                {
                    var = Some(ix.code[vi].text(&file.text).to_owned());
                }
            }
        }
        let end = match &var {
            Some(v) => {
                let scope = ix.innermost_scope(offset);
                let mut end = ix.scopes[scope].end;
                for d in &ix.calls {
                    let doff = d.offset(&ix);
                    if d.kind == CallKind::Bare
                        && d.callee == "drop"
                        && doff > acquired
                        && doff < end
                        && d.arg_idents.len() == 1
                        && d.arg_idents[0] == *v
                    {
                        end = doff;
                    }
                }
                end
            }
            None => ix.statement_end(c.close, &file.text),
        };
        acqs.push(Acq {
            offset,
            acquired,
            end,
            line,
            col,
            name,
            var,
        });
    }
    FileAnalysis { ix, acqs }
}

/// The `// lock: <name>` annotation for `line`, from the line itself or
/// the comment block directly above. Malformed names (anything outside
/// `[a-z0-9_.]`) count as missing.
fn annotated_lock_name(file: &SourceFile, line: usize) -> Option<String> {
    let get = |l: usize| {
        file.comments_on_line(l).iter().find_map(|c| {
            c.strip_prefix("lock:")
                .map(|r| r.split_whitespace().next().unwrap_or("").to_owned())
        })
    };
    let valid = |n: String| {
        let ok = !n.is_empty()
            && n.bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'.');
        ok.then_some(n)
    };
    if let Some(n) = get(line) {
        return valid(n);
    }
    let mut l = line;
    while l > 1 && file.line_is_comment_only(l - 1) {
        l -= 1;
        if let Some(n) = get(l) {
            return valid(n);
        }
    }
    None
}

// ---------------------------------------------------------------- lock_order

/// Rule 8: every acquisition names its lock; the nested-acquisition
/// graph is acyclic and agrees with DESIGN.md's lock-order catalogue,
/// both directions.
fn check_lock_order(ws: &Workspace, analyses: &[FileAnalysis], report: &mut Report) {
    // 1. Annotation discipline: unannotated sites are violations and
    //    join no graph.
    for (fi, fa) in analyses.iter().enumerate() {
        let file = &ws.files[fi];
        for a in &fa.acqs {
            if a.name.is_none() {
                report.record(
                    file,
                    "lock_order",
                    a.line,
                    a.col,
                    "lock acquisition without a `// lock: <name>` annotation naming the lock"
                        .to_owned(),
                );
            }
        }
    }

    // 2. Function summaries: which named locks does each fn acquire,
    //    directly or through bare calls (fixpoint, per crate)?
    let mut summaries: BTreeMap<(String, String), BTreeSet<String>> = BTreeMap::new();
    for (fi, fa) in analyses.iter().enumerate() {
        let crate_name = &ws.files[fi].crate_name;
        for a in &fa.acqs {
            let Some(name) = a.named() else { continue };
            if let Some(f) = fa.ix.enclosing_fn(a.offset) {
                summaries
                    .entry((crate_name.clone(), f.name.clone()))
                    .or_default()
                    .insert(name.to_owned());
            }
        }
    }
    loop {
        let mut changed = false;
        for (fi, fa) in analyses.iter().enumerate() {
            let crate_name = &ws.files[fi].crate_name;
            for c in &fa.ix.calls {
                if c.kind != CallKind::Bare || is_acquisition(c) {
                    continue;
                }
                let Some(callee_locks) = summaries
                    .get(&(crate_name.clone(), c.callee.clone()))
                    .cloned()
                else {
                    continue;
                };
                let Some(f) = fa.ix.enclosing_fn(c.offset(&fa.ix)) else {
                    continue;
                };
                if f.name == c.callee {
                    continue;
                }
                let entry = summaries
                    .entry((crate_name.clone(), f.name.clone()))
                    .or_default();
                for n in callee_locks {
                    changed |= entry.insert(n);
                }
            }
        }
        if !changed {
            break;
        }
    }

    // 3. Edges: a named acquisition or a summarised bare call inside a
    //    live named guard.
    let mut edges: Vec<Edge> = Vec::new();
    for (fi, fa) in analyses.iter().enumerate() {
        let file = &ws.files[fi];
        let crate_name = &file.crate_name;
        for a in &fa.acqs {
            let Some(from) = a.named() else { continue };
            for b in &fa.acqs {
                let Some(to) = b.named() else { continue };
                if b.offset > a.acquired && b.offset < a.end {
                    edges.push(Edge {
                        from: from.to_owned(),
                        to: to.to_owned(),
                        fi,
                        line: b.line,
                        col: b.col,
                    });
                }
            }
            for c in &fa.ix.calls {
                let off = c.offset(&fa.ix);
                if c.kind != CallKind::Bare
                    || is_acquisition(c)
                    || c.callee == "drop"
                    || off <= a.acquired
                    || off >= a.end
                    || file.in_test_region(off)
                {
                    continue;
                }
                let Some(callee_locks) = summaries.get(&(crate_name.clone(), c.callee.clone()))
                else {
                    continue;
                };
                let (line, col) = file.line_col(off);
                for to in callee_locks {
                    edges.push(Edge {
                        from: from.to_owned(),
                        to: to.clone(),
                        fi,
                        line,
                        col,
                    });
                }
            }
        }
    }

    // 4. Cycles: DFS over the deduplicated name graph; each back edge
    //    is one potential deadlock, reported at its first site.
    let mut adj: BTreeMap<&str, Vec<(&str, &Edge)>> = BTreeMap::new();
    let mut seen_pairs = BTreeSet::new();
    for e in &edges {
        if seen_pairs.insert((e.from.as_str(), e.to.as_str())) {
            adj.entry(e.from.as_str())
                .or_default()
                .push((e.to.as_str(), e));
        }
    }
    for e in find_back_edges(&adj) {
        report.record(
            &ws.files[e.fi],
            "lock_order",
            e.line,
            e.col,
            format!(
                "acquiring `{}` while holding `{}` closes a lock-order cycle (potential deadlock)",
                e.to, e.from
            ),
        );
    }

    // 5. Catalogue, both directions, metric_names-style: every lock
    //    named in non-test code must appear in DESIGN.md's catalogue,
    //    every catalogue row must correspond to a real acquisition, and
    //    every edge must respect the declared order.
    let Some(catalogue) = ws.design_md.as_deref().and_then(parse_lock_catalogue) else {
        return;
    };
    let pos = |name: &str| catalogue.iter().position(|(n, _)| n == name);

    let mut first_site: BTreeMap<&str, (usize, usize, usize)> = BTreeMap::new();
    let mut observed_anywhere: BTreeSet<&str> = BTreeSet::new();
    for (fi, fa) in analyses.iter().enumerate() {
        for a in &fa.acqs {
            let Some(name) = a.named() else { continue };
            observed_anywhere.insert(name);
            if ws.files[fi].role != Role::Test {
                first_site.entry(name).or_insert((fi, a.line, a.col));
            }
        }
    }
    for (name, &(fi, line, col)) in &first_site {
        if pos(name).is_none() {
            report.record(
                &ws.files[fi],
                "lock_order",
                line,
                col,
                format!("lock `{name}` is acquired in code but missing from DESIGN.md's lock-order catalogue"),
            );
        }
    }
    for (name, design_line) in &catalogue {
        if !observed_anywhere.contains(name.as_str()) {
            report.record_doc(
                "DESIGN.md",
                "lock_order",
                *design_line,
                format!("catalogue lock `{name}` is not acquired anywhere in scanned code"),
            );
        }
    }
    for e in &edges {
        let (Some(pf), Some(pt)) = (pos(&e.from), pos(&e.to)) else {
            continue;
        };
        if pf > pt {
            report.record(
                &ws.files[e.fi],
                "lock_order",
                e.line,
                e.col,
                format!(
                    "acquires `{}` while holding `{}`, contradicting the order declared in DESIGN.md's lock-order catalogue",
                    e.to, e.from
                ),
            );
        }
    }
}

/// Returns one representative edge per cycle found by iterative DFS
/// (every edge into a node on the current stack).
fn find_back_edges<'a>(adj: &BTreeMap<&str, Vec<(&str, &'a Edge)>>) -> Vec<&'a Edge> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color: BTreeMap<&str, Color> = adj.keys().map(|&k| (k, Color::White)).collect();
    for targets in adj.values() {
        for (to, _) in targets {
            color.entry(to).or_insert(Color::White);
        }
    }
    let mut back = Vec::new();
    let names: Vec<&str> = color.keys().copied().collect();
    for start in names {
        if color[start] != Color::White {
            continue;
        }
        // Stack of (node, next-child-index).
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        color.insert(start, Color::Gray);
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let children = adj.get(node).map(|v| v.as_slice()).unwrap_or(&[]);
            if *next < children.len() {
                let (to, edge) = children[*next];
                *next += 1;
                match color[to] {
                    Color::Gray => back.push(edge),
                    Color::White => {
                        color.insert(to, Color::Gray);
                        stack.push((to, 0));
                    }
                    Color::Black => {}
                }
            } else {
                color.insert(node, Color::Black);
                stack.pop();
            }
        }
    }
    back
}

/// Parses the lock-order catalogue between the
/// `<!-- mt-check:lock-catalogue:begin/end -->` markers: the first
/// backtick span of each table row is a lock name; row order *is* the
/// declared acquisition order, outermost first.
fn parse_lock_catalogue(design: &str) -> Option<Vec<(String, usize)>> {
    let mut names = Vec::new();
    let mut inside = false;
    for (i, line) in design.lines().enumerate() {
        if line.contains("mt-check:lock-catalogue:begin") {
            inside = true;
            continue;
        }
        if line.contains("mt-check:lock-catalogue:end") {
            inside = false;
            continue;
        }
        if !inside || !line.trim_start().starts_with('|') {
            continue;
        }
        let Some(tick) = line.find('`') else { continue };
        let after = &line[tick + 1..];
        let Some(close) = after.find('`') else {
            continue;
        };
        let name = &after[..close];
        if !name.is_empty()
            && name
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'.')
        {
            names.push((name.to_owned(), i + 1));
        }
    }
    if names.is_empty() {
        None
    } else {
        Some(names)
    }
}

// ------------------------------------------------------------ atomic_protocol

/// Atomic methods that read.
const ATOMIC_LOADS: [&str; 1] = ["load"];
/// Atomic methods that write.
const ATOMIC_STORES: [&str; 1] = ["store"];
/// Atomic read-modify-write methods (both sides of a protocol).
const ATOMIC_RMW: [&str; 12] = [
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_nand",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Orderings that release on the store side.
const RELEASE_SIDE: [&str; 3] = ["Release", "AcqRel", "SeqCst"];
/// Orderings that acquire on the load side.
const ACQUIRE_SIDE: [&str; 3] = ["Acquire", "AcqRel", "SeqCst"];

/// Rule 9: release/acquire protocols must be whole. A Release-ordered
/// store on an atomic symbol with no Acquire-ordered load anywhere in
/// the workspace fences nothing (and vice versa) — exactly the mt-obs
/// publish-order bug class PR 5 fixed by hand.
///
/// Symbols are receiver chains (`self.shutdown`, `core.count`), grouped
/// workspace-wide; a field renamed on one side of the protocol shows up
/// as two half-fenced symbols.
fn atomic_protocol(ws: &Workspace, analyses: &[FileAnalysis], report: &mut Report) {
    struct Side {
        releases: Vec<(usize, usize, usize)>, // (file, line, col)
        acquires: Vec<(usize, usize, usize)>,
    }
    let mut symbols: BTreeMap<String, Side> = BTreeMap::new();
    for (fi, fa) in analyses.iter().enumerate() {
        let file = &ws.files[fi];
        for c in &fa.ix.calls {
            if c.kind != CallKind::Method || c.receiver.is_empty() {
                continue;
            }
            let is_load = ATOMIC_LOADS.contains(&c.callee.as_str());
            let is_store = ATOMIC_STORES.contains(&c.callee.as_str());
            let is_rmw = ATOMIC_RMW.contains(&c.callee.as_str());
            if !(is_load || is_store || is_rmw) {
                continue;
            }
            let orderings: Vec<&str> = c
                .arg_idents
                .iter()
                .map(|s| s.as_str())
                .filter(|s| ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"].contains(s))
                .collect();
            if orderings.is_empty() {
                continue; // not an atomic call (same-named method elsewhere)
            }
            let off = c.offset(&fa.ix);
            if file.in_test_region(off) {
                continue;
            }
            let (line, col) = file.line_col(off);
            let side = symbols.entry(c.receiver.clone()).or_insert(Side {
                releases: Vec::new(),
                acquires: Vec::new(),
            });
            if (is_store || is_rmw) && orderings.iter().any(|o| RELEASE_SIDE.contains(o)) {
                side.releases.push((fi, line, col));
            }
            if (is_load || is_rmw) && orderings.iter().any(|o| ACQUIRE_SIDE.contains(o)) {
                side.acquires.push((fi, line, col));
            }
        }
    }
    for (sym, side) in &symbols {
        if !side.releases.is_empty() && side.acquires.is_empty() {
            for &(fi, line, col) in &side.releases {
                report.record(
                    &ws.files[fi],
                    "atomic_protocol",
                    line,
                    col,
                    format!(
                        "Release-ordered write publishes `{sym}` but no Acquire-ordered read observes it anywhere in the workspace (half-fenced protocol)"
                    ),
                );
            }
        }
        if !side.acquires.is_empty() && side.releases.is_empty() {
            for &(fi, line, col) in &side.acquires {
                report.record(
                    &ws.files[fi],
                    "atomic_protocol",
                    line,
                    col,
                    format!(
                        "Acquire-ordered read of `{sym}` has no Release-ordered write paired with it anywhere in the workspace (half-fenced protocol)"
                    ),
                );
            }
        }
    }
}

// -------------------------------------------------------- blocking_under_lock

/// Condvar wait methods: they atomically release a guard passed as an
/// argument, so that guard is exempt at the site.
const WAIT_METHODS: [&str; 4] = ["wait", "wait_while", "wait_timeout", "wait_timeout_while"];

/// Methods that can block on io, sockets, or channels regardless of
/// arguments.
const BLOCKING_IO_METHODS: [&str; 14] = [
    "read_exact",
    "read_to_end",
    "read_to_string",
    "read_line",
    "write_all",
    "write_fmt",
    "flush",
    "recv",
    "recv_from",
    "recv_timeout",
    "send",
    "send_to",
    "accept",
    "connect",
];

/// mt-store's persisting methods: file writes behind another crate's
/// method, which the io-method list cannot see through.
const STORE_WRITE_METHODS: [&str; 2] = ["write_window", "write_summary"];

/// `std::fs` free functions that write: `fs::write`, `fs::rename`.
const FS_WRITE_FUNCTIONS: [&str; 2] = ["write", "rename"];

/// Rule 10: no blocking call while a lock guard is live in an enclosing
/// scope. A worker parked on io or a condvar while holding a shared
/// lock stalls every lane behind that lock — the exact shape of the
/// multi-lane architecture's worst-case pileup.
fn blocking_under_lock(ws: &Workspace, analyses: &[FileAnalysis], report: &mut Report) {
    for (fi, fa) in analyses.iter().enumerate() {
        let file = &ws.files[fi];
        for c in &fa.ix.calls {
            let blocking = blocking_kind(c);
            let Some(what) = blocking else { continue };
            let off = c.offset(&fa.ix);
            if file.in_test_region(off) {
                continue;
            }
            let is_wait = matches!(
                (c.kind, c.callee.as_str()),
                (CallKind::Method, m) if WAIT_METHODS.contains(&m)
            ) || (c.kind == CallKind::Path && c.receiver == "sync");
            for a in &fa.acqs {
                if off <= a.acquired || off >= a.end {
                    continue;
                }
                // The condvar contract: the guard handed to the wait is
                // released for the duration, not held across it.
                if is_wait
                    && a.var
                        .as_ref()
                        .is_some_and(|v| c.arg_idents.iter().any(|i| i == v))
                {
                    continue;
                }
                let (line, col) = file.line_col(off);
                let lock = a.name.as_deref().unwrap_or("<unannotated>");
                report.record(
                    file,
                    "blocking_under_lock",
                    line,
                    col,
                    format!(
                        "{what} can block while lock `{lock}` (acquired at line {}) is still held",
                        a.line
                    ),
                );
            }
        }
    }
}

/// Whether a call belongs to the blocking surface; returns the display
/// form for the message.
fn blocking_kind(c: &CallSite) -> Option<String> {
    match c.kind {
        CallKind::Method => {
            let m = c.callee.as_str();
            if WAIT_METHODS.contains(&m) {
                return Some(format!("condvar `.{m}(...)`"));
            }
            if BLOCKING_IO_METHODS.contains(&m) {
                return Some(format!("`.{m}(...)`"));
            }
            if (m == "read" || m == "write") && !c.empty_args {
                return Some(format!("io `.{m}(...)`"));
            }
            if m == "join" && c.empty_args {
                return Some("`JoinHandle::join()`".to_owned());
            }
            if (m == "push" || m == "push_lane") && c.receiver.rsplit('.').next() == Some("queue") {
                return Some(format!("bounded-queue `.{m}(...)`"));
            }
            if STORE_WRITE_METHODS.contains(&m) {
                return Some(format!("store file write `.{m}(...)`"));
            }
            None
        }
        CallKind::Path => {
            if c.receiver == "sync" && (c.callee == "wait" || c.callee == "wait_while") {
                return Some(format!("condvar `sync::{}(...)`", c.callee));
            }
            if c.receiver == "fs" && FS_WRITE_FUNCTIONS.contains(&c.callee.as_str()) {
                return Some(format!("file write `fs::{}(...)`", c.callee));
            }
            None
        }
        CallKind::Bare => None,
    }
}
