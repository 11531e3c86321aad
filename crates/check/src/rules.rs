//! The ten project-specific rules.
//!
//! Each rule exists because this codebase's headline guarantee —
//! exactness under concurrency — has already been threatened by the
//! class of defect the rule targets (see DESIGN.md §"Static analysis"
//! for the full rationale). Seven token-level rules live here; the
//! three concurrency analyses (`lock_order`, `atomic_protocol`,
//! `blocking_under_lock`) live in [`crate::concurrency`] because they
//! need the [`crate::syntax`] scope/call layer. Every rule honours the
//! `// check: allow(<rule>, <reason>)` pragma on the violating line or
//! the line directly above; file-scoped rules accept the pragma
//! anywhere in the file. A pragma with an empty reason never
//! suppresses: the reason *is* the point.

use crate::report::{Report, RuleSummary};
use crate::workspace::{Role, SourceFile, Workspace};

/// Stable rule identifiers, as used in pragmas and the JSON report.
pub const RULE_IDS: [&str; 10] = [
    "atomics_ordering",
    "no_panic",
    "crate_hygiene",
    "hash_policy",
    "determinism",
    "metric_names",
    "columnar_policy",
    "lock_order",
    "atomic_protocol",
    "blocking_under_lock",
];

/// One-line description per rule, in [`RULE_IDS`] order.
pub const RULE_DESCRIPTIONS: [&str; 10] = [
    "every std::sync::atomic Ordering use site carries an adjacent `// ordering:` justification",
    "no unwrap/expect/panic!/unreachable!/todo!/unimplemented! in non-test, non-bench library code",
    "crate roots declare #![warn(missing_docs)] and forbid unsafe code (or deny it with a pragma); every `unsafe` token needs an adjacent `// safety:` comment",
    "std HashMap/HashSet are forbidden in mt-flow/mt-types/mt-stream library code; use FxHashMap",
    "SystemTime::now/Instant::now are forbidden outside mt-obs and bench code (bit-identical replay)",
    "metric names registered in code and DESIGN.md's catalogue must match exactly, both directions",
    "u32-keyed FxHashMaps in mt-flow library code need a pragma; the columnar store is the default",
    "every lock acquisition carries a `// lock: <name>` annotation; the nested-acquisition graph is acyclic and matches DESIGN.md's lock-order catalogue, both directions",
    "Release/AcqRel writes and Acquire/AcqRel reads of each atomic symbol pair up workspace-wide; half-fenced protocols are flagged on the present side",
    "no blocking call (queue push, condvar wait, io/socket syscalls, JoinHandle::join) while a lock guard is live in an enclosing scope",
];

/// Crates whose library code must use `FxHashMap` on hot paths.
const HASH_POLICY_CRATES: [&str; 3] = ["flow", "types", "stream"];

/// Crates allowed to read wall clocks (the observability layer times
/// spans; the bench harness times everything).
const CLOCK_EXEMPT_CRATES: [&str; 2] = ["obs", "bench"];

/// Crates exempt from the no-panic rule (the bench harness is
/// operator-facing tooling, not pipeline code).
const PANIC_EXEMPT_CRATES: [&str; 1] = ["bench"];

/// Runs every rule over the workspace and assembles the report.
pub fn run_all(ws: &Workspace) -> Report {
    let mut report = Report::new(&ws.root, ws.files.len());
    for file in &ws.files {
        atomics_ordering(file, &mut report);
        no_panic(file, &mut report);
        crate_hygiene(file, &mut report);
        hash_policy(file, &mut report);
        determinism(file, &mut report);
        columnar_policy(file, &mut report);
    }
    metric_names(ws, &mut report);
    crate::concurrency::check(ws, &mut report);
    report.finish();
    report
}

/// Returns the summaries for all ten rules with zero counts — the
/// schema skeleton the report starts from.
pub fn rule_summaries() -> Vec<RuleSummary> {
    RULE_IDS
        .iter()
        .zip(RULE_DESCRIPTIONS.iter())
        .map(|(id, d)| RuleSummary {
            id: (*id).to_owned(),
            description: (*d).to_owned(),
            violations: 0,
            suppressed: 0,
        })
        .collect()
}

/// The atomic-ordering variants of `std::sync::atomic::Ordering`.
const ORDERING_VARIANTS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Rule 1: every `Ordering::<variant>` use site must carry an
/// `// ordering:` justification on the same line or in the contiguous
/// comment block directly above.
///
/// Relaxed atomics next to claims like "consistent snapshots" are
/// exactly how silent accounting drift starts; writing the argument
/// down next to the operation keeps it honest and reviewable.
fn atomics_ordering(file: &SourceFile, report: &mut Report) {
    let code: Vec<_> = file.code_tokens().collect();
    let mut flagged_lines = Vec::new();
    for w in code.windows(4) {
        let [a, b, c, d] = w else { continue };
        if a.text(&file.text) != "Ordering"
            || b.text(&file.text) != ":"
            || c.text(&file.text) != ":"
            || !ORDERING_VARIANTS.contains(&d.text(&file.text))
        {
            continue;
        }
        if file.in_test_region(a.start) {
            continue;
        }
        let (line, col) = file.line_col(a.start);
        if flagged_lines.contains(&line) {
            continue; // one justification covers the whole line
        }
        flagged_lines.push(line);
        if has_adjacent_comment(file, line, "ordering:") {
            continue;
        }
        report.record(
            file,
            "atomics_ordering",
            line,
            col,
            format!(
                "Ordering::{} without an adjacent `// ordering:` justification comment",
                d.text(&file.text)
            ),
        );
    }
}

/// Whether `line` (1-based) has a comment starting with `marker` on the
/// line itself or in the run of comment-only lines directly above it.
fn has_adjacent_comment(file: &SourceFile, line: usize, marker: &str) -> bool {
    let line_has = |l: usize| {
        file.comments_on_line(l)
            .iter()
            .any(|c| c.starts_with(marker))
    };
    if line_has(line) {
        return true;
    }
    let mut l = line;
    while l > 1 && file.line_is_comment_only(l - 1) {
        l -= 1;
        if line_has(l) {
            return true;
        }
    }
    false
}

/// Method names that panic on the error/none path.
const PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];
/// Macros that panic unconditionally when reached.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Rule 2: library code must not contain panic-family calls.
///
/// The pipeline's contract is that malformed input surfaces as counted
/// errors (decode-error counters, `WireError` values), never as a dead
/// ingest worker: a panicking worker silently breaks the accounting
/// identities every equivalence suite relies on. A retained call needs
/// a pragma stating the invariant that makes the panic unreachable.
fn no_panic(file: &SourceFile, report: &mut Report) {
    if file.role != Role::Lib || PANIC_EXEMPT_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    let code: Vec<_> = file.code_tokens().collect();
    for (i, t) in code.iter().enumerate() {
        let text = t.text(&file.text);
        let next = code.get(i + 1).map(|n| n.text(&file.text));
        let prev = i.checked_sub(1).map(|p| code[p].text(&file.text));
        let is_panic_method =
            PANIC_METHODS.contains(&text) && prev == Some(".") && next == Some("(");
        let is_panic_macro = PANIC_MACROS.contains(&text) && next == Some("!");
        if !(is_panic_method || is_panic_macro) {
            continue;
        }
        if file.in_test_region(t.start) {
            continue;
        }
        let (line, col) = file.line_col(t.start);
        let shown = if is_panic_macro {
            format!("{text}!")
        } else {
            format!(".{text}()")
        };
        report.record(
            file,
            "no_panic",
            line,
            col,
            format!(
                "`{shown}` in library code; return an error or add a pragma stating the invariant"
            ),
        );
    }
}

/// Rule 3: crate roots must forbid unsafe code and warn on missing
/// docs, so the guarantees hold workspace-wide by construction.
///
/// One escape hatch exists for code that genuinely needs FFI (mt-serve's
/// `sys` module wraps epoll): a crate root may downgrade to
/// `#![deny(unsafe_code)]` — which, unlike `forbid`, an inner module can
/// override with `#[allow(unsafe_code)]` — but only with a file-scoped
/// pragma stating why, and then every `unsafe` token in the workspace's
/// library code must carry an adjacent `// safety:` comment arguing the
/// invariant that makes it sound.
fn crate_hygiene(file: &SourceFile, report: &mut Report) {
    unsafe_safety_audit(file, report);
    let is_crate_root = file.rel_path == "src/lib.rs"
        || (file.rel_path.starts_with("crates/") && file.rel_path.ends_with("/src/lib.rs"));
    if !is_crate_root {
        return;
    }
    let mut missing_attr = |needle: &str| {
        if let Some(p) = file.suppression_anywhere_for("crate_hygiene") {
            let (line, reason) = (p.line, p.reason.clone());
            report.suppress_site("crate_hygiene", &file.rel_path, line, &reason);
        } else {
            report.record_unsuppressable(
                file,
                "crate_hygiene",
                1,
                1,
                format!("crate root is missing `{needle}`"),
            );
        }
    };
    if !crate_root_has_attr(file, "#![warn(missing_docs)]") {
        missing_attr("#![warn(missing_docs)]");
    }
    if !crate_root_has_attr(file, "#![forbid(unsafe_code)]") {
        if !crate_root_has_attr(file, "#![deny(unsafe_code)]") {
            missing_attr("#![forbid(unsafe_code)]");
        } else if let Some(p) = file.suppression_anywhere_for("crate_hygiene") {
            // The deny-level escape hatch is deliberate and reasoned.
            let (line, reason) = (p.line, p.reason.clone());
            report.suppress_site("crate_hygiene", &file.rel_path, line, &reason);
        } else {
            report.record_unsuppressable(
                file,
                "crate_hygiene",
                1,
                1,
                "crate root downgrades to `#![deny(unsafe_code)]` without a pragma stating why"
                    .to_owned(),
            );
        }
    }
}

/// The `unsafe`-audit half of rule 3: every `unsafe` token in non-test
/// library code needs a `// safety:` justification on its line or in
/// the comment block directly above — the argument for why the compiler
/// can't check this one is part of the code, reviewable where it bites.
fn unsafe_safety_audit(file: &SourceFile, report: &mut Report) {
    if file.role != Role::Lib {
        return;
    }
    let mut flagged_lines = Vec::new();
    for t in file.code_tokens() {
        if t.text(&file.text) != "unsafe" || file.in_test_region(t.start) {
            continue;
        }
        let (line, col) = file.line_col(t.start);
        if flagged_lines.contains(&line) {
            continue; // one justification covers the whole line
        }
        flagged_lines.push(line);
        if has_adjacent_comment(file, line, "safety:") {
            continue;
        }
        report.record(
            file,
            "crate_hygiene",
            line,
            col,
            "`unsafe` without an adjacent `// safety:` justification comment".to_owned(),
        );
    }
}

/// Whether the crate root declares the given inner attribute, compared
/// token-wise so formatting cannot defeat the check.
fn crate_root_has_attr(file: &SourceFile, attr: &str) -> bool {
    let want: Vec<String> = crate::lexer::lex(attr)
        .iter()
        .map(|t| t.text(attr).to_owned())
        .collect();
    let code: Vec<_> = file.code_tokens().collect();
    code.windows(want.len())
        .any(|w| w.iter().zip(&want).all(|(t, s)| t.text(&file.text) == *s))
}

/// Rule 4: hot-path crates must not fall back to `std::collections`
/// maps — `mt_types::FxHashMap`/`FxHashSet` (PR 4) are the standard
/// there, and a stray SipHash map on the ingest path is a silent
/// regression the ledger (`flow.fold_map_ns_per_record`) only catches
/// after the fact.
fn hash_policy(file: &SourceFile, report: &mut Report) {
    if file.role != Role::Lib || !HASH_POLICY_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    let code: Vec<_> = file.code_tokens().collect();
    for t in &code {
        let text = t.text(&file.text);
        if text != "HashMap" && text != "HashSet" {
            continue;
        }
        if file.in_test_region(t.start) {
            continue;
        }
        let (line, col) = file.line_col(t.start);
        report.record(
            file,
            "hash_policy",
            line,
            col,
            format!("std `{text}` in a hot-path crate; use mt_types::Fx{text} (or pragma the definition site)"),
        );
    }
}

/// Rule 5: pipeline crates must not read wall clocks.
///
/// Streamed, sharded, and instrumented runs are bit-identical to the
/// serial batch *because* all time is simulated (`SimTime` watermarks);
/// a single `Instant::now` influencing control flow would make replay
/// runs diverge unreproducibly.
fn determinism(file: &SourceFile, report: &mut Report) {
    if CLOCK_EXEMPT_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    let code: Vec<_> = file.code_tokens().collect();
    for w in code.windows(4) {
        let [a, b, c, d] = w else { continue };
        let base = a.text(&file.text);
        if (base != "Instant" && base != "SystemTime")
            || b.text(&file.text) != ":"
            || c.text(&file.text) != ":"
            || d.text(&file.text) != "now"
        {
            continue;
        }
        if file.in_test_region(a.start) {
            continue;
        }
        let (line, col) = file.line_col(a.start);
        report.record(
            file,
            "determinism",
            line,
            col,
            format!("`{base}::now` in pipeline code breaks bit-identical replay; use SimTime, or pragma if the value never reaches pipeline output"),
        );
    }
}

/// Rule 7: per-/24 keyed hashmaps in mt-flow library code must be
/// deliberate.
///
/// Since the columnar refactor, the scalable representation of
/// per-block aggregates is the slot-indexed `ColumnarStats` store;
/// `FxHashMap<u32, ...>` is kept only as the proptest oracle and for
/// genuinely sparse side tables. A new block-keyed map quietly
/// reintroduces per-entry overheads the refactor removed, so each one
/// must carry a pragma stating why a map is the right shape.
fn columnar_policy(file: &SourceFile, report: &mut Report) {
    if file.role != Role::Lib || file.crate_name != "flow" {
        return;
    }
    let code: Vec<_> = file.code_tokens().collect();
    for w in code.windows(3) {
        let [a, b, c] = w else { continue };
        if a.text(&file.text) != "FxHashMap"
            || b.text(&file.text) != "<"
            || c.text(&file.text) != "u32"
        {
            continue;
        }
        if file.in_test_region(a.start) {
            continue;
        }
        let (line, col) = file.line_col(a.start);
        report.record(
            file,
            "columnar_policy",
            line,
            col,
            "u32-keyed FxHashMap in mt-flow library code; per-/24 state belongs in ColumnarStats — pragma the site if a sparse map is deliberate".to_owned(),
        );
    }
}

/// Registration methods on `mt_obs::MetricsRegistry`; the first string
/// argument is the metric name.
const REGISTRATION_METHODS: [&str; 6] = [
    "counter",
    "counter_with",
    "gauge",
    "gauge_with",
    "histogram",
    "histogram_with",
];

/// Rule 6: the metric-name catalogue in DESIGN.md and the names
/// actually registered in code must agree, both directions, so the
/// documented observability surface can never drift from the real one.
fn metric_names(ws: &Workspace, report: &mut Report) {
    let Some(design) = &ws.design_md else {
        return; // fixture workspaces without a DESIGN.md skip this rule
    };
    let Some(catalogue) = parse_catalogue(design) else {
        return;
    };

    // Code side: every lexical registration site. Test-role files are
    // skipped: a throwaway metric registered inside a test does not
    // belong in the documented observability surface.
    let mut registered: Vec<(usize, usize, usize, String)> = Vec::new(); // (file, line, col, name)
    for (fi, file) in ws.files.iter().enumerate() {
        if file.role == Role::Test {
            continue;
        }
        let code: Vec<_> = file.code_tokens().collect();
        for (i, t) in code.iter().enumerate() {
            if !REGISTRATION_METHODS.contains(&t.text(&file.text))
                || i == 0
                || code[i - 1].text(&file.text) != "."
                || code.get(i + 1).map(|n| n.text(&file.text)) != Some("(")
            {
                continue;
            }
            let Some(arg) = code.get(i + 2) else { continue };
            let arg_text = arg.text(&file.text);
            let Some(name) = arg_text.strip_prefix('"').and_then(|s| s.strip_suffix('"')) else {
                continue; // name passed through a variable; out of lexical reach
            };
            if !name.starts_with("mt_") || file.in_test_region(t.start) {
                continue;
            }
            let (line, col) = file.line_col(arg.start);
            registered.push((fi, line, col, name.to_owned()));
        }
    }

    for (fi, line, col, name) in &registered {
        if !catalogue.names.iter().any(|(n, _)| n == name) {
            report.record(
                &ws.files[*fi],
                "metric_names",
                *line,
                *col,
                format!(
                    "metric `{name}` is registered in code but missing from DESIGN.md's catalogue"
                ),
            );
        }
    }
    for (name, design_line) in &catalogue.names {
        let in_code = registered.iter().any(|(_, _, _, n)| n == name)
            || ws.files.iter().any(|f| {
                f.tokens.iter().any(|t| {
                    matches!(t.kind, crate::lexer::TokKind::StrLit)
                        && !f.in_test_region(t.start)
                        && t.text(&f.text).trim_matches('"') == name
                })
            });
        if !in_code {
            report.record_doc(
                "DESIGN.md",
                "metric_names",
                *design_line,
                format!("catalogue metric `{name}` does not appear anywhere in scanned code"),
            );
        }
    }
}

struct Catalogue {
    /// `(name, 1-based DESIGN.md line)`.
    names: Vec<(String, usize)>,
}

/// Parses the metric catalogue table between the
/// `<!-- mt-check:metrics-catalogue:begin/end -->` markers: every
/// backtick span in the first column, with `{a,b,c}` alternation
/// expanded (`mt_stream_{bytes,messages}_total` → two names).
fn parse_catalogue(design: &str) -> Option<Catalogue> {
    let mut names = Vec::new();
    let mut inside = false;
    for (i, line) in design.lines().enumerate() {
        if line.contains("mt-check:metrics-catalogue:begin") {
            inside = true;
            continue;
        }
        if line.contains("mt-check:metrics-catalogue:end") {
            inside = false;
            continue;
        }
        if !inside || !line.trim_start().starts_with('|') {
            continue;
        }
        let first_cell = line.trim_start().trim_start_matches('|');
        let Some(cell) = first_cell.split('|').next() else {
            continue;
        };
        let mut rest = cell;
        while let Some(tick) = rest.find('`') {
            let after = &rest[tick + 1..];
            let Some(close) = after.find('`') else { break };
            let span = &after[..close];
            for name in expand_braces(span) {
                if name.starts_with("mt_")
                    && name
                        .bytes()
                        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
                {
                    names.push((name, i + 1));
                }
            }
            rest = &after[close + 1..];
        }
    }
    if names.is_empty() {
        None
    } else {
        Some(Catalogue { names })
    }
}

/// Expands one `{a,b,c}` alternation group, e.g.
/// `mt_q_{pushed,popped}_total` → `[mt_q_pushed_total, mt_q_popped_total]`.
fn expand_braces(span: &str) -> Vec<String> {
    match (span.find('{'), span.find('}')) {
        (Some(o), Some(c)) if o < c => {
            let (head, tail) = (&span[..o], &span[c + 1..]);
            span[o + 1..c]
                .split(',')
                .map(|alt| format!("{head}{}{tail}", alt.trim()))
                .collect()
        }
        _ => vec![span.to_owned()],
    }
}
