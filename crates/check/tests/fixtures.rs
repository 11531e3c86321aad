//! Proof that every rule is live.
//!
//! For each of the six rules, a bad fixture mounted at an in-scope path
//! must make the rule fire, and its pragma'd twin must suppress it
//! (counted, never silent). If a rule rots into a no-op — a refactor
//! drops its token pattern, the catalogue markers change — one of these
//! tests goes red, not just the workspace scan.
//!
//! Fixture sources live in `crates/check/fixtures/`, outside any `src/`
//! tree, so the real workspace scan never sees them.

use mt_check::{run_all, Report, Workspace};

fn check_one(path: &str, text: &str) -> Report {
    run_all(&Workspace::in_memory(vec![(path, text.to_owned())], None))
}

/// A DESIGN.md stand-in whose catalogue lists exactly one metric.
fn design_with_catalogue(names: &str) -> String {
    format!(
        "# Design\n\n<!-- mt-check:metrics-catalogue:begin -->\n\n\
         | Metric | Kind |\n|---|---|\n| `{names}` | counter |\n\n\
         <!-- mt-check:metrics-catalogue:end -->\n"
    )
}

#[test]
fn atomics_ordering_fires_and_suppresses() {
    let bad = check_one(
        "crates/demo/src/a.rs",
        include_str!("../fixtures/atomics_bad.rs"),
    );
    assert_eq!(bad.count("atomics_ordering"), 1, "{}", bad.render_human());

    let sup = check_one(
        "crates/demo/src/a.rs",
        include_str!("../fixtures/atomics_suppressed.rs"),
    );
    assert_eq!(sup.count("atomics_ordering"), 0, "{}", sup.render_human());
    assert_eq!(
        suppressed(&sup, "atomics_ordering"),
        1,
        "counted, not silent"
    );

    let ok = check_one(
        "crates/demo/src/a.rs",
        include_str!("../fixtures/atomics_justified.rs"),
    );
    assert_eq!(ok.count("atomics_ordering"), 0, "{}", ok.render_human());
    assert_eq!(
        suppressed(&ok, "atomics_ordering"),
        0,
        "an `// ordering:` justification satisfies the rule outright"
    );
}

#[test]
fn no_panic_fires_and_suppresses() {
    let bad = check_one(
        "crates/demo/src/a.rs",
        include_str!("../fixtures/no_panic_bad.rs"),
    );
    assert_eq!(bad.count("no_panic"), 1, "{}", bad.render_human());

    let sup = check_one(
        "crates/demo/src/a.rs",
        include_str!("../fixtures/no_panic_suppressed.rs"),
    );
    assert_eq!(sup.count("no_panic"), 0, "{}", sup.render_human());
    assert_eq!(suppressed(&sup, "no_panic"), 1);
}

#[test]
fn empty_reason_does_not_suppress() {
    let bad = check_one(
        "crates/demo/src/a.rs",
        include_str!("../fixtures/no_panic_empty_reason.rs"),
    );
    assert_eq!(
        bad.count("no_panic"),
        1,
        "a reasonless pragma must not suppress:\n{}",
        bad.render_human()
    );
}

#[test]
fn no_panic_ignores_bins_and_tests() {
    let text = include_str!("../fixtures/no_panic_bad.rs");
    let bin = check_one("crates/demo/src/bin/tool.rs", text);
    assert_eq!(bin.count("no_panic"), 0, "bin targets may unwrap");

    let in_test = format!("#[cfg(test)]\nmod tests {{\n{text}\n}}\n");
    let tst = check_one("crates/demo/src/a.rs", &in_test);
    assert_eq!(tst.count("no_panic"), 0, "test regions may unwrap");
}

#[test]
fn crate_hygiene_fires_and_suppresses() {
    let text = include_str!("../fixtures/hygiene_bad.rs");
    let bad = check_one("crates/demo/src/lib.rs", text);
    assert_eq!(
        bad.count("crate_hygiene"),
        2,
        "both attrs missing:\n{}",
        bad.render_human()
    );

    let elsewhere = check_one("crates/demo/src/util.rs", text);
    assert_eq!(
        elsewhere.count("crate_hygiene"),
        0,
        "only crate roots are held to the attr requirement"
    );

    let sup = check_one(
        "crates/demo/src/lib.rs",
        include_str!("../fixtures/hygiene_suppressed.rs"),
    );
    assert_eq!(sup.count("crate_hygiene"), 0, "{}", sup.render_human());
    assert_eq!(
        suppressed(&sup, "crate_hygiene"),
        2,
        "file-scoped pragma counts"
    );
}

#[test]
fn crate_hygiene_deny_needs_a_pragma() {
    let bad = check_one(
        "crates/demo/src/lib.rs",
        include_str!("../fixtures/hygiene_deny_bad.rs"),
    );
    assert_eq!(
        bad.count("crate_hygiene"),
        1,
        "a silent downgrade to deny(unsafe_code) must fire:\n{}",
        bad.render_human()
    );

    let sup = check_one(
        "crates/demo/src/lib.rs",
        include_str!("../fixtures/hygiene_deny_suppressed.rs"),
    );
    assert_eq!(sup.count("crate_hygiene"), 0, "{}", sup.render_human());
    assert_eq!(
        suppressed(&sup, "crate_hygiene"),
        1,
        "the reasoned escape hatch is counted, not silent"
    );
}

#[test]
fn unsafe_without_safety_comment_fires() {
    let text = include_str!("../fixtures/unsafe_safety_bad.rs");
    let bad = check_one("crates/demo/src/util.rs", text);
    assert_eq!(
        bad.count("crate_hygiene"),
        1,
        "a bare `unsafe` must fire in any lib file:\n{}",
        bad.render_human()
    );

    let bin = check_one("crates/demo/src/bin/tool.rs", text);
    assert_eq!(bin.count("crate_hygiene"), 0, "bins are out of audit scope");

    let in_test = format!("#[cfg(test)]\nmod tests {{\n{text}\n}}\n");
    let tst = check_one("crates/demo/src/util.rs", &in_test);
    assert_eq!(tst.count("crate_hygiene"), 0, "test regions are exempt");

    let ok = check_one(
        "crates/demo/src/util.rs",
        include_str!("../fixtures/unsafe_safety_justified.rs"),
    );
    assert_eq!(ok.count("crate_hygiene"), 0, "{}", ok.render_human());
    assert_eq!(
        suppressed(&ok, "crate_hygiene"),
        0,
        "a `// safety:` comment satisfies the audit outright"
    );

    let sup = check_one(
        "crates/demo/src/util.rs",
        include_str!("../fixtures/unsafe_safety_suppressed.rs"),
    );
    assert_eq!(sup.count("crate_hygiene"), 0, "{}", sup.render_human());
    assert_eq!(suppressed(&sup, "crate_hygiene"), 1);
}

#[test]
fn hash_policy_fires_and_suppresses() {
    let text = include_str!("../fixtures/hash_policy_bad.rs");
    let bad = check_one("crates/flow/src/fix.rs", text);
    assert!(
        bad.count("hash_policy") >= 1,
        "std HashMap in a hot-path crate must fire:\n{}",
        bad.render_human()
    );

    let cold = check_one("crates/netmodel/src/fix.rs", text);
    assert_eq!(
        cold.count("hash_policy"),
        0,
        "the policy binds only the hot-path crates"
    );

    let sup = check_one(
        "crates/flow/src/fix.rs",
        include_str!("../fixtures/hash_policy_suppressed.rs"),
    );
    assert_eq!(sup.count("hash_policy"), 0, "{}", sup.render_human());
    assert!(suppressed(&sup, "hash_policy") >= 1);
}

#[test]
fn columnar_policy_fires_and_suppresses() {
    let text = include_str!("../fixtures/columnar_policy_bad.rs");
    let bad = check_one("crates/flow/src/fix.rs", text);
    assert_eq!(
        bad.count("columnar_policy"),
        1,
        "a u32-keyed FxHashMap in mt-flow lib code must fire:\n{}",
        bad.render_human()
    );

    let elsewhere = check_one("crates/stream/src/fix.rs", text);
    assert_eq!(
        elsewhere.count("columnar_policy"),
        0,
        "the policy binds only mt-flow"
    );

    let bin = check_one("crates/flow/src/bin/tool.rs", text);
    assert_eq!(
        bin.count("columnar_policy"),
        0,
        "binaries and tests are out of scope"
    );

    let sup = check_one(
        "crates/flow/src/fix.rs",
        include_str!("../fixtures/columnar_policy_suppressed.rs"),
    );
    assert_eq!(sup.count("columnar_policy"), 0, "{}", sup.render_human());
    assert_eq!(suppressed(&sup, "columnar_policy"), 1);
}

#[test]
fn determinism_fires_and_suppresses() {
    let text = include_str!("../fixtures/determinism_bad.rs");
    let bad = check_one("crates/core/src/fix.rs", text);
    assert_eq!(bad.count("determinism"), 1, "{}", bad.render_human());

    let exempt = check_one("crates/obs/src/fix.rs", text);
    assert_eq!(
        exempt.count("determinism"),
        0,
        "mt-obs owns wall-clock reads"
    );

    let sup = check_one(
        "crates/core/src/fix.rs",
        include_str!("../fixtures/determinism_suppressed.rs"),
    );
    assert_eq!(sup.count("determinism"), 0, "{}", sup.render_human());
    assert_eq!(suppressed(&sup, "determinism"), 1);
}

#[test]
fn metric_names_fires_both_directions_and_suppresses() {
    let code = include_str!("../fixtures/metric_names_bad.rs");

    // Code registers a metric the catalogue does not list.
    let ws = Workspace::in_memory(
        vec![("crates/demo/src/a.rs", code.to_owned())],
        Some(design_with_catalogue("mt_fixture_ghost_total")),
    );
    let report = run_all(&ws);
    assert_eq!(
        report.count("metric_names"),
        2,
        "one uncatalogued registration + one code-less catalogue entry:\n{}",
        report.render_human()
    );

    // A matching catalogue is clean.
    let ws = Workspace::in_memory(
        vec![("crates/demo/src/a.rs", code.to_owned())],
        Some(design_with_catalogue("mt_fixture_unlisted_total")),
    );
    let report = run_all(&ws);
    assert_eq!(report.count("metric_names"), 0, "{}", report.render_human());

    // Without catalogue markers the rule stands down rather than guess.
    let ws = Workspace::in_memory(
        vec![("crates/demo/src/a.rs", code.to_owned())],
        Some("# Design\nno catalogue here\n".to_owned()),
    );
    let report = run_all(&ws);
    assert_eq!(report.count("metric_names"), 0);

    // The registration-site violation is pragma-suppressible.
    let ws = Workspace::in_memory(
        vec![(
            "crates/demo/src/a.rs",
            include_str!("../fixtures/metric_names_suppressed.rs").to_owned(),
        )],
        Some(design_with_catalogue("mt_fixture_unlisted_total")),
    );
    let report = run_all(&ws);
    assert_eq!(report.count("metric_names"), 0, "{}", report.render_human());
}

#[test]
fn catalogue_brace_expansion_matches_each_name() {
    let code = r#"
/// Registers two series.
pub fn register(reg: &mt_obs::MetricsRegistry) {
    reg.counter("mt_fx_read_total", "reads");
    reg.counter("mt_fx_write_total", "writes");
}
"#;
    let ws = Workspace::in_memory(
        vec![("crates/demo/src/a.rs", code.to_owned())],
        Some(design_with_catalogue("mt_fx_{read,write}_total")),
    );
    let report = run_all(&ws);
    assert_eq!(report.count("metric_names"), 0, "{}", report.render_human());
}

fn suppressed(report: &Report, rule: &str) -> usize {
    report
        .rules
        .iter()
        .find(|r| r.id == rule)
        .map_or(0, |r| r.suppressed)
}

/// A DESIGN.md stand-in whose lock-order catalogue lists `names` in
/// the given (declared) acquisition order.
fn design_with_lock_catalogue(names: &[&str]) -> String {
    let rows: String = names
        .iter()
        .enumerate()
        .map(|(i, n)| format!("| {} | `{n}` | fixture |\n", i + 1))
        .collect();
    format!(
        "# Design\n\n<!-- mt-check:lock-catalogue:begin -->\n\n\
         | # | Lock | Protects |\n|---|---|---|\n{rows}\n\
         <!-- mt-check:lock-catalogue:end -->\n"
    )
}

#[test]
fn lock_order_fires_on_unannotated_sites_and_suppresses() {
    let bad = check_one(
        "crates/demo/src/a.rs",
        include_str!("../fixtures/lock_order_bad.rs"),
    );
    assert_eq!(bad.count("lock_order"), 1, "{}", bad.render_human());

    let sup = check_one(
        "crates/demo/src/a.rs",
        include_str!("../fixtures/lock_order_suppressed.rs"),
    );
    assert_eq!(sup.count("lock_order"), 0, "{}", sup.render_human());
    assert_eq!(suppressed(&sup, "lock_order"), 1, "counted, not silent");
}

#[test]
fn lock_order_flags_cycles() {
    let report = check_one(
        "crates/demo/src/a.rs",
        include_str!("../fixtures/lock_order_cycle.rs"),
    );
    assert_eq!(
        report.count("lock_order"),
        1,
        "one back edge, one potential deadlock: {}",
        report.render_human()
    );
    assert!(
        report.violations[0].message.contains("cycle"),
        "{}",
        report.render_human()
    );
}

#[test]
fn lock_order_verifies_the_catalogue_both_directions() {
    let code = include_str!("../fixtures/lock_order_named.rs");
    let check = |catalogue: &[&str]| {
        run_all(&Workspace::in_memory(
            vec![("crates/demo/src/a.rs", code.to_owned())],
            Some(design_with_lock_catalogue(catalogue)),
        ))
    };

    let ok = check(&["fixture.outer", "fixture.inner"]);
    assert_eq!(ok.count("lock_order"), 0, "{}", ok.render_human());

    let reversed = check(&["fixture.inner", "fixture.outer"]);
    assert_eq!(
        reversed.count("lock_order"),
        1,
        "the observed outer→inner edge contradicts the declared order: {}",
        reversed.render_human()
    );

    let missing = check(&["fixture.outer"]);
    assert_eq!(
        missing.count("lock_order"),
        1,
        "fixture.inner is acquired but uncatalogued: {}",
        missing.render_human()
    );

    let stale = check(&["fixture.outer", "fixture.inner", "fixture.ghost"]);
    assert_eq!(
        stale.count("lock_order"),
        1,
        "fixture.ghost is catalogued but never acquired: {}",
        stale.render_human()
    );
    assert_eq!(stale.violations[0].path, "DESIGN.md");
}

#[test]
fn atomic_protocol_fires_and_suppresses() {
    let bad = check_one(
        "crates/demo/src/a.rs",
        include_str!("../fixtures/atomic_protocol_bad.rs"),
    );
    assert_eq!(bad.count("atomic_protocol"), 1, "{}", bad.render_human());

    let sup = check_one(
        "crates/demo/src/a.rs",
        include_str!("../fixtures/atomic_protocol_suppressed.rs"),
    );
    assert_eq!(sup.count("atomic_protocol"), 0, "{}", sup.render_human());
    assert_eq!(
        suppressed(&sup, "atomic_protocol"),
        1,
        "counted, not silent"
    );

    let ok = check_one(
        "crates/demo/src/a.rs",
        include_str!("../fixtures/atomic_protocol_paired.rs"),
    );
    assert_eq!(
        ok.count("atomic_protocol"),
        0,
        "both halves present — a whole protocol: {}",
        ok.render_human()
    );
}

#[test]
fn blocking_under_lock_fires_and_suppresses() {
    let bad = check_one(
        "crates/demo/src/a.rs",
        include_str!("../fixtures/blocking_under_lock_bad.rs"),
    );
    assert_eq!(
        bad.count("blocking_under_lock"),
        1,
        "{}",
        bad.render_human()
    );

    let sup = check_one(
        "crates/demo/src/a.rs",
        include_str!("../fixtures/blocking_under_lock_suppressed.rs"),
    );
    assert_eq!(
        sup.count("blocking_under_lock"),
        0,
        "{}",
        sup.render_human()
    );
    assert_eq!(
        suppressed(&sup, "blocking_under_lock"),
        1,
        "counted, not silent"
    );

    let ok = check_one(
        "crates/demo/src/a.rs",
        include_str!("../fixtures/blocking_under_lock_condvar.rs"),
    );
    assert_eq!(
        ok.count("blocking_under_lock"),
        0,
        "a condvar wait consuming its own guard is exempt: {}",
        ok.render_human()
    );
}

#[test]
fn blocking_under_lock_sees_file_writes_behind_plain_calls() {
    let bad = check_one(
        "crates/demo/src/a.rs",
        include_str!("../fixtures/blocking_under_lock_store_bad.rs"),
    );
    assert_eq!(
        bad.count("blocking_under_lock"),
        3,
        "write_summary, fs::write and fs::rename each fire: {}",
        bad.render_human()
    );

    let sup = check_one(
        "crates/demo/src/a.rs",
        include_str!("../fixtures/blocking_under_lock_store_suppressed.rs"),
    );
    assert_eq!(
        sup.count("blocking_under_lock"),
        0,
        "{}",
        sup.render_human()
    );
    assert_eq!(
        suppressed(&sup, "blocking_under_lock"),
        3,
        "counted, not silent"
    );
}

#[test]
fn suppression_inventory_carries_rule_site_and_reason() {
    let sup = check_one(
        "crates/demo/src/a.rs",
        include_str!("../fixtures/lock_order_suppressed.rs"),
    );
    assert_eq!(sup.suppressions.len(), 1, "{}", sup.render_human());
    let s = &sup.suppressions[0];
    assert_eq!(s.rule, "lock_order");
    assert_eq!(s.path, "crates/demo/src/a.rs");
    assert!(s.line > 0);
    assert_eq!(s.reason, "fixture: name intentionally omitted");
}
