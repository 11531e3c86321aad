//! Violation collection and the two report renderings.
//!
//! The JSON document is a validated artifact: a self-describing
//! envelope (`tool`, `schema_version`), a scan summary, one entry per
//! rule (present even at zero, so CI can assert the full rule list is
//! live), the flat
//! violation list, and — since schema version 2 — the suppression
//! inventory: every violation a reasoned pragma silenced, with its
//! rule, site, and stated reason, so CI artifacts can be diffed across
//! PRs and a quietly growing pile of `check: allow`s is as visible as
//! a failing rule. Suppressions do not affect exit codes. The human
//! rendering is `path:line:col: rule: message` — terse, clickable, and
//! printed verbatim by the umbrella-crate enforcement test when it
//! fails.

use crate::workspace::SourceFile;
use serde::Serialize;

/// One rule violation.
#[derive(Debug, Clone, Serialize)]
pub struct Violation {
    /// The rule id (see [`crate::rules::RULE_IDS`]).
    pub rule: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// What is wrong and what to do about it.
    pub message: String,
}

/// One violation silenced by a reasoned `// check: allow` pragma.
#[derive(Debug, Clone, Serialize)]
pub struct Suppression {
    /// The rule id the pragma silenced.
    pub rule: String,
    /// Workspace-relative path of the suppressed site.
    pub path: String,
    /// 1-based line of the suppressed site (0 when the pragma is
    /// file-scoped and the rule reports no single line).
    pub line: usize,
    /// The reason the pragma stated.
    pub reason: String,
}

/// Per-rule outcome counts.
#[derive(Debug, Clone, Serialize)]
pub struct RuleSummary {
    /// The rule id.
    pub id: String,
    /// One-line description of what the rule enforces.
    pub description: String,
    /// Unsuppressed violations.
    pub violations: usize,
    /// Violations silenced by a reasoned pragma.
    pub suppressed: usize,
}

/// The full analysis result.
#[derive(Debug, Serialize)]
pub struct Report {
    /// Always `"mt-check"`.
    pub tool: String,
    /// Document schema version.
    pub schema_version: u32,
    /// The workspace root that was scanned.
    pub root: String,
    /// Number of source files scanned.
    pub files_scanned: usize,
    /// Sum of per-rule violation counts.
    pub total_violations: usize,
    /// One entry per rule, in [`crate::rules::RULE_IDS`] order.
    pub rules: Vec<RuleSummary>,
    /// Every unsuppressed violation, in file/line order.
    pub violations: Vec<Violation>,
    /// Every suppressed violation, in file/line order.
    pub suppressions: Vec<Suppression>,
}

impl Report {
    /// An empty report for a scan of `files_scanned` files.
    pub fn new(root: &str, files_scanned: usize) -> Report {
        Report {
            tool: "mt-check".to_owned(),
            schema_version: 2,
            root: root.to_owned(),
            files_scanned,
            total_violations: 0,
            rules: crate::rules::rule_summaries(),
            violations: Vec::new(),
            suppressions: Vec::new(),
        }
    }

    /// Records a violation of `rule` in `file`, honouring any
    /// suppression pragma on the line or the line above.
    pub fn record(
        &mut self,
        file: &SourceFile,
        rule: &str,
        line: usize,
        col: usize,
        message: String,
    ) {
        if let Some(p) = file.suppression_for(rule, line) {
            let reason = p.reason.clone();
            self.suppress_site(rule, &file.rel_path, line, &reason);
            return;
        }
        self.push(rule, &file.rel_path, line, col, message);
    }

    /// Records a violation whose suppression the rule already decided
    /// (file-scoped rules).
    pub fn record_unsuppressable(
        &mut self,
        file: &SourceFile,
        rule: &str,
        line: usize,
        col: usize,
        message: String,
    ) {
        self.push(rule, &file.rel_path, line, col, message);
    }

    /// Records a violation against a non-source document (DESIGN.md).
    pub fn record_doc(&mut self, path: &str, rule: &str, line: usize, message: String) {
        self.push(rule, path, line, 1, message);
    }

    /// Counts one suppressed violation for `rule` and records it in the
    /// suppression inventory.
    pub fn suppress_site(&mut self, rule: &str, path: &str, line: usize, reason: &str) {
        if let Some(r) = self.rules.iter_mut().find(|r| r.id == rule) {
            r.suppressed += 1;
        }
        self.suppressions.push(Suppression {
            rule: rule.to_owned(),
            path: path.to_owned(),
            line,
            reason: reason.to_owned(),
        });
    }

    fn push(&mut self, rule: &str, path: &str, line: usize, col: usize, message: String) {
        if let Some(r) = self.rules.iter_mut().find(|r| r.id == rule) {
            r.violations += 1;
        }
        self.violations.push(Violation {
            rule: rule.to_owned(),
            path: path.to_owned(),
            line,
            col,
            message,
        });
    }

    /// Sorts violations and fills in the totals; called once after all
    /// rules have run.
    pub fn finish(&mut self) {
        self.violations.sort_by(|a, b| {
            (&a.path, a.line, a.col, &a.rule).cmp(&(&b.path, b.line, b.col, &b.rule))
        });
        self.suppressions
            .sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
        self.total_violations = self.rules.iter().map(|r| r.violations).sum();
    }

    /// Whether the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0
    }

    /// The count of violations for one rule id (0 for unknown ids).
    pub fn count(&self, rule: &str) -> usize {
        self.rules
            .iter()
            .find(|r| r.id == rule)
            .map_or(0, |r| r.violations)
    }

    /// Renders the human-readable report.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&format!(
                "{}:{}:{}: {}: {}\n",
                v.path, v.line, v.col, v.rule, v.message
            ));
        }
        out.push_str(&format!(
            "mt-check: {} file(s) scanned, {} violation(s)",
            self.files_scanned, self.total_violations
        ));
        for r in &self.rules {
            out.push_str(&format!(
                "\n  {:<16} {:>3} violation(s), {:>3} suppressed",
                r.id, r.violations, r.suppressed
            ));
        }
        out.push('\n');
        out
    }

    /// Renders the machine-readable JSON document.
    pub fn render_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| {
            // The report type contains nothing unserializable; keep a
            // total fallback rather than a panic path in library code.
            "{\"tool\":\"mt-check\",\"error\":\"serialization failed\"}".to_owned()
        })
    }
}
