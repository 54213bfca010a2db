//! SARIF v2.1.0 output — the interchange format GitHub code scanning,
//! VS Code, and most CI dashboards ingest directly.
//!
//! One `run` per report: the tool component lists every registered rule
//! (so viewers can render rule metadata without a side channel), each
//! finding becomes a `result` with a physical location against
//! `SRCROOT` (the workspace root), and findings suppressed by a
//! `// lit-lint: allow(...)` annotation carry a `suppressions` entry of
//! kind `inSource` with the annotation's justification — suppressed, but
//! visible to auditors, which is the whole point of mandatory
//! justifications.
//!
//! Hand-rolled serialization like `diag::Report::to_json`: the workspace
//! is dependency-free by constraint (offline build container).

use crate::diag::{json_str, Report};
use crate::rules;
use std::fmt::Write as _;

/// Serialize a report as a SARIF v2.1.0 log.
pub fn to_sarif(report: &Report) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(
        "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n",
    );
    s.push_str("  \"version\": \"2.1.0\",\n");
    s.push_str("  \"runs\": [\n    {\n");
    s.push_str("      \"tool\": {\n        \"driver\": {\n");
    s.push_str("          \"name\": \"lit-lint\",\n");
    let _ = writeln!(
        s,
        "          \"semanticVersion\": {},",
        json_str(env!("CARGO_PKG_VERSION"))
    );
    s.push_str("          \"rules\": [\n");
    let all = rules::all();
    for (i, r) in all.iter().enumerate() {
        let _ = write!(
            s,
            "            {{ \"id\": {}, \"shortDescription\": {{ \"text\": {} }}, \
             \"help\": {{ \"text\": {} }} }}",
            json_str(r.name),
            json_str(&oneline(r.describe)),
            json_str(&format!("protects: {}", oneline(r.protects))),
        );
        s.push_str(if i + 1 < all.len() { ",\n" } else { "\n" });
    }
    s.push_str("          ]\n        }\n      },\n");
    s.push_str("      \"originalUriBaseIds\": { \"SRCROOT\": { \"description\": { \"text\": \"workspace root\" } } },\n");
    s.push_str("      \"results\": [\n");
    for (i, f) in report.findings.iter().enumerate() {
        let level = if f.allowed() { "note" } else { "error" };
        let _ = write!(
            s,
            "        {{ \"ruleId\": {}, \"level\": \"{}\", \"message\": {{ \"text\": {} }}, \
             \"locations\": [ {{ \"physicalLocation\": {{ \
             \"artifactLocation\": {{ \"uri\": {}, \"uriBaseId\": \"SRCROOT\" }}, \
             \"region\": {{ \"startLine\": {}, \"startColumn\": {}, \
             \"snippet\": {{ \"text\": {} }} }} }} }} ]",
            json_str(f.rule),
            level,
            json_str(&f.message),
            json_str(&f.file),
            f.line,
            f.col,
            json_str(&f.snippet),
        );
        if let Some(j) = &f.justification {
            let _ = write!(
                s,
                ", \"suppressions\": [ {{ \"kind\": \"inSource\", \"justification\": {} }} ]",
                json_str(j)
            );
        }
        s.push_str(" }");
        s.push_str(if i + 1 < report.findings.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("      ]\n    }\n  ]\n}\n");
    s
}

/// Collapse the multi-line continuation whitespace of the registry's
/// string literals into single spaces.
fn oneline(v: &str) -> String {
    v.split_whitespace().collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Finding;

    #[test]
    fn sarif_shape_and_suppressions() {
        let mut r = Report::default();
        r.findings.push(Finding {
            rule: "no-panic-hot-path",
            file: "crates/sim/src/queue.rs".into(),
            line: 7,
            col: 9,
            message: "panicking index".into(),
            snippet: "v[i]".into(),
            justification: None,
        });
        r.findings.push(Finding {
            rule: "checked-clock-ops",
            file: "crates/net/src/network.rs".into(),
            line: 3,
            col: 1,
            message: "saturating on a clock".into(),
            snippet: "t.saturating_add(d)".into(),
            justification: Some("sentinel stays a sentinel".into()),
        });
        let s = to_sarif(&r);
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"name\": \"lit-lint\""));
        // Every registered rule is described in the driver.
        for rule in rules::all() {
            assert!(
                s.contains(&format!("\"id\": \"{}\"", rule.name)),
                "{}",
                rule.name
            );
        }
        assert!(s.contains("\"level\": \"error\""));
        assert!(s.contains("\"level\": \"note\""));
        assert!(s.contains("\"kind\": \"inSource\""));
        assert!(s.contains("sentinel stays a sentinel"));
        assert!(s.contains("\"uriBaseId\": \"SRCROOT\""));
        // Exactly one suppressions array: the error result has none.
        assert_eq!(s.matches("\"suppressions\"").count(), 1);
    }
}
