//! Machine-readable JSON report (hand-rolled: the workspace has no serde).

use crate::allowlist::Entry;
use crate::Finding;

/// Escape a string for embedding in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    obs::json::push_escaped(&mut out, s);
    out
}

fn finding_json(f: &Finding, indent: &str) -> String {
    format!(
        "{indent}{{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"col\": {}, \"message\": \"{}\", \"snippet\": \"{}\", \"fingerprint\": \"{}\"}}",
        f.rule,
        json_escape(&f.path),
        f.line,
        f.col,
        json_escape(&f.message),
        json_escape(&f.snippet),
        f.fingerprint,
    )
}

/// Render the full report. Findings arrive pre-sorted by (path, line, col,
/// rule), so the output is deterministic for a given workspace state.
pub fn to_json(active: &[Finding], suppressed: &[Finding], stale: &[Entry]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"tool\": \"alicoco-lint\",\n");
    out.push_str(&format!(
        "  \"summary\": {{\"findings\": {}, \"suppressed\": {}, \"stale_allowlist_entries\": {}}},\n",
        active.len(),
        suppressed.len(),
        stale.len()
    ));
    for (key, list) in [("findings", active), ("suppressed", suppressed)] {
        out.push_str(&format!("  \"{key}\": [\n"));
        let rows: Vec<String> = list.iter().map(|f| finding_json(f, "    ")).collect();
        out.push_str(&rows.join(",\n"));
        if !rows.is_empty() {
            out.push('\n');
        }
        out.push_str("  ],\n");
    }
    out.push_str("  \"stale_allowlist\": [\n");
    let rows: Vec<String> = stale
        .iter()
        .map(|e| {
            format!(
                "    {{\"rule\": \"{}\", \"fingerprint\": \"{}\", \"note\": \"{}\"}}",
                e.rule,
                e.fingerprint,
                json_escape(&e.note)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    if !rows.is_empty() {
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_json_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn report_shape_is_valid_enough() {
        let f = Finding {
            rule: "AL001",
            path: "crates/x/src/a.rs".into(),
            line: 3,
            col: 7,
            message: "m".into(),
            snippet: "let x = v[i];".into(),
            fingerprint: "0123456789abcdef".into(),
        };
        let json = to_json(&[f], &[], &[]);
        assert!(json.contains("\"findings\": 1"));
        assert!(json.contains("\"rule\": \"AL001\""));
        assert!(json.ends_with("]\n}\n"));
    }
}
