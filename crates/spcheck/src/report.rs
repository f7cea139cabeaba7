//! Findings and their rendering (human text and machine JSON).

use std::fmt;

/// One rule violation at a file/line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line (0 for workspace-level findings with no single site).
    pub line: usize,
    /// Rule name (`single_source_format`, `bad_suppression`,
    /// `lock_order`, `hold_across_io`, `channel_hygiene`, `guard_scope`).
    pub rule: String,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl Finding {
    pub fn new(file: &str, line: usize, rule: &str, message: String) -> Finding {
        Finding {
            file: file.to_string(),
            line,
            rule: rule.to_string(),
            message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Render the findings as a stable, sorted text report.
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.to_string());
        out.push('\n');
    }
    if findings.is_empty() {
        out.push_str("spcheck: clean\n");
    } else {
        out.push_str(&format!(
            "spcheck: {} finding{}\n",
            findings.len(),
            if findings.len() == 1 { "" } else { "s" }
        ));
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render the findings as a JSON document:
/// `{"findings": [{"file", "line", "rule", "message"}...], "count": N}`.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            json_escape(&f.file),
            f.line,
            json_escape(&f.rule),
            json_escape(&f.message)
        ));
    }
    out.push_str(&format!("],\"count\":{}}}\n", findings.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_report_lists_findings_and_count() {
        let fs = vec![
            Finding::new("a.rs", 3, "lock_order", "bad".into()),
            Finding::new("b.rs", 9, "channel_hygiene", "worse".into()),
        ];
        let text = render_text(&fs);
        assert!(text.contains("a.rs:3: [lock_order] bad"));
        assert!(text.contains("2 findings"));
        assert!(render_text(&[]).contains("clean"));
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let fs = vec![Finding::new(
            "a.rs",
            1,
            "lock_order",
            "needs \"quotes\" and\nnewline".into(),
        )];
        let json = render_json(&fs);
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.contains("\\n"));
        assert!(json.ends_with("\"count\":1}\n"));
        assert_eq!(render_json(&[]), "{\"findings\":[],\"count\":0}\n");
    }
}
