//! Typed findings and the aggregated report.

use serde::{de, Deserialize, Deserializer, Serialize, Serializer};

/// How severe a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: the artifact works but leaves modelled performance on
    /// the table or is in a non-canonical form.
    Warn,
    /// Hard error: the artifact violates a structural invariant and
    /// would execute incorrectly (or not at all) on the modelled SoC.
    Deny,
}

// Manual impls so the JSON encoding is the same lowercase string the
// severity displays as ("warn"/"deny"), not the variant name.
impl Serialize for Severity {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.to_string())
    }
}

impl<'de> Deserialize<'de> for Severity {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match String::deserialize(deserializer)?.as_str() {
            "warn" => Ok(Self::Warn),
            "deny" => Ok(Self::Deny),
            other => Err(de::Error::custom(format!(
                "expected \"warn\" or \"deny\", got \"{other}\""
            ))),
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Warn => "warn",
            Self::Deny => "deny",
        })
    }
}

/// One finding from one rule at one location.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable rule identifier (see [`crate::rules::RULES`]).
    pub rule_id: String,
    /// Severity (the rule's registered level).
    pub severity: Severity,
    /// What was being checked, e.g. `"Llama-8B/ffn_down[m=300]"`.
    pub location: String,
    /// What is wrong.
    pub message: String,
    /// How to fix it, when the rule knows.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// A finding of registered rule `rule_id`, at the rule's severity.
    pub fn new(rule_id: &str, location: impl Into<String>, message: impl Into<String>) -> Self {
        Self::with_suggestion(rule_id, location, message, None)
    }

    /// [`Diagnostic::new`] with an optional fix.
    pub fn with_suggestion(
        rule_id: &str,
        location: impl Into<String>,
        message: impl Into<String>,
        suggestion: Option<String>,
    ) -> Self {
        let info = crate::rules::rule(rule_id).expect("findings name a registered rule");
        Self {
            rule_id: rule_id.into(),
            severity: info.severity,
            location: location.into(),
            message: message.into(),
            suggestion,
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.rule_id, self.location, self.message
        )?;
        if let Some(s) = &self.suggestion {
            write!(f, " (suggestion: {s})")?;
        }
        Ok(())
    }
}

/// Counts accompanying a [`Report`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of deny-level findings.
    pub deny: usize,
    /// Number of warn-level findings.
    pub warn: usize,
    /// Number of artifacts (plans, schedules, traces) checked.
    pub checked: usize,
}

/// Aggregated analysis results, serializable as the CLI's JSON output.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Report {
    /// Schema version of the JSON encoding.
    pub version: u32,
    /// Every finding, in check order.
    pub findings: Vec<Diagnostic>,
    /// Aggregate counts.
    pub summary: Summary,
}

impl Report {
    /// Current JSON schema version.
    pub const VERSION: u32 = 1;

    /// New, empty report.
    pub fn new() -> Self {
        Self {
            version: Self::VERSION,
            ..Self::default()
        }
    }

    /// Fold in the findings for one checked artifact.
    ///
    /// Debug builds assert every finding's `rule_id` is present in the
    /// [`crate::rules::RULES`] registry — an unregistered id means a
    /// check site bypassed the registry with an ad-hoc string.
    pub fn extend(&mut self, findings: Vec<Diagnostic>) {
        self.summary.checked += 1;
        for d in &findings {
            debug_assert!(
                crate::rules::rule(&d.rule_id).is_some(),
                "diagnostic with unregistered rule id {:?}",
                d.rule_id
            );
            match d.severity {
                Severity::Deny => self.summary.deny += 1,
                Severity::Warn => self.summary.warn += 1,
            }
        }
        self.findings.extend(findings);
    }

    /// Fold another report into this one, summing its counts (used to
    /// combine independently produced sweep reports).
    pub fn merge(&mut self, other: Report) {
        self.summary.checked += other.summary.checked;
        self.summary.deny += other.summary.deny;
        self.summary.warn += other.summary.warn;
        self.findings.extend(other.findings);
    }

    /// Whether no deny-level finding was recorded.
    pub fn is_clean(&self) -> bool {
        self.summary.deny == 0
    }

    /// The report as a JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization is infallible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(severity: Severity) -> Diagnostic {
        Diagnostic {
            rule_id: crate::rules::SHAPE_CONSERVATION.into(),
            severity,
            location: "test".into(),
            message: "msg".into(),
            suggestion: None,
        }
    }

    #[test]
    fn report_counts_by_severity() {
        let mut r = Report::new();
        r.extend(vec![diag(Severity::Deny), diag(Severity::Warn)]);
        r.extend(vec![]);
        assert_eq!(r.summary.checked, 2);
        assert_eq!(r.summary.deny, 1);
        assert_eq!(r.summary.warn, 1);
        assert!(!r.is_clean());
    }

    #[test]
    fn json_roundtrip() {
        let mut r = Report::new();
        r.extend(vec![diag(Severity::Deny)]);
        let json = r.to_json();
        assert!(json.contains("\"deny\""), "lowercase severity: {json}");
        let back: Report = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, r);
    }

    #[test]
    fn display_includes_rule_and_severity() {
        let mut d = diag(Severity::Deny);
        d.suggestion = Some("fix it".into());
        let s = d.to_string();
        assert!(s.contains("deny[shape-conservation]"), "{s}");
        assert!(s.contains("fix it"), "{s}");
    }
}
