//! Report rendering: human diagnostics and the machine-readable JSON
//! artifact.
//!
//! The JSON report is built on the shared [`scg_obs::json::Json`] model and
//! serialized with [`Json::encode`], so it round-trips through the shared
//! hand-rolled parser: the `--validate` mode and the CI gate both re-parse
//! it with [`scg_obs::json::parse`].

use std::collections::BTreeMap;

use scg_obs::json::{parse, Json};

use crate::driver::Analysis;
use crate::rules::{RuleId, ALL_RULES};

/// Schema tag stamped into every report.
pub const SCHEMA: &str = "scg-analyze/v2";

/// Integer schema version, mirrored in the report as `schema_version` so
/// downstream tooling can gate on a number instead of parsing the tag.
pub const SCHEMA_VERSION: u32 = 2;

/// Renders the human-readable diagnostics (one line per finding, rustc
/// style), followed by a per-rule summary.
#[must_use]
pub fn render_text(analysis: &Analysis, verbose: bool) -> String {
    let mut out = String::new();
    for d in &analysis.diagnostics {
        match &d.suppressed {
            None => {
                out.push_str(&format!(
                    "{}: {}:{}:{}: {}\n",
                    d.rule.code(),
                    d.file,
                    d.line,
                    d.col,
                    d.message
                ));
            }
            Some(reason) if verbose => {
                out.push_str(&format!(
                    "{}: {}:{}:{}: suppressed — {}\n",
                    d.rule.code(),
                    d.file,
                    d.line,
                    d.col,
                    reason
                ));
            }
            Some(_) => {}
        }
    }
    let active = analysis.active().count();
    let suppressed = analysis.diagnostics.len() - active;
    out.push_str(&format!(
        "scg-analyze: {} file(s), {} violation(s), {} suppressed\n",
        analysis.files_scanned, active, suppressed
    ));
    for rule in ALL_RULES {
        let n = analysis.count(rule);
        if n > 0 || verbose {
            out.push_str(&format!("  {}: {} — {}\n", rule.code(), n, rule.summary()));
        }
    }
    let hygiene = analysis.count(RuleId::Scg000);
    if hygiene > 0 {
        out.push_str(&format!(
            "  {}: {} — {}\n",
            RuleId::Scg000.code(),
            hygiene,
            RuleId::Scg000.summary()
        ));
    }
    out
}

/// The `--list-rules` table.
#[must_use]
pub fn render_rules() -> String {
    let mut out = String::from("scg-analyze rules:\n");
    for rule in ALL_RULES {
        out.push_str(&format!("  {}  {}\n", rule.code(), rule.summary()));
    }
    out.push_str(&format!(
        "  {}  {}\n",
        RuleId::Scg000.code(),
        RuleId::Scg000.summary()
    ));
    out.push_str(
        "suppress with `// scg-allow(SCG00x): reason` on the offending line \
         or the line above; the reason is mandatory\n",
    );
    out
}

/// Builds the machine-readable report as a [`Json`] tree.
#[must_use]
pub fn to_json(analysis: &Analysis) -> Json {
    let mut rules = Vec::new();
    for rule in ALL_RULES {
        rules.push(Json::Object(BTreeMap::from([
            ("id".to_string(), Json::String(rule.code().to_string())),
            (
                "summary".to_string(),
                Json::String(rule.summary().to_string()),
            ),
            (
                "violations".to_string(),
                Json::Int(analysis.count(rule) as i128),
            ),
        ])));
    }
    let mut violations = Vec::new();
    let mut suppressions = Vec::new();
    for d in &analysis.diagnostics {
        let mut entry = BTreeMap::from([
            ("rule".to_string(), Json::String(d.rule.code().to_string())),
            ("file".to_string(), Json::String(d.file.clone())),
            ("line".to_string(), Json::Int(i128::from(d.line))),
            ("col".to_string(), Json::Int(i128::from(d.col))),
            ("message".to_string(), Json::String(d.message.clone())),
        ]);
        match &d.suppressed {
            Some(reason) => {
                entry.insert("reason".to_string(), Json::String(reason.clone()));
                suppressions.push(Json::Object(entry));
            }
            None => violations.push(Json::Object(entry)),
        }
    }
    Json::Object(BTreeMap::from([
        ("schema".to_string(), Json::String(SCHEMA.to_string())),
        (
            "schema_version".to_string(),
            Json::Int(i128::from(SCHEMA_VERSION)),
        ),
        ("tool".to_string(), Json::String("scg-analyze".to_string())),
        (
            "files_scanned".to_string(),
            Json::Int(analysis.files_scanned as i128),
        ),
        ("rules".to_string(), Json::Array(rules)),
        ("violations".to_string(), Json::Array(violations)),
        ("suppressions".to_string(), Json::Array(suppressions)),
        (
            "total_violations".to_string(),
            Json::Int(analysis.active().count() as i128),
        ),
    ]))
}

/// Validates a written report: parses via the shared parser and checks the
/// schema invariants the CI gate relies on.
///
/// # Errors
///
/// Returns a human-readable message on the first malformed field.
pub fn validate_report(text: &str) -> Result<(), String> {
    let v = parse(text).map_err(|e| format!("report does not parse: {e}"))?;
    let top = v.as_object(0).map_err(|e| format!("{e}"))?;
    let schema = top
        .get("schema")
        .ok_or("missing \"schema\"")?
        .as_string(0)
        .map_err(|e| format!("{e}"))?;
    if schema != SCHEMA {
        return Err(format!("schema is {schema:?}, expected {SCHEMA:?}"));
    }
    let version = top
        .get("schema_version")
        .ok_or("missing \"schema_version\"")?
        .as_u64(0)
        .map_err(|e| format!("{e}"))?;
    if version != u64::from(SCHEMA_VERSION) {
        return Err(format!(
            "schema_version is {version}, expected {SCHEMA_VERSION}"
        ));
    }
    let files = top
        .get("files_scanned")
        .ok_or("missing \"files_scanned\"")?
        .as_u64(0)
        .map_err(|e| format!("{e}"))?;
    if files == 0 {
        return Err("files_scanned is 0 — the analyzer saw nothing".to_string());
    }
    let rules = top
        .get("rules")
        .ok_or("missing \"rules\"")?
        .as_array(0)
        .map_err(|e| format!("{e}"))?;
    if rules.len() != ALL_RULES.len() {
        return Err(format!(
            "rules table has {} entries, expected {}",
            rules.len(),
            ALL_RULES.len()
        ));
    }
    let total = top
        .get("total_violations")
        .ok_or("missing \"total_violations\"")?
        .as_u64(0)
        .map_err(|e| format!("{e}"))?;
    let listed = top
        .get("violations")
        .ok_or("missing \"violations\"")?
        .as_array(0)
        .map_err(|e| format!("{e}"))?
        .len() as u64;
    if total != listed {
        return Err(format!(
            "total_violations = {total} but {listed} violations listed"
        ));
    }
    for entry in top
        .get("suppressions")
        .ok_or("missing \"suppressions\"")?
        .as_array(0)
        .map_err(|e| format!("{e}"))?
    {
        let obj = entry.as_object(0).map_err(|e| format!("{e}"))?;
        let reason = obj
            .get("reason")
            .ok_or("suppression without \"reason\"")?
            .as_string(0)
            .map_err(|e| format!("{e}"))?;
        if reason.trim().is_empty() {
            return Err("suppression with an empty reason".to_string());
        }
    }
    Ok(())
}
