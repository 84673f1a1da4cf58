//! The incremental analysis cache: per-file results keyed by content hash.
//!
//! The CI deny gate runs on every push; almost every push touches a
//! handful of files. The cache stores, per workspace-relative path, the
//! FNV-1a hash of the file's bytes plus everything the per-file pass
//! produced — resolved diagnostics and call-graph function summaries — so
//! an unchanged file costs one hash instead of a lex + tree + rules +
//! summary pass. The workspace-level SCG008 reachability is recomputed on
//! every run from the (cached or fresh) summaries: it is cross-file by
//! nature and cheap next to lexing.
//!
//! Serialization rides the shared [`scg_obs::json`] model — the same
//! hand-rolled parser the report and the bench artifacts use. A cache
//! whose schema tag does not match, or that fails to parse or decode in
//! any way, is silently discarded: a stale or corrupt cache must never be
//! able to change analyzer output, only its speed.

use std::collections::BTreeMap;
use std::path::Path;

use scg_obs::json::{parse, Json};

use crate::callgraph::{CallSite, Callee, FnSummary, PanicSite};
use crate::driver::Diagnostic;
use crate::rules::RuleId;

/// Schema tag; bump on any layout change so stale caches self-discard.
pub const CACHE_SCHEMA: &str = "scg-analyze-cache/v2";

/// Everything the per-file pass produced for one file.
#[derive(Debug, Clone)]
pub struct FileEntry {
    /// FNV-1a hash of the file's bytes.
    pub hash: u64,
    /// Resolved per-file diagnostics (suppression state included;
    /// SCG008 entries are workspace-level and never cached).
    pub diagnostics: Vec<Diagnostic>,
    /// Call-graph summaries of the file's functions.
    pub summaries: Vec<FnSummary>,
}

/// The cache: workspace-relative path → per-file entry.
#[derive(Debug, Default)]
pub struct Cache {
    /// See [`FileEntry`].
    pub entries: BTreeMap<String, FileEntry>,
}

/// 64-bit FNV-1a over the file's bytes.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Loads a cache file; any parse/schema/decoding problem yields `None`
/// (the analyzer then recomputes everything — correctness never depends
/// on the cache).
#[must_use]
pub fn load(path: &Path) -> Option<Cache> {
    let text = std::fs::read_to_string(path).ok()?;
    let top = parse(&text).ok()?;
    let obj = top.as_object(0).ok()?;
    if obj.get("schema")?.as_string(0).ok()? != CACHE_SCHEMA {
        return None;
    }
    let mut entries = BTreeMap::new();
    for (file, entry) in obj.get("files")?.as_object(0).ok()? {
        entries.insert(file.clone(), decode_entry(entry)?);
    }
    Some(Cache { entries })
}

/// Saves the cache.
///
/// # Errors
///
/// Returns a message when the file cannot be written.
pub fn save(path: &Path, cache: &Cache) -> Result<(), String> {
    let files: BTreeMap<String, Json> = cache
        .entries
        .iter()
        .map(|(file, e)| (file.clone(), encode_entry(e)))
        .collect();
    let top = Json::Object(BTreeMap::from([
        ("schema".to_string(), Json::String(CACHE_SCHEMA.to_string())),
        ("files".to_string(), Json::Object(files)),
    ]));
    std::fs::write(path, top.encode()).map_err(|e| format!("{}: {e}", path.display()))
}

fn s(v: &str) -> Json {
    Json::String(v.to_string())
}

fn n(v: u32) -> Json {
    Json::Int(i128::from(v))
}

fn encode_entry(e: &FileEntry) -> Json {
    Json::Object(BTreeMap::from([
        ("hash".to_string(), Json::Int(i128::from(e.hash))),
        (
            "diagnostics".to_string(),
            Json::Array(e.diagnostics.iter().map(encode_diag).collect()),
        ),
        (
            "summaries".to_string(),
            Json::Array(e.summaries.iter().map(encode_summary).collect()),
        ),
    ]))
}

fn decode_entry(v: &Json) -> Option<FileEntry> {
    let obj = v.as_object(0).ok()?;
    let hash = u64::try_from(match obj.get("hash")? {
        Json::Int(i) => *i,
        _ => return None,
    })
    .ok()?;
    let mut diagnostics = Vec::new();
    for d in obj.get("diagnostics")?.as_array(0).ok()? {
        diagnostics.push(decode_diag(d)?);
    }
    let mut summaries = Vec::new();
    for sm in obj.get("summaries")?.as_array(0).ok()? {
        summaries.push(decode_summary(sm)?);
    }
    Some(FileEntry {
        hash,
        diagnostics,
        summaries,
    })
}

fn encode_diag(d: &Diagnostic) -> Json {
    let mut obj = BTreeMap::from([
        ("rule".to_string(), s(d.rule.code())),
        ("file".to_string(), s(&d.file)),
        ("line".to_string(), n(d.line)),
        ("col".to_string(), n(d.col)),
        ("message".to_string(), s(&d.message)),
    ]);
    if let Some(reason) = &d.suppressed {
        obj.insert("suppressed".to_string(), s(reason));
    }
    Json::Object(obj)
}

fn decode_diag(v: &Json) -> Option<Diagnostic> {
    let obj = v.as_object(0).ok()?;
    Some(Diagnostic {
        rule: RuleId::from_code(obj.get("rule")?.as_string(0).ok()?)?,
        file: obj.get("file")?.as_string(0).ok()?.to_string(),
        line: u32::try_from(obj.get("line")?.as_u64(0).ok()?).ok()?,
        col: u32::try_from(obj.get("col")?.as_u64(0).ok()?).ok()?,
        message: obj.get("message")?.as_string(0).ok()?.to_string(),
        suppressed: match obj.get("suppressed") {
            Some(r) => Some(r.as_string(0).ok()?.to_string()),
            None => None,
        },
    })
}

fn encode_summary(f: &FnSummary) -> Json {
    let mut obj = BTreeMap::from([
        ("crate".to_string(), s(&f.krate)),
        ("file".to_string(), s(&f.file)),
        ("name".to_string(), s(&f.name)),
        ("pub".to_string(), Json::Int(i128::from(u8::from(f.is_pub)))),
        ("line".to_string(), n(f.line)),
        ("col".to_string(), n(f.col)),
        (
            "panics".to_string(),
            Json::Array(f.panics.iter().map(encode_panic).collect()),
        ),
        (
            "calls".to_string(),
            Json::Array(f.calls.iter().map(encode_call).collect()),
        ),
    ]);
    if let Some(t) = &f.impl_type {
        obj.insert("impl".to_string(), s(t));
    }
    Json::Object(obj)
}

fn decode_summary(v: &Json) -> Option<FnSummary> {
    let obj = v.as_object(0).ok()?;
    let mut panics = Vec::new();
    for p in obj.get("panics")?.as_array(0).ok()? {
        panics.push(decode_panic(p)?);
    }
    let mut calls = Vec::new();
    for c in obj.get("calls")?.as_array(0).ok()? {
        calls.push(decode_call(c)?);
    }
    Some(FnSummary {
        krate: obj.get("crate")?.as_string(0).ok()?.to_string(),
        file: obj.get("file")?.as_string(0).ok()?.to_string(),
        name: obj.get("name")?.as_string(0).ok()?.to_string(),
        impl_type: match obj.get("impl") {
            Some(t) => Some(t.as_string(0).ok()?.to_string()),
            None => None,
        },
        is_pub: obj.get("pub")?.as_u64(0).ok()? != 0,
        line: u32::try_from(obj.get("line")?.as_u64(0).ok()?).ok()?,
        col: u32::try_from(obj.get("col")?.as_u64(0).ok()?).ok()?,
        panics,
        calls,
    })
}

fn encode_panic(p: &PanicSite) -> Json {
    Json::Object(BTreeMap::from([
        ("line".to_string(), n(p.line)),
        ("col".to_string(), n(p.col)),
        ("what".to_string(), s(&p.what)),
        (
            "audited".to_string(),
            Json::Int(i128::from(u8::from(p.audited))),
        ),
    ]))
}

fn decode_panic(v: &Json) -> Option<PanicSite> {
    let obj = v.as_object(0).ok()?;
    Some(PanicSite {
        line: u32::try_from(obj.get("line")?.as_u64(0).ok()?).ok()?,
        col: u32::try_from(obj.get("col")?.as_u64(0).ok()?).ok()?,
        what: obj.get("what")?.as_string(0).ok()?.to_string(),
        audited: obj.get("audited")?.as_u64(0).ok()? != 0,
    })
}

fn encode_call(c: &CallSite) -> Json {
    let mut obj = BTreeMap::new();
    match &c.callee {
        Callee::Bare(name) => {
            obj.insert("kind".to_string(), s("bare"));
            obj.insert("name".to_string(), s(name));
        }
        Callee::Typed(ty, name) => {
            obj.insert("kind".to_string(), s("typed"));
            obj.insert("type".to_string(), s(ty));
            obj.insert("name".to_string(), s(name));
        }
        Callee::Cratewide(k, ty, name) => {
            obj.insert("kind".to_string(), s("crate"));
            obj.insert("crate".to_string(), s(k));
            if let Some(t) = ty {
                obj.insert("type".to_string(), s(t));
            }
            obj.insert("name".to_string(), s(name));
        }
        Callee::Method(name) => {
            obj.insert("kind".to_string(), s("method"));
            obj.insert("name".to_string(), s(name));
        }
    }
    Json::Object(obj)
}

fn decode_call(v: &Json) -> Option<CallSite> {
    let obj = v.as_object(0).ok()?;
    let name = obj.get("name")?.as_string(0).ok()?.to_string();
    let ty = || -> Option<String> {
        obj.get("type")
            .and_then(|t| t.as_string(0).ok())
            .map(str::to_string)
    };
    let callee = match obj.get("kind")?.as_string(0).ok()? {
        "bare" => Callee::Bare(name),
        "typed" => Callee::Typed(ty()?, name),
        "crate" => Callee::Cratewide(obj.get("crate")?.as_string(0).ok()?.to_string(), ty(), name),
        "method" => Callee::Method(name),
        _ => return None,
    };
    Some(CallSite { callee })
}
