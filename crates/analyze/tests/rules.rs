//! Seeded-violation fixtures: one deliberately bad source file that trips
//! every rule, with the exact `file:line:col` spans asserted — if a rule
//! stops firing (or fires somewhere else), this is the test that catches
//! it. The rendered diagnostics are also pinned to a golden file with the
//! same `UPDATE_GOLDEN=1` convention as `tests/observability.rs`.

use std::collections::{BTreeMap, BTreeSet};

use scg_analyze::callgraph::{reachability, PanicFinding, DEFAULT_ENTRIES};
use scg_analyze::driver::{analyze_source, Analysis, Diagnostic};
use scg_analyze::report::{render_text, validate_report};
use scg_analyze::rules::{FileInfo, RuleId};

/// A fixture that seeds every rule exactly where the line numbers say.
const FIXTURE: &str = r#"//! Fixture.

pub fn one(v: Vec<u32>) -> u32 {
    let first = v.first().unwrap();
    if *first > 9 {
        panic!("nine");
    }
    *first
}

pub fn two(net: &Net) -> Graph {
    net.to_graph()
}

pub fn three(x: usize) -> u8 {
    x as u8
}

pub fn four(flag: &AtomicBool) -> bool {
    flag.load(Ordering::Relaxed)
}

pub fn five() {
    let _ = std::fs::remove_file("x");
}

pub fn allowed(x: usize) -> u8 {
    x as u8 // scg-allow(SCG003): fixture-checked narrowing
}

pub fn empty_reason(x: usize) -> u8 {
    x as u8 // scg-allow(SCG003):
}

pub fn unused() {
    // scg-allow(SCG001): nothing here panics
    let y = 1 + 1;
    assert_eq!(y, 2);
}

#[cfg(test)]
mod tests {
    #[test]
    fn in_tests_anything_goes() {
        let v: Vec<u32> = vec![1];
        let _ = v.first().unwrap();
        panic!("fine in tests");
    }
}
"#;

fn analyze_fixture() -> Analysis {
    let info = FileInfo {
        rel_path: "crates/perm/src/fixture.rs".to_string(),
        crate_name: "perm".to_string(),
    };
    let mut analysis = Analysis::default();
    analyze_source(FIXTURE, &info, &mut analysis);
    analysis
}

fn spans_of(analysis: &Analysis, rule: RuleId) -> Vec<(u32, u32, bool)> {
    analysis
        .diagnostics
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| (d.line, d.col, d.suppressed.is_some()))
        .collect()
}

#[test]
fn every_rule_fires_at_the_seeded_span() {
    let analysis = analyze_fixture();
    // SCG001: `unwrap()` on line 4, `panic!` on line 6 — and *not* the
    // unwrap/panic inside `#[cfg(test)] mod tests` (lines 41+).
    assert_eq!(
        spans_of(&analysis, RuleId::Scg001),
        vec![(4, 27, false), (6, 9, false)]
    );
    // SCG002: the `.to_graph()` cache bypass on line 12.
    assert_eq!(spans_of(&analysis, RuleId::Scg002), vec![(12, 9, false)]);
    // SCG003 in a perm-crate path: the bare cast (line 16), the justified
    // suppression (line 28, suppressed), and the empty-reason one (line 32,
    // NOT suppressed — an empty reason does not count).
    assert_eq!(
        spans_of(&analysis, RuleId::Scg003),
        vec![(16, 7, false), (28, 7, true), (32, 7, false)]
    );
    // SCG004: Relaxed load with no `// ord:` justification, line 20.
    assert_eq!(spans_of(&analysis, RuleId::Scg004), vec![(20, 25, false)]);
    // SCG005: the `let _ =` discard on line 24.
    assert_eq!(spans_of(&analysis, RuleId::Scg005), vec![(24, 5, false)]);
    // SCG000 hygiene: the reasonless allow on line 32 and the unused allow
    // on line 36.
    assert_eq!(
        spans_of(&analysis, RuleId::Scg000),
        vec![(32, 13, false), (36, 5, false)]
    );
    // Nothing fires past the `#[cfg(test)]` module boundary.
    assert!(analysis.diagnostics.iter().all(|d| d.line < 40));
}

#[test]
fn active_count_excludes_only_justified_suppressions() {
    let analysis = analyze_fixture();
    let active: Vec<&Diagnostic> = analysis.active().collect();
    // 10 findings total, exactly 1 justified suppression.
    assert_eq!(analysis.diagnostics.len(), 10);
    assert_eq!(active.len(), 9);
    assert!(active.iter().all(|d| d.suppressed.is_none()));
}

#[test]
fn scg003_is_scoped_to_perm_core_graph() {
    // The same cast in a comm-crate path must not trip SCG003.
    let info = FileInfo {
        rel_path: "crates/comm/src/fixture.rs".to_string(),
        crate_name: "comm".to_string(),
    };
    let mut analysis = Analysis::default();
    analyze_source("pub fn f(x: usize) -> u8 { x as u8 }", &info, &mut analysis);
    assert_eq!(analysis.count(RuleId::Scg003), 0);
}

#[test]
fn scg002_exempts_the_blessed_topology_files() {
    let src = "pub fn f(net: &Net) -> Graph { net.to_graph() }";
    for (path, expected) in [
        ("crates/core/src/topology.rs", 0),
        ("crates/core/src/network.rs", 0),
        ("crates/core/src/routing/plan.rs", 1),
        ("crates/comm/src/pairing.rs", 1),
    ] {
        let info = FileInfo {
            rel_path: path.to_string(),
            crate_name: "core".to_string(),
        };
        let mut analysis = Analysis::default();
        analyze_source(src, &info, &mut analysis);
        assert_eq!(analysis.count(RuleId::Scg002), expected, "{path}");
    }
}

#[test]
fn scg004_accepts_an_adjacent_ord_justification() {
    let src = "pub fn f(a: &AtomicU64) -> u64 {\n    a.load(Ordering::Relaxed) // ord: Relaxed — snapshot only\n}\n";
    let info = FileInfo {
        rel_path: "crates/obs/src/m.rs".to_string(),
        crate_name: "obs".to_string(),
    };
    let mut analysis = Analysis::default();
    analyze_source(src, &info, &mut analysis);
    assert_eq!(analysis.count(RuleId::Scg004), 0);
}

/// The rendered diagnostics for both fixtures, byte-for-byte. Any change
/// to rule messages, span formatting, or ordering shows up as a golden
/// diff.
#[test]
fn fixture_diagnostics_match_golden() {
    let actual = format!(
        "{}----\n{}",
        render_text(&analyze_fixture(), true),
        render_text(&analyze_serve_fixture(), true)
    );
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/diagnostics.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &actual).expect("golden path writable");
    }
    let golden = include_str!("golden/diagnostics.txt");
    assert_eq!(
        actual, golden,
        "rerun with UPDATE_GOLDEN=1 if the change is intended"
    );
}

/// The JSON report for the fixture passes the same validator CI runs on
/// the workspace report.
#[test]
fn fixture_json_report_validates() {
    let analysis = analyze_fixture();
    let text = scg_analyze::report::to_json(&analysis).encode();
    validate_report(&text).expect("fixture report validates");
}

/// A serve-crate fixture seeding the flow rules: unsafe blocks without
/// `// SAFETY:` (SCG006), discarded extern results (SCG007), a panic
/// reachable from a wire-decode entry (SCG008), a blocking call under a
/// live lock guard (SCG009), and a never-read `_`-binding (SCG005).
const SERVE_FIXTURE: &str = r#"//! Serve-side fixture.

extern "C" {
    fn ffi_close(fd: i32) -> i32;
}

pub fn decode_request(buf: &[u8]) -> u32 {
    frame_len(buf)
}

fn frame_len(buf: &[u8]) -> u32 {
    assert!(buf.len() >= 4, "short frame");
    u32::from(buf[0])
}

pub fn discards(fd: i32) {
    let _poll_result = unsafe { ffi_close(fd) };
    unsafe { ffi_close(fd) };
}

pub fn checked(fd: i32) -> i32 {
    // SAFETY: fd is owned by the caller.
    let r = unsafe { ffi_close(fd) };
    r
}

pub fn blocking(m: &std::sync::Mutex<u32>, d: std::time::Duration) -> u32 {
    // scg-allow(SCG001): fixture lock can only be poisoned by a test panic
    let guard = m.lock().expect("lock");
    std::thread::sleep(d);
    let v = *guard;
    drop(guard);
    std::thread::sleep(d);
    v
}
"#;

fn analyze_serve_fixture() -> Analysis {
    let info = FileInfo {
        rel_path: "crates/serve/src/wire.rs".to_string(),
        crate_name: "serve".to_string(),
    };
    scg_analyze::driver::analyze_sources(&[(info, SERVE_FIXTURE)])
}

#[test]
fn scg005_flags_never_read_underscore_bindings() {
    let analysis = analyze_serve_fixture();
    // `_poll_result` on line 17 is bound and never read again (the span
    // anchors at the `let`).
    assert_eq!(spans_of(&analysis, RuleId::Scg005), vec![(17, 5, false)]);
}

#[test]
fn scg005_spares_bindings_that_are_read() {
    let src = "pub fn f() -> u32 {\n    let _kept = 1;\n    _kept + 1\n}\n";
    let info = FileInfo {
        rel_path: "crates/perm/src/x.rs".to_string(),
        crate_name: "perm".to_string(),
    };
    let mut analysis = Analysis::default();
    analyze_source(src, &info, &mut analysis);
    assert_eq!(analysis.count(RuleId::Scg005), 0);
}

#[test]
fn scg006_fires_on_unsafe_without_adjacent_safety_comment() {
    let analysis = analyze_serve_fixture();
    // Line 17 (`let _poll_result = unsafe { .. }`) and line 18 (the
    // statement-position block) both lack a `// SAFETY:`; line 23 has one
    // on the contiguous comment line above and stays clean.
    assert_eq!(
        spans_of(&analysis, RuleId::Scg006),
        vec![(17, 24, false), (18, 5, false)]
    );
}

#[test]
fn scg006_accepts_same_line_safety_comment() {
    let src = "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p } // SAFETY: caller contract\n}\n";
    let info = FileInfo {
        rel_path: "crates/perm/src/x.rs".to_string(),
        crate_name: "perm".to_string(),
    };
    let mut analysis = Analysis::default();
    analyze_source(src, &info, &mut analysis);
    assert_eq!(analysis.count(RuleId::Scg006), 0);
}

#[test]
fn scg007_fires_only_on_discarded_extern_results() {
    let analysis = analyze_serve_fixture();
    // Line 18 discards `ffi_close`'s return; lines 17 and 23 bind it.
    assert_eq!(spans_of(&analysis, RuleId::Scg007), vec![(18, 14, false)]);
}

#[test]
fn scg008_reports_the_panic_chain_from_the_entry() {
    let analysis = analyze_serve_fixture();
    // The finding anchors at the entry fn, with the call chain and the
    // panic site spelled out in the message.
    assert_eq!(spans_of(&analysis, RuleId::Scg008), vec![(7, 8, false)]);
    let d = analysis
        .diagnostics
        .iter()
        .find(|d| d.rule == RuleId::Scg008)
        .expect("SCG008 diagnostic");
    assert_eq!(
        d.message,
        "panic reachable from entry `decode_request`: decode_request → frame_len — \
         assert! at crates/serve/src/wire.rs:12"
    );
}

#[test]
fn scg008_audit_mark_silences_the_chain_and_counts_as_used() {
    let audited = SERVE_FIXTURE.replace(
        "    assert!(buf.len() >= 4, \"short frame\");",
        "    // scg-allow(SCG008): length is pre-checked by peek_frame\n    \
         assert!(buf.len() >= 4, \"short frame\");",
    );
    let info = FileInfo {
        rel_path: "crates/serve/src/wire.rs".to_string(),
        crate_name: "serve".to_string(),
    };
    let analysis = scg_analyze::driver::analyze_sources(&[(info, &audited)]);
    assert_eq!(analysis.count(RuleId::Scg008), 0);
    // The audit mark was consumed by the panic site — no SCG000 hygiene
    // finding for an unused allow.
    assert_eq!(analysis.count(RuleId::Scg000), 0);
}

#[test]
fn scg009_fires_between_guard_acquisition_and_drop() {
    let analysis = analyze_serve_fixture();
    // Line 30 sleeps while `guard` (line 29) is live; line 33, after
    // `drop(guard)`, is clean.
    assert_eq!(spans_of(&analysis, RuleId::Scg009), vec![(30, 18, false)]);
    let d = analysis
        .diagnostics
        .iter()
        .find(|d| d.rule == RuleId::Scg009)
        .expect("SCG009 diagnostic");
    assert!(d
        .message
        .contains("`sleep()` while lock guard `guard` is live"));
}

#[test]
fn scg009_is_scoped_to_the_serve_crate() {
    let src = "pub fn f(m: &std::sync::Mutex<u32>) -> u32 {\n    \
               // scg-allow(SCG001): fixture\n    \
               let g = m.lock().expect(\"l\");\n    \
               std::thread::sleep(std::time::Duration::from_millis(1));\n    *g\n}\n";
    let info = FileInfo {
        rel_path: "crates/graph/src/x.rs".to_string(),
        crate_name: "graph".to_string(),
    };
    let mut analysis = Analysis::default();
    analyze_source(src, &info, &mut analysis);
    assert_eq!(analysis.count(RuleId::Scg009), 0);
}

/// SCG008 over a serve entry calling `r.finish()` on its own `Reader`,
/// with a panicking `finish` declared as `{vis}fn finish` inside `{header}`
/// in `scg-core`, which serve depends on.
fn cross_crate_finish(header: &str, vis: &str) -> Vec<PanicFinding> {
    let core = format!(
        "pub struct Bfs;\n\n{header} {{\n    {vis}fn finish(&self) -> u32 {{\n        \
         panic!(\"core\")\n    }}\n}}\n"
    );
    let serve = "pub struct Reader;\n\nimpl Reader {\n    fn finish(&self) -> u32 {\n        \
                 0\n    }\n}\n\npub fn decode_request(r: &Reader) -> u32 {\n    r.finish()\n}\n";
    let mut analysis = Analysis::default();
    for (path, krate, src) in [
        ("crates/core/src/routing/fault.rs", "core", core.as_str()),
        ("crates/serve/src/wire.rs", "serve", serve),
    ] {
        let info = FileInfo {
            rel_path: path.to_string(),
            crate_name: krate.to_string(),
        };
        analyze_source(src, &info, &mut analysis);
    }
    let deps = BTreeMap::from([
        ("core".to_string(), BTreeSet::new()),
        ("serve".to_string(), BTreeSet::from(["core".to_string()])),
    ]);
    reachability(&analysis.summaries, &deps, &DEFAULT_ENTRIES)
}

#[test]
fn scg008_method_calls_reach_only_methods_other_crates_can_call() {
    // Private and crate-restricted methods of a dependency are not what a
    // `.finish()` in serve calls.
    assert!(cross_crate_finish("impl Bfs", "").is_empty());
    assert!(cross_crate_finish("impl Bfs", "pub(crate) ").is_empty());
    // `pub` methods and trait-impl methods are.
    let expected = "panic reachable from entry `decode_request`: decode_request → \
                    Bfs::finish — panic! at crates/core/src/routing/fault.rs:5";
    for (header, vis) in [("impl Bfs", "pub "), ("impl Finish for Bfs", "")] {
        let findings = cross_crate_finish(header, vis);
        let messages: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
        assert_eq!(messages, vec![expected], "{header} {{ {vis}fn finish }}");
    }
}
