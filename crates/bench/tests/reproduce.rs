//! Every checked paper artifact renders, every claim it makes holds, and
//! its text equals `results/<id>.txt` byte for byte.

use std::thread;

use scg_bench::tables::{results_dir, Render, TABLES};

/// Renders one artifact; the error names each failed claim, or the first
/// line where the text leaves `results/<id>.txt`.
fn check(id: &str, render: Render) -> Result<(), String> {
    let artifact = render().map_err(|e| format!("{id}: {e}"))?;
    let failed: Vec<&str> = artifact.failed().map(|c| c.what.as_str()).collect();
    if !failed.is_empty() {
        return Err(format!("{id}: claims fail:\n  {}", failed.join("\n  ")));
    }
    let path = results_dir().join(format!("{id}.txt"));
    let want = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    if artifact.text == want {
        return Ok(());
    }
    let (got, want): (Vec<&str>, Vec<&str>) =
        (artifact.text.lines().collect(), want.lines().collect());
    let i = (0..got.len().max(want.len()))
        .find(|&i| got.get(i) != want.get(i))
        .unwrap_or(got.len());
    Err(format!(
        "{id}: text differs from results/{id}.txt at line {}:\n  rendered: {:?}\n  results/: {:?}\n\
         (if intended, rerun `cargo run --release -p scg-bench --bin reproduce`)",
        i + 1,
        got.get(i).unwrap_or(&"<end of text>"),
        want.get(i).unwrap_or(&"<end of file>"),
    ))
}

/// Every table but `tab_mnb`, rendered in parallel.
#[test]
fn tables_reproduce() {
    let errors: Vec<String> = thread::scope(|s| {
        let runs: Vec<_> = TABLES
            .iter()
            .filter(|(id, _)| *id != "tab_mnb")
            .map(|&(id, render)| s.spawn(move || check(id, render)))
            .collect();
        let results = runs
            .into_iter()
            .map(|run| run.join().expect("table panicked"));
        results.filter_map(Result::err).collect()
    });
    assert!(errors.is_empty(), "{}", errors.join("\n\n"));
}

/// Release only (CI runs it with `--ignored`): the SDC word search on
/// Complete-RS(2,2) spends its whole 500 M budget, minutes in a debug build.
#[test]
#[ignore = "release only"]
fn tab_mnb_reproduces() {
    let (_, render) = TABLES
        .iter()
        .find(|(id, _)| *id == "tab_mnb")
        .expect("registered");
    check("tab_mnb", *render).unwrap_or_else(|e| panic!("{e}"));
}
