//! Rewrites every checked paper artifact under `results/` and checks its
//! claims: `cargo run --release -p scg-bench --bin reproduce`. Prints each
//! failed claim and exits non-zero if any claim fails or any table cannot
//! be built.

use std::process::ExitCode;

use scg_bench::tables::{results_dir, TABLES};

fn main() -> ExitCode {
    let mut ok = true;
    for (id, render) in TABLES {
        let artifact = match render() {
            Ok(artifact) => artifact,
            Err(e) => {
                eprintln!("{id}: {e}");
                ok = false;
                continue;
            }
        };
        let path = results_dir().join(format!("{id}.txt"));
        if let Err(e) = std::fs::write(&path, &artifact.text) {
            eprintln!("{}: {e}", path.display());
            ok = false;
        }
        println!("{id}: {} claims checked", artifact.claims.len());
        for claim in artifact.failed() {
            eprintln!("{id}: claim fails: {}", claim.what);
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
