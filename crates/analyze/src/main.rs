//! The `scg-analyze` binary: the workspace lint gate.
//!
//! ```text
//! scg-analyze [--root <dir>] [--deny] [--json <path>] [--cache <path>] [--verbose]
//! scg-analyze --list-rules
//! scg-analyze --validate <report.json>
//! ```
//!
//! Without `--deny` the analyzer reports and exits 0 (warn mode); with
//! `--deny` any unsuppressed violation (including suppression-hygiene
//! findings) exits nonzero — that is the CI contract.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::path::PathBuf;
use std::process::ExitCode;

use scg_analyze::driver::analyze_workspace_cached;
use scg_analyze::report::{render_rules, render_text, to_json, validate_report};

struct Args {
    root: PathBuf,
    deny: bool,
    json: Option<PathBuf>,
    cache: Option<PathBuf>,
    verbose: bool,
    list_rules: bool,
    validate: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        deny: false,
        json: None,
        cache: None,
        verbose: false,
        list_rules: false,
        validate: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a directory")?);
            }
            "--deny" => args.deny = true,
            "--json" => {
                args.json = Some(PathBuf::from(it.next().ok_or("--json needs a path")?));
            }
            "--cache" => {
                args.cache = Some(PathBuf::from(it.next().ok_or("--cache needs a path")?));
            }
            "--verbose" => args.verbose = true,
            "--list-rules" => args.list_rules = true,
            "--validate" => {
                args.validate = Some(PathBuf::from(it.next().ok_or("--validate needs a path")?));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    if args.list_rules {
        print!("{}", render_rules());
        return Ok(true);
    }
    if let Some(path) = &args.validate {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        validate_report(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("{}: ok ({} bytes)", path.display(), text.len());
        return Ok(true);
    }
    let analysis = analyze_workspace_cached(&args.root, args.cache.as_deref())?;
    print!("{}", render_text(&analysis, args.verbose));
    if let Some(path) = &args.json {
        let text = to_json(&analysis).encode();
        // The artifact must survive its own parser before it is written.
        validate_report(&text).map_err(|e| format!("internal: emitted report invalid: {e}"))?;
        std::fs::write(path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("report written to {}", path.display());
    }
    let clean = analysis.active().next().is_none();
    if !clean && args.deny {
        eprintln!("scg-analyze: --deny: failing on unsuppressed violations");
        return Ok(false);
    }
    Ok(true)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("scg-analyze: {msg}");
            ExitCode::FAILURE
        }
    }
}
