//! Process and thread readings from `/proc`, and the environment stamp.

use std::fs;
use std::process::Command;

/// A `/proc/self/status` field in kB (e.g. `VmHWM`), as MiB.
fn status_mib(field: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    status_mib("VmHWM:").unwrap_or(f64::NAN)
}

/// Current resident set size (`VmRSS`), MiB.
pub fn rss_mb() -> f64 {
    status_mib("VmRSS:").unwrap_or(f64::NAN)
}

/// CPU time consumed so far by thread `tid` of this process, in seconds:
/// the scheduler's nanosecond run time when the kernel exports it, else
/// user + system clock ticks.
fn thread_cpu_s(tid: &str) -> Option<f64> {
    let dir = format!("/proc/self/task/{tid}");
    if let Ok(s) = fs::read_to_string(format!("{dir}/schedstat")) {
        if let Some(ns) = s
            .split_whitespace()
            .next()
            .and_then(|x| x.parse::<f64>().ok())
        {
            return Some(ns / 1e9);
        }
    }
    let stat = fs::read_to_string(format!("{dir}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
    Some(ticks / 100.0)
}

/// Summed CPU seconds of every thread whose name starts with `prefix`.
pub fn threads_cpu_s(prefix: &str) -> f64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return f64::NAN;
    };
    let mut total = 0.0;
    for task in tasks.flatten() {
        let tid = task.file_name().to_string_lossy().into_owned();
        let comm = fs::read_to_string(format!("/proc/self/task/{tid}/comm")).unwrap_or_default();
        if comm.trim_end().starts_with(prefix) {
            total += thread_cpu_s(&tid).unwrap_or(0.0);
        }
    }
    total
}

/// CPU seconds of the calling thread.
pub fn this_thread_cpu_s() -> f64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |ns| ns / 1e9)
}

fn stdout_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// `git` confined to the working directory: a copy of the sources that is
/// not a repository must not report one that encloses it.
fn git(args: &[&str]) -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let mut cmd = Command::new("git");
    cmd.args(args);
    if let Some(parent) = cwd.parent() {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    stdout_of(&mut cmd)
}

/// Where a recorded run came from: commit, CPU model, thread count and
/// compiler, each `"unknown"` when it cannot be read.
pub fn env_stamp() -> Vec<(&'static str, String)> {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    // A run of uncommitted changes is stamped with the commit they sit on
    // plus `+dirty`.
    let commit = git(&["rev-parse", "--short=12", "HEAD"]).map_or_else(
        || "unknown".to_string(),
        |c| match git(&["status", "--porcelain"]) {
            Some(_) => format!("{c}+dirty"),
            None => c,
        },
    );
    vec![
        ("commit", commit),
        ("cpu", cpu),
        ("nproc", nproc.to_string()),
        (
            "rustc",
            stdout_of(Command::new("rustc").arg("--version"))
                .unwrap_or_else(|| "unknown".to_string()),
        ),
    ]
}
