//! `scg-serve` — the routing daemon, runnable from the command line.
//!
//! ```text
//! scg-serve [<socket-path>] [--tcp] [--shards N]
//! ```
//!
//! Listens on a Unix-domain socket (default `/tmp/scg-serve.sock`) and,
//! with `--tcp`, additionally on an ephemeral `127.0.0.1` TCP port. The
//! binary protocol is documented in `supercayley::serve::wire`; pointing
//! `curl` at the listener scrapes `/metrics` via the HTTP fallback.
//! Runs until `SIGINT`/`SIGTERM`, then drains, joins every shard, and
//! unlinks the socket.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use supercayley::serve::{spawn, Config};

/// Set by the signal handler; polled by the main loop.
static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    // ord: SeqCst — a lone flag, contention-free; strongest order costs
    // nothing and reads clearly.
    STOP.store(true, Ordering::SeqCst);
}

// Minimal libc surface for signal installation (the daemon itself is
// socket-only; see `supercayley::serve::epoll` for the event-loop FFI).
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

fn usage() -> String {
    "usage: scg-serve [<socket-path>] [--tcp] [--shards N]\n  \
     <socket-path>  Unix-domain listener (default /tmp/scg-serve.sock)\n  \
     --tcp          also listen on an ephemeral 127.0.0.1 TCP port\n  \
     --shards N     event-loop threads (default: one per core)"
        .to_string()
}

fn parse_args() -> Result<Config, String> {
    let mut config = Config::new("/tmp/scg-serve.sock");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tcp" => config.tcp = true,
            "--shards" => {
                let n = args
                    .next()
                    .ok_or_else(|| format!("--shards needs a count\n{}", usage()))?;
                config.shards = n
                    .parse()
                    .map_err(|_| format!("bad shard count `{n}`\n{}", usage()))?;
            }
            "--help" | "-h" => return Err(usage()),
            path if !path.starts_with('-') => config.uds_path = path.into(),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    Ok(config)
}

fn run() -> Result<(), String> {
    let config = parse_args()?;
    let server = spawn(config).map_err(|e| format!("failed to start: {e}"))?;
    println!(
        "scg-serve: {} shard(s), uds {}",
        server.shards(),
        server.uds_path().display()
    );
    if let Some(addr) = server.tcp_addr() {
        println!("scg-serve: tcp {addr}");
    }
    let handler = on_signal as extern "C" fn(i32) as usize;
    // SAFETY: `on_signal` only touches an atomic, which is
    // async-signal-safe; the handler address stays valid for the
    // process lifetime.
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
    while !STOP.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
    }
    println!("scg-serve: shutting down");
    server.shutdown();
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
