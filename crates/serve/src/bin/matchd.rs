//! `matchd` — the real-time cross-online-matching daemon.
//!
//! ```text
//! cargo run -p com-serve --release --bin matchd -- \
//!     [--addr HOST:PORT] [--addr-file FILE] [--queue N] \
//!     [--shards N] [--once] [--record DIR] [--no-telemetry]
//! ```
//!
//! Listens for newline-delimited-JSON sessions (see
//! `com_serve::protocol`): a session opens one `MatchSession` with
//! `hello` (matcher spec, seed, world config, platform roster), streams
//! `worker`/`request`/`tick` events in time order, and closes with
//! `shutdown` to receive the audited final report (`bye`). A connection
//! may drive one bare session, or multiplex many logical sessions by
//! wrapping every message in the `{"sid":…,"msg":…}` envelope. Sessions
//! execute on a pool of shared-nothing shard threads
//! (`com_serve::shard`), placed by a stable hash of the session key
//! (`hello.origin` is accepted and ignored). A `hello`
//! carrying `"frame": "binary"` switches the connection to
//! length-prefixed binary frames (see `com_serve::framing`) after the
//! NDJSON `welcome`; no flag is needed — framing is negotiated in-band
//! and the reader understands both at all times.
//!
//! * `--addr` — bind address (default `127.0.0.1:7878`); port `0` picks
//!   an ephemeral port.
//! * `--addr-file` — write the bound address to FILE once listening
//!   (how scripts discover an ephemeral port).
//! * `--queue` — ingress queue capacity per shard (default 1024). Only
//!   sizes a buffer: when it is full the connection's reader waits and
//!   TCP pushes back on the client; nothing is dropped.
//! * `--shards` — shard worker threads (default 1). Sessions are
//!   identical at any shard count; only parallelism changes.
//! * `--once` — exit once at least one connection was accepted and all
//!   accepted connections have finished (CI smoke runs).
//! * `--record` — flight recorder: write one trace per logical session
//!   (`session-<sid>-<matcher>-<seed>.jsonl`, schema in
//!   `com_serve::trace`) into DIR; replay later with `matchreplay`.
//! * `--no-telemetry` — do not install the per-shard `com-obs`
//!   collector; `stats_deep` then answers with empty phase tables.
//!   Decisions are identical either way (telemetry is observer-only).
//!
//! Without `--once` the daemon runs until killed; every in-flight
//! session is still drained and audited on client disconnect.

use com_serve::{serve, ServerConfig};

/// Write the bound address atomically: scripts poll `--addr-file` and
/// must never observe a half-written address, so the text lands in a
/// sibling temp file first and renames into place (rename within one
/// directory is atomic on POSIX).
fn write_addr_file(path: &str, addr: &str) -> std::io::Result<()> {
    let target = std::path::Path::new(path);
    let tmp = match target.file_name() {
        Some(name) => target.with_file_name(format!(".{}.tmp", name.to_string_lossy())),
        None => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "addr-file path has no file name",
            ))
        }
    };
    std::fs::write(&tmp, addr)?;
    std::fs::rename(&tmp, target)
}

fn usage() -> ! {
    eprintln!(
        "usage: matchd [--addr HOST:PORT] [--addr-file FILE] [--queue N] \
         [--shards N] [--once] [--record DIR] [--no-telemetry]"
    );
    std::process::exit(2);
}

fn main() {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7878".into(),
        ..ServerConfig::default()
    };
    let mut addr_file: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut next = |flag: &str| {
            argv.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => config.addr = next("--addr"),
            "--addr-file" => addr_file = Some(next("--addr-file")),
            "--queue" => {
                config.queue_capacity = next("--queue").parse().unwrap_or_else(|_| {
                    eprintln!("--queue must be a positive integer");
                    usage()
                })
            }
            "--shards" => {
                config.shards = next("--shards").parse().unwrap_or_else(|_| {
                    eprintln!("--shards must be a positive integer");
                    usage()
                });
                if config.shards == 0 {
                    eprintln!("--shards must be a positive integer");
                    usage()
                }
            }
            "--once" => config.once = true,
            "--record" => config.record_dir = Some(next("--record").into()),
            "--no-telemetry" => config.telemetry = false,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }

    let once = config.once;
    let shards = config.shards.max(1);
    if let Some(dir) = &config.record_dir {
        println!("matchd recording session traces to {}", dir.display());
    }
    let handle = serve(config).unwrap_or_else(|e| {
        eprintln!("matchd: cannot bind: {e}");
        std::process::exit(1);
    });
    println!("matchd listening on {} ({shards} shard(s))", handle.addr());
    if let Some(path) = addr_file {
        if let Err(e) = write_addr_file(&path, &handle.addr().to_string()) {
            eprintln!("matchd: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }

    if once {
        handle.join();
    } else {
        // Serve until killed. The accept thread owns all the work; this
        // thread just keeps the handle alive.
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
}
