//! `alae-serve` — serve a persisted ALAE index over TCP (and HTTP).
//!
//! ```text
//! alae-serve --index db.alae [--addr 127.0.0.1:7878] [--http 127.0.0.1:7879]
//!            [--workers 2] [--max-deadline-ms N] [--max-top-k N]
//!            [--max-work-budget N] [--trace-log FILE]
//!            [--fairness-rate N] [--fairness-burst N] [--max-concurrent-per-peer N]
//!            [--max-connections N] [--idle-timeout-ms N] [--max-requests-per-conn N]
//!            [--trust-forwarded-for] [--drain-deadline-ms N] [--drain-linger-ms N]
//! ```
//!
//! The index file comes from [`IndexedDatabase::save`]; opening it maps the
//! file read-only and skips the suffix-array build entirely, so start-up is
//! I/O-bound, not CPU-bound.  Clients connect with [`alae::client::Client`]
//! or anything speaking the [`alae::wire`] frame protocol.
//!
//! With `--http HOST:PORT` the server also answers `GET /metrics`
//! (Prometheus text), `GET /healthz`, `GET /debug/last-queries`,
//! `POST /search` and the admin routes `POST /admin/reload` /
//! `POST /admin/drain` on a second listener — see `docs/metrics.md` and
//! `docs/operations.md`.
//!
//! Signals (a watcher thread polls hand-rolled flags every 100 ms):
//!
//! * `SIGHUP` — hot-reload the index from `--index` (validated before
//!   the epoch flips; in-flight queries finish on the old index).
//! * `SIGTERM` / `SIGINT` — graceful drain: readiness flips off, new
//!   queries are refused, in-flight queries finish (bounded by
//!   `--drain-deadline-ms`, default 30 000), the HTTP front stays up
//!   for `--drain-linger-ms` (default 0) so one final scrape can read
//!   `alae_drain_seconds`, then the process exits 0.

use alae::search::IndexedDatabase;
use alae_server::{signals, Server, ServerConfig};
use std::process::ExitCode;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("alae-serve: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let mut index_path: Option<String> = None;
    let mut addr = String::from("127.0.0.1:7878");
    let mut http_addr: Option<String> = None;
    let mut trace_log: Option<String> = None;
    let mut drain_deadline = Duration::from_secs(30);
    let mut drain_linger = Duration::ZERO;
    let mut config = ServerConfig::default();

    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--index" => index_path = Some(value("--index")?),
            "--addr" => addr = value("--addr")?,
            "--http" => http_addr = Some(value("--http")?),
            "--trace-log" => trace_log = Some(value("--trace-log")?),
            "--workers" => {
                config.workers = parse(&value("--workers")?, "--workers")?;
            }
            "--max-pending" => {
                config.max_pending = parse(&value("--max-pending")?, "--max-pending")?;
            }
            "--max-deadline-ms" => {
                let ms: u64 = parse(&value("--max-deadline-ms")?, "--max-deadline-ms")?;
                config.max_deadline = Some(Duration::from_millis(ms));
            }
            "--max-top-k" => {
                config.max_top_k = Some(parse(&value("--max-top-k")?, "--max-top-k")?);
            }
            "--max-work-budget" => {
                config.max_work_budget =
                    Some(parse(&value("--max-work-budget")?, "--max-work-budget")?);
            }
            "--trace-capacity" => {
                config.trace_capacity = parse(&value("--trace-capacity")?, "--trace-capacity")?;
            }
            "--fairness-rate" => {
                config.fairness.rate_per_sec =
                    parse(&value("--fairness-rate")?, "--fairness-rate")?;
            }
            "--fairness-burst" => {
                config.fairness.burst = parse(&value("--fairness-burst")?, "--fairness-burst")?;
            }
            "--max-concurrent-per-peer" => {
                config.fairness.max_concurrent = parse(
                    &value("--max-concurrent-per-peer")?,
                    "--max-concurrent-per-peer",
                )?;
            }
            "--max-connections" => {
                config.max_connections = parse(&value("--max-connections")?, "--max-connections")?;
            }
            "--idle-timeout-ms" => {
                let ms: u64 = parse(&value("--idle-timeout-ms")?, "--idle-timeout-ms")?;
                config.idle_timeout = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--max-requests-per-conn" => {
                config.max_requests_per_conn = parse(
                    &value("--max-requests-per-conn")?,
                    "--max-requests-per-conn",
                )?;
            }
            "--trust-forwarded-for" => config.trust_forwarded_for = true,
            "--drain-deadline-ms" => {
                let ms: u64 = parse(&value("--drain-deadline-ms")?, "--drain-deadline-ms")?;
                drain_deadline = Duration::from_millis(ms);
            }
            "--drain-linger-ms" => {
                let ms: u64 = parse(&value("--drain-linger-ms")?, "--drain-linger-ms")?;
                drain_linger = Duration::from_millis(ms);
            }
            "--help" | "-h" => {
                println!(
                    "usage: alae-serve --index <file> [--addr HOST:PORT] [--http HOST:PORT] \
                     [--workers N] [--max-pending N] [--max-deadline-ms N] [--max-top-k N] \
                     [--max-work-budget N] [--trace-log FILE] [--trace-capacity N] \
                     [--fairness-rate N] [--fairness-burst N] [--max-concurrent-per-peer N] \
                     [--max-connections N] [--idle-timeout-ms N] [--max-requests-per-conn N] \
                     [--trust-forwarded-for] [--drain-deadline-ms N] [--drain-linger-ms N]"
                );
                return Ok(());
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }

    let index_path = index_path.ok_or("--index <file> is required (see --help)")?;
    let started = Instant::now();
    let db = IndexedDatabase::open(&index_path)
        .map_err(|err| format!("cannot open {index_path}: {err}"))?;
    let open_time = started.elapsed();
    eprintln!(
        "alae-serve: opened {index_path} in {open_time:?} ({} records, {} text bytes; no rebuild)",
        db.record_count(),
        db.text_len(),
    );

    let server = Arc::new(
        Server::bind(&addr, db, config).map_err(|err| format!("cannot bind {addr}: {err}"))?,
    );
    server.set_index_path(&index_path);
    server
        .metrics()
        .index_open_seconds
        .set(open_time.as_secs_f64());
    let local = server
        .local_addr()
        .map_err(|err| format!("cannot resolve bound address: {err}"))?;
    eprintln!("alae-serve: listening on {local}");

    if let Some(path) = trace_log {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|err| format!("cannot open trace log {path}: {err}"))?;
        server.trace_log().set_sink(Some(Box::new(file)));
        eprintln!("alae-serve: tracing queries to {path}");
    }

    if let Some(http_addr) = http_addr {
        let front = server
            .http_front(&http_addr)
            .map_err(|err| format!("cannot bind http front {http_addr}: {err}"))?;
        let http_local = front
            .local_addr()
            .map_err(|err| format!("cannot resolve http address: {err}"))?;
        eprintln!(
            "alae-serve: http front on {http_local} (/metrics /healthz /search /admin/reload /admin/drain)"
        );
        thread::spawn(move || {
            let _ = front.serve();
        });
    }

    // SIGHUP → reload, SIGTERM/SIGINT (or POST /admin/drain) → drain and
    // exit.  The handler only flips atomic flags; this thread does the
    // real work.
    if !signals::install() {
        eprintln!("alae-serve: signal handling unavailable on this platform");
    }
    {
        let server = Arc::clone(&server);
        let index_path = index_path.clone();
        thread::spawn(move || loop {
            if signals::take_sighup() {
                match server.reload(std::path::Path::new(&index_path)) {
                    Ok(summary) => eprintln!(
                        "alae-serve: reloaded {index_path} as epoch {} ({} records) in {:?}",
                        summary.epoch, summary.records, summary.took,
                    ),
                    Err(err) => {
                        eprintln!("alae-serve: reload rejected, keeping current index: {err}")
                    }
                }
            }
            if signals::take_shutdown() || server.drain_requested() {
                eprintln!("alae-serve: draining (deadline {drain_deadline:?})");
                let took = server.drain(drain_deadline);
                eprintln!("alae-serve: drained in {took:?}");
                if !drain_linger.is_zero() {
                    // Keep the HTTP front up so a final scrape can read
                    // alae_drain_seconds and the drained /healthz.
                    thread::sleep(drain_linger);
                }
                std::process::exit(0);
            }
            thread::sleep(Duration::from_millis(100));
        });
    }

    match server.serve() {
        // The accept loop only closes when a drain stopped it; the
        // watcher thread finishes the linger and exits the process.
        Ok(()) => {
            thread::sleep(drain_linger + Duration::from_secs(5));
            Ok(())
        }
        Err(err) => Err(format!("accept loop failed: {err}")),
    }
}

fn parse<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}
