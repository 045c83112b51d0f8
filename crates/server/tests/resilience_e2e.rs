//! End-to-end tests for the zero-downtime serving layer: hot index
//! swaps must never drop or mix queries across epochs, the per-peer
//! fairness gate must throttle a flooder while a polite client sails
//! through, a graceful drain must complete in-flight work while
//! refusing new work with typed rejections, and (under `fault-inject`)
//! wedged, dropped and slow-loris connections must end cleanly.

use alae::bioseq::{ScoringScheme, Sequence};
#[cfg(feature = "fault-inject")]
use alae::client::RetryPolicy;
use alae::client::{Client, RejectedError};
use alae::search::{IndexBuilder, IndexedDatabase, SearchRequest, Searcher, Termination};
use alae::wire::{RejectReason, Rejection};
use alae::workload::{MutationProfile, QuerySpec, TextSpec, WorkloadBuilder};
use alae_server::{FairnessConfig, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn workload(text_len: usize, queries: usize, seed: u64) -> (IndexedDatabase, Vec<Sequence>) {
    let built = WorkloadBuilder::new(
        TextSpec::dna(text_len, seed),
        QuerySpec {
            count: queries,
            length: 32,
            mutation: MutationProfile::HOMOLOGOUS,
            seed: 11,
        },
    )
    .build();
    (IndexBuilder::new().index(built.database), built.queries)
}

/// A unique temp path for a saved index file.
fn temp_index_path(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let mut path = std::env::temp_dir();
    path.push(format!(
        "alae-resilience-{}-{}-{}.alae",
        tag,
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed),
    ));
    path
}

/// Bind an ephemeral-port server, start accepting, and hand back the
/// handle (for reload/drain) plus the address.
fn spawn_server(db: IndexedDatabase, config: ServerConfig) -> (Arc<Server>, SocketAddr) {
    let server = Arc::new(Server::bind("127.0.0.1:0", db, config).expect("bind ephemeral port"));
    let addr = server.local_addr().expect("local addr");
    let accept = Arc::clone(&server);
    thread::spawn(move || {
        let _ = accept.serve();
    });
    (server, addr)
}

/// A minimal HTTP/1.1 exchange: returns (status, raw headers, body).
fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect http");
    let mut request = format!("{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n");
    for (name, value) in headers {
        request.push_str(&format!("{name}: {value}\r\n"));
    }
    request.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    stream.write_all(request.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let (head, body) = response.split_once("\r\n\r\n").expect("header terminator");
    (status, head.to_string(), body.to_string())
}

/// Hot swaps under concurrent load: across three+ epoch flips, every
/// response from four hammering clients must exactly match the hit set
/// of *one* of the two indexes — never an error, never a mix — and the
/// epoch counter must account for every swap.
#[test]
fn reload_under_load_preserves_hit_identity() {
    let (db_a, queries) = workload(6_000, 4, 7);
    let (db_b, _) = workload(6_000, 1, 19);
    let path_a = temp_index_path("a");
    let path_b = temp_index_path("b");
    db_a.save(&path_a).expect("save index a");
    db_b.save(&path_b).expect("save index b");

    let request = SearchRequest::with_threshold(ScoringScheme::DEFAULT, 12).top_k(32);
    let opened_a = IndexedDatabase::open(&path_a).expect("open a");
    let opened_b = IndexedDatabase::open(&path_b).expect("open b");
    let local_a = Searcher::new(opened_a.clone(), request);
    let local_b = Searcher::new(opened_b, request);

    // The four clients share one loopback peer and query back to back, so
    // under the default fairness gate (400 burst + 200/s) a fast host or a
    // slow swap phase drains the bucket and a search fails with a typed
    // `Fairness` rejection.  This test is about epochs, not fairness: open
    // the gate wide, as the end-to-end benchmark does.
    let config = ServerConfig {
        fairness: FairnessConfig {
            rate_per_sec: 1e9,
            burst: 1e9,
            ..FairnessConfig::default()
        },
        max_requests_per_conn: usize::MAX,
        ..ServerConfig::default()
    };
    let (server, addr) = spawn_server(opened_a, config);
    assert_eq!(server.index_epoch(), 1);
    let stop = Arc::new(AtomicBool::new(false));

    let clients: Vec<_> = (0..4)
        .map(|i| {
            let query = queries[i % queries.len()].clone();
            let expected_a = local_a.search(&query);
            let expected_b = local_b.search(&query);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut served = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let response = client
                        .search(&request, &query)
                        .expect("search during swaps");
                    assert!(
                        matches!(response.termination, Termination::Complete),
                        "client {i}: unexpected termination {:?}",
                        response.termination
                    );
                    assert!(
                        response.hits == expected_a.hits || response.hits == expected_b.hits,
                        "client {i}: hits match neither epoch's index"
                    );
                    served += 1;
                }
                served
            })
        })
        .collect();

    // Three swaps under load (B, A, B), spaced so queries overlap them.
    for path in [&path_b, &path_a, &path_b] {
        thread::sleep(Duration::from_millis(40));
        let summary = server.reload(path).expect("reload");
        assert_eq!(summary.epoch, server.index_epoch());
    }
    assert_eq!(server.index_epoch(), 4);

    // A torn file is rejected and the serving epoch is untouched.
    let torn = temp_index_path("torn");
    let mut bytes = std::fs::read(&path_a).expect("read index a");
    bytes.truncate(bytes.len() / 2);
    std::fs::write(&torn, &bytes).expect("write torn file");
    assert!(server.reload(&torn).is_err());
    assert_eq!(server.index_epoch(), 4);

    thread::sleep(Duration::from_millis(40));
    stop.store(true, Ordering::Relaxed);
    let mut total = 0usize;
    for handle in clients {
        total += handle.join().expect("client thread");
    }
    assert!(total > 0, "clients must have searched across the swaps");
    assert_eq!(server.metrics().index_epoch.get(), 4);
    assert_eq!(server.metrics().index_reloads_ok.get(), 3);
    assert_eq!(server.metrics().index_reloads_rejected.get(), 1);

    for path in [path_a, path_b, torn] {
        let _ = std::fs::remove_file(path);
    }
}

/// A checksum-valid file can still hold a BWT that disagrees with its
/// record table: here a second separator.  The reload's one open must
/// refuse it with a typed error, count and log the rejection, and leave
/// the serving epoch where it was.
#[test]
fn reload_refuses_a_checksum_valid_file_with_an_extra_separator() {
    use alae::store::format::{checksum, section, TableEntry, HEADER_LEN, TABLE_ENTRY_LEN};

    let built = WorkloadBuilder::new(
        TextSpec::protein(3_000, 5),
        QuerySpec {
            count: 1,
            length: 24,
            mutation: MutationProfile::HOMOLOGOUS,
            seed: 3,
        },
    )
    .build();
    let path = temp_index_path("protein");
    IndexBuilder::new()
        .index(built.database)
        .save(&path)
        .expect("save index");
    let server = Server::bind(
        "127.0.0.1:0",
        IndexedDatabase::open(&path).expect("open"),
        ServerConfig::default(),
    )
    .expect("bind ephemeral port");

    // Turn the BWT's last letter into the separator (shifted code 1) and
    // re-stamp its checksum.  Open counts the checkpoint rows and the C
    // array from the BWT, so they agree with it, and only the separator
    // count can refuse the one-record file.
    let mut bytes = std::fs::read(&path).expect("read index");
    let sections = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let entry_of = |bytes: &[u8], id: u32| {
        (0..sections)
            .map(|k| HEADER_LEN + k * TABLE_ENTRY_LEN)
            .find_map(|at| {
                TableEntry::from_bytes(&bytes[at..at + TABLE_ENTRY_LEN])
                    .filter(|entry| entry.id == id)
                    .map(|entry| (at, entry))
            })
            .expect("section entry")
    };
    let restamp = |bytes: &mut [u8], (slot, entry): (usize, TableEntry)| {
        let payload = entry.offset as usize..(entry.offset + entry.len) as usize;
        let stamped = TableEntry {
            checksum: checksum(&bytes[payload]),
            ..entry
        };
        bytes[slot..slot + TABLE_ENTRY_LEN].copy_from_slice(&stamped.to_bytes());
    };
    let bwt = entry_of(&bytes, section::OCC_BYTES);
    let last = (bwt.1.offset + bwt.1.len - 1) as usize;
    assert!(bytes[last] >= 2, "the last BWT row holds a letter");
    bytes[last] = 1;
    restamp(&mut bytes, bwt);
    let bad = temp_index_path("extra-separator");
    std::fs::write(&bad, &bytes).expect("write the bad file");

    let err = server
        .reload(&bad)
        .expect_err("an extra separator must be refused");
    assert!(
        err.contains("the BWT holds 1 separator codes, 1 records need 0"),
        "{err}"
    );
    assert_eq!(server.index_epoch(), 1);
    assert_eq!(server.metrics().index_reloads_rejected.get(), 1);
    assert_eq!(server.metrics().index_reloads_ok.get(), 0);
    let events = server.trace_log().events_snapshot();
    assert!(
        events
            .iter()
            .any(|event| event.render_line().contains("outcome=rejected")),
        "the rejection is logged"
    );

    // The intact file still reloads.
    let summary = server.reload(&path).expect("reload the intact file");
    assert_eq!((summary.epoch, summary.records), (2, 1));
    assert_eq!(summary.text_len, 3_000);
    server.shutdown();
    for path in [path, bad] {
        let _ = std::fs::remove_file(path);
    }
}

/// The admin route flips the epoch too: `POST /admin/reload` with a
/// body path reloads and reports the new epoch over HTTP.
#[test]
fn admin_reload_over_http_increments_the_epoch() {
    let (db, _) = workload(2_000, 1, 7);
    let path = temp_index_path("http");
    db.save(&path).expect("save index");

    let (server, _addr) = spawn_server(
        IndexedDatabase::open(&path).expect("open"),
        ServerConfig::default(),
    );
    let front = server.http_front("127.0.0.1:0").expect("bind http");
    let http_addr = front.local_addr().expect("http addr");
    thread::spawn(move || {
        let _ = front.serve();
    });

    let body = format!("{{\"path\": \"{}\"}}", path.display());
    let (status, _, response) = http_request(http_addr, "POST", "/admin/reload", &[], &body);
    assert_eq!(status, 200, "reload response: {response}");
    assert!(response.contains("\"epoch\":2"), "body: {response}");
    assert_eq!(server.index_epoch(), 2);

    // A nonsense path is a 400 and the epoch stands.
    let (status, _, _) = http_request(
        http_addr,
        "POST",
        "/admin/reload",
        &[],
        "{\"path\": \"/nonexistent.alae\"}",
    );
    assert_eq!(status, 400);
    assert_eq!(server.index_epoch(), 2);

    let (_, _, metrics) = http_request(http_addr, "GET", "/metrics", &[], "");
    assert!(metrics.contains("alae_index_epoch 2"), "scrape: {metrics}");

    let _ = std::fs::remove_file(path);
}

/// A flooder exhausts its own token bucket and gets typed fairness
/// rejections (TCP frame + HTTP 429 with Retry-After); a polite client
/// behind a different peer address is untouched.
#[test]
fn fairness_rejects_the_flooder_not_the_polite_client() {
    let (db, queries) = workload(2_000, 1, 7);
    let request = SearchRequest::with_threshold(ScoringScheme::DEFAULT, 12);
    let mut config = ServerConfig {
        trust_forwarded_for: true,
        ..ServerConfig::default()
    };
    config.fairness.rate_per_sec = 0.5; // refills far slower than the test runs
    config.fairness.burst = 3.0;
    let (server, addr) = spawn_server(db, config);
    let front = server.http_front("127.0.0.1:0").expect("bind http");
    let http_addr = front.local_addr().expect("http addr");
    thread::spawn(move || {
        let _ = front.serve();
    });

    // The TCP flooder (peer 127.0.0.1) burns its burst, then hits the
    // typed rejection; a fail-fast client surfaces it as RejectedError.
    let mut flooder = Client::connect(addr).expect("connect flooder");
    let mut rejected = None;
    for _ in 0..10 {
        match flooder.search(&request, &queries[0]) {
            Ok(response) => assert!(matches!(response.termination, Termination::Complete)),
            Err(err) => {
                rejected = Some(rejection_of(&err));
                break;
            }
        }
    }
    let rejection = rejected.expect("the flooder must be rejected within its burst");
    assert_eq!(rejection.reason, RejectReason::Fairness);
    assert!(rejection.retry_after.is_some(), "rejections carry a hint");

    // HTTP flooder behind a (trusted) forged peer: burst, then 429.
    let flood_headers = [("X-Forwarded-For", "10.1.1.3")];
    let body = "{\"query\": \"ACGTTGCAACGTTGCA\", \"threshold\": 12}";
    let mut saw_429 = false;
    for _ in 0..6 {
        let (status, head, _) = http_request(http_addr, "POST", "/search", &flood_headers, body);
        if status == 429 {
            assert!(
                head.contains("Retry-After:"),
                "429 without Retry-After: {head}"
            );
            saw_429 = true;
            break;
        }
        assert_eq!(status, 200);
    }
    assert!(saw_429, "the HTTP flooder must hit 429 within its burst");

    // The polite client is a different peer: its bucket is untouched.
    let polite_headers = [("X-Forwarded-For", "10.1.1.2")];
    for _ in 0..2 {
        let (status, _, response) =
            http_request(http_addr, "POST", "/search", &polite_headers, body);
        assert_eq!(status, 200, "polite client refused: {response}");
        assert!(
            response.contains("\"termination\":\"complete\""),
            "{response}"
        );
    }
    assert!(server.metrics().fairness_rejection_counter("rate").get() >= 2);
}

/// A graceful drain lets in-flight queries finish (Complete, exact hits)
/// while a latecomer gets a typed `draining` rejection; the drain
/// duration lands on the gauge.
#[test]
fn drain_completes_in_flight_and_refuses_new_work() {
    let (db, queries) = workload(4_000, 2, 7);
    let request = SearchRequest::with_threshold(ScoringScheme::DEFAULT, 12);
    let expected = Searcher::new(db.clone(), request).search(&queries[0]);
    // All load comes from one loopback peer: open the fairness gate, so
    // the only refusal a client can meet is the drain's.
    let (server, addr) = spawn_server(
        db,
        ServerConfig {
            workers: 1,
            fairness: FairnessConfig {
                rate_per_sec: 1e9,
                burst: 1e9,
                ..FairnessConfig::default()
            },
            ..ServerConfig::default()
        },
    );

    // The latecomer opens its connection and completes one search before
    // the drain, so its next search meets the admission queue's draining
    // gate rather than the accept loop's.
    let mut latecomer = Client::connect(addr).expect("connect latecomer");
    latecomer
        .set_read_timeout(Some(Duration::from_secs(30)))
        .ok();
    let before = latecomer
        .search(&request, &queries[1])
        .expect("search before the drain");
    assert!(matches!(before.termination, Termination::Complete));

    // The in-flight side: four clients keep the one worker busy, each
    // searching back to back until the drain refuses it.  Every answer
    // they get must be exact; a query the drain dropped instead would
    // leave its client waiting out the read timeout.
    let in_flight: Vec<_> = (0..4)
        .map(|_| {
            let query = queries[0].clone();
            let expected = expected.hits.clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.set_read_timeout(Some(Duration::from_secs(30))).ok();
                let mut completed = 0usize;
                loop {
                    match client.search(&request, &query) {
                        Ok(response) => {
                            assert!(matches!(response.termination, Termination::Complete));
                            assert_eq!(response.hits, expected, "drained query lost hits");
                            completed += 1;
                        }
                        Err(err) => return (completed, err),
                    }
                }
            })
        })
        .collect();
    // The drain starts only once a query is still waiting in the queue.
    let waiting = Instant::now();
    while server.metrics().queue_depth.get() == 0 {
        assert!(
            waiting.elapsed() < Duration::from_secs(30),
            "no query ever waited behind the worker"
        );
        thread::yield_now();
    }
    let took = server.drain(Duration::from_secs(10));
    assert!(
        took < Duration::from_secs(10),
        "drain hit the hard deadline"
    );

    let mut completed = 0;
    for handle in in_flight {
        let (answers, refused) = handle.join().expect("in-flight thread");
        assert_eq!(rejection_of(&refused).reason, RejectReason::Draining);
        completed += answers;
    }
    assert!(completed >= 1, "the queued query must finish");

    let refused = latecomer
        .search(&request, &queries[1])
        .expect_err("the latecomer must be refused while draining");
    assert_eq!(rejection_of(&refused).reason, RejectReason::Draining);

    assert!(server.metrics().drain_seconds.get() > 0.0);
    assert!(server.metrics().render().contains("alae_drain_seconds"));
}

/// The server's typed refusal inside a client error (not a transport
/// error).
fn rejection_of(err: &std::io::Error) -> Rejection {
    err.get_ref()
        .and_then(|e| e.downcast_ref::<RejectedError>())
        .expect("a typed RejectedError, not a transport error")
        .rejection()
        .clone()
}

/// Server-side fault injection: a connection dropped mid-stream is
/// healed by the client's retry policy, a slow-loris read throttle still
/// completes, and a wedged (stalled) connection times out cleanly
/// without taking the server down.
#[cfg(feature = "fault-inject")]
#[test]
fn injected_io_faults_end_cleanly() {
    use alae::search::FaultPlan;

    let (db, queries) = workload(3_000, 1, 7);
    let request = SearchRequest::with_threshold(ScoringScheme::DEFAULT, 12);
    let expected = Searcher::new(db.clone(), request).search(&queries[0]);

    // drop-conn@2: the second request's connection vanishes; the retry
    // policy reconnects and the fresh connection serves it.
    let plan = FaultPlan::parse("drop-conn@2").expect("parse plan");
    let (_server, addr) = spawn_server(
        db.clone(),
        ServerConfig {
            fault: Some(plan),
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect_with(addr, RetryPolicy::standard()).expect("connect");
    for attempt in 0..2 {
        let response = client
            .search(&request, &queries[0])
            .unwrap_or_else(|err| panic!("search {attempt} through drop-conn: {err}"));
        assert!(matches!(response.termination, Termination::Complete));
        assert_eq!(response.hits, expected.hits);
    }

    // slow-read=64: a ~90-byte request frame trickles in at 64 B/s; the
    // query still completes, just slowly.
    let plan = FaultPlan::parse("slow-read=64").expect("parse plan");
    let (_server, addr) = spawn_server(
        db.clone(),
        ServerConfig {
            fault: Some(plan),
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(addr).expect("connect");
    let started = Instant::now();
    let response = client.search(&request, &queries[0]).expect("slow search");
    assert!(matches!(response.termination, Termination::Complete));
    assert_eq!(response.hits, expected.hits);
    assert!(
        started.elapsed() >= Duration::from_millis(300),
        "the read throttle did not slow the request"
    );

    // io-stall@1: the first request wedges for two seconds.  A client
    // with a short read timeout errors out cleanly; a patient client on
    // a fresh connection rides out the stall and gets exact hits.
    let plan = FaultPlan::parse("io-stall@1").expect("parse plan");
    let (_server, addr) = spawn_server(
        db,
        ServerConfig {
            fault: Some(plan),
            ..ServerConfig::default()
        },
    );
    let mut impatient = Client::connect(addr).expect("connect");
    impatient
        .set_read_timeout(Some(Duration::from_millis(200)))
        .expect("set timeout");
    assert!(
        impatient.search(&request, &queries[0]).is_err(),
        "a 200ms read timeout must trip on a 2s stall"
    );
    let mut patient = Client::connect(addr).expect("connect");
    let response = patient
        .search(&request, &queries[0])
        .expect("patient search");
    assert!(matches!(response.termination, Termination::Complete));
    assert_eq!(response.hits, expected.hits);
}
