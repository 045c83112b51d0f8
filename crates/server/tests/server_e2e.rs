//! End-to-end tests for the TCP search service: concurrent clients must
//! see exactly the hits the in-process facade produces, server-side
//! guardrails must surface as typed terminations with partial results,
//! and one client's disconnect must never leak into another's response.

use alae::bioseq::{Alphabet, ScoringScheme, Sequence};
use alae::client::Client;
use alae::search::{
    IndexBuilder, IndexedDatabase, SearchError, SearchRequest, Searcher, Termination,
};
use alae::wire::{encode_request, write_frame, FrameKind};
use alae::workload::{MutationProfile, QuerySpec, TextSpec, WorkloadBuilder};
use alae_server::{Server, ServerConfig};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

fn workload(text_len: usize, queries: usize) -> (IndexedDatabase, Vec<Sequence>) {
    let built = WorkloadBuilder::new(
        TextSpec::dna(text_len, 7),
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

/// Bind an ephemeral-port server and start accepting.
fn spawn_server(db: IndexedDatabase, config: ServerConfig) -> SocketAddr {
    let server = Server::bind("127.0.0.1:0", db, config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    thread::spawn(move || {
        let _ = server.serve();
    });
    addr
}

/// Four clients searching concurrently must each get responses identical
/// to a local in-process `Searcher` over the same index — hits, threshold
/// and termination alike.
#[test]
fn concurrent_clients_match_local_search() {
    let (db, queries) = workload(6_000, 4);
    let request = SearchRequest::with_threshold(ScoringScheme::DEFAULT, 12).top_k(32);
    let addr = spawn_server(
        db.clone(),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    );

    let local = Searcher::new(db, request);
    let expected: Vec<_> = queries.iter().map(|q| local.search(q)).collect();

    let handles: Vec<_> = queries
        .iter()
        .cloned()
        .map(|query| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.search(&request, &query).expect("search over TCP")
            })
        })
        .collect();

    for (i, handle) in handles.into_iter().enumerate() {
        let response = handle.join().expect("client thread");
        assert_eq!(
            response.hits, expected[i].hits,
            "client {i}: hits over TCP differ from the in-process facade"
        );
        assert_eq!(response.threshold, expected[i].threshold);
        assert_eq!(response.raw_hit_count, expected[i].raw_hit_count);
        assert!(
            matches!(response.termination, Termination::Complete),
            "client {i}: unexpected termination {:?}",
            response.termination
        );
    }
}

/// One connection can issue several searches back to back.
#[test]
fn sequential_requests_share_a_connection() {
    let (db, queries) = workload(3_000, 3);
    let request = SearchRequest::with_threshold(ScoringScheme::DEFAULT, 12);
    let addr = spawn_server(db.clone(), ServerConfig::default());
    let local = Searcher::new(db, request);

    let mut client = Client::connect(addr).expect("connect");
    for query in &queries {
        let over_tcp = client.search(&request, query).expect("search");
        assert_eq!(over_tcp.hits, local.search(query).hits);
    }
}

/// A deadline-capped request returns whatever was found plus the typed
/// `DeadlineExceeded` termination — the guardrail travels the wire intact.
#[test]
fn deadline_capped_request_reports_partial_results() {
    let (db, queries) = workload(20_000, 1);
    let addr = spawn_server(db, ServerConfig::default());

    // An immediately-expired deadline with the tightest poll cadence: the
    // engine trips the guard on its first check.
    let request = SearchRequest::with_threshold(ScoringScheme::DEFAULT, 12)
        .deadline(Duration::from_millis(0))
        .poll_interval(1);
    let mut client = Client::connect(addr).expect("connect");
    let response = client.search(&request, &queries[0]).expect("search");
    assert!(
        matches!(response.termination, Termination::DeadlineExceeded),
        "expected DeadlineExceeded, got {:?}",
        response.termination
    );
}

/// The server-side deadline cap applies even when the client asks for no
/// deadline at all, and a client's poll interval cannot outrun it: the
/// guard reads the clock only once every `poll_interval` node expansions,
/// so the server caps the interval at the default cadence.
#[test]
fn server_deadline_cap_overrides_client() {
    let (db, queries) = workload(20_000, 1);
    let addr = spawn_server(
        db,
        ServerConfig {
            max_deadline: Some(Duration::from_millis(0)),
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(addr).expect("connect");
    for poll_interval in [1, u32::MAX] {
        let request =
            SearchRequest::with_threshold(ScoringScheme::DEFAULT, 12).poll_interval(poll_interval);
        let response = client.search(&request, &queries[0]).expect("search");
        assert!(
            matches!(response.termination, Termination::DeadlineExceeded),
            "server must cap the deadline (poll interval {poll_interval}); got {:?} with {} hits",
            response.termination,
            response.hits.len()
        );
    }
}

/// A client that vanishes mid-query must not disturb the others: its
/// closed channel stops only its own delivery.
#[test]
fn mid_query_disconnect_does_not_affect_other_clients() {
    let (db, queries) = workload(6_000, 2);
    let request = SearchRequest::with_threshold(ScoringScheme::DEFAULT, 12);
    let addr = spawn_server(db.clone(), ServerConfig::default());

    // The vanishing client: send a request frame, then slam the connection
    // shut before reading a single response frame.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let payload = encode_request(&request, queries[0].codes());
        write_frame(&mut stream, FrameKind::Request, &payload).expect("send request");
        // Dropping the stream here closes the socket mid-query.
    }

    // Well-behaved clients issued at the same time still get exact results.
    let local = Searcher::new(db, request);
    let expected = local.search(&queries[1]);
    let survivors: Vec<_> = (0..3)
        .map(|_| {
            let query = queries[1].clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.search(&request, &query).expect("search")
            })
        })
        .collect();
    for handle in survivors {
        let response = handle.join().expect("client thread");
        assert_eq!(response.hits, expected.hits);
        assert!(matches!(response.termination, Termination::Complete));
    }
}

/// Garbage frames are answered with an error frame, not a dropped
/// connection or a poisoned server.
#[test]
fn malformed_request_gets_an_error_frame() {
    let (db, queries) = workload(1_000, 1);
    let request = SearchRequest::with_threshold(ScoringScheme::DEFAULT, 12);
    let addr = spawn_server(db, ServerConfig::default());

    let mut stream = TcpStream::connect(addr).expect("connect");
    write_frame(&mut stream, FrameKind::Request, b"\x09garbage").expect("send");
    let frame = alae::wire::read_frame(&mut stream)
        .expect("read")
        .expect("frame");
    assert_eq!(frame.0, FrameKind::Error);

    // The server is still healthy: a fresh client gets exact results, and
    // facade-level rejections (empty query) come back typed, not as
    // connection errors.
    let mut client = Client::connect(addr).expect("connect");
    let response = client.search(&request, &queries[0]).expect("search");
    assert!(matches!(response.termination, Termination::Complete));
    let invalid = Sequence::from_codes(Alphabet::Dna, vec![]);
    let rejected = client.search(&request, &invalid).expect("search");
    assert!(
        matches!(rejected.termination, Termination::Invalid(_)),
        "an empty query must surface the facade's typed rejection, got {:?}",
        rejected.termination
    );
}

/// Scoring schemes the engines cannot run are refused at admission with a
/// typed `InvalidScheme`, promptly and without costing a worker: `sa = 0`
/// would divide by zero computing q, q = 101 cannot pack its grams into
/// 64 bits, and an E-value needs Karlin–Altschul statistics that
/// `<4,-1,-5,-2>` lacks on DNA.  With both workers still alive, a valid
/// query on the same connection completes.
#[test]
fn invalid_schemes_are_refused_typed_and_cost_no_worker() {
    let (db, queries) = workload(3_000, 1);
    let addr = spawn_server(db.clone(), ServerConfig::default());
    let long_query = Sequence::from_codes(Alphabet::Dna, queries[0].codes().repeat(5));
    assert!(long_query.len() >= 150);

    let mut client = Client::connect(addr).expect("connect");
    let scheme = |sa, sb, sg, ss| ScoringScheme { sa, sb, sg, ss };
    for hostile in [
        SearchRequest::with_threshold(scheme(0, -3, -5, -2), 30),
        SearchRequest::with_threshold(scheme(1, -100, -500, -200), 30),
        SearchRequest::with_evalue(scheme(4, -1, -5, -2), 10.0),
        SearchRequest::with_threshold(scheme(1 << 61, -(1 << 61), -(1 << 61), -(1 << 61)), 3 << 61),
    ] {
        let scheme = hostile.scheme;
        let started = Instant::now();
        let response = client.search(&hostile, &long_query).expect("search");
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "{scheme}: answered after {:?}",
            started.elapsed()
        );
        assert!(
            matches!(
                response.termination,
                Termination::Invalid(SearchError::InvalidScheme { .. })
            ),
            "{scheme}: expected InvalidScheme, got {:?}",
            response.termination
        );
        assert!(response.hits.is_empty());
    }

    let request = SearchRequest::with_threshold(ScoringScheme::DEFAULT, 12);
    let response = client.search(&request, &queries[0]).expect("search");
    assert!(matches!(response.termination, Termination::Complete));
    assert_eq!(
        response.hits,
        Searcher::new(db, request).search(&queries[0]).hits
    );
}
