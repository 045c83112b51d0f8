//! End-to-end tests for the HTTP/1.1 front: `/metrics` must be valid
//! Prometheus text whose counters move with traffic, `/healthz` must
//! track readiness, a malformed request must get a `400` without taking
//! the service down, and `POST /search` must produce exactly the hits
//! the TCP frame client gets for the same request — both fronts share
//! one admission path, and these tests pin that contract.

use alae::bioseq::{ScoringScheme, Sequence};
use alae::client::Client;
use alae::search::{IndexBuilder, IndexedDatabase, SearchHit, SearchRequest};
use alae::workload::{MutationProfile, QuerySpec, TextSpec, WorkloadBuilder};
use alae_server::{Server, ServerConfig};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;

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

/// Bind a server plus its HTTP front on ephemeral ports; both listeners
/// accept on background threads.  Returns the server handle and both
/// addresses (TCP frames, HTTP).
fn spawn_with_http(
    db: IndexedDatabase,
    config: ServerConfig,
) -> (Arc<Server>, SocketAddr, SocketAddr) {
    let server = Arc::new(Server::bind("127.0.0.1:0", db, config).expect("bind ephemeral port"));
    let tcp_addr = server.local_addr().expect("local addr");
    let front = server.http_front("127.0.0.1:0").expect("bind http front");
    let http_addr = front.local_addr().expect("http addr");
    {
        let server = Arc::clone(&server);
        thread::spawn(move || {
            let _ = server.serve();
        });
    }
    thread::spawn(move || {
        let _ = front.serve();
    });
    (server, tcp_addr, http_addr)
}

/// A minimal HTTP/1.1 client: one request, `Connection: close`, returns
/// (status, headers, body).
fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> (u16, HashMap<String, String>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect http front");
    let body = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(request.as_bytes()).expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    parse_response(&raw)
}

fn parse_response(raw: &str) -> (u16, HashMap<String, String>, String) {
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .expect("response has a header block");
    let mut lines = head.lines();
    let status_line = lines.next().expect("status line");
    let mut parts = status_line.split_whitespace();
    assert_eq!(parts.next(), Some("HTTP/1.1"), "status line: {status_line}");
    let status: u16 = parts
        .next()
        .expect("status code")
        .parse()
        .expect("numeric status");
    let headers: HashMap<String, String> = lines
        .map(|line| {
            let (name, value) = line.split_once(':').expect("header line");
            (name.trim().to_ascii_lowercase(), value.trim().to_string())
        })
        .collect();
    let length: usize = headers
        .get("content-length")
        .expect("content-length header")
        .parse()
        .expect("numeric content-length");
    assert_eq!(body.len(), length, "body length matches content-length");
    (status, headers, body.to_string())
}

/// The value of a counter sample line (`name{labels} value`) in a
/// Prometheus text exposition, or `None` when the series is absent.
fn sample_value(exposition: &str, series: &str) -> Option<f64> {
    exposition.lines().find_map(|line| {
        let (name, value) = line.rsplit_once(' ')?;
        (name == series).then(|| value.parse().expect("numeric sample"))
    })
}

/// Every non-comment line must be `name_or_labels value` with a value
/// Prometheus accepts, and every `# TYPE` must be a known metric type.
fn assert_valid_exposition(text: &str) {
    assert!(!text.is_empty());
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let ty = rest.rsplit_once(' ').map(|(_, ty)| ty).unwrap_or("");
            assert!(
                matches!(ty, "counter" | "gauge" | "histogram"),
                "unknown metric type in: {line}"
            );
            continue;
        }
        if line.starts_with('#') {
            assert!(line.starts_with("# HELP "), "bad comment line: {line}");
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(!name.is_empty());
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
            "unparseable sample value: {line}"
        );
    }
}

/// `/metrics` parses as Prometheus text, and one `POST /search` moves the
/// connection, termination, latency and byte counters.
#[test]
fn metrics_render_and_counters_move_after_search() {
    let (db, queries) = workload(4_000, 1);
    let (_server, _tcp, http_addr) = spawn_with_http(db, ServerConfig::default());

    let (status, headers, before) = http(http_addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert!(headers
        .get("content-type")
        .expect("content type")
        .starts_with("text/plain"));
    assert_valid_exposition(&before);
    let complete_before = sample_value(
        &before,
        "alae_query_terminations_total{outcome=\"complete\"}",
    )
    .expect("termination series pre-registered");

    let body = format!(
        "{{\"query\": \"{}\", \"threshold\": 12, \"top_k\": 8}}",
        queries[0].to_ascii()
    );
    let (status, _, response) = http(http_addr, "POST", "/search", Some(&body));
    assert_eq!(status, 200, "search response: {response}");
    assert!(response.contains("\"termination\":\"complete\""));

    let (_, _, after) = http(http_addr, "GET", "/metrics", None);
    assert_valid_exposition(&after);
    let complete_after = sample_value(
        &after,
        "alae_query_terminations_total{outcome=\"complete\"}",
    )
    .expect("series");
    assert_eq!(complete_after, complete_before + 1.0);
    assert!(
        sample_value(&after, "alae_query_latency_seconds_count{engine=\"alae\"}").expect("series")
            >= 1.0
    );
    assert!(
        sample_value(
            &after,
            "alae_wire_bytes_total{proto=\"http\",direction=\"read\"}"
        )
        .expect("series")
            > 0.0
    );
    assert!(
        sample_value(&after, "alae_connections_total{proto=\"http\"}").expect("series") >= 3.0,
        "three http connections so far"
    );
}

/// `/healthz` answers 200 while ready and flips to 503 when readiness is
/// dropped (a rolling restart / index reload), then recovers.
#[test]
fn healthz_flips_with_readiness() {
    let (db, _) = workload(2_000, 1);
    let (server, _tcp, http_addr) = spawn_with_http(db, ServerConfig::default());

    let (status, _, body) = http(http_addr, "GET", "/healthz", None);
    assert_eq!(status, 200, "healthy at start: {body}");
    assert!(body.contains("\"status\":\"ok\""));
    assert!(body.contains("\"index_loaded\":true"));

    server.set_ready(false);
    let (status, _, body) = http(http_addr, "GET", "/healthz", None);
    assert_eq!(status, 503, "unavailable while not ready: {body}");
    assert!(body.contains("\"status\":\"unavailable\""));
    let (_, _, metrics) = http(http_addr, "GET", "/metrics", None);
    assert_eq!(sample_value(&metrics, "alae_index_loaded"), Some(0.0));

    server.set_ready(true);
    let (status, _, _) = http(http_addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
}

/// Garbage on the HTTP port gets a 400 and only costs that connection:
/// the front keeps serving and the search workers keep searching.
#[test]
fn malformed_request_gets_400_without_killing_the_service() {
    let (db, queries) = workload(3_000, 1);
    let (_server, _tcp, http_addr) = spawn_with_http(db, ServerConfig::default());

    let mut stream = TcpStream::connect(http_addr).expect("connect");
    stream
        .write_all(b"THIS IS NOT HTTP\r\n\r\n")
        .expect("send garbage");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (status, _, _) = parse_response(&raw);
    assert_eq!(status, 400);

    // An unparseable body is also a clean 400, not a hang or a crash.
    let (status, _, body) = http(http_addr, "POST", "/search", Some("{\"query\": }"));
    assert_eq!(status, 400);
    assert!(body.contains("error"));

    // The service is still alive end to end: health is green and a real
    // search still completes.
    let (status, _, _) = http(http_addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    let search_body = format!(
        "{{\"query\": \"{}\", \"threshold\": 12}}",
        queries[0].to_ascii()
    );
    let (status, _, response) = http(http_addr, "POST", "/search", Some(&search_body));
    assert_eq!(status, 200);
    assert!(response.contains("\"termination\":\"complete\""));

    let (_, _, metrics) = http(http_addr, "GET", "/metrics", None);
    assert!(
        sample_value(
            &metrics,
            "alae_requests_rejected_total{reason=\"malformed\"}"
        )
        .expect("series")
            >= 2.0
    );
}

/// The JSON a hit renders to over HTTP, built independently here so the
/// test fails if either side changes shape.
fn expected_hit_json(hit: &SearchHit) -> String {
    let evalue = match hit.evalue {
        Some(evalue) => format!("{evalue}"),
        None => "null".to_string(),
    };
    format!(
        "{{\"record\":{},\"name\":\"{}\",\"record_end\":{},\"query_end\":{},\"text_end\":{},\"score\":{},\"evalue\":{}}}",
        hit.record, hit.name, hit.record_end, hit.query_end, hit.text_end, hit.score, evalue,
    )
}

/// `POST /search` must deliver exactly the hits the TCP frame client
/// gets for the same clamped request — same order, same fields.
#[test]
fn http_search_hits_match_tcp_client() {
    let (db, queries) = workload(6_000, 3);
    let (_server, tcp_addr, http_addr) = spawn_with_http(db, ServerConfig::default());

    let request = SearchRequest::with_threshold(ScoringScheme::DEFAULT, 12).top_k(16);
    let mut client = Client::connect(tcp_addr).expect("connect tcp client");

    for query in &queries {
        let tcp_response = client.search(&request, query).expect("tcp search");

        let body = format!(
            "{{\"query\": \"{}\", \"threshold\": 12, \"top_k\": 16, \"engine\": \"alae\"}}",
            query.to_ascii()
        );
        let (status, _, http_body) = http(http_addr, "POST", "/search", Some(&body));
        assert_eq!(status, 200, "http search: {http_body}");

        assert!(http_body.contains(&format!("\"delivered\":{}", tcp_response.hits.len())));
        let mut cursor = 0;
        for hit in &tcp_response.hits {
            let expected = expected_hit_json(hit);
            let found = http_body[cursor..].find(&expected).unwrap_or_else(|| {
                panic!("hit missing or out of order: {expected}\nin {http_body}")
            });
            cursor += found + expected.len();
        }
    }
}

/// The trace ring sees every HTTP query with its termination and engine.
#[test]
fn debug_last_queries_records_http_searches() {
    let (db, queries) = workload(3_000, 1);
    let (_server, _tcp, http_addr) = spawn_with_http(db, ServerConfig::default());

    let body = format!(
        "{{\"query\": \"{}\", \"threshold\": 12, \"deadline_ms\": 60000}}",
        queries[0].to_ascii()
    );
    let (status, _, _) = http(http_addr, "POST", "/search", Some(&body));
    assert_eq!(status, 200);

    let (status, _, dump) = http(http_addr, "GET", "/debug/last-queries", None);
    assert_eq!(status, 200);
    let line = dump
        .lines()
        .find(|l| l.contains("proto=http"))
        .expect("http query traced");
    assert!(line.contains("engine=alae"));
    assert!(line.contains("termination=complete"));
    assert!(line.starts_with("query id="));
}

/// Unknown paths and wrong methods answer 404/405 without disturbing
/// anything (regression guard for the router).
#[test]
fn router_rejects_unknown_paths_and_methods() {
    let (db, _) = workload(2_000, 1);
    let (_server, _tcp, http_addr) = spawn_with_http(db, ServerConfig::default());

    let (status, _, _) = http(http_addr, "GET", "/nope", None);
    assert_eq!(status, 404);
    let (status, _, _) = http(http_addr, "POST", "/metrics", None);
    assert_eq!(status, 405);
    let (status, _, _) = http(http_addr, "GET", "/search", None);
    assert_eq!(status, 405);
}
