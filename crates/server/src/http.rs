//! A hand-rolled HTTP/1.1 front for the search service — `std::net`
//! only, same no-dependency discipline as the wire protocol.
//!
//! Routes (the full contract lives in `docs/metrics.md`):
//!
//! * `GET /metrics` — the [`crate::metrics::Metrics`] registry in
//!   Prometheus text exposition format.
//! * `GET /healthz` — 200 when the index is loaded and the worker pool
//!   is alive, 503 otherwise.
//! * `GET /debug/last-queries` — the [`crate::trace`] ring, one line per
//!   query.
//! * `POST /search` — a minimal JSON body mapped onto the existing
//!   [`alae::search::SearchRequest`] clamping path; the query runs
//!   through the **same** admission queue and workers as TCP frame
//!   requests, so the hits are identical by construction.
//! * `POST /admin/reload` — hot-swap the index (optional JSON body
//!   `{"path": "..."}`, else the path the server was started with);
//!   the file is fully validated before the epoch flips.
//! * `POST /admin/drain` — request a graceful drain: readiness flips
//!   off, new queries are refused with a typed `draining` rejection, and
//!   the process watcher completes the drain (see `docs/operations.md`).
//!
//! Fairness rejections surface as HTTP 429 with a `Retry-After` header.
//! When [`crate::ServerConfig::trust_forwarded_for`] is set, the first
//! address in `X-Forwarded-For` is charged instead of the socket peer.
//!
//! The parser accepts the subset of HTTP/1.1 a scraper or `curl` emits:
//! one request line, headers, an optional `Content-Length` body,
//! keep-alive by default.  Anything outside that subset gets a `400`
//! and the connection closes; the serving threads are untouched.

use crate::{submit, Event, Shared, Submission};
use alae::bioseq::ScoringScheme;
use alae::search::{EngineKind, SearchRequest};
use alae::wire::{CountingReader, CountingWriter, DoneSummary, RejectReason, Rejection};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Longest accepted request line or header line, in bytes.
const MAX_LINE_BYTES: usize = 8 * 1024;
/// Most headers accepted per request.
const MAX_HEADERS: usize = 64;
/// Largest accepted request body, in bytes.
const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Idle keep-alive connections are dropped after this long.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// The HTTP/1.1 front bound to its own listener, sharing the server's
/// index, admission queue, metrics and trace ring.  Obtain one with
/// [`crate::Server::http_front`]; run [`HttpFront::serve`] on a thread.
pub struct HttpFront {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl HttpFront {
    pub(crate) fn bind(addr: impl ToSocketAddrs, shared: Arc<Shared>) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(Self { listener, shared })
    }

    /// The bound address (the resolved port when bound to port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept connections until the listener fails; each connection gets
    /// its own handler thread (scrapers hold connections open).
    pub fn serve(&self) -> io::Result<()> {
        for stream in self.listener.incoming() {
            let stream = stream?;
            self.shared.metrics.http_connections.inc();
            let shared = Arc::clone(&self.shared);
            thread::spawn(move || {
                // A broken connection is the client's problem, not ours.
                let _ = handle_http_connection(stream, &shared);
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------------

struct Response {
    status: u16,
    content_type: &'static str,
    body: Vec<u8>,
    /// Rendered as a `Retry-After` header (whole seconds) when present.
    retry_after: Option<u64>,
}

impl Response {
    fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            retry_after: None,
        }
    }

    fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            retry_after: None,
        }
    }

    fn bad_request(message: &str) -> Self {
        let mut body = String::new();
        push_json_object(&mut body, |obj| {
            obj.string("error", message);
        });
        Self::json(400, body)
    }
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

fn handle_http_connection(stream: TcpStream, shared: &Shared) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    let peer = stream.peer_addr().ok().map(|addr| addr.ip());
    let mut reader = BufReader::new(CountingReader::new(
        stream.try_clone()?,
        Arc::clone(&shared.metrics.http_bytes_read),
    ));
    let mut writer = BufWriter::new(CountingWriter::new(
        stream,
        Arc::clone(&shared.metrics.http_bytes_written),
    ));

    loop {
        // Re-arm the idle timeout before *every* request, not just the
        // first: a keep-alive connection's clock must restart per
        // request, or a scraper idling between scrapes inherits however
        // much of the window the previous request left over.
        reader
            .get_ref()
            .get_ref()
            .set_read_timeout(Some(READ_TIMEOUT))
            .ok();
        let request = match read_request(&mut reader)? {
            ReadOutcome::Closed => return Ok(()),
            ReadOutcome::Malformed(message) => {
                // Framing is lost after a malformed request; answer 400
                // and close this connection (the listener and the search
                // workers keep running).
                shared.metrics.rejected_malformed.inc();
                write_response(&mut writer, shared, &Response::bad_request(&message), false)?;
                return Ok(());
            }
            ReadOutcome::Request(request) => request,
        };

        let response = route(shared, &request, peer);
        write_response(&mut writer, shared, &response, request.keep_alive)?;
        if !request.keep_alive {
            return Ok(());
        }
    }
}

struct HttpRequest {
    method: String,
    path: String,
    keep_alive: bool,
    body: Vec<u8>,
    /// First address in `X-Forwarded-For`, if the header parsed as an
    /// IP.  Only consulted when `trust_forwarded_for` is configured.
    forwarded_for: Option<IpAddr>,
}

enum ReadOutcome {
    /// The peer closed the connection between requests.
    Closed,
    /// The bytes on the wire are not a request this front accepts.
    Malformed(String),
    Request(HttpRequest),
}

fn read_request(reader: &mut impl BufRead) -> io::Result<ReadOutcome> {
    let request_line = match read_line(reader)? {
        None => return Ok(ReadOutcome::Closed),
        Some(line) if line.is_empty() => return Ok(ReadOutcome::Closed),
        Some(line) => line,
    };
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Ok(ReadOutcome::Malformed("malformed request line".into()));
    };
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Ok(ReadOutcome::Malformed("malformed request line".into()));
    }
    // Ignore any query string; routes here take none.
    let path = target.split('?').next().unwrap_or(target).to_string();
    if !path.starts_with('/') {
        return Ok(ReadOutcome::Malformed(
            "request target must be a path".into(),
        ));
    }

    let mut content_length: usize = 0;
    let mut keep_alive = true;
    let mut forwarded_for = None;
    for _ in 0..MAX_HEADERS {
        let line = match read_line(reader)? {
            None => {
                return Ok(ReadOutcome::Malformed(
                    "connection closed mid-headers".into(),
                ))
            }
            Some(line) => line,
        };
        if line.is_empty() {
            let body = if content_length > 0 {
                let mut body = vec![0u8; content_length];
                reader.read_exact(&mut body)?;
                body
            } else {
                Vec::new()
            };
            return Ok(ReadOutcome::Request(HttpRequest {
                method: method.to_string(),
                path,
                keep_alive,
                body,
                forwarded_for,
            }));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Ok(ReadOutcome::Malformed("malformed header line".into()));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                let Ok(length) = value.parse::<usize>() else {
                    return Ok(ReadOutcome::Malformed("bad content-length".into()));
                };
                if length > MAX_BODY_BYTES {
                    return Ok(ReadOutcome::Malformed("body too large".into()));
                }
                content_length = length;
            }
            "connection" if value.eq_ignore_ascii_case("close") => keep_alive = false,
            "x-forwarded-for" => {
                // Only the first (client-most) address matters; a value
                // that is not an IP is ignored rather than rejected.
                forwarded_for = value
                    .split(',')
                    .next()
                    .and_then(|first| first.trim().parse::<IpAddr>().ok());
            }
            "transfer-encoding" => {
                return Ok(ReadOutcome::Malformed(
                    "chunked bodies are not supported; send content-length".into(),
                ));
            }
            _ => {}
        }
    }
    Ok(ReadOutcome::Malformed("too many headers".into()))
}

/// One header/request line without its terminator; `None` on clean EOF.
fn read_line(reader: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte)? {
            0 => {
                if buf.is_empty() {
                    return Ok(None);
                }
                break;
            }
            _ => {
                if byte[0] == b'\n' {
                    break;
                }
                buf.push(byte[0]);
                if buf.len() > MAX_LINE_BYTES {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "header line too long",
                    ));
                }
            }
        }
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    match String::from_utf8(buf) {
        Ok(line) => Ok(Some(line)),
        Err(_) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "header line is not UTF-8",
        )),
    }
}

fn write_response(
    writer: &mut impl Write,
    shared: &Shared,
    response: &Response,
    keep_alive: bool,
) -> io::Result<()> {
    shared.metrics.http_response_counter(response.status).inc();
    let mut head = String::with_capacity(128);
    let _ = write!(
        head,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        reason_phrase(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    if let Some(seconds) = response.retry_after {
        let _ = write!(head, "Retry-After: {seconds}\r\n");
    }
    head.push_str("\r\n");
    writer.write_all(head.as_bytes())?;
    writer.write_all(&response.body)?;
    writer.flush()
}

// ---------------------------------------------------------------------------
// Routes
// ---------------------------------------------------------------------------

fn route(shared: &Shared, request: &HttpRequest, peer: Option<IpAddr>) -> Response {
    // Fairness charges the socket peer unless the operator explicitly
    // trusts a fronting proxy's X-Forwarded-For.
    let effective_peer = if shared.config.trust_forwarded_for {
        request.forwarded_for.or(peer)
    } else {
        peer
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/metrics") => Response {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: shared.metrics.render().into_bytes(),
            retry_after: None,
        },
        ("GET", "/healthz") => healthz(shared),
        ("GET", "/debug/last-queries") => last_queries(shared),
        ("POST", "/search") => search(shared, &request.body, effective_peer),
        ("POST", "/admin/reload") => admin_reload(shared, &request.body),
        ("POST", "/admin/drain") => admin_drain(shared),
        (
            "GET" | "HEAD" | "POST" | "PUT" | "DELETE",
            "/metrics"
            | "/healthz"
            | "/debug/last-queries"
            | "/search"
            | "/admin/reload"
            | "/admin/drain",
        ) => Response::text(405, "method not allowed\n"),
        _ => Response::text(404, "not found\n"),
    }
}

/// `POST /admin/reload`: hot-swap the index.  The body may name a path
/// (`{"path": "..."}`); with no body the server reloads the path it was
/// started with.  A rejected file leaves the serving epoch untouched.
fn admin_reload(shared: &Shared, body: &[u8]) -> Response {
    let path: PathBuf = if body.is_empty() {
        let configured = shared
            .index_path
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone();
        match configured {
            Some(path) => path,
            None => {
                return Response::bad_request(
                    "no index path configured; pass {\"path\": \"...\"} in the body",
                )
            }
        }
    } else {
        let text = match std::str::from_utf8(body) {
            Ok(text) => text,
            Err(_) => return Response::bad_request("body is not UTF-8"),
        };
        let fields = match parse_flat_json(text) {
            Ok(fields) => fields,
            Err(message) => return Response::bad_request(&message),
        };
        match fields.get("path") {
            Some(Json::Str(path)) if !path.is_empty() => PathBuf::from(path),
            _ => return Response::bad_request("body must carry a non-empty string \"path\""),
        }
    };

    match crate::reload::reload_index(shared, &path) {
        Ok(summary) => {
            let mut body = String::new();
            push_json_object(&mut body, |obj| {
                obj.string("status", "reloaded");
                obj.number("epoch", summary.epoch as f64);
                obj.number("records", summary.records as f64);
                obj.number("text_len", summary.text_len as f64);
                obj.number("took_ms", summary.took.as_secs_f64() * 1000.0);
            });
            Response::json(200, body)
        }
        Err(message) => Response::bad_request(&message),
    }
}

/// `POST /admin/drain`: flip the service into draining mode.  New
/// queries are refused immediately; the process watcher (`alae-serve`)
/// observes `drain_requested` and completes the drain + exit.  Embedders
/// without a watcher call [`crate::Server::drain`] themselves.
fn admin_drain(shared: &Shared) -> Response {
    shared.ready.store(false, Ordering::SeqCst);
    shared.metrics.index_loaded.set(0);
    shared.draining.store(true, Ordering::SeqCst);
    shared.drain_requested.store(true, Ordering::SeqCst);
    shared
        .trace
        .record_event("drain", "phase=requested via=http".to_string());
    let mut body = String::new();
    push_json_object(&mut body, |obj| {
        obj.string("status", "draining");
        obj.bool("draining", true);
    });
    Response::json(200, body)
}

fn healthz(shared: &Shared) -> Response {
    let index_loaded = shared.ready.load(Ordering::SeqCst);
    let live_workers = shared.live_workers.load(Ordering::SeqCst);
    let draining = shared.draining.load(Ordering::SeqCst);
    let healthy = index_loaded && live_workers > 0 && !draining;
    let mut body = String::new();
    push_json_object(&mut body, |obj| {
        obj.string(
            "status",
            if healthy {
                "ok"
            } else if draining {
                "draining"
            } else {
                "unavailable"
            },
        );
        obj.bool("index_loaded", index_loaded);
        obj.number("live_workers", live_workers as f64);
        obj.bool("draining", draining);
        obj.number("index_epoch", shared.index.epoch() as f64);
    });
    Response::json(if healthy { 200 } else { 503 }, body)
}

fn last_queries(shared: &Shared) -> Response {
    let mut body = String::new();
    for event in shared.trace.events_snapshot() {
        body.push_str(&event.render_line());
        body.push('\n');
    }
    for record in shared.trace.snapshot() {
        body.push_str(&record.render_line());
        body.push('\n');
    }
    if body.is_empty() {
        body.push_str("# no queries recorded yet\n");
    }
    Response::text(200, body)
}

fn search(shared: &Shared, body: &[u8], peer: Option<IpAddr>) -> Response {
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(_) => {
            shared.metrics.rejected_malformed.inc();
            return Response::bad_request("body is not UTF-8");
        }
    };
    let request = match parse_search_body(text, shared) {
        Ok(request) => request,
        Err(message) => {
            shared.metrics.rejected_malformed.inc();
            return Response::bad_request(&message);
        }
    };

    match submit(shared, request.request, request.codes, "http", peer) {
        Submission::Rejected(rejection) => rejection_response(&rejection),
        Submission::Invalid(summary) => render_search_response(&summary, &[]),
        Submission::Enqueued(rx) => {
            let mut hits = Vec::new();
            for event in rx.iter() {
                match event {
                    Event::Hit(hit) => hits.push(hit),
                    Event::Done(summary) => return render_search_response(&summary, &hits),
                }
            }
            // The worker side hung up without a done summary.
            let mut body = String::new();
            push_json_object(&mut body, |obj| {
                obj.string("error", "search worker failed");
            });
            Response::json(500, body)
        }
    }
}

/// Map a typed admission rejection onto HTTP: fairness refusals are 429
/// (the client's rate, not the server's state), capacity and draining
/// are 503; every one carries the `Retry-After` hint when there is one.
fn rejection_response(rejection: &Rejection) -> Response {
    let status = match rejection.reason {
        RejectReason::Fairness => 429,
        RejectReason::Capacity | RejectReason::Draining => 503,
    };
    let mut body = String::new();
    push_json_object(&mut body, |obj| {
        obj.string("error", &rejection.message);
        obj.string("reason", rejection.reason.label());
        match rejection.retry_after {
            Some(after) => obj.number("retry_after_ms", after.as_millis() as f64),
            None => obj.null("retry_after_ms"),
        }
    });
    let mut response = Response::json(status, body);
    response.retry_after = rejection
        .retry_after
        .map(|after| after.as_secs_f64().ceil().max(1.0) as u64);
    response
}

/// A parsed `POST /search` body: the facade request plus encoded codes.
struct ParsedSearch {
    request: SearchRequest,
    codes: Vec<u8>,
}

fn parse_search_body(text: &str, shared: &Shared) -> Result<ParsedSearch, String> {
    let fields = parse_flat_json(text)?;

    let query = match fields.get("query") {
        Some(Json::Str(query)) if !query.is_empty() => query,
        Some(Json::Str(_)) => return Err("\"query\" must not be empty".into()),
        Some(_) => return Err("\"query\" must be a string".into()),
        None => return Err("missing required field \"query\"".into()),
    };
    // Encode against the currently published epoch; `submit` re-pins and
    // re-validates, so a reload between here and admission is still safe
    // (the alphabet is a property of the database format, not the epoch).
    let pinned = shared.pin_index();
    let codes = pinned
        .db
        .alphabet()
        .encode(query.as_bytes())
        .map_err(|err| format!("query does not fit the database alphabet: {err}"))?;

    let threshold = optional_integer(&fields, "threshold")?;
    let evalue = optional_number(&fields, "evalue")?;
    let mut request = match (threshold, evalue) {
        (Some(_), Some(_)) => {
            return Err("give either \"threshold\" or \"evalue\", not both".into())
        }
        (Some(threshold), None) => {
            if threshold <= 0 {
                return Err("\"threshold\" must be positive".into());
            }
            SearchRequest::with_threshold(ScoringScheme::DEFAULT, threshold)
        }
        (None, Some(evalue)) => {
            if !evalue.is_finite() || evalue <= 0.0 {
                return Err("\"evalue\" must be positive".into());
            }
            SearchRequest::with_evalue(ScoringScheme::DEFAULT, evalue)
        }
        (None, None) => return Err("missing \"threshold\" or \"evalue\"".into()),
    };

    if let Some(Json::Str(label)) = fields.get("engine") {
        match EngineKind::from_label(label) {
            Some(engine) => request.engine = engine,
            None => return Err(format!("unknown engine \"{label}\"")),
        }
    } else if fields.contains_key("engine") {
        return Err("\"engine\" must be a string".into());
    }
    if let Some(top_k) = optional_integer(&fields, "top_k")? {
        if top_k < 0 {
            return Err("\"top_k\" must be non-negative".into());
        }
        request.top_k = Some(top_k as usize);
    }
    if let Some(deadline_ms) = optional_integer(&fields, "deadline_ms")? {
        if deadline_ms < 0 {
            return Err("\"deadline_ms\" must be non-negative".into());
        }
        request.deadline = Some(Duration::from_millis(deadline_ms as u64));
    }
    if let Some(work_budget) = optional_integer(&fields, "work_budget")? {
        if work_budget < 0 {
            return Err("\"work_budget\" must be non-negative".into());
        }
        request.work_budget = Some(work_budget as u64);
    }

    Ok(ParsedSearch { request, codes })
}

fn optional_number(fields: &HashMap<String, Json>, key: &str) -> Result<Option<f64>, String> {
    match fields.get(key) {
        None => Ok(None),
        Some(Json::Num(n)) => Ok(Some(*n)),
        Some(_) => Err(format!("\"{key}\" must be a number")),
    }
}

fn optional_integer(fields: &HashMap<String, Json>, key: &str) -> Result<Option<i64>, String> {
    match optional_number(fields, key)? {
        None => Ok(None),
        Some(n) if n.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(&n) => {
            Ok(Some(n as i64))
        }
        Some(_) => Err(format!("\"{key}\" must be an integer")),
    }
}

fn render_search_response(summary: &DoneSummary, hits: &[alae::search::SearchHit]) -> Response {
    let mut body = String::with_capacity(256 + hits.len() * 128);
    push_json_object(&mut body, |obj| {
        obj.string("engine", summary.engine.label());
        obj.number("threshold", summary.threshold as f64);
        obj.string("termination", summary.termination.label());
        obj.number("delivered", summary.delivered as f64);
        obj.number("raw_hit_count", summary.raw_hit_count as f64);
        obj.raw("hits", |out| {
            out.push('[');
            for (i, hit) in hits.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_object(out, |h| {
                    h.number("record", hit.record as f64);
                    h.string("name", &hit.name);
                    h.number("record_end", hit.record_end as f64);
                    h.number("query_end", hit.query_end as f64);
                    h.number("text_end", hit.text_end as f64);
                    h.number("score", hit.score as f64);
                    match hit.evalue {
                        Some(evalue) => h.number("evalue", evalue),
                        None => h.null("evalue"),
                    }
                });
            }
            out.push(']');
        });
    });
    Response::json(200, body)
}

// ---------------------------------------------------------------------------
// Minimal JSON (flat objects, string/number/bool/null values)
// ---------------------------------------------------------------------------

/// The value subset the `POST /search` body accepts.  Nested objects and
/// arrays are rejected — the contract is deliberately flat (see
/// `docs/metrics.md`).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Str(String),
    Num(f64),
    Bool(bool),
    Null,
}

/// Parse a flat JSON object (`{"key": value, ...}`) into a map.
fn parse_flat_json(text: &str) -> Result<HashMap<String, Json>, String> {
    let mut chars = text.char_indices().peekable();
    skip_ws(&mut chars);
    if chars.next().map(|(_, c)| c) != Some('{') {
        return Err("body must be a JSON object".into());
    }
    let mut fields = HashMap::new();
    skip_ws(&mut chars);
    if chars.peek().map(|&(_, c)| c) == Some('}') {
        chars.next();
        skip_ws(&mut chars);
        return finish(chars, fields);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next().map(|(_, c)| c) != Some(':') {
            return Err(format!("expected ':' after key \"{key}\""));
        }
        skip_ws(&mut chars);
        let value = parse_value(&mut chars)?;
        fields.insert(key, value);
        skip_ws(&mut chars);
        match chars.next().map(|(_, c)| c) {
            Some(',') => continue,
            Some('}') => {
                skip_ws(&mut chars);
                return finish(chars, fields);
            }
            _ => return Err("expected ',' or '}' after a value".into()),
        }
    }
}

type Chars<'a> = std::iter::Peekable<std::str::CharIndices<'a>>;

fn finish(
    mut chars: Chars<'_>,
    fields: HashMap<String, Json>,
) -> Result<HashMap<String, Json>, String> {
    match chars.next() {
        None => Ok(fields),
        Some(_) => Err("trailing data after the JSON object".into()),
    }
}

fn skip_ws(chars: &mut Chars<'_>) {
    while matches!(chars.peek(), Some(&(_, c)) if c.is_ascii_whitespace()) {
        chars.next();
    }
}

fn parse_value(chars: &mut Chars<'_>) -> Result<Json, String> {
    match chars.peek().map(|&(_, c)| c) {
        Some('"') => Ok(Json::Str(parse_string(chars)?)),
        Some('t') => expect_literal(chars, "true", Json::Bool(true)),
        Some('f') => expect_literal(chars, "false", Json::Bool(false)),
        Some('n') => expect_literal(chars, "null", Json::Null),
        Some(c) if c == '-' || c.is_ascii_digit() => parse_number(chars),
        Some('{') | Some('[') => Err("nested objects/arrays are not accepted".into()),
        _ => Err("expected a JSON value".into()),
    }
}

fn expect_literal(chars: &mut Chars<'_>, literal: &str, value: Json) -> Result<Json, String> {
    for expected in literal.chars() {
        if chars.next().map(|(_, c)| c) != Some(expected) {
            return Err(format!("expected literal `{literal}`"));
        }
    }
    Ok(value)
}

fn parse_number(chars: &mut Chars<'_>) -> Result<Json, String> {
    let mut text = String::new();
    while let Some(&(_, c)) = chars.peek() {
        if c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' || c.is_ascii_digit() {
            text.push(c);
            chars.next();
        } else {
            break;
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number `{text}`"))
}

fn parse_string(chars: &mut Chars<'_>) -> Result<String, String> {
    if chars.next().map(|(_, c)| c) != Some('"') {
        return Err("expected a string".into());
    }
    let mut out = String::new();
    loop {
        let Some((_, c)) = chars.next() else {
            return Err("unterminated string".into());
        };
        match c {
            '"' => return Ok(out),
            '\\' => {
                let Some((_, escape)) = chars.next() else {
                    return Err("unterminated escape".into());
                };
                match escape {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    'r' => out.push('\r'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let Some((_, digit)) = chars.next() else {
                                return Err("truncated \\u escape".into());
                            };
                            let Some(value) = digit.to_digit(16) else {
                                return Err("bad \\u escape".into());
                            };
                            code = code * 16 + value;
                        }
                        match char::from_u32(code) {
                            Some(decoded) => out.push(decoded),
                            None => return Err("surrogate \\u escapes are not accepted".into()),
                        }
                    }
                    other => return Err(format!("unknown escape `\\{other}`")),
                }
            }
            _ => out.push(c),
        }
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON writer
// ---------------------------------------------------------------------------

/// Field-appender handed to the [`push_json_object`] closure.
struct JsonObject<'a> {
    out: &'a mut String,
    first: bool,
}

impl JsonObject<'_> {
    fn key(&mut self, key: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        push_json_string(self.out, key);
        self.out.push(':');
    }

    fn string(&mut self, key: &str, value: &str) {
        self.key(key);
        push_json_string(self.out, value);
    }

    fn number(&mut self, key: &str, value: f64) {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.out, "{value}");
        } else {
            self.out.push_str("null");
        }
    }

    fn bool(&mut self, key: &str, value: bool) {
        self.key(key);
        self.out.push_str(if value { "true" } else { "false" });
    }

    fn null(&mut self, key: &str) {
        self.key(key);
        self.out.push_str("null");
    }

    fn raw(&mut self, key: &str, fill: impl FnOnce(&mut String)) {
        self.key(key);
        fill(self.out);
    }
}

fn push_json_object(out: &mut String, fill: impl FnOnce(&mut JsonObject<'_>)) {
    out.push('{');
    let mut obj = JsonObject { out, first: true };
    fill(&mut obj);
    out.push('}');
}

fn push_json_string(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_flat_search_body() {
        let fields = parse_flat_json(
            r#"{ "query": "ACGT", "engine": "alae", "threshold": 12, "top_k": 5, "stream": false, "note": null }"#,
        )
        .unwrap();
        assert_eq!(fields.get("query"), Some(&Json::Str("ACGT".into())));
        assert_eq!(fields.get("threshold"), Some(&Json::Num(12.0)));
        assert_eq!(fields.get("top_k"), Some(&Json::Num(5.0)));
        assert_eq!(fields.get("stream"), Some(&Json::Bool(false)));
        assert_eq!(fields.get("note"), Some(&Json::Null));
    }

    #[test]
    fn rejects_nested_and_trailing_junk() {
        assert!(parse_flat_json(r#"{"a": {"b": 1}}"#).is_err());
        assert!(parse_flat_json(r#"{"a": [1]}"#).is_err());
        assert!(parse_flat_json(r#"{"a": 1} extra"#).is_err());
        assert!(parse_flat_json("not json").is_err());
        assert!(parse_flat_json(r#"{"a": }"#).is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let fields = parse_flat_json(r#"{"s": "a\"b\\c\ndA"}"#).unwrap();
        assert_eq!(fields.get("s"), Some(&Json::Str("a\"b\\c\ndA".into())));
        let mut out = String::new();
        push_json_string(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn empty_object_parses() {
        assert!(parse_flat_json("{}").unwrap().is_empty());
        assert!(parse_flat_json("  { }  ").unwrap().is_empty());
    }
}
