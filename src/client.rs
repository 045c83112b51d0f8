//! A blocking TCP client for the `alae-serve` daemon.
//!
//! The client speaks the [`crate::wire`] protocol over one
//! [`std::net::TcpStream`].  Each [`Client::search`] call is a complete
//! request/response exchange: the request frame goes out, hit frames are
//! collected as they stream in, and the closing done frame is folded into a
//! regular [`SearchResponse`] — so code written against [`crate::search`]
//! works unchanged whether the index lives in-process or behind a socket.
//!
//! ```no_run
//! use alae::bioseq::{Alphabet, ScoringScheme, Sequence};
//! use alae::client::Client;
//! use alae::search::SearchRequest;
//!
//! let mut client = Client::connect("127.0.0.1:7878")?;
//! let request = SearchRequest::with_threshold(ScoringScheme::DEFAULT, 6);
//! let query = Sequence::from_ascii(Alphabet::Dna, b"GCTAGCAT").unwrap();
//! let response = client.search(&request, &query)?;
//! for hit in &response.hits {
//!     println!("{} @ {}..{} score {}", hit.name, hit.record_end, hit.query_end, hit.score);
//! }
//! # std::io::Result::Ok(())
//! ```
//!
//! # Retries
//!
//! A [`RetryPolicy`] bounds how hard the client fights transient failure:
//! refused connects, typed fairness/draining rejections from the server
//! ([`crate::wire::Rejection`]), and mid-stream disconnects that happen
//! *before* the first hit frame arrives are retried with decorrelated-jitter
//! backoff.  Once a hit has streamed, the exchange is never replayed — a
//! retry would silently double results.  [`Client::connect`] defaults to
//! [`RetryPolicy::none`] so existing callers keep strict fail-fast
//! semantics; opt in with [`Client::connect_with`] or
//! [`Client::set_retry_policy`].

use crate::bioseq::Sequence;
use crate::search::{SearchHit, SearchRequest, SearchResponse};
use crate::wire::{
    decode_done, decode_error, decode_hit, decode_rejection, encode_request, read_frame,
    response_from_stream, write_frame, FrameKind, RejectReason, Rejection,
};
use std::fmt;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::thread;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Bounds on automatic retries for transient failures.
///
/// Backoff is decorrelated jitter: each delay is drawn uniformly from
/// `base ..= min(cap, prev * 3)`, so concurrent clients spread out instead
/// of thundering back in lockstep.  When the server supplies a
/// `Retry-After`-style hint in a typed rejection, that hint is used for the
/// next delay instead (still capped by `cap`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// Smallest backoff delay.
    pub base: Duration,
    /// Largest backoff delay.
    pub cap: Duration,
}

impl RetryPolicy {
    /// No retries: every failure is immediately surfaced.
    pub fn none() -> Self {
        Self {
            max_retries: 0,
            base: Duration::ZERO,
            cap: Duration::ZERO,
        }
    }

    /// A sane default for interactive clients: up to 3 retries between
    /// 25 ms and 2 s.
    pub fn standard() -> Self {
        Self {
            max_retries: 3,
            base: Duration::from_millis(25),
            cap: Duration::from_secs(2),
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::standard()
    }
}

/// A typed admission refusal from the server, carried inside the
/// [`io::Error`] returned by [`Client::search`].
///
/// Recover it with [`io::Error::get_ref`] +
/// [`downcast_ref`](std::error::Error):
///
/// ```no_run
/// # use alae::client::RejectedError;
/// # let err = std::io::Error::other("x");
/// if let Some(rejected) = err.get_ref().and_then(|e| e.downcast_ref::<RejectedError>()) {
///     eprintln!("server said: {}", rejected.rejection().message);
/// }
/// ```
#[derive(Debug)]
pub struct RejectedError(Rejection);

impl RejectedError {
    /// The decoded rejection frame.
    pub fn rejection(&self) -> &Rejection {
        &self.0
    }
}

impl fmt::Display for RejectedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "server rejected request ({}): {}",
            self.0.reason.label(),
            self.0.message
        )
    }
}

impl std::error::Error for RejectedError {}

/// Decorrelated-jitter backoff state (xorshift64* over a time-derived
/// seed — no external RNG crates).
#[derive(Debug)]
struct Backoff {
    policy: RetryPolicy,
    prev: Duration,
    state: u64,
}

impl Backoff {
    fn new(policy: RetryPolicy) -> Self {
        let now = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or(Duration::ZERO);
        let seed = now
            .as_nanos()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x2545_F491_4F6C_DD1D) as u64;
        Self {
            policy,
            prev: policy.base,
            state: seed | 1,
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Next delay, honoring an optional server-supplied hint.
    fn next_delay(&mut self, hint: Option<Duration>) -> Duration {
        if let Some(hint) = hint {
            let delay = if self.policy.cap.is_zero() {
                hint
            } else {
                hint.min(self.policy.cap)
            };
            self.prev = delay.max(self.policy.base);
            return delay;
        }
        let hi = self.prev.saturating_mul(3).min(self.policy.cap);
        let lo = self.policy.base.min(hi);
        let span_nanos = hi.saturating_sub(lo).as_nanos() as u64;
        let jitter = if span_nanos == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos(self.next_u64() % (span_nanos + 1))
        };
        let delay = lo + jitter;
        self.prev = delay.max(self.policy.base);
        delay
    }
}

/// One failed attempt: the error, whether the policy may retry it, and an
/// optional server-supplied delay hint.
struct AttemptError {
    err: io::Error,
    retryable: bool,
    retry_after: Option<Duration>,
}

impl AttemptError {
    fn fatal(err: io::Error) -> Self {
        Self {
            err,
            retryable: false,
            retry_after: None,
        }
    }

    fn transient(err: io::Error) -> Self {
        Self {
            err,
            retryable: true,
            retry_after: None,
        }
    }
}

/// An established connection's buffered halves.
#[derive(Debug)]
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// A connection to a running `alae-serve` instance.
///
/// The connection is used serially: one in-flight request at a time.  Open
/// several clients for concurrency — the server's workers search requests
/// from different connections in parallel.  The client reconnects
/// transparently when its [`RetryPolicy`] allows.
#[derive(Debug)]
pub struct Client {
    addrs: Vec<SocketAddr>,
    conn: Option<Conn>,
    policy: RetryPolicy,
    read_timeout: Option<Duration>,
}

impl Client {
    /// Connect to a server address (e.g. `"127.0.0.1:7878"`).
    ///
    /// The connect is eager and fail-fast ([`RetryPolicy::none`]); use
    /// [`Client::connect_with`] for retrying behavior.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::connect_with(addr, RetryPolicy::none())
    }

    /// Connect with an explicit retry policy.  The initial connect itself
    /// is retried per the policy, as are later reconnects and retryable
    /// search failures.
    pub fn connect_with(addr: impl ToSocketAddrs, policy: RetryPolicy) -> io::Result<Self> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "address resolved to no socket addresses",
            ));
        }
        let mut client = Self {
            addrs,
            conn: None,
            policy,
            read_timeout: None,
        };
        let mut backoff = Backoff::new(policy);
        let mut attempts = 0u32;
        loop {
            match client.open_conn() {
                Ok(conn) => {
                    client.conn = Some(conn);
                    return Ok(client);
                }
                Err(err) if attempts < policy.max_retries => {
                    attempts += 1;
                    thread::sleep(backoff.next_delay(None));
                    let _ = err;
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// Replace the retry policy for subsequent [`Client::search`] calls.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
    }

    /// The active retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Bound how long [`Client::search`] may block waiting on the server
    /// for a single read.  `None` (the default) waits indefinitely.  The
    /// bound survives reconnects.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.read_timeout = timeout;
        if let Some(conn) = &self.conn {
            conn.reader.get_ref().set_read_timeout(timeout)?;
        }
        Ok(())
    }

    fn open_conn(&self) -> io::Result<Conn> {
        let stream = TcpStream::connect(&self.addrs[..])?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(self.read_timeout)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Run one search against the server's index.
    ///
    /// Hits stream in canonical best-first order and are returned
    /// as a regular [`SearchResponse`]; server-side guardrail outcomes
    /// (deadline, budget) arrive through the response's `termination`.
    /// Requests the server refuses outright surface as [`io::Error`]s —
    /// typed fairness/draining refusals carry a [`RejectedError`] payload.
    /// Transient failures (refused connect, fairness rejection, disconnect
    /// before the first hit) are retried per the [`RetryPolicy`]; once a
    /// hit has streamed the exchange is never replayed.
    pub fn search(
        &mut self,
        request: &SearchRequest,
        query: &Sequence,
    ) -> io::Result<SearchResponse> {
        let mut backoff = Backoff::new(self.policy);
        let mut attempts = 0u32;
        loop {
            match self.try_search(request, query) {
                Ok(response) => return Ok(response),
                Err(attempt) => {
                    if !attempt.retryable || attempts >= self.policy.max_retries {
                        return Err(attempt.err);
                    }
                    attempts += 1;
                    thread::sleep(backoff.next_delay(attempt.retry_after));
                }
            }
        }
    }

    /// One request/response exchange; on any I/O failure the connection is
    /// discarded so the next attempt reconnects fresh.
    fn try_search(
        &mut self,
        request: &SearchRequest,
        query: &Sequence,
    ) -> Result<SearchResponse, AttemptError> {
        if self.conn.is_none() {
            match self.open_conn() {
                Ok(conn) => self.conn = Some(conn),
                Err(err) => return Err(AttemptError::transient(err)),
            }
        }
        let result = match self.conn.as_mut() {
            Some(conn) => Self::exchange(conn, request, query),
            None => {
                return Err(AttemptError::transient(io::Error::other(
                    "connection unavailable",
                )))
            }
        };
        if result.is_err() {
            // Frame alignment is unknown after any failure; reconnect.
            self.conn = None;
        }
        result
    }

    fn exchange(
        conn: &mut Conn,
        request: &SearchRequest,
        query: &Sequence,
    ) -> Result<SearchResponse, AttemptError> {
        let payload = encode_request(request, query.codes());
        write_frame(&mut conn.writer, FrameKind::Request, &payload)
            .and_then(|()| conn.writer.flush())
            .map_err(AttemptError::transient)?;

        let mut hits: Vec<SearchHit> = Vec::new();
        loop {
            let frame = read_frame(&mut conn.reader).map_err(|err| AttemptError {
                err,
                // A torn read after hits started streaming must not replay
                // the exchange: the caller would see doubled results.
                retryable: hits.is_empty(),
                retry_after: None,
            })?;
            let (kind, payload) = match frame {
                Some(frame) => frame,
                None => {
                    return Err(AttemptError {
                        err: io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server closed the connection mid-response",
                        ),
                        retryable: hits.is_empty(),
                        retry_after: None,
                    });
                }
            };
            match kind {
                FrameKind::Hit => {
                    hits.push(decode_hit(&payload).map_err(|e| AttemptError::fatal(e.into()))?)
                }
                FrameKind::Done => {
                    let summary =
                        decode_done(&payload).map_err(|e| AttemptError::fatal(e.into()))?;
                    return Ok(response_from_stream(hits, summary));
                }
                FrameKind::Error => {
                    let message =
                        decode_error(&payload).map_err(|e| AttemptError::fatal(e.into()))?;
                    return Err(AttemptError::fatal(io::Error::other(format!(
                        "server refused request: {message}"
                    ))));
                }
                FrameKind::Rejected => {
                    let rejection =
                        decode_rejection(&payload).map_err(|e| AttemptError::fatal(e.into()))?;
                    let retryable = matches!(
                        rejection.reason,
                        RejectReason::Fairness | RejectReason::Draining
                    );
                    let retry_after = rejection.retry_after;
                    return Err(AttemptError {
                        err: io::Error::new(
                            io::ErrorKind::ConnectionRefused,
                            RejectedError(rejection),
                        ),
                        retryable,
                        retry_after,
                    });
                }
                FrameKind::Request => {
                    return Err(AttemptError::fatal(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "server sent a request frame",
                    )));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_delays_stay_in_bounds() {
        let policy = RetryPolicy {
            max_retries: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
        };
        let mut backoff = Backoff::new(policy);
        for _ in 0..64 {
            let d = backoff.next_delay(None);
            assert!(d >= policy.base, "delay {d:?} under base");
            assert!(d <= policy.cap, "delay {d:?} over cap");
        }
    }

    #[test]
    fn backoff_honors_server_hint() {
        let policy = RetryPolicy::standard();
        let mut backoff = Backoff::new(policy);
        let hint = Duration::from_millis(150);
        assert_eq!(backoff.next_delay(Some(hint)), hint);
        // A hint above the cap is clamped.
        let big = Duration::from_secs(60);
        assert_eq!(backoff.next_delay(Some(big)), policy.cap);
    }

    #[test]
    fn none_policy_is_fail_fast() {
        let policy = RetryPolicy::none();
        assert_eq!(policy.max_retries, 0);
        let mut backoff = Backoff::new(policy);
        assert_eq!(backoff.next_delay(None), Duration::ZERO);
    }

    #[test]
    fn rejected_error_downcasts_from_io_error() {
        let rejection = Rejection {
            reason: RejectReason::Fairness,
            retry_after: Some(Duration::from_millis(40)),
            message: "token bucket empty".to_string(),
        };
        let err = io::Error::new(
            io::ErrorKind::ConnectionRefused,
            RejectedError(rejection.clone()),
        );
        let inner = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<RejectedError>())
            .expect("downcast");
        assert_eq!(inner.rejection(), &rejection);
    }
}
