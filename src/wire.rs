//! The wire protocol shared by [`crate::client`] and the `alae-server`
//! crate.
//!
//! Everything is hand-rolled over `std` — no serde, no crates.io.  A
//! connection carries length-prefixed frames:
//!
//! ```text
//! u32 LE payload length | u8 frame kind | payload
//! ```
//!
//! One exchange is: client sends a [`FrameKind::Request`] frame; the server
//! streams zero or more [`FrameKind::Hit`] frames (one per alignment, in
//! canonical best-first order) and finishes with one [`FrameKind::Done`]
//! frame carrying the threshold, termination and engine counters — or a
//! single [`FrameKind::Error`] frame when the request could not be run at
//! all (malformed frame), or a typed [`FrameKind::Rejected`] frame when
//! the server refused admission deliberately (capacity, per-peer
//! fairness, drain) — the rejection carries a machine-readable reason and
//! an optional retry-after hint so clients can back off intelligently.
//!
//! The request payload opens with a fixed-order encoding of every
//! [`SearchRequest`] field (the *configuration prefix*), followed by the
//! query codes.  Servers use the raw configuration-prefix bytes as the
//! batching fingerprint: two in-flight requests with byte-identical
//! prefixes can share one `Searcher` and one `search_batch` wave.
//!
//! Deliberately **not** on the wire: the fault-injection plan (a test-only
//! compile feature).

use crate::search::{
    EngineCounters, EngineKind, SearchError, SearchHit, SearchRequest, SearchResponse, Termination,
};
use alae_bioseq::{Alphabet, ScoringScheme};
use alae_blast_like::BlastStats;
use alae_bwtsw::BwtswStats;
use alae_core::{AlaeStats, ThresholdSpec};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest accepted frame payload (64 MiB) — caps memory a malformed or
/// hostile peer can make either side allocate.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Bytes a frame with a `len`-byte payload occupies on the wire (the u32
/// length prefix, the kind byte, the payload).
pub const FRAME_OVERHEAD: usize = 5;

// ---------------------------------------------------------------------------
// Byte accounting
// ---------------------------------------------------------------------------

/// A [`Read`] adapter adding every byte read from the inner reader to a
/// shared atomic cell.
///
/// The server wraps each connection's stream in one of these so the
/// `alae_wire_bytes_total{direction="read"}` metric counts real socket
/// traffic — partial reads, aborted frames and all — instead of
/// reconstructing sizes from decoded frames.
#[derive(Debug)]
pub struct CountingReader<R> {
    inner: R,
    count: Arc<AtomicU64>,
}

impl<R: Read> CountingReader<R> {
    /// Wrap `inner`; every byte read is added to `count`.
    pub fn new(inner: R, count: Arc<AtomicU64>) -> Self {
        Self { inner, count }
    }

    /// The wrapped reader.
    pub fn get_ref(&self) -> &R {
        &self.inner
    }
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.count.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

/// The [`Write`] twin of [`CountingReader`]: adds every byte accepted by
/// the inner writer to a shared atomic cell (flushes pass through).
#[derive(Debug)]
pub struct CountingWriter<W> {
    inner: W,
    count: Arc<AtomicU64>,
}

impl<W: Write> CountingWriter<W> {
    /// Wrap `inner`; every byte written is added to `count`.
    pub fn new(inner: W, count: Arc<AtomicU64>) -> Self {
        Self { inner, count }
    }

    /// The wrapped writer.
    pub fn get_ref(&self) -> &W {
        &self.inner
    }
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.count.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A [`Read`] adapter that caps throughput at `bytes_per_sec`, sleeping
/// between reads once the current one-second window's budget is spent.
///
/// The server's fault-injection layer (`slow-read=BYTES/S` in a
/// `FaultPlan`) wraps connection streams in one of these to emulate a
/// peer on a pathologically slow link — deterministic slow-loris
/// conditions without real packet shaping.
#[derive(Debug)]
pub struct ThrottledReader<R> {
    inner: R,
    bytes_per_sec: u64,
    window_started: Option<Instant>,
    spent_in_window: u64,
}

impl<R: Read> ThrottledReader<R> {
    /// Wrap `inner`, allowing at most `bytes_per_sec` bytes through per
    /// one-second window (a rate of 0 is clamped to 1).
    pub fn new(inner: R, bytes_per_sec: u64) -> Self {
        Self {
            inner,
            bytes_per_sec: bytes_per_sec.max(1),
            window_started: None,
            spent_in_window: 0,
        }
    }
}

impl<R: Read> Read for ThrottledReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let window = Duration::from_secs(1);
        let mut started = *self.window_started.get_or_insert_with(Instant::now);
        if self.spent_in_window >= self.bytes_per_sec {
            let elapsed = started.elapsed();
            if elapsed < window {
                std::thread::sleep(window - elapsed);
            }
            started = Instant::now();
            self.window_started = Some(started);
            self.spent_in_window = 0;
        } else if started.elapsed() >= window {
            self.window_started = Some(Instant::now());
            self.spent_in_window = 0;
        }
        let budget = (self.bytes_per_sec - self.spent_in_window) as usize;
        let cap = budget.min(buf.len()).max(1);
        let n = self.inner.read(&mut buf[..cap])?;
        self.spent_in_window += n as u64;
        Ok(n)
    }
}

/// Frame kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: one search request (config prefix + query codes).
    Request = 1,
    /// Server → client: one alignment hit.
    Hit = 2,
    /// Server → client: end of stream (threshold, termination, counters).
    Done = 3,
    /// Server → client: the request could not be run at all.
    Error = 4,
    /// Server → client: admission was refused deliberately; the payload
    /// is a typed [`Rejection`] (reason + optional retry-after hint).
    Rejected = 5,
}

impl FrameKind {
    fn from_u8(byte: u8) -> Result<Self, WireError> {
        match byte {
            1 => Ok(Self::Request),
            2 => Ok(Self::Hit),
            3 => Ok(Self::Done),
            4 => Ok(Self::Error),
            5 => Ok(Self::Rejected),
            other => Err(WireError::new(format!("unknown frame kind {other}"))),
        }
    }
}

/// A malformed frame or payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(String);

impl WireError {
    fn new(message: impl Into<String>) -> Self {
        Self(message.into())
    }

    /// Human-readable description.
    pub fn message(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire protocol error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(err: WireError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, err)
    }
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

/// Write one frame.
pub fn write_frame(out: &mut impl Write, kind: FrameKind, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(WireError::new("frame payload exceeds MAX_FRAME_LEN").into());
    }
    out.write_all(&(payload.len() as u32).to_le_bytes())?;
    out.write_all(&[kind as u8])?;
    out.write_all(payload)?;
    Ok(())
}

/// Read one frame; `Ok(None)` on a clean EOF at a frame boundary.
pub fn read_frame(input: &mut impl Read) -> io::Result<Option<(FrameKind, Vec<u8>)>> {
    let mut len_bytes = [0u8; 4];
    match input.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(err) if err.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(err) => return Err(err),
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::new(format!("frame of {len} bytes exceeds cap")).into());
    }
    let mut kind_byte = [0u8; 1];
    input.read_exact(&mut kind_byte)?;
    let kind = FrameKind::from_u8(kind_byte[0])?;
    let mut payload = vec![0u8; len];
    input.read_exact(&mut payload)?;
    Ok(Some((kind, payload)))
}

// ---------------------------------------------------------------------------
// Primitive codecs
// ---------------------------------------------------------------------------

/// Append-only payload builder.
#[derive(Debug, Default)]
pub struct PayloadWriter(Vec<u8>);

impl PayloadWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }

    pub fn put_u8(&mut self, v: u8) {
        self.0.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i64(&mut self, v: i64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.put_u8(1);
                self.put_u64(v);
            }
            None => self.put_u8(0),
        }
    }

    pub fn put_opt_i64(&mut self, v: Option<i64>) {
        match v {
            Some(v) => {
                self.put_u8(1);
                self.put_i64(v);
            }
            None => self.put_u8(0),
        }
    }

    /// `u32` length prefix + raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u32(bytes.len() as u32);
        self.0.extend_from_slice(bytes);
    }
}

/// Cursor over a received payload.
#[derive(Debug)]
pub struct PayloadReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::new("payload truncated"));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// `take`, as a fixed-size array (the serving path is panic-free, so
    /// the length mismatch arm is a typed error even though `take(N)`
    /// always returns exactly `N` bytes).
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        self.take(N)?
            .try_into()
            .map_err(|_| WireError::new("payload truncated"))
    }

    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take_array()?))
    }

    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    pub fn get_opt_u64(&mut self) -> Result<Option<u64>, WireError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_u64()?)),
            other => Err(WireError::new(format!("bad option tag {other}"))),
        }
    }

    pub fn get_opt_i64(&mut self) -> Result<Option<i64>, WireError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_i64()?)),
            other => Err(WireError::new(format!("bad option tag {other}"))),
        }
    }

    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    fn get_usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.get_u64()?).map_err(|_| WireError::new("usize overflow"))
    }

    fn get_opt_usize(&mut self) -> Result<Option<usize>, WireError> {
        Ok(match self.get_opt_u64()? {
            Some(v) => Some(usize::try_from(v).map_err(|_| WireError::new("usize overflow"))?),
            None => None,
        })
    }
}

// ---------------------------------------------------------------------------
// Enum tags
// ---------------------------------------------------------------------------

fn engine_to_u8(kind: EngineKind) -> u8 {
    match kind {
        EngineKind::Alae => 0,
        EngineKind::Bwtsw => 1,
        EngineKind::BlastLike => 2,
        EngineKind::SmithWaterman => 3,
    }
}

fn engine_from_u8(byte: u8) -> Result<EngineKind, WireError> {
    match byte {
        0 => Ok(EngineKind::Alae),
        1 => Ok(EngineKind::Bwtsw),
        2 => Ok(EngineKind::BlastLike),
        3 => Ok(EngineKind::SmithWaterman),
        other => Err(WireError::new(format!("unknown engine tag {other}"))),
    }
}

fn alphabet_to_u8(alphabet: Alphabet) -> u8 {
    match alphabet {
        Alphabet::Dna => 0,
        Alphabet::Protein => 1,
    }
}

fn alphabet_from_u8(byte: u8) -> Result<Alphabet, WireError> {
    match byte {
        0 => Ok(Alphabet::Dna),
        1 => Ok(Alphabet::Protein),
        other => Err(WireError::new(format!("unknown alphabet tag {other}"))),
    }
}

// ---------------------------------------------------------------------------
// Request
// ---------------------------------------------------------------------------

/// Encode the configuration prefix alone (every request field, fixed
/// order).  Byte-identical prefixes ⇔ behaviorally identical requests —
/// servers key their searcher cache and batch waves on these bytes.
pub fn encode_request_config(request: &SearchRequest) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.put_u8(engine_to_u8(request.engine));
    w.put_i64(request.scheme.sa);
    w.put_i64(request.scheme.sb);
    w.put_i64(request.scheme.sg);
    w.put_i64(request.scheme.ss);
    match request.threshold {
        ThresholdSpec::Score(h) => {
            w.put_u8(0);
            w.put_i64(h);
        }
        ThresholdSpec::EValue(e) => {
            w.put_u8(1);
            w.put_f64(e);
        }
    }
    let filters = &request.filters;
    let mask = (filters.length_filter as u8)
        | (filters.score_filter as u8) << 1
        | (filters.domination_filter as u8) << 2
        | (filters.reuse as u8) << 3;
    w.put_u8(mask);
    w.put_opt_u64(request.top_k.map(|v| v as u64));
    w.put_opt_i64(request.min_score);
    w.put_opt_u64(request.max_hits_per_record.map(|v| v as u64));
    w.put_opt_u64(request.max_depth.map(|v| v as u64));
    w.put_opt_u64(request.deadline.map(|d| d.as_millis() as u64));
    w.put_opt_u64(request.work_budget);
    w.put_opt_u64(request.memory_budget);
    w.put_opt_u64(request.poll_interval.map(u64::from));
    w.into_bytes()
}

/// Encode a full request frame payload: configuration prefix + query codes.
pub fn encode_request(request: &SearchRequest, query_codes: &[u8]) -> Vec<u8> {
    let mut w = PayloadWriter(encode_request_config(request));
    w.put_bytes(query_codes);
    w.into_bytes()
}

/// A decoded request frame: the rebuilt [`SearchRequest`], the raw
/// configuration-prefix bytes (the batching fingerprint) and the query
/// codes.
#[derive(Debug, Clone)]
pub struct DecodedRequest {
    /// The request, reconstructed field by field.
    pub request: SearchRequest,
    /// The configuration prefix exactly as received.
    pub config_key: Vec<u8>,
    /// The query, as alphabet codes.
    pub query_codes: Vec<u8>,
}

/// Decode a request frame payload.
pub fn decode_request(payload: &[u8]) -> Result<DecodedRequest, WireError> {
    let mut r = PayloadReader::new(payload);
    let engine = engine_from_u8(r.get_u8()?)?;
    let scheme = ScoringScheme {
        sa: r.get_i64()?,
        sb: r.get_i64()?,
        sg: r.get_i64()?,
        ss: r.get_i64()?,
    };
    let threshold = match r.get_u8()? {
        0 => {
            let h = r.get_i64()?;
            if h <= 0 {
                return Err(WireError::new("threshold must be positive"));
            }
            ThresholdSpec::Score(h)
        }
        1 => {
            let e = r.get_f64()?;
            if !e.is_finite() || e <= 0.0 {
                return Err(WireError::new("E-value must be positive"));
            }
            ThresholdSpec::EValue(e)
        }
        other => return Err(WireError::new(format!("unknown threshold tag {other}"))),
    };
    let mask = r.get_u8()?;
    if mask > 0b1111 {
        return Err(WireError::new("unknown filter bits set"));
    }
    let top_k = r.get_opt_usize()?;
    let min_score = r.get_opt_i64()?;
    let max_hits_per_record = r.get_opt_usize()?;
    let max_depth = r.get_opt_usize()?;
    let deadline = r.get_opt_u64()?.map(Duration::from_millis);
    let work_budget = r.get_opt_u64()?;
    let memory_budget = r.get_opt_u64()?;
    let poll_interval = match r.get_opt_u64()? {
        Some(v) => {
            Some(u32::try_from(v).map_err(|_| WireError::new("poll interval overflows u32"))?)
        }
        None => None,
    };
    let config_len = payload.len() - r.remaining();
    let query_codes = r.get_bytes()?.to_vec();
    if r.remaining() != 0 {
        return Err(WireError::new("trailing bytes after query"));
    }

    let mut request = match threshold {
        ThresholdSpec::Score(h) => SearchRequest::with_threshold(scheme, h),
        ThresholdSpec::EValue(e) => SearchRequest::with_evalue(scheme, e),
    }
    .engine(engine)
    .filters(crate::core::FilterToggles {
        length_filter: mask & 1 != 0,
        score_filter: mask & 2 != 0,
        domination_filter: mask & 4 != 0,
        reuse: mask & 8 != 0,
    });
    request.top_k = top_k;
    request.min_score = min_score;
    request.max_hits_per_record = max_hits_per_record;
    request.max_depth = max_depth;
    request.deadline = deadline;
    request.work_budget = work_budget;
    request.memory_budget = memory_budget;
    request.poll_interval = poll_interval;

    Ok(DecodedRequest {
        request,
        config_key: payload[..config_len].to_vec(),
        query_codes,
    })
}

// ---------------------------------------------------------------------------
// Hit
// ---------------------------------------------------------------------------

/// Encode one hit frame payload.
pub fn encode_hit(hit: &SearchHit) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.put_u64(hit.record as u64);
    w.put_bytes(hit.name.as_bytes());
    w.put_u64(hit.record_end as u64);
    w.put_u64(hit.query_end as u64);
    w.put_u64(hit.text_end as u64);
    w.put_i64(hit.score);
    match hit.evalue {
        Some(e) => {
            w.put_u8(1);
            w.put_f64(e);
        }
        None => w.put_u8(0),
    }
    w.into_bytes()
}

/// Decode one hit frame payload.
pub fn decode_hit(payload: &[u8]) -> Result<SearchHit, WireError> {
    let mut r = PayloadReader::new(payload);
    let record = r.get_usize()?;
    let name: Arc<str> = Arc::from(
        std::str::from_utf8(r.get_bytes()?)
            .map_err(|_| WireError::new("record name is not UTF-8"))?,
    );
    let record_end = r.get_usize()?;
    let query_end = r.get_usize()?;
    let text_end = r.get_usize()?;
    let score = r.get_i64()?;
    let evalue = match r.get_u8()? {
        0 => None,
        1 => Some(r.get_f64()?),
        other => return Err(WireError::new(format!("bad evalue tag {other}"))),
    };
    Ok(SearchHit {
        record,
        name,
        record_end,
        query_end,
        text_end,
        score,
        evalue,
    })
}

// ---------------------------------------------------------------------------
// Termination / counters / done
// ---------------------------------------------------------------------------

fn encode_termination(w: &mut PayloadWriter, termination: &Termination) {
    match termination {
        Termination::Complete => w.put_u8(0),
        Termination::DeadlineExceeded => w.put_u8(1),
        Termination::BudgetExhausted => w.put_u8(2),
        Termination::Cancelled => w.put_u8(3),
        Termination::EnginePanicked => w.put_u8(4),
        Termination::Invalid(error) => {
            w.put_u8(5);
            match error {
                SearchError::AlphabetMismatch { query, database } => {
                    w.put_u8(0);
                    w.put_u8(alphabet_to_u8(*query));
                    w.put_u8(alphabet_to_u8(*database));
                }
                SearchError::EmptyQuery => w.put_u8(1),
                SearchError::QueryTooShort { len, min } => {
                    w.put_u8(2);
                    w.put_u64(*len as u64);
                    w.put_u64(*min as u64);
                }
                SearchError::InvalidCode { code, position } => {
                    w.put_u8(3);
                    w.put_u8(*code);
                    w.put_u64(*position as u64);
                }
            }
        }
    }
}

fn decode_termination(r: &mut PayloadReader<'_>) -> Result<Termination, WireError> {
    Ok(match r.get_u8()? {
        0 => Termination::Complete,
        1 => Termination::DeadlineExceeded,
        2 => Termination::BudgetExhausted,
        3 => Termination::Cancelled,
        4 => Termination::EnginePanicked,
        5 => Termination::Invalid(match r.get_u8()? {
            0 => SearchError::AlphabetMismatch {
                query: alphabet_from_u8(r.get_u8()?)?,
                database: alphabet_from_u8(r.get_u8()?)?,
            },
            1 => SearchError::EmptyQuery,
            2 => SearchError::QueryTooShort {
                len: r.get_usize()?,
                min: r.get_usize()?,
            },
            3 => SearchError::InvalidCode {
                code: r.get_u8()?,
                position: r.get_usize()?,
            },
            other => return Err(WireError::new(format!("unknown error tag {other}"))),
        }),
        other => return Err(WireError::new(format!("unknown termination tag {other}"))),
    })
}

fn encode_counters(w: &mut PayloadWriter, counters: &EngineCounters) {
    match counters {
        EngineCounters::Alae(s) => {
            w.put_u8(0);
            for v in [
                s.emr_entries,
                s.ngr_entries,
                s.gap_entries,
                s.reused_entries,
                s.forks_started,
                s.forks_dominated,
                s.grams_without_text_match,
                s.visited_nodes,
                s.threshold_entries,
                s.occ_block_scans,
                s.occ_bytes_scanned,
                s.fork_slots_reused,
                s.arena_bytes,
                s.max_depth as u64,
            ] {
                w.put_u64(v);
            }
        }
        EngineCounters::Bwtsw(s) => {
            w.put_u8(1);
            for v in [
                s.calculated_entries,
                s.visited_nodes,
                s.pruned_subtrees,
                s.max_depth as u64,
                s.threshold_entries,
                s.occ_block_scans,
                s.occ_bytes_scanned,
            ] {
                w.put_u64(v);
            }
        }
        EngineCounters::BlastLike(s) => {
            w.put_u8(2);
            for v in [
                s.seed_hits,
                s.ungapped_extensions,
                s.gapped_extensions,
                s.raw_alignments,
            ] {
                w.put_u64(v);
            }
        }
        EngineCounters::SmithWaterman(s) => {
            w.put_u8(3);
            for v in [s.calculated_entries, s.positive_entries] {
                w.put_u64(v);
            }
        }
    }
}

fn decode_counters(r: &mut PayloadReader<'_>) -> Result<EngineCounters, WireError> {
    Ok(match r.get_u8()? {
        0 => EngineCounters::Alae(AlaeStats {
            emr_entries: r.get_u64()?,
            ngr_entries: r.get_u64()?,
            gap_entries: r.get_u64()?,
            reused_entries: r.get_u64()?,
            forks_started: r.get_u64()?,
            forks_dominated: r.get_u64()?,
            grams_without_text_match: r.get_u64()?,
            visited_nodes: r.get_u64()?,
            threshold_entries: r.get_u64()?,
            occ_block_scans: r.get_u64()?,
            occ_bytes_scanned: r.get_u64()?,
            fork_slots_reused: r.get_u64()?,
            arena_bytes: r.get_u64()?,
            max_depth: r.get_usize()?,
        }),
        1 => EngineCounters::Bwtsw(BwtswStats {
            calculated_entries: r.get_u64()?,
            visited_nodes: r.get_u64()?,
            pruned_subtrees: r.get_u64()?,
            max_depth: r.get_usize()?,
            threshold_entries: r.get_u64()?,
            occ_block_scans: r.get_u64()?,
            occ_bytes_scanned: r.get_u64()?,
        }),
        2 => EngineCounters::BlastLike(BlastStats {
            seed_hits: r.get_u64()?,
            ungapped_extensions: r.get_u64()?,
            gapped_extensions: r.get_u64()?,
            raw_alignments: r.get_u64()?,
        }),
        3 => EngineCounters::SmithWaterman(crate::baseline::LocalDpStats {
            calculated_entries: r.get_u64()?,
            positive_entries: r.get_u64()?,
        }),
        other => return Err(WireError::new(format!("unknown counters tag {other}"))),
    })
}

/// The end-of-stream summary a [`FrameKind::Done`] frame carries.
#[derive(Debug, Clone)]
pub struct DoneSummary {
    /// Which engine ran.
    pub engine: EngineKind,
    /// The resolved reporting threshold `H`.
    pub threshold: i64,
    /// Number of hit frames that preceded this frame.
    pub delivered: u64,
    /// Number of hits the engine reported before result shaping.
    pub raw_hit_count: u64,
    /// Why the run ended.
    pub termination: Termination,
    /// Engine work counters.
    pub counters: EngineCounters,
}

/// Encode the done frame payload.
pub fn encode_done(summary: &DoneSummary) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.put_u8(engine_to_u8(summary.engine));
    w.put_i64(summary.threshold);
    w.put_u64(summary.delivered);
    w.put_u64(summary.raw_hit_count);
    encode_termination(&mut w, &summary.termination);
    encode_counters(&mut w, &summary.counters);
    w.into_bytes()
}

/// Decode the done frame payload.
pub fn decode_done(payload: &[u8]) -> Result<DoneSummary, WireError> {
    let mut r = PayloadReader::new(payload);
    let summary = DoneSummary {
        engine: engine_from_u8(r.get_u8()?)?,
        threshold: r.get_i64()?,
        delivered: r.get_u64()?,
        raw_hit_count: r.get_u64()?,
        termination: decode_termination(&mut r)?,
        counters: decode_counters(&mut r)?,
    };
    if r.remaining() != 0 {
        return Err(WireError::new("trailing bytes after done summary"));
    }
    Ok(summary)
}

/// Encode an error frame payload (a UTF-8 message).
pub fn encode_error(message: &str) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.put_bytes(message.as_bytes());
    w.into_bytes()
}

/// Decode an error frame payload.
pub fn decode_error(payload: &[u8]) -> Result<String, WireError> {
    let mut r = PayloadReader::new(payload);
    let message = std::str::from_utf8(r.get_bytes()?)
        .map_err(|_| WireError::new("error message is not UTF-8"))?
        .to_string();
    Ok(message)
}

/// Why a server refused a request before running it (the typed payload
/// of a [`FrameKind::Rejected`] frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The global admission queue is full.
    Capacity,
    /// The peer exceeded its fairness allowance (per-IP token bucket or
    /// concurrent-query cap).
    Fairness,
    /// The server is draining for shutdown and takes no new queries.
    Draining,
}

impl RejectReason {
    /// Stable label used in metrics and logs.
    pub fn label(self) -> &'static str {
        match self {
            Self::Capacity => "capacity",
            Self::Fairness => "fairness",
            Self::Draining => "draining",
        }
    }

    fn from_u8(byte: u8) -> Result<Self, WireError> {
        match byte {
            0 => Ok(Self::Capacity),
            1 => Ok(Self::Fairness),
            2 => Ok(Self::Draining),
            other => Err(WireError::new(format!("unknown reject reason {other}"))),
        }
    }
}

/// A deliberate admission refusal: why, when to retry, and a
/// human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct Rejection {
    /// The typed reason.
    pub reason: RejectReason,
    /// When the peer may reasonably try again (`None` when the server
    /// has no estimate — e.g. a capacity refusal).
    pub retry_after: Option<Duration>,
    /// Human-readable description for logs and error messages.
    pub message: String,
}

/// Encode a rejection frame payload.
pub fn encode_rejection(rejection: &Rejection) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.put_u8(rejection.reason as u8);
    w.put_opt_u64(
        rejection
            .retry_after
            .map(|d| d.as_millis().min(u128::from(u64::MAX)) as u64),
    );
    w.put_bytes(rejection.message.as_bytes());
    w.into_bytes()
}

/// Decode a rejection frame payload.
pub fn decode_rejection(payload: &[u8]) -> Result<Rejection, WireError> {
    let mut r = PayloadReader::new(payload);
    let reason = RejectReason::from_u8(r.get_u8()?)?;
    let retry_after = r.get_opt_u64()?.map(Duration::from_millis);
    let message = std::str::from_utf8(r.get_bytes()?)
        .map_err(|_| WireError::new("rejection message is not UTF-8"))?
        .to_string();
    Ok(Rejection {
        reason,
        retry_after,
        message,
    })
}

/// Assemble a [`SearchResponse`] from streamed hits plus the done summary
/// (what a client hands back from one exchange).
pub fn response_from_stream(hits: Vec<SearchHit>, summary: DoneSummary) -> SearchResponse {
    SearchResponse {
        engine: summary.engine,
        threshold: summary.threshold,
        hits,
        raw_hit_count: summary.raw_hit_count as usize,
        counters: summary.counters,
        termination: summary.termination,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> SearchRequest {
        SearchRequest::with_threshold(ScoringScheme::DEFAULT, 25)
            .engine(EngineKind::Bwtsw)
            .top_k(5)
            .min_score(10)
            .deadline(Duration::from_millis(1500))
            .work_budget(1_000_000)
            .poll_interval(64)
    }

    #[test]
    fn request_round_trips() {
        let request = sample_request();
        let codes = vec![1u8, 2, 3, 4, 2, 1];
        let payload = encode_request(&request, &codes);
        let decoded = decode_request(&payload).unwrap();
        assert_eq!(decoded.query_codes, codes);
        assert_eq!(decoded.request.engine, request.engine);
        assert_eq!(decoded.request.scheme, request.scheme);
        assert_eq!(decoded.request.top_k, request.top_k);
        assert_eq!(decoded.request.min_score, request.min_score);
        assert_eq!(decoded.request.deadline, request.deadline);
        assert_eq!(decoded.request.work_budget, request.work_budget);
        assert_eq!(decoded.request.poll_interval, request.poll_interval);
        assert_eq!(decoded.config_key, encode_request_config(&request));
    }

    #[test]
    fn config_key_distinguishes_requests() {
        let a = encode_request_config(&sample_request());
        let b = encode_request_config(&sample_request().top_k(6));
        assert_ne!(a, b);
        let c = encode_request_config(&sample_request());
        assert_eq!(a, c);
    }

    #[test]
    fn hit_round_trips() {
        let hit = SearchHit {
            record: 3,
            name: Arc::from("chr7"),
            record_end: 120,
            query_end: 48,
            text_end: 9999,
            score: 77,
            evalue: Some(1.5e-9),
        };
        let decoded = decode_hit(&encode_hit(&hit)).unwrap();
        assert_eq!(decoded, hit);
    }

    #[test]
    fn done_round_trips_with_invalid_termination() {
        let summary = DoneSummary {
            engine: EngineKind::Alae,
            threshold: 30,
            delivered: 2,
            raw_hit_count: 9,
            termination: Termination::Invalid(SearchError::QueryTooShort { len: 3, min: 11 }),
            counters: EngineCounters::Alae(AlaeStats {
                emr_entries: 10,
                visited_nodes: 42,
                max_depth: 7,
                ..AlaeStats::default()
            }),
        };
        let decoded = decode_done(&encode_done(&summary)).unwrap();
        assert_eq!(decoded.threshold, 30);
        assert_eq!(decoded.delivered, 2);
        assert_eq!(decoded.raw_hit_count, 9);
        assert!(matches!(
            decoded.termination,
            Termination::Invalid(SearchError::QueryTooShort { len: 3, min: 11 })
        ));
        match decoded.counters {
            EngineCounters::Alae(s) => {
                assert_eq!(s.emr_entries, 10);
                assert_eq!(s.visited_nodes, 42);
                assert_eq!(s.max_depth, 7);
            }
            other => panic!("wrong counters {other:?}"),
        }
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Error, &encode_error("busy")).unwrap();
        write_frame(&mut buf, FrameKind::Done, b"x").unwrap();
        let mut cursor = io::Cursor::new(buf);
        let (kind, payload) = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(kind, FrameKind::Error);
        assert_eq!(decode_error(&payload).unwrap(), "busy");
        let (kind, payload) = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(kind, FrameKind::Done);
        assert_eq!(payload, b"x");
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_hit(&[1, 2, 3]).is_err());
        assert!(decode_done(&[9]).is_err());
        // Unknown frame kind.
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(200);
        buf.push(0);
        assert!(read_frame(&mut io::Cursor::new(buf)).is_err());
    }

    #[test]
    fn counting_adapters_see_every_wire_byte() {
        let written = Arc::new(AtomicU64::new(0));
        let mut buf = Vec::new();
        {
            let mut writer = CountingWriter::new(&mut buf, written.clone());
            write_frame(&mut writer, FrameKind::Error, &encode_error("busy")).unwrap();
        }
        assert_eq!(written.load(Ordering::Relaxed), buf.len() as u64);
        assert_eq!(
            buf.len(),
            FRAME_OVERHEAD + encode_error("busy").len(),
            "frame overhead constant must match the writer"
        );

        let read = Arc::new(AtomicU64::new(0));
        let mut reader = CountingReader::new(io::Cursor::new(&buf), read.clone());
        let (kind, _) = read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(kind, FrameKind::Error);
        assert_eq!(read.load(Ordering::Relaxed), buf.len() as u64);
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.push(FrameKind::Hit as u8);
        assert!(read_frame(&mut io::Cursor::new(buf)).is_err());
    }

    #[test]
    fn rejection_round_trips() {
        for (reason, retry_after) in [
            (RejectReason::Capacity, None),
            (RejectReason::Fairness, Some(Duration::from_millis(250))),
            (RejectReason::Draining, Some(Duration::from_secs(2))),
        ] {
            let rejection = Rejection {
                reason,
                retry_after,
                message: format!("refused: {}", reason.label()),
            };
            let decoded = decode_rejection(&encode_rejection(&rejection)).unwrap();
            assert_eq!(decoded, rejection);
        }
        assert!(decode_rejection(&[7]).is_err());
        assert!(decode_rejection(&[]).is_err());
    }

    #[test]
    fn rejected_frame_kind_round_trips() {
        assert_eq!(FrameKind::from_u8(5).unwrap(), FrameKind::Rejected);
        let mut buf = Vec::new();
        let rejection = Rejection {
            reason: RejectReason::Fairness,
            retry_after: Some(Duration::from_millis(100)),
            message: "slow down".to_string(),
        };
        write_frame(&mut buf, FrameKind::Rejected, &encode_rejection(&rejection)).unwrap();
        let (kind, payload) = read_frame(&mut io::Cursor::new(buf)).unwrap().unwrap();
        assert_eq!(kind, FrameKind::Rejected);
        assert_eq!(decode_rejection(&payload).unwrap(), rejection);
    }

    #[test]
    fn throttled_reader_caps_bytes_per_window() {
        let data = vec![0xABu8; 64];
        let mut reader = ThrottledReader::new(io::Cursor::new(data.clone()), 16);
        let started = Instant::now();
        let mut out = Vec::new();
        io::Read::read_to_end(&mut reader, &mut out).unwrap();
        assert_eq!(out, data);
        // 64 bytes at 16 B/s needs at least three full one-second windows
        // after the first burst.
        assert!(
            started.elapsed() >= Duration::from_secs(3),
            "throttle finished too fast: {:?}",
            started.elapsed()
        );
    }
}
