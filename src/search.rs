//! The unified search facade: one shared index, four interchangeable
//! engines, record-resolved results.
//!
//! Every aligner in the workspace historically had a bespoke entry point
//! (`AlaeAligner::align`, `BwtswAligner::align`, `BlastLikeAligner::align`,
//! `baseline::local_alignment_hits`), all returning eager hit vectors keyed
//! by offsets into the *concatenated* database text.  This module redesigns
//! the public API around the deployable unit of a sequence-search service —
//! many queries against one shared index:
//!
//! * [`IndexedDatabase`] — a cheaply-cloneable handle bundling the record
//!   table, the concatenated text and the compressed-suffix-array index.
//!   Build it once, share it everywhere (all clones share the same memory).
//! * [`LocalAligner`] — the engine-agnostic trait implemented by all four
//!   engines; [`EngineKind`] selects one.
//! * [`SearchRequest`] — a builder covering threshold-or-E-value reporting,
//!   the ALAE filter toggles and result shaping (`top_k`, `min_score`,
//!   `max_hits_per_record`).
//! * [`SearchResponse`] / [`SearchHit`] — record-resolved hits (record
//!   index, record name, 1-based in-record coordinates, score, E-value)
//!   plus the engine's work counters.
//! * [`HitSink`] — streaming delivery with early termination.
//! * [`Searcher::search_batch`] — multi-threaded fan-out of a query batch
//!   over the shared index, bit-identical to the sequential path.
//! * **Request guardrails** — [`SearchRequest::deadline`],
//!   [`SearchRequest::work_budget`], [`SearchRequest::memory_budget`] and a
//!   shared [`CancelToken`] bound every query; a tripped run returns the
//!   hits found so far with a typed [`Termination`], worker panics inside
//!   [`Searcher::search_batch`] are isolated per query
//!   ([`Termination::EnginePanicked`]), and invalid requests are rejected
//!   up front with [`Termination::Invalid`] instead of panicking.
//!
//! # Quickstart
//!
//! ```
//! use alae::bioseq::{Alphabet, ScoringScheme, Sequence};
//! use alae::search::{EngineKind, IndexedDatabase, Searcher, SearchRequest};
//!
//! let db = IndexedDatabase::from_sequences(
//!     Alphabet::Dna,
//!     [Sequence::from_ascii_named(Alphabet::Dna, "chr1", b"GCTAGCTAGGCATCGATCGGCTAGCAT").unwrap()],
//! );
//! let request = SearchRequest::with_threshold(ScoringScheme::DEFAULT, 6)
//!     .engine(EngineKind::Alae);
//! let searcher = Searcher::new(db, request);
//!
//! let query = Sequence::from_ascii(Alphabet::Dna, b"GCTAGCAT").unwrap();
//! let response = searcher.search(&query);
//! assert!(!response.hits.is_empty());
//! let best = &response.hits[0]; // canonical order: best score first
//! assert_eq!(&*best.name, "chr1");
//! ```

use alae_align_baseline::{local_alignment_hits_guarded, LocalDpStats};
use alae_bioseq::hits::AlignmentHit;
use alae_bioseq::{Alphabet, KarlinAltschul, ScoringScheme, Sequence, SequenceDatabase};
use alae_blast_like::{BlastConfig, BlastLikeAligner, BlastStats};
use alae_bwtsw::{BwtswAligner, BwtswConfig, BwtswStats};
use alae_core::{AlaeAligner, AlaeConfig, AlaeStats, FilterToggles, ThresholdSpec};
use alae_suffix::{IndexOptions, RankLayout, TextIndex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[cfg(feature = "fault-inject")]
pub use alae_bioseq::guard::FaultPlan;
pub use alae_bioseq::guard::{CancelOnDrop, CancelToken, SearchError, SearchGuard, Termination};

// ---------------------------------------------------------------------------
// Shared index
// ---------------------------------------------------------------------------

/// The one way to turn a [`SequenceDatabase`] into an [`IndexedDatabase`].
///
/// Both index-construction knobs live here — occurrence-table layout and
/// suffix-array sample rate — forwarding to
/// [`alae_suffix::IndexOptions`].  There is deliberately **no** q-gram knob: `q` is a
/// property of the scoring scheme (Equation 2 of the paper), derived per
/// request from [`ScoringScheme::q`], and the q-gram inverted lists are
/// built per *query*, not stored with the database.
///
/// ```
/// use alae::bioseq::{Alphabet, Sequence, SequenceDatabase};
/// use alae::search::IndexBuilder;
/// use alae::suffix::RankLayout;
///
/// let db = SequenceDatabase::from_sequences(
///     Alphabet::Dna,
///     [Sequence::from_ascii(Alphabet::Dna, b"GCTAGCTAGG").unwrap()],
/// );
/// let indexed = IndexBuilder::new()
///     .layout(RankLayout::Bytes)
///     .sample_rate(8)
///     .index(db);
/// assert_eq!(indexed.record_count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IndexBuilder {
    options: IndexOptions,
}

impl IndexBuilder {
    /// A builder with the default options (auto layout, default sample
    /// rate).
    pub fn new() -> Self {
        Self::default()
    }

    /// Occurrence-table storage layout.
    pub fn layout(mut self, layout: RankLayout) -> Self {
        self.options = self.options.layout(layout);
        self
    }

    /// Suffix-array sample rate (every `rate`-th row is sampled).
    pub fn sample_rate(mut self, rate: usize) -> Self {
        self.options = self.options.sample_rate(rate);
        self
    }

    /// Build the index over `database` (consuming it into an `Arc`).
    ///
    /// The database's concatenated text is *shared* with the index (one
    /// buffer serves both), so an [`IndexedDatabase`] holds exactly one
    /// copy of the text no matter how many engines and threads search
    /// through it.
    pub fn index(self, database: SequenceDatabase) -> IndexedDatabase {
        self.index_shared(Arc::new(database))
    }

    /// Build the index over an already-shared database.
    pub fn index_shared(self, database: Arc<SequenceDatabase>) -> IndexedDatabase {
        let index = Arc::new(
            self.options
                .build_text_index(database.shared_text(), database.alphabet().code_count()),
        );
        IndexedDatabase { database, index }
    }
}

/// A sequence database bundled with its suffix-trie index, behind `Arc`s so
/// clones are cheap and every engine (and every thread) shares one copy of
/// the text and index memory.
#[derive(Debug, Clone)]
pub struct IndexedDatabase {
    database: Arc<SequenceDatabase>,
    index: Arc<TextIndex>,
}

impl IndexedDatabase {
    /// Convenience: collect sequences into a database and index it with the
    /// default [`IndexBuilder`] options.
    pub fn from_sequences<I>(alphabet: Alphabet, sequences: I) -> Self
    where
        I: IntoIterator<Item = Sequence>,
    {
        IndexBuilder::new().index(SequenceDatabase::from_sequences(alphabet, sequences))
    }

    /// Assemble from an existing database and a matching index (the index
    /// must have been built over exactly `database.text()`).
    pub fn from_parts(database: Arc<SequenceDatabase>, index: Arc<TextIndex>) -> Self {
        debug_assert_eq!(
            database.text(),
            index.text(),
            "index must cover the database text"
        );
        Self { database, index }
    }

    /// The record table and concatenated text.
    pub fn database(&self) -> &SequenceDatabase {
        &self.database
    }

    /// The shared suffix-trie index.
    pub fn index(&self) -> &Arc<TextIndex> {
        &self.index
    }

    /// The database alphabet.
    pub fn alphabet(&self) -> Alphabet {
        self.database.alphabet()
    }

    /// Length of the concatenated text `n` (including separators).
    pub fn text_len(&self) -> usize {
        self.database.text_len()
    }

    /// Number of records.
    pub fn record_count(&self) -> usize {
        self.database.record_count()
    }

    /// Persist the database and index to a single file (see `alae-store`
    /// for the format).  The file can be reopened with
    /// [`IndexedDatabase::open`] without rebuilding the suffix array.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), alae_store::StoreError> {
        alae_store::save_index(path.as_ref(), &self.database, &self.index)
    }

    /// Reopen an index file written by [`IndexedDatabase::save`].
    ///
    /// The heavy byte sections (text, BWT storage) are zero-copy views of a
    /// read-only memory mapping of the file; no suffix array is built.
    /// Every section is checksum-verified before use, and a corrupt,
    /// truncated or incompatible file is rejected with a typed
    /// [`alae_store::StoreError`].
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self, alae_store::StoreError> {
        let opened = alae_store::open_index(path.as_ref())?;
        Ok(Self {
            database: opened.database,
            index: opened.index,
        })
    }
}

// ---------------------------------------------------------------------------
// Request
// ---------------------------------------------------------------------------

/// Which alignment engine a [`SearchRequest`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The ALAE engine (exact; filtering + score reuse — the paper's
    /// contribution).
    Alae,
    /// The BWT-SW pruned suffix-trie baseline (exact).
    Bwtsw,
    /// The BLAST-like seed-and-extend heuristic (may miss hits).
    BlastLike,
    /// The full Smith–Waterman dynamic program (exact oracle; slow).
    SmithWaterman,
}

impl EngineKind {
    /// All four engines, in the order they appear in the paper's tables.
    pub const ALL: [EngineKind; 4] = [
        EngineKind::Alae,
        EngineKind::Bwtsw,
        EngineKind::BlastLike,
        EngineKind::SmithWaterman,
    ];

    /// True for the engines guaranteed to report the complete result set.
    pub fn is_exact(self) -> bool {
        !matches!(self, EngineKind::BlastLike)
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Alae => "ALAE",
            EngineKind::Bwtsw => "BWT-SW",
            EngineKind::BlastLike => "BLAST-like",
            EngineKind::SmithWaterman => "Smith-Waterman",
        }
    }

    /// Stable `snake_case` identifier: the metric label value
    /// (`alae_query_latency_seconds{engine=...}`), trace-record field and
    /// HTTP request `"engine"` value for this engine (see `docs/metrics.md`).
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Alae => "alae",
            EngineKind::Bwtsw => "bwtsw",
            EngineKind::BlastLike => "blast_like",
            EngineKind::SmithWaterman => "smith_waterman",
        }
    }

    /// Parse a [`EngineKind::label`] back into an engine, accepting the
    /// common short aliases the HTTP front documents (`"blast"`, `"sw"`).
    pub fn from_label(label: &str) -> Option<EngineKind> {
        match label {
            "alae" => Some(EngineKind::Alae),
            "bwtsw" | "bwt_sw" => Some(EngineKind::Bwtsw),
            "blast_like" | "blast" => Some(EngineKind::BlastLike),
            "smith_waterman" | "sw" => Some(EngineKind::SmithWaterman),
            _ => None,
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A declarative description of one search: engine, scoring, reporting
/// threshold and result shaping.  Construct with [`SearchRequest::with_threshold`]
/// or [`SearchRequest::with_evalue`], then chain builder methods.
#[derive(Debug, Clone, Copy)]
pub struct SearchRequest {
    /// The engine to run (default: [`EngineKind::Alae`]).
    pub engine: EngineKind,
    /// The affine-gap scoring scheme.
    pub scheme: ScoringScheme,
    /// Explicit score threshold or E-value.
    pub threshold: ThresholdSpec,
    /// ALAE technique toggles (ignored by the other engines).
    pub filters: FilterToggles,
    /// Keep only the best `k` hits (canonical order) when set.
    pub top_k: Option<usize>,
    /// Extra score floor on top of the resolved threshold.
    pub min_score: Option<i64>,
    /// Keep at most this many hits per database record when set.
    pub max_hits_per_record: Option<usize>,
    /// Optional hard cap on the trie depth (testing aid; exact engines
    /// only).
    pub max_depth: Option<usize>,
    /// Wall-clock deadline per query, measured from the moment the engine
    /// starts.  A query that exceeds it returns its partial hits with
    /// [`Termination::DeadlineExceeded`].
    pub deadline: Option<Duration>,
    /// Work budget per query, in the engine's own work units (DP cells
    /// calculated / extension attempts — the counters
    /// [`EngineCounters::calculated_entries`] reports).  Exceeding it
    /// returns partial hits with [`Termination::BudgetExhausted`].
    pub work_budget: Option<u64>,
    /// Memory budget per query, in bytes of engine scratch (fork-arena
    /// bytes, pooled DP rows).  Exceeding it returns partial hits with
    /// [`Termination::BudgetExhausted`].
    pub memory_budget: Option<u64>,
    /// How many node expansions between deadline/cancellation/memory polls
    /// (default [`SearchGuard::DEFAULT_POLL_INTERVAL`]).  Budget accounting
    /// is exact regardless.
    pub poll_interval: Option<u32>,
    /// Deterministic fault injection for tests (`fault-inject` feature
    /// only; see [`FaultPlan`]).
    #[cfg(feature = "fault-inject")]
    pub fault: Option<FaultPlan>,
}

impl SearchRequest {
    /// A request reporting every hit with score at least `threshold`.
    pub fn with_threshold(scheme: ScoringScheme, threshold: i64) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        Self::new(scheme, ThresholdSpec::Score(threshold))
    }

    /// A request reporting every hit with E-value at most `evalue`
    /// (the per-query score threshold follows from the Karlin–Altschul
    /// statistics, Section 7 of the paper).
    pub fn with_evalue(scheme: ScoringScheme, evalue: f64) -> Self {
        assert!(evalue > 0.0, "E-value must be positive");
        Self::new(scheme, ThresholdSpec::EValue(evalue))
    }

    fn new(scheme: ScoringScheme, threshold: ThresholdSpec) -> Self {
        Self {
            engine: EngineKind::Alae,
            scheme,
            threshold,
            filters: FilterToggles::ALL,
            top_k: None,
            min_score: None,
            max_hits_per_record: None,
            max_depth: None,
            deadline: None,
            work_budget: None,
            memory_budget: None,
            poll_interval: None,
            #[cfg(feature = "fault-inject")]
            fault: None,
        }
    }

    /// Select the engine.
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Replace the ALAE filter toggles.
    pub fn filters(mut self, filters: FilterToggles) -> Self {
        self.filters = filters;
        self
    }

    /// Keep only the best `k` hits per query.
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = Some(k);
        self
    }

    /// Report only hits scoring at least `score` (on top of the resolved
    /// threshold).
    pub fn min_score(mut self, score: i64) -> Self {
        self.min_score = Some(score);
        self
    }

    /// Keep at most `k` hits per database record.
    pub fn max_hits_per_record(mut self, k: usize) -> Self {
        self.max_hits_per_record = Some(k);
        self
    }

    /// Cap the suffix-trie depth (testing aid).
    pub fn max_depth(mut self, depth: usize) -> Self {
        self.max_depth = Some(depth);
        self
    }

    /// Bound each query's wall-clock time; see [`SearchRequest::deadline`].
    pub fn deadline(mut self, per_query: Duration) -> Self {
        self.deadline = Some(per_query);
        self
    }

    /// Bound each query's engine work; see [`SearchRequest::work_budget`].
    pub fn work_budget(mut self, units: u64) -> Self {
        self.work_budget = Some(units);
        self
    }

    /// Bound each query's scratch memory; see
    /// [`SearchRequest::memory_budget`].
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Set the guardrail poll interval; see
    /// [`SearchRequest::poll_interval`].
    pub fn poll_interval(mut self, node_expansions: u32) -> Self {
        self.poll_interval = Some(node_expansions);
        self
    }

    /// Inject a deterministic fault into each query (tests only).
    #[cfg(feature = "fault-inject")]
    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Resolve the request's guardrails into a run-form [`SearchGuard`]
    /// (the relative deadline becomes absolute *now*).
    pub fn guard(&self, cancel: Option<CancelToken>) -> SearchGuard {
        SearchGuard {
            deadline: self.deadline.map(|timeout| Instant::now() + timeout),
            work_budget: self.work_budget,
            memory_budget: self.memory_budget,
            cancel,
            poll_interval: self.poll_interval,
            #[cfg(feature = "fault-inject")]
            fault: self.fault,
        }
    }

    /// Resolve the reporting threshold `H` for a query of length `m`
    /// against a text of length `n` — the same resolution (including the
    /// `q·sa` exactness floor of Theorem 3) for every engine, so the exact
    /// engines agree hit-for-hit.
    pub fn resolve_threshold(&self, alphabet: Alphabet, m: usize, n: usize) -> i64 {
        self.to_alae_config().resolve_threshold(alphabet, m, n)
    }

    fn to_alae_config(self) -> AlaeConfig {
        let mut config = match self.threshold {
            ThresholdSpec::Score(h) => AlaeConfig::with_threshold(self.scheme, h),
            ThresholdSpec::EValue(e) => AlaeConfig::with_evalue(self.scheme, e),
        }
        .filters(self.filters);
        config.max_depth = self.max_depth;
        config
    }
}

// ---------------------------------------------------------------------------
// Engine trait
// ---------------------------------------------------------------------------

/// Work counters of whichever engine ran, normalized behind one enum so the
/// facade can report them uniformly.
#[derive(Debug, Clone)]
pub enum EngineCounters {
    /// ALAE counters (calculated/reused entries, forks, occ scans, …).
    Alae(AlaeStats),
    /// BWT-SW counters (calculated entries, pruned subtrees, occ scans, …).
    Bwtsw(BwtswStats),
    /// BLAST-like counters (seeds, extensions).
    BlastLike(BlastStats),
    /// Smith–Waterman counters (always `n·m` calculated entries).
    SmithWaterman(LocalDpStats),
}

impl EngineCounters {
    /// Zeroed counters for `kind` (responses that never ran an engine:
    /// invalid requests, isolated panics).
    pub fn empty(kind: EngineKind) -> Self {
        match kind {
            EngineKind::Alae => EngineCounters::Alae(AlaeStats::default()),
            EngineKind::Bwtsw => EngineCounters::Bwtsw(BwtswStats::default()),
            EngineKind::BlastLike => EngineCounters::BlastLike(BlastStats::default()),
            EngineKind::SmithWaterman => EngineCounters::SmithWaterman(LocalDpStats::default()),
        }
    }

    /// Dynamic-programming entries the engine actually computed — the
    /// paper's primary work measure, comparable across engines.
    pub fn calculated_entries(&self) -> u64 {
        match self {
            EngineCounters::Alae(s) => s.calculated_entries(),
            EngineCounters::Bwtsw(s) => s.calculated_entries,
            // The heuristic does no trie DP; its closest analogue is the
            // number of extension attempts.
            EngineCounters::BlastLike(s) => s.ungapped_extensions + s.gapped_extensions,
            EngineCounters::SmithWaterman(s) => s.calculated_entries,
        }
    }

    /// The ALAE counters, when ALAE ran.
    pub fn as_alae(&self) -> Option<&AlaeStats> {
        match self {
            EngineCounters::Alae(s) => Some(s),
            _ => None,
        }
    }

    /// The BWT-SW counters, when BWT-SW ran.
    pub fn as_bwtsw(&self) -> Option<&BwtswStats> {
        match self {
            EngineCounters::Bwtsw(s) => Some(s),
            _ => None,
        }
    }

    /// The BLAST-like counters, when the heuristic ran.
    pub fn as_blast(&self) -> Option<&BlastStats> {
        match self {
            EngineCounters::BlastLike(s) => Some(s),
            _ => None,
        }
    }
}

/// One engine run over one query: offset-keyed hits in canonical order, the
/// threshold that was applied, and the engine's work counters.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// Hits keyed by 0-based end offsets into the concatenated text, in
    /// canonical order (score descending, then text, then query position).
    pub hits: Vec<AlignmentHit>,
    /// The resolved reporting threshold `H`.
    pub threshold: i64,
    /// Engine work counters.
    pub counters: EngineCounters,
    /// Why the run ended ([`Termination::Complete`] unless a guardrail
    /// tripped; the hits above are valid partial results either way).
    pub termination: Termination,
}

/// The engine-agnostic local-alignment interface.
///
/// Implementations are thread-safe (`Send + Sync`) and take `&self`, so one
/// engine instance can serve concurrent queries over the shared index —
/// this is what [`Searcher::search_batch`] relies on.
pub trait LocalAligner: Send + Sync {
    /// Which engine this is.
    fn kind(&self) -> EngineKind;

    /// The threshold this engine will apply to a query of length `m`.
    fn resolve_threshold(&self, query_len: usize) -> i64;

    /// Align one query (given as alphabet codes) and report every end pair
    /// reaching the threshold, in canonical hit order.
    fn align_codes(&self, query: &[u8]) -> EngineRun {
        self.align_codes_guarded(query, &SearchGuard::none())
    }

    /// [`LocalAligner::align_codes`] under request guardrails: the engine
    /// polls `guard` in its hot loop (amortized) and unwinds cleanly when a
    /// deadline, budget or cancellation trips, reporting the hits found so
    /// far with the matching [`Termination`].
    fn align_codes_guarded(&self, query: &[u8], guard: &SearchGuard) -> EngineRun;
}

/// Build the engine selected by `request` over `db`.
///
/// The returned trait object is self-contained (it shares the index/text
/// via `Arc`) and reusable across any number of queries and threads.
pub fn build_engine(db: &IndexedDatabase, request: &SearchRequest) -> Box<dyn LocalAligner> {
    let shared = EngineShared {
        request: *request,
        alphabet: db.alphabet(),
        text_len: db.text_len(),
    };
    match request.engine {
        EngineKind::Alae => Box::new(AlaeEngine {
            aligner: AlaeAligner::with_index(
                db.index.clone(),
                db.alphabet(),
                request.to_alae_config(),
            ),
            shared,
        }),
        EngineKind::Bwtsw => Box::new(BwtswEngine {
            index: db.index.clone(),
            shared,
        }),
        EngineKind::BlastLike => Box::new(BlastEngine {
            database: db.database.clone(),
            shared,
        }),
        EngineKind::SmithWaterman => Box::new(SmithWatermanEngine {
            database: db.database.clone(),
            shared,
        }),
    }
}

/// The request-derived state every engine wrapper needs.
#[derive(Debug, Clone, Copy)]
struct EngineShared {
    request: SearchRequest,
    alphabet: Alphabet,
    text_len: usize,
}

impl EngineShared {
    fn resolve_threshold(&self, query_len: usize) -> i64 {
        self.request
            .resolve_threshold(self.alphabet, query_len, self.text_len)
    }
}

struct AlaeEngine {
    aligner: AlaeAligner,
    shared: EngineShared,
}

impl LocalAligner for AlaeEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Alae
    }

    fn resolve_threshold(&self, query_len: usize) -> i64 {
        self.shared.resolve_threshold(query_len)
    }

    fn align_codes_guarded(&self, query: &[u8], guard: &SearchGuard) -> EngineRun {
        let result = self.aligner.align_guarded(query, guard);
        EngineRun {
            hits: result.hits,
            threshold: result.threshold,
            counters: EngineCounters::Alae(result.stats),
            termination: result.termination,
        }
    }
}

struct BwtswEngine {
    index: Arc<TextIndex>,
    shared: EngineShared,
}

impl LocalAligner for BwtswEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Bwtsw
    }

    fn resolve_threshold(&self, query_len: usize) -> i64 {
        self.shared.resolve_threshold(query_len)
    }

    fn align_codes_guarded(&self, query: &[u8], guard: &SearchGuard) -> EngineRun {
        let threshold = self.resolve_threshold(query.len());
        let mut config = BwtswConfig::new(self.shared.request.scheme, threshold);
        config.max_depth = self.shared.request.max_depth;
        // Constructing the aligner is one `Arc` clone; the index is shared.
        let result =
            BwtswAligner::with_index(self.index.clone(), config).align_guarded(query, guard);
        EngineRun {
            hits: result.hits,
            threshold,
            counters: EngineCounters::Bwtsw(result.stats),
            termination: result.termination,
        }
    }
}

struct BlastEngine {
    database: Arc<SequenceDatabase>,
    shared: EngineShared,
}

impl LocalAligner for BlastEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::BlastLike
    }

    fn resolve_threshold(&self, query_len: usize) -> i64 {
        self.shared.resolve_threshold(query_len)
    }

    fn align_codes_guarded(&self, query: &[u8], guard: &SearchGuard) -> EngineRun {
        let threshold = self.resolve_threshold(query.len());
        let config =
            BlastConfig::for_alphabet(self.shared.alphabet, self.shared.request.scheme, threshold);
        // Constructing the aligner is one `Arc` clone; the text is shared.
        let result = BlastLikeAligner::with_database(self.database.clone(), config)
            .align_guarded(query, guard);
        EngineRun {
            hits: result.hits,
            threshold,
            counters: EngineCounters::BlastLike(result.stats),
            termination: result.termination,
        }
    }
}

struct SmithWatermanEngine {
    database: Arc<SequenceDatabase>,
    shared: EngineShared,
}

impl LocalAligner for SmithWatermanEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::SmithWaterman
    }

    fn resolve_threshold(&self, query_len: usize) -> i64 {
        self.shared.resolve_threshold(query_len)
    }

    fn align_codes_guarded(&self, query: &[u8], guard: &SearchGuard) -> EngineRun {
        let threshold = self.resolve_threshold(query.len());
        let (hits, stats, termination) = local_alignment_hits_guarded(
            self.database.text(),
            query,
            &self.shared.request.scheme,
            threshold,
            guard,
        );
        EngineRun {
            hits,
            threshold,
            counters: EngineCounters::SmithWaterman(stats),
            termination,
        }
    }
}

// ---------------------------------------------------------------------------
// Record-resolved results
// ---------------------------------------------------------------------------

/// One reported alignment, resolved to its database record.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// Index of the record the alignment ends in.
    pub record: usize,
    /// Name of that record (shared, not copied).
    pub name: Arc<str>,
    /// 1-based end position of the alignment inside the record.
    pub record_end: usize,
    /// 1-based end position of the alignment in the query.
    pub query_end: usize,
    /// 0-based end offset in the concatenated text (for diffing against the
    /// offset-keyed engine output).
    pub text_end: usize,
    /// The alignment score.
    pub score: i64,
    /// The hit's E-value under the Karlin–Altschul model, when the
    /// statistics exist for the request's scoring scheme.
    pub evalue: Option<f64>,
}

/// The outcome of one query through the facade.
#[derive(Debug, Clone)]
pub struct SearchResponse {
    /// Which engine ran.
    pub engine: EngineKind,
    /// The resolved reporting threshold `H`.
    pub threshold: i64,
    /// Record-resolved hits in canonical order (score descending, then text
    /// position, then query position), after the request's `min_score`,
    /// `max_hits_per_record` and `top_k` shaping.
    pub hits: Vec<SearchHit>,
    /// Number of hits the engine reported before result shaping.
    pub raw_hit_count: usize,
    /// Engine work counters for this query.
    ///
    /// All counters — including the occurrence-layer scan counters
    /// (`occ_block_scans`, `occ_bytes_scanned`), which are measured with
    /// per-thread snapshots — are exact per-query values, even inside a
    /// concurrent [`Searcher::search_batch`].
    pub counters: EngineCounters,
    /// Why the run ended.
    ///
    /// [`Termination::Complete`] means the hit set is exhaustive. Any other
    /// variant means a guardrail tripped (deadline, budget, cancellation),
    /// the request was invalid, or the engine panicked; the hits above are
    /// still valid alignments — a graceful partial result — but the set may
    /// be incomplete.
    pub termination: Termination,
}

impl SearchResponse {
    /// True when result shaping dropped hits (`raw_hit_count > hits.len()`).
    pub fn truncated(&self) -> bool {
        self.raw_hit_count > self.hits.len()
    }

    /// The best hit, if any (the first one — hits are in canonical order).
    pub fn best(&self) -> Option<&SearchHit> {
        self.hits.first()
    }

    /// True when the engine ran to completion (the hit set is exhaustive).
    pub fn is_complete(&self) -> bool {
        self.termination.is_complete()
    }
}

/// Flow control returned by a [`HitSink`] after each hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkFlow {
    /// Keep delivering hits.
    Continue,
    /// Stop the stream; the searcher returns immediately.
    Stop,
}

/// A streaming consumer of search hits.
///
/// Hits arrive in canonical order (best score first) after result shaping.
/// A sink that only wants the strongest alignments can [`SinkFlow::Stop`]
/// early: the engine itself runs to completion (its hit set is computed
/// eagerly), but record resolution, E-value computation and delivery for
/// every remaining hit are skipped.
pub trait HitSink {
    /// Consume one hit and decide whether to continue.
    fn accept(&mut self, hit: SearchHit) -> SinkFlow;
}

/// A sink that collects every delivered hit into a vector.
#[derive(Debug, Default)]
pub struct CollectSink {
    /// The hits delivered so far.
    pub hits: Vec<SearchHit>,
}

impl HitSink for CollectSink {
    fn accept(&mut self, hit: SearchHit) -> SinkFlow {
        self.hits.push(hit);
        SinkFlow::Continue
    }
}

/// Adapter turning a closure into a [`HitSink`].
pub struct FnSink<F>(pub F);

impl<F: FnMut(SearchHit) -> SinkFlow> HitSink for FnSink<F> {
    fn accept(&mut self, hit: SearchHit) -> SinkFlow {
        (self.0)(hit)
    }
}

/// Summary returned by the streaming entry point.
#[derive(Debug, Clone)]
pub struct SinkSummary {
    /// Which engine ran.
    pub engine: EngineKind,
    /// The resolved reporting threshold `H`.
    pub threshold: i64,
    /// Hits delivered to the sink.
    pub delivered: usize,
    /// Alignments found before result shaping (top-k, per-record caps) and
    /// before the sink stopped the stream.
    pub raw_hit_count: usize,
    /// True when the sink stopped the stream before it was exhausted.
    pub stopped_early: bool,
    /// Engine work counters for this query.
    pub counters: EngineCounters,
    /// Why the engine run ended (see [`SearchResponse::termination`]).
    pub termination: Termination,
}

// ---------------------------------------------------------------------------
// Searcher
// ---------------------------------------------------------------------------

/// The facade: one [`IndexedDatabase`], one [`SearchRequest`], one engine —
/// any number of queries, sequentially or in parallel.
pub struct Searcher {
    db: IndexedDatabase,
    request: SearchRequest,
    engine: Box<dyn LocalAligner>,
    /// Karlin–Altschul statistics for per-hit E-values (absent when they do
    /// not exist for the scheme/alphabet combination).
    ka: Option<KarlinAltschul>,
    /// Shared cancellation token every search run polls; [`Searcher::cancel`]
    /// trips it from any thread.
    cancel: CancelToken,
}

impl Searcher {
    /// Build the engine selected by `request` over `db`.
    pub fn new(db: IndexedDatabase, request: SearchRequest) -> Self {
        let engine = build_engine(&db, &request);
        Self::with_engine(db, request, engine)
    }

    /// Build a searcher around an explicit engine implementation.
    ///
    /// The facade's own constructors cover the four built-in engines; this
    /// entry point exists for wrapping or instrumenting an engine (fault
    /// injection in tests, metering, tracing).
    pub fn with_engine(
        db: IndexedDatabase,
        request: SearchRequest,
        engine: Box<dyn LocalAligner>,
    ) -> Self {
        let ka = KarlinAltschul::estimate(db.alphabet(), &request.scheme).ok();
        Self {
            db,
            request,
            engine,
            ka,
            cancel: CancelToken::new(),
        }
    }

    /// The shared database handle.
    pub fn database(&self) -> &IndexedDatabase {
        &self.db
    }

    /// The request this searcher was built from.
    pub fn request(&self) -> &SearchRequest {
        &self.request
    }

    /// The engine, as the engine-agnostic trait.
    pub fn engine(&self) -> &dyn LocalAligner {
        self.engine.as_ref()
    }

    /// The shared cancellation token (clone it into whatever thread or
    /// callback should be able to abort in-flight searches).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Cancel every in-flight and future search on this searcher.
    ///
    /// Running engines unwind at their next guard poll and return the hits
    /// found so far with [`Termination::Cancelled`]. Call
    /// [`CancelToken::reset`] on [`Searcher::cancel_token`] to resume
    /// normal service afterwards.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// The minimum query length the selected engine can align: the q-prefix
    /// length for ALAE (Theorem 3 — shorter queries have no q-gram seeds)
    /// and the seed word size for the BLAST-like engine; 1 otherwise.
    fn min_query_len(&self) -> usize {
        match self.engine.kind() {
            EngineKind::Alae => self.request.scheme.q(),
            EngineKind::BlastLike => {
                BlastConfig::for_alphabet(self.db.alphabet(), self.request.scheme, 1).word_size
            }
            EngineKind::Bwtsw | EngineKind::SmithWaterman => 1,
        }
    }

    /// Validate a query sequence against the database and engine.
    fn validate_sequence(&self, query: &Sequence) -> Result<(), SearchError> {
        if query.alphabet() != self.db.alphabet() {
            return Err(SearchError::AlphabetMismatch {
                query: query.alphabet(),
                database: self.db.alphabet(),
            });
        }
        self.validate_len(query.codes().len())
    }

    /// Validate raw alphabet codes (the codes themselves are checked too —
    /// sequences arriving via [`Sequence`] are validated at construction).
    fn validate_codes(&self, query: &[u8]) -> Result<(), SearchError> {
        self.validate_len(query.len())?;
        let alphabet = self.db.alphabet();
        for (position, &code) in query.iter().enumerate() {
            if !alphabet.is_character(code) {
                return Err(SearchError::InvalidCode { code, position });
            }
        }
        Ok(())
    }

    fn validate_len(&self, len: usize) -> Result<(), SearchError> {
        if len == 0 {
            return Err(SearchError::EmptyQuery);
        }
        let min = self.min_query_len();
        if len < min {
            return Err(SearchError::QueryTooShort { len, min });
        }
        Ok(())
    }

    /// The empty response carrying a typed rejection.
    fn invalid_response(&self, error: SearchError) -> SearchResponse {
        SearchResponse {
            engine: self.engine.kind(),
            threshold: 0,
            hits: Vec::new(),
            raw_hit_count: 0,
            counters: EngineCounters::empty(self.engine.kind()),
            termination: Termination::Invalid(error),
        }
    }

    /// The empty response for a query whose engine run panicked.
    fn panicked_response(&self) -> SearchResponse {
        SearchResponse {
            engine: self.engine.kind(),
            threshold: 0,
            hits: Vec::new(),
            raw_hit_count: 0,
            counters: EngineCounters::empty(self.engine.kind()),
            termination: Termination::EnginePanicked,
        }
    }

    /// Run one query eagerly.
    ///
    /// Never panics on bad input: an alphabet mismatch or a query the engine
    /// cannot align (empty, or shorter than its seed length) comes back as
    /// an empty response with [`Termination::Invalid`] naming the reason.
    pub fn search(&self, query: &Sequence) -> SearchResponse {
        match self.validate_sequence(query) {
            Ok(()) => self.search_validated(query.codes()),
            Err(error) => self.invalid_response(error),
        }
    }

    /// Run one query given as raw alphabet codes.
    ///
    /// Codes outside the database's alphabet are rejected with
    /// [`SearchError::InvalidCode`] (see [`Searcher::search`] for the
    /// infallible-rejection contract).
    pub fn search_codes(&self, query: &[u8]) -> SearchResponse {
        match self.validate_codes(query) {
            Ok(()) => self.search_validated(query),
            Err(error) => self.invalid_response(error),
        }
    }

    /// Run an already-validated query under the request's guardrails.
    fn search_validated(&self, query: &[u8]) -> SearchResponse {
        let guard = self.request.guard(Some(self.cancel.clone()));
        let run = self.engine.align_codes_guarded(query, &guard);
        let raw_hit_count = run.hits.len();
        let hits = self.shape_hits(query.len(), &run);
        SearchResponse {
            engine: self.engine.kind(),
            threshold: run.threshold,
            hits,
            raw_hit_count,
            counters: run.counters,
            termination: run.termination,
        }
    }

    /// Run one query and stream its hits into `sink` (canonical order, best
    /// first), stopping as soon as the sink asks to.
    ///
    /// Invalid queries deliver nothing and report [`Termination::Invalid`].
    pub fn search_into(&self, query: &Sequence, sink: &mut dyn HitSink) -> SinkSummary {
        if let Err(error) = self.validate_sequence(query) {
            return SinkSummary {
                engine: self.engine.kind(),
                threshold: 0,
                delivered: 0,
                raw_hit_count: 0,
                stopped_early: false,
                counters: EngineCounters::empty(self.engine.kind()),
                termination: Termination::Invalid(error),
            };
        }
        let guard = self.request.guard(Some(self.cancel.clone()));
        let run = self.engine.align_codes_guarded(query.codes(), &guard);
        let (delivered, stopped_early) =
            self.for_each_shaped_hit(query.len(), &run, &mut |hit| sink.accept(hit));
        SinkSummary {
            engine: self.engine.kind(),
            threshold: run.threshold,
            delivered,
            raw_hit_count: run.hits.len(),
            stopped_early,
            counters: run.counters,
            termination: run.termination,
        }
    }

    /// Run one query with panic isolation: an engine panic is caught and
    /// converted into an empty [`Termination::EnginePanicked`] response
    /// instead of unwinding into the caller.
    ///
    /// `&self` is safe to reuse afterwards: engines take no locks and keep
    /// their mutable state in per-call (or per-thread, fully reinitialized)
    /// scratch, so no shared invariant can be left broken mid-update.
    fn search_isolated(&self, query: &Sequence) -> SearchResponse {
        catch_unwind(AssertUnwindSafe(|| self.search(query)))
            .unwrap_or_else(|_| self.panicked_response())
    }

    /// Fan a batch of queries out over `threads` OS threads sharing this
    /// searcher's engine and index.
    ///
    /// The responses are returned in query order and are bit-identical to
    /// running [`Searcher::search`] sequentially — queries are independent,
    /// every engine emits the canonical total hit order, and the work
    /// counters (including the per-thread occurrence-scan deltas) are exact
    /// per query.
    ///
    /// Each query is panic-isolated: if an engine run panics, that query
    /// comes back as an empty [`Termination::EnginePanicked`] response and
    /// every other query in the batch is unaffected.
    pub fn search_batch(&self, queries: &[Sequence], threads: usize) -> Vec<SearchResponse> {
        let threads = threads.clamp(1, queries.len().max(1));
        if threads == 1 {
            return queries.iter().map(|q| self.search_isolated(q)).collect();
        }
        // Work-stealing over an atomic cursor: each worker claims the next
        // unprocessed query, so long and short queries balance out. Results
        // land in per-query slots so a worker thread dying (a panic escaping
        // even the per-query isolation) costs only the queries it claimed —
        // their slots stay `None` and are backfilled below.
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<SearchResponse>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= queries.len() {
                                break;
                            }
                            mine.push((i, self.search_isolated(&queries[i])));
                        }
                        mine
                    })
                })
                .collect();
            let mut slots: Vec<Option<SearchResponse>> = Vec::new();
            slots.resize_with(queries.len(), || None);
            for worker in workers {
                for (i, response) in worker.join().unwrap_or_default() {
                    slots[i] = Some(response);
                }
            }
            slots
        });
        slots
            .iter_mut()
            .map(|slot| slot.take().unwrap_or_else(|| self.panicked_response()))
            .collect()
    }

    /// Resolve offset-keyed engine hits to records and apply the request's
    /// result shaping (`min_score`, `max_hits_per_record`, `top_k`) in
    /// canonical order.
    fn shape_hits(&self, query_len: usize, run: &EngineRun) -> Vec<SearchHit> {
        let mut out = Vec::new();
        self.for_each_shaped_hit(query_len, run, &mut |hit| {
            out.push(hit);
            SinkFlow::Continue
        });
        out
    }

    /// Shape hits one at a time, stopping (and skipping the remaining
    /// record resolution and E-value work) as soon as `consume` asks to.
    ///
    /// Returns `(delivered, stopped_early)`.
    fn for_each_shaped_hit(
        &self,
        query_len: usize,
        run: &EngineRun,
        consume: &mut dyn FnMut(SearchHit) -> SinkFlow,
    ) -> (usize, bool) {
        let min_score = self.request.min_score.unwrap_or(i64::MIN);
        let top_k = self.request.top_k.unwrap_or(usize::MAX);
        // Per-record counting is only paid for when a cap is set.
        let mut per_record: Option<Vec<usize>> = self
            .request
            .max_hits_per_record
            .map(|_| vec![0; self.db.record_count()]);
        let per_record_cap = self.request.max_hits_per_record.unwrap_or(usize::MAX);
        let mut delivered = 0;
        for hit in &run.hits {
            if delivered >= top_k {
                break;
            }
            if hit.score < min_score {
                // Canonical order is score-descending: nothing later passes.
                break;
            }
            // Engine hits always end inside a record; under the panic-free
            // facade policy an out-of-range offset is dropped, not unwrapped.
            let Some(location) = self.db.database.locate(hit.end_text) else {
                continue;
            };
            if let Some(counts) = per_record.as_mut() {
                if counts[location.record] >= per_record_cap {
                    continue;
                }
                counts[location.record] += 1;
            }
            delivered += 1;
            let shaped = SearchHit {
                record: location.record,
                name: location.name,
                record_end: location.offset,
                query_end: hit.end_query + 1,
                text_end: hit.end_text,
                score: hit.score,
                evalue: self
                    .ka
                    .as_ref()
                    .map(|ka| ka.evalue(query_len, self.db.text_len(), hit.score)),
            };
            if consume(shaped) == SinkFlow::Stop {
                return (delivered, true);
            }
        }
        (delivered, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_db() -> IndexedDatabase {
        IndexedDatabase::from_sequences(
            Alphabet::Dna,
            [
                Sequence::from_ascii_named(Alphabet::Dna, "r1", b"TTGCTAGCTT").unwrap(),
                Sequence::from_ascii_named(Alphabet::Dna, "r2", b"AAGCTAGCAAGCTAGG").unwrap(),
            ],
        )
    }

    #[test]
    fn indexed_database_shares_one_text_copy() {
        let db = tiny_db();
        // Database and index hold the same allocation, not two copies.
        assert!(std::ptr::eq(
            db.database().text(),
            db.index().text() as *const [u8]
        ));
    }

    #[test]
    fn eager_search_resolves_records_and_orders_canonically() {
        let db = tiny_db();
        let request = SearchRequest::with_threshold(ScoringScheme::DEFAULT, 5);
        let searcher = Searcher::new(db, request);
        let query = Sequence::from_ascii(Alphabet::Dna, b"GCTAGC").unwrap();
        let response = searcher.search(&query);
        assert!(!response.hits.is_empty());
        assert!(!response.truncated());
        // Canonical order: scores never increase.
        for pair in response.hits.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
        // Every hit is record-resolved and its coordinates are 1-based.
        for hit in &response.hits {
            assert!(hit.record < 2);
            assert_eq!(&*hit.name, if hit.record == 0 { "r1" } else { "r2" });
            assert!(hit.record_end >= 1);
            assert!(hit.query_end >= 1 && hit.query_end <= query.len());
            assert!(hit.evalue.is_some());
        }
        assert_eq!(response.best().unwrap().score, response.hits[0].score);
    }

    #[test]
    fn top_k_min_score_and_per_record_caps_shape_results() {
        let db = tiny_db();
        let query = Sequence::from_ascii(Alphabet::Dna, b"GCTAGC").unwrap();
        let base = SearchRequest::with_threshold(ScoringScheme::DEFAULT, 4);
        let all = Searcher::new(db.clone(), base).search(&query);
        assert!(all.hits.len() > 2);

        let top2 = Searcher::new(db.clone(), base.top_k(2)).search(&query);
        assert_eq!(top2.hits.len(), 2);
        assert!(top2.truncated());
        assert_eq!(top2.hits[..], all.hits[..2]);

        let strong = Searcher::new(db.clone(), base.min_score(6)).search(&query);
        assert!(strong.hits.iter().all(|h| h.score >= 6));
        assert!(strong.hits.len() < all.hits.len());

        let capped = Searcher::new(db, base.max_hits_per_record(1)).search(&query);
        let mut seen = std::collections::HashMap::new();
        for hit in &capped.hits {
            *seen.entry(hit.record).or_insert(0) += 1;
        }
        assert!(seen.values().all(|&count| count == 1));
    }

    #[test]
    fn sink_streams_in_order_and_stops_early() {
        let db = tiny_db();
        let searcher = Searcher::new(db, SearchRequest::with_threshold(ScoringScheme::DEFAULT, 4));
        let query = Sequence::from_ascii(Alphabet::Dna, b"GCTAGC").unwrap();
        let eager = searcher.search(&query);
        assert!(eager.hits.len() >= 2);

        let mut collect = CollectSink::default();
        let summary = searcher.search_into(&query, &mut collect);
        assert!(!summary.stopped_early);
        assert_eq!(summary.delivered, eager.hits.len());
        assert_eq!(collect.hits, eager.hits);

        let mut first = None;
        let summary = searcher.search_into(
            &query,
            &mut FnSink(|hit| {
                first = Some(hit);
                SinkFlow::Stop
            }),
        );
        assert!(summary.stopped_early);
        assert_eq!(summary.delivered, 1);
        assert_eq!(first.as_ref(), eager.hits.first());
    }

    #[test]
    fn every_engine_is_drivable_through_the_trait() {
        let db = tiny_db();
        let query = Alphabet::Dna.encode(b"GCTAGC").unwrap();
        for kind in EngineKind::ALL {
            let request = SearchRequest::with_threshold(ScoringScheme::DEFAULT, 5).engine(kind);
            let engine = build_engine(&db, &request);
            assert_eq!(engine.kind(), kind);
            assert_eq!(engine.resolve_threshold(query.len()), 5);
            let run = engine.align_codes(&query);
            assert_eq!(run.threshold, 5);
            if kind.is_exact() {
                assert!(!run.hits.is_empty(), "{kind} found nothing");
            }
        }
    }
}
