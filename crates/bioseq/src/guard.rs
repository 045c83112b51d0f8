//! Request guardrails: deadlines, cooperative cancellation, work/memory
//! budgets and typed termination statuses.
//!
//! Every engine in the workspace walks a potentially huge search space
//! (suffix-trie DFS, seed extension, a full `n·m` dynamic program).  A
//! long-lived search service cannot afford a runaway query that can only
//! be stopped by killing the process, so each engine's hot loop
//! cooperatively polls a [`GuardProbe`] built from the request's
//! [`SearchGuard`]:
//!
//! * **Deadline** — a wall-clock [`Instant`] after which the run unwinds.
//! * **Work budget** — a cap on the engine's own work counters (DP cells
//!   calculated / extension attempts, the exact counters the experiment
//!   tables report), so a bound holds even on machines with slow clocks.
//! * **Memory budget** — a cap on the engine's scratch footprint (fork
//!   arena bytes, pooled DP rows); only evaluated when set.
//! * **[`CancelToken`]** — a shared atomic flag any thread may trip, which
//!   stops every in-flight run holding a clone of the token.
//!
//! Polling is amortized: the probe does the cheap checks (budget compare,
//! trip flag) on every [`GuardProbe::poll`] call — engines call it once per
//! node expansion / text row / seed — and the expensive ones (clock read,
//! atomic load, memory accounting) only every `poll_interval` calls, so an
//! unlimited probe costs a couple of predictable branches per node.
//!
//! A tripped run does **not** error: it unwinds cleanly and reports the
//! hits found so far together with a typed [`Termination`], making partial
//! results first-class.
//!
//! With the `fault-inject` cargo feature, a `FaultPlan` can be attached
//! to a guard to force a panic, a deadline expiry or a budget exhaustion
//! at an exact node count — the test harness uses this to prove the
//! unwind/isolation invariants from deep inside a real DFS.  Without the
//! feature the hook does not exist and costs nothing.

use crate::Alphabet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a search run ended.
///
/// Everything except [`Termination::Complete`] means the reported hits may
/// be a (canonically ordered) subset of the full result set; see the
/// variant docs for the exact contract.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Termination {
    /// The engine exhausted its search space: the result set is complete
    /// (exact for the exact engines, best-effort for the heuristic).
    #[default]
    Complete,
    /// The request's deadline passed mid-run; hits found before the poll
    /// that noticed are reported.
    DeadlineExceeded,
    /// The work or memory budget was exhausted mid-run; hits found within
    /// the budget are reported.
    BudgetExhausted,
    /// The request's [`CancelToken`] was tripped by another thread.
    Cancelled,
    /// The engine panicked and the panic was isolated by the batch path;
    /// no hits are reported for this query.
    EnginePanicked,
    /// The request failed validation before any engine ran; no hits are
    /// reported and no work was done.
    Invalid(SearchError),
}

impl Termination {
    /// True when the engine exhausted its search space.
    pub fn is_complete(&self) -> bool {
        matches!(self, Termination::Complete)
    }

    /// True when the run was cut short by a guardrail but still reports
    /// valid partial hits (deadline, budget or cancellation — not panics
    /// or validation failures).
    pub fn is_partial(&self) -> bool {
        matches!(
            self,
            Termination::DeadlineExceeded | Termination::BudgetExhausted | Termination::Cancelled
        )
    }

    /// Stable `snake_case` identifier for this outcome, suitable as a
    /// metric label value or a trace-record field.  Exactly one label per
    /// variant, never localized, never changed once published — the
    /// `alae_query_terminations_total{outcome=...}` metric exported by the
    /// server's observability layer is keyed on these strings (see
    /// `docs/metrics.md`).
    pub fn label(&self) -> &'static str {
        match self {
            Termination::Complete => "complete",
            Termination::DeadlineExceeded => "deadline_exceeded",
            Termination::BudgetExhausted => "budget_exhausted",
            Termination::Cancelled => "cancelled",
            Termination::EnginePanicked => "engine_panicked",
            Termination::Invalid(_) => "invalid",
        }
    }

    /// Every label [`Termination::label`] can produce, in rendering order.
    /// Metric registries pre-register one counter per label so a scrape
    /// always shows the full outcome space, zeros included.
    pub const LABELS: [&'static str; 6] = [
        "complete",
        "deadline_exceeded",
        "budget_exhausted",
        "cancelled",
        "engine_panicked",
        "invalid",
    ];

    /// Position of this outcome's label inside [`Termination::LABELS`].
    pub fn label_index(&self) -> usize {
        match self {
            Termination::Complete => 0,
            Termination::DeadlineExceeded => 1,
            Termination::BudgetExhausted => 2,
            Termination::Cancelled => 3,
            Termination::EnginePanicked => 4,
            Termination::Invalid(_) => 5,
        }
    }
}

impl std::fmt::Display for Termination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Termination::Complete => f.write_str("complete"),
            Termination::DeadlineExceeded => f.write_str("deadline exceeded"),
            Termination::BudgetExhausted => f.write_str("budget exhausted"),
            Termination::Cancelled => f.write_str("cancelled"),
            Termination::EnginePanicked => f.write_str("engine panicked"),
            Termination::Invalid(error) => write!(f, "invalid request: {error}"),
        }
    }
}

/// A request that could not be run at all (facade input validation).
///
/// These used to surface as deep panics or garbage hits; the facade now
/// rejects them up front with an empty response carrying
/// [`Termination::Invalid`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchError {
    /// The query's alphabet differs from the database's.
    AlphabetMismatch {
        /// The query's alphabet.
        query: Alphabet,
        /// The database's alphabet.
        database: Alphabet,
    },
    /// The query is empty.
    EmptyQuery,
    /// The query is shorter than the engine's seed length (the q-gram
    /// length for ALAE, the word size for the BLAST-like heuristic), so
    /// the engine could not report anything meaningful.
    QueryTooShort {
        /// The query length.
        len: usize,
        /// The engine's minimum query length.
        min: usize,
    },
    /// A raw code sequence contained a byte outside the database
    /// alphabet's code range.
    InvalidCode {
        /// The offending code.
        code: u8,
        /// Its offset in the query.
        position: usize,
    },
    /// The scoring scheme breaks the sign rules of Section 2.1, or (for
    /// ALAE) its q-grams cannot be packed into a `u64` key.
    InvalidScheme {
        /// Which rule the scheme breaks.
        reason: String,
    },
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::AlphabetMismatch { query, database } => write!(
                f,
                "query alphabet {query:?} does not match database alphabet {database:?}"
            ),
            SearchError::EmptyQuery => f.write_str("empty query"),
            SearchError::QueryTooShort { len, min } => write!(
                f,
                "query length {len} is below the engine's minimum of {min}"
            ),
            SearchError::InvalidCode { code, position } => write!(
                f,
                "query code {code} at position {position} is outside the database alphabet"
            ),
            SearchError::InvalidScheme { reason } => write!(f, "invalid scoring scheme: {reason}"),
        }
    }
}

impl std::error::Error for SearchError {}

/// A shared cancellation flag.  Clones share the same flag; tripping any
/// clone stops every in-flight search polling it (at its next poll).
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trip the flag: every search holding a clone unwinds at its next
    /// poll with [`Termination::Cancelled`].
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether the flag has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    /// Clear the flag so the token can be reused for a new request.
    pub fn reset(&self) {
        self.0.store(false, Ordering::Relaxed);
    }
}

/// RAII companion to [`CancelToken`]: cancels the token when dropped
/// unless [`CancelOnDrop::disarm`] was called first.
///
/// This is how "the caller went away" propagates to in-flight work: hold
/// the armed guard while waiting for a batch; if the waiting scope unwinds
/// (panic, early return, client disconnect), the drop trips the token and
/// every in-flight sibling query unwinds with [`Termination::Cancelled`]
/// instead of running to completion for nobody.
#[derive(Debug)]
pub struct CancelOnDrop(Option<CancelToken>);

impl CancelOnDrop {
    /// Arm: dropping the returned guard cancels `token`.
    pub fn new(token: CancelToken) -> Self {
        Self(Some(token))
    }

    /// Disarm and return the token without cancelling it (the happy path,
    /// once the guarded work has completed).
    pub fn disarm(mut self) -> CancelToken {
        self.0.take().unwrap_or_default()
    }
}

impl Drop for CancelOnDrop {
    fn drop(&mut self) {
        if let Some(token) = self.0.take() {
            token.cancel();
        }
    }
}

/// A deterministic fault injected into a [`GuardProbe`] at an exact node
/// count (only with the `fault-inject` cargo feature; the hook does not
/// exist otherwise).  Node counts are 1-based poll calls — node 1 is the
/// first expansion the engine polls for.
#[cfg(feature = "fault-inject")]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Panic at this node count (proves the batch path's panic isolation
    /// from deep inside a real DFS).
    pub panic_at_node: Option<u64>,
    /// Trip [`Termination::DeadlineExceeded`] at this node count (proves
    /// mid-DFS deadline unwinding without racing a real clock).
    pub deadline_at_node: Option<u64>,
    /// Trip [`Termination::BudgetExhausted`] at this node count.
    pub budget_at_node: Option<u64>,
    /// Restrict the plan to queries of exactly this length (lets a batch
    /// poison one query while its siblings run clean).
    pub only_query_len: Option<usize>,
    /// Server I/O fault: stall for a fixed pause before handling this
    /// 1-based frame count on a connection (simulates a wedged disk or a
    /// peer that stops draining its socket).
    pub io_stall_at_frame: Option<u64>,
    /// Server I/O fault: drop the connection outright before handling
    /// this 1-based frame count (simulates a mid-stream disconnect /
    /// half-closed socket).
    pub drop_conn_at_frame: Option<u64>,
    /// Server I/O fault: throttle connection reads to this many bytes per
    /// second (simulates a slow-loris peer on the server's own read path).
    pub slow_read_bytes_per_sec: Option<u64>,
}

#[cfg(feature = "fault-inject")]
impl FaultPlan {
    /// Whether the plan applies to a query of length `query_len`.
    pub fn applies_to(&self, query_len: usize) -> bool {
        self.only_query_len.is_none_or(|len| len == query_len)
    }

    /// Whether the plan carries any server-side I/O fault (the engine
    /// probe ignores these; the server's connection layer consumes them).
    pub fn has_io_fault(&self) -> bool {
        self.io_stall_at_frame.is_some()
            || self.drop_conn_at_frame.is_some()
            || self.slow_read_bytes_per_sec.is_some()
    }

    /// Parse a plan from the `ALAE_FAULT_PLAN` syntax:
    /// `<panic|deadline|budget>@<node>`, `<io-stall|drop-conn>@<frame>`,
    /// `slow-read=<bytes_per_sec>`, `len=<query_len>` — comma-separated.
    pub fn parse(spec: &str) -> Option<Self> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',') {
            let part = part.trim();
            if let Some(len) = part.strip_prefix("len=") {
                plan.only_query_len = Some(len.parse().ok()?);
                continue;
            }
            if let Some(rate) = part.strip_prefix("slow-read=") {
                plan.slow_read_bytes_per_sec = Some(rate.parse().ok()?);
                continue;
            }
            let (kind, node) = part.split_once('@')?;
            let node: u64 = node.parse().ok()?;
            match kind {
                "panic" => plan.panic_at_node = Some(node),
                "deadline" => plan.deadline_at_node = Some(node),
                "budget" => plan.budget_at_node = Some(node),
                "io-stall" => plan.io_stall_at_frame = Some(node),
                "drop-conn" => plan.drop_conn_at_frame = Some(node),
                _ => return None,
            }
        }
        (plan != FaultPlan::default()).then_some(plan)
    }

    /// The process-wide plan from the `ALAE_FAULT_PLAN` environment
    /// variable, if set and well-formed (read once, then cached).
    pub fn from_env() -> Option<Self> {
        static PLAN: std::sync::OnceLock<Option<FaultPlan>> = std::sync::OnceLock::new();
        *PLAN.get_or_init(|| {
            std::env::var("ALAE_FAULT_PLAN")
                .ok()
                .and_then(|spec| FaultPlan::parse(&spec))
        })
    }
}

/// The guardrails of one search request, resolved to run form (the
/// deadline is an absolute [`Instant`]).  [`SearchGuard::none`] (the
/// default) disables everything and is what the plain `align` entry
/// points use.
#[derive(Debug, Clone, Default)]
pub struct SearchGuard {
    /// Unwind with [`Termination::DeadlineExceeded`] once this instant
    /// passes.
    pub deadline: Option<Instant>,
    /// Unwind with [`Termination::BudgetExhausted`] once the engine's
    /// work counter (DP cells / extension attempts) exceeds this.
    pub work_budget: Option<u64>,
    /// Unwind with [`Termination::BudgetExhausted`] once the engine's
    /// scratch footprint (arena / DP-row bytes) exceeds this.
    pub memory_budget: Option<u64>,
    /// Unwind with [`Termination::Cancelled`] once this token is tripped.
    pub cancel: Option<CancelToken>,
    /// Poll the clock/token/memory every this many node expansions
    /// (default [`SearchGuard::DEFAULT_POLL_INTERVAL`]).  Budget
    /// accounting is exact regardless — only the expensive checks are
    /// amortized.
    pub poll_interval: Option<u32>,
    /// Deterministic fault injection (tests only; see [`FaultPlan`]).
    #[cfg(feature = "fault-inject")]
    pub fault: Option<FaultPlan>,
}

impl SearchGuard {
    /// Node expansions between clock/token/memory polls when the request
    /// does not override it.  At typical per-node costs (two occurrence
    /// block scans plus a handful of DP cells) this bounds deadline
    /// overshoot to well under a millisecond while keeping the poll
    /// overhead unmeasurable.
    pub const DEFAULT_POLL_INTERVAL: u32 = 64;

    /// No guardrails: never trips, costs two predictable branches per
    /// node expansion.
    pub fn none() -> Self {
        Self::default()
    }

    /// Convenience: a guard whose deadline is `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self {
            deadline: Some(Instant::now() + timeout),
            ..Self::default()
        }
    }

    /// True when no guardrail is configured (fault plans included).
    pub fn is_unlimited(&self) -> bool {
        let unlimited = self.deadline.is_none()
            && self.work_budget.is_none()
            && self.memory_budget.is_none()
            && self.cancel.is_none();
        #[cfg(feature = "fault-inject")]
        let unlimited = unlimited && self.fault.is_none() && FaultPlan::from_env().is_none();
        unlimited
    }

    /// Build the per-run probe for a query of length `query_len` (the
    /// length selects which queries an injected fault plan applies to).
    pub fn probe(&self, query_len: usize) -> GuardProbe {
        let interval = self
            .poll_interval
            .unwrap_or(Self::DEFAULT_POLL_INTERVAL)
            .max(1);
        #[cfg(not(feature = "fault-inject"))]
        let _ = query_len;
        GuardProbe {
            work_done: 0,
            work_budget: self.work_budget.unwrap_or(u64::MAX),
            memory_budget: self.memory_budget.unwrap_or(u64::MAX),
            deadline: self.deadline,
            cancel: self.cancel.clone(),
            interval,
            until_slow: interval,
            tripped: None,
            #[cfg(feature = "fault-inject")]
            nodes: 0,
            #[cfg(feature = "fault-inject")]
            fault: self
                .fault
                .or_else(FaultPlan::from_env)
                .filter(|plan| plan.applies_to(query_len)),
        }
    }
}

/// The per-run mutable state of one guarded search: owned by the engine
/// for the duration of one `align` call.
///
/// Engines call [`GuardProbe::add_work`] as they compute (with the same
/// quantities their work counters record) and [`GuardProbe::poll`] once
/// per node expansion / text row / seed; a `true` return means "unwind
/// now", and [`GuardProbe::termination`] says why.
#[derive(Debug)]
pub struct GuardProbe {
    work_done: u64,
    work_budget: u64,
    memory_budget: u64,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    interval: u32,
    until_slow: u32,
    tripped: Option<Termination>,
    #[cfg(feature = "fault-inject")]
    nodes: u64,
    #[cfg(feature = "fault-inject")]
    fault: Option<FaultPlan>,
}

impl GuardProbe {
    /// A probe that never trips (the plain `align` entry points).
    pub fn unlimited() -> Self {
        SearchGuard::none().probe(0)
    }

    /// Record `units` of engine work (DP cells calculated, extension
    /// attempts) toward the work budget.
    #[inline]
    pub fn add_work(&mut self, units: u64) {
        self.work_done += units;
    }

    /// Work recorded so far.
    pub fn work_done(&self) -> u64 {
        self.work_done
    }

    /// Poll the guardrails; returns `true` when the run must unwind.
    ///
    /// Cheap checks (already tripped, work budget) run every call; the
    /// clock, the cancel token and `memory_bytes` (the engine's current
    /// scratch footprint — only invoked when a memory budget is set) are
    /// consulted every `poll_interval` calls.  Once tripped, the probe
    /// stays tripped.
    #[inline]
    pub fn poll(&mut self, memory_bytes: impl FnOnce() -> u64) -> bool {
        #[cfg(feature = "fault-inject")]
        if self.fault.is_some() && self.fault_tick() {
            return true;
        }
        if self.tripped.is_some() {
            return true;
        }
        if self.work_done > self.work_budget {
            self.tripped = Some(Termination::BudgetExhausted);
            return true;
        }
        self.until_slow -= 1;
        if self.until_slow > 0 {
            return false;
        }
        self.until_slow = self.interval;
        let memory = (self.memory_budget != u64::MAX).then(memory_bytes);
        self.poll_slow(memory)
    }

    /// Whether the probe has already tripped.
    pub fn is_tripped(&self) -> bool {
        self.tripped.is_some()
    }

    /// Why the run ended: the trip reason, or [`Termination::Complete`].
    pub fn termination(&self) -> Termination {
        self.tripped.clone().unwrap_or(Termination::Complete)
    }

    /// The expensive checks, amortized to every `poll_interval` calls.
    #[cold]
    fn poll_slow(&mut self, memory_bytes: Option<u64>) -> bool {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.tripped = Some(Termination::DeadlineExceeded);
                return true;
            }
        }
        if let Some(cancel) = &self.cancel {
            if cancel.is_cancelled() {
                self.tripped = Some(Termination::Cancelled);
                return true;
            }
        }
        if let Some(bytes) = memory_bytes {
            if bytes > self.memory_budget {
                self.tripped = Some(Termination::BudgetExhausted);
                return true;
            }
        }
        false
    }

    /// Count one node and fire any fault scheduled for it.
    #[cfg(feature = "fault-inject")]
    fn fault_tick(&mut self) -> bool {
        let Some(plan) = self.fault else {
            return false;
        };
        self.nodes += 1;
        if plan.panic_at_node == Some(self.nodes) {
            panic!("fault injection: forced panic at node {}", self.nodes);
        }
        if plan.deadline_at_node == Some(self.nodes) {
            self.tripped = Some(Termination::DeadlineExceeded);
            return true;
        }
        if plan.budget_at_node == Some(self.nodes) {
            self.tripped = Some(Termination::BudgetExhausted);
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_probe_never_trips() {
        let mut probe = GuardProbe::unlimited();
        for _ in 0..10_000 {
            probe.add_work(1_000);
            assert!(!probe.poll(unreachable_memory));
        }
        assert_eq!(probe.termination(), Termination::Complete);
    }

    /// An unlimited probe must never evaluate the memory closure.
    fn unreachable_memory() -> u64 {
        panic!("memory closure evaluated without a memory budget")
    }

    #[test]
    fn work_budget_trips_exactly_and_stays_tripped() {
        let guard = SearchGuard {
            work_budget: Some(100),
            ..SearchGuard::default()
        };
        let mut probe = guard.probe(0);
        probe.add_work(100);
        assert!(!probe.poll(|| 0), "budget not yet exceeded");
        probe.add_work(1);
        assert!(probe.poll(|| 0));
        assert_eq!(probe.termination(), Termination::BudgetExhausted);
        assert!(probe.poll(|| 0), "tripped probes stay tripped");
    }

    #[test]
    fn expired_deadline_trips_at_the_poll_interval() {
        let guard = SearchGuard {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            poll_interval: Some(8),
            ..SearchGuard::default()
        };
        let mut probe = guard.probe(0);
        let mut polls = 0;
        while !probe.poll(|| 0) {
            polls += 1;
            assert!(polls < 8, "must trip within one poll interval");
        }
        assert_eq!(probe.termination(), Termination::DeadlineExceeded);
    }

    #[test]
    fn cancel_token_is_shared_and_resettable() {
        let token = CancelToken::new();
        let guard = SearchGuard {
            cancel: Some(token.clone()),
            poll_interval: Some(1),
            ..SearchGuard::default()
        };
        let mut probe = guard.probe(0);
        assert!(!probe.poll(|| 0));
        token.cancel();
        assert!(token.is_cancelled());
        assert!(probe.poll(|| 0));
        assert_eq!(probe.termination(), Termination::Cancelled);
        token.reset();
        assert!(!token.is_cancelled());
        // A fresh probe on the reset token runs again.
        assert!(!guard.probe(0).poll(|| 0));
    }

    #[test]
    fn memory_budget_consults_the_closure_only_on_slow_polls() {
        let guard = SearchGuard {
            memory_budget: Some(1_000),
            poll_interval: Some(4),
            ..SearchGuard::default()
        };
        let mut probe = guard.probe(0);
        let mut evaluations = 0;
        for _ in 0..4 {
            assert!(!probe.poll(|| {
                evaluations += 1;
                500
            }));
        }
        assert_eq!(evaluations, 1, "one slow poll in 4 calls at interval 4");
        for _ in 0..4 {
            probe.poll(|| {
                evaluations += 1;
                2_000
            });
        }
        assert_eq!(probe.termination(), Termination::BudgetExhausted);
    }

    #[test]
    fn cancel_on_drop_arms_and_disarms() {
        let token = CancelToken::new();
        {
            let _armed = CancelOnDrop::new(token.clone());
        }
        assert!(token.is_cancelled(), "dropping the guard cancels");

        let token = CancelToken::new();
        let armed = CancelOnDrop::new(token.clone());
        let returned = armed.disarm();
        assert!(!token.is_cancelled(), "disarm keeps the token live");
        assert!(!returned.is_cancelled());
    }

    #[test]
    fn termination_classification_and_display() {
        assert!(Termination::Complete.is_complete());
        assert!(!Termination::Complete.is_partial());
        assert!(Termination::DeadlineExceeded.is_partial());
        assert!(Termination::BudgetExhausted.is_partial());
        assert!(Termination::Cancelled.is_partial());
        assert!(!Termination::EnginePanicked.is_partial());
        let invalid = Termination::Invalid(SearchError::EmptyQuery);
        assert!(!invalid.is_partial());
        assert_eq!(invalid.to_string(), "invalid request: empty query");
        assert_eq!(Termination::default(), Termination::Complete);
    }

    #[test]
    fn guard_unlimited_detection() {
        assert!(SearchGuard::none().is_unlimited());
        assert!(!SearchGuard::with_timeout(Duration::from_secs(1)).is_unlimited());
        let guard = SearchGuard {
            work_budget: Some(1),
            ..SearchGuard::default()
        };
        assert!(!guard.is_unlimited());
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn fault_plans_parse_and_target_query_lengths() {
        let plan = FaultPlan::parse("panic@120,len=33").expect("well-formed plan");
        assert_eq!(plan.panic_at_node, Some(120));
        assert_eq!(plan.only_query_len, Some(33));
        assert!(plan.applies_to(33));
        assert!(!plan.applies_to(34));
        assert!(FaultPlan::parse("deadline@5").is_some());
        assert!(FaultPlan::parse("budget@9").is_some());
        assert!(FaultPlan::parse("nonsense@5").is_none());
        assert!(FaultPlan::parse("panic@notanumber").is_none());
        assert!(FaultPlan::parse("").is_none());
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn io_fault_plans_parse() {
        let plan = FaultPlan::parse("io-stall@2").expect("well-formed plan");
        assert_eq!(plan.io_stall_at_frame, Some(2));
        assert!(plan.has_io_fault());

        let plan = FaultPlan::parse("drop-conn@3,slow-read=512").expect("well-formed plan");
        assert_eq!(plan.drop_conn_at_frame, Some(3));
        assert_eq!(plan.slow_read_bytes_per_sec, Some(512));
        assert!(plan.has_io_fault());

        let engine_only = FaultPlan::parse("panic@7").expect("well-formed plan");
        assert!(!engine_only.has_io_fault());

        assert!(FaultPlan::parse("slow-read=fast").is_none());
        assert!(FaultPlan::parse("io-stall@").is_none());
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_deadline_and_budget_trip_at_the_exact_node() {
        for (plan, expected) in [
            (
                FaultPlan {
                    deadline_at_node: Some(3),
                    ..FaultPlan::default()
                },
                Termination::DeadlineExceeded,
            ),
            (
                FaultPlan {
                    budget_at_node: Some(3),
                    ..FaultPlan::default()
                },
                Termination::BudgetExhausted,
            ),
        ] {
            let guard = SearchGuard {
                fault: Some(plan),
                ..SearchGuard::default()
            };
            let mut probe = guard.probe(0);
            assert!(!probe.poll(|| 0));
            assert!(!probe.poll(|| 0));
            assert!(probe.poll(|| 0), "fault fires at node 3");
            assert_eq!(probe.termination(), expected);
        }
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    #[should_panic(expected = "fault injection")]
    fn injected_panic_fires() {
        let guard = SearchGuard {
            fault: Some(FaultPlan {
                panic_at_node: Some(1),
                ..FaultPlan::default()
            }),
            ..SearchGuard::default()
        };
        guard.probe(0).poll(|| 0);
    }
}
