//! One workload, one process: generate inputs, set up, warm up, run
//! timed rounds, check exactness, report.

use crate::exact::{canonical, diff, digest};
use crate::layers;
use crate::metrics::Measured;
use crate::stats::{median, percentile, samples_beyond, supports_percentile};
use crate::trace::{AlignClock, AlignLog, Span, Trace};
use crate::workloads::{Load, WorkloadSpec, ORACLE_QUERIES, WARMUP_QUERIES};
use alae::bioseq::{Sequence, SequenceDatabase};
use alae::client::Client;
use alae::search::{
    build_engine, EngineCounters, EngineKind, IndexBuilder, IndexedDatabase, SearchRequest,
    SearchResponse, Searcher,
};
use alae_server::{FairnessConfig, Server, ServerConfig};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// How to run one workload.
#[derive(Debug, Clone)]
pub struct RunOptions {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Where the index file, and with `trace` the trace file, are written.
    pub out_dir: PathBuf,
}

/// What one workload run reports.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Measured,
    /// Context lines: sample counts, hits per query, rounds.
    pub info: Vec<(&'static str, f64, &'static str)>,
}

/// The clock readings around the steps of one set-up repetition: build,
/// save, drop of the built index, verify, open, start.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    marks: [Instant; 7],
}

impl SetupTimes {
    fn interval(&self, step: usize) -> (Instant, Instant) {
        (self.marks[step], self.marks[step + 1])
    }

    /// `IndexBuilder::index`.
    pub fn build(&self) -> (Instant, Instant) {
        self.interval(0)
    }

    /// `IndexedDatabase::save`.
    pub fn save(&self) -> (Instant, Instant) {
        self.interval(1)
    }

    /// `alae::store::verify_index` (traced runs only).
    pub fn verify(&self) -> (Instant, Instant) {
        self.interval(3)
    }

    /// `IndexedDatabase::open`.
    pub fn open(&self) -> (Instant, Instant) {
        self.interval(4)
    }

    /// `Server::bind`, or `Searcher::new` for the batch workload.
    pub fn start(&self) -> (Instant, Instant) {
        self.interval(5)
    }

    /// `setup_s` counts build, save, open and start; verify is not part of
    /// it.
    fn setup(&self) -> Duration {
        [self.build(), self.save(), self.open(), self.start()]
            .iter()
            .map(|&(from, to)| to - from)
            .sum()
    }
}

/// The system under test after set-up.
enum System {
    Served(Server),
    Batch(Searcher),
}

/// One timed operation: a served query, or one `search_batch` call.
struct Sample {
    /// The queries the operation carried (one for a served query).
    queries: std::ops::Range<usize>,
    start: Instant,
    end: Instant,
    results: Vec<Result<Reply, String>>,
    /// Every query of the operation came back complete.
    ok: bool,
}

impl Sample {
    fn new(
        queries: std::ops::Range<usize>,
        (start, end): (Instant, Instant),
        results: Vec<Result<Reply, String>>,
    ) -> Self {
        let ok = results.iter().all(|r| r.as_ref().is_ok_and(|r| r.complete));
        Self {
            queries,
            start,
            end,
            results,
            ok,
        }
    }

    fn latency_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// What is kept of one response.
pub struct Reply {
    pub complete: bool,
    pub digest: u64,
    pub hits: usize,
    pub counters: EngineCounters,
    /// The full response, kept for the first round of a traced run only
    /// (the wire layer re-encodes it).
    pub full: Option<SearchResponse>,
}

fn reply(response: SearchResponse, keep: bool) -> Reply {
    Reply {
        complete: response.is_complete(),
        digest: digest(&canonical(&response.hits)),
        hits: response.hits.len(),
        counters: response.counters.clone(),
        full: keep.then_some(response),
    }
}

/// One round: every query of the set once.
pub struct Round {
    samples: Vec<Sample>,
    pub traced: bool,
    /// Server trace records of a traced served round.
    pub server: Option<layers::ServerRound>,
}

impl Round {
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.samples.iter().map(Sample::latency_ms).collect()
    }
}

/// Each operation's fastest successful run over `rounds`, as (queries it
/// carried, milliseconds): one per query, or per `search_batch` chunk on
/// the batch workload.
///
/// Every round repeats the same operations, so keeping each one's best
/// run filters out interference from the rest of the machine, while the
/// spread across the query set — hit-heavy against light queries — stays
/// in the percentiles.  On the shared host the bounds were set on, served
/// latencies switch at random between a fast mode and one 50–70% slower,
/// in stretches of seconds to minutes; an operation needs about a hundred
/// tries spread over the run for its best to land in the fast mode
/// reliably, which is why the query sets are small.
pub fn best_runs<'a>(rounds: impl IntoIterator<Item = &'a Round>) -> Vec<(usize, f64)> {
    let mut best: BTreeMap<usize, (usize, f64)> = BTreeMap::new();
    for sample in rounds.into_iter().flat_map(|r| &r.samples) {
        if sample.ok {
            let slot = best
                .entry(sample.queries.start)
                .or_insert((sample.queries.len(), f64::INFINITY));
            slot.1 = slot.1.min(sample.latency_ms());
        }
    }
    best.into_values().collect()
}

/// Queries per second of the closed loop at its best runs.  With one
/// operation always in flight, the loop completes the set's queries in the
/// sum of the operations' times.
fn closed_loop_qps(best: &[(usize, f64)]) -> f64 {
    let queries: usize = best.iter().map(|&(q, _)| q).sum();
    let total_ms: f64 = best.iter().map(|&(_, ms)| ms).sum();
    queries as f64 * 1e3 / total_ms
}

/// Per-query exactness bookkeeping across rounds.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// The first complete reply of each query: the reference later rounds
    /// and the oracles are held to.
    pub reference: Vec<Option<Reply>>,
    /// Attempts of each query counted as good so far.
    good: Vec<u64>,
    /// Whether a query's hit set was found wrong (counted once).
    wrong: Vec<bool>,
    mismatches: u64,
}

impl Ledger {
    fn new(queries: usize) -> Self {
        Self {
            reference: (0..queries).map(|_| None).collect(),
            good: vec![0; queries],
            wrong: vec![false; queries],
            ..Self::default()
        }
    }

    fn note(&mut self, query: usize, result: Result<Reply, String>) {
        self.attempted += 1;
        let reply = match result {
            Err(err) => {
                self.failed += 1;
                eprintln!("query {query}: {err}");
                return;
            }
            Ok(reply) if !reply.complete => {
                self.failed += 1;
                eprintln!("query {query}: run did not complete");
                return;
            }
            Ok(reply) => reply,
        };
        match &self.reference[query] {
            Some(first) if first.digest != reply.digest => {
                self.failed += 1;
                self.mismatches += 1;
                eprintln!("query {query}: hit set differs from its first round");
            }
            Some(_) => self.good[query] += 1,
            None => {
                self.good[query] += 1;
                self.reference[query] = Some(reply);
            }
        }
    }

    /// Mark a query's hit set wrong: every attempt that counted as good
    /// becomes a failure.
    fn condemn(&mut self, query: usize, why: &str) {
        eprintln!("query {query}: {why}");
        if !self.wrong[query] {
            self.wrong[query] = true;
            self.failed += self.good[query];
            self.mismatches += 1;
        }
    }

    /// Every query has a reference and no hit set was wrong.
    fn correct(&self) -> bool {
        self.mismatches == 0 && self.reference.iter().all(Option::is_some)
    }
}

/// Server settings: the defaults (two workers, 1 ms batch window), with
/// the trace ring sized to hold one round, and the per-peer gate and
/// per-connection request cap opened wide — all load comes from one
/// loopback peer, so the defaults would cap the measured rate at 200
/// queries/s and drop a connection after 10,000 requests.
fn server_config(spec: &WorkloadSpec) -> ServerConfig {
    ServerConfig {
        trace_capacity: spec.round_queries,
        fairness: FairnessConfig {
            rate_per_sec: 1e9,
            burst: 1e9,
            max_concurrent: 64,
        },
        max_requests_per_conn: usize::MAX,
        ..ServerConfig::default()
    }
}

/// Build, save, (verify,) open and start the system once, on the index
/// file `path`.
fn set_up(
    spec: &WorkloadSpec,
    database: &Arc<SequenceDatabase>,
    path: &Path,
    verify: bool,
) -> Result<(System, IndexedDatabase, SetupTimes), String> {
    let t0 = Instant::now();
    let built = IndexBuilder::new().index_shared(Arc::clone(database));
    let t1 = Instant::now();
    built
        .save(path)
        .map_err(|e| format!("save {}: {e}", path.display()))?;
    let t2 = Instant::now();
    drop(built);
    let t3 = Instant::now();
    if verify {
        alae::store::verify_index(path).map_err(|e| format!("verify: {e}"))?;
    }
    let t4 = Instant::now();
    let opened = IndexedDatabase::open(path).map_err(|e| format!("open: {e}"))?;
    let t5 = Instant::now();
    let system = match spec.load {
        Load::Served => System::Served(
            Server::bind("127.0.0.1:0", opened.clone(), server_config(spec))
                .map_err(|e| format!("bind: {e}"))?,
        ),
        Load::Batch { .. } => System::Batch(Searcher::new(opened.clone(), spec.request())),
    };
    let t6 = Instant::now();
    let times = SetupTimes {
        marks: [t0, t1, t2, t3, t4, t5, t6],
    };
    Ok((system, opened, times))
}

/// The set-up repetitions of a run.  The first one builds the measured
/// system; the others repeat it on a spare index file at evenly spaced
/// points of the measured time, and are torn down at once.  Spread out
/// like this, their median samples the whole run instead of the one
/// moment before it: back-to-back set-ups on a shared host all land in
/// whatever fast or slow spell the host is in.
struct SetUps<'a> {
    spec: &'a WorkloadSpec,
    database: &'a Arc<SequenceDatabase>,
    spare: &'a Path,
    verify: bool,
    times: Vec<SetupTimes>,
}

impl SetUps<'_> {
    fn reps(&self) -> usize {
        self.spec.setup_reps.max(1)
    }

    /// Repeat the set-up if `elapsed` of the measured time `run` has
    /// reached the next of the evenly spaced points.
    fn tick(&mut self, elapsed: Duration, run: Duration) -> Result<(), String> {
        let done = self.times.len();
        if done < self.reps()
            && elapsed.as_secs_f64() * self.reps() as f64 >= run.as_secs_f64() * done as f64
        {
            self.repeat()?;
        }
        Ok(())
    }

    /// Run the repetitions a short run left out.
    fn finish(mut self) -> Result<Vec<SetupTimes>, String> {
        while self.times.len() < self.reps() {
            self.repeat()?;
        }
        Ok(self.times)
    }

    fn repeat(&mut self) -> Result<(), String> {
        let (system, _, times) = set_up(self.spec, self.database, self.spare, self.verify)?;
        if let System::Served(server) = system {
            server.shutdown();
        }
        self.times.push(times);
        Ok(())
    }
}

/// One served round: every query in turn over the one connection.
fn served_round(
    client: &mut Client,
    addr: SocketAddr,
    request: &SearchRequest,
    queries: &[Sequence],
    keep: bool,
) -> Vec<Sample> {
    let mut samples = Vec::with_capacity(queries.len());
    for (i, query) in queries.iter().enumerate() {
        let start = Instant::now();
        let result = client.search(request, query);
        let end = Instant::now();
        let result = match result {
            Ok(response) => Ok(reply(response, keep)),
            Err(err) => {
                // The exchange is lost; a fresh connection serves the rest.
                if let Ok(fresh) = Client::connect(addr) {
                    *client = fresh;
                }
                Err(format!("served search failed: {err}"))
            }
        };
        samples.push(Sample::new(i..i + 1, (start, end), vec![result]));
    }
    samples
}

/// One batch round: `search_batch` over consecutive chunks of the set, on
/// one thread.
fn batch_round(searcher: &Searcher, queries: &[Sequence], chunk: usize, keep: bool) -> Vec<Sample> {
    let mut samples = Vec::new();
    for first in (0..queries.len()).step_by(chunk.max(1)) {
        let range = first..(first + chunk).min(queries.len());
        let call_start = Instant::now();
        let responses = searcher.search_batch(&queries[range.clone()], 1);
        let end = Instant::now();
        let results = responses.into_iter().map(|r| Ok(reply(r, keep))).collect();
        samples.push(Sample::new(range, (call_start, end), results));
    }
    samples
}

/// The process's peak resident set, in MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Run one workload end to end.
pub fn run_workload(spec: &WorkloadSpec, opts: &RunOptions) -> Result<Outcome, String> {
    let spec = if opts.quick { spec.quick() } else { *spec };
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("create {}: {e}", opts.out_dir.display()))?;
    let index = |role: &str| {
        opts.out_dir
            .join(format!("{}-{}{role}.idx", spec.name, std::process::id()))
    };
    let (path, spare) = (index(""), index("-spare"));
    let result = run_with_index(&spec, opts, &path, &spare);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&spare).ok();
    result
}

fn run_with_index(
    spec: &WorkloadSpec,
    opts: &RunOptions,
    path: &Path,
    spare: &Path,
) -> Result<Outcome, String> {
    let mut trace = Trace::new(Instant::now());
    let request = spec.request();
    let workload = spec.generate(opts.seed);
    let queries = workload.queries;
    let database = Arc::new(workload.database);

    let (system, db, first) = set_up(spec, &database, path, opts.trace)?;
    let index_bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    let mut setups = SetUps {
        spec,
        database: &database,
        spare,
        verify: opts.trace,
        times: vec![first],
    };

    let warmup = &queries[..WARMUP_QUERIES.min(queries.len())];
    // Traced runs alternate untraced and traced rounds, so `trace.overhead`
    // compares rounds of one process.
    let min_rounds = if opts.trace { 2 } else { 1 };
    let deadline = Duration::from_secs_f64(opts.seconds);
    let mut rounds: Vec<Round> = Vec::new();
    let mut ledger = Ledger::new(queries.len());

    match (&system, spec.load) {
        (System::Served(server), Load::Served) => {
            let addr = server.local_addr().map_err(|e| e.to_string())?;
            thread::scope(|scope| {
                let serving = scope.spawn(|| server.serve());
                let measured = (|| {
                    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    for (i, query) in warmup.iter().enumerate() {
                        client
                            .search(&request, query)
                            .map_err(|e| format!("warm-up query {i}: {e}"))?;
                    }
                    let started = Instant::now();
                    while rounds.len() < min_rounds || started.elapsed() < deadline {
                        let traced = opts.trace && rounds.len() % 2 == 1;
                        let keep = opts.trace && rounds.is_empty();
                        let samples = served_round(&mut client, addr, &request, &queries, keep);
                        let server_round =
                            traced.then(|| layers::ServerRound::read(server, spec.round_queries));
                        rounds.push(Round {
                            samples,
                            traced,
                            server: server_round,
                        });
                        setups.tick(started.elapsed(), deadline)?;
                    }
                    Ok::<_, String>(())
                })();
                // The client is gone (its connection closed); stop the
                // accept loop and the workers.
                server.drain(Duration::from_secs(10));
                let served = serving.join().map_err(|_| "accept loop panicked")?;
                served.map_err(|e| format!("accept loop: {e}"))?;
                measured
            })?;
        }
        (System::Batch(searcher), Load::Batch { chunk }) => {
            searcher.search_batch(warmup, 1);
            let started = Instant::now();
            while rounds.len() < min_rounds || started.elapsed() < deadline {
                let traced = opts.trace && rounds.len() % 2 == 1;
                let keep = opts.trace && rounds.is_empty();
                let samples = batch_round(searcher, &queries, chunk, keep);
                rounds.push(Round {
                    samples,
                    traced,
                    server: None,
                });
                setups.tick(started.elapsed(), deadline)?;
            }
        }
        _ => unreachable!("set_up builds the system the load names"),
    }
    let setup = setups.finish()?;
    let peak_rss = peak_rss_mib()?;

    // Record traced rounds' spans, then fold every reply into the ledger.
    for round in rounds.iter_mut() {
        for sample in round.samples.iter_mut() {
            if round.traced {
                let name = match spec.load {
                    Load::Served => "client.search",
                    Load::Batch { .. } => "search.search_batch",
                };
                trace.push(Span {
                    name,
                    query: Some(sample.queries.start),
                    tid: 0,
                    start_us: trace.us(sample.start),
                    end_us: trace.us(sample.end),
                    parent: None,
                    args: vec![("queries", sample.queries.len() as f64)],
                });
            }
            for (query, result) in sample.queries.clone().zip(sample.results.drain(..)) {
                ledger.note(query, result);
            }
        }
    }

    // Exactness, untimed: every query's hit set against in-process BWT-SW,
    // the leading queries also against the Smith–Waterman oracle.
    let bwtsw_log = AlignLog::default();
    let bwtsw = Searcher::with_engine(
        db.clone(),
        request.engine(EngineKind::Bwtsw),
        Box::new(AlignClock {
            inner: build_engine(&db, &request.engine(EngineKind::Bwtsw)),
            log: Arc::clone(&bwtsw_log),
        }),
    );
    let mut bwtsw_counters = Vec::with_capacity(queries.len());
    for (i, query) in queries.iter().enumerate() {
        let response = bwtsw.search(query);
        let expected = canonical(&response.hits);
        bwtsw_counters.push(response.counters.clone());
        if let Some(first) = &ledger.reference[i] {
            if first.digest != digest(&expected) {
                // Name the layer: does in-process ALAE already disagree?
                let inproc = Searcher::new(db.clone(), request).search(query);
                let engines = diff(&expected, &canonical(&inproc.hits));
                let why = format!(
                    "hit set ({} hits) differs from BWT-SW ({} hits); in-process ALAE vs BWT-SW: {}",
                    first.hits,
                    expected.len(),
                    if engines.is_empty() {
                        "agree".to_string()
                    } else {
                        engines.describe()
                    }
                );
                ledger.condemn(i, &why);
            }
        }
    }
    let oracle = Searcher::new(db.clone(), request.engine(EngineKind::SmithWaterman));
    for (i, query) in queries.iter().enumerate().take(ORACLE_QUERIES) {
        let expected = canonical(&oracle.search(query).hits);
        if let Some(first) = &ledger.reference[i] {
            if first.digest != digest(&expected) {
                let why = format!(
                    "hit set ({} hits) differs from Smith-Waterman ({} hits)",
                    first.hits,
                    expected.len()
                );
                ledger.condemn(i, &why);
            }
        }
    }
    let bwtsw_align: Vec<(Instant, Instant)> = std::mem::take(
        &mut bwtsw_log
            .lock()
            .expect("align log lock is never held across a panic"),
    );

    let mut metrics = Measured::default();
    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let runs = best_runs(untraced.iter().copied());
    let best: Vec<f64> = runs.iter().map(|&(_, ms)| ms).collect();
    if !supports_percentile(best.len(), 50) {
        eprintln!(
            "{}: latency_p50_ms rests on {} samples, fewer than 10 beyond it",
            spec.name,
            best.len()
        );
    }
    let setup_s: Vec<f64> = setup.iter().map(|t| t.setup().as_secs_f64()).collect();
    metrics.set("setup_s", median(&setup_s).unwrap_or(0.0));
    metrics.set("latency_p50_ms", percentile(&best, 50).unwrap_or(0.0));
    metrics.set("throughput_qps", closed_loop_qps(&runs));
    metrics.set("peak_rss_mb", peak_rss);
    metrics.set(
        "index_bytes_per_char",
        index_bytes as f64 / db.text_len() as f64,
    );
    metrics.set(
        "fail_ratio",
        ledger.failed as f64 / ledger.attempted.max(1) as f64,
    );

    let hits: usize = ledger.reference.iter().flatten().map(|r| r.hits).sum();
    let mut info = vec![
        ("rounds", untraced.len() as f64, "count"),
        ("latency_samples", best.len() as f64, "count"),
        (
            "samples_beyond_p50",
            samples_beyond(best.len(), 50) as f64,
            "count",
        ),
        (
            "hits_per_query",
            hits as f64 / queries.len() as f64,
            "count",
        ),
    ];

    if opts.trace {
        let context = layers::Context {
            spec,
            request,
            db: &db,
            queries: &queries,
            setup: &setup,
            index_bytes,
            rounds: &rounds,
            ledger: &ledger,
            bwtsw_align: &bwtsw_align,
            bwtsw_counters: &bwtsw_counters,
        };
        layers::measure(&context, &mut trace, &mut metrics, &mut info);
        let file = opts.out_dir.join(format!("trace-{}.json", spec.name));
        std::fs::write(&file, trace.to_chrome(spec.name).to_string())
            .map_err(|e| format!("write {}: {e}", file.display()))?;
    }

    Ok(Outcome {
        correct: ledger.correct(),
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
        info,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(query: usize, ms: u64, ok: bool) -> Sample {
        let start = Instant::now();
        let result = if ok {
            Ok(Reply {
                complete: true,
                digest: 0,
                hits: 0,
                counters: EngineCounters::empty(EngineKind::Alae),
                full: None,
            })
        } else {
            Err("lost".to_string())
        };
        let end = start + Duration::from_millis(ms);
        Sample::new(query..query + 1, (start, end), vec![result])
    }

    fn round(samples: Vec<Sample>) -> Round {
        Round {
            samples,
            traced: false,
            server: None,
        }
    }

    #[test]
    fn each_operation_keeps_its_fastest_successful_run() {
        let rounds = [
            round(vec![sample(0, 10, true), sample(1, 5, true)]),
            round(vec![sample(0, 8, true), sample(1, 3, false)]),
        ];
        let best = best_runs(&rounds);
        assert_eq!(best, vec![(1, 8.0), (1, 5.0)]);
        // One operation in flight → 2 queries per 13 ms.
        assert!((closed_loop_qps(&best) - 2000.0 / 13.0).abs() < 1e-9);
    }
}
