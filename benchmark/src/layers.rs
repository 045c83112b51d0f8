//! Per-layer metrics of the traced run (`--trace 1`), measured from the
//! benchmark's own code around calls into each layer's public functions.

use crate::metrics::Measured;
use crate::run::{best_runs, Ledger, Round, SetupTimes};
use crate::stats::{mean, median, percentile};
use crate::trace::{AlignClock, AlignLog, Trace};
use crate::workloads::{Load, WorkloadSpec, THREADS};
use alae::bioseq::Sequence;
use alae::core::AlaeStats;
use alae::search::{
    build_engine, EngineCounters, IndexedDatabase, SearchRequest, SearchResponse, Searcher,
};
use alae::wire::{
    decode_done, decode_hit, encode_done, encode_hit, read_frame, write_frame, DoneSummary,
    FrameKind,
};
use alae_server::Server;
use std::time::Instant;

/// Repetitions of the per-wave construction timings.
const CONSTRUCTION_REPS: usize = 5;

/// What the server recorded about one traced round.
pub struct ServerRound {
    queue_wait_ms: Vec<f64>,
    engine_ms: Vec<f64>,
}

impl ServerRound {
    /// Read the round's records from the trace ring (sized to one round)
    /// right after the round.
    pub fn read(server: &Server, round_queries: usize) -> Self {
        let records = server.trace_log().snapshot();
        let recent = &records[records.len().saturating_sub(round_queries)..];
        Self {
            queue_wait_ms: recent
                .iter()
                .map(|r| r.queue_wait_us as f64 / 1e3)
                .collect(),
            engine_ms: recent.iter().map(|r| r.engine_us as f64 / 1e3).collect(),
        }
    }
}

/// Everything the run measured that the layer metrics derive from.
pub struct Context<'a> {
    pub spec: &'a WorkloadSpec,
    pub request: SearchRequest,
    pub db: &'a IndexedDatabase,
    pub queries: &'a [Sequence],
    pub setup: &'a [SetupTimes],
    pub index_bytes: u64,
    pub rounds: &'a [Round],
    pub ledger: &'a Ledger,
    /// Engine runs of the BWT-SW exactness pass, one per query.
    pub bwtsw_align: &'a [(Instant, Instant)],
    pub bwtsw_counters: &'a [EngineCounters],
}

fn span_ms((from, to): (Instant, Instant)) -> f64 {
    (to - from).as_secs_f64() * 1e3
}

/// Measure every per-layer metric into `metrics`, recording spans.
pub fn measure(
    cx: &Context<'_>,
    trace: &mut Trace,
    metrics: &mut Measured,
    info: &mut Vec<(&'static str, f64, &'static str)>,
) {
    setup_layers(cx, trace, metrics);
    let search_ms = search_layers(cx, trace, metrics);
    counter_layers(cx, metrics);
    wire_layer(cx, trace, metrics);
    server_layers(cx, &search_ms, metrics, info);
}

/// `suffix.build_s`, `store.*`: medians over the set-up repetitions.
fn setup_layers(cx: &Context<'_>, trace: &mut Trace, metrics: &mut Measured) {
    let start_name = match cx.spec.load {
        Load::Served => "server.bind",
        Load::Batch { .. } => "search.searcher_new",
    };
    for times in cx.setup {
        trace.record("suffix.build", None, times.build(), None);
        trace.record("store.save", None, times.save(), None);
        trace.record("store.verify", None, times.verify(), None);
        trace.record("store.open", None, times.open(), None);
        trace.record(start_name, None, times.start(), None);
    }
    let median_s = |step: fn(&SetupTimes) -> (Instant, Instant)| {
        let values: Vec<f64> = cx.setup.iter().map(|t| span_ms(step(t)) / 1e3).collect();
        median(&values).unwrap_or(0.0)
    };
    metrics.set("suffix.build_s", median_s(SetupTimes::build));
    metrics.set("store.save_s", median_s(SetupTimes::save));
    metrics.set("store.verify_s", median_s(SetupTimes::verify));
    metrics.set("store.open_s", median_s(SetupTimes::open));
    metrics.set("store.index_bytes", cx.index_bytes as f64);
}

/// `core.engine_build_ms`, `search.searcher_new_ms`, `core.align_ms_p50`,
/// `search.shape_ms_p50`, `search.batch_efficiency`, `core.alae_vs_bwtsw`.
/// Returns the in-process `Searcher::search` time of each query.
fn search_layers(cx: &Context<'_>, trace: &mut Trace, metrics: &mut Measured) -> Vec<f64> {
    // What the server pays per wave: the engine, then the facade around it.
    let mut engine_build = Vec::new();
    let mut searcher_new = Vec::new();
    for _ in 0..CONSTRUCTION_REPS {
        let t0 = Instant::now();
        let engine = build_engine(cx.db, &cx.request);
        let t1 = Instant::now();
        drop(engine);
        let t2 = Instant::now();
        let searcher = Searcher::new(cx.db.clone(), cx.request);
        let t3 = Instant::now();
        drop(searcher);
        trace.record("core.engine_build", None, (t0, t1), None);
        trace.record("search.searcher_new", None, (t2, t3), None);
        engine_build.push(span_ms((t0, t1)));
        searcher_new.push(span_ms((t2, t3)));
    }
    metrics.set("core.engine_build_ms", median(&engine_build).unwrap_or(0.0));
    metrics.set(
        "search.searcher_new_ms",
        median(&searcher_new).unwrap_or(0.0),
    );

    // In-process replay: each `Searcher::search` span holds its engine
    // run as a child span; the facade's shaping is the parent's self time.
    let log = AlignLog::default();
    let clocked = Searcher::with_engine(
        cx.db.clone(),
        cx.request,
        Box::new(AlignClock {
            inner: build_engine(cx.db, &cx.request),
            log: log.clone(),
        }),
    );
    let mut search_ms = Vec::new();
    let mut align_ms = Vec::new();
    let mut shape_ms = Vec::new();
    for (i, query) in cx.queries.iter().enumerate() {
        let t0 = Instant::now();
        let response = clocked.search(query);
        let t1 = Instant::now();
        drop(response);
        let align = log
            .lock()
            .expect("align log lock is never held across a panic")
            .pop()
            .expect("every search runs the engine once");
        let search = trace.record("search.search", Some(i), (t0, t1), None);
        trace.record("core.align", Some(i), align, Some(search));
        search_ms.push(span_ms((t0, t1)));
        align_ms.push(span_ms(align));
        shape_ms.push(trace.self_time_us(search) / 1e3);
    }
    metrics.set(
        "core.align_ms_p50",
        percentile(&align_ms, 50).unwrap_or(0.0),
    );
    metrics.set(
        "search.shape_ms_p50",
        percentile(&shape_ms, 50).unwrap_or(0.0),
    );

    let batch = Searcher::new(cx.db.clone(), cx.request);
    let t0 = Instant::now();
    batch.search_batch(cx.queries, THREADS);
    let t1 = Instant::now();
    trace.record("search.search_batch", None, (t0, t1), None);
    let single: f64 = search_ms.iter().sum();
    metrics.set(
        "search.batch_efficiency",
        single / (THREADS as f64 * span_ms((t0, t1))),
    );

    for (i, &run) in cx.bwtsw_align.iter().enumerate() {
        trace.record("core.align_bwtsw", Some(i), run, None);
    }
    let bwtsw: f64 = cx.bwtsw_align.iter().map(|&run| span_ms(run)).sum();
    let alae: f64 = align_ms.iter().sum();
    metrics.set("core.alae_vs_bwtsw", bwtsw / alae);
    search_ms
}

/// Engine and occurrence-layer counts, from the counters the system
/// returned with each query's reference reply (the served done frames,
/// or the batch responses).
fn counter_layers(cx: &Context<'_>, metrics: &mut Measured) {
    let mut total = AlaeStats::default();
    let mut queries = 0usize;
    for reply in cx.ledger.reference.iter().flatten() {
        if let Some(stats) = reply.counters.as_alae() {
            total.merge(stats);
            queries += 1;
        }
    }
    let per_query = |v: u64| v as f64 / queries.max(1) as f64;
    let bwtsw_calculated: u64 = cx
        .bwtsw_counters
        .iter()
        .filter_map(|c| c.as_bwtsw().map(|s| s.calculated_entries))
        .sum();
    let forks = total.forks_started + total.forks_dominated;
    metrics.set(
        "suffix.occ_scans_per_query",
        per_query(total.occ_block_scans),
    );
    metrics.set(
        "suffix.occ_bytes_per_query",
        per_query(total.occ_bytes_scanned),
    );
    metrics.set(
        "core.calculated_entries_per_query",
        per_query(total.calculated_entries()),
    );
    metrics.set("core.reused_ratio", total.reusing_ratio());
    metrics.set(
        "core.filtering_ratio",
        total.filtering_ratio(bwtsw_calculated),
    );
    metrics.set(
        "core.forks_dominated_ratio",
        100.0 * total.forks_dominated as f64 / forks.max(1) as f64,
    );
    metrics.set(
        "core.visited_nodes_per_query",
        per_query(total.visited_nodes),
    );
}

/// Re-encode each kept response the way the server streams it (hit
/// frames, then the done frame), then decode it the way the client does.
fn wire_layer(cx: &Context<'_>, trace: &mut Trace, metrics: &mut Measured) {
    let mut encode_ms = Vec::new();
    let mut decode_ms = Vec::new();
    let mut bytes = Vec::new();
    for (i, reply) in cx.ledger.reference.iter().enumerate() {
        let Some(response) = reply.as_ref().and_then(|r| r.full.as_ref()) else {
            continue;
        };
        let (buffer, encode) = encode_response(response);
        let decode = decode_response(&buffer);
        trace.record("wire.encode", Some(i), encode, None);
        trace.record("wire.decode", Some(i), decode, None);
        encode_ms.push(span_ms(encode));
        decode_ms.push(span_ms(decode));
        bytes.push(buffer.len() as f64);
    }
    metrics.set("wire.encode_ms_per_query", mean(&encode_ms));
    metrics.set("wire.decode_ms_per_query", mean(&decode_ms));
    metrics.set("wire.bytes_per_query", mean(&bytes));
}

fn encode_response(response: &SearchResponse) -> (Vec<u8>, (Instant, Instant)) {
    let start = Instant::now();
    let mut buffer = Vec::new();
    for hit in &response.hits {
        write_frame(&mut buffer, FrameKind::Hit, &encode_hit(hit)).expect("writes to a Vec");
    }
    let done = DoneSummary {
        engine: response.engine,
        threshold: response.threshold,
        delivered: response.hits.len() as u64,
        raw_hit_count: response.raw_hit_count as u64,
        termination: response.termination.clone(),
        counters: response.counters.clone(),
    };
    write_frame(&mut buffer, FrameKind::Done, &encode_done(&done)).expect("writes to a Vec");
    (buffer, (start, Instant::now()))
}

fn decode_response(mut buffer: &[u8]) -> (Instant, Instant) {
    let start = Instant::now();
    while let Some((kind, payload)) = read_frame(&mut buffer).expect("frames just encoded") {
        if kind == FrameKind::Done {
            decode_done(&payload).expect("a done frame just encoded");
            break;
        }
        decode_hit(&payload).expect("a hit frame just encoded");
    }
    (start, Instant::now())
}

/// `server.*`, `client.*` and `trace.overhead`.  The batch workload has
/// no server, client or queue and reports 0 for those.
fn server_layers(
    cx: &Context<'_>,
    search_ms: &[f64],
    metrics: &mut Measured,
    info: &mut Vec<(&'static str, f64, &'static str)>,
) {
    let p50 = |traced: bool| {
        let best: Vec<f64> = best_runs(cx.rounds.iter().filter(|r| r.traced == traced))
            .into_iter()
            .map(|(_, ms)| ms)
            .collect();
        percentile(&best, 50).unwrap_or(0.0)
    };
    metrics.set("trace.overhead", p50(true) / p50(false));

    // The server's records cover every query of the traced rounds, so the
    // client side is every sample of those rounds too.
    let traced: Vec<&Round> = cx.rounds.iter().filter(|r| r.traced).collect();
    let server: Vec<&ServerRound> = traced.iter().filter_map(|r| r.server.as_ref()).collect();
    if server.is_empty() {
        for name in [
            "server.queue_wait_ms_mean",
            "server.engine_ms_p50",
            "server.overhead_ms_p50",
            "server.served_vs_inproc",
            "client.unattributed_ms_p50",
        ] {
            metrics.set(name, 0.0);
        }
        return;
    }
    let queue_wait: Vec<f64> = server
        .iter()
        .flat_map(|s| s.queue_wait_ms.clone())
        .collect();
    let engine: Vec<f64> = server.iter().flat_map(|s| s.engine_ms.clone()).collect();
    let accounted: Vec<f64> = server
        .iter()
        .flat_map(|s| s.queue_wait_ms.iter().zip(&s.engine_ms).map(|(q, e)| q + e))
        .collect();
    let client: Vec<f64> = traced.iter().flat_map(|r| r.latencies_ms()).collect();
    let client_p50 = percentile(&client, 50).unwrap_or(0.0);
    let inproc_p50 = percentile(search_ms, 50).unwrap_or(0.0);
    let accounted_p50 = percentile(&accounted, 50).unwrap_or(0.0);

    metrics.set("server.queue_wait_ms_mean", mean(&queue_wait));
    metrics.set(
        "server.engine_ms_p50",
        percentile(&engine, 50).unwrap_or(0.0),
    );
    metrics.set("server.overhead_ms_p50", client_p50 - inproc_p50);
    metrics.set("server.served_vs_inproc", client_p50 / inproc_p50);
    metrics.set("client.unattributed_ms_p50", client_p50 - accounted_p50);
    info.push(("traced_client_p50_ms", client_p50, "ms"));
    info.push(("inproc_search_p50_ms", inproc_p50, "ms"));
}
