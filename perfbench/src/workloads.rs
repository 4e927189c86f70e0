//! The three workloads. Each is driven from one client thread; corpora
//! are pinned (the same index every run), and `--seed` draws every query
//! stream and arrival process.
//!
//! Only settings that define a workload are set here — cache budgets,
//! batching and admission. Scheduler and engine tuning stay at program
//! defaults.

use std::time::Instant;

use griffin::{ExecMode, Griffin, GriffinOutput, Proc, Query, QueryRequest};
use griffin_bench::setup::k20;
use griffin_gpu_sim::{Gpu, VirtualNanos};
use griffin_index::{InvertedIndex, TermId};
use griffin_server::{
    AdmissionConfig, BatchConfig, GriffinServer, Outcome, OverloadPolicy, ServerConfig,
};
use griffin_telemetry::{Telemetry, TraceEvent};
use griffin_workload::{
    build_list_index, build_text_index, CorpusSpec, ListIndexSpec, MixedQuerySpec, QueryLogSpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::calib;
use crate::spans::Spans;
use crate::stats::{self, Rung, Sample};
use crate::{Layers, Pass, Workload};

pub const NAMES: [&str; 3] = ["conj_fig14", "boolean_text", "serve_zipf"];

/// Top-k of every request.
const K: usize = 10;
/// Candidates generated per request kept by a cost-stratified sample. A
/// large pool holds the share of rare expensive queries steady; the
/// systematic sample then carries that share into every run.
const POOL: usize = 64;
/// Requests that get the expensive layer-isolating calls (GpuOnly runs).
const ISOLATE_GPU: usize = 8;
/// Requests that get the cheap layer-isolating calls.
const ISOLATE_CPU: usize = 64;

type Answer = Vec<(u32, f32)>;

/// Docids and score bits both equal.
fn same_answer(a: &[(u32, f32)], b: &[(u32, f32)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// The reference answers: CpuOnly, unpruned, on the unsharded index,
/// from an engine of its own.
fn reference(index: &InvertedIndex, reqs: &[QueryRequest]) -> Vec<Answer> {
    let gpu = Gpu::new(k20());
    let g = Griffin::new(&gpu, index.meta(), index.block_len());
    reqs.iter()
        .map(|r| {
            let mut r = r.clone();
            r.mode = ExecMode::CpuOnly;
            r.pruned = false;
            g.run(index, &r).topk
        })
        .collect()
}

/// A Fig. 11 term-count log (`QueryLogSpec` defaults), cost-stratified:
/// `pool`× as many candidates are drawn, then `n` are kept by centred
/// systematic sampling over `cost`, so each run holds the log's mix of
/// cheap, GPU-bound and "whale" queries at a fixed share. The log comes
/// back in ascending cost order.
fn fig11_log<K: Ord>(
    index: &InvertedIndex,
    n: usize,
    pool: usize,
    rng: &mut StdRng,
    cost: impl Fn(&Vec<TermId>) -> K,
) -> Vec<QueryRequest> {
    let candidates = QueryLogSpec {
        num_queries: n * pool,
        ..Default::default()
    }
    .generate(index, rng);
    stats::stratified(&candidates, n, cost)
        .into_iter()
        .map(|q| QueryRequest::new(q).k(K).mode(ExecMode::Hybrid))
        .collect()
}

/// A free cost proxy for a conjunctive query: where the scheduler places
/// its first intersection, then its shortest list, then its total
/// postings.
fn placement_cost(index: &InvertedIndex, g: &Griffin<'_>, q: &[TermId]) -> (bool, usize, usize) {
    let mut dfs: Vec<usize> = q.iter().map(|&t| index.doc_freq(t)).collect();
    dfs.sort_unstable();
    let first_on_gpu = dfs.len() > 1
        && g.scheduler
            .decide_traced(dfs[0], dfs[1], Proc::Cpu)
            .chosen
            .proc()
            == Proc::Gpu;
    (first_on_gpu, dfs[0], dfs.iter().sum())
}

/// A Fig. 11 log stratified by [`placement_cost`] over a [`POOL`]× pool.
fn placed_fig11_log(index: &InvertedIndex, n: usize, rng: &mut StdRng) -> Vec<QueryRequest> {
    let gpu = Gpu::new(k20());
    let g = Griffin::new(&gpu, index.meta(), index.block_len());
    let mut log = fig11_log(index, n, POOL, rng, |q| placement_cost(index, &g, q));
    stats::shuffle(&mut log, rng);
    log
}

/// Every term a query names, negated ones included, each with whether it
/// sits under a quoted phrase.
fn terms_of(q: &Query, in_phrase: bool, out: &mut Vec<(TermId, bool)>) {
    match q {
        Query::Term(t) => out.push((*t, in_phrase)),
        Query::Phrase(ts) => out.extend(ts.iter().map(|&t| (t, true))),
        Query::And(c) | Query::Or(c) => c.iter().for_each(|c| terms_of(c, in_phrase, out)),
        Query::Not(a, b) => {
            terms_of(a, in_phrase, out);
            terms_of(b, in_phrase, out);
        }
        Query::Nothing => {}
    }
}

/// The terms of a query, phrase or not.
fn all_terms(q: &Query) -> Vec<TermId> {
    let mut out = Vec::new();
    terms_of(q, false, &mut out);
    out.into_iter().map(|(t, _)| t).collect()
}

/// The operator shape a mixed-log query string was generated with.
fn shape_of(text: &str) -> u8 {
    if text.contains('"') {
        3
    } else if text.contains(" OR ") {
        2
    } else if text.contains(" -") {
        1
    } else {
        0
    }
}

fn bits_per_posting(index: &InvertedIndex) -> f64 {
    let postings: usize = (0..index.num_terms() as u32)
        .map(|t| index.doc_freq(TermId(t)))
        .sum();
    index.size_bits() as f64 / postings.max(1) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Cache hit ratios of one engine's device and host tiers.
fn cache_layers(g: &Griffin<'_>, l: &mut Layers) {
    let dev = g.gpu.cache_stats();
    let host = g.cpu.host_cache_stats();
    l.insert(
        "griffin-gpu.device_cache_hit_ratio",
        ratio(dev.hits as f64, (dev.hits + dev.misses) as f64),
    );
    l.insert(
        "cpu-engine.host_cache_hit_ratio",
        ratio(host.hits as f64, (host.hits + host.misses) as f64),
    );
}

/// Runs one request per `reference` answer closed-loop, one at a time,
/// checking each answer. `run(i)` executes request `i` (`None`: no
/// answer).
fn closed_loop(
    spans: &Spans,
    reference: &[Answer],
    mut run: impl FnMut(usize) -> Option<GriffinOutput>,
) -> (Pass, Vec<GriffinOutput>) {
    let mut pass = Pass::default();
    let mut outs = Vec::with_capacity(reference.len());
    let started = Instant::now();
    for (i, expected) in reference.iter().enumerate() {
        let t = Instant::now();
        let out = spans.time("request", Some(i as u64), || run(i));
        pass.host_ns.push(t.elapsed().as_nanos() as u64);
        calib::tick();
        match out {
            Some(out) => {
                if !spans.time("check", Some(i as u64), || same_answer(&out.topk, expected)) {
                    pass.mismatched += 1;
                }
                pass.virt.push(Some(out.time.as_nanos()));
                outs.push(out);
            }
            None => {
                pass.unanswered += 1;
                pass.virt.push(None);
            }
        }
    }
    pass.wall_ns = started.elapsed().as_nanos() as u64;
    (pass, outs)
}

/// The layer-isolating calls, made on a second engine and device over
/// `index` so the measured engine's caches and device state stay
/// untouched: CpuOnly and GpuOnly runs of the same requests, list
/// decompression, query parsing and scheduler decisions.
fn isolate(index: &InvertedIndex, reqs: &[QueryRequest], spans: &Spans) -> Layers {
    let mut l = Layers::new();
    let gpu = Gpu::new(k20());
    let mut g = Griffin::new(&gpu, index.meta(), index.block_len());

    let cpu_reqs = &reqs[..reqs.len().min(ISOLATE_CPU)];
    let gpu_reqs = &reqs[..reqs.len().min(ISOLATE_GPU)];
    let mut cpu_ns = 0u128;
    for (i, r) in cpu_reqs.iter().enumerate() {
        let r = r.clone().mode(ExecMode::CpuOnly);
        let s = Instant::now();
        spans.time("isolate.cpu_only", Some(i as u64), || g.run(index, &r));
        cpu_ns += s.elapsed().as_nanos();
    }
    l.insert(
        "cpu-engine.host_ms_per_query",
        cpu_ns as f64 / 1e6 / cpu_reqs.len().max(1) as f64,
    );

    // Telemetry only here, to count the warps the GpuOnly runs launch.
    let t = Telemetry::enabled();
    g.set_telemetry(t.clone());
    let (mut gpu_ns, mut gpu_virt) = (0u128, 0u64);
    for (i, r) in gpu_reqs.iter().enumerate() {
        let r = r.clone().mode(ExecMode::GpuOnly);
        let s = Instant::now();
        let out = spans.time("isolate.gpu_only", Some(i as u64), || g.run(index, &r));
        gpu_ns += s.elapsed().as_nanos();
        gpu_virt += out.time.as_nanos();
    }
    let warps: u64 = t
        .recorder()
        .map(|r| r.events())
        .unwrap_or_default()
        .iter()
        .map(|e| match e {
            TraceEvent::KernelLaunch { total_warps, .. } => *total_warps,
            _ => 0,
        })
        .sum();
    let n_gpu = gpu_reqs.len().max(1) as f64;
    l.insert("gpu-sim.host_ms_per_query", gpu_ns as f64 / 1e6 / n_gpu);
    l.insert(
        "gpu-sim.host_ns_per_warp",
        ratio(gpu_ns as f64, warps as f64),
    );
    l.insert(
        "gpu-sim.virt_per_host",
        ratio(gpu_virt as f64, gpu_ns as f64),
    );

    let (mut dec_ns, mut postings) = (0u128, 0usize);
    for term in cpu_reqs.iter().flat_map(|r| all_terms(&r.query)) {
        let s = Instant::now();
        let (docids, _) = spans.time("isolate.decompress", None, || index.list(term).decompress());
        dec_ns += s.elapsed().as_nanos();
        postings += docids.len();
    }
    l.insert(
        "codec.decode_host_ns_per_posting",
        ratio(dec_ns as f64, postings as f64),
    );

    let dict = index.dictionary();
    let texts: Vec<String> = cpu_reqs.iter().map(|r| r.query.display(dict)).collect();
    let s = Instant::now();
    spans.time("isolate.parse", None, || {
        for text in &texts {
            let q = Query::parse(index, text, false);
            std::hint::black_box(&q);
        }
    });
    l.insert(
        "core.parse_host_us_per_query",
        s.elapsed().as_nanos() as f64 / 1e3 / texts.len().max(1) as f64,
    );

    // One decision per adjacent pair of each query's lists, shortest
    // first — the shape of a conjunctive chain.
    let mut pairs = Vec::new();
    for r in cpu_reqs {
        let mut lens: Vec<usize> = all_terms(&r.query)
            .iter()
            .map(|&t| index.doc_freq(t))
            .collect();
        lens.sort_unstable();
        pairs.extend(lens.windows(2).map(|w| (w[0], w[1])));
    }
    const DECIDE_REPS: usize = 200;
    let s = Instant::now();
    spans.time("isolate.decide", None, || {
        for _ in 0..DECIDE_REPS {
            for &(short, long) in &pairs {
                std::hint::black_box(g.scheduler.decide_traced(short, long, Proc::Cpu));
            }
        }
    });
    l.insert(
        "core.sched_host_ns_per_decision",
        ratio(
            s.elapsed().as_nanos() as f64,
            (pairs.len() * DECIDE_REPS) as f64,
        ),
    );
    l
}

// ---------------------------------------------------------------------
// conj_fig14
// ---------------------------------------------------------------------

/// Why: the paper's headline setting — crossover scheduling decides
/// virtual time, and GPU-path simulation dominates host time, so this is
/// where a simulator or GPU-path change shows.
///
/// The Fig. 11 conjunctive log over the Fig. 14 list index (64 terms,
/// 12M docs, lists up to 4M, Elias–Fano, block 128), Hybrid top-10,
/// result and host caches off, closed loop with one client.
pub struct ConjFig14;

const FIG14_CORPUS_SEED: u64 = 14;
const CONJ_REQUESTS: usize = 190;

pub struct ConjInputs {
    reqs: Vec<QueryRequest>,
    reference: Vec<Answer>,
}

impl Workload for ConjFig14 {
    type State = InvertedIndex;
    type Inputs = ConjInputs;

    fn setup(&self) -> InvertedIndex {
        let spec = ListIndexSpec {
            num_terms: 64,
            num_docs: 12_000_000,
            max_list_len: 4_000_000,
            ..Default::default()
        };
        build_list_index(&spec, &mut StdRng::seed_from_u64(FIG14_CORPUS_SEED)).0
    }

    fn inputs(&self, index: &InvertedIndex, seed: u64) -> ConjInputs {
        let reqs = placed_fig11_log(index, CONJ_REQUESTS, &mut StdRng::seed_from_u64(seed));
        let reference = reference(index, &reqs);
        ConjInputs { reqs, reference }
    }

    fn pass(&self, index: &InvertedIndex, inp: &ConjInputs, t: &Telemetry, spans: &Spans) -> Pass {
        let gpu = Gpu::new(k20());
        let mut g = Griffin::new(&gpu, index.meta(), index.block_len());
        g.cpu.set_host_cache_budget(0);
        if t.is_enabled() {
            g.set_telemetry(t.clone());
        }
        let (mut pass, _) = closed_loop(spans, &inp.reference, |i| {
            Some(spans.time("griffin.run", Some(i as u64), || g.run(index, &inp.reqs[i])))
        });
        cache_layers(&g, &mut pass.layers);
        pass
    }

    fn isolate(&self, index: &InvertedIndex, inp: &ConjInputs, spans: &Spans) -> Layers {
        isolate(index, &inp.reqs, spans)
    }

    fn static_layers(&self, index: &InvertedIndex) -> Layers {
        Layers::from([("index.bits_per_posting", bits_per_posting(index))])
    }
}

// ---------------------------------------------------------------------
// boolean_text
// ---------------------------------------------------------------------

/// Why: short lists keep nearly every step on the CPU, so the parser,
/// planner, set operations, codec, SIMD kernels and block-max pruning
/// carry the load. The control for GPU-side changes.
///
/// `MixedQuerySpec` strings (AND/OR/NOT/phrase) over a bursty,
/// length-skewed Zipf text corpus (20k docs, 4k vocabulary, block 32),
/// through `Griffin::query` with pruned top-10 under Hybrid, closed
/// loop, caches off.
pub struct BooleanText;

const TEXT_CORPUS_SEED: u64 = 61;
const TEXT_REQUESTS: usize = 3000;

pub struct TextInputs {
    texts: Vec<String>,
    reqs: Vec<QueryRequest>,
    reference: Vec<Answer>,
}

impl Workload for BooleanText {
    type State = InvertedIndex;
    type Inputs = TextInputs;

    fn setup(&self) -> InvertedIndex {
        let spec = CorpusSpec {
            num_docs: 20_000,
            vocab_size: 4_000,
            avg_doc_len: 120,
            burstiness: 0.2,
            length_skew: 1.0,
            block_len: 32,
            ..Default::default()
        };
        build_text_index(&spec, &mut StdRng::seed_from_u64(TEXT_CORPUS_SEED))
    }

    fn inputs(&self, index: &InvertedIndex, seed: u64) -> TextInputs {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool: Vec<(String, Query)> = MixedQuerySpec {
            num_queries: TEXT_REQUESTS * POOL,
            ..Default::default()
        }
        .generate(index, &mut rng)
        .into_iter()
        .map(|q| {
            let parsed = Query::parse(index, &q, false)
                .unwrap_or_else(|e| panic!("generated query {q:?} does not parse: {e}"));
            (q, parsed)
        })
        .collect();
        // Cost-stratified like the Fig. 11 log: by operator shape, then
        // by the postings under quoted phrases (positional checks over
        // popular terms are this log's rare, expensive queries), then by
        // all postings the query names.
        let cost = |(text, q): &(String, Query)| {
            let mut terms = Vec::new();
            terms_of(q, false, &mut terms);
            let (mut phrase, mut all) = (0usize, 0usize);
            for (t, in_phrase) in terms {
                all += index.doc_freq(t);
                phrase += if in_phrase { index.doc_freq(t) } else { 0 };
            }
            (shape_of(text), phrase, all)
        };
        let mut picked = stats::stratified(&pool, TEXT_REQUESTS, cost);
        stats::shuffle(&mut picked, &mut rng);
        let (texts, reqs): (Vec<String>, Vec<QueryRequest>) = picked
            .into_iter()
            .map(|(text, q)| {
                let req = QueryRequest::from_query(q)
                    .k(K)
                    .mode(ExecMode::Hybrid)
                    .pruned(true);
                (text, req)
            })
            .unzip();
        let reference = reference(index, &reqs);
        TextInputs {
            texts,
            reqs,
            reference,
        }
    }

    fn pass(&self, index: &InvertedIndex, inp: &TextInputs, t: &Telemetry, spans: &Spans) -> Pass {
        let gpu = Gpu::new(k20());
        let mut g = Griffin::new(&gpu, index.meta(), index.block_len());
        g.cpu.set_host_cache_budget(0);
        if t.is_enabled() {
            g.set_telemetry(t.clone());
        }
        let (mut pass, outs) = closed_loop(spans, &inp.reference, |i| {
            spans
                .time("griffin.query", Some(i as u64), || {
                    g.query(index, &inp.texts[i])
                        .k(K)
                        .mode(ExecMode::Hybrid)
                        .pruned(true)
                        .run()
                })
                .ok()
        });
        let (mut total, mut decoded) = (0u64, 0u64);
        for p in outs.iter().filter_map(|o| o.pruning.as_ref()) {
            total += p.tf_blocks_total;
            decoded += p.tf_blocks_decoded;
        }
        pass.layers.insert(
            "cpu-engine.prune_skipped_ratio",
            ratio((total - decoded) as f64, total as f64),
        );
        cache_layers(&g, &mut pass.layers);
        pass
    }

    fn isolate(&self, index: &InvertedIndex, inp: &TextInputs, spans: &Spans) -> Layers {
        let mut l = isolate(index, &inp.reqs, spans);
        // Parse the workload's own strings rather than re-rendered ones.
        let texts = &inp.texts[..inp.texts.len().min(ISOLATE_CPU)];
        let s = Instant::now();
        for text in texts {
            std::hint::black_box(Query::parse(index, text, false).ok());
        }
        l.insert(
            "core.parse_host_us_per_query",
            s.elapsed().as_nanos() as f64 / 1e3 / texts.len().max(1) as f64,
        );
        l
    }

    fn static_layers(&self, index: &InvertedIndex) -> Layers {
        Layers::from([("index.bits_per_posting", bits_per_posting(index))])
    }
}

// ---------------------------------------------------------------------
// serve_zipf
// ---------------------------------------------------------------------

/// Why: the only workload where caching, single-flight coalescing,
/// admission, batching and queueing decide latency.
///
/// A Zipf-repeating stream over a medium list index (each popularity
/// rank repeated its exact Zipf share of the stream, in seeded order), served through
/// `GriffinServer` with a result cache smaller than the distinct working
/// set (the hot head fits), a host decoded-list cache, GPU batching and
/// bounded admission that degrades to CPU. The index epoch is bumped at
/// fixed points (an index refresh). The stream is planned once, then
/// replayed open-loop at a fixed ladder of absolute arrival rates.
pub struct ServeZipf;

const SERVE_CORPUS_SEED: u64 = 0xCAC4E;
const SERVE_REQUESTS: usize = 300;
/// Distinct queries the stream repeats.
const SERVE_DISTINCT: usize = 64;
/// Candidates generated per distinct query.
const SERVE_POOL: usize = 8;
/// Spreads popularity ranks over cost positions; odd, so coprime with
/// [`SERVE_DISTINCT`].
const SERVE_RANK_STRIDE: usize = 37;
/// Zipf exponent of the repeats.
const SERVE_ZIPF_S: f64 = 1.1;
/// Result-cache entry bound: below the working set, above its hot head.
const SERVE_RESULT_ENTRIES: usize = 16;
const SERVE_RESULT_BYTES: u64 = 16 << 20;
const SERVE_HOST_CACHE_BYTES: u64 = 64 << 20;
/// Stream positions where the index epoch is bumped.
const SERVE_EPOCH_BUMPS: [usize; 2] = [SERVE_REQUESTS / 3, 2 * SERVE_REQUESTS / 3];
/// The fixed, absolute arrival-rate ladder (virtual requests/s). Never
/// derived from measured service time.
pub const SERVE_LADDER: [f64; 6] = [200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0];
/// Ladder rungs reported as rate_lo / rate_mid / rate_hi.
const SERVE_RUNGS: [(usize, &str); 3] = [
    (0, "server.virt_ms_p99.rate_lo"),
    (1, "server.virt_ms_p99.rate_mid"),
    (3, "server.virt_ms_p99.rate_hi"),
];
const SERVE_MID: usize = 1;
/// p99 limit for `max_rate_qps`, and the backlog slack.
const SERVE_P99_LIMIT_NS: u64 = 25_000_000;
const SERVE_BACKLOG_SLACK_NS: u64 = 1_000_000;

fn server_config() -> ServerConfig {
    ServerConfig {
        admission: AdmissionConfig {
            capacity: 64,
            gpu_depth_threshold: 8,
            policy: OverloadPolicy::DegradeToCpuOnly,
            serve_stale: false,
        },
        batching: Some(BatchConfig::for_device(&k20())),
        ..ServerConfig::default()
    }
}

pub struct ServeInputs {
    distinct: Vec<QueryRequest>,
    reference: Vec<Answer>,
    /// Index into `distinct` per stream position.
    stream: Vec<usize>,
    /// Arrival instants per ladder rung.
    arrivals: Vec<Vec<u64>>,
}

impl Workload for ServeZipf {
    type State = InvertedIndex;
    type Inputs = ServeInputs;

    fn setup(&self) -> InvertedIndex {
        let spec = ListIndexSpec {
            num_terms: 48,
            num_docs: 2_000_000,
            max_list_len: 600_000,
            ..Default::default()
        };
        let index = build_list_index(&spec, &mut StdRng::seed_from_u64(SERVE_CORPUS_SEED)).0;
        // Construction cost of the serving front end belongs to set-up.
        std::hint::black_box(GriffinServer::new(server_config()));
        index
    }

    fn inputs(&self, index: &InvertedIndex, seed: u64) -> ServeInputs {
        let mut rng = StdRng::seed_from_u64(seed);
        // The working set is small, so its cost mix is pinned on the
        // real thing: where the first step runs (GPU-path queries cost the
        // most host time), then each candidate's CpuOnly virtual time.
        let gpu = Gpu::new(k20());
        let g = Griffin::new(&gpu, index.meta(), index.block_len());
        let distinct = fig11_log(index, SERVE_DISTINCT, SERVE_POOL, &mut rng, |q| {
            let req = QueryRequest::new(q.clone()).k(K).mode(ExecMode::CpuOnly);
            (placement_cost(index, &g, q).0, g.run(index, &req).time)
        });
        // Popularity rank r goes to the query at cost position
        // r * SERVE_RANK_STRIDE (mod the set size): the hot head spans
        // the cost range the same way in every run, instead of a seed
        // deciding whether the hottest query is a whale.
        let mut stream: Vec<usize> =
            stats::zipf_counts(SERVE_DISTINCT, SERVE_ZIPF_S, SERVE_REQUESTS)
                .into_iter()
                .enumerate()
                .flat_map(|(rank, count)| {
                    std::iter::repeat_n(rank * SERVE_RANK_STRIDE % SERVE_DISTINCT, count)
                })
                .collect();
        stats::shuffle(&mut stream, &mut rng);
        let arrivals = SERVE_LADDER
            .iter()
            .enumerate()
            .map(|(i, &rate)| stats::poisson_arrivals(rate, SERVE_REQUESTS, seed ^ (i as u64 + 1)))
            .collect();
        let reference = reference(index, &distinct);
        ServeInputs {
            distinct,
            reference,
            stream,
            arrivals,
        }
    }

    fn pass(&self, index: &InvertedIndex, inp: &ServeInputs, t: &Telemetry, spans: &Spans) -> Pass {
        let gpu = Gpu::new(k20());
        let mut g = Griffin::new(&gpu, index.meta(), index.block_len());
        g.set_result_cache(SERVE_RESULT_ENTRIES, SERVE_RESULT_BYTES);
        g.cpu.set_host_cache_budget(SERVE_HOST_CACHE_BYTES);
        let mut server = GriffinServer::new(server_config());
        if t.is_enabled() {
            g.set_telemetry(t.clone());
            server.set_telemetry(t.clone());
        }

        let mut pass = Pass::default();
        let plan_start = Instant::now();
        let mut planned = Vec::with_capacity(inp.stream.len());
        for (i, &d) in inp.stream.iter().enumerate() {
            if SERVE_EPOCH_BUMPS.contains(&i) {
                g.set_index_epoch(g.index_epoch() + 1);
            }
            let req = std::slice::from_ref(&inp.distinct[d]);
            let s = Instant::now();
            let p = spans.time("server.plan", Some(i as u64), || {
                server.plan(&g, index, req)
            });
            pass.host_ns.push(s.elapsed().as_nanos() as u64);
            if !same_answer(&p[0].topk, &inp.reference[d]) {
                pass.mismatched += 1;
            }
            planned.extend(p);
            calib::tick();
        }
        let plan_ns = plan_start.elapsed().as_nanos() as u64;

        let mut rungs = Vec::with_capacity(SERVE_LADDER.len());
        let mut replay_mid_ns = 0;
        let mut reports = Vec::new();
        for (r, &rate) in SERVE_LADDER.iter().enumerate() {
            let arrivals: Vec<VirtualNanos> = inp.arrivals[r]
                .iter()
                .map(|&a| VirtualNanos::from_nanos(a))
                .collect();
            let s = Instant::now();
            let report = spans.time("server.replay", Some(r as u64), || {
                server.replay(&planned, &arrivals)
            });
            if r == SERVE_MID {
                replay_mid_ns = s.elapsed().as_nanos() as u64;
            }
            let mut rung = Rung {
                rate_qps: rate,
                latencies: Vec::with_capacity(planned.len()),
                waits: Vec::new(),
            };
            for (q, p) in report.queries.iter().zip(&planned) {
                rung.latencies.push(q.latency.map(|l| l.as_nanos()));
                if let Some(l) = q.latency {
                    let service = match q.outcome {
                        Outcome::Degraded => p.cpu_fallback.unwrap_or(p.service_time),
                        _ => p.service_time,
                    };
                    rung.waits.push(l.saturating_sub(service).as_nanos());
                }
            }
            rungs.push(rung);
            reports.push(report);
        }

        let mid = &rungs[SERVE_MID];
        pass.virt = mid.latencies.clone();
        pass.unanswered = mid.latencies.iter().filter(|l| l.is_none()).count();
        pass.wall_ns = plan_ns + replay_mid_ns;

        let l = &mut pass.layers;
        for (r, name) in SERVE_RUNGS {
            l.insert(
                name,
                rungs[r].p99().map_or(f64::INFINITY, |v| v as f64 / 1e6),
            );
        }
        l.insert(
            "server.max_rate_qps",
            stats::max_rate(&rungs, SERVE_P99_LIMIT_NS, SERVE_BACKLOG_SLACK_NS),
        );
        let waits: Vec<Sample> = mid.waits.iter().map(|&w| Some(w)).collect();
        if !waits.is_empty() {
            l.insert(
                "server.queue_wait_ms_p50",
                stats::percentile(&waits, 50.0).unwrap_or(0) as f64 / 1e6,
            );
            l.insert(
                "server.queue_wait_ms_p99",
                stats::percentile(&waits, 99.0).unwrap_or(0) as f64 / 1e6,
            );
        }
        let s_mid = &reports[SERVE_MID].stats;
        l.insert("server.batch_occupancy_mean", s_mid.mean_batch_occupancy());
        l.insert(
            "server.gpu_queue_depth_max",
            s_mid.max_gpu_queue_depth as f64,
        );
        // Overload responses are read at the top reported rung, where
        // the admission policy acts.
        let hi = &reports[SERVE_RUNGS[2].0];
        let n = planned.len() as f64;
        let count = |o: Outcome| hi.queries.iter().filter(|q| q.outcome == o).count() as f64 / n;
        l.insert("server.shed_ratio", count(Outcome::Shed));
        l.insert("server.degraded_ratio", count(Outcome::Degraded));
        l.insert("server.coalesced_ratio", count(Outcome::Coalesced));
        l.insert("server.served_stale_ratio", count(Outcome::ServedStale));
        // The plan calls alone: the loop also runs the host speed probe.
        let plan_calls_ns: u64 = pass.host_ns.iter().sum();
        l.insert("server.plan_host_ms", plan_calls_ns as f64 / 1e6);
        l.insert("server.replay_host_ms", replay_mid_ns as f64 / 1e6);
        if let Some(rc) = g.result_cache_stats() {
            l.insert(
                "core.rescache_hit_ratio",
                ratio(rc.hits as f64, (rc.hits + rc.misses) as f64),
            );
            l.insert("core.rescache_evictions", rc.evictions as f64);
        }
        cache_layers(&g, l);
        pass
    }

    fn isolate(&self, index: &InvertedIndex, inp: &ServeInputs, spans: &Spans) -> Layers {
        isolate(index, &inp.distinct, spans)
    }

    fn static_layers(&self, index: &InvertedIndex) -> Layers {
        Layers::from([("index.bits_per_posting", bits_per_posting(index))])
    }
}
