//! The hybrid query engine: one query, two processors, per-operation
//! migration (paper Fig. 1(d)).

use std::cell::{Cell, RefCell};

use griffin_cpu::engine::Strategy;
use griffin_cpu::{setops, CpuEngine, Intermediate, PruneStats, QueryScratch, WorkCounters};
use griffin_gpu::{DeviceIntermediate, GpuEngine, GpuError, GpuStrategy};
use griffin_gpu_sim::{Gpu, StreamKind, VirtualNanos};
use griffin_index::{CorpusMeta, InvertedIndex, TermId};
use griffin_telemetry::{Telemetry, TraceEvent};

use crate::cost::CostModel;
use crate::plan::{PlanNode, Planner};
use crate::query::Query;
use crate::request::{QueryError, QueryRequest};
use crate::rescache::{CachedResult, ResultCache, ResultCacheStats, RESULT_CACHE_LOOKUP};
use crate::sched::{
    Decision, DecisionTrace, Proc, Residency, Scheduler, SplitBalancer, SplitConfig,
};

/// How a query is executed (the paper's three evaluated configurations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// The highly optimized CPU baseline (Fig. 1(a)).
    CpuOnly,
    /// Griffin-GPU running alone (Fig. 1(b)).
    GpuOnly,
    /// Griffin: dynamic per-operation scheduling (Fig. 1(d)).
    Hybrid,
}

/// One step in a query's execution trace.
#[derive(Debug, Clone, PartialEq)]
pub struct StepTrace {
    pub op: StepOp,
    pub proc: Proc,
    pub time: VirtualNanos,
    /// Intermediate length after the step.
    pub inter_len: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOp {
    /// Decompress + score the first list.
    Init,
    /// Pairwise intersection with the i-th planned term.
    Intersect(usize),
    /// Co-executed pairwise intersection with the i-th planned term: the
    /// long list was range-partitioned and both processors ran their
    /// slice concurrently. The step's `time` is `max(cpu_lane, gpu_lane)`
    /// — the lanes overlap — so step durations still sum to the query
    /// total. On an in-split GPU fault, `gpu_lane` records the wasted
    /// device attempts; the re-run of the device's range appears as a
    /// separate [`StepOp::FaultRecovery`] step.
    SplitIntersect {
        term: usize,
        cpu_lane: VirtualNanos,
        gpu_lane: VirtualNanos,
    },
    /// Intermediate migration across PCIe.
    Migrate,
    /// Final top-k ranking (always CPU, per the Fig. 7 finding).
    TopK,
    /// A whole operator run opaquely on one processor: a chain under
    /// [`ExecMode::GpuOnly`] (or its CPU fallback), or a pruned chain
    /// with its ranking. Under [`ExecMode::CpuOnly`] the entire query is
    /// this single host step.
    Exec,
    /// Recovery from a device fault: the wasted GPU attempts (including
    /// retry backoff) plus the cost of re-establishing the intermediate
    /// on the host — by draining it over PCIe when the device still
    /// answers, or by re-running the completed prefix on the CPU when it
    /// does not. Recovery time is part of the query's latency, so these
    /// steps keep the step-sum == total invariant under faults.
    FaultRecovery,
    /// One pairwise union of two sub-plan results (an `OR` arm folding
    /// in). Set operators run on the host; see [`crate::plan`].
    Union,
    /// Subtraction of a negated sub-plan's docids (`-term` / `NOT`).
    Difference,
    /// One pairwise intersection of two *sub-plan results* (a mixed
    /// `AND`), as opposed to [`StepOp::Intersect`], which intersects the
    /// running chain with a posting list.
    IntersectSets,
    /// The positional adjacency filter of a quoted phrase, run over the
    /// phrase's term-intersection result.
    PhraseCheck,
}

/// Result of a query under any mode.
#[derive(Debug, Clone)]
pub struct GriffinOutput {
    /// Top-k (docid, score), best first.
    pub topk: Vec<(u32, f32)>,
    /// End-to-end virtual latency.
    pub time: VirtualNanos,
    /// Per-operation trace. Hybrid queries record every chain step;
    /// GpuOnly records one [`StepOp::Exec`] step per chain; both record
    /// each host set operator and the final [`StepOp::TopK`]. CpuOnly
    /// records the whole query as one [`StepOp::Exec`] step. In every
    /// mode the step durations sum exactly to
    /// [`GriffinOutput::time`], which is what lets the serving pipeline
    /// replay any query's schedule stage by stage.
    pub steps: Vec<StepTrace>,
    /// Number of GPU faults observed while executing this query (every
    /// failed attempt counts, including ones that a retry then absorbed).
    /// Zero when fault injection is off or the query never touched the
    /// device.
    pub gpu_faults: u32,
    /// True when GPU fault recovery was exhausted (or the device was
    /// lost outright) and the query abandoned the device, finishing on
    /// the CPU. Transient faults that a retry absorbed do *not* set
    /// this — it is the "this device is actually unusable" signal that
    /// circuit breakers should key on, as opposed to
    /// [`gpu_faults`](Self::gpu_faults), which counts every hiccup.
    pub gpu_abandoned: bool,
    /// Block-max pruning ledger, present when the query ran with
    /// [`QueryRequest::pruned`] set and its plan is a single chain.
    /// `None` for unpruned runs (and for other plan shapes, which run
    /// unpruned).
    pub pruning: Option<PruneStats>,
    /// Fleet coverage accounting, present only when the answer came
    /// through a scatter–gather coordinator (see [`crate::fleet`]). A
    /// single-engine answer is always complete, hence `None`.
    pub fleet: Option<crate::fleet::FleetInfo>,
    /// True when the answer came from the query result cache: the top-k
    /// bits are exactly what execution produced when the entry was
    /// stored, and [`GriffinOutput::time`] is the (much smaller) lookup
    /// charge. Always false with the result cache disabled — the
    /// default.
    pub result_cache_hit: bool,
}

/// Where the intermediate currently lives.
enum Inter {
    Host(Intermediate),
    Device(DeviceIntermediate),
}

impl Inter {
    fn len(&self) -> usize {
        match self {
            Inter::Host(h) => h.len(),
            Inter::Device(d) => d.len,
        }
    }

    fn loc(&self) -> Proc {
        match self {
            Inter::Host(_) => Proc::Cpu,
            Inter::Device(_) => Proc::Gpu,
        }
    }
}

/// How [`Griffin::run`] reacts to GPU faults.
///
/// Transient faults (failed launches, transfer errors, allocation
/// failures) are retried in place after a bounded virtual-time backoff;
/// a fault that survives every retry — or a sticky device loss — migrates
/// the query to the CPU for the rest of its execution. Both paths keep
/// the query's results identical to a fault-free run; only its latency
/// (and its [`StepOp::FaultRecovery`] trace entries) change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Retries per failing GPU operation before migrating to the CPU.
    pub max_retries: u32,
    /// Backoff charged to the virtual clock before the first retry.
    pub initial_backoff: VirtualNanos,
    /// Each further backoff is the previous one times this factor.
    pub backoff_multiplier: u64,
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy {
            max_retries: 2,
            initial_backoff: VirtualNanos::from_micros(10),
            backoff_multiplier: 2,
        }
    }
}

/// One query's execution state, threaded through every operator of the
/// executor: the step trace with its running total, plus the fault
/// bookkeeping.
struct Run {
    mode: ExecMode,
    /// Host work not yet priced. [`ExecMode::CpuOnly`] accumulates the
    /// whole query here — top-k included — and prices it once, as a
    /// single [`StepOp::Exec`] step: the CPU cost model's
    /// `max(compute, memory)` does not add up across steps. `None` in the
    /// GPU-capable modes, which price each host operator as its own step.
    unpriced: Option<WorkCounters>,
    steps: Vec<StepTrace>,
    total: VirtualNanos,
    /// Every failed GPU attempt, including retried ones.
    faults: u32,
    /// Latched once a fault exhausts its retries: the rest of the query
    /// runs CPU-only (a faulting device rarely deserves more traffic
    /// within the same query).
    gpu_disabled: bool,
}

impl Run {
    fn new(mode: ExecMode) -> Run {
        Run {
            mode,
            unpriced: (mode == ExecMode::CpuOnly).then(WorkCounters::default),
            steps: Vec::new(),
            total: VirtualNanos::ZERO,
            faults: 0,
            gpu_disabled: false,
        }
    }
}
/// The Griffin system: CPU engine + Griffin-GPU engine + scheduler.
pub struct Griffin<'g> {
    pub cpu: CpuEngine,
    pub gpu: GpuEngine<'g>,
    pub scheduler: Scheduler,
    /// Fault handling for GPU operations; see [`RecoveryPolicy`].
    pub recovery: RecoveryPolicy,
    device: &'g Gpu,
    telemetry: Telemetry,
    /// Whether GPU execution runs with copy/compute overlap (async
    /// streams + next-list prefetch). See [`Griffin::set_overlap`].
    overlap: bool,
    /// Feedback controller for co-executed splits: refines the cost
    /// model's split fraction from measured lane imbalance, so repeated
    /// splits converge on lanes that finish together.
    balancer: RefCell<SplitBalancer>,
    /// Per-engine decode/gather scratch, reused across every CPU
    /// intersection (buffers are cleared between operations, never
    /// shrunk, so steady-state queries stop allocating).
    scratch: RefCell<QueryScratch>,
    /// The top cache tier: whole-query results keyed on the canonical
    /// request signature. `None` (the default) disables the tier
    /// entirely; see [`Griffin::set_result_cache`].
    result_cache: RefCell<Option<ResultCache>>,
    /// Index generation stamped into every result-cache key, so bumping
    /// it ([`Griffin::set_index_epoch`]) invalidates all cached answers.
    index_epoch: Cell<u64>,
}

impl<'g> Griffin<'g> {
    pub fn new(device: &'g Gpu, meta: &CorpusMeta, block_len: usize) -> Griffin<'g> {
        let mut griffin = Griffin {
            cpu: CpuEngine::new(),
            gpu: GpuEngine::new(device, meta),
            scheduler: Scheduler::for_block_len(block_len),
            recovery: RecoveryPolicy::default(),
            device,
            telemetry: Telemetry::disabled(),
            overlap: true,
            balancer: RefCell::new(SplitBalancer::default()),
            scratch: RefCell::new(QueryScratch::default()),
            result_cache: RefCell::new(None),
            index_epoch: Cell::new(0),
        };
        griffin.set_overlap(true);
        griffin.set_coexec(true);
        griffin
    }

    /// Enables or disables copy/compute overlap for this engine's GPU
    /// work. With overlap on (the default), GPU-touching queries run in
    /// an async window — each list ships over PCIe while the previous
    /// operation's kernels execute — and the scheduler's profitable-work
    /// floor is re-derived from the pipelined cost model (see
    /// [`CostModel`]). With overlap off, execution and the floor revert
    /// to the serial model. Results are bit-exact either way.
    pub fn set_overlap(&mut self, on: bool) {
        self.overlap = on;
        self.gpu.set_overlap(on);
        if on {
            self.scheduler
                .apply_cost_model(&CostModel::from_device(self.device.config(), true));
        } else {
            self.scheduler.min_gpu_work =
                Scheduler::for_block_len(self.scheduler.ratio_threshold).min_gpu_work;
            // The split solver and the cache-aware override must price
            // the GPU lane the same way the engine will now run it:
            // serially.
            let serial = CostModel::from_device(self.device.config(), false);
            if let Some(split) = &mut self.scheduler.split {
                split.model = serial;
            }
            self.scheduler.cache_model = Some(serial);
        }
    }

    /// Whether overlapped GPU execution is enabled.
    pub fn overlap_enabled(&self) -> bool {
        self.overlap
    }

    /// Re-derives the scheduler's cost model from measured host kernel
    /// numbers (see [`crate::cost::KernelMeasurements`] and the
    /// `exp_kernels` bench): the device-side estimates stay tied to the
    /// configured device and the current overlap mode, the CPU curves
    /// move to the measured slopes, and the profitable-work floor and
    /// split solver both pick up the recalibrated crossover.
    pub fn calibrate_cpu(&mut self, m: &crate::cost::KernelMeasurements) {
        let model = CostModel::from_device(self.device.config(), self.overlap).calibrated_from(m);
        self.scheduler.apply_cost_model(&model);
        if let Some(split) = &mut self.scheduler.split {
            split.model = model;
        }
        self.balancer.borrow_mut().reset();
    }

    /// Enables or disables CPU+GPU co-execution (on by default). With it
    /// on, intersections whose length ratio falls near the scheduler's
    /// crossover may be *split*: the long list is range-partitioned, the
    /// device and the host each intersect their slice concurrently, and
    /// the partial results concatenate into exactly the unsplit answer
    /// ([`Decision::Split`]). The split fraction is solved from both cost
    /// models and refined per query by the adaptive balancer. Results are
    /// bit-exact either way; only latency changes.
    pub fn set_coexec(&mut self, on: bool) {
        self.scheduler.split = if on {
            Some(SplitConfig::new(CostModel::from_device(
                self.device.config(),
                self.overlap,
            )))
        } else {
            None
        };
        self.balancer.borrow_mut().reset();
    }

    /// Whether co-execution splits are enabled.
    pub fn coexec_enabled(&self) -> bool {
        self.scheduler.split.is_some()
    }

    /// Attach a telemetry session. Every subsequent query records its
    /// steps and scheduler decisions; the device observer is installed
    /// so kernel launches and PCIe transfers are traced too. Recording
    /// is passive — results and virtual timings are unchanged (see the
    /// `telemetry_equivalence` integration test). Pass
    /// [`Telemetry::disabled`] to detach.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.device
            .set_observer(telemetry.device_observer(self.device.config().warp_size));
        self.telemetry = telemetry;
    }

    /// The currently attached telemetry session.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The simulated device this engine drives. Serving layers use its
    /// virtual clock (e.g. for health-breaker cooldowns) and its fault
    /// plan controls.
    pub fn device(&self) -> &'g Gpu {
        self.device
    }

    /// Enables the query result cache — the top tier of the cache
    /// hierarchy — bounded to `max_entries` results and `budget_bytes`
    /// total bytes. Passing zero for either bound disables the tier
    /// (the construction default), restoring bit- and time-identical
    /// execution for every query. See [`crate::rescache`].
    pub fn set_result_cache(&self, max_entries: usize, budget_bytes: u64) {
        *self.result_cache.borrow_mut() = if max_entries == 0 || budget_bytes == 0 {
            None
        } else {
            Some(ResultCache::new(max_entries, budget_bytes))
        };
    }

    /// Whether the query result cache is enabled.
    pub fn result_cache_enabled(&self) -> bool {
        self.result_cache.borrow().is_some()
    }

    /// Result-cache accounting, `None` while the tier is disabled.
    pub fn result_cache_stats(&self) -> Option<ResultCacheStats> {
        self.result_cache.borrow().as_ref().map(|c| c.stats())
    }

    /// Non-perturbing result-cache probe: the cached answer for `req`
    /// at the current index epoch, without LRU or hit/miss effects.
    /// This is the admission queue's stale-serve path — an overloaded
    /// server may answer a shed query from here, explicitly flagged.
    pub fn result_cache_peek(&self, req: &QueryRequest) -> Option<CachedResult> {
        let guard = self.result_cache.borrow();
        let cache = guard.as_ref()?;
        cache
            .peek(&req.cache_signature(self.index_epoch.get()))
            .cloned()
    }

    /// The index generation stamped into result-cache keys.
    pub fn index_epoch(&self) -> u64 {
        self.index_epoch.get()
    }

    /// Declares a new index generation (segment merge, document
    /// ingest, …): every cached answer and decoded list is invalidated.
    /// The result cache keys on the epoch, so old entries can never be
    /// served again; the host decoded-list tier is flushed outright
    /// (its entries alias the old postings). The device LRU keys on
    /// [`TermId`] against live postings the engine re-uploads per
    /// query, so it is flushed by the serving layer when the device
    /// copy actually goes stale.
    pub fn set_index_epoch(&self, epoch: u64) {
        self.index_epoch.set(epoch);
        if let Some(cache) = self.result_cache.borrow_mut().as_mut() {
            cache.clear();
        }
        self.cpu.clear_host_cache();
    }

    /// Where each of `term`'s copies currently lives, for cache-aware
    /// scheduling: the host decoded-list tier and the device LRU (or an
    /// in-flight prefetch) are probed without perturbing either.
    fn residency(&self, term: TermId) -> Residency {
        Residency {
            host_cached: self.cpu.host_cache_contains(term),
            device_cached: self.gpu.is_resident(term),
        }
    }

    /// Folds all three cache tiers' accounting into the attached
    /// telemetry registry under one naming scheme:
    /// `griffin_cache_{device,host,result}_{hits,misses,evictions,bytes_resident}`.
    /// Totals are process-cumulative, exported as gauges of the running
    /// value (the same race-tolerant pattern as the SIMD dispatch
    /// totals).
    pub fn export_cache_metrics(&self) {
        let dev = self.gpu.cache_stats();
        let host = self.cpu.host_cache_stats();
        let res = self.result_cache_stats().unwrap_or_default();
        let tiers: [(&str, u64, u64, u64, u64); 3] = [
            (
                "device",
                dev.hits,
                dev.misses,
                dev.evictions,
                dev.bytes_resident,
            ),
            (
                "host",
                host.hits,
                host.misses,
                host.evictions,
                host.bytes_resident,
            ),
            (
                "result",
                res.hits,
                res.misses,
                res.evictions,
                res.bytes_resident,
            ),
        ];
        self.telemetry.with(|r| {
            for (tier, hits, misses, evictions, bytes) in tiers {
                for (stat, v) in [
                    ("hits", hits),
                    ("misses", misses),
                    ("evictions", evictions),
                    ("bytes_resident", bytes),
                ] {
                    r.registry
                        .gauge_set(&format!("griffin_cache_{tier}_{stat}"), v as f64);
                }
            }
        });
    }

    /// Answers `req` from the result cache if it can: a hit returns the
    /// stored top-k bit-for-bit, charges `min(lookup, original)` virtual
    /// time as a single host step, and marks the output. `Query::Nothing`
    /// is never cached — its execution is already free.
    fn result_cache_lookup(&self, req: &QueryRequest) -> Option<GriffinOutput> {
        if req.query == Query::Nothing {
            return None;
        }
        let hit = {
            let mut guard = self.result_cache.borrow_mut();
            let cache = guard.as_mut()?;
            cache.get(&req.cache_signature(self.index_epoch.get()))?
        };
        let time = hit.time.min(RESULT_CACHE_LOOKUP);
        self.telemetry
            .counter_add("griffin_result_cache_served_total", 1);
        let mut run = Run::new(req.mode);
        if time > VirtualNanos::ZERO {
            self.push_step(&mut run, StepOp::Exec, Proc::Cpu, time, hit.topk.len());
        }
        Some(GriffinOutput {
            topk: hit.topk,
            time,
            steps: run.steps,
            gpu_faults: 0,
            gpu_abandoned: false,
            pruning: None,
            fleet: None,
            result_cache_hit: true,
        })
    }

    /// Stores an executed answer for future repeats of `req`.
    fn result_cache_store(&self, req: &QueryRequest, out: &GriffinOutput) {
        if req.query == Query::Nothing {
            return;
        }
        if let Some(cache) = self.result_cache.borrow_mut().as_mut() {
            cache.insert(
                req.cache_signature(self.index_epoch.get()),
                CachedResult {
                    topk: out.topk.clone(),
                    time: out.time,
                },
            );
        }
    }

    /// Record one executed step into the trace and the step-latency
    /// histograms.
    fn record_step(&self, s: &StepTrace) {
        let (op, arg) = match s.op {
            StepOp::Init => ("init", 0),
            StepOp::Intersect(i) => ("intersect", i),
            StepOp::SplitIntersect { term, .. } => ("split_intersect", term),
            StepOp::Migrate => ("migrate", 0),
            StepOp::TopK => ("topk", 0),
            StepOp::Exec => ("exec", 0),
            StepOp::FaultRecovery => ("fault_recovery", 0),
            StepOp::Union => ("union", 0),
            StepOp::Difference => ("difference", 0),
            StepOp::IntersectSets => ("intersect_sets", 0),
            StepOp::PhraseCheck => ("phrase_check", 0),
        };
        let (cpu_lane, gpu_lane) = match s.op {
            StepOp::SplitIntersect {
                cpu_lane, gpu_lane, ..
            } => (cpu_lane, gpu_lane),
            _ => (VirtualNanos::ZERO, VirtualNanos::ZERO),
        };
        let proc = s.proc.label();
        self.telemetry.record(|r| TraceEvent::Step {
            query: r.current_query(),
            op,
            arg,
            proc,
            duration: s.time,
            inter_len: s.inter_len,
            cpu_lane,
            gpu_lane,
        });
        self.telemetry.observe_duration(
            &format!("griffin_step_ns{{op=\"{op}\",proc=\"{proc}\"}}"),
            s.time,
        );
    }

    /// Record one scheduler decision.
    fn record_decision(&self, d: &DecisionTrace) {
        let chosen = d.chosen.label();
        self.telemetry.record(|r| TraceEvent::SchedDecision {
            query: r.current_query(),
            short_len: d.short_len,
            long_len: d.long_len,
            ratio: d.ratio,
            effective_threshold: d.effective_threshold,
            hysteresis_applied: d.hysteresis_applied,
            chosen,
            host_cached: d.residency.host_cached,
            device_cached: d.residency.device_cached,
            cache_flip: d.cache_flip,
        });
        self.telemetry.counter_add(
            &format!("griffin_sched_decisions_total{{proc=\"{chosen}\"}}"),
            1,
        );
        if d.cache_flip {
            // "Won by cache": the residency override changed the
            // baseline placement for this operation.
            self.telemetry.counter_add(
                &format!(
                    "griffin_sched_cache_flips_total{{from=\"{}\",to=\"{chosen}\"}}",
                    d.baseline.label()
                ),
                1,
            );
        }
    }

    /// Fold CPU work counters into the registry, along with the
    /// cumulative kernel-dispatch totals (which SIMD path each CPU
    /// kernel actually took). Dispatch totals are process-wide monotone
    /// atomics, so they are folded as gauges of the running total —
    /// race-tolerant when engines run in parallel.
    fn record_cpu_work(&self, w: &WorkCounters) {
        self.telemetry.with(|r| {
            for (name, v) in w.named() {
                if v > 0 {
                    r.registry
                        .counter_add(&format!("griffin_cpu_work_total{{counter=\"{name}\"}}"), v);
                }
            }
            for (kernel, path, total) in griffin_cpu::simd::dispatch_totals() {
                if total > 0 {
                    r.registry.gauge_set(
                        &format!(
                            "griffin_simd_dispatch_total{{kernel=\"{kernel}\",path=\"{path}\"}}"
                        ),
                        total as f64,
                    );
                }
            }
        });
    }

    /// Runs a GPU operation under the recovery policy: transient faults
    /// are retried with exponential virtual-time backoff; a fault that
    /// survives every retry (or a non-transient one) latches
    /// [`Run::gpu_disabled`] and surfaces the error for the caller to
    /// migrate the work to the CPU.
    fn try_gpu<T>(
        &self,
        run: &mut Run,
        mut attempt: impl FnMut() -> Result<T, GpuError>,
    ) -> Result<T, GpuError> {
        let mut backoff = self.recovery.initial_backoff;
        let mut retries = 0u32;
        loop {
            match attempt() {
                Ok(v) => return Ok(v),
                Err(e) => {
                    run.faults += 1;
                    self.telemetry.counter_add(
                        &format!(
                            "griffin_fault_gpu_errors_total{{kind=\"{}\"}}",
                            e.kind_label()
                        ),
                        1,
                    );
                    if e.is_transient() && retries < self.recovery.max_retries {
                        retries += 1;
                        self.telemetry.counter_add("griffin_fault_retries_total", 1);
                        self.device.advance(backoff);
                        backoff = backoff * self.recovery.backoff_multiplier;
                        continue;
                    }
                    run.gpu_disabled = true;
                    return Err(e);
                }
            }
        }
    }

    /// Runs a whole operator on the device under the recovery policy.
    /// Every attempt closes its span with a full device sync, so the step
    /// covers all the transfers and kernels it issued — including a
    /// prefetch still in flight when a chain ends early on an empty
    /// intermediate. Success records one GPU [`StepOp::Exec`] step. An
    /// exhausted fault records the wasted attempts as a
    /// [`StepOp::FaultRecovery`] step and returns `None`, as does a
    /// device already disabled for this query: the caller then runs the
    /// operator on the CPU.
    fn gpu_or_cpu<T>(
        &self,
        run: &mut Run,
        mut attempt: impl FnMut() -> Result<T, GpuError>,
        len: impl Fn(&T) -> usize,
    ) -> Option<T> {
        if run.gpu_disabled {
            return None;
        }
        let start = self.device.now();
        let result = self.try_gpu(run, || {
            let r = attempt();
            self.gpu.drain_prefetch();
            self.device.sync();
            r
        });
        let t = self.device.now() - start;
        match result {
            Ok(v) => {
                self.push_step(run, StepOp::Exec, Proc::Gpu, t, len(&v));
                Some(v)
            }
            Err(_) => {
                self.push_recovery_step(run, t, 0);
                None
            }
        }
    }

    /// Re-runs the completed prefix of the query plan on the CPU: the
    /// init step plus `completed` intersections. Because the CPU and GPU
    /// engines are bit-equivalent, this reproduces exactly the
    /// intermediate the device held when it failed.
    fn rematerialize(
        &self,
        index: &InvertedIndex,
        planned: &[TermId],
        completed: usize,
        w: &mut WorkCounters,
    ) -> Intermediate {
        let mut scratch = self.scratch.borrow_mut();
        let mut inter = self.cpu.init_intermediate(index, planned[0], w);
        for j in 0..completed {
            if inter.is_empty() {
                break;
            }
            inter = self.cpu.intersect_step_with(
                index,
                &inter,
                planned[j + 1],
                Strategy::Auto,
                w,
                &mut scratch,
            );
        }
        inter
    }

    /// Brings the query's intermediate back to the host after the GPU
    /// lane is abandoned. Prefers draining the intact device intermediate
    /// over PCIe (with retries); if the device no longer answers, re-runs
    /// the completed prefix on the CPU. Returns the host intermediate and
    /// the virtual time the recovery cost.
    fn salvage(
        &self,
        run: &mut Run,
        index: &InvertedIndex,
        planned: &[TermId],
        completed: usize,
        dev: Option<DeviceIntermediate>,
    ) -> (Intermediate, VirtualNanos) {
        let mut spent = VirtualNanos::ZERO;
        if let Some(dev) = dev {
            let start = self.device.now();
            let drained = self.try_gpu(run, || self.gpu.download(&dev));
            dev.free(self.device);
            spent += self.device.now() - start;
            if let Ok(host) = drained {
                return (host, spent);
            }
        }
        let mut w = WorkCounters::default();
        let host = self.rematerialize(index, planned, completed, &mut w);
        self.record_cpu_work(&w);
        (host, spent + self.cpu.model.time(&w))
    }

    /// Appends one executed step to the query's trace and telemetry.
    fn push_step(
        &self,
        run: &mut Run,
        op: StepOp,
        proc: Proc,
        time: VirtualNanos,
        inter_len: usize,
    ) {
        let s = StepTrace {
            op,
            proc,
            time,
            inter_len,
        };
        self.record_step(&s);
        run.total += time;
        run.steps.push(s);
    }

    /// Record a completed fault recovery into the trace and telemetry.
    fn push_recovery_step(&self, run: &mut Run, time: VirtualNanos, inter_len: usize) {
        self.telemetry
            .counter_add("griffin_fault_migrations_total", 1);
        self.telemetry
            .observe_duration("griffin_fault_recovery_ns", time);
        self.push_step(run, StepOp::FaultRecovery, Proc::Cpu, time, inter_len);
    }

    /// Charges one host operator's work: priced as its own `op` step, or
    /// — under [`ExecMode::CpuOnly`] — folded into the query's single
    /// coarse step (see [`Run::unpriced`]).
    fn host_work(&self, run: &mut Run, op: StepOp, w: &WorkCounters, inter_len: usize) {
        match &mut run.unpriced {
            Some(acc) => acc.add(w),
            None => {
                self.record_cpu_work(w);
                self.push_step(run, op, Proc::Cpu, self.cpu.model.time(w), inter_len);
            }
        }
    }

    /// Runs one host operator and charges its work ([`Griffin::host_work`]).
    fn host_op(
        &self,
        run: &mut Run,
        op: StepOp,
        f: impl FnOnce(&mut WorkCounters) -> Intermediate,
    ) -> Intermediate {
        let mut w = WorkCounters::default();
        let out = f(&mut w);
        self.host_work(run, op, &w, out.len());
        out
    }

    /// Bracket one query's telemetry: QueryStart before, QueryEnd plus
    /// the per-mode latency histogram after.
    fn record_query<F: FnOnce() -> GriffinOutput>(
        &self,
        mode: ExecMode,
        terms: usize,
        run: F,
    ) -> GriffinOutput {
        self.telemetry.record(|r| TraceEvent::QueryStart {
            query: r.begin_query(),
            terms,
        });
        let out = run();
        let mode_label = match mode {
            ExecMode::CpuOnly => "cpu_only",
            ExecMode::GpuOnly => "gpu_only",
            ExecMode::Hybrid => "hybrid",
        };
        self.telemetry.counter_add(
            &format!("griffin_queries_total{{mode=\"{mode_label}\"}}"),
            1,
        );
        self.telemetry.observe_duration(
            &format!("griffin_query_ns{{mode=\"{mode_label}\"}}"),
            out.time,
        );
        self.telemetry.record(|r| TraceEvent::QueryEnd {
            query: r.current_query(),
            total: out.time,
            results: out.topk.len(),
        });
        out
    }

    /// Text-level convenience: parses `text` with the query grammar
    /// (juxtaposition = `AND`, `OR`, `-word` / `NOT`, `"quoted phrases"`,
    /// parentheses — see [`Query::parse`]) and runs it under `mode`. A
    /// word missing from the vocabulary is an error
    /// ([`QueryError::UnknownTerm`]); use
    /// [`Griffin::query`]`.lenient(true)` for the forgiving behaviour.
    pub fn search(
        &self,
        index: &InvertedIndex,
        text: &str,
        k: usize,
        mode: ExecMode,
    ) -> Result<GriffinOutput, QueryError> {
        self.query(index, text).k(k).mode(mode).run()
    }

    /// Starts a fluent text search:
    ///
    /// ```ignore
    /// let out = griffin.query(&idx, "gpu engine -legacy").k(10).lenient(true).run()?;
    /// ```
    ///
    /// The builder mirrors [`QueryRequest`]'s setters plus
    /// [`Search::lenient`], which controls how the parser treats
    /// out-of-vocabulary words.
    pub fn query<'a>(&'a self, index: &'a InvertedIndex, text: &'a str) -> Search<'a, 'g> {
        Search {
            griffin: self,
            index,
            text,
            k: 10,
            mode: ExecMode::Hybrid,
            deadline: None,
            pruned: false,
            lenient: false,
        }
    }

    /// Processes one conjunctive query, returning the top-k and the
    /// virtual latency under the chosen mode. Thin shim over
    /// [`Griffin::run`] for positional-argument callers.
    pub fn process_query(
        &self,
        index: &InvertedIndex,
        terms: &[TermId],
        k: usize,
        mode: ExecMode,
    ) -> GriffinOutput {
        self.run(index, &QueryRequest::new(terms.to_vec()).k(k).mode(mode))
    }

    /// The unified entry point: executes `req` and returns the top-k,
    /// the virtual latency, and the per-step trace. The request's
    /// `deadline` is carried for the serving layer; the engine itself
    /// always runs the query to completion.
    pub fn run(&self, index: &InvertedIndex, req: &QueryRequest) -> GriffinOutput {
        // GPU-touching modes run in an async window so transfers and
        // kernels pipeline across the device's copy and compute streams.
        // Every measured span ends at a synchronization point, so step
        // durations still sum exactly to the total.
        let window = self.overlap && req.mode != ExecMode::CpuOnly;
        let was_async = self.device.async_enabled();
        if window {
            self.device.set_async(true);
        }
        let out = self.run_inner(index, req);
        if window && !was_async {
            self.device.set_async(false);
        }
        out
    }

    fn run_inner(&self, index: &InvertedIndex, req: &QueryRequest) -> GriffinOutput {
        self.record_query(req.mode, req.query.num_terms(), || {
            // Top cache tier first: a repeat of a cached request is
            // answered without touching either engine.
            if let Some(hit) = self.result_cache_lookup(req) {
                return hit;
            }
            let root = Planner { index }.plan(&req.query);
            let out = self.execute(index, &root, req);
            self.result_cache_store(req, &out);
            out
        })
    }

    /// The executor: walks the plan under the request's mode, then feeds
    /// the survivors to the top-k sink on the host (Fig. 7). A pruned
    /// request whose plan is a single chain takes the pruned sink, which
    /// fuses the chain with block-max ranking ([`Griffin::pruned_topk`]).
    fn execute(&self, index: &InvertedIndex, root: &PlanNode, req: &QueryRequest) -> GriffinOutput {
        let mut run = Run::new(req.mode);
        let (topk, pruning) = match root {
            // Nothing to run: zero time, zero steps.
            PlanNode::Empty => (Vec::new(), None),
            PlanNode::Chain { terms, .. } if req.pruned => {
                let (topk, stats) = self.pruned_topk(index, terms, req.k, &mut run);
                (topk, Some(stats))
            }
            _ => {
                let host = self.eval(index, root, &mut run);
                let mut w = WorkCounters::default();
                let topk = griffin_cpu::topk::top_k(&host.docids, &host.scores, req.k, &mut w);
                self.host_work(&mut run, StepOp::TopK, &w, topk.len());
                (topk, None)
            }
        };
        if let Some(w) = run.unpriced.take() {
            let time = self.cpu.model.time(&w);
            self.record_cpu_work(&w);
            if time > VirtualNanos::ZERO {
                self.push_step(&mut run, StepOp::Exec, Proc::Cpu, time, topk.len());
            }
        }
        GriffinOutput {
            topk,
            time: run.total,
            steps: run.steps,
            gpu_faults: run.faults,
            gpu_abandoned: run.gpu_disabled,
            pruning,
            fleet: None,
            result_cache_hit: false,
        }
    }

    /// The pruned top-k sink over a root chain: on the host, block-max
    /// pruning defers tf decoding behind per-block BM25 upper bounds; on
    /// the device, uploads are restricted to the candidate hull's blocks.
    /// Both are bit-exact with the unpruned path. Deferred scoring does
    /// not compose with per-step migration, so the chain and its ranking
    /// run wholesale on one processor — under [`ExecMode::Hybrid`], the
    /// one the scheduler picks for the chain's first pairwise ratio.
    fn pruned_topk(
        &self,
        index: &InvertedIndex,
        terms: &[TermId],
        k: usize,
        run: &mut Run,
    ) -> (Vec<(u32, f32)>, PruneStats) {
        let place = match run.mode {
            ExecMode::CpuOnly => Proc::Cpu,
            ExecMode::GpuOnly => Proc::Gpu,
            ExecMode::Hybrid => {
                let mut by_df = terms.to_vec();
                by_df.sort_by_key(|&t| index.doc_freq(t));
                match by_df.get(1) {
                    Some(&second) => {
                        let d = self.scheduler.decide_traced_resident(
                            index.doc_freq(by_df[0]),
                            index.doc_freq(second),
                            Proc::Cpu,
                            self.residency(second),
                        );
                        self.record_decision(&d);
                        // A split decision maps to the host path: pruned
                        // chains keep their intermediate host-resident.
                        d.chosen.proc()
                    }
                    None => Proc::Cpu,
                }
            }
        };
        if place == Proc::Gpu {
            let attempt = self.gpu_or_cpu(
                run,
                || self.gpu.process_query_pruned(index, terms, k),
                |p| p.out.topk.len(),
            );
            if let Some(p) = attempt {
                self.host_work(run, StepOp::TopK, &p.out.rank_work, p.out.topk.len());
                let matches = p.out.topk.len() as u64;
                let stats = PruneStats {
                    tf_blocks_total: p.blocks_total,
                    tf_blocks_decoded: p.blocks_resident,
                    candidates: matches,
                    verified: matches,
                };
                return (p.out.topk, stats);
            }
        }
        let out = self.cpu.process_query_pruned(index, terms, k);
        self.host_work(run, StepOp::Exec, &out.counters, out.topk.len());
        (out.topk, out.stats)
    }

    /// The plan walker, shared by every mode: chains run under the mode's
    /// placement constraint ([`Griffin::chain`]); phrase checks and set
    /// operators run on the host (see [`crate::plan`] for why), each
    /// charged as its own step so durations still sum to the total.
    fn eval(&self, index: &InvertedIndex, node: &PlanNode, run: &mut Run) -> Intermediate {
        match node {
            PlanNode::Empty => Intermediate::default(),
            PlanNode::Chain { terms, .. } => self.chain(index, terms, run),
            PlanNode::Phrase { terms, .. } => {
                let inter = self.chain(index, terms, run);
                self.host_op(run, StepOp::PhraseCheck, |w| {
                    setops::phrase_filter(index, terms, &inter, w, &mut self.scratch.borrow_mut())
                })
            }
            PlanNode::Intersect { children, .. } => {
                let mut acc = self.eval(index, &children[0], run);
                for c in &children[1..] {
                    if acc.is_empty() {
                        break;
                    }
                    let part = self.eval(index, c, run);
                    acc = self.host_op(run, StepOp::IntersectSets, |w| {
                        setops::intersect_sets(&acc, &part, w)
                    });
                }
                acc
            }
            PlanNode::Union { children, .. } => {
                let mut acc = self.eval(index, &children[0], run);
                for c in &children[1..] {
                    let part = self.eval(index, c, run);
                    acc = self.host_op(run, StepOp::Union, |w| setops::union(&acc, &part, w));
                }
                acc
            }
            PlanNode::Difference { left, right, .. } => {
                let l = self.eval(index, left, run);
                if l.is_empty() {
                    return l;
                }
                let r = self.eval(index, right, run);
                self.host_op(run, StepOp::Difference, |w| setops::difference(&l, &r, w))
            }
        }
    }

    /// One chain operator under the mode's placement constraint: CpuOnly
    /// runs it on the host, GpuOnly runs the whole chain on the device
    /// (falling back to the host on an exhausted fault), and Hybrid runs
    /// the per-step scheduler — migrations, splits and all.
    fn chain(&self, index: &InvertedIndex, terms: &[TermId], run: &mut Run) -> Intermediate {
        match run.mode {
            ExecMode::Hybrid => return self.hybrid_chain(index, terms, run),
            ExecMode::GpuOnly => {
                let attempt =
                    self.gpu_or_cpu(run, || self.gpu.eval_chain(index, terms), Intermediate::len);
                if let Some(host) = attempt {
                    return host;
                }
            }
            ExecMode::CpuOnly => {}
        }
        self.host_op(run, StepOp::Exec, |w| {
            self.cpu
                .eval_chain(index, terms, w, &mut self.scratch.borrow_mut())
        })
    }
    /// Executes one intersection as a CPU+GPU co-executed split.
    ///
    /// The long list is partitioned by docID range at a block boundary:
    /// the device takes blocks `[0, split_block)` (shipping only that
    /// slice's blocks over PCIe), the host takes `[split_block, nb)`, and
    /// the short (host-resident) intermediate is cut at the boundary
    /// docID so each lane sees exactly the short elements that can match
    /// its range. Both lanes run concurrently — the GPU lane on the
    /// device's streams, the CPU lane priced by the host cost model — and
    /// the partial results concatenate into exactly the unsplit answer
    /// (every match lands in exactly one lane, both lanes emit in docID
    /// order, and BM25 sees the full list's document frequency on both
    /// sides).
    ///
    /// The step costs `max(cpu_lane, gpu_lane)`: the lanes overlap, so
    /// step durations still sum to the query total. A GPU fault inside
    /// the split wastes only the device lane: the CPU lane's result is
    /// kept and only the device's range is re-run on the host (recorded
    /// as a [`StepOp::FaultRecovery`] step).
    fn split_intersect(
        &self,
        run: &mut Run,
        index: &InvertedIndex,
        i: usize,
        term: TermId,
        host: Intermediate,
        gpu_fraction: f64,
    ) -> Intermediate {
        let list = index.list(term);
        let nb = list.docs.num_blocks();
        let forced = self
            .scheduler
            .split
            .as_ref()
            .is_some_and(|s| s.forced_fraction.is_some());
        let fraction = if forced {
            // Forced fractions (tests, the static-grid sweep) are taken
            // literally — no adaptive refinement.
            gpu_fraction.clamp(0.0, 1.0)
        } else {
            self.balancer.borrow().refine(gpu_fraction)
        };
        let split_block = ((fraction * nb as f64).round() as usize).min(nb);
        let boundary = if split_block < nb {
            list.docs.skips[split_block].first_docid
        } else {
            u32::MAX
        };
        let cut = host.docids.partition_point(|&d| d < boundary);
        let t0 = self.device.now();

        // GPU lane: blocks [0, split_block) against the short prefix.
        // Skipped when its range cannot match anything (an empty lane) or
        // the device is disabled for this query.
        let mut gpu_lane = VirtualNanos::ZERO;
        let mut gpu_wasted = VirtualNanos::ZERO;
        let mut gpu_part: Option<Intermediate> = None;
        let run_gpu = split_block > 0 && cut > 0 && !run.gpu_disabled;
        if run_gpu {
            let start = self.device.now();
            let attempt = self.try_gpu(run, || {
                let score_bits: Vec<u32> = host.scores[..cut].iter().map(|s| s.to_bits()).collect();
                let [docids, scores] = self
                    .device
                    .htod_packed_n([&host.docids[..cut], &score_bits])?;
                let dev_short = DeviceIntermediate {
                    len: cut,
                    docids,
                    scores: scores.cast::<f32>(),
                };
                // The range upload bypasses the list cache (a slice is
                // useless to other queries) and is freed before the lane
                // returns, fault or not.
                let postings = match self.gpu.upload_range(index, term, 0, split_block) {
                    Ok(p) => p,
                    Err(e) => {
                        dev_short.free(self.device);
                        return Err(e);
                    }
                };
                let out = self.gpu.intersect_step(
                    &dev_short,
                    &postings,
                    index.block_len(),
                    GpuStrategy::Auto,
                );
                postings.free(self.device);
                dev_short.free(self.device);
                let out = out?;
                let drained = self.gpu.download(&out);
                out.free(self.device);
                drained
            });
            match attempt {
                Ok(part) => {
                    self.device.stream_sync(StreamKind::Compute);
                    gpu_lane = self.device.now() - start;
                    gpu_part = Some(part);
                }
                Err(_) => {
                    gpu_wasted = self.device.now() - start;
                }
            }
        }

        // CPU lane: blocks [split_block, nb) against the short suffix,
        // concurrent with the device lane on the host's own core.
        let mut w = WorkCounters::default();
        let cpu_part = if cut < host.len() && split_block < nb {
            let tail = Intermediate {
                docids: host.docids[cut..].to_vec(),
                scores: host.scores[cut..].to_vec(),
            };
            Some(self.cpu.intersect_step_range(
                index,
                &tail,
                term,
                split_block..nb,
                &mut w,
                &mut self.scratch.borrow_mut(),
            ))
        } else {
            None
        };
        let cpu_lane = self.cpu.model.time(&w);
        self.record_cpu_work(&w);

        // An abandoned device lane is re-run on the host — only its
        // range; the CPU lane's work is kept.
        let gpu_failed = run_gpu && gpu_part.is_none();
        let mut recovery_time = VirtualNanos::ZERO;
        if gpu_failed {
            let head = Intermediate {
                docids: host.docids[..cut].to_vec(),
                scores: host.scores[..cut].to_vec(),
            };
            let mut wr = WorkCounters::default();
            let rerun = self.cpu.intersect_step_range(
                index,
                &head,
                term,
                0..split_block,
                &mut wr,
                &mut self.scratch.borrow_mut(),
            );
            recovery_time = self.cpu.model.time(&wr);
            self.record_cpu_work(&wr);
            gpu_part = Some(rerun);
        }

        // Concatenate: the lanes cover disjoint, ordered docID ranges.
        let mut out = gpu_part.unwrap_or_else(|| Intermediate {
            docids: Vec::new(),
            scores: Vec::new(),
        });
        if let Some(mut tail) = cpu_part {
            out.docids.append(&mut tail.docids);
            out.scores.append(&mut tail.scores);
        }

        let gpu_busy = if gpu_failed { gpu_wasted } else { gpu_lane };
        let step_time = if cpu_lane > gpu_busy {
            cpu_lane
        } else {
            gpu_busy
        };
        self.push_step(
            run,
            StepOp::SplitIntersect {
                term: i + 1,
                cpu_lane,
                gpu_lane: gpu_busy,
            },
            if run_gpu { Proc::Gpu } else { Proc::Cpu },
            step_time,
            out.len(),
        );
        if gpu_failed {
            self.push_recovery_step(run, recovery_time, out.len());
        }

        // Feedback and observability. The balancer only learns from real
        // two-lane splits (zero lanes carry no signal; forced fractions
        // must stay reproducible).
        if !forced {
            self.balancer
                .borrow_mut()
                .observe(cpu_lane.as_nanos(), gpu_lane.as_nanos());
        }
        self.telemetry
            .counter_add("griffin_coexec_split_ops_total", 1);
        self.telemetry.with(|r| {
            r.registry.observe(
                "griffin_coexec_fraction_pct",
                (fraction * 100.0).round() as u64,
            );
        });
        if cpu_lane > VirtualNanos::ZERO && gpu_lane > VirtualNanos::ZERO {
            self.telemetry.gauge_set(
                "griffin_coexec_lane_imbalance",
                cpu_lane.as_nanos() as f64 / gpu_lane.as_nanos() as f64,
            );
        }
        if cpu_lane > VirtualNanos::ZERO {
            self.telemetry.record(|r| TraceEvent::CpuLane {
                query: r.current_query(),
                op: "split_intersect",
                start: t0,
                duration: cpu_lane,
            });
        }
        out
    }

    /// One chain operator under [`ExecMode::Hybrid`]: the per-step
    /// scheduler (paper Fig. 1(d)). Plans the terms by document
    /// frequency, then decides each pairwise intersection's processor
    /// (with migration, split co-execution, prefetch, and fault
    /// recovery), and always returns the intermediate host-resident —
    /// whatever follows the chain runs on the CPU (Fig. 7).
    fn hybrid_chain(&self, index: &InvertedIndex, terms: &[TermId], run: &mut Run) -> Intermediate {
        let planned = self.cpu.plan(index, terms);
        let Some((&first, rest)) = planned.split_first() else {
            return Intermediate::default();
        };

        // Initial placement: decide on the first pairwise ratio (or the
        // lone list's home if the query has a single term).
        let first_len = index.doc_freq(first);
        let initial = match rest.first() {
            Some(&second) => {
                let d = self.scheduler.decide_traced_resident(
                    first_len,
                    index.doc_freq(second),
                    Proc::Cpu,
                    self.residency(second),
                );
                self.record_decision(&d);
                // A split keeps its intermediate host-resident, so its
                // residency view places the init on the CPU.
                d.chosen.proc()
            }
            None => Proc::Cpu,
        };

        let mut inter: Inter = match initial {
            Proc::Gpu => {
                let start = self.device.now();
                let attempt = self.try_gpu(run, || {
                    let postings = self.gpu.upload(index, first)?;
                    let dev = self.gpu.init_intermediate(&postings);
                    self.gpu.release(postings);
                    dev
                });
                match attempt {
                    Ok(dev_inter) => {
                        // Pipeline: ship the next list on the copy stream
                        // while the init kernels run, if the scheduler
                        // will keep that operation on the device.
                        if let Some(&second) = rest.first() {
                            // The prediction mirrors the next iteration's
                            // real (residency-aware) decision.
                            let d = self.scheduler.decide_traced_resident(
                                dev_inter.len,
                                index.doc_freq(second),
                                Proc::Gpu,
                                self.residency(second),
                            );
                            if d.chosen.proc() == Proc::Gpu {
                                self.gpu.prefetch(index, second);
                            }
                        }
                        // End the span at a sync point so its duration
                        // covers the kernels this step scheduled.
                        self.device.stream_sync(StreamKind::Compute);
                        let t_up = self.device.now() - start;
                        self.push_step(run, StepOp::Init, Proc::Gpu, t_up, dev_inter.len);
                        Inter::Device(dev_inter)
                    }
                    Err(_) => {
                        // Nothing materialized yet: the recovery is just
                        // the wasted attempts plus a CPU init.
                        let wasted = self.device.now() - start;
                        let (host, t_rec) = self.salvage(run, index, &planned, 0, None);
                        self.push_recovery_step(run, wasted + t_rec, host.len());
                        Inter::Host(host)
                    }
                }
            }
            Proc::Cpu => Inter::Host(self.host_op(run, StepOp::Init, |w| {
                self.cpu.init_intermediate(index, first, w)
            })),
        };

        for (i, &term) in rest.iter().enumerate() {
            if inter.len() == 0 {
                break;
            }
            let long_len = index.doc_freq(term);
            let decision = if run.gpu_disabled {
                Decision::Cpu
            } else {
                let d = self.scheduler.decide_traced_resident(
                    inter.len(),
                    long_len,
                    inter.loc(),
                    self.residency(term),
                );
                self.record_decision(&d);
                d.chosen
            };

            // Co-execution: run this intersection on both processors at
            // once (no migration — splits only arise for host-resident
            // intermediates, and the result comes back host-resident).
            if let Decision::Split { gpu_fraction } = decision {
                let Inter::Host(host) = inter else {
                    unreachable!("split decisions require a host-resident intermediate")
                };
                let out = self.split_intersect(run, index, i, term, host, gpu_fraction);
                inter = Inter::Host(out);
                continue;
            }
            let mut target = decision.proc();

            // Migrate the intermediate if the scheduler moved the op.
            if target != inter.loc() {
                match (inter, target) {
                    (Inter::Host(h), Proc::Gpu) => {
                        let start = self.device.now();
                        let shipped = self.try_gpu(run, || {
                            let score_bits: Vec<u32> =
                                h.scores.iter().map(|s| s.to_bits()).collect();
                            let [docids, scores] =
                                self.device.htod_packed_n([&h.docids, &score_bits])?;
                            Ok(DeviceIntermediate {
                                len: h.docids.len(),
                                docids,
                                scores: scores.cast::<f32>(),
                            })
                        });
                        // The upload ran on the copy stream; close the
                        // span on it so the migration is charged here and
                        // a later download sees the transfer retired.
                        if shipped.is_ok() {
                            self.device.stream_sync(StreamKind::Copy);
                        }
                        let t = self.device.now() - start;
                        match shipped {
                            Ok(dev) => {
                                self.push_step(run, StepOp::Migrate, target, t, dev.len);
                                inter = Inter::Device(dev);
                            }
                            Err(_) => {
                                // The intermediate never left the host:
                                // stay there and run the op on the CPU.
                                self.push_recovery_step(run, t, h.len());
                                inter = Inter::Host(h);
                                target = Proc::Cpu;
                            }
                        }
                    }
                    (Inter::Device(dev), Proc::Cpu) => {
                        let host = self.migrate_home(run, index, &planned, i, dev);
                        inter = Inter::Host(host);
                    }
                    (other, _) => inter = other,
                }
            }

            let (next, t, ran_on) = match (inter, target) {
                (Inter::Device(dev), Proc::Gpu) => {
                    let start = self.device.now();
                    let attempt = self.try_gpu(run, || {
                        let postings = self.gpu.upload(index, term)?;
                        let out = self.gpu.intersect_step(
                            &dev,
                            &postings,
                            index.block_len(),
                            GpuStrategy::Auto,
                        );
                        self.gpu.release(postings);
                        out
                    });
                    match attempt {
                        Ok(out) => {
                            dev.free(self.device);
                            // Pipeline: prefetch the term after this one
                            // while this step's kernels run, if the
                            // scheduler will keep it on the device. The
                            // prediction uses the same inputs as the next
                            // iteration's real decision.
                            if let Some(&next_term) = rest.get(i + 1) {
                                if out.len > 0 {
                                    let d = self.scheduler.decide_traced_resident(
                                        out.len,
                                        index.doc_freq(next_term),
                                        Proc::Gpu,
                                        self.residency(next_term),
                                    );
                                    if d.chosen.proc() == Proc::Gpu {
                                        self.gpu.prefetch(index, next_term);
                                    }
                                }
                            }
                            self.device.stream_sync(StreamKind::Compute);
                            (Inter::Device(out), self.device.now() - start, Proc::Gpu)
                        }
                        Err(_) => {
                            // Abandon the GPU lane: drain (or re-run) the
                            // pre-step intermediate, then run this
                            // intersection on the CPU.
                            let wasted = self.device.now() - start;
                            let (host, t_rec) = self.salvage(run, index, &planned, i, Some(dev));
                            self.push_recovery_step(run, wasted + t_rec, host.len());
                            let mut w = WorkCounters::default();
                            let out = self.cpu.intersect_step_with(
                                index,
                                &host,
                                term,
                                Strategy::Auto,
                                &mut w,
                                &mut self.scratch.borrow_mut(),
                            );
                            self.record_cpu_work(&w);
                            (Inter::Host(out), self.cpu.model.time(&w), Proc::Cpu)
                        }
                    }
                }
                (Inter::Host(host), Proc::Cpu) => {
                    let mut w = WorkCounters::default();
                    let out = self.cpu.intersect_step_with(
                        index,
                        &host,
                        term,
                        Strategy::Auto,
                        &mut w,
                        &mut self.scratch.borrow_mut(),
                    );
                    self.record_cpu_work(&w);
                    (Inter::Host(out), self.cpu.model.time(&w), Proc::Cpu)
                }
                _ => unreachable!("intermediate was just migrated to the target"),
            };
            inter = next;
            self.push_step(run, StepOp::Intersect(i + 1), ran_on, t, inter.len());
        }

        // A prefetch predicted for a step that never ran on the device
        // (empty intermediate, fault migration) is returned to the list
        // cache's custody; its transfer already retires in the background
        // on the copy stream.
        self.gpu.drain_prefetch();

        // The intermediate comes home: whatever follows the chain —
        // set operations, phrase checks, or final ranking — runs on
        // the CPU (Fig. 7).
        match inter {
            Inter::Device(dev) => self.migrate_home(run, index, &planned, rest.len(), dev),
            Inter::Host(h) => h,
        }
    }

    /// Migrates a device intermediate to the host after `completed`
    /// intersections: a [`StepOp::Migrate`] step, or a
    /// [`StepOp::FaultRecovery`] step when the drain faulted and the
    /// prefix was re-run on the CPU instead.
    fn migrate_home(
        &self,
        run: &mut Run,
        index: &InvertedIndex,
        planned: &[TermId],
        completed: usize,
        dev: DeviceIntermediate,
    ) -> Intermediate {
        let (host, t) = self.salvage(run, index, planned, completed, Some(dev));
        if run.gpu_disabled {
            self.push_recovery_step(run, t, host.len());
        } else {
            self.push_step(run, StepOp::Migrate, Proc::Cpu, t, host.len());
        }
        host
    }
}

/// A fluent text search, created by [`Griffin::query`]. Collects the
/// same knobs as [`QueryRequest`] plus the parser's lenient flag, then
/// [`Search::run`] parses the text and executes the request.
#[must_use = "a Search does nothing until .run() is called"]
pub struct Search<'a, 'g> {
    griffin: &'a Griffin<'g>,
    index: &'a InvertedIndex,
    text: &'a str,
    k: usize,
    mode: ExecMode,
    deadline: Option<VirtualNanos>,
    pruned: bool,
    lenient: bool,
}

impl Search<'_, '_> {
    /// How many results to return (default 10).
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Which execution mode to run under (default [`ExecMode::Hybrid`]).
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// A serving deadline, carried for the scheduler's benefit.
    pub fn deadline(mut self, d: VirtualNanos) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Opt into block-max top-k pruning (conjunctions only; other
    /// query shapes ignore the flag and run unpruned).
    pub fn pruned(mut self, pruned: bool) -> Self {
        self.pruned = pruned;
        self
    }

    /// Forgive out-of-vocabulary words: the parser maps them to a
    /// match-nothing leaf instead of erroring. Syntax errors still
    /// error.
    pub fn lenient(mut self, lenient: bool) -> Self {
        self.lenient = lenient;
        self
    }

    /// Parses the text and runs the query.
    pub fn run(self) -> Result<GriffinOutput, QueryError> {
        let q = Query::parse(self.index, self.text, self.lenient)?;
        let mut req = QueryRequest::from_query(q)
            .k(self.k)
            .mode(self.mode)
            .pruned(self.pruned);
        if let Some(d) = self.deadline {
            req = req.deadline(d);
        }
        Ok(self.griffin.run(self.index, &req))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use griffin_codec::Codec;
    use griffin_gpu_sim::DeviceConfig;
    use griffin_index::InvertedIndex;
    use griffin_workload::{gen_docid_list, GapProfile};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_index(lens: &[usize], num_docs: u32) -> InvertedIndex {
        let mut rng = StdRng::seed_from_u64(11);
        let lists: Vec<Vec<u32>> = lens
            .iter()
            .map(|&len| gen_docid_list(&mut rng, len, num_docs, GapProfile::HeavyTailed))
            .collect();
        InvertedIndex::from_docid_lists(&lists, num_docs, Codec::EliasFano, 128)
    }

    fn terms(idx: &InvertedIndex, n: usize) -> Vec<TermId> {
        (0..n)
            .map(|i| idx.lookup(&format!("t{i}")).unwrap())
            .collect()
    }

    #[test]
    fn all_modes_return_identical_results() {
        let idx = test_index(&[3_000, 20_000, 60_000], 500_000);
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
        let q = terms(&idx, 3);

        let cpu = griffin.process_query(&idx, &q, 10, ExecMode::CpuOnly);
        let gpu_only = griffin.process_query(&idx, &q, 10, ExecMode::GpuOnly);
        let hybrid = griffin.process_query(&idx, &q, 10, ExecMode::Hybrid);

        let ids = |o: &GriffinOutput| o.topk.iter().map(|&(d, _)| d).collect::<Vec<_>>();
        assert_eq!(ids(&cpu), ids(&gpu_only));
        assert_eq!(ids(&cpu), ids(&hybrid));
        for ((_, a), (_, b)) in cpu.topk.iter().zip(&hybrid.topk) {
            assert!((a - b).abs() < 1e-5);
        }
        assert!(!cpu.topk.is_empty(), "test query should match something");
    }

    #[test]
    fn hybrid_trace_records_migration_when_ratio_flips() {
        // Comparable first pair (GPU) then a hugely longer list (CPU).
        let idx = test_index(&[10_000, 60_000, 1_500_000], 4_000_000);
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
        let q = terms(&idx, 3);
        let out = griffin.process_query(&idx, &q, 10, ExecMode::Hybrid);

        let procs: Vec<Proc> = out
            .steps
            .iter()
            .filter(|s| matches!(s.op, StepOp::Init | StepOp::Intersect(_)))
            .map(|s| s.proc)
            .collect();
        assert_eq!(
            procs.first(),
            Some(&Proc::Gpu),
            "starts on GPU: {:?}",
            out.steps
        );
        assert_eq!(
            procs.last(),
            Some(&Proc::Cpu),
            "finishes on CPU: {:?}",
            out.steps
        );
        assert!(
            out.steps.iter().any(|s| s.op == StepOp::Migrate),
            "expected a migration step"
        );
        // Migration time must be accounted.
        let migrate_time: VirtualNanos = out
            .steps
            .iter()
            .filter(|s| s.op == StepOp::Migrate)
            .map(|s| s.time)
            .sum();
        assert!(migrate_time.as_nanos() > 0);
    }

    #[test]
    fn device_memory_reclaimed_after_hybrid_query() {
        let idx = test_index(&[1_000, 5_000, 20_000], 200_000);
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
        let q = terms(&idx, 3);
        let _ = griffin.process_query(&idx, &q, 10, ExecMode::Hybrid);
        // Only the engine-owned state (cached hot lists) may remain; all
        // per-query buffers are gone after shutdown.
        griffin.gpu.shutdown();
        assert_eq!(gpu.mem_in_use(), 0);
    }

    #[test]
    fn single_term_query_runs_on_cpu() {
        let idx = test_index(&[5_000], 100_000);
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
        let q = terms(&idx, 1);
        let out = griffin.process_query(&idx, &q, 5, ExecMode::Hybrid);
        assert_eq!(out.topk.len(), 5);
        assert!(out.steps.iter().all(|s| s.proc == Proc::Cpu));
    }

    #[test]
    fn string_search_convenience() {
        let mut b = griffin_index::IndexBuilder::new(Codec::EliasFano);
        b.add_text("rust gpu simulator");
        b.add_text("rust cpu engine");
        b.add_text("gpu engine rust");
        let idx = b.build();
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
        let hits = griffin
            .search(&idx, "rust engine", 10, ExecMode::Hybrid)
            .expect("all words known");
        let mut docs: Vec<u32> = hits.topk.iter().map(|&(d, _)| d).collect();
        docs.sort_unstable();
        assert_eq!(docs, vec![1, 2]);
        // Unknown words are an error from `search`...
        let err = griffin
            .search(&idx, "rust nonexistent", 10, ExecMode::Hybrid)
            .unwrap_err();
        assert_eq!(err, QueryError::UnknownTerm("nonexistent".into()));
        // ...and an empty result from the lenient builder.
        let none = griffin
            .query(&idx, "rust nonexistent")
            .lenient(true)
            .run()
            .expect("lenient parses");
        assert!(none.topk.is_empty());
        assert_eq!(none.time, VirtualNanos::ZERO);
        // The full grammar runs too: OR, negation, phrases.
        let planned = griffin
            .search(&idx, "\"rust gpu\" OR engine -cpu", 10, ExecMode::Hybrid)
            .expect("grammar parses");
        let mut docs: Vec<u32> = planned.topk.iter().map(|&(d, _)| d).collect();
        docs.sort_unstable();
        assert_eq!(docs, vec![0, 2]);
    }

    #[test]
    fn run_accepts_a_query_request() {
        let idx = test_index(&[2_000, 30_000], 500_000);
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
        // Disable the device list cache so the two runs below see
        // identical transfer costs.
        griffin.gpu.set_cache_budget(0);
        let q = terms(&idx, 2);
        let req = QueryRequest::new(q.clone())
            .k(10)
            .mode(ExecMode::Hybrid)
            .deadline(VirtualNanos::from_millis(100));
        let via_request = griffin.run(&idx, &req);
        let via_shim = griffin.process_query(&idx, &q, 10, ExecMode::Hybrid);
        assert_eq!(via_request.topk, via_shim.topk);
        assert_eq!(via_request.time, via_shim.time);
    }

    #[test]
    fn non_hybrid_modes_trace_coarse_steps_that_sum_to_total() {
        let idx = test_index(&[3_000, 20_000, 60_000], 500_000);
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
        let q = terms(&idx, 3);

        let cpu = griffin.process_query(&idx, &q, 10, ExecMode::CpuOnly);
        assert_eq!(cpu.steps.len(), 1);
        assert_eq!(cpu.steps[0].op, StepOp::Exec);
        assert_eq!(cpu.steps[0].proc, Proc::Cpu);
        assert_eq!(cpu.steps[0].time, cpu.time);

        let gpu_only = griffin.process_query(&idx, &q, 10, ExecMode::GpuOnly);
        assert_eq!(gpu_only.steps.len(), 2);
        assert_eq!(gpu_only.steps[0].proc, Proc::Gpu);
        assert_eq!(gpu_only.steps[1].op, StepOp::TopK);
        assert_eq!(gpu_only.steps[1].proc, Proc::Cpu);
        let sum: VirtualNanos = gpu_only.steps.iter().map(|s| s.time).sum();
        assert_eq!(sum, gpu_only.time);
    }

    #[test]
    fn empty_query() {
        let idx = test_index(&[1_000], 50_000);
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
        let out = griffin.process_query(&idx, &[], 10, ExecMode::Hybrid);
        assert!(out.topk.is_empty());
        assert_eq!(out.time, VirtualNanos::ZERO);
    }

    #[test]
    fn hybrid_survives_sticky_device_loss_at_any_point() {
        use griffin_gpu_sim::FaultPlan;
        let idx = test_index(&[3_000, 20_000, 60_000], 500_000);
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let mut griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
        // Pin the floor: this test is about the fault schedule, and the
        // pinned op indices assume these small lists reach the device.
        griffin.scheduler.min_gpu_work = 256;
        let q = terms(&idx, 3);
        let baseline = griffin.process_query(&idx, &q, 10, ExecMode::CpuOnly);
        let ids = |o: &GriffinOutput| o.topk.iter().map(|&(d, _)| d).collect::<Vec<_>>();

        for at in [0u64, 1, 3, 9, 25] {
            gpu.set_fault_plan(Some(FaultPlan::seeded(7).lose_device_at(at)));
            let out = griffin.process_query(&idx, &q, 10, ExecMode::Hybrid);
            assert_eq!(ids(&baseline), ids(&out), "loss at op {at}");
            assert!(out.gpu_faults > 0, "loss at op {at} should be observed");
            assert!(
                out.steps.iter().any(|s| s.op == StepOp::FaultRecovery),
                "loss at op {at} should leave a recovery step"
            );
            let sum: VirtualNanos = out.steps.iter().map(|s| s.time).sum();
            assert_eq!(sum, out.time, "steps must sum to total under faults");
            gpu.set_fault_plan(None);
        }
        griffin.gpu.shutdown();
        assert_eq!(gpu.mem_in_use(), 0, "faulted queries must not leak");
    }

    #[test]
    fn transient_fault_is_retried_in_place() {
        use griffin_gpu_sim::{FaultKind, FaultPlan};
        let idx = test_index(&[3_000, 20_000], 500_000);
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let mut griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
        // Pin the floor so the pinned fault op index lands on device work.
        griffin.scheduler.min_gpu_work = 256;
        let q = terms(&idx, 2);
        let baseline = griffin.process_query(&idx, &q, 10, ExecMode::CpuOnly);

        gpu.set_fault_plan(Some(
            FaultPlan::seeded(7).fail_at(2, FaultKind::KernelLaunchFailed),
        ));
        let out = griffin.process_query(&idx, &q, 10, ExecMode::Hybrid);
        gpu.set_fault_plan(None);

        assert_eq!(out.gpu_faults, 1, "exactly the pinned fault fires");
        assert_eq!(
            baseline.topk.iter().map(|&(d, _)| d).collect::<Vec<_>>(),
            out.topk.iter().map(|&(d, _)| d).collect::<Vec<_>>()
        );
        // A successful retry keeps the query on the GPU: no recovery step.
        assert!(out.steps.iter().all(|s| s.op != StepOp::FaultRecovery));
        let sum: VirtualNanos = out.steps.iter().map(|s| s.time).sum();
        assert_eq!(sum, out.time);
    }

    #[test]
    fn gpu_only_falls_back_to_cpu_on_device_loss() {
        use griffin_gpu_sim::FaultPlan;
        let idx = test_index(&[3_000, 20_000], 500_000);
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
        let q = terms(&idx, 2);
        let baseline = griffin.process_query(&idx, &q, 10, ExecMode::CpuOnly);

        gpu.set_fault_plan(Some(FaultPlan::seeded(7).lose_device_at(0)));
        let out = griffin.process_query(&idx, &q, 10, ExecMode::GpuOnly);
        gpu.set_fault_plan(None);

        assert_eq!(
            baseline.topk.iter().map(|&(d, _)| d).collect::<Vec<_>>(),
            out.topk.iter().map(|&(d, _)| d).collect::<Vec<_>>()
        );
        assert!(out.gpu_faults > 0);
        assert_eq!(out.steps[0].op, StepOp::FaultRecovery);
        let sum: VirtualNanos = out.steps.iter().map(|s| s.time).sum();
        assert_eq!(sum, out.time);
    }

    #[test]
    fn fault_free_run_reports_zero_faults() {
        let idx = test_index(&[2_000, 30_000], 500_000);
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
        let q = terms(&idx, 2);
        for mode in [ExecMode::CpuOnly, ExecMode::GpuOnly, ExecMode::Hybrid] {
            let out = griffin.process_query(&idx, &q, 10, mode);
            assert_eq!(out.gpu_faults, 0);
            assert!(out.steps.iter().all(|s| s.op != StepOp::FaultRecovery));
        }
    }

    /// Scheduler decisions recorded for one request: the registry
    /// counter summed over processors, and the `SchedDecision` events.
    fn decisions_for(idx: &InvertedIndex, req: &QueryRequest) -> (u64, usize) {
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let mut griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
        // Pin the floor so the small test lists can reach the device.
        griffin.scheduler.min_gpu_work = 1;
        let telemetry = Telemetry::enabled();
        griffin.set_telemetry(telemetry.clone());
        let out = griffin.run(idx, req);
        assert!(!out.topk.is_empty(), "test query should match something");
        let r = telemetry.recorder().expect("enabled");
        let counted = ["cpu", "gpu", "split"]
            .iter()
            .map(|p| {
                r.registry
                    .counter(&format!("griffin_sched_decisions_total{{proc=\"{p}\"}}"))
            })
            .sum();
        let events = r
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::SchedDecision { .. }))
            .count();
        (counted, events)
    }

    #[test]
    fn only_executed_scheduler_decisions_are_recorded() {
        let mut b = griffin_index::IndexBuilder::new(Codec::EliasFano);
        for i in 0..400 {
            let mut words = vec!["alpha"];
            if i % 2 == 0 {
                words.push("beta");
            }
            if i % 3 == 0 {
                words.push("gamma");
            }
            if i % 7 == 0 {
                words.push("delta");
            }
            b.add_text(&words.join(" "));
        }
        let idx = b.build();
        let parsed = |text: &str, mode: ExecMode| {
            QueryRequest::from_query(Query::parse(&idx, text, false).expect("parses")).mode(mode)
        };
        // Neither single-processor mode consults the scheduler: no
        // placement is decided, so none may be logged.
        for mode in [ExecMode::CpuOnly, ExecMode::GpuOnly] {
            let req = parsed("\"alpha beta\" OR gamma -delta", mode);
            assert_eq!(decisions_for(&idx, &req), (0, 0), "{mode:?}");
        }
        // Hybrid logs exactly the chain's per-step decisions, however the
        // conjunction was built...
        let terms: Vec<TermId> = ["alpha", "beta", "gamma"]
            .iter()
            .map(|w| idx.lookup(w).expect("known word"))
            .collect();
        let built = decisions_for(&idx, &QueryRequest::new(terms));
        assert_eq!(built.0, built.1 as u64);
        assert!(built.0 > 0, "a three-term chain is scheduled");
        assert_eq!(
            built,
            decisions_for(&idx, &parsed("alpha beta gamma", ExecMode::Hybrid))
        );
        // ...and the same chain inside a mixed query adds no decision of
        // its own (the subtracted single term has no pairwise step).
        assert_eq!(
            built,
            decisions_for(&idx, &parsed("alpha beta gamma -delta", ExecMode::Hybrid))
        );
    }

    #[test]
    fn gpu_only_chain_closes_its_window_when_it_empties_early() {
        // t0 and t1 are disjoint, so the chain t0 -> t1 -> t2 empties
        // after its first intersection while the long t2's prefetch is
        // still crossing PCIe.
        let evens: Vec<u32> = (0..300).map(|i| i * 2).collect();
        let odds: Vec<u32> = (0..600).map(|i| i * 2 + 1).collect();
        let long: Vec<u32> = (0..1_000_000).map(|i| i * 7).collect();
        let other: Vec<u32> = (0..200).map(|i| i * 5).collect();
        let lists = [evens, odds, long, other];
        let idx = InvertedIndex::from_docid_lists(&lists, 8_000_000, Codec::EliasFano, 128);
        for text in ["t0 t1 t2", "t3 OR (t0 t1 t2)"] {
            let gpu = Gpu::new(DeviceConfig::test_tiny());
            let griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
            // No list stays resident, so every device byte is per-query.
            griffin.gpu.set_cache_budget(0);
            // A caller-held async window: leaving it must not be what
            // retires the query's own device work.
            gpu.set_async(true);
            let start = gpu.now();
            let out = griffin
                .search(&idx, text, 10, ExecMode::GpuOnly)
                .expect("parses");
            let end = gpu.now();
            gpu.sync();
            assert_eq!(gpu.now(), end, "{text}: work left in flight after run");
            let on_device: VirtualNanos = out
                .steps
                .iter()
                .filter(|s| s.proc == Proc::Gpu)
                .map(|s| s.time)
                .sum();
            assert_eq!(on_device, end - start, "{text}: device span not charged");
            let sum: VirtualNanos = out.steps.iter().map(|s| s.time).sum();
            assert_eq!(sum, out.time, "{text}");
            assert_eq!(gpu.mem_in_use(), 0, "{text}: device memory leaked");
        }
    }

    #[test]
    fn times_are_positive_and_steps_sum_to_total() {
        let idx = test_index(&[2_000, 30_000], 500_000);
        let gpu = Gpu::new(DeviceConfig::test_tiny());
        let griffin = Griffin::new(&gpu, idx.meta(), idx.block_len());
        let q = terms(&idx, 2);
        let out = griffin.process_query(&idx, &q, 10, ExecMode::Hybrid);
        let step_sum: VirtualNanos = out.steps.iter().map(|s| s.time).sum();
        assert_eq!(step_sum, out.time);
        assert!(out.time.as_nanos() > 0);
    }
}
