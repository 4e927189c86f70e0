//! Per-layer metrics: the list `BENCHMARK.json` declares, and the ones
//! read off the program's own telemetry in the traced pass.

use std::collections::BTreeMap;

use griffin_telemetry::{Telemetry, TraceEvent};

use crate::Layers;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    #[allow(dead_code)] // checked against BENCHMARK.json by the tests
    pub better: &'static str,
    /// What the value is counted against, printed beside it.
    pub base: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    base: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        base,
    }
}

/// Kernel families of `griffin-gpu`, by the prefix of the kernel name.
pub const KERNEL_FAMILIES: [&str; 7] = [
    "para_ef",
    "radix_sort",
    "engine",
    "bucket_select",
    "gpu_binary",
    "mergepath",
    "scan",
];

/// Every per-layer metric, in `BENCHMARK.json` order. A workload that
/// never reaches a layer reports 0 for it.
pub const PER_LAYER: &[Metric] = &[
    m("index.build_s", "s", "lower", "median of the run's set-ups"),
    m(
        "index.bits_per_posting",
        "bits",
        "lower",
        "index bits per posting",
    ),
    m(
        "codec.decode_host_ns_per_posting",
        "ns",
        "lower",
        "per decompressed posting",
    ),
    m(
        "cpu-engine.host_ms_per_query",
        "ms",
        "lower",
        "per CpuOnly request on the isolated engine",
    ),
    m(
        "cpu-engine.work.ef_elements",
        "count",
        "lower",
        "per request",
    ),
    m(
        "cpu-engine.work.blocks_decoded",
        "count",
        "lower",
        "per request",
    ),
    m(
        "cpu-engine.work.skip_probes",
        "count",
        "lower",
        "per request",
    ),
    m(
        "cpu-engine.work.merge_steps",
        "count",
        "lower",
        "per request",
    ),
    m("cpu-engine.work.scored", "count", "lower", "per request"),
    m(
        "cpu-engine.prune_skipped_ratio",
        "ratio",
        "higher",
        "of the tf blocks the unpruned scorer decodes",
    ),
    m(
        "cpu-engine.simd_share",
        "ratio",
        "higher",
        "of CPU kernel dispatches",
    ),
    m(
        "cpu-engine.host_cache_hit_ratio",
        "ratio",
        "higher",
        "of host decoded-list cache lookups",
    ),
    m(
        "griffin-gpu.launches_per_query",
        "count",
        "lower",
        "per request",
    ),
    m(
        "griffin-gpu.kernel_virt_ns.para_ef",
        "ns",
        "lower",
        "per request",
    ),
    m(
        "griffin-gpu.kernel_virt_ns.radix_sort",
        "ns",
        "lower",
        "per request",
    ),
    m(
        "griffin-gpu.kernel_virt_ns.engine",
        "ns",
        "lower",
        "per request",
    ),
    m(
        "griffin-gpu.kernel_virt_ns.bucket_select",
        "ns",
        "lower",
        "per request",
    ),
    m(
        "griffin-gpu.kernel_virt_ns.gpu_binary",
        "ns",
        "lower",
        "per request",
    ),
    m(
        "griffin-gpu.kernel_virt_ns.mergepath",
        "ns",
        "lower",
        "per request",
    ),
    m(
        "griffin-gpu.kernel_virt_ns.scan",
        "ns",
        "lower",
        "per request",
    ),
    m(
        "griffin-gpu.pcie_bytes_per_query",
        "B",
        "lower",
        "per request",
    ),
    m(
        "griffin-gpu.pcie_virt_ns_per_query",
        "ns",
        "lower",
        "per request",
    ),
    m(
        "griffin-gpu.device_cache_hit_ratio",
        "ratio",
        "higher",
        "of device list uploads",
    ),
    m(
        "gpu-sim.host_ms_per_query",
        "ms",
        "lower",
        "per GpuOnly request on the isolated device",
    ),
    m("gpu-sim.warps_per_query", "count", "lower", "per request"),
    m(
        "gpu-sim.host_ns_per_warp",
        "ns",
        "lower",
        "per warp of the isolated GpuOnly runs",
    ),
    m(
        "gpu-sim.virt_per_host",
        "ratio",
        "higher",
        "virtual ns per host ns of the isolated GpuOnly runs",
    ),
    m(
        "gpu-sim.gmem_txn_per_access",
        "ratio",
        "lower",
        "per global-memory access",
    ),
    m(
        "core.virt_share.decode",
        "ratio",
        "lower",
        "of engine virtual time",
    ),
    m(
        "core.virt_share.intersect",
        "ratio",
        "lower",
        "of engine virtual time",
    ),
    m(
        "core.virt_share.split",
        "ratio",
        "lower",
        "of engine virtual time",
    ),
    m(
        "core.virt_share.transfer",
        "ratio",
        "lower",
        "of engine virtual time",
    ),
    m(
        "core.virt_share.rank",
        "ratio",
        "lower",
        "of engine virtual time",
    ),
    m(
        "core.virt_share.exec",
        "ratio",
        "lower",
        "of engine virtual time",
    ),
    m(
        "core.virt_share.recovery",
        "ratio",
        "lower",
        "of engine virtual time",
    ),
    m(
        "core.virt_share.setops",
        "ratio",
        "lower",
        "of engine virtual time",
    ),
    m(
        "core.step_sum_mismatches",
        "count",
        "lower",
        "engine queries whose steps do not sum to the total",
    ),
    m("core.steps_per_query", "count", "lower", "per request"),
    m("core.sched_decisions.cpu", "count", "lower", "per request"),
    m("core.sched_decisions.gpu", "count", "lower", "per request"),
    m(
        "core.sched_decisions.split",
        "count",
        "lower",
        "per request",
    ),
    m(
        "core.sched_cache_flips",
        "count",
        "higher",
        "in the traced pass",
    ),
    m(
        "core.coexec_lane_imbalance",
        "ratio",
        "lower",
        "cpu lane over gpu lane of the last split",
    ),
    m(
        "core.sched_host_ns_per_decision",
        "ns",
        "lower",
        "per Scheduler::decide_traced call",
    ),
    m(
        "core.parse_host_us_per_query",
        "us",
        "lower",
        "per Query::parse call",
    ),
    m(
        "core.rescache_hit_ratio",
        "ratio",
        "higher",
        "of result-cache lookups",
    ),
    m(
        "core.rescache_evictions",
        "count",
        "lower",
        "in the traced pass",
    ),
    m(
        "core.host_ms_p50",
        "ms",
        "lower",
        "median per-request host time of the untraced pass",
    ),
    m(
        "core.virt_ms_p50",
        "ms",
        "lower",
        "median end-to-end virtual latency",
    ),
    m(
        "core.host_ms_tail",
        "ms",
        "lower",
        "tail percentile of per-request host time",
    ),
    m(
        "server.queue_wait_ms_p50",
        "ms",
        "lower",
        "latency minus unloaded service at rate_mid",
    ),
    m(
        "server.queue_wait_ms_p99",
        "ms",
        "lower",
        "latency minus unloaded service at rate_mid",
    ),
    m(
        "server.batch_occupancy_mean",
        "count",
        "higher",
        "stages per GPU launch at rate_mid",
    ),
    m(
        "server.gpu_queue_depth_max",
        "count",
        "lower",
        "at rate_mid",
    ),
    m(
        "server.shed_ratio",
        "ratio",
        "lower",
        "of requests at rate_hi",
    ),
    m(
        "server.degraded_ratio",
        "ratio",
        "lower",
        "of requests at rate_hi",
    ),
    m(
        "server.coalesced_ratio",
        "ratio",
        "higher",
        "of requests at rate_hi",
    ),
    m(
        "server.served_stale_ratio",
        "ratio",
        "lower",
        "of requests at rate_hi",
    ),
    m(
        "server.plan_host_ms",
        "ms",
        "lower",
        "planning the whole stream",
    ),
    m(
        "server.replay_host_ms",
        "ms",
        "lower",
        "one replay at rate_mid",
    ),
    m(
        "server.virt_ms_p99.rate_lo",
        "ms",
        "lower",
        "p99 from due arrival at 200 req/s",
    ),
    m(
        "server.virt_ms_p99.rate_mid",
        "ms",
        "lower",
        "p99 from due arrival at 400 req/s",
    ),
    m(
        "server.virt_ms_p99.rate_hi",
        "ms",
        "lower",
        "p99 from due arrival at 1600 req/s",
    ),
    m(
        "server.max_rate_qps",
        "1/s",
        "higher",
        "highest ladder rung with p99 under 25 ms and no growing backlog",
    ),
    m(
        "telemetry.overhead_ratio",
        "ratio",
        "lower",
        "traced over untraced pass host time, minus 1",
    ),
];

/// Step op (as the engine's trace labels it) → virt-share bucket.
fn share_bucket(op: &str) -> &'static str {
    match op {
        "init" => "core.virt_share.decode",
        "intersect" => "core.virt_share.intersect",
        "split_intersect" => "core.virt_share.split",
        "migrate" => "core.virt_share.transfer",
        "topk" => "core.virt_share.rank",
        "exec" => "core.virt_share.exec",
        "fault_recovery" => "core.virt_share.recovery",
        _ => "core.virt_share.setops",
    }
}

/// Sums every series of a metric in Prometheus text, optionally only
/// the series whose labels contain `label`.
fn prom_sum(prom: &str, base: &str, label: Option<&str>) -> f64 {
    prom.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let name = series.split('{').next()?;
            (name == base && label.is_none_or(|lb| series.contains(lb)))
                .then(|| value.parse::<f64>().ok())
                .flatten()
        })
        .sum::<f64>()
        // An empty f64 sum is -0.0; report it as 0.
        + 0.0
}

/// Per-layer values from a traced pass's telemetry: step shares (and
/// the per-query check that steps sum to the total), GPU launches and
/// transfers, CPU work counters and scheduler decisions.
/// Per-query figures are per benchmark request (`requests`).
pub fn from_telemetry(t: &Telemetry, requests: usize) -> Layers {
    let mut l = Layers::new();
    let Some(rec) = t.recorder() else {
        return l;
    };
    let per = |v: f64| v / requests.max(1) as f64;

    // Step shares, query by query.
    let mut steps: BTreeMap<u64, (u64, BTreeMap<&'static str, u64>, u64)> = BTreeMap::new();
    let mut totals: BTreeMap<u64, u64> = BTreeMap::new();
    let mut kernels: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut launches, mut warps, mut pcie_bytes, mut pcie_ns) = (0u64, 0u64, 0u64, 0u64);
    for e in rec.events() {
        match e {
            TraceEvent::Step {
                query,
                op,
                duration,
                ..
            } => {
                let s = steps.entry(query).or_default();
                s.0 += duration.as_nanos();
                *s.1.entry(share_bucket(op)).or_default() += duration.as_nanos();
                s.2 += 1;
            }
            TraceEvent::QueryEnd { query, total, .. } => {
                totals.insert(query, total.as_nanos());
            }
            TraceEvent::KernelLaunch {
                name,
                duration,
                total_warps,
                ..
            } => {
                launches += 1;
                warps += total_warps;
                let family = KERNEL_FAMILIES
                    .iter()
                    .find(|f| name.split('.').next() == Some(f))
                    .copied()
                    .unwrap_or("engine");
                *kernels.entry(family).or_default() += duration.as_nanos() as f64;
            }
            TraceEvent::PcieTransfer {
                bytes, duration, ..
            } => {
                pcie_bytes += bytes;
                pcie_ns += duration.as_nanos();
            }
            _ => {}
        }
    }
    let mut mismatches = 0u64;
    let mut share: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut step_count = 0u64;
    let mut virt_total = 0u64;
    for (q, total) in &totals {
        let (sum, by, n) = steps.remove(q).unwrap_or_default();
        if sum != *total {
            mismatches += 1;
        }
        step_count += n;
        virt_total += total;
        for (k, v) in by {
            *share.entry(k).or_default() += v as f64;
        }
    }
    for (k, v) in share {
        l.insert(k, v / virt_total.max(1) as f64);
    }
    l.insert("core.step_sum_mismatches", mismatches as f64);
    l.insert("core.steps_per_query", per(step_count as f64));
    l.insert("griffin-gpu.launches_per_query", per(launches as f64));
    l.insert("gpu-sim.warps_per_query", per(warps as f64));
    for f in KERNEL_FAMILIES {
        let name = kernel_metric(f);
        l.insert(name, per(kernels.get(f).copied().unwrap_or(0.0)));
    }
    l.insert("griffin-gpu.pcie_bytes_per_query", per(pcie_bytes as f64));
    l.insert("griffin-gpu.pcie_virt_ns_per_query", per(pcie_ns as f64));

    let prom = t.metrics_prometheus().unwrap_or_default();
    for c in [
        "ef_elements",
        "blocks_decoded",
        "skip_probes",
        "merge_steps",
        "scored",
    ] {
        let v = prom_sum(&prom, "griffin_cpu_work_total", Some(&format!("\"{c}\"")));
        l.insert(work_metric(c), per(v));
    }
    let avx2 = prom_sum(&prom, "griffin_simd_dispatch_total", Some("\"avx2\""));
    let all = prom_sum(&prom, "griffin_simd_dispatch_total", None);
    l.insert(
        "cpu-engine.simd_share",
        if all > 0.0 { avx2 / all } else { 0.0 },
    );
    for (p, name) in [
        ("cpu", "core.sched_decisions.cpu"),
        ("gpu", "core.sched_decisions.gpu"),
        ("split", "core.sched_decisions.split"),
    ] {
        let v = prom_sum(
            &prom,
            "griffin_sched_decisions_total",
            Some(&format!("proc=\"{p}\"")),
        );
        l.insert(name, per(v));
    }
    l.insert(
        "core.sched_cache_flips",
        prom_sum(&prom, "griffin_sched_cache_flips_total", None),
    );
    l.insert(
        "core.coexec_lane_imbalance",
        prom_sum(&prom, "griffin_coexec_lane_imbalance", None),
    );
    let accesses = prom_sum(&prom, "griffin_gpu_gmem_accesses_total", None);
    let txns = prom_sum(&prom, "griffin_gpu_gmem_transactions_total", None);
    l.insert(
        "gpu-sim.gmem_txn_per_access",
        if accesses > 0.0 { txns / accesses } else { 0.0 },
    );
    l
}

/// `griffin-gpu.kernel_virt_ns.<family>` as a static name.
fn kernel_metric(family: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name.strip_prefix("griffin-gpu.kernel_virt_ns.") == Some(family))
        .expect("every kernel family has a metric")
        .name
}

/// `cpu-engine.work.<counter>` as a static name.
fn work_metric(counter: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name.strip_prefix("cpu-engine.work.") == Some(counter))
        .expect("every work counter has a metric")
        .name
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The list here and `BENCHMARK.json` name the same metrics, in the
    /// same order, with the same units.
    #[test]
    fn per_layer_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let section = text
            .split("\"per_layer\"")
            .nth(1)
            .expect("per_layer section");
        let mut names = Vec::new();
        for entry in section.split("{\"name\": \"").skip(1) {
            let name = entry.split('"').next().unwrap();
            let field = |key: &str| {
                entry
                    .split(&format!("\"{key}\": \""))
                    .nth(1)
                    .and_then(|u| u.split('"').next())
                    .unwrap()
                    .to_owned()
            };
            names.push((name.to_owned(), field("unit"), field("better")));
        }
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned(), m.better.to_owned()))
            .collect();
        assert_eq!(names, ours);
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn prom_sum_filters_by_name_and_label() {
        let prom = "# TYPE a counter\na{k=\"x\"} 2\na{k=\"y\"} 3\nab 7\n";
        assert_eq!(prom_sum(prom, "a", None), 5.0);
        assert_eq!(prom_sum(prom, "a", Some("\"y\"")), 3.0);
        assert_eq!(prom_sum(prom, "ab", None), 7.0);
    }
}
