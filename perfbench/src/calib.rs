//! Host speed reference for the gated host-time metrics.
//!
//! The machines this benchmark runs on are shared, and their speed drifts
//! by tens of percent over minutes: the same pass over the same inputs
//! has measured 16.4 and 18.9 s a minute apart in one process. A fixed
//! probe owned by the benchmark — a read-modify-write sweep over a buffer
//! larger than a core's private cache and a sort of a small array — is
//! run in short slices *between* requests all through each timed phase
//! ([`tick`]), and around each set-up ([`burst`]). `setup_s` and
//! `host_qps` are scaled by how fast the probe ran during that phase
//! against [`SLICE_REFERENCE_S`]. A program change moves the workload
//! and not the probe, so it still shows in full; a slower or busier host
//! moves both and cancels. The probe's own time is taken out of the
//! phase's wall time, and the raw figures stay in each run's notes.
//!
//! The mix was chosen by timing candidate probes inside the same passes:
//! when a pass of `boolean_text` ran 35–40% slow, the sweep and the sort
//! ran 20–35% slow, while a dependent integer chain and a pointer chase
//! moved by under 5%.

use std::cell::RefCell;
use std::time::{Duration, Instant};

/// The mean slice time on the host the benchmark was sized on (2-core
/// x86_64, AVX2). Only a unit: it sets the scale of the scaled metrics,
/// not their comparability.
pub const SLICE_REFERENCE_S: f64 = 0.0018;

/// Host time between slices while a phase runs (about 5% overhead).
const INTERVAL: Duration = Duration::from_millis(60);
/// 4 MB swept per slice: beyond a core's private cache, small beside
/// any workload's own memory.
const SWEEP: usize = 1 << 20;
/// Words sorted per slice.
const SORT: usize = 1 << 15;
/// Slices run before and after each set-up.
const BURST: usize = 16;

struct Probe {
    sweep: Vec<u32>,
    /// The same unsorted words every slice, so each sort does equal work.
    unsorted: Vec<u32>,
    scratch: Vec<u32>,
    last: Instant,
    slices: Vec<f64>,
    spent: Duration,
}

thread_local! {
    static PROBE: RefCell<Option<Probe>> = const { RefCell::new(None) };
}

/// The probe readings of one phase.
#[derive(Debug, Clone, Default)]
pub struct Reading {
    /// Seconds per slice.
    pub slices: Vec<f64>,
    /// Host time the slices took, to be taken out of the phase's time.
    pub spent_s: f64,
}

impl Reading {
    /// How much slower than the reference host the phase ran (above 1 on
    /// a slower or busier host).
    pub fn slowdown(&self) -> f64 {
        assert!(!self.slices.is_empty(), "no probe slice in the phase");
        self.slices.iter().sum::<f64>() / self.slices.len() as f64 / SLICE_REFERENCE_S
    }

    pub fn merge(mut self, other: Reading) -> Reading {
        self.slices.extend(other.slices);
        self.spent_s += other.spent_s;
        self
    }
}

fn with_probe<R>(f: impl FnOnce(&mut Probe) -> R) -> R {
    PROBE.with(|p| {
        let mut p = p.borrow_mut();
        let probe = p.get_or_insert_with(|| {
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            let unsorted = (0..SORT)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u32
                })
                .collect();
            Probe {
                sweep: vec![1; SWEEP],
                unsorted,
                scratch: Vec::with_capacity(SORT),
                last: Instant::now(),
                slices: Vec::new(),
                spent: Duration::ZERO,
            }
        });
        f(probe)
    })
}

impl Probe {
    fn sweep(&mut self) -> u32 {
        let mut acc = 0u32;
        for w in self.sweep.iter_mut() {
            acc = acc.wrapping_add(*w >> 3);
            *w ^= acc;
        }
        acc
    }

    fn slice(&mut self) {
        // An untimed sweep first brings the buffer back into the shared
        // cache, wherever the workload left it: otherwise the probe runs
        // slower between requests than around a set-up, by how much of
        // the cache the workload used.
        let warm = Instant::now();
        std::hint::black_box(self.sweep());
        self.spent += warm.elapsed();
        let t = Instant::now();
        let acc = self.sweep();
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.unsorted);
        self.scratch.sort_unstable();
        std::hint::black_box((acc, self.scratch[SORT / 2]));
        let took = t.elapsed();
        self.slices.push(took.as_secs_f64());
        self.spent += took;
        self.last = Instant::now();
    }
}

/// Runs one slice if [`INTERVAL`] has passed since the last. Called
/// between requests, outside their own timing.
pub fn tick() {
    with_probe(|p| {
        if p.last.elapsed() >= INTERVAL {
            p.slice();
        }
    });
}

/// Runs [`BURST`] slices now (around a phase with no requests to tick
/// between, such as a set-up).
pub fn burst() {
    with_probe(|p| (0..BURST).for_each(|_| p.slice()));
}

/// The slices since the last `take`, and the time they took.
pub fn take() -> Reading {
    with_probe(|p| {
        let reading = Reading {
            slices: std::mem::take(&mut p.slices),
            spent_s: p.spent.as_secs_f64(),
        };
        p.spent = Duration::ZERO;
        // The next phase's first tick waits a full interval.
        p.last = Instant::now();
        reading
    })
}
