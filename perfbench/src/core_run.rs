//! The `core-run` workload: the SAMOA runtime alone, no network and no
//! protocol stack. Two caller threads run blocking `Runtime::run`
//! computations under VCAbasic on the 8-protocol `flat_stack` with
//! zero-work handlers. Each computation declares and visits two protocols;
//! protocol 0 is a seeded hot spot. No OS thread is spawned per
//! computation, so this isolates the cost of Rules 1–3.

use std::sync::atomic::AtomicUsize;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use samoa_bench::synth::{flat_stack, FlatStack, WorkKind};
use samoa_core::version::{gate_spins, parks};
use samoa_core::{Decl, EventData};

use crate::gate::Violation;
use crate::meters::{self, Samples};
use crate::{Metrics, Outcome, Segment};

const PROTOCOLS: usize = 8;
const CALLERS: usize = 2;
/// Share of computations whose first protocol is the hot protocol 0.
const HOT: f64 = 0.5;
/// Stack constructions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 201;
/// Computations each caller runs after set-up and before timing starts.
const WARMUP_COMPS: usize = 20_000;
/// Computations per timed segment (about half a second).
const SEGMENT_COMPS: usize = 200_000;

struct Caller {
    rng: StdRng,
    /// Visits of each protocol by this caller's committed computations.
    visits: [u64; PROTOCOLS],
}

impl Caller {
    fn new(seed: u64, idx: usize) -> Caller {
        Caller {
            rng: StdRng::seed_from_u64(
                seed ^ (0x51_7cc1_b727_220a_u64.wrapping_mul(idx as u64 + 1)),
            ),
            visits: [0; PROTOCOLS],
        }
    }

    /// One computation declaring and visiting protocols `a` and `b`; its
    /// latency, or `None` if it failed.
    fn one(&mut self, s: &FlatStack) -> Option<Duration> {
        let a = if self.rng.gen_bool(HOT) {
            0
        } else {
            self.rng.gen_range(1..PROTOCOLS)
        };
        let b = (a + self.rng.gen_range(1..PROTOCOLS)) % PROTOCOLS;
        let decl = [s.protocols[a], s.protocols[b]];
        let (ea, eb) = (s.events[a], s.events[b]);
        let start = Instant::now();
        let r = s.rt.run(Decl::Basic(&decl), |ctx| {
            ctx.trigger(ea, EventData::empty())?;
            ctx.trigger(eb, EventData::empty())
        });
        let lat = start.elapsed();
        r.ok()?;
        self.visits[a] += 1;
        self.visits[b] += 1;
        Some(lat)
    }
}

fn visits(s: &FlatStack) -> Vec<u64> {
    s.counters.iter().map(|c| c.read(|v| *v)).collect()
}

/// Run `core-run` for about `seconds` of timed load.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut stack = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let s = flat_stack(PROTOCOLS, Duration::ZERO, WorkKind::Cpu);
        let mut c = Caller::new(seed, CALLERS);
        c.one(&s);
        setups.push(start.elapsed().as_secs_f64());
        stack = Some(s);
    }
    let s = stack.expect("at least one set-up");
    let mut callers: Vec<Caller> = (0..CALLERS).map(|i| Caller::new(seed, i)).collect();
    std::thread::scope(|sc| {
        for c in callers.iter_mut() {
            let s = &s;
            sc.spawn(move || {
                (0..WARMUP_COMPS).for_each(|_| {
                    c.one(s);
                })
            });
        }
    });
    s.rt.quiesce();
    for c in &mut callers {
        c.visits = [0; PROTOCOLS];
    }

    let (v0, rt0, p0, g0) = (visits(&s), s.rt.stats(), parks(), gate_spins());
    let segments = crate::segments(seconds, || segment(&s, &mut callers));
    let (parks, gate_spins) = (parks() - p0, gate_spins() - g0);
    s.rt.quiesce();
    let rt1 = s.rt.stats();

    let mut expected = [0u64; PROTOCOLS];
    for c in &callers {
        for (e, v) in expected.iter_mut().zip(c.visits) {
            *e += v;
        }
    }
    let mut violations = Vec::new();
    let failed: usize = segments.iter().map(|g| g.failed).sum();
    if failed > 0 {
        violations.push(Violation::Failed { count: failed });
    }
    let got: Vec<u64> = visits(&s).iter().zip(&v0).map(|(a, b)| a - b).collect();
    if got != expected {
        violations.push(Violation::WrongOutput(format!(
            "protocol visit counts {got:?}, expected {expected:?}"
        )));
    }

    let metrics = if traced {
        let comps: u64 = segments.iter().map(|g| g.committed).sum();
        let mut m = Metrics::default();
        let delta = crate::stats_delta(rt1, rt0);
        crate::runtime_layer(&mut m, &delta, parks, gate_spins, comps as f64);
        // No tap is installed here, so a traced run is the untraced run.
        m.put("trace.p50_ratio", 1.0);
        m.put("trace.ops_ratio", 1.0);
        m
    } else {
        crate::end_to_end(&mut setups, &segments)
    };
    crate::outcome(&segments, violations, metrics)
}

/// Time `SEGMENT_COMPS` computations shared among the callers.
fn segment(s: &FlatStack, callers: &mut [Caller]) -> Segment {
    let quota = AtomicUsize::new(SEGMENT_COMPS);
    let cpu0 = meters::cpu_seconds();
    let start = Instant::now();
    let outs: Vec<(Samples, usize, usize)> = std::thread::scope(|sc| {
        let handles: Vec<_> = callers
            .iter_mut()
            .map(|c| {
                let quota = &quota;
                sc.spawn(move || {
                    let mut latency = Samples::default();
                    let (mut attempted, mut failed) = (0, 0);
                    while crate::take(quota) {
                        attempted += 1;
                        match c.one(s) {
                            Some(lat) => latency.record(lat),
                            None => failed += 1,
                        }
                    }
                    (latency, attempted, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let cpu_s = meters::cpu_seconds() - cpu0;
    let mut latency = Samples::default();
    let (mut attempted, mut failed) = (0, 0);
    for (l, a, f) in outs {
        latency.merge(&l);
        attempted += a;
        failed += f;
    }
    Segment::new(latency, attempted, failed, wall, cpu_s)
}
