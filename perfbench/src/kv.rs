//! The replicated-KV workloads: `put-seq`, `mix-tcp` and `mix-lossy`.
//!
//! Three vca-basic sites; closed-loop clients, each homed on one site,
//! submit an operation, block in `KvPending::wait`, and only then issue the
//! next. Every layer is read from outside: runtime and node diagnostics
//! through their public accessors, the network through its own counters,
//! and (traced runs only) every datagram through the `Tap` decorator.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use samoa_core::version::{gate_spins, parks};
use samoa_core::RuntimeStats;
use samoa_net::{NetConfig, SimNet, SiteId, TcpMesh, Transport};
use samoa_proto::{Node, NodeConfig, StackPolicy};

use crate::gate::{self, SiteReport, Violation};
use crate::meters::{self, Samples};
use crate::tap::{Recorder, Tap, Window};
use crate::{Metrics, Outcome, Segment};

const SITES: usize = 3;
const KEYS: u32 = 32;
const OP_TIMEOUT: Duration = Duration::from_secs(10);
const CONVERGE_TIMEOUT: Duration = Duration::from_secs(20);
/// Operations each client issues after set-up and before timing starts.
const WARMUP_OPS: usize = 100;
/// Cluster constructions per untraced run; the last one carries the load,
/// and `setup_s` is the median over all.
const SETUP_REPEATS: usize = 51;
/// Operations per timed segment: a segment's p99 then has exactly ten
/// samples beyond it.
const SEGMENT_OPS: usize = 1000;

/// Which network carries the cluster.
#[derive(Debug, Clone, Copy)]
pub enum Net {
    /// `SimNet` with `NetConfig::fast` links and the given loss and
    /// duplication probabilities.
    Sim {
        /// Loss probability.
        loss: f64,
        /// Duplication probability.
        dup: f64,
    },
    /// A localhost `TcpMesh`.
    Tcp,
}

/// The client operation mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Puts only.
    Puts,
    /// 50% put, 40% get, 10% cas over `KEYS` keys.
    PutGetCas,
}

/// One KV workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The workload's name.
    pub name: &'static str,
    /// The network.
    pub net: Net,
    /// Home site of each client thread.
    pub clients: &'static [usize],
    /// Operation mix.
    pub mix: Mix,
}

/// `put-seq`: one client issuing sequential puts over the fast simulator.
pub const PUT_SEQ: Spec = Spec {
    name: "put-seq",
    net: Net::Sim {
        loss: 0.0,
        dup: 0.0,
    },
    clients: &[0],
    mix: Mix::Puts,
};

/// `mix-tcp`: two clients, mixed operations, real localhost sockets.
pub const MIX_TCP: Spec = Spec {
    name: "mix-tcp",
    net: Net::Tcp,
    clients: &[0, 1],
    mix: Mix::PutGetCas,
};

/// `mix-lossy`: `mix-tcp`'s clients over the fast simulator with 1% loss
/// and 1% duplication.
pub const MIX_LOSSY: Spec = Spec {
    name: "mix-lossy",
    net: Net::Sim {
        loss: 0.01,
        dup: 0.01,
    },
    clients: &[0, 1],
    mix: Mix::PutGetCas,
};

enum Backend {
    Sim(SimNet),
    Tcp(TcpMesh),
}

/// A running three-site cluster, optionally tapped.
pub struct KvCluster {
    backend: Backend,
    nodes: Vec<Arc<Node>>,
    rec: Option<Arc<Recorder>>,
}

/// The network's own counters, summed over sites.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetTotals {
    /// Frames sent.
    pub sent: u64,
    /// Frames delivered to a callback.
    pub delivered: u64,
    /// Frames dropped.
    pub dropped: u64,
    /// Frames duplicated in transit.
    pub duplicated: u64,
}

impl KvCluster {
    /// Build the cluster; with `traced`, every node sends and receives
    /// through a `Tap` sharing one recorder.
    pub fn build(net: Net, seed: u64, traced: bool) -> KvCluster {
        let rec = traced.then(|| Arc::new(Recorder::default()));
        let wrap = |t: Arc<dyn Transport>| -> Arc<dyn Transport> {
            match &rec {
                Some(r) => Arc::new(Tap::new(t, Arc::clone(r))),
                None => t,
            }
        };
        let cfg = NodeConfig::with_policy(StackPolicy::Basic);
        let (backend, nodes) = match net {
            Net::Sim { loss, dup } => {
                let sim = SimNet::new(
                    SITES,
                    NetConfig::fast(seed).with_loss(loss).with_duplicates(dup),
                );
                let nodes = (0..SITES)
                    .map(|i| {
                        let t = wrap(Arc::new(sim.handle()));
                        Node::new_on(t, SiteId(i as u16), cfg.clone())
                    })
                    .collect();
                (Backend::Sim(sim), nodes)
            }
            Net::Tcp => {
                let mesh = TcpMesh::new(SITES).expect("bind a localhost TCP mesh");
                let nodes = (0..SITES)
                    .map(|i| {
                        let t = wrap(Arc::clone(mesh.net(i)) as Arc<dyn Transport>);
                        Node::new_on(t, SiteId(i as u16), cfg.clone())
                    })
                    .collect();
                (Backend::Tcp(mesh), nodes)
            }
        };
        KvCluster {
            backend,
            nodes,
            rec,
        }
    }

    /// Node `i`.
    pub fn node(&self, i: usize) -> &Arc<Node> {
        &self.nodes[i]
    }

    /// The tap's recorder (traced clusters only).
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.rec.as_ref()
    }

    /// The network's own counters.
    pub fn net_totals(&self) -> NetTotals {
        match &self.backend {
            Backend::Sim(sim) => {
                let s = sim.total_stats();
                NetTotals {
                    sent: s.sent,
                    delivered: s.delivered,
                    dropped: s.dropped(),
                    duplicated: s.duplicated,
                }
            }
            Backend::Tcp(mesh) => {
                let s = mesh.total_stats();
                NetTotals {
                    sent: s.frames_sent,
                    delivered: s.frames_delivered,
                    dropped: s.dropped(),
                    duplicated: 0,
                }
            }
        }
    }

    /// Wait until no datagram is in flight and no computation runs. On the
    /// simulator this is `Cluster::settle`'s fixed point; real sockets have
    /// no oracle, so TCP polls until every frame sent was delivered and
    /// nothing awaits an acknowledgement or an ordering decision.
    pub fn settle(&self) {
        match &self.backend {
            Backend::Sim(sim) => loop {
                let before = sim.total_stats().sent;
                sim.quiesce();
                for n in &self.nodes {
                    n.runtime().quiesce();
                }
                sim.quiesce();
                if sim.total_stats().sent == before {
                    for n in &self.nodes {
                        n.runtime().quiesce();
                    }
                    if sim.total_stats().sent == before {
                        return;
                    }
                }
            },
            Backend::Tcp(_) => {
                let end = Instant::now() + CONVERGE_TIMEOUT;
                let mut quiet_rounds = 0;
                while quiet_rounds < 3 && Instant::now() < end {
                    let t = self.net_totals();
                    let quiet = t.sent == t.delivered + t.dropped
                        && self
                            .nodes
                            .iter()
                            .all(|n| n.relcomm_pending() == 0 && n.ab_pending() == 0);
                    quiet_rounds = if quiet { quiet_rounds + 1 } else { 0 };
                    std::thread::sleep(Duration::from_millis(2));
                }
                for n in &self.nodes {
                    n.runtime().quiesce();
                }
            }
        }
    }

    /// Every site's digest and apply count.
    pub fn reports(&self) -> Vec<SiteReport> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(site, n)| SiteReport {
                site,
                digest: n.kv_digest(),
                applied: n.kv_applied(),
            })
            .collect()
    }

    /// Runtime counters summed over sites.
    fn runtime_stats(&self) -> RuntimeStats {
        self.nodes.iter().fold(RuntimeStats::default(), |a, n| {
            let s = n.runtime().stats();
            RuntimeStats {
                computations_spawned: a.computations_spawned + s.computations_spawned,
                computations_completed: a.computations_completed + s.computations_completed,
                handler_calls: a.handler_calls + s.handler_calls,
                admission_wait: a.admission_wait + s.admission_wait,
                bound_releases: a.bound_releases + s.bound_releases,
                route_releases: a.route_releases + s.route_releases,
                version_wait_wakeups: a.version_wait_wakeups + s.version_wait_wakeups,
            }
        })
    }

    fn retransmissions(&self) -> u64 {
        self.nodes.iter().map(|n| n.retransmissions()).sum()
    }

    /// Stop every timer and network thread.
    pub fn shutdown(self) {
        for n in &self.nodes {
            n.stop_timers();
        }
        match self.backend {
            Backend::Sim(mut sim) => sim.shutdown(),
            Backend::Tcp(mesh) => mesh.shutdown(),
        }
    }
}

/// Largest queue depths seen between operations (traced runs only).
#[derive(Default)]
struct Gauges {
    relcomm: AtomicUsize,
    abcast: AtomicUsize,
    consensus: AtomicUsize,
}

impl Gauges {
    fn sample(&self, nodes: &[Arc<Node>]) {
        for n in nodes {
            self.relcomm
                .fetch_max(n.relcomm_pending(), Ordering::Relaxed);
            self.abcast.fetch_max(n.ab_pending(), Ordering::Relaxed);
            self.consensus
                .fetch_max(n.consensus_instances(), Ordering::Relaxed);
        }
    }
}

/// One closed-loop client: its seeded operation stream and what it saw.
struct Client {
    site: usize,
    idx: usize,
    rng: StdRng,
    mix: Mix,
    issued: usize,
    /// The single-writer model of `put-seq`: the value each key holds, so
    /// every put's reply (the previous value) can be checked.
    model: Option<HashMap<Bytes, Bytes>>,
}

#[derive(Default)]
struct ClientOut {
    latency: Samples,
    submit: Samples,
    attempted: usize,
    failed: usize,
    wrong: Vec<String>,
}

impl Client {
    fn new(spec: &Spec, idx: usize, seed: u64) -> Client {
        Client {
            site: spec.clients[idx],
            idx,
            rng: StdRng::seed_from_u64(
                seed ^ (0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(idx as u64 + 1)),
            ),
            mix: spec.mix,
            issued: 0,
            model: (spec.mix == Mix::Puts && spec.clients.len() == 1).then(HashMap::new),
        }
    }

    /// Issue operations while `quota` lasts, recording into `out`.
    fn run(
        &mut self,
        cluster: &KvCluster,
        quota: &AtomicUsize,
        gauges: Option<&Gauges>,
        out: &mut ClientOut,
    ) {
        let node = cluster.node(self.site);
        let rec = cluster.recorder();
        while crate::take(quota) {
            let key = Bytes::from(format!("key-{}", self.rng.gen_range(0..KEYS)));
            let value = Bytes::from(format!("c{}-o{}", self.idx, self.issued));
            let roll = match self.mix {
                Mix::Puts => 0,
                Mix::PutGetCas => self.rng.gen_range(0..10u32),
            };
            self.issued += 1;
            let start = Instant::now();
            let (name, pending) = match roll {
                0..=4 => ("kv_put", node.kv_put(key.clone(), value.clone())),
                5..=8 => ("kv_get", node.kv_get(key.clone())),
                _ => ("kv_cas", node.kv_cas(key.clone(), None, value.clone())),
            };
            let submitted = Instant::now();
            let reply = pending.wait(OP_TIMEOUT);
            let lat = start.elapsed();
            out.attempted += 1;
            match reply {
                Some(r) => {
                    out.latency.record(lat);
                    if let Some(model) = &mut self.model {
                        let prev = model.insert(key.clone(), value);
                        if r.value != prev {
                            out.wrong.push(format!(
                                "put {key:?} returned {:?}, expected {prev:?}",
                                r.value
                            ));
                        }
                    }
                }
                None => out.failed += 1,
            }
            if let Some(rec) = rec {
                out.submit.record(submitted - start);
                rec.client_span(name, self.site as u16, start, lat);
            }
            if let Some(g) = gauges {
                g.sample(&cluster.nodes);
            }
        }
    }
}

/// `ops` operations shared among all clients, closed loop; returns what
/// they saw and the wall-clock from the first submission to the last
/// completion.
fn burst(
    cluster: &KvCluster,
    clients: &mut [Client],
    ops: usize,
    gauges: Option<&Gauges>,
) -> (ClientOut, Duration) {
    let quota = AtomicUsize::new(ops);
    let start = Instant::now();
    let outs: Vec<(ClientOut, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                let quota = &quota;
                s.spawn(move || {
                    let mut o = ClientOut::default();
                    c.run(cluster, quota, gauges, &mut o);
                    (o, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let end = outs.iter().map(|(_, t)| *t).max().unwrap_or(start);
    let mut out = ClientOut::default();
    for (o, _) in outs {
        out.latency.merge(&o.latency);
        out.submit.merge(&o.submit);
        out.attempted += o.attempted;
        out.failed += o.failed;
        out.wrong.extend(o.wrong);
    }
    (out, end - start)
}

/// Build a cluster, commit one warm-up operation, and return it with the
/// time from construction to that commit.
fn set_up(spec: &Spec, seed: u64, traced: bool, clients: &mut [Client]) -> (KvCluster, f64) {
    let start = Instant::now();
    let cluster = KvCluster::build(spec.net, seed, traced);
    let (out, _) = burst(&cluster, clients, 1, None);
    assert_eq!(out.failed, 0, "the first warm-up operation did not commit");
    (cluster, start.elapsed().as_secs_f64())
}

/// Everything one measured load phase produced.
struct Phase {
    segments: Vec<Segment>,
    /// Every committed operation's latency, over all segments.
    latency: Samples,
    /// Summed wall-clock of the segments.
    wall: Duration,
    submit: Samples,
    runtime: RuntimeStats,
    parks: u64,
    gate_spins: u64,
    retransmits: u64,
    net: NetTotals,
    window: Option<Window>,
    gauges: Gauges,
    violations: Vec<Violation>,
    submitted_total: usize,
    min_applied: usize,
}

/// Warm up, measure about `seconds` of closed-loop load in segments of
/// `SEGMENT_OPS` operations, then run the correctness gate. Consumes the
/// cluster.
fn measure(spec: &Spec, cluster: KvCluster, clients: &mut [Client], seconds: f64) -> Phase {
    // Warm-up: caches fill, lazily built state settles, and the system is
    // quiet before the window opens.
    let (warm, _) = burst(&cluster, clients, WARMUP_OPS * clients.len(), None);
    cluster.settle();

    let gauges = Gauges::default();
    if let Some(r) = cluster.recorder() {
        r.begin_window();
    }
    let (rt0, p0, g0, re0, n0) = (
        cluster.runtime_stats(),
        parks(),
        gate_spins(),
        cluster.retransmissions(),
        cluster.net_totals(),
    );
    let gauges_on = cluster.recorder().is_some().then_some(&gauges);
    let mut out = ClientOut::default();
    let mut load_wall = Duration::ZERO;
    let segments = crate::segments(seconds, || {
        let cpu0 = meters::cpu_seconds();
        let (o, wall) = burst(&cluster, clients, SEGMENT_OPS, gauges_on);
        let cpu_s = meters::cpu_seconds() - cpu0;
        out.latency.merge(&o.latency);
        out.submit.merge(&o.submit);
        out.failed += o.failed;
        out.wrong.extend(o.wrong);
        load_wall += wall;
        Segment::new(o.latency, o.attempted, o.failed, wall, cpu_s)
    });

    // Gate: every submitted command (warm-up included) applied exactly once
    // at every site, and all replicas identical.
    let submitted_total: usize = clients.iter().map(|c| c.issued).sum();
    let reports = gate::poll_reports(submitted_total, CONVERGE_TIMEOUT, || cluster.reports());
    cluster.settle();
    let mut violations = gate::check(&reports, submitted_total, out.failed + warm.failed);
    violations.extend(
        out.wrong
            .iter()
            .take(5)
            .cloned()
            .map(Violation::WrongOutput),
    );
    let min_applied = reports.iter().map(|r| r.applied).min().unwrap_or(0);

    let runtime = crate::stats_delta(cluster.runtime_stats(), rt0);
    let net1 = cluster.net_totals();
    let net = NetTotals {
        sent: net1.sent - n0.sent,
        delivered: net1.delivered - n0.delivered,
        dropped: net1.dropped - n0.dropped,
        duplicated: net1.duplicated - n0.duplicated,
    };
    let window = cluster.recorder().map(|r| {
        // The tap must agree with the network's own counters, frame for
        // frame, once the system is quiet.
        let (sent, delivered) = r.totals();
        if (sent, delivered) != (net1.sent, net1.delivered) {
            violations.push(Violation::WrongOutput(format!(
                "tap counted {sent} sent / {delivered} delivered, network {} / {}",
                net1.sent, net1.delivered
            )));
        }
        r.window()
    });
    if let (Some(r), Ok(dir)) = (cluster.recorder(), std::env::current_dir()) {
        crate::write_spans(&dir, spec.name, r);
    }
    let phase = Phase {
        segments,
        latency: out.latency,
        wall: load_wall,
        submit: out.submit,
        runtime,
        parks: parks() - p0,
        gate_spins: gate_spins() - g0,
        retransmits: cluster.retransmissions() - re0,
        net,
        window,
        gauges,
        violations,
        submitted_total,
        min_applied,
    };
    cluster.shutdown();
    phase
}

fn clients_for(spec: &Spec, seed: u64) -> Vec<Client> {
    (0..spec.clients.len())
        .map(|i| Client::new(spec, i, seed))
        .collect()
}

/// Run a workload. Untraced: the end-to-end metrics over `seconds` of
/// segmented load. Traced: an untraced and a traced half, the per-layer
/// metrics from the traced half, and the traced/untraced latency and
/// throughput ratios as tracing overhead.
pub fn run(spec: &Spec, seed: u64, seconds: f64, traced: bool) -> Outcome {
    // Before any thread starts, so that all inherit it. With a thread per
    // computation, the program spread over two vCPUs spins on one for
    // threads the host has descheduled on the other, and the load it then
    // puts on both draws steal time from the host; on one CPU it does neither.
    match meters::pin_to_one_cpu() {
        Ok(cpu) => eprintln!("pinned to CPU {cpu}"),
        Err(e) => eprintln!("could not pin to one CPU, running unpinned: {e}"),
    }
    if !traced {
        let mut setups = Vec::new();
        let mut last = None;
        for rep in 0..SETUP_REPEATS {
            let mut clients = clients_for(spec, seed);
            let (cluster, s) = set_up(spec, seed.wrapping_add(rep as u64), false, &mut clients);
            setups.push(s);
            if let Some((c, _)) = last.replace((cluster, clients)) {
                KvCluster::shutdown(c);
            }
        }
        let (cluster, mut clients) = last.expect("at least one set-up");
        let p = measure(spec, cluster, &mut clients, seconds);
        let metrics = crate::end_to_end(&mut setups, &p.segments);
        return crate::outcome(&p.segments, p.violations, metrics);
    }

    let half = seconds / 2.0;
    let mut clients = clients_for(spec, seed);
    let (cluster, _) = set_up(spec, seed, false, &mut clients);
    let mut plain = measure(spec, cluster, &mut clients, half);
    let mut clients = clients_for(spec, seed);
    let (cluster, _) = set_up(spec, seed, true, &mut clients);
    let mut p = measure(spec, cluster, &mut clients, half);

    let mut m = Metrics::default();
    per_layer(&mut m, &mut p);
    m.put(
        "trace.p50_ratio",
        p.latency.percentile_us(0.5) / plain.latency.percentile_us(0.5),
    );
    let ops_per_s = |p: &Phase| p.latency.count() as f64 / p.wall.as_secs_f64();
    m.put("trace.ops_ratio", ops_per_s(&p) / ops_per_s(&plain));
    let mut violations = plain.violations;
    violations.extend(p.violations);
    plain.segments.extend(p.segments);
    crate::outcome(&plain.segments, violations, m)
}

fn per_layer(m: &mut Metrics, p: &mut Phase) {
    let ops = p.latency.count().max(1) as f64;
    let per = |x: u64| x as f64 / ops;
    crate::runtime_layer(m, &p.runtime, p.parks, p.gate_spins, ops);
    let w = p.window.as_mut().expect("traced phase has a window");
    let c = &w.counts;
    m.put("node.submit_us", p.submit.percentile_us(0.5));
    m.put("node.deliver_us", w.deliver.percentile_us(0.5));
    m.put(
        "node.deliver_busy_ratio",
        w.deliver.sum_s() / p.wall.as_secs_f64(),
    );
    m.put("transport.datagrams_per_op", per(c.sent));
    m.put("transport.bytes_per_op", per(c.bytes));
    m.put("transport.send_us", w.send.percentile_us(0.5));
    m.put("transport.wire_us", w.wire.percentile_us(0.5));
    m.put("transport.dropped_per_op", per(p.net.dropped));
    m.put("transport.duplicated_per_op", per(p.net.duplicated));
    m.put("relcomm.acks_per_op", per(c.acks));
    m.put("relcomm.retransmits_per_op", per(p.retransmits));
    m.put(
        "relcomm.pending_max",
        p.gauges.relcomm.load(Ordering::Relaxed) as f64,
    );
    m.put("abcast.requests_per_op", per(c.ab_requests));
    m.put("abcast.decides_per_op", per(c.decides));
    m.put(
        "abcast.batch_mean",
        w.batch_sum as f64 / w.decided.len().max(1) as f64,
    );
    m.put(
        "abcast.pending_max",
        p.gauges.abcast.load(Ordering::Relaxed) as f64,
    );
    m.put("consensus.msgs_per_op", per(c.consensus));
    m.put("consensus.instances_per_op", per(w.decided.len() as u64));
    m.put(
        "consensus.rounds_per_instance",
        w.rounds.len() as f64 / w.cons_instances.len().max(1) as f64,
    );
    m.put(
        "consensus.live_max",
        p.gauges.consensus.load(Ordering::Relaxed) as f64,
    );
    m.put(
        "kv.applied_per_submitted",
        p.min_applied as f64 / p.submitted_total.max(1) as f64,
    );
    eprintln!(
        "traced: {} datagrams sent in the window (network counted {}), {} delivered",
        c.sent, p.net.sent, c.delivered
    );
}
