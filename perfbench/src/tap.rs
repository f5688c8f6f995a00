//! A `Transport` decorator that observes every datagram from outside the
//! program. Nodes are built on it with `Node::new_on`, so it sees each
//! frame a node sends and wraps the delivery callback the node registers.
//!
//! On send it classifies the frame with the public `Wire::decode` and times
//! the inner `send`; on delivery it times the node's callback and the time
//! since the matching send. Spans carry the frame's `TraceCtx` (origin, op),
//! so every datagram span names the operation that caused it.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use bytes::Bytes;
use samoa_net::sim::{Datagram, DeliveryFn};
use samoa_net::{SiteId, Transport};
use samoa_proto::{CastData, ConsMsg, Payload, TraceCtx, Wire};

use crate::meters::Samples;

/// Spans kept per measured window; later spans are counted but not kept.
const MAX_SPANS: usize = 50_000;

/// Frame counts by kind over a window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameCounts {
    /// Frames handed to the transport.
    pub sent: u64,
    /// Frames that reached a delivery callback.
    pub delivered: u64,
    /// Payload bytes handed to the transport.
    pub bytes: u64,
    /// RelComm acknowledgements.
    pub acks: u64,
    /// RelCast floods of atomic-broadcast requests.
    pub ab_requests: u64,
    /// RelCast floods of consensus decisions.
    pub decides: u64,
    /// Consensus point-to-point messages (all five kinds).
    pub consensus: u64,
}

/// One datagram (or client operation) span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `send`, `deliver`, or the client call (`kv_put`, `kv_get`, `kv_cas`).
    pub name: &'static str,
    /// Sending (or submitting) site.
    pub from: u16,
    /// Receiving site (the submitting site for client calls).
    pub to: u16,
    /// `TraceCtx` of the frame, when it carries one.
    pub ctx: Option<TraceCtx>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Everything measured over one window (between `begin_window` calls).
#[derive(Clone, Default)]
pub struct Window {
    /// Frame counts by kind.
    pub counts: FrameCounts,
    /// Time inside the inner transport's `send`.
    pub send: Samples,
    /// Time inside the node's delivery callback.
    pub deliver: Samples,
    /// Time from the start of `send` to the entry of the delivery callback.
    pub wire: Samples,
    /// Distinct consensus instances that reached a decision.
    pub decided: HashSet<u64>,
    /// Summed batch length over `decided`.
    pub batch_sum: u64,
    /// Distinct (instance, round) pairs that carried consensus traffic.
    pub rounds: HashSet<(u64, u64)>,
    /// Distinct instances that carried consensus traffic.
    pub cons_instances: HashSet<u64>,
    /// Recorded spans (at most `MAX_SPANS`).
    pub spans: Vec<Span>,
}

type FrameKey = (u16, u16, u64);

struct State {
    total_sent: u64,
    total_delivered: u64,
    window: Window,
    in_flight: HashMap<FrameKey, VecDeque<Instant>>,
}

/// Shared sink of every `Tap` in a cluster.
pub struct Recorder {
    epoch: Instant,
    state: Mutex<State>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            state: Mutex::new(State {
                total_sent: 0,
                total_delivered: 0,
                window: Window::default(),
                in_flight: HashMap::new(),
            }),
        }
    }
}

impl Recorder {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("recorder poisoned by a panicking thread")
    }

    /// Frames sent and delivered since the recorder was created.
    pub fn totals(&self) -> (u64, u64) {
        let s = self.lock();
        (s.total_sent, s.total_delivered)
    }

    /// Start a fresh measurement window.
    pub fn begin_window(&self) {
        self.lock().window = Window::default();
    }

    /// The current window's measurements.
    pub fn window(&self) -> Window {
        self.lock().window.clone()
    }

    /// Record a client call span.
    pub fn client_span(&self, name: &'static str, site: u16, start: Instant, dur: Duration) {
        let span = Span {
            name,
            from: site,
            to: site,
            ctx: None,
            start_ns: self.ns(start),
            dur_ns: dur.as_nanos() as u64,
        };
        push_span(&mut self.lock().window, span);
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Write the current window's spans as JSON lines.
    pub fn write_spans(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.lock().window.spans {
            let (origin, op, hop) = match s.ctx {
                Some(c) => (i64::from(c.origin.0), c.op as i64, i64::from(c.hop)),
                None => (-1, -1, -1),
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"from\":{},\"to\":{},\"origin\":{origin},\"op\":{op},\"hop\":{hop},\"start_ns\":{},\"dur_ns\":{}}}",
                s.name, s.from, s.to, s.start_ns, s.dur_ns
            )?;
        }
        Ok(())
    }
}

fn push_span(w: &mut Window, span: Span) {
    if w.spans.len() < MAX_SPANS {
        w.spans.push(span);
    }
}

fn frame_key(from: SiteId, to: SiteId, payload: &Bytes) -> FrameKey {
    let mut h = DefaultHasher::new();
    payload.as_ref().hash(&mut h);
    (from.0, to.0, h.finish())
}

/// Count one outbound frame by kind.
fn classify(w: &mut Window, payload: &Bytes) -> Option<TraceCtx> {
    let c = &mut w.counts;
    match Wire::decode(payload.clone()) {
        Err(_) | Ok(Wire::Heartbeat) => {}
        Ok(Wire::Ack { .. }) => c.acks += 1,
        Ok(Wire::Data { ctx, payload, .. }) => {
            match payload {
                Payload::Cast(m) => match m.data {
                    CastData::AbRequest(_) => c.ab_requests += 1,
                    CastData::Decide { inst, batch } => {
                        c.decides += 1;
                        if w.decided.insert(inst) {
                            w.batch_sum += batch.len() as u64;
                        }
                    }
                    CastData::User(_) => {}
                },
                Payload::Cons(m) => {
                    c.consensus += 1;
                    let (ConsMsg::Kick { inst, round, .. }
                    | ConsMsg::Collect { inst, round }
                    | ConsMsg::Estimate { inst, round, .. }
                    | ConsMsg::Propose { inst, round, .. }
                    | ConsMsg::Ack { inst, round }) = m;
                    w.rounds.insert((inst, round));
                    w.cons_instances.insert(inst);
                }
                Payload::Sync(_) => {}
            }
            return ctx;
        }
    }
    None
}

/// The decorator itself: one per node, all sharing a `Recorder`.
pub struct Tap {
    inner: Arc<dyn Transport>,
    rec: Arc<Recorder>,
}

impl Tap {
    /// Wrap `inner`, reporting into `rec`.
    pub fn new(inner: Arc<dyn Transport>, rec: Arc<Recorder>) -> Tap {
        Tap { inner, rec }
    }
}

impl Transport for Tap {
    fn send(&self, from: SiteId, to: SiteId, payload: Bytes) {
        let key = frame_key(from, to, &payload);
        let len = payload.len() as u64;
        let ctx = {
            let mut s = self.rec.lock();
            s.total_sent += 1;
            s.window.counts.sent += 1;
            s.window.counts.bytes += len;
            let ctx = classify(&mut s.window, &payload);
            // Registered before the inner send: the delivery thread may run
            // the callback before `send` returns.
            s.in_flight
                .entry(key)
                .or_default()
                .push_back(Instant::now());
            ctx
        };
        let start = Instant::now();
        self.inner.send(from, to, payload);
        let dur = start.elapsed();
        let span = Span {
            name: "send",
            from: from.0,
            to: to.0,
            ctx,
            start_ns: self.rec.ns(start),
            dur_ns: dur.as_nanos() as u64,
        };
        let mut s = self.rec.lock();
        s.window.send.record(dur);
        push_span(&mut s.window, span);
    }

    fn site_count(&self) -> usize {
        self.inner.site_count()
    }

    fn sites(&self) -> Vec<SiteId> {
        self.inner.sites()
    }

    fn register(&self, site: SiteId, callback: Arc<DeliveryFn>) {
        let rec = Arc::clone(&self.rec);
        let wrapped = move |dg: Datagram| {
            let entry = Instant::now();
            let key = frame_key(dg.from, dg.to, &dg.payload);
            let ctx = Wire::peek_ctx(&dg.payload);
            let (from, to) = (dg.from.0, dg.to.0);
            let sent_at = {
                let mut s = rec.lock();
                s.total_delivered += 1;
                s.window.counts.delivered += 1;
                // A duplicated datagram finds its queue already drained.
                let mut t = None;
                if let Some(q) = s.in_flight.get_mut(&key) {
                    t = q.pop_front();
                    if q.is_empty() {
                        s.in_flight.remove(&key);
                    }
                }
                t
            };
            let start = Instant::now();
            callback(dg);
            let dur = start.elapsed();
            let span = Span {
                name: "deliver",
                from,
                to,
                ctx,
                start_ns: rec.ns(start),
                dur_ns: dur.as_nanos() as u64,
            };
            let mut s = rec.lock();
            s.window.deliver.record(dur);
            if let Some(t) = sent_at {
                s.window.wire.record(entry.saturating_duration_since(t));
            }
            push_span(&mut s.window, span);
        };
        self.inner.register(site, Arc::new(wrapped));
    }

    fn stats_named(&self, site: SiteId) -> Vec<(&'static str, u64)> {
        self.inner.stats_named(site)
    }
}
