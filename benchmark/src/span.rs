//! In-memory span recorder for the traced pass.
//!
//! Every layer is timed from outside: the benchmark wraps the calls
//! *into* a layer (see [`crate::wrap`]) and opens a span around each.
//! Spans nest strictly (one thread, stack discipline), so a span's
//! parent is whatever was open when it started. Spans are aggregated on
//! exit per `(name, parent)` into count / total / max / child-covered
//! time, plus a fixed-size uniform reservoir of raw spans; nothing is
//! written until the workload ends.
//!
//! A layer's *self time* is its spans' total minus the part of those
//! intervals its direct child spans cover. Self times over all
//! `(name, parent)` pairs therefore sum exactly to the root span.

use lrs_bench::Json;
use std::cell::RefCell;
use std::time::Instant;

/// Raw spans kept for the trace file.
pub const RESERVOIR: usize = 4096;

/// The span vocabulary: one name per timed call boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SpanName {
    /// One traced workload body (the root).
    Body,
    /// The traced pass's set-up (a second root, beside the body).
    Setup,
    /// Key derivation: Schnorr keypair, puzzle chain, cluster key.
    CryptoKeys,
    /// `LrArtifacts::build`.
    CorePreprocessBuild,
    /// `LrArtifacts::warm_digest_cache`.
    CorePreprocessWarm,
    /// `SelugeArtifacts::build`.
    SelugePreprocessBuild,
    /// `SelugeArtifacts::warm_digest_cache`.
    SelugePreprocessWarm,
    /// `Topology::{star, grid}`.
    NetsimTopologyBuild,
    /// `SimBuilder::build`, node construction included.
    NetsimBuild,
    /// `Simulator::run`.
    NetsimRun,
    /// `Protocol::on_init`.
    DelugeOnInit,
    /// `Protocol::on_packet`.
    DelugeOnPacket,
    /// `Protocol::on_timer`.
    DelugeOnTimer,
    /// `LrScheme::handle_packet`.
    CoreHandlePacket,
    /// `LrScheme::packet_payload`.
    CorePacketPayload,
    /// `LrScheme::wanted`.
    CoreWanted,
    /// `SelugeScheme::handle_packet`.
    SelugeHandlePacket,
    /// `SelugeScheme::packet_payload`.
    SelugePacketPayload,
    /// `SelugeScheme::wanted`.
    SelugeWanted,
    /// `GreedyRoundRobinPolicy::next`.
    CoreSchedulerNext,
    /// `GreedyRoundRobinPolicy::on_snack`.
    CoreSchedulerOnSnack,
    /// `GreedyRoundRobinPolicy::on_overheard_data`.
    CoreSchedulerOverheard,
    /// `UnionPolicy::{next, on_snack, on_overheard_data}`.
    DelugePolicyUnion,
    /// End-of-run output verification by the benchmark itself.
    BenchVerify,
}

/// Number of span names.
pub const NAMES: usize = SpanName::BenchVerify as usize + 1;

impl SpanName {
    /// Every name, in declaration order.
    pub const ALL: [SpanName; NAMES] = [
        SpanName::Body,
        SpanName::Setup,
        SpanName::CryptoKeys,
        SpanName::CorePreprocessBuild,
        SpanName::CorePreprocessWarm,
        SpanName::SelugePreprocessBuild,
        SpanName::SelugePreprocessWarm,
        SpanName::NetsimTopologyBuild,
        SpanName::NetsimBuild,
        SpanName::NetsimRun,
        SpanName::DelugeOnInit,
        SpanName::DelugeOnPacket,
        SpanName::DelugeOnTimer,
        SpanName::CoreHandlePacket,
        SpanName::CorePacketPayload,
        SpanName::CoreWanted,
        SpanName::SelugeHandlePacket,
        SpanName::SelugePacketPayload,
        SpanName::SelugeWanted,
        SpanName::CoreSchedulerNext,
        SpanName::CoreSchedulerOnSnack,
        SpanName::CoreSchedulerOverheard,
        SpanName::DelugePolicyUnion,
        SpanName::BenchVerify,
    ];

    /// The dotted span name (`layer.component.call`).
    pub fn label(self) -> &'static str {
        match self {
            SpanName::Body => "bench.body",
            SpanName::Setup => "bench.setup",
            SpanName::CryptoKeys => "crypto.keys",
            SpanName::CorePreprocessBuild => "core.preprocess.build",
            SpanName::CorePreprocessWarm => "core.preprocess.warm_digest",
            SpanName::SelugePreprocessBuild => "seluge.preprocess.build",
            SpanName::SelugePreprocessWarm => "seluge.preprocess.warm_digest",
            SpanName::NetsimTopologyBuild => "netsim.topology.build",
            SpanName::NetsimBuild => "netsim.build",
            SpanName::NetsimRun => "netsim.run",
            SpanName::DelugeOnInit => "deluge.on_init",
            SpanName::DelugeOnPacket => "deluge.on_packet",
            SpanName::DelugeOnTimer => "deluge.on_timer",
            SpanName::CoreHandlePacket => "core.scheme.handle_packet",
            SpanName::CorePacketPayload => "core.scheme.packet_payload",
            SpanName::CoreWanted => "core.scheme.wanted",
            SpanName::SelugeHandlePacket => "seluge.scheme.handle_packet",
            SpanName::SelugePacketPayload => "seluge.scheme.packet_payload",
            SpanName::SelugeWanted => "seluge.scheme.wanted",
            SpanName::CoreSchedulerNext => "core.scheduler.next",
            SpanName::CoreSchedulerOnSnack => "core.scheduler.on_snack",
            SpanName::CoreSchedulerOverheard => "core.scheduler.on_overheard",
            SpanName::DelugePolicyUnion => "deluge.policy.union",
            SpanName::BenchVerify => "bench.verify",
        }
    }

    /// The layer (crate) the span is charged to: the label's first
    /// dotted component.
    pub fn layer(self) -> &'static str {
        let label = self.label();
        &label[..label.find('.').unwrap_or(label.len())]
    }
}

/// One finished span, as kept in the reservoir.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RawSpan {
    /// The span's name.
    pub name: SpanName,
    /// The span open when this one started (`None` for a root).
    pub parent: Option<SpanName>,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
}

/// Aggregate of all spans sharing one `(name, parent)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Sum of durations (ns).
    pub total_ns: u64,
    /// Longest single span (ns).
    pub max_ns: u64,
    /// Part of `total_ns` covered by direct child spans (ns).
    pub child_ns: u64,
}

impl Agg {
    /// Total minus child-covered time.
    pub fn self_ns(&self) -> u64 {
        self.total_ns - self.child_ns
    }
}

#[derive(Clone, Copy)]
struct Frame {
    name: SpanName,
    start_ns: u64,
    child_ns: u64,
}

/// Parent slot for root spans in the aggregate table.
const ROOT: usize = NAMES;

/// Span aggregator with explicit timestamps (the thread-local front end
/// below feeds it wall-clock readings; tests feed it literals).
pub struct Recorder {
    stack: Vec<Frame>,
    /// `agg[name][parent]`, parent `ROOT` for top-level spans.
    agg: Vec<[Agg; NAMES + 1]>,
    reservoir: Vec<RawSpan>,
    seen: u64,
    rng: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            stack: Vec::with_capacity(8),
            agg: vec![[Agg::default(); NAMES + 1]; NAMES],
            reservoir: Vec::with_capacity(RESERVOIR),
            seen: 0,
            rng: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl Recorder {
    /// Opens a span at time `now_ns`.
    pub fn enter_at(&mut self, name: SpanName, now_ns: u64) {
        self.stack.push(Frame {
            name,
            start_ns: now_ns,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span at time `now_ns` and returns its
    /// duration.
    ///
    /// # Panics
    ///
    /// Panics if no span is open (an enter/exit pairing bug).
    pub fn exit_at(&mut self, now_ns: u64) -> u64 {
        let frame = self.stack.pop().expect("exit without a matching enter");
        let dur = now_ns.saturating_sub(frame.start_ns);
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.name
        });
        let slot = &mut self.agg[frame.name as usize][parent.map_or(ROOT, |p| p as usize)];
        slot.count += 1;
        slot.total_ns += dur;
        slot.max_ns = slot.max_ns.max(dur);
        slot.child_ns += frame.child_ns;
        self.sample(RawSpan {
            name: frame.name,
            parent,
            start_ns: frame.start_ns,
            end_ns: now_ns,
        });
        dur
    }

    /// Algorithm R: each of the `seen` spans is kept with equal
    /// probability `RESERVOIR / seen`.
    fn sample(&mut self, span: RawSpan) {
        self.seen += 1;
        if self.reservoir.len() < RESERVOIR {
            self.reservoir.push(span);
            return;
        }
        // xorshift64*: fixed seed, so the sample is a function of the
        // span sequence alone.
        self.rng ^= self.rng >> 12;
        self.rng ^= self.rng << 25;
        self.rng ^= self.rng >> 27;
        let slot = (self.rng.wrapping_mul(0x2545_f491_4f6c_dd1d) % self.seen) as usize;
        if slot < RESERVOIR {
            self.reservoir[slot] = span;
        }
    }

    /// Whether every opened span was closed.
    pub fn is_balanced(&self) -> bool {
        self.stack.is_empty()
    }

    /// All non-empty `(name, parent, aggregate)` rows, in name order.
    pub fn rows(&self) -> Vec<(SpanName, Option<SpanName>, Agg)> {
        let mut rows = Vec::new();
        for name in SpanName::ALL {
            for (p, agg) in self.agg[name as usize].iter().enumerate() {
                if agg.count > 0 {
                    let parent = (p != ROOT).then(|| SpanName::ALL[p]);
                    rows.push((name, parent, *agg));
                }
            }
        }
        rows
    }

    /// The aggregate of `name` summed over all parents.
    pub fn total(&self, name: SpanName) -> Agg {
        let mut sum = Agg::default();
        for agg in &self.agg[name as usize] {
            sum.count += agg.count;
            sum.total_ns += agg.total_ns;
            sum.max_ns = sum.max_ns.max(agg.max_ns);
            sum.child_ns += agg.child_ns;
        }
        sum
    }

    /// Self time (ns) summed over every span whose label starts with
    /// `prefix`.
    pub fn self_ns_of(&self, prefix: &str) -> u64 {
        SpanName::ALL
            .iter()
            .filter(|n| n.label().starts_with(prefix))
            .map(|&n| self.total(n).self_ns())
            .sum()
    }

    /// Spans closed so far.
    #[cfg(test)]
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The sampled raw spans.
    #[cfg(test)]
    pub fn reservoir(&self) -> &[RawSpan] {
        &self.reservoir
    }

    /// The trace file: aggregate rows plus the reservoir.
    pub fn to_json(&self) -> Json {
        let rows = self
            .rows()
            .into_iter()
            .map(|(name, parent, agg)| {
                Json::Obj(vec![
                    ("name".into(), Json::str(name.label())),
                    (
                        "parent".into(),
                        parent.map_or(Json::Null, |p| Json::str(p.label())),
                    ),
                    ("count".into(), Json::Num(agg.count as f64)),
                    ("total_ns".into(), Json::Num(agg.total_ns as f64)),
                    ("self_ns".into(), Json::Num(agg.self_ns() as f64)),
                    ("max_ns".into(), Json::Num(agg.max_ns as f64)),
                ])
            })
            .collect();
        let spans = self
            .reservoir
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::str(s.name.label())),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::str(p.label())),
                    ),
                    ("start_ns".into(), Json::Num(s.start_ns as f64)),
                    ("end_ns".into(), Json::Num(s.end_ns as f64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("spans_seen".into(), Json::Num(self.seen as f64)),
            ("aggregates".into(), Json::Arr(rows)),
            ("reservoir".into(), Json::Arr(spans)),
        ])
    }
}

struct Live {
    epoch: Instant,
    recorder: Recorder,
}

thread_local! {
    static LIVE: RefCell<Option<Live>> = const { RefCell::new(None) };
}

/// Starts a fresh recording on this thread.
pub fn start() {
    LIVE.with(|live| {
        *live.borrow_mut() = Some(Live {
            epoch: Instant::now(),
            recorder: Recorder::default(),
        });
    });
}

/// Ends the recording and returns what it gathered.
///
/// # Panics
///
/// Panics if no recording is active or a span is still open.
pub fn finish() -> Recorder {
    let live = LIVE
        .with(|live| live.borrow_mut().take())
        .expect("span::finish without span::start");
    assert!(live.recorder.is_balanced(), "span left open at finish");
    live.recorder
}

/// Closes its span when dropped, or earlier through [`Guard::close`].
pub struct Guard {
    open: bool,
}

impl Guard {
    /// Closes the span now and returns its duration in ns.
    pub fn close(mut self) -> u64 {
        self.open = false;
        exit()
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.open {
            exit();
        }
    }
}

fn exit() -> u64 {
    LIVE.with(|live| {
        let mut live = live.borrow_mut();
        let live = live.as_mut().expect("recording ended with a span open");
        let now = live.epoch.elapsed().as_nanos() as u64;
        live.recorder.exit_at(now)
    })
}

/// Opens a span on the active recording.
///
/// # Panics
///
/// Panics if no recording is active: traced wrappers only exist inside
/// a traced pass.
pub fn enter(name: SpanName) -> Guard {
    LIVE.with(|live| {
        let mut live = live.borrow_mut();
        let live = live.as_mut().expect("span::enter without span::start");
        let now = live.epoch.elapsed().as_nanos() as u64;
        live.recorder.enter_at(name, now);
    });
    Guard { open: true }
}

#[cfg(test)]
mod tests {
    use super::*;
    use SpanName::*;

    #[test]
    fn self_time_is_span_minus_nested_children() {
        // body [0,100] > run [10,90] > on_packet [20,50] > handle [25,45]
        let mut r = Recorder::default();
        r.enter_at(Body, 0);
        r.enter_at(NetsimRun, 10);
        r.enter_at(DelugeOnPacket, 20);
        r.enter_at(CoreHandlePacket, 25);
        r.exit_at(45);
        r.exit_at(50);
        r.exit_at(90);
        r.exit_at(100);
        assert!(r.is_balanced());
        assert_eq!(r.total(CoreHandlePacket).self_ns(), 20);
        assert_eq!(r.total(DelugeOnPacket).total_ns, 30);
        assert_eq!(r.total(DelugeOnPacket).self_ns(), 10);
        assert_eq!(r.total(NetsimRun).self_ns(), 50);
        assert_eq!(r.total(Body).self_ns(), 20);
    }

    #[test]
    fn sibling_spans_are_all_subtracted_from_the_parent() {
        // run [0,100] with siblings on_packet [10,30], on_timer [40,45],
        // on_packet [50,80]; grandchildren only reduce their own parent.
        let mut r = Recorder::default();
        r.enter_at(NetsimRun, 0);
        r.enter_at(DelugeOnPacket, 10);
        r.exit_at(30);
        r.enter_at(DelugeOnTimer, 40);
        r.exit_at(45);
        r.enter_at(DelugeOnPacket, 50);
        r.enter_at(CoreHandlePacket, 55);
        r.exit_at(75);
        r.exit_at(80);
        r.exit_at(100);
        let run = r.total(NetsimRun);
        assert_eq!(run.total_ns, 100);
        assert_eq!(run.child_ns, 20 + 5 + 30);
        assert_eq!(run.self_ns(), 45);
        let on_packet = r.total(DelugeOnPacket);
        assert_eq!(on_packet.count, 2);
        assert_eq!(on_packet.max_ns, 30);
        assert_eq!(on_packet.self_ns(), 50 - 20);
    }

    #[test]
    fn self_times_sum_to_the_root_span() {
        let mut r = Recorder::default();
        r.enter_at(Body, 0);
        for i in 0..50u64 {
            let t = 10 + i * 10;
            r.enter_at(NetsimRun, t);
            r.enter_at(DelugeOnPacket, t + 1);
            r.enter_at(CoreHandlePacket, t + 2);
            r.exit_at(t + 5);
            r.enter_at(CoreSchedulerNext, t + 5);
            r.exit_at(t + 6);
            r.exit_at(t + 8);
            r.exit_at(t + 9);
        }
        r.exit_at(1000);
        let total_self: u64 = r.rows().iter().map(|(_, _, a)| a.self_ns()).sum();
        assert_eq!(total_self, 1000);
        assert_eq!(r.self_ns_of("core."), 50 * 4);
        assert_eq!(r.self_ns_of("deluge."), 50 * 3);
    }

    #[test]
    fn rows_are_keyed_by_name_and_parent() {
        let mut r = Recorder::default();
        r.enter_at(Body, 0);
        r.enter_at(CoreHandlePacket, 1);
        r.exit_at(2);
        r.enter_at(DelugeOnPacket, 3);
        r.enter_at(CoreHandlePacket, 4);
        r.exit_at(6);
        r.exit_at(7);
        r.exit_at(8);
        let rows = r.rows();
        let handle: Vec<_> = rows
            .iter()
            .filter(|(n, _, _)| *n == CoreHandlePacket)
            .collect();
        assert_eq!(handle.len(), 2);
        assert!(handle
            .iter()
            .any(|(_, p, a)| *p == Some(Body) && a.total_ns == 1));
        assert!(handle
            .iter()
            .any(|(_, p, a)| *p == Some(DelugeOnPacket) && a.total_ns == 2));
        assert!(rows.iter().any(|(n, p, _)| *n == Body && p.is_none()));
    }

    #[test]
    fn reservoir_is_bounded_and_counts_everything() {
        let mut r = Recorder::default();
        for i in 0..(3 * RESERVOIR as u64) {
            r.enter_at(DelugeOnTimer, i * 2);
            r.exit_at(i * 2 + 1);
        }
        assert_eq!(r.seen(), 3 * RESERVOIR as u64);
        assert_eq!(r.reservoir().len(), RESERVOIR);
        // Late spans do displace early ones.
        assert!(r
            .reservoir()
            .iter()
            .any(|s| s.start_ns >= 2 * RESERVOIR as u64));
    }

    #[test]
    fn labels_are_unique_and_dotted() {
        let mut labels: Vec<&str> = SpanName::ALL.iter().map(|n| n.label()).collect();
        for (i, name) in SpanName::ALL.iter().enumerate() {
            assert_eq!(*name as usize, i, "ALL must follow declaration order");
            assert!(name.label().contains('.'));
        }
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), NAMES);
        assert_eq!(CoreSchedulerNext.layer(), "core");
    }

    #[test]
    fn thread_local_front_end_pairs_guards() {
        start();
        {
            let _body = enter(Body);
            let _run = enter(NetsimRun);
        }
        let r = finish();
        assert_eq!(r.total(Body).count, 1);
        assert_eq!(r.total(NetsimRun).count, 1);
        assert!(r.total(Body).total_ns >= r.total(NetsimRun).total_ns);
    }
}
