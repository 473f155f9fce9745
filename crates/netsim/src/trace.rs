//! Structured run tracing.
//!
//! A [`TraceSink`] attached to a [`Simulator`](crate::sim::Simulator)
//! receives one [`TraceEvent`] per interesting simulator transition:
//! every transmission, reception, loss (with its cause), timer firing,
//! node completion, and protocol-level note (SNACK rounds, page
//! completions, scheduler decisions). A stalled or divergent run can
//! then be diagnosed from its event log instead of rerun under a
//! debugger.
//!
//! Tracing is strictly observational: sinks receive shared references
//! and cannot influence the event stream, so attaching one never
//! changes metrics or outcome.
//!
//! Three sinks are provided: [`TraceLog`], which collects every event
//! in memory for a test to read after the run, [`JsonlTrace`], which
//! streams every event as one JSON object per line for offline
//! analysis, and [`TraceDigest`], which hashes the stream as it goes by
//! for replay.

use lrs_host::node::{NodeId, PacketKind, TimerId};
use lrs_host::time::SimTime;
use lrs_host::violation::ContentDigest;
use lrs_json::ObjWriter;
use std::cell::{Cell, RefCell};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::rc::Rc;

/// Why a delivery failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LossCause {
    /// Overlapping transmissions at the receiver.
    Collision,
    /// Independent per-link packet-reception-rate loss.
    Phy,
    /// Application-layer drop (queue overflow model).
    AppDrop,
    /// Injected link fault (outage or degradation) from a
    /// [`FaultPlan`](crate::fault::FaultPlan).
    Fault,
    /// The delivery's transmission record had already been pruned when
    /// the delivery was processed. Defensive path in the engine: the
    /// packet is dropped with this structured event instead of
    /// panicking mid-run.
    Pruned,
}

impl LossCause {
    /// Stable lowercase label used in JSONL output.
    pub fn label(self) -> &'static str {
        match self {
            LossCause::Collision => "collision",
            LossCause::Phy => "phy",
            LossCause::AppDrop => "app_drop",
            LossCause::Fault => "fault",
            LossCause::Pruned => "pruned_tx",
        }
    }
}

/// One structured simulator event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A node began a broadcast (time is the post-CSMA on-air start).
    Tx {
        /// On-air start time (after any CSMA backoff).
        at: SimTime,
        /// Transmitting node.
        from: NodeId,
        /// Packet kind.
        kind: PacketKind,
        /// Payload length in bytes.
        bytes: usize,
        /// Transmission id correlating [`TraceEvent::Rx`]/[`TraceEvent::Loss`] entries.
        tx_id: u64,
    },
    /// A receiver decoded the packet and passed it to the protocol.
    Rx {
        /// Delivery time.
        at: SimTime,
        /// Receiving node.
        to: NodeId,
        /// Transmitting node.
        from: NodeId,
        /// Packet kind.
        kind: PacketKind,
        /// Payload length in bytes.
        bytes: usize,
        /// Transmission id.
        tx_id: u64,
    },
    /// A delivery failed at one receiver.
    Loss {
        /// Time of the (failed) delivery.
        at: SimTime,
        /// Intended receiver.
        to: NodeId,
        /// Transmitting node.
        from: NodeId,
        /// Packet kind.
        kind: PacketKind,
        /// Why it was lost.
        cause: LossCause,
        /// Transmission id.
        tx_id: u64,
    },
    /// A live timer fired.
    TimerFired {
        /// Firing time.
        at: SimTime,
        /// Owning node.
        node: NodeId,
        /// Which timer.
        timer: TimerId,
    },
    /// A node reported dissemination completion.
    NodeComplete {
        /// Completion time.
        at: SimTime,
        /// The node.
        node: NodeId,
    },
    /// A protocol-level annotation (SNACK round, page completion,
    /// scheduler decision, …) emitted via
    /// [`Context::note`](lrs_host::node::Context::note).
    Note {
        /// Emission time.
        at: SimTime,
        /// Emitting node.
        node: NodeId,
        /// Stable event label (e.g. `"snack"`, `"page_complete"`).
        label: &'static str,
        /// First label-specific argument.
        a: u64,
        /// Second label-specific argument.
        b: u64,
    },
}

impl TraceEvent {
    /// The event's time stamp.
    pub fn at(&self) -> SimTime {
        match *self {
            TraceEvent::Tx { at, .. }
            | TraceEvent::Rx { at, .. }
            | TraceEvent::Loss { at, .. }
            | TraceEvent::TimerFired { at, .. }
            | TraceEvent::NodeComplete { at, .. }
            | TraceEvent::Note { at, .. } => at,
        }
    }

    /// Renders the event as a single JSON object (no trailing newline).
    /// Times are microseconds of virtual time. [`RunDigest`] hashes
    /// these bytes, so key order and number formatting are frozen.
    ///
    /// [`RunDigest`]: crate::capsule::RunDigest
    pub fn to_json(&self) -> String {
        let line = |ev: &str, node: NodeId| {
            ObjWriter::new()
                .uint("t", self.at().as_micros())
                .str("ev", ev)
                .uint("node", node.0)
        };
        match *self {
            TraceEvent::Tx {
                from,
                kind,
                bytes,
                tx_id,
                ..
            } => line("tx", from)
                .str("kind", kind.label())
                .uint("bytes", bytes)
                .uint("tx", tx_id),
            TraceEvent::Rx {
                to,
                from,
                kind,
                bytes,
                tx_id,
                ..
            } => line("rx", to)
                .uint("from", from.0)
                .str("kind", kind.label())
                .uint("bytes", bytes)
                .uint("tx", tx_id),
            TraceEvent::Loss {
                to,
                from,
                kind,
                cause,
                tx_id,
                ..
            } => line("loss", to)
                .uint("from", from.0)
                .str("kind", kind.label())
                .str("cause", cause.label())
                .uint("tx", tx_id),
            TraceEvent::TimerFired { node, timer, .. } => {
                line("timer", node).uint("timer", timer.0)
            }
            TraceEvent::NodeComplete { node, .. } => line("complete", node),
            TraceEvent::Note {
                node, label, a, b, ..
            } => line("note", node)
                .str("label", label)
                .uint("a", a)
                .uint("b", b),
        }
        .finish()
    }
}

/// Receives the structured event stream of a simulation run.
pub trait TraceSink {
    /// Called once per simulator event, in virtual-time order.
    fn record(&mut self, event: &TraceEvent);

    /// Flushes any buffered output (no-op by default).
    fn flush(&mut self) {}
}

/// A cloneable sink that collects every event in memory, oldest first.
///
/// [`SimBuilder::trace`](crate::SimBuilder::trace) takes ownership of
/// its sink; handing it one clone and keeping another lets a caller
/// read the events after the run. Nothing is evicted, so memory grows
/// with the run: long runs stream with [`JsonlTrace`] or digest with
/// [`TraceDigest`] instead.
#[derive(Clone, Debug, Default)]
pub struct TraceLog(Rc<RefCell<Vec<TraceEvent>>>);

impl TraceLog {
    /// Clones out the events recorded so far, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.0.borrow().clone()
    }
}

impl TraceSink for TraceLog {
    fn record(&mut self, event: &TraceEvent) {
        self.0.borrow_mut().push(event.clone());
    }
}

/// A cloneable sink that digests the event stream as it arrives: the
/// event count and FNV-1a over every [`TraceEvent::to_json`] line,
/// newline-terminated, which is what a
/// [`RunDigest`](crate::capsule::RunDigest) records of a trace. Memory
/// stays constant however long the run; keep a clone to read the digest
/// after handing the sink to the builder.
#[derive(Clone, Debug)]
pub struct TraceDigest(Rc<Cell<(u64, ContentDigest)>>);

impl Default for TraceDigest {
    /// The digest of no events.
    fn default() -> Self {
        TraceDigest(Rc::new(Cell::new((0, ContentDigest::EMPTY))))
    }
}

impl TraceDigest {
    /// Events digested so far.
    pub fn events(&self) -> u64 {
        self.0.get().0
    }

    /// The digest of every event so far.
    pub fn digest(&self) -> ContentDigest {
        self.0.get().1
    }
}

impl TraceSink for TraceDigest {
    fn record(&mut self, event: &TraceEvent) {
        let (events, digest) = self.0.get();
        let digest = digest.absorb(event.to_json().as_bytes()).absorb(b"\n");
        self.0.set((events + 1, digest));
    }
}

/// Streams every event as one JSON object per line (JSON Lines).
pub struct JsonlTrace<W: Write> {
    out: BufWriter<W>,
}

impl JsonlTrace<std::fs::File> {
    /// Creates (truncating) `path` and streams events into it.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlTrace::new(std::fs::File::create(path)?))
    }
}

impl<W: Write> JsonlTrace<W> {
    /// Wraps any writer.
    pub fn new(out: W) -> Self {
        JsonlTrace {
            out: BufWriter::new(out),
        }
    }

    /// Flushes and returns the inner writer.
    pub fn into_inner(self) -> io::Result<W> {
        self.out.into_inner().map_err(|e| e.into_error())
    }
}

impl<W: Write> TraceSink for JsonlTrace<W> {
    fn record(&mut self, event: &TraceEvent) {
        // Trace output is best-effort diagnostics; an I/O error must not
        // abort the simulation it observes.
        let _ = writeln!(self.out, "{}", event.to_json());
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> TraceEvent {
        TraceEvent::Note {
            at: SimTime::ZERO,
            node: NodeId(0),
            label: "test",
            a: i,
            b: 0,
        }
    }

    #[test]
    fn log_keeps_every_event_readable_from_a_clone() {
        let log = TraceLog::default();
        let mut sink = log.clone();
        for i in 0..10 {
            sink.record(&ev(i));
        }
        let kept: Vec<u64> = log
            .events()
            .iter()
            .map(|e| match e {
                TraceEvent::Note { a, .. } => *a,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn jsonl_emits_one_line_per_event() {
        let mut sink = JsonlTrace::new(Vec::new());
        sink.record(&TraceEvent::Tx {
            at: SimTime::ZERO + lrs_host::time::Duration::from_micros(42),
            from: NodeId(3),
            kind: PacketKind::Data,
            bytes: 90,
            tx_id: 7,
        });
        sink.record(&TraceEvent::Loss {
            at: SimTime::ZERO,
            to: NodeId(1),
            from: NodeId(3),
            kind: PacketKind::Data,
            cause: LossCause::Collision,
            tx_id: 7,
        });
        let text = String::from_utf8(sink.into_inner().unwrap()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""ev":"tx""#) && lines[0].contains(r#""t":42"#));
        assert!(lines[1].contains(r#""cause":"collision""#));
        // Every line is a self-contained object.
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn trace_digest_hashes_the_jsonl_stream() {
        let digest = TraceDigest::default();
        let mut jsonl = JsonlTrace::new(Vec::new());
        let mut sink = digest.clone();
        for i in 0..3 {
            sink.record(&ev(i));
            jsonl.record(&ev(i));
        }
        let text = jsonl.into_inner().unwrap();
        assert_eq!(digest.events(), 3);
        assert_eq!(digest.digest(), ContentDigest::of(&text));
        assert_eq!(TraceDigest::default().digest(), ContentDigest::EMPTY);
    }

    #[test]
    fn event_json_labels_are_stable() {
        let e = TraceEvent::NodeComplete {
            at: SimTime::ZERO,
            node: NodeId(9),
        };
        assert_eq!(e.to_json(), r#"{"t":0,"ev":"complete","node":9}"#);
        assert_eq!(LossCause::Phy.label(), "phy");
        assert_eq!(LossCause::AppDrop.label(), "app_drop");
    }
}
