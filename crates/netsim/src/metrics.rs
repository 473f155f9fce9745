//! Network-wide metric counters.
//!
//! The paper compares five quantities (§VI-A): total data packets, total
//! SNACK packets, total advertisement packets, total communication cost
//! in bytes (SNACKs in LR-Seluge are `n − k` bits longer, so raw packet
//! counts alone would be unfair), and overall dissemination latency.

use lrs_host::node::{NodeId, PacketKind};
use lrs_host::time::SimTime;
use lrs_json::ObjWriter;
use std::collections::HashMap;

/// Aggregated counters for one simulation run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    tx_packets: HashMap<PacketKind, u64>,
    tx_bytes: HashMap<PacketKind, u64>,
    rx_packets: u64,
    rx_bytes: u64,
    /// Packets lost to PHY link quality or noise.
    lost_phy: u64,
    /// Packets lost to collisions.
    lost_collision: u64,
    /// Packets dropped by the application-layer loss process.
    lost_app: u64,
    /// First time each node reported completion.
    completion: HashMap<NodeId, SimTime>,
}

impl Metrics {
    /// Fresh, zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a transmission of `bytes` of the given kind.
    pub fn count_tx(&mut self, kind: PacketKind, bytes: usize) {
        *self.tx_packets.entry(kind).or_insert(0) += 1;
        *self.tx_bytes.entry(kind).or_insert(0) += bytes as u64;
    }

    /// Records a successful reception.
    pub fn count_rx(&mut self, bytes: usize) {
        self.rx_packets += 1;
        self.rx_bytes += bytes as u64;
    }

    /// Records a PHY-level loss.
    pub fn count_phy_loss(&mut self) {
        self.lost_phy += 1;
    }

    /// Records a collision loss.
    pub fn count_collision(&mut self) {
        self.lost_collision += 1;
    }

    /// Records an application-layer drop (the paper's loss process).
    pub fn count_app_drop(&mut self) {
        self.lost_app += 1;
    }

    /// Records the first completion time of `node`.
    pub fn record_completion(&mut self, node: NodeId, at: SimTime) {
        self.completion.entry(node).or_insert(at);
    }

    /// Transmitted packets of `kind`.
    pub fn tx_packets(&self, kind: PacketKind) -> u64 {
        self.tx_packets.get(&kind).copied().unwrap_or(0)
    }

    /// Transmitted bytes of `kind`.
    pub fn tx_bytes(&self, kind: PacketKind) -> u64 {
        self.tx_bytes.get(&kind).copied().unwrap_or(0)
    }

    /// Total transmitted packets across kinds.
    pub fn total_tx_packets(&self) -> u64 {
        self.tx_packets.values().sum()
    }

    /// Total transmitted bytes across kinds (the paper's "total
    /// communication cost in bytes").
    pub fn total_tx_bytes(&self) -> u64 {
        self.tx_bytes.values().sum()
    }

    /// Successful receptions.
    pub fn rx_packets(&self) -> u64 {
        self.rx_packets
    }

    /// Received bytes (an energy proxy: receivers pay for every byte that
    /// clears the PHY, even if authentication later rejects it).
    pub fn rx_bytes(&self) -> u64 {
        self.rx_bytes
    }

    /// PHY losses.
    pub fn phy_losses(&self) -> u64 {
        self.lost_phy
    }

    /// Collision losses.
    pub fn collision_losses(&self) -> u64 {
        self.lost_collision
    }

    /// Application-layer drops.
    pub fn app_drops(&self) -> u64 {
        self.lost_app
    }

    /// Completion time of `node`, if it completed.
    pub fn completion_of(&self, node: NodeId) -> Option<SimTime> {
        self.completion.get(&node).copied()
    }

    /// Number of nodes that completed.
    pub fn completed_count(&self) -> usize {
        self.completion.len()
    }

    /// Fraction of `population` nodes that completed — the
    /// graceful-degradation outcome: *how far* dissemination got, even
    /// when the run as a whole timed out or stalled. Clamped to 1.0 and
    /// `NaN` for an empty population.
    pub fn completion_fraction(&self, population: usize) -> f64 {
        if population == 0 {
            return f64::NAN;
        }
        (self.completion.len().min(population)) as f64 / population as f64
    }

    /// Dissemination latency: the time the *last* node completed.
    pub fn dissemination_latency(&self) -> Option<SimTime> {
        self.completion.values().copied().max()
    }

    /// Renders the counters as one JSON object, in the shape of a trace
    /// event (`"ev":"metrics"`). Appending it to a JSONL run trace gives
    /// the log a closing summary line that tools can key on.
    pub fn to_trace_json(&self, at: SimTime) -> String {
        let mut tx = ObjWriter::new();
        for kind in PacketKind::ALL {
            let counters = ObjWriter::new()
                .uint("pkts", self.tx_packets(kind))
                .uint("bytes", self.tx_bytes(kind));
            tx = tx.raw(kind.label(), &counters.finish());
        }
        ObjWriter::new()
            .uint("t", at.as_micros())
            .str("ev", "metrics")
            .raw("tx", &tx.finish())
            .uint("rx_pkts", self.rx_packets)
            .uint("rx_bytes", self.rx_bytes)
            .uint("lost_phy", self.lost_phy)
            .uint("lost_collision", self.lost_collision)
            .uint("lost_app", self.lost_app)
            .uint("completed", self.completion.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.count_tx(PacketKind::Data, 80);
        m.count_tx(PacketKind::Data, 80);
        m.count_tx(PacketKind::Snack, 20);
        assert_eq!(m.tx_packets(PacketKind::Data), 2);
        assert_eq!(m.tx_bytes(PacketKind::Data), 160);
        assert_eq!(m.total_tx_packets(), 3);
        assert_eq!(m.total_tx_bytes(), 180);
        assert_eq!(m.tx_packets(PacketKind::Adv), 0);
    }

    #[test]
    fn completion_records_first_time_only() {
        let mut m = Metrics::new();
        m.record_completion(NodeId(1), SimTime(100));
        m.record_completion(NodeId(1), SimTime(200));
        m.record_completion(NodeId(2), SimTime(150));
        assert_eq!(m.completion_of(NodeId(1)), Some(SimTime(100)));
        assert_eq!(m.dissemination_latency(), Some(SimTime(150)));
        assert_eq!(m.completed_count(), 2);
        assert_eq!(m.completion_fraction(4), 0.5);
        // Clamped (an attacker self-reporting completion cannot push the
        // honest fraction past 1) and NaN-safe for an empty population.
        assert_eq!(m.completion_fraction(1), 1.0);
        assert!(m.completion_fraction(0).is_nan());
    }

    #[test]
    fn loss_counters() {
        let mut m = Metrics::new();
        m.count_phy_loss();
        m.count_collision();
        m.count_app_drop();
        m.count_app_drop();
        assert_eq!(m.phy_losses(), 1);
        assert_eq!(m.collision_losses(), 1);
        assert_eq!(m.app_drops(), 2);
    }

    #[test]
    fn trace_json_summary_shape() {
        let mut m = Metrics::new();
        m.count_tx(PacketKind::Data, 80);
        m.count_rx(80);
        m.count_app_drop();
        m.record_completion(NodeId(1), SimTime(5));
        let line = m.to_trace_json(SimTime(123));
        assert!(line.starts_with(r#"{"t":123,"ev":"metrics","#), "{line}");
        assert!(line.contains(r#""data":{"pkts":1,"bytes":80}"#), "{line}");
        assert!(line.contains(r#""lost_app":1"#), "{line}");
        assert!(line.contains(r#""completed":1"#), "{line}");
        assert!(line.ends_with('}'), "{line}");
    }
}
