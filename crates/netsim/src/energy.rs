//! Per-node radio energy accounting.
//!
//! The paper's motivation for minimizing transmissions is the sensor
//! nodes' energy budget (§I: bogus traffic "depletes the limited
//! energy"; §VI compares communication cost as its proxy). This module
//! turns the byte counters into joules using mica2/CC1000-class
//! constants, so experiments can report per-node energy directly.

use lrs_host::node::NodeId;

/// Radio energy parameters.
///
/// Defaults approximate a mica2's CC1000 at 3 V: ~16.5 mA transmit and
/// ~9.6 mA receive at 19.2 kbps ⇒ per-byte energy at 416 µs/byte.
#[derive(Clone, Copy, Debug)]
pub struct EnergyModel {
    /// Energy to transmit one byte (joules).
    pub tx_j_per_byte: f64,
    /// Energy to receive one byte (joules).
    pub rx_j_per_byte: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        // 3 V * 16.5 mA * 416 µs  and  3 V * 9.6 mA * 416 µs.
        EnergyModel {
            tx_j_per_byte: 3.0 * 0.0165 * 416e-6,
            rx_j_per_byte: 3.0 * 0.0096 * 416e-6,
        }
    }
}

/// Per-node byte counters, maintained by the simulator.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EnergyLedger {
    tx_bytes: Vec<u64>,
    rx_bytes: Vec<u64>,
}

impl EnergyLedger {
    /// Creates a ledger for `n` nodes.
    pub fn new(n: usize) -> Self {
        EnergyLedger {
            tx_bytes: vec![0; n],
            rx_bytes: vec![0; n],
        }
    }

    /// Records a transmission by `node`.
    pub fn record_tx(&mut self, node: NodeId, bytes: usize) {
        self.tx_bytes[node.index()] += bytes as u64;
    }

    /// Records a reception by `node` (counted whenever the radio decoded
    /// the packet, even if the application later drops or rejects it —
    /// that is precisely the DoS cost the paper's design bounds).
    pub fn record_rx(&mut self, node: NodeId, bytes: usize) {
        self.rx_bytes[node.index()] += bytes as u64;
    }

    /// Bytes transmitted by `node`.
    pub fn tx_bytes(&self, node: NodeId) -> u64 {
        self.tx_bytes[node.index()]
    }

    /// Bytes received by `node`.
    pub fn rx_bytes(&self, node: NodeId) -> u64 {
        self.rx_bytes[node.index()]
    }

    /// Energy spent by `node` under `model` (joules).
    pub fn joules(&self, node: NodeId, model: &EnergyModel) -> f64 {
        self.tx_bytes[node.index()] as f64 * model.tx_j_per_byte
            + self.rx_bytes[node.index()] as f64 * model.rx_j_per_byte
    }

    /// Total energy across all nodes (joules).
    pub fn total_joules(&self, model: &EnergyModel) -> f64 {
        (0..self.tx_bytes.len())
            .map(|i| self.joules(NodeId(i as u32), model))
            .sum()
    }

    /// The node that spent the most energy — network lifetime is gated
    /// by the worst-off node.
    pub fn max_joules(&self, model: &EnergyModel) -> (NodeId, f64) {
        (0..self.tx_bytes.len())
            .map(|i| (NodeId(i as u32), self.joules(NodeId(i as u32), model)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap_or((NodeId(0), 0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates_and_converts() {
        let model = EnergyModel::default();
        let mut ledger = EnergyLedger::new(3);
        ledger.record_tx(NodeId(0), 100);
        ledger.record_rx(NodeId(1), 100);
        ledger.record_rx(NodeId(2), 50);
        assert_eq!(ledger.tx_bytes(NodeId(0)), 100);
        assert_eq!(ledger.rx_bytes(NodeId(1)), 100);
        // Transmitting costs more than receiving the same bytes.
        assert!(ledger.joules(NodeId(0), &model) > ledger.joules(NodeId(1), &model));
        assert!(ledger.joules(NodeId(1), &model) > ledger.joules(NodeId(2), &model));
        let total = ledger.total_joules(&model);
        let parts: f64 = (0..3).map(|i| ledger.joules(NodeId(i), &model)).sum();
        assert!((total - parts).abs() < 1e-12);
    }

    #[test]
    fn max_identifies_hotspot() {
        let model = EnergyModel::default();
        let mut ledger = EnergyLedger::new(3);
        ledger.record_tx(NodeId(2), 1000);
        ledger.record_rx(NodeId(1), 10);
        let (node, j) = ledger.max_joules(&model);
        assert_eq!(node, NodeId(2));
        assert!(j > 0.0);
    }

    #[test]
    fn default_constants_sane() {
        let m = EnergyModel::default();
        assert!(m.tx_j_per_byte > m.rx_j_per_byte);
        // ~20 µJ per transmitted byte at these constants.
        assert!(m.tx_j_per_byte > 1e-6 && m.tx_j_per_byte < 1e-4);
    }
}
