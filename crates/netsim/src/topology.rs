//! Network topologies and per-link reception quality.
//!
//! The paper's one-hop experiments use a fully connected cluster with
//! perfect links (losses injected at the application layer); the
//! multi-hop experiments use 15×15 mica2 grids at two densities. The
//! original TinyOS topology files are not redistributable, so
//! [`Topology::grid`] regenerates equivalent grids from a distance-based
//! link model with per-link log-normal-style shadowing jitter — what the
//! TinyOS topology tool itself does from a propagation model.

use lrs_host::node::NodeId;
use lrs_rng::DetRng;

/// A node position in meters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Position {
    /// x coordinate (m).
    pub x: f64,
    /// y coordinate (m).
    pub y: f64,
}

impl Position {
    /// Euclidean distance to `other`.
    pub fn distance(&self, other: &Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// A directed link with a packet-reception ratio.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Link {
    /// Receiving node.
    pub to: NodeId,
    /// Packet-reception ratio in [0, 1] before noise and app-layer drops.
    pub prr: f64,
}

/// A static network topology: positions plus a directed PRR link table.
#[derive(Clone, Debug, PartialEq)]
pub struct Topology {
    positions: Vec<Position>,
    /// Outgoing links per node (only links with prr > 0 are stored).
    links: Vec<Vec<Link>>,
}

/// Distance-based link model parameters (mica2-flavored).
///
/// PRR is ~1 inside `connected_radius`, decays smoothly to 0 at
/// `max_radius`, with multiplicative per-link jitter standing in for
/// log-normal shadowing.
#[derive(Clone, Copy, Debug)]
pub struct LinkModel {
    /// Radius of near-perfect reception (m).
    pub connected_radius: f64,
    /// Radius beyond which no packets are received (m).
    pub max_radius: f64,
    /// Magnitude of per-link random PRR jitter in the transitional region.
    pub shadowing_jitter: f64,
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel {
            connected_radius: 12.0,
            max_radius: 30.0,
            shadowing_jitter: 0.15,
        }
    }
}

impl LinkModel {
    /// Mean PRR at distance `d` (before jitter).
    pub fn mean_prr(&self, d: f64) -> f64 {
        if d <= self.connected_radius {
            0.98
        } else if d >= self.max_radius {
            0.0
        } else {
            // Smooth cubic falloff across the transitional region, which
            // empirically matches measured mica2 PRR-vs-distance curves.
            let t = (d - self.connected_radius) / (self.max_radius - self.connected_radius);
            0.98 * (1.0 - t * t * (3.0 - 2.0 * t))
        }
    }
}

impl Topology {
    /// Reassembles a topology from explicit positions and per-node link
    /// tables.
    ///
    /// This is the flight-recorder path: a capsule stores the exact
    /// link table of the captured run, and replay must reuse it verbatim
    /// rather than resample any link model.
    ///
    /// # Panics
    ///
    /// Panics if `links.len() != positions.len()` or a link targets a
    /// node outside the position table.
    pub fn from_parts(positions: Vec<Position>, links: Vec<Vec<Link>>) -> Self {
        assert_eq!(
            positions.len(),
            links.len(),
            "one link table per node required"
        );
        let n = positions.len();
        for out in &links {
            for link in out {
                assert!(
                    (link.to.0 as usize) < n,
                    "link target n{} out of range (n={n})",
                    link.to.0
                );
            }
        }
        Topology { positions, links }
    }

    /// Builds a topology from explicit positions and a link model.
    ///
    /// Per-link shadowing jitter is sampled deterministically from `seed`.
    pub fn from_positions(positions: Vec<Position>, model: LinkModel, seed: u64) -> Self {
        let mut rng = DetRng::seed_from_u64(seed ^ 0x7090_70e0);
        let n = positions.len();
        let mut links = vec![Vec::new(); n];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let d = positions[i].distance(&positions[j]);
                let mean = model.mean_prr(d);
                if mean <= 0.0 {
                    continue;
                }
                let jitter = 1.0 + model.shadowing_jitter * (rng.gen::<f64>() * 2.0 - 1.0);
                let prr = (mean * jitter).clamp(0.0, 1.0);
                if prr > 0.01 {
                    links[i].push(Link {
                        to: NodeId(j as u32),
                        prr,
                    });
                }
            }
        }
        Topology { positions, links }
    }

    /// A fully connected one-hop cluster of `n` nodes with perfect links
    /// (PRR 1.0): the paper's §VI-A/B setting where "nodes are placed
    /// close enough to eliminate packet transmission errors".
    pub fn star(n: usize) -> Self {
        let positions = (0..n)
            .map(|i| {
                let angle = 2.0 * std::f64::consts::PI * i as f64 / n.max(1) as f64;
                Position {
                    x: 2.0 * angle.cos(),
                    y: 2.0 * angle.sin(),
                }
            })
            .collect::<Vec<_>>();
        let links = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| j != i)
                    .map(|j| Link {
                        to: NodeId(j as u32),
                        prr: 1.0,
                    })
                    .collect()
            })
            .collect();
        Topology { positions, links }
    }

    /// A line of `n` nodes with the given per-hop PRR; adjacent nodes
    /// only. Useful for unit tests of multi-hop pipelining.
    pub fn line(n: usize, prr: f64) -> Self {
        let positions = (0..n)
            .map(|i| Position {
                x: i as f64 * 10.0,
                y: 0.0,
            })
            .collect::<Vec<_>>();
        let mut links = vec![Vec::new(); n];
        for (i, node_links) in links.iter_mut().enumerate() {
            if i > 0 {
                node_links.push(Link {
                    to: NodeId(i as u32 - 1),
                    prr,
                });
            }
            if i + 1 < n {
                node_links.push(Link {
                    to: NodeId(i as u32 + 1),
                    prr,
                });
            }
        }
        Topology { positions, links }
    }

    /// A `side × side` grid with the given spacing in meters, under the
    /// default mica2-flavored link model.
    ///
    /// `spacing ≈ 8` reproduces the *tight* (high-density) 15×15 grid;
    /// `spacing ≈ 15` the *medium* (low-density) one.
    pub fn grid(side: usize, spacing: f64, seed: u64) -> Self {
        let positions = (0..side * side)
            .map(|i| Position {
                x: (i % side) as f64 * spacing,
                y: (i / side) as f64 * spacing,
            })
            .collect();
        Self::from_positions(positions, LinkModel::default(), seed)
    }

    /// `n` nodes placed uniformly at random in a `width × height` area.
    pub fn random(n: usize, width: f64, height: f64, seed: u64) -> Self {
        let mut rng = DetRng::seed_from_u64(seed);
        let positions = (0..n)
            .map(|_| Position {
                x: rng.gen::<f64>() * width,
                y: rng.gen::<f64>() * height,
            })
            .collect();
        Self::from_positions(positions, LinkModel::default(), seed)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Node positions.
    pub fn positions(&self) -> &[Position] {
        &self.positions
    }

    /// Outgoing links of `node`.
    pub fn links_from(&self, node: NodeId) -> &[Link] {
        &self.links[node.index()]
    }

    /// Whether `b` can hear `a` at all.
    pub fn in_range(&self, a: NodeId, b: NodeId) -> bool {
        self.links[a.index()].iter().any(|l| l.to == b)
    }

    /// Packet-reception ratio of the link from `from` to `to` (0 when
    /// `to` cannot hear `from`).
    pub fn prr(&self, from: NodeId, to: NodeId) -> f64 {
        self.links[from.index()]
            .iter()
            .find(|l| l.to == to)
            .map_or(0.0, |l| l.prr)
    }

    /// Average out-degree (diagnostic for density classification).
    pub fn mean_degree(&self) -> f64 {
        if self.positions.is_empty() {
            return 0.0;
        }
        self.links.iter().map(|l| l.len()).sum::<usize>() as f64 / self.positions.len() as f64
    }

    /// Whether the directed link graph is strongly connected (every node
    /// reachable from node 0 and vice versa), which dissemination needs.
    pub fn is_connected(&self) -> bool {
        if self.positions.is_empty() {
            return true;
        }
        let reach = |start: usize, reverse: bool| {
            let mut seen = vec![false; self.positions.len()];
            let mut stack = vec![start];
            seen[start] = true;
            while let Some(u) = stack.pop() {
                for (v, seen_v) in seen.iter_mut().enumerate() {
                    let connected = if reverse {
                        self.links[v].iter().any(|l| l.to.index() == u)
                    } else {
                        self.links[u].iter().any(|l| l.to.index() == v)
                    };
                    if connected && !*seen_v {
                        *seen_v = true;
                        stack.push(v);
                    }
                }
            }
            seen.into_iter().filter(|&s| s).count()
        };
        reach(0, false) == self.positions.len() && reach(0, true) == self.positions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_is_fully_connected() {
        let t = Topology::star(5);
        assert_eq!(t.len(), 5);
        for i in 0..5u32 {
            assert_eq!(t.links_from(NodeId(i)).len(), 4);
            for l in t.links_from(NodeId(i)) {
                assert_eq!(l.prr, 1.0);
            }
        }
        assert!(t.is_connected());
    }

    #[test]
    fn line_links_adjacent_only() {
        let t = Topology::line(4, 0.9);
        assert_eq!(t.links_from(NodeId(0)).len(), 1);
        assert_eq!(t.links_from(NodeId(1)).len(), 2);
        assert!(t.in_range(NodeId(1), NodeId(2)));
        assert!(!t.in_range(NodeId(0), NodeId(2)));
        assert!(t.is_connected());
    }

    #[test]
    fn grid_densities_differ() {
        let tight = Topology::grid(15, 8.0, 1);
        let medium = Topology::grid(15, 15.0, 1);
        assert_eq!(tight.len(), 225);
        assert_eq!(medium.len(), 225);
        assert!(
            tight.mean_degree() > medium.mean_degree() * 1.5,
            "tight {} vs medium {}",
            tight.mean_degree(),
            medium.mean_degree()
        );
        assert!(tight.is_connected());
        assert!(medium.is_connected());
    }

    #[test]
    fn link_model_monotone() {
        let m = LinkModel::default();
        assert!(m.mean_prr(0.0) > 0.9);
        assert_eq!(m.mean_prr(100.0), 0.0);
        let mut last = 1.0;
        for d in 0..40 {
            let prr = m.mean_prr(d as f64);
            assert!(prr <= last + 1e-12, "PRR not monotone at d={d}");
            last = prr;
        }
    }

    #[test]
    fn topology_deterministic_for_seed() {
        let a = Topology::grid(5, 10.0, 7);
        let b = Topology::grid(5, 10.0, 7);
        for i in 0..25u32 {
            assert_eq!(a.links_from(NodeId(i)), b.links_from(NodeId(i)));
        }
    }

    #[test]
    fn random_topology_in_bounds() {
        let t = Topology::random(50, 100.0, 60.0, 3);
        for p in t.positions() {
            assert!(p.x >= 0.0 && p.x <= 100.0);
            assert!(p.y >= 0.0 && p.y <= 60.0);
        }
    }
}
