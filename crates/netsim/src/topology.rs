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

/// Nodes binned into square cells a little wider than a link model's
/// reach, so that two nodes in range always lie in the same or adjacent
/// cells.
///
/// Node ids are sorted once by (cell row, cell column, id), so each cell
/// is one contiguous run of ids and so is each row of three cells in a
/// node's 3×3 block; binary search finds the runs. Memory is O(n)
/// whatever area the nodes span.
struct Cells {
    /// Each node's cell, by id, as `row << 32 | column`.
    cell: Vec<u64>,
    /// The cells of the nodes in sorted order.
    sorted_cells: Vec<u64>,
    /// The node ids in sorted order.
    sorted_ids: Vec<u32>,
}

impl Cells {
    fn new(positions: &[Position], reach: f64) -> Self {
        let (min_x, max_x, min_y, max_y) = positions.iter().fold(
            (
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ),
            |(x0, x1, y0, y1), p| (x0.min(p.x), x1.max(p.x), y0.min(p.y), y1.max(p.y)),
        );
        // Rounding in the offsets below and in `Position::distance` is a
        // few ulps of the span and of the reach; this margin dwarfs both,
        // so an exact cell boundary cannot put an in-range pair two cells
        // apart.
        let span = (max_x - min_x).max(max_y - min_y);
        let width = reach * (1.0 + 1e-9) + span * 1e-12;
        // `as` saturates (and sends NaN to 0): a monotone clamp that may
        // merge cells but never separates neighbours.
        let cell: Vec<u64> = positions
            .iter()
            .map(|p| {
                let row = ((p.y - min_y) / width) as u32;
                let col = ((p.x - min_x) / width) as u32;
                u64::from(row) << 32 | u64::from(col)
            })
            .collect();
        let mut order: Vec<(u64, u32)> = cell.iter().copied().zip(0..).collect();
        order.sort_unstable();
        let (sorted_cells, sorted_ids) = order.into_iter().unzip();
        Cells {
            cell,
            sorted_cells,
            sorted_ids,
        }
    }

    /// The ids in the 3×3 block of cells around `cell`: one run per cell
    /// row (empty past the edge of the row range), each sorted by
    /// (column, id).
    fn block(&self, cell: u64) -> [&[u32]; 3] {
        let (row, col) = ((cell >> 32) as u32, cell as u32);
        let (first, last) = (col.saturating_sub(1), col.saturating_add(1));
        let run = |r: u32| {
            let key = |c: u32| u64::from(r) << 32 | u64::from(c);
            let lo = self.sorted_cells.partition_point(|&k| k < key(first));
            let hi = self.sorted_cells.partition_point(|&k| k <= key(last));
            &self.sorted_ids[lo..hi]
        };
        [row.checked_sub(1), Some(row), row.checked_add(1)].map(|r| r.map_or(&[][..], run))
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
    /// Node `i` gets a link to every `j ≠ i` with `model.mean_prr(d) > 0`
    /// at distance `d`, scaled by per-link shadowing jitter sampled
    /// deterministically from `seed`: one draw per such pair, for `j`
    /// ascending within `i` ascending, and links whose jittered PRR is at
    /// most 0.01 are dropped.
    ///
    /// Candidates come from a search of each node's 3×3 block of
    /// reach-wide cells rather than all `n²` pairs, so the cost is O(n·d)
    /// pair tests for mean degree `d`, one O(n log n) sort of the cells
    /// and an O(d log d) sort per node; the pairs, their order and the
    /// draws are exactly those of an all-pairs scan.
    ///
    /// Coordinates and the model's radii must be finite (every grid,
    /// random placement and spec token gives finite ones).
    pub fn from_positions(positions: Vec<Position>, model: LinkModel, seed: u64) -> Self {
        let mut rng = DetRng::seed_from_u64(seed ^ 0x7090_70e0);
        let reach = model.connected_radius.max(model.max_radius);
        let cells = Cells::new(&positions, reach);
        // Squared distances past this are beyond the reach, where
        // `mean_prr` is 0: skipping them spares a square root per pair.
        let far = reach * reach * (1.0 + 1e-9);
        let mut near: Vec<(u32, f64)> = Vec::new();
        let mut kept: Vec<Link> = Vec::new();
        // Consecutive ids often share a cell: search once per change.
        let (mut cell, mut block) = (None, [&[][..]; 3]);
        let links = positions
            .iter()
            .enumerate()
            .map(|(i, p)| {
                if cell != Some(cells.cell[i]) {
                    cell = Some(cells.cell[i]);
                    block = cells.block(cells.cell[i]);
                }
                near.clear();
                for run in block {
                    for &j in run {
                        if j as usize == i {
                            continue;
                        }
                        let q = positions[j as usize];
                        let (dx, dy) = (p.x - q.x, p.y - q.y);
                        if dx * dx + dy * dy > far {
                            continue;
                        }
                        let mean = model.mean_prr(p.distance(&q));
                        if mean > 0.0 {
                            near.push((j, mean));
                        }
                    }
                }
                near.sort_unstable_by_key(|&(j, _)| j);
                kept.clear();
                for &(j, mean) in &near {
                    let jitter = 1.0 + model.shadowing_jitter * (rng.gen::<f64>() * 2.0 - 1.0);
                    let prr = (mean * jitter).clamp(0.0, 1.0);
                    if prr > 0.01 {
                        kept.push(Link { to: NodeId(j), prr });
                    }
                }
                kept.to_vec()
            })
            .collect();
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
    ///
    /// Two depth-first searches from node 0, forward over the links and
    /// backward over a reverse adjacency built once: O(n + links).
    pub fn is_connected(&self) -> bool {
        let n = self.positions.len();
        if n == 0 {
            return true;
        }
        if !reaches_all(n, |u| self.links[u].iter().map(|l| l.to.index())) {
            return false;
        }
        let mut reverse = vec![Vec::new(); n];
        for (u, out) in self.links.iter().enumerate() {
            for l in out {
                reverse[l.to.index()].push(u);
            }
        }
        reaches_all(n, |v| reverse[v].iter().copied())
    }
}

/// Whether a depth-first search from node 0 over `next` reaches all `n`
/// nodes.
fn reaches_all<I: Iterator<Item = usize>>(n: usize, next: impl Fn(usize) -> I) -> bool {
    let mut seen = vec![false; n];
    seen[0] = true;
    let mut reached = 1;
    let mut stack = vec![0];
    while let Some(u) = stack.pop() {
        for v in next(u) {
            if !seen[v] {
                seen[v] = true;
                reached += 1;
                stack.push(v);
            }
        }
    }
    reached == n
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

    // `from_positions` and `is_connected` against the quadratic
    // algorithms they replaced, which survive only here as references.

    /// The all-pairs construction: every ordered pair, one jitter draw
    /// per pair with positive mean PRR.
    fn all_pairs(positions: Vec<Position>, model: LinkModel, seed: u64) -> Topology {
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

    /// The rescanning connectivity check: every pop scans all n nodes.
    fn connected_by_rescan(t: &Topology) -> bool {
        if t.positions.is_empty() {
            return true;
        }
        let reach = |start: usize, reverse: bool| {
            let mut seen = vec![false; t.positions.len()];
            let mut stack = vec![start];
            seen[start] = true;
            while let Some(u) = stack.pop() {
                for (v, seen_v) in seen.iter_mut().enumerate() {
                    let connected = if reverse {
                        t.links[v].iter().any(|l| l.to.index() == u)
                    } else {
                        t.links[u].iter().any(|l| l.to.index() == v)
                    };
                    if connected && !*seen_v {
                        *seen_v = true;
                        stack.push(v);
                    }
                }
            }
            seen.into_iter().filter(|&s| s).count()
        };
        reach(0, false) == t.positions.len() && reach(0, true) == t.positions.len()
    }

    /// `Topology::grid`'s placement, without building its links.
    fn grid_positions(side: usize, spacing: f64) -> Vec<Position> {
        (0..side * side)
            .map(|i| Position {
                x: (i % side) as f64 * spacing,
                y: (i / side) as f64 * spacing,
            })
            .collect()
    }

    /// Builds `positions` both ways and requires equal positions, the
    /// same links in the same order, and bit-equal PRRs.
    fn assert_matches_all_pairs(positions: Vec<Position>, model: LinkModel, seed: u64) {
        let want = all_pairs(positions.clone(), model, seed);
        let got = Topology::from_positions(positions, model, seed);
        assert_eq!(got.positions, want.positions);
        assert_eq!(got.links.len(), want.links.len());
        let bits = |links: &[Link]| -> Vec<(NodeId, u64)> {
            links.iter().map(|l| (l.to, l.prr.to_bits())).collect()
        };
        for (i, (g, w)) in got.links.iter().zip(&want.links).enumerate() {
            assert!(
                bits(g) == bits(w),
                "node {i} of {} (seed {seed}, {model:?}): {} links, all-pairs {}",
                want.len(),
                g.len(),
                w.len()
            );
        }
    }

    fn narrow() -> LinkModel {
        LinkModel {
            max_radius: 15.0,
            ..LinkModel::default()
        }
    }

    /// Reception ends at `connected_radius`, inclusive, rather than
    /// strictly before `max_radius`.
    fn flat() -> LinkModel {
        LinkModel {
            connected_radius: 20.0,
            max_radius: 10.0,
            shadowing_jitter: 0.15,
        }
    }

    #[test]
    fn cell_search_matches_all_pairs_on_grids() {
        for side in [1, 2, 15, 56] {
            for spacing in [0.0, 7.5, 8.0, 10.0, 15.0, 30.0, 31.0] {
                // One seed at 56 keeps the debug run short: co-located,
                // its 3136 nodes link every ordered pair.
                let seeds = if side == 56 { 0..1 } else { 0..3 };
                for seed in seeds {
                    assert_matches_all_pairs(
                        grid_positions(side, spacing),
                        LinkModel::default(),
                        seed,
                    );
                }
            }
        }
    }

    #[test]
    fn cell_search_matches_all_pairs_on_random_placements() {
        for seed in 0..4 {
            let positions = Topology::random(300, 200.0, 150.0, seed).positions;
            let shifted = positions
                .iter()
                .map(|p| Position {
                    x: p.x - 1000.5,
                    y: p.y - 700.25,
                })
                .collect();
            assert_matches_all_pairs(positions, LinkModel::default(), seed);
            assert_matches_all_pairs(shifted, LinkModel::default(), seed);
        }
    }

    #[test]
    fn cell_search_matches_all_pairs_on_edge_cases() {
        assert_matches_all_pairs(Vec::new(), LinkModel::default(), 1);
        for seed in 0..3 {
            for model in [narrow(), flat()] {
                for spacing in [5.0, 7.5, 10.0, 15.0, 20.0] {
                    assert_matches_all_pairs(grid_positions(15, spacing), model, seed);
                }
                let positions = Topology::random(300, 200.0, 150.0, seed).positions;
                assert_matches_all_pairs(positions, model, seed);
            }
        }
    }

    /// The long form: the largest grids a campaign spec allows and a
    /// wide random field. Run with `cargo test -p lrs-netsim --release
    /// -- --ignored`.
    #[test]
    #[ignore]
    fn cell_search_matches_all_pairs_at_scale() {
        for seed in 0..3 {
            assert_matches_all_pairs(grid_positions(100, 10.0), LinkModel::default(), seed);
            assert_matches_all_pairs(grid_positions(128, 10.0), LinkModel::default(), seed);
            let positions = Topology::random(5000, 700.0, 700.0, seed).positions;
            assert_matches_all_pairs(positions, LinkModel::default(), seed);
        }
    }

    #[test]
    fn is_connected_matches_rescan() {
        // 0 → 1 → 2: node 0 reaches all, but nothing reaches node 0.
        let chain = Topology::from_parts(
            grid_positions(3, 10.0)[..3].to_vec(),
            vec![
                vec![Link {
                    to: NodeId(1),
                    prr: 1.0,
                }],
                vec![Link {
                    to: NodeId(2),
                    prr: 1.0,
                }],
                Vec::new(),
            ],
        );
        let cases = [
            (Topology::star(6), true),
            (Topology::line(5, 0.9), true),
            (Topology::grid(15, 8.0, 1), true),
            (Topology::grid(15, 15.0, 1), true),
            (Topology::grid(15, 31.0, 1), false),
            (Topology::random(60, 60.0, 60.0, 2), true),
            (chain, false),
        ];
        for (i, (t, connected)) in cases.iter().enumerate() {
            assert_eq!(t.is_connected(), *connected, "case {i}");
            assert_eq!(connected_by_rescan(t), *connected, "case {i}");
        }
    }
}
