//! Congestion-aware global routing over the tile grid.
//!
//! Each net is routed as a star of two-pin connections (source → each
//! sink) with Dijkstra over the channel graph; edge costs grow with usage,
//! and two negotiation passes rip up and re-route everything with updated
//! congestion costs — a miniature PathFinder. The result records per-
//! connection hop counts and the channel overuse the timing model converts
//! into delay.
//!
//! One call to [`route`] allocates its search state once: every Dijkstra
//! search reuses the same distance, predecessor and heap scratch, and each
//! re-route rewrites its connection's path in place.

use crate::arch::{FpgaArch, FpgaFlavor};
use crate::circuit::Circuit;
use crate::place::Placement;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One routed two-pin connection.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedConnection {
    /// Driving block.
    pub source: usize,
    /// Sink block.
    pub sink: usize,
    /// Channel segments crossed.
    pub hops: usize,
    /// Mean overuse (usage beyond capacity) of the crossed segments after
    /// the final pass.
    pub mean_overuse: f64,
}

/// Outcome of routing a circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingResult {
    /// All routed connections, in net order.
    pub connections: Vec<RoutedConnection>,
    /// Sum of hops over all connections.
    pub total_wirelength: usize,
    /// Highest usage of any channel segment.
    pub max_channel_usage: usize,
    /// Channel segments used beyond capacity.
    pub overused_segments: usize,
    /// Track capacity the routing was negotiated against.
    pub channel_capacity: usize,
}

impl RoutingResult {
    /// Fraction of used segments that are overused — a congestion score.
    pub fn congestion(&self) -> f64 {
        if self.connections.is_empty() {
            return 0.0;
        }
        let total: f64 = self.connections.iter().map(|c| c.mean_overuse).sum();
        total / self.connections.len() as f64
    }
}

/// Route every connection of `circuit` (under the placement's flavor) on
/// `arch`'s channel graph.
///
/// # Panics
///
/// Panics if the placement refers to tiles outside the die.
pub fn route(circuit: &Circuit, placement: &Placement, arch: &FpgaArch) -> RoutingResult {
    let grid = arch.grid;
    let n_edges = 2 * grid * (grid - 1);
    let mut usage = vec![0u32; n_edges.max(1)];

    // Collect two-pin connections.
    let flavor: FpgaFlavor = placement.flavor();
    let mut pins: Vec<(usize, usize)> = Vec::new();
    for net in circuit.routed_nets(flavor) {
        for &s in &net.sinks {
            pins.push((net.source, s));
        }
    }

    // Negotiated congestion: three passes with growing penalty.
    let mut paths: Vec<Vec<usize>> = vec![Vec::new(); pins.len()];
    let mut search = Search::new(grid);
    for pass in 0..3 {
        let penalty = 2.0 + 4.0 * pass as f64;
        for (&(src, dst), path) in pins.iter().zip(&mut paths) {
            // Rip up the previous path.
            for &e in path.iter() {
                usage[e] -= 1;
            }
            let from = placement.tile(src);
            let to = placement.tile(dst);
            search.shortest_path(from, to, &usage, arch.channel_capacity, penalty, path);
            for &e in path.iter() {
                usage[e] += 1;
            }
        }
    }

    let connections: Vec<RoutedConnection> = pins
        .iter()
        .zip(&paths)
        .map(|(&(src, dst), path)| {
            let over: f64 = path
                .iter()
                .map(|&e| (usage[e] as f64 - arch.channel_capacity as f64).max(0.0))
                .sum();
            RoutedConnection {
                source: src,
                sink: dst,
                hops: path.len(),
                mean_overuse: if path.is_empty() {
                    0.0
                } else {
                    over / path.len() as f64
                },
            }
        })
        .collect();

    let total_wirelength = connections.iter().map(|c| c.hops).sum();
    let max_channel_usage = usage.iter().copied().max().unwrap_or(0) as usize;
    let overused_segments = usage
        .iter()
        .filter(|&&u| u as usize > arch.channel_capacity)
        .count();
    RoutingResult {
        connections,
        total_wirelength,
        max_channel_usage,
        overused_segments,
        channel_capacity: arch.channel_capacity,
    }
}

/// Edge index of the channel segment between adjacent tiles `a` and `b`.
fn edge_index(grid: usize, a: usize, b: usize) -> usize {
    let (lo, hi) = (a.min(b), a.max(b));
    let (x, y) = (lo % grid, lo / grid);
    if hi == lo + 1 {
        // Horizontal segment.
        y * (grid - 1) + x
    } else {
        // Vertical segment, offset past all horizontal ones.
        grid * (grid - 1) + x * (grid - 1) + y
    }
}

/// The tiles adjacent to `t`, in left, right, up, down order.
fn neighbors(grid: usize, t: usize) -> impl Iterator<Item = usize> {
    let x = t % grid;
    let y = t / grid;
    [
        (x > 0).then(|| t - 1),
        (x + 1 < grid).then(|| t + 1),
        (y > 0).then(|| t - grid),
        (y + 1 < grid).then(|| t + grid),
    ]
    .into_iter()
    .flatten()
}

/// Dijkstra over the channel graph, its state reused across the searches
/// of one [`route`] call.
struct Search {
    grid: usize,
    dist: Vec<f64>,
    prev: Vec<Option<usize>>,
    // Ordered on bit-cast cost, which keeps the heap total-ordered (costs
    // are non-negative finite).
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl Search {
    fn new(grid: usize) -> Search {
        Search {
            grid,
            dist: vec![f64::INFINITY; grid * grid],
            prev: vec![None; grid * grid],
            heap: BinaryHeap::new(),
        }
    }

    /// Shortest path from tile `from` to `to` under congestion costs,
    /// written into `path` as a list of edge indices. Same-tile
    /// connections get an empty path.
    fn shortest_path(
        &mut self,
        from: usize,
        to: usize,
        usage: &[u32],
        capacity: usize,
        penalty: f64,
        path: &mut Vec<usize>,
    ) {
        path.clear();
        if from == to {
            return;
        }
        let grid = self.grid;
        self.dist.fill(f64::INFINITY);
        self.prev.fill(None);
        self.heap.clear();
        self.dist[from] = 0.0;
        self.heap.push(Reverse((0, from)));
        while let Some(Reverse((dbits, t))) = self.heap.pop() {
            let d = f64::from_bits(dbits);
            if d > self.dist[t] {
                continue;
            }
            if t == to {
                break;
            }
            for nb in neighbors(grid, t) {
                let e = edge_index(grid, t, nb);
                let over = (usage[e] as f64 + 1.0 - capacity as f64).max(0.0);
                let cost = 1.0 + penalty * over;
                let nd = d + cost;
                if nd < self.dist[nb] {
                    self.dist[nb] = nd;
                    self.prev[nb] = Some(t);
                    self.heap.push(Reverse((nd.to_bits(), nb)));
                }
            }
        }
        // Reconstruct the edge list.
        let mut cur = to;
        while cur != from {
            let p = self.prev[cur].expect("grid graph is connected");
            path.push(edge_index(grid, p, cur));
            cur = p;
        }
        path.reverse();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::place;

    fn routed(flavor: FpgaFlavor) -> (Circuit, RoutingResult) {
        let circuit = Circuit::random(40, 3, 0.9, 5);
        let arch = FpgaArch::sized_for(40, 0.99);
        let p = place(&circuit, &arch, flavor, 42);
        let r = route(&circuit, &p, &arch);
        (circuit, r)
    }

    #[test]
    fn every_connection_is_routed() {
        let (circuit, r) = routed(FpgaFlavor::Standard);
        let expected: usize = circuit
            .routed_nets(FpgaFlavor::Standard)
            .iter()
            .map(|n| n.sinks.len())
            .sum();
        assert_eq!(r.connections.len(), expected);
    }

    #[test]
    fn hops_bound_by_manhattan_distance_unloaded() {
        // On an empty die every path must be ≥ Manhattan distance.
        let circuit = Circuit::random(10, 2, 0.0, 3);
        let arch = FpgaArch::new(8);
        let p = place(&circuit, &arch, FpgaFlavor::Standard, 1);
        let r = route(&circuit, &p, &arch);
        for c in &r.connections {
            let (x1, y1) = p.coords(c.source);
            let (x2, y2) = p.coords(c.sink);
            let manhattan = x1.abs_diff(x2) + y1.abs_diff(y2);
            assert!(c.hops >= manhattan, "path shorter than Manhattan?");
        }
    }

    #[test]
    fn cnfet_routes_fewer_connections() {
        let (_, std_r) = routed(FpgaFlavor::Standard);
        let (_, cn_r) = routed(FpgaFlavor::CnfetPla);
        assert!(cn_r.connections.len() < std_r.connections.len());
        assert!(cn_r.total_wirelength < std_r.total_wirelength);
    }

    #[test]
    fn congested_die_shows_higher_usage_than_sparse() {
        let dense = {
            let circuit = Circuit::random(60, 4, 1.0, 5);
            let arch = FpgaArch::sized_for(60, 0.99);
            let p = place(&circuit, &arch, FpgaFlavor::Standard, 1);
            route(&circuit, &p, &arch)
        };
        let sparse = {
            let circuit = Circuit::random(60, 4, 1.0, 5);
            let arch = FpgaArch::sized_for(60, 0.30);
            let p = place(&circuit, &arch, FpgaFlavor::Standard, 1);
            route(&circuit, &p, &arch)
        };
        assert!(dense.max_channel_usage >= sparse.max_channel_usage);
    }

    #[test]
    fn edge_indices_are_unique_and_in_range() {
        let grid = 5;
        let n_edges = 2 * grid * (grid - 1);
        let mut seen = vec![false; n_edges];
        for t in 0..grid * grid {
            for nb in neighbors(grid, t) {
                if nb > t {
                    let e = edge_index(grid, t, nb);
                    assert!(e < n_edges, "edge index out of range");
                    assert!(!seen[e], "duplicate edge index {e}");
                    seen[e] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "every edge indexed");
    }

    #[test]
    fn same_tile_connection_has_zero_hops() {
        // Two CNFET blocks in one tile talk for free.
        let circuit = Circuit::new(
            2,
            vec![crate::circuit::Net {
                source: 0,
                sinks: vec![1],
                is_complement: false,
            }],
        );
        let arch = FpgaArch::new(2);
        // Manual placement via place(): with 1 tile needed the packer puts
        // both blocks on tile 0 in CnfetPla mode.
        let p = place(&circuit, &arch, FpgaFlavor::CnfetPla, 0);
        let r = route(&circuit, &p, &arch);
        if p.tile(0) == p.tile(1) {
            assert_eq!(r.connections[0].hops, 0);
        }
    }
}
