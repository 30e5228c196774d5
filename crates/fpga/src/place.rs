//! Simulated-annealing placement.
//!
//! Classic VPR-style annealing: blocks live in tile slots (two slots per
//! tile for half-area CLBs), the cost is the half-perimeter wirelength
//! (HPWL) of the routed nets, and moves are block relocations or swaps.
//! Deterministic for a given seed.
//!
//! The cost is kept incrementally, after VPR's bounding-box cost (Betz &
//! Rose, FPL 1997). Each routed net's HPWL is cached, and a move
//! re-measures only the nets of the block it moves and of its swap
//! partner, each net once. HPWL is an integer, so the running total, and
//! hence every move's cost delta, is exactly what a full re-measure would
//! give: each accept decision, the RNG stream behind it and the final
//! placement are those of the from-scratch loop. Debug builds check the
//! total against [`Placement::hpwl`] after every temperature stage.

use crate::arch::{FpgaArch, FpgaFlavor};
use crate::circuit::{Circuit, Net};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// One temperature stage of the annealing schedule, as observed by
/// [`place_traced`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealStage {
    /// Temperature the stage ran at.
    pub temperature: f64,
    /// Moves attempted (skipped self-moves are not counted).
    pub moves: usize,
    /// Moves accepted (downhill, or uphill by Metropolis).
    pub accepts: usize,
    /// HPWL cost at the end of the stage.
    pub cost: f64,
    /// Wall time spent in the stage, in nanoseconds.
    pub wall_ns: u64,
}

/// Profile of one annealing run: one [`AnnealStage`] per temperature,
/// in schedule order. Same hook shape as
/// `logic::MinimizeTrace` — the traced entry point is [`place_traced`],
/// and [`place`] itself never reads a clock.
#[derive(Debug, Clone, Default)]
pub struct AnnealTrace {
    /// Per-temperature samples, hottest first.
    pub stages: Vec<AnnealStage>,
}

impl AnnealTrace {
    /// Total moves attempted across all stages.
    pub fn total_moves(&self) -> usize {
        self.stages.iter().map(|s| s.moves).sum()
    }

    /// Total moves accepted across all stages.
    pub fn total_accepts(&self) -> usize {
        self.stages.iter().map(|s| s.accepts).sum()
    }

    /// Cost at the end of each stage, hottest first.
    pub fn cost_trajectory(&self) -> Vec<f64> {
        self.stages.iter().map(|s| s.cost).collect()
    }

    /// Total wall time across all stages, in nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.stages.iter().map(|s| s.wall_ns).sum()
    }
}

/// A placement: one tile per block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    tile_of: Vec<usize>,
    grid: usize,
    flavor: FpgaFlavor,
}

impl Placement {
    /// The tile index of `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn tile(&self, block: usize) -> usize {
        self.tile_of[block]
    }

    /// `(x, y)` coordinates of `block`'s tile.
    pub fn coords(&self, block: usize) -> (usize, usize) {
        let t = self.tile_of[block];
        (t % self.grid, t / self.grid)
    }

    /// The flavor this placement was made for.
    pub fn flavor(&self) -> FpgaFlavor {
        self.flavor
    }

    /// Half-perimeter wirelength of the nets routed under this placement's
    /// flavor.
    pub fn hpwl(&self, circuit: &Circuit) -> usize {
        circuit
            .routed_nets(self.flavor)
            .iter()
            .map(|net| net_hpwl(net, |b| self.coords(b)))
            .sum()
    }
}

/// Half-perimeter of the bounding box of `net`'s pins, each block located
/// by `xy`.
fn net_hpwl(net: &Net, xy: impl Fn(usize) -> (usize, usize)) -> usize {
    let (mut xmin, mut ymin) = xy(net.source);
    let (mut xmax, mut ymax) = (xmin, ymin);
    for &s in &net.sinks {
        let (x, y) = xy(s);
        xmin = xmin.min(x);
        xmax = xmax.max(x);
        ymin = ymin.min(y);
        ymax = ymax.max(y);
    }
    (xmax - xmin) + (ymax - ymin)
}

/// Place `circuit` on `arch` under `flavor` with simulated annealing.
///
/// # Panics
///
/// Panics if the circuit does not fit the die's slots.
pub fn place(circuit: &Circuit, arch: &FpgaArch, flavor: FpgaFlavor, seed: u64) -> Placement {
    anneal(circuit, arch, flavor, seed, None)
}

/// [`place`], also returning a per-temperature [`AnnealTrace`].
///
/// The placement is identical to the untraced run for the same seed;
/// the only extra cost is one clock read per temperature stage.
pub fn place_traced(
    circuit: &Circuit,
    arch: &FpgaArch,
    flavor: FpgaFlavor,
    seed: u64,
) -> (Placement, AnnealTrace) {
    let mut trace = AnnealTrace::default();
    let placement = anneal(circuit, arch, flavor, seed, Some(&mut trace));
    (placement, trace)
}

/// Marks a free slot in `anneal`'s per-tile occupant table.
const FREE: usize = usize::MAX;

fn anneal(
    circuit: &Circuit,
    arch: &FpgaArch,
    flavor: FpgaFlavor,
    seed: u64,
    mut trace: Option<&mut AnnealTrace>,
) -> Placement {
    let slots_per_tile = flavor.clbs_per_tile();
    let capacity = arch.slots(flavor);
    let n = circuit.n_blocks();
    assert!(
        n <= capacity,
        "{n} blocks exceed {capacity} slots on a {0}x{0} die",
        arch.grid
    );
    // Initial placement: row-major compact fill (good starting point, and
    // exactly what a greedy packer would do).
    let mut placement = Placement {
        tile_of: (0..n).map(|b| b / slots_per_tile).collect(),
        grid: arch.grid,
        flavor,
    };
    if n == 0 {
        // No block to draw a move for.
        return placement;
    }

    // State built once per call: each block's routed nets, each tile's
    // coordinates, each net's cached HPWL and their total, and each
    // tile's occupants, `FREE`-padded to `slots_per_tile`.
    let nets = circuit.routed_nets(flavor);
    let mut nets_of: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (k, net) in nets.iter().enumerate() {
        for &b in std::iter::once(&net.source).chain(&net.sinks) {
            nets_of[b].push(k);
        }
    }
    let tile_xy: Vec<(usize, usize)> = (0..arch.tiles())
        .map(|t| (t % arch.grid, t / arch.grid))
        .collect();
    let mut net_cost: Vec<usize> = nets
        .iter()
        .map(|net| net_hpwl(net, |b| tile_xy[placement.tile_of[b]]))
        .collect();
    let mut total: usize = net_cost.iter().sum();
    let mut occupants = vec![FREE; arch.tiles() * slots_per_tile];
    for (b, &t) in placement.tile_of.iter().enumerate() {
        occupants[t * slots_per_tile + b % slots_per_tile] = b;
    }
    // Per-move scratch: the re-measured nets as `(net, new HPWL)`, and
    // the number of the last move that re-measured each net.
    let mut remeasured: Vec<(usize, usize)> = Vec::with_capacity(nets.len());
    let mut measured_in = vec![0usize; nets.len()];
    let mut move_no = 0usize;

    let mut rng = StdRng::seed_from_u64(seed);
    // Annealing schedule: geometric cooling, move budget scaled to size.
    let moves_per_temp = (16 * n).max(64);
    let mut temp = (total as f64 / n as f64).max(1.0);
    let t_min = 0.01;
    let mut started = trace.as_ref().map(|_| Instant::now());
    while temp > t_min {
        let mut moves = 0usize;
        let mut accepts = 0usize;
        for _ in 0..moves_per_temp {
            let b = rng.gen_range(0..n);
            let old_tile = placement.tile_of[b];
            let new_tile = rng.gen_range(0..arch.tiles());
            if new_tile == old_tile {
                continue;
            }
            moves += 1;
            move_no += 1;
            // Either move into a free slot or swap with the lowest-index
            // block on the target tile.
            let on_new = new_tile * slots_per_tile..(new_tile + 1) * slots_per_tile;
            let target = match on_new.clone().find(|&s| occupants[s] == FREE) {
                Some(free) => free,
                None => on_new
                    .min_by_key(|&s| occupants[s])
                    .expect("tiles have slots"),
            };
            let swap_with = Some(occupants[target]).filter(|&o| o != FREE);
            // Apply tentatively and re-measure the moved blocks' nets.
            placement.tile_of[b] = new_tile;
            if let Some(o) = swap_with {
                placement.tile_of[o] = old_tile;
            }
            remeasured.clear();
            let (mut removed, mut added) = (0, 0);
            for moved in std::iter::once(b).chain(swap_with) {
                for &k in &nets_of[moved] {
                    if measured_in[k] != move_no {
                        measured_in[k] = move_no;
                        let h = net_hpwl(nets[k], |p| tile_xy[placement.tile_of[p]]);
                        removed += net_cost[k];
                        added += h;
                        remeasured.push((k, h));
                    }
                }
            }
            let new_total = total - removed + added;
            let delta = new_total as f64 - total as f64;
            let accept = delta <= 0.0 || rng.gen_bool((-delta / temp).exp().clamp(0.0, 1.0));
            if accept {
                accepts += 1;
                total = new_total;
                for &(k, h) in &remeasured {
                    net_cost[k] = h;
                }
                let b_slot = (old_tile * slots_per_tile..(old_tile + 1) * slots_per_tile)
                    .find(|&s| occupants[s] == b)
                    .expect("a block occupies a slot of its tile");
                // b's old slot takes the partner, or falls free.
                occupants[b_slot] = occupants[target];
                occupants[target] = b;
            } else {
                // Revert.
                placement.tile_of[b] = old_tile;
                if let Some(o) = swap_with {
                    placement.tile_of[o] = new_tile;
                }
            }
        }
        debug_assert_eq!(
            total,
            placement.hpwl(circuit),
            "incremental HPWL drifted from a full re-measure"
        );
        if let Some(tr) = trace.as_deref_mut() {
            let now = Instant::now();
            tr.stages.push(AnnealStage {
                temperature: temp,
                moves,
                accepts,
                cost: total as f64,
                wall_ns: (now - started.unwrap()).as_nanos() as u64,
            });
            started = Some(now);
        }
        temp *= 0.8;
    }
    placement
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(flavor: FpgaFlavor) -> (Circuit, FpgaArch, Placement) {
        let circuit = Circuit::random(40, 3, 0.9, 5);
        let arch = FpgaArch::sized_for(40, 0.99);
        let p = place(&circuit, &arch, flavor, 42);
        (circuit, arch, p)
    }

    #[test]
    fn capacity_respected_standard() {
        let (_, arch, p) = setup(FpgaFlavor::Standard);
        let mut used = vec![0usize; arch.tiles()];
        for b in 0..40 {
            used[p.tile(b)] += 1;
        }
        assert!(used.iter().all(|&u| u <= 1));
    }

    #[test]
    fn capacity_respected_cnfet() {
        let (_, arch, p) = setup(FpgaFlavor::CnfetPla);
        let mut used = vec![0usize; arch.tiles()];
        for b in 0..40 {
            used[p.tile(b)] += 1;
        }
        assert!(used.iter().all(|&u| u <= 2));
    }

    #[test]
    fn annealing_beats_or_matches_initial() {
        let circuit = Circuit::random(40, 3, 0.9, 5);
        let arch = FpgaArch::sized_for(40, 0.99);
        let initial = Placement {
            tile_of: (0..40).collect(),
            grid: arch.grid,
            flavor: FpgaFlavor::Standard,
        };
        let optimized = place(&circuit, &arch, FpgaFlavor::Standard, 42);
        assert!(optimized.hpwl(&circuit) <= initial.hpwl(&circuit));
    }

    #[test]
    fn placement_is_deterministic() {
        let circuit = Circuit::random(30, 3, 0.9, 5);
        let arch = FpgaArch::sized_for(30, 0.99);
        let a = place(&circuit, &arch, FpgaFlavor::Standard, 1);
        let b = place(&circuit, &arch, FpgaFlavor::Standard, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn half_area_blocks_pack_tighter() {
        // With two blocks per tile the same circuit should achieve a
        // smaller or equal wirelength — the density half of the paper's
        // frequency argument.
        let circuit = Circuit::random(60, 3, 0.9, 5);
        let arch = FpgaArch::sized_for(60, 0.99);
        let std_p = place(&circuit, &arch, FpgaFlavor::Standard, 9);
        let cn_p = place(&circuit, &arch, FpgaFlavor::CnfetPla, 9);
        assert!(cn_p.hpwl(&circuit) <= std_p.hpwl(&circuit));
    }

    #[test]
    fn traced_run_matches_untraced_and_profiles_every_stage() {
        let circuit = Circuit::random(30, 3, 0.9, 5);
        let arch = FpgaArch::sized_for(30, 0.99);
        let plain = place(&circuit, &arch, FpgaFlavor::Standard, 7);
        let (traced, trace) = place_traced(&circuit, &arch, FpgaFlavor::Standard, 7);
        // Tracing must not perturb the anneal: same RNG stream, same result.
        assert_eq!(plain, traced);
        // Geometric cooling from T0 to 0.01 gives a known stage count.
        assert!(!trace.stages.is_empty());
        let temps: Vec<f64> = trace.stages.iter().map(|s| s.temperature).collect();
        assert!(temps.windows(2).all(|w| w[1] < w[0]), "cooling monotone");
        assert!(trace.total_moves() >= trace.total_accepts());
        assert!(trace.total_accepts() > 0);
        assert_eq!(
            trace.cost_trajectory().last().copied().unwrap(),
            traced.hpwl(&circuit) as f64
        );
        assert_eq!(trace.cost_trajectory().len(), trace.stages.len());
    }

    #[test]
    fn empty_and_single_block_circuits_place_and_emulate() {
        // An empty circuit is valid: it places without drawing a move, and
        // the whole flow runs on it.
        let empty = Circuit::new(0, vec![]);
        let arch = FpgaArch::new(1);
        for flavor in [FpgaFlavor::Standard, FpgaFlavor::CnfetPla] {
            let (p, trace) = place_traced(&empty, &arch, flavor, 3);
            assert_eq!(p.hpwl(&empty), 0);
            assert!(trace.stages.is_empty());
            let r = crate::emulate(&empty, &arch, flavor, 3);
            assert_eq!((r.routed_connections, r.wirelength), (0, 0));
            assert!(r.frequency > 0.0);
        }
        // One block on a one-tile die: every drawn move is a self-move.
        let single = Circuit::new(1, vec![]);
        let (p, trace) = place_traced(&single, &arch, FpgaFlavor::Standard, 3);
        assert_eq!(p.tile(0), 0);
        assert_eq!(trace.total_moves(), 0);
        let r = crate::emulate(&single, &arch, FpgaFlavor::Standard, 3);
        assert_eq!(r.occupancy, 1.0);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn oversubscription_panics() {
        let circuit = Circuit::random(50, 2, 0.5, 1);
        let arch = FpgaArch::new(3); // 9 tiles — far too small
        let _ = place(&circuit, &arch, FpgaFlavor::Standard, 0);
    }
}
