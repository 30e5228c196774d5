//! Naive reference copy of the pre-incremental annealing placer.
//!
//! This module keeps, verbatim in algorithm and idiom, the `anneal` loop
//! that `fpga::place` replaced: every move re-measures the half-perimeter
//! wirelength (HPWL) of every routed net from scratch, copies the tile map
//! and scans all blocks for a swap partner. It exists so the incremental
//! placer is *differentially* tested: `tests/place_diff.rs` asserts both
//! produce the same tiles and the same per-stage trajectory.
//!
//! `Placement`'s fields are private to the crate, so the reference keeps
//! its own copy of the struct and of its `coords` / `hpwl` methods.

use fpga::{AnnealStage, AnnealTrace, Circuit, FpgaArch, FpgaFlavor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The reference's placement: one tile per block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    pub tile_of: Vec<usize>,
    grid: usize,
    flavor: FpgaFlavor,
}

impl Placement {
    /// `(x, y)` coordinates of `block`'s tile.
    pub fn coords(&self, block: usize) -> (usize, usize) {
        let t = self.tile_of[block];
        (t % self.grid, t / self.grid)
    }

    /// Half-perimeter wirelength of the nets routed under this placement's
    /// flavor.
    pub fn hpwl(&self, circuit: &Circuit) -> usize {
        circuit
            .routed_nets(self.flavor)
            .iter()
            .map(|net| {
                let (mut xmin, mut ymin) = self.coords(net.source);
                let (mut xmax, mut ymax) = (xmin, ymin);
                for &s in &net.sinks {
                    let (x, y) = self.coords(s);
                    xmin = xmin.min(x);
                    xmax = xmax.max(x);
                    ymin = ymin.min(y);
                    ymax = ymax.max(y);
                }
                (xmax - xmin) + (ymax - ymin)
            })
            .sum()
    }
}

/// The reference `place_traced`: the placement and its per-temperature
/// trace.
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

    let mut rng = StdRng::seed_from_u64(seed);
    // Initial placement: row-major compact fill (good starting point, and
    // exactly what a greedy packer would do).
    let mut tile_of: Vec<usize> = (0..n).map(|b| b / slots_per_tile).collect();
    let mut used: Vec<usize> = vec![0; arch.tiles()];
    for &t in &tile_of {
        used[t] += 1;
    }

    let mut placement = Placement {
        tile_of: tile_of.clone(),
        grid: arch.grid,
        flavor,
    };
    let mut cost = placement.hpwl(circuit) as f64;

    // Annealing schedule: geometric cooling, move budget scaled to size.
    let moves_per_temp = (16 * n).max(64);
    let mut temp = (cost / n.max(1) as f64).max(1.0);
    let t_min = 0.01;
    let mut started = trace.as_ref().map(|_| Instant::now());
    while temp > t_min {
        let mut moves = 0usize;
        let mut accepts = 0usize;
        for _ in 0..moves_per_temp {
            let b = rng.gen_range(0..n);
            let old_tile = tile_of[b];
            let new_tile = rng.gen_range(0..arch.tiles());
            if new_tile == old_tile {
                continue;
            }
            moves += 1;
            // Either move into free capacity or swap with a block there.
            let swap_with: Option<usize> = if used[new_tile] < slots_per_tile {
                None
            } else {
                // Pick a block on the target tile to swap with.
                (0..n).find(|&x| tile_of[x] == new_tile)
            };
            // Apply tentatively.
            tile_of[b] = new_tile;
            if let Some(o) = swap_with {
                tile_of[o] = old_tile;
            }
            placement.tile_of.clone_from(&tile_of);
            let new_cost = placement.hpwl(circuit) as f64;
            let delta = new_cost - cost;
            let accept = delta <= 0.0 || rng.gen_bool((-delta / temp).exp().clamp(0.0, 1.0));
            if accept {
                accepts += 1;
                used[old_tile] -= 1;
                used[new_tile] += 1;
                if let Some(o) = swap_with {
                    used[new_tile] -= 1;
                    used[old_tile] += 1;
                    let _ = o;
                }
                cost = new_cost;
            } else {
                // Revert.
                tile_of[b] = old_tile;
                if let Some(o) = swap_with {
                    tile_of[o] = new_tile;
                }
                placement.tile_of.clone_from(&tile_of);
            }
        }
        if let Some(tr) = trace.as_deref_mut() {
            let now = Instant::now();
            tr.stages.push(AnnealStage {
                temperature: temp,
                moves,
                accepts,
                cost,
                wall_ns: (now - started.unwrap()).as_nanos() as u64,
            });
            started = Some(now);
        }
        temp *= 0.8;
    }
    placement.tile_of = tile_of;
    placement
}
