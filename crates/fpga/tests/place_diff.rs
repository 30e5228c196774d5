//! Differential tests: the annealing placer against the retained naive
//! reference (`tests/naive/mod.rs`), plus pins of the Table 2 flow.
//!
//! The placer keeps its cost incrementally, but it is designed as a
//! drop-in replacement for the from-scratch loop: same RNG stream, same
//! swap partner, same accept decisions. So these tests assert the
//! strongest property: identical tiles and an identical per-stage
//! `(temperature, moves, accepts, cost)` trajectory, not merely an
//! equally good placement.

mod naive;

use fpga::emulate::table2;
use fpga::{place_traced, AnnealTrace, Circuit, FpgaArch, FpgaFlavor};
use proptest::prelude::*;

/// Every stage's `(temperature, moves, accepts, cost)`, floats as bits.
fn trajectory(trace: &AnnealTrace) -> Vec<(u64, usize, usize, u64)> {
    trace
        .stages
        .iter()
        .map(|s| {
            (
                s.temperature.to_bits(),
                s.moves,
                s.accepts,
                s.cost.to_bits(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn placement_matches_the_naive_reference(
        n in 2..61usize,
        fanin in 1..5usize,
        complement_fraction in 0.0..1.0f64,
        circuit_seed in any::<u64>(),
        occupancy in 0.3..1.0f64,
        cnfet in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let circuit = Circuit::random(n, fanin, complement_fraction, circuit_seed);
        let arch = FpgaArch::sized_for(n, occupancy);
        let flavor = if cnfet { FpgaFlavor::CnfetPla } else { FpgaFlavor::Standard };
        let (placement, trace) = place_traced(&circuit, &arch, flavor, seed);
        let (reference, ref_trace) = naive::place_traced(&circuit, &arch, flavor, seed);
        let tiles: Vec<usize> = (0..n).map(|b| placement.tile(b)).collect();
        prop_assert_eq!(tiles, reference.tile_of.clone());
        prop_assert_eq!(trajectory(&trace), trajectory(&ref_trace));
        prop_assert_eq!(placement.hpwl(&circuit), reference.hpwl(&circuit));
    }
}

/// `table2_fpga`'s experiment: circuit and placement seed 11, a die sized
/// for 99 % standard occupancy. Any change to placement, routing or
/// timing that moves Table 2 fails here.
#[test]
fn table2_flow_is_pinned() {
    let circuit = Circuit::random(63, 3, 0.95, 11);
    let arch = FpgaArch::sized_for(circuit.n_blocks(), 0.99);
    let (std_r, cn_r) = table2(&circuit, &arch, 11);
    let pins = |r: &fpga::EmulationReport| {
        (
            r.routed_connections,
            r.wirelength,
            r.overused_segments,
            r.frequency.to_bits(),
        )
    };
    // 220.990812… MHz and 304.136253… MHz, bit for bit.
    assert_eq!(pins(&std_r), (350, 1342, 73, 0x41aa_581a_b89d_2c45));
    assert_eq!(pins(&cn_r), (178, 622, 0, 0x41b2_20c0_3d0a_96ba));
    assert_eq!(std_r.frequency_mhz().round(), 221.0);
    assert_eq!(cn_r.frequency_mhz().round(), 304.0);
}
