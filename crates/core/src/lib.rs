//! GNOR gates, GNOR-PLA / Whirlpool-PLA architecture, crossbar interconnect
//! and the Table 1 area model — the core contribution of *Ben Jamaa et al.,
//! "Programmable Logic Circuits Based on Ambipolar CNFET", DAC 2008*.
//!
//! The central object is the **generalized NOR (GNOR)** gate: a dynamic-logic
//! column of ambipolar CNFETs in which every input `x_i` carries a polarity
//! control `C_i` programmed into the device's polarity gate:
//!
//! * `C_i = 0` (`V+`, n-type) — the input participates **as is**,
//! * `C_i = 1` (`V−`, p-type) — the input participates **inverted**,
//! * `C_i = V0` — the input is **dropped** from the function.
//!
//! The gate computes `Y = NOR_i (C_i ⊕ x_i)` over the participating inputs
//! (Section 3, Fig. 2). Because inversion happens *inside* the array, a PLA
//! built from two cascaded GNOR planes needs **one column per input**
//! instead of the classical true+complement pair — the source of every
//! benefit the paper evaluates.
//!
//! Modules:
//!
//! * [`gnor`] — polarity controls, combinational GNOR evaluation, and the
//!   precharge/evaluate dynamic-logic cell (TPC/TEV) of Fig. 2,
//! * [`plane`] — a GNOR plane: an array of GNOR gates over shared columns,
//! * [`pla`] — the two-plane GNOR PLA of Fig. 3/4: cover mapping, functional
//!   simulation, and programming through the charge matrix,
//! * [`baseline`] — the classical two-column-per-input PLA used as the
//!   comparison point,
//! * [`sim`] — the object-safe [`Simulator`] trait: the width-generic
//!   bit-parallel evaluation API (`eval_words`, up to `words × 64` lanes
//!   per call into caller-reused buffers) every PLA flavor, fault model
//!   and FPGA mapping implements, plus the `&dyn Simulator` verification
//!   sweeps,
//! * [`table`] — materialized [`TruthTable`]s: small simulators swept
//!   exhaustively once into packed words, then served (and compared) by
//!   O(1) indexed load — the backing store of `ambipla_serve`'s
//!   materialized tier,
//! * [`hash`] — stable structural cover hashing (the default `SimKey`
//!   of an `ambipla_serve` registration),
//! * [`pool`] — the deterministic [`std::thread::scope`] worker pool
//!   behind parallel Monte-Carlo and multi-cover sweeps ([`WorkerPool`],
//!   which is `logic::par::Pool` re-exported),
//! * [`area`] — the Table 1 area model (Flash / EEPROM / ambipolar CNFET),
//! * [`crossbar`] — the pass-transistor interconnect array of Section 4,
//! * [`timing`] — dynamic-logic cycle-time estimation on top of the device
//!   RC model,
//! * [`wpla`] — the four-plane Whirlpool PLA cascade enabled by internal
//!   polarity generation.

pub mod activity;
pub mod area;
pub mod baseline;
pub mod cascade;
pub mod config;
pub mod crossbar;
pub mod dynamic;
pub mod fsm;
pub mod gnor;
pub mod hash;
pub mod layout;
pub mod pla;
pub mod plane;

/// The deterministic worker pool behind `fault::yield_analysis` and the
/// `ambipla_serve` sweeps. The implementation is [`logic::par::Pool`], at
/// the bottom of the dependency graph; this module keeps it under core's
/// name and path.
pub mod pool {
    pub use logic::par::Pool as WorkerPool;

    #[cfg(test)]
    mod tests {
        use super::WorkerPool;

        #[test]
        fn map_range_matches_sequential_loop() {
            // Index-seeded "Monte-Carlo" shape: result depends only on the
            // global index, so any sharding must be bit-identical.
            let f = |i: usize| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 3;
            let expected: Vec<u64> = (0..1000).map(f).collect();
            for threads in [1, 2, 5, 13] {
                assert_eq!(WorkerPool::new(threads).map_range(1000, f), expected);
            }
        }

        #[test]
        fn empty_and_tiny_inputs_are_fine() {
            let pool = WorkerPool::new(8);
            assert_eq!(pool.map(&[] as &[u8], |_, &x| x), Vec::<u8>::new());
            assert_eq!(pool.map_range(0, |i| i), Vec::<usize>::new());
            assert_eq!(pool.map(&[9u8], |i, &x| (i, x)), vec![(0, 9)]);
        }

        #[test]
        #[should_panic(expected = "at least one thread")]
        fn zero_threads_is_rejected() {
            WorkerPool::new(0);
        }
    }
}

pub mod sim;
pub mod table;
pub mod timing;
pub mod wpla;

pub use activity::{analyze_activity, pla_energy_exact, ActivityReport};
pub use area::{PlaDimensions, Technology};
pub use baseline::ClassicalPla;
pub use cascade::{NetworkError, PlaNetwork};
pub use config::{from_bitstream, to_bitstream, BitstreamError};
pub use crossbar::{Crossbar, CrosspointState};
pub use dynamic::DynamicPla;
pub use fsm::{FsmError, PlaFsm};
pub use gnor::{DynamicGnor, GnorGate, InputPolarity, Phase};
pub use hash::cover_hash;
pub use layout::Floorplan;
pub use pla::{GnorPla, MapError};
pub use plane::GnorPlane;
pub use pool::WorkerPool;
pub use sim::{
    pack_vectors, pack_vectors_words, unpack_lane, unpack_lane_words, EpochOracle, SharedSimulator,
    Simulator, LANES,
};
pub use table::{table_bytes, TruthTable};
pub use timing::{PlaTiming, TimingModel};
pub use wpla::Wpla;
