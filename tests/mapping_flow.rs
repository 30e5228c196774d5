//! Integration: logic function → Shannon CLB mapping → place & route →
//! timing, plus the bitstream and BDD flows that glue the stack together.

use ambipla::core::{from_bitstream, to_bitstream, GnorPla};
use ambipla::fpga::{
    critical_path, emulate, mapping::MappedNetwork, place, route, FpgaArch, FpgaFlavor,
};
use ambipla::logic::{bdd_equivalent, espresso, Cover};

/// A wide function mapped to 4-input CLBs, placed and routed on both
/// flavors, with the CNFET flavor at least as fast.
#[test]
fn cover_to_clbs_to_routed_fpga() {
    let f = Cover::parse(
        "111111 1\n000000 1\n110000 1\n001100 1\n000011 1\n101010 1",
        6,
        1,
    )
    .unwrap();
    let net = MappedNetwork::decompose(&f, 4);
    assert!(net.implements(&f), "mapping must preserve the function");
    assert!(net.n_blocks() > 1, "6 inputs at k=4 must split");

    let circuit = net.to_circuit();
    let arch = FpgaArch::sized_for(circuit.n_blocks(), 0.99);
    let mut timings = Vec::new();
    for flavor in [FpgaFlavor::Standard, FpgaFlavor::CnfetPla] {
        let placement = place(&circuit, &arch, flavor, 3);
        let routing = route(&circuit, &placement, &arch);
        let timing = critical_path(&circuit, &routing, &arch);
        assert!(timing.frequency > 0.0);
        timings.push(timing.frequency);
    }
    assert!(
        timings[1] >= timings[0] * 0.99,
        "CNFET flavor should not be slower"
    );
}

/// The full Table 2 emulation on a mapped (rather than synthetic) circuit.
#[test]
fn mapped_circuit_through_table2_harness() {
    let f = Cover::parse(
        "11111111 1\n00000000 1\n10101010 1\n01010101 1\n11110000 1",
        8,
        1,
    )
    .unwrap();
    let net = MappedNetwork::decompose(&f, 3);
    assert!(net.implements(&f));
    let circuit = net.to_circuit();
    let arch = FpgaArch::sized_for(circuit.n_blocks(), 0.99);
    let std_r = emulate(&circuit, &arch, FpgaFlavor::Standard, 1);
    let cn_r = emulate(&circuit, &arch, FpgaFlavor::CnfetPla, 1);
    assert!(std_r.occupancy >= cn_r.occupancy);
    assert!(cn_r.wirelength <= std_r.wirelength);
}

/// Bitstream round-trip across the registry: serialize, corrupt-check,
/// reload, and re-verify the function.
#[test]
fn bitstream_roundtrip_across_registry() {
    for b in ambipla::benchmarks::registry() {
        let pla = GnorPla::from_cover(&b.on);
        let bits = to_bitstream(&pla);
        let back = from_bitstream(&bits).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        assert_eq!(back, pla, "{}", b.name);
        // Flip one code bit → must be rejected, never mis-programmed.
        let mut bad = bits.clone();
        let idx = bits.len() - 6; // inside the code section
        bad[idx] ^= 0b01;
        assert!(
            from_bitstream(&bad).is_err(),
            "{}: corruption accepted",
            b.name
        );
    }
}

/// BDD equivalence proves the t2 pipeline completely (17 inputs — beyond
/// practical exhaustive checking for multi-output covers).
#[test]
fn t2_minimization_proved_by_bdd() {
    let b = ambipla::benchmarks::t2();
    let (min, _) = espresso(&b.on);
    assert!(
        bdd_equivalent(&b.on, &min),
        "espresso(t2) proved equivalent"
    );
}

/// BDD and exhaustive checkers agree on small functions.
#[test]
fn bdd_agrees_with_exhaustive_checker() {
    use ambipla::logic::check_equivalent;
    let a = Cover::parse("1-0 10\n011 01\n--1 11", 3, 2).unwrap();
    let (min, _) = espresso(&a);
    assert!(bdd_equivalent(&a, &min));
    assert!(check_equivalent(&a, &min).is_equivalent());
    // And on a non-equivalent pair.
    let c = Cover::parse("1-0 10\n011 01", 3, 2).unwrap();
    assert!(!bdd_equivalent(&a, &c));
    assert!(!check_equivalent(&a, &c).is_equivalent());
}

/// Dynamic (cycle-accurate) simulation matches the functional simulator on
/// a programmed-and-read-back array.
#[test]
fn dynamic_simulation_of_programmed_array() {
    use ambipla::core::DynamicPla;
    let f = Cover::parse("10- 10\n-01 01\n11- 11", 3, 2).unwrap();
    let pla = GnorPla::from_cover(&f);
    let (m1, m2) = pla.program(1e-3);
    let back = GnorPla::from_programmed(&m1, &m2, pla.inverting_outputs().to_vec());
    let mut dynamic = DynamicPla::new(&back);
    for bits in 0..8u64 {
        assert_eq!(
            dynamic.cycle_bits(bits),
            f.eval_bits(bits),
            "bits {bits:03b}"
        );
    }
}
