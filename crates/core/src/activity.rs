//! Switching-activity analysis of GNOR PLAs.
//!
//! The energy model in [`cnfet::energy`] takes per-plane discharge
//! probabilities; this module computes them **exactly** for uniformly
//! random inputs, using disjoint-cover minterm counting from `logic::ops`:
//!
//! * a product line discharges whenever its product is *false* (the NOR
//!   pulls down unless every active input keeps its device off), so its
//!   activity is `1 − |cube| / 2^n`;
//! * an output NOR line discharges whenever *any* of its products is true:
//!   activity `|∪ cubes_j| / 2^n`.

use crate::pla::GnorPla;
use cnfet::EnergyModel;
use logic::ops::minterm_count;
use logic::Cover;

/// Exact per-line switching activities of a PLA under uniform inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityReport {
    /// Discharge probability of each product line.
    pub product_activity: Vec<f64>,
    /// Discharge probability of each output NOR line.
    pub output_activity: Vec<f64>,
}

impl ActivityReport {
    /// Mean product-line activity.
    pub fn mean_product_activity(&self) -> f64 {
        mean(&self.product_activity)
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Compute exact activities for the PLA realizing `cover`.
///
/// # Panics
///
/// Panics if the cover is empty or wider than 63 inputs.
pub fn analyze_activity(cover: &Cover) -> ActivityReport {
    assert!(!cover.is_empty(), "cover must have product terms");
    let n = cover.n_inputs();
    assert!(n < 64, "activity analysis supports up to 63 inputs");
    let space = (1u128 << n) as f64;

    let product_activity: Vec<f64> = cover
        .iter()
        .map(|c| {
            let size = (1u128 << (n - c.literal_count())) as f64;
            1.0 - size / space
        })
        .collect();

    let output_activity: Vec<f64> = (0..cover.n_outputs())
        .map(|j| {
            let slice = cover.output_slice(j);
            if slice.is_empty() {
                0.0
            } else {
                minterm_count(&slice) as f64 / space
            }
        })
        .collect();

    ActivityReport {
        product_activity,
        output_activity,
    }
}

/// Exact mean energy per cycle of the PLA realizing `cover`, combining the
/// activity analysis with the device energy model.
///
/// # Panics
///
/// Panics if the cover is empty or the PLA/cover dimensions disagree.
pub fn pla_energy_exact(pla: &GnorPla, cover: &Cover, model: &EnergyModel) -> f64 {
    let dims = pla.dimensions();
    assert_eq!(dims.inputs, cover.n_inputs(), "dimension mismatch");
    assert_eq!(dims.outputs, cover.n_outputs(), "dimension mismatch");
    assert_eq!(dims.products, cover.len(), "dimension mismatch");
    let act = analyze_activity(cover);
    let mut energy = 0.0;
    for &a in &act.product_activity {
        energy += a * model.line_switch_energy(dims.inputs, 1);
    }
    for &a in &act.output_activity {
        energy += a * model.line_switch_energy(dims.products, 1);
    }
    energy
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cover(text: &str, ni: usize, no: usize) -> Cover {
        Cover::parse(text, ni, no).expect("parse cover")
    }

    #[test]
    fn product_activity_is_one_minus_cube_probability() {
        // Cube with 2 literals over 3 inputs covers 1/4 of the space.
        let f = cover("11- 1", 3, 1);
        let act = analyze_activity(&f);
        assert!((act.product_activity[0] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn output_activity_is_function_probability() {
        // XOR is true on half the space.
        let f = cover("10 1\n01 1", 2, 1);
        let act = analyze_activity(&f);
        assert!((act.output_activity[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn overlapping_products_do_not_double_count() {
        // x0 + x1 is true on 3/4 of the space, not (1/2 + 1/2).
        let f = cover("1- 1\n-1 1", 2, 1);
        let act = analyze_activity(&f);
        assert!((act.output_activity[0] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn activity_matches_exhaustive_counting() {
        let f = cover("1-0 10\n011 01\n--1 11", 3, 2);
        let act = analyze_activity(&f);
        // Exhaustive check on both planes.
        for (r, c) in f.iter().enumerate() {
            let hits = (0..8u64).filter(|&m| c.covers_bits(m)).count() as f64;
            assert!(
                (act.product_activity[r] - (1.0 - hits / 8.0)).abs() < 1e-12,
                "row {r}"
            );
        }
        for j in 0..2 {
            let hits = (0..8u64).filter(|&m| f.eval_bits(m)[j]).count() as f64;
            assert!(
                (act.output_activity[j] - hits / 8.0).abs() < 1e-12,
                "output {j}"
            );
        }
    }

    #[test]
    fn constant_true_product_never_discharges() {
        let f = cover("-- 1", 2, 1);
        let act = analyze_activity(&f);
        assert_eq!(act.product_activity[0], 0.0);
        assert_eq!(act.output_activity[0], 1.0);
    }

    #[test]
    fn exact_energy_within_bounds() {
        let f = cover("10- 10\n-01 01\n11- 11", 3, 2);
        let pla = GnorPla::from_cover(&f);
        let model = EnergyModel::nominal();
        let exact = pla_energy_exact(&pla, &f, &model);
        let dims = pla.dimensions();
        // Exact energy is bounded by the all-lines-switch worst case.
        let worst = model.pla_cycle_energy(dims.inputs, dims.outputs, dims.products, 1.0, 1.0);
        assert!(exact > 0.0);
        assert!(exact <= worst);
    }

    #[test]
    fn literal_heavy_rows_switch_more() {
        // A 3-literal row discharges more often than a 1-literal row.
        let f = cover("111 1\n1-- 1", 3, 1);
        let act = analyze_activity(&f);
        assert!(act.product_activity[0] > act.product_activity[1]);
    }
}
