//! Two-dimensional redundancy: spare rows *and* spare input columns.
//!
//! Row re-assignment (see [`mod@crate::repair`]) cannot help when one input
//! column accumulates stuck-off devices: every cube with a literal on that
//! input is blocked from rows whose device there is dead. Because the
//! Fig. 3 interconnect can route any primary input to any physical column,
//! the array can also be fabricated with **spare columns**, and repair
//! becomes a two-stage assignment:
//!
//! 1. map each logical input to a healthy physical column (greedy, fewest
//!    stuck-off devices first for the literal-heaviest inputs),
//! 2. run the bipartite row matching of [`mod@crate::repair`] under that
//!    column mapping.
//!
//! Stuck-on devices still kill their whole physical row (they discharge it
//! regardless of which signal the column carries), so column repair
//! composes with — rather than replaces — spare rows.

use crate::defect::{DefectKind, DefectMap};
use ambipla_core::{GnorPla, GnorPlane, InputPolarity, Simulator};
use logic::{Cover, Tri};

/// Result of a 2D repair attempt.
#[derive(Debug, Clone)]
pub enum ColumnRepairOutcome {
    /// A defect-avoiding 2D assignment was found.
    Repaired(ColumnRepairedPla),
    /// No assignment exists.
    Unrepairable {
        /// First obstruction found.
        reason: String,
    },
}

impl ColumnRepairOutcome {
    /// True if the array was repaired.
    pub fn is_repaired(&self) -> bool {
        matches!(self, ColumnRepairOutcome::Repaired(_))
    }
}

/// A physically configured PLA plus the input-to-column routing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnRepairedPla {
    /// The configuration over the physical array (all physical columns).
    pub pla: GnorPla,
    /// `column_of_input[i]` = physical column carrying logical input `i`.
    pub column_of_input: Vec<usize>,
    /// `row_of_cube[c]` = physical row hosting cube `c`.
    pub row_of_cube: Vec<usize>,
}

impl ColumnRepairedPla {
    /// The repaired array fault-simulated under `defects` as a servable
    /// [`Simulator`] over *logical* inputs: the interconnect permutation
    /// is applied inside `eval_words`, so the view drops straight into
    /// anything that serves `&dyn Simulator` — including a hot swap that
    /// replaces a defective backend with its repaired twin. The view is
    /// cheap to clone (the array is shared, see
    /// [`FaultyGnorPla`](crate::inject::FaultyGnorPla)).
    ///
    /// # Panics
    ///
    /// Panics if the defect map dimensions do not match the physical
    /// array.
    pub fn faulty_view(&self, defects: &DefectMap) -> RepairedView {
        RepairedView {
            faulty: crate::inject::FaultyGnorPla::new(self.pla.clone(), defects.clone()),
            column_of_input: self.column_of_input.clone(),
        }
    }
}

/// A column-repaired PLA under its defect map, simulated on logical
/// inputs — see [`ColumnRepairedPla::faulty_view`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairedView {
    faulty: crate::inject::FaultyGnorPla,
    column_of_input: Vec<usize>,
}

impl RepairedView {
    /// The underlying fault-simulated physical array.
    pub fn faulty(&self) -> &crate::inject::FaultyGnorPla {
        &self.faulty
    }
}

impl Simulator for RepairedView {
    fn n_inputs(&self) -> usize {
        self.column_of_input.len()
    }

    fn n_outputs(&self) -> usize {
        self.faulty.n_outputs()
    }

    fn eval_words(&self, inputs: &[u64], out: &mut [u64], words: usize) {
        let n = self.column_of_input.len();
        assert!(words > 0, "at least one lane word per signal");
        assert_eq!(inputs.len(), n * words, "input arity mismatch");
        // Route each logical signal's lane words onto its physical
        // column; unrouted (spare) columns read 0, matching
        // `physical_inputs`. Signal-major layout makes this whole-word
        // copies.
        let phys_n = self.faulty.n_inputs();
        let mut phys = vec![0u64; phys_n * words];
        for (i, &c) in self.column_of_input.iter().enumerate() {
            phys[c * words..(c + 1) * words].copy_from_slice(&inputs[i * words..(i + 1) * words]);
        }
        self.faulty.eval_words(&phys, out, words);
    }
}

impl ColumnRepairedPla {
    /// Spread logical inputs onto the physical columns (unused columns are
    /// driven low; their devices are all `V0` so the value is irrelevant).
    pub fn physical_inputs(&self, inputs: &[bool]) -> Vec<bool> {
        let n_phys = self.pla.dimensions().inputs;
        let mut phys = vec![false; n_phys];
        for (i, &c) in self.column_of_input.iter().enumerate() {
            phys[c] = inputs[i];
        }
        phys
    }
}

/// Attempt 2D repair of `cover` on the physical array described by
/// `defects` (`defects.inputs()` ≥ `cover.n_inputs()` supplies the spare
/// columns, `defects.rows()` ≥ `cover.len()` the spare rows).
///
/// # Panics
///
/// Panics if the defect map is smaller than the cover in either dimension
/// or the output counts differ.
pub fn repair_with_columns(cover: &Cover, defects: &DefectMap) -> ColumnRepairOutcome {
    let n = cover.n_inputs();
    let p = cover.len();
    let rows = defects.rows();
    let cols = defects.inputs();
    assert!(
        cols >= n,
        "need at least as many physical columns as inputs"
    );
    assert!(rows >= p, "need at least as many physical rows as cubes");
    assert_eq!(
        defects.outputs(),
        cover.n_outputs(),
        "output count mismatch"
    );

    for j in 0..cover.n_outputs() {
        if defects.output_line_has_stuck_on(j) {
            return ColumnRepairOutcome::Unrepairable {
                reason: format!("output line {j} has a stuck-on device"),
            };
        }
    }

    // Stage 1: greedy column assignment. Inputs with the most literals get
    // the columns with the fewest stuck-off devices.
    let mut input_order: Vec<usize> = (0..n).collect();
    let literal_load = |i: usize| cover.iter().filter(|c| c.input(i) != Tri::DontCare).count();
    input_order.sort_by_key(|&i| std::cmp::Reverse(literal_load(i)));
    let stuck_offs_in_col = |c: usize| {
        (0..rows)
            .filter(|&r| defects.input_defect(r, c) == Some(DefectKind::StuckOff))
            .count()
    };
    let mut used = vec![false; cols];
    let mut column_of_input = vec![usize::MAX; n];
    for &i in &input_order {
        let best = (0..cols)
            .filter(|&c| !used[c])
            .min_by_key(|&c| stuck_offs_in_col(c))
            .expect("cols >= n guarantees a free column");
        used[best] = true;
        column_of_input[i] = best;
    }

    // Stage 2: row matching under the column mapping (Kuhn's algorithm,
    // same structure as crate::repair).
    let row_fits = |cube_idx: usize, r: usize| -> bool {
        if defects.row_has_stuck_on(r) {
            return false;
        }
        let cube = &cover.cubes()[cube_idx];
        for (i, &col) in column_of_input.iter().enumerate() {
            if cube.input(i) != Tri::DontCare
                && defects.input_defect(r, col) == Some(DefectKind::StuckOff)
            {
                return false;
            }
        }
        cube.outputs()
            .all(|j| defects.output_defect(j, r) != Some(DefectKind::StuckOff))
    };
    let compatible: Vec<Vec<usize>> = (0..p)
        .map(|c| (0..rows).filter(|&r| row_fits(c, r)).collect())
        .collect();
    if let Some(c) = compatible.iter().position(|v| v.is_empty()) {
        return ColumnRepairOutcome::Unrepairable {
            reason: format!("no usable physical row for product term {c}"),
        };
    }
    let mut row_owner: Vec<Option<usize>> = vec![None; rows];
    let mut assignment: Vec<Option<usize>> = vec![None; p];
    for c in 0..p {
        let mut visited = vec![false; rows];
        if !kuhn(
            c,
            &compatible,
            &mut row_owner,
            &mut assignment,
            &mut visited,
        ) {
            return ColumnRepairOutcome::Unrepairable {
                reason: format!("matching failed at product term {c}"),
            };
        }
    }
    let row_of_cube: Vec<usize> = assignment
        .into_iter()
        .map(|a| a.expect("matched"))
        .collect();

    // Build the physical configuration.
    let o = cover.n_outputs();
    let mut in_controls = vec![vec![InputPolarity::Drop; cols]; rows];
    let mut out_controls = vec![vec![InputPolarity::Drop; rows]; o];
    for (c, cube) in cover.iter().enumerate() {
        let r = row_of_cube[c];
        for (i, &col) in column_of_input.iter().enumerate() {
            in_controls[r][col] = match cube.input(i) {
                Tri::One => InputPolarity::Invert,
                Tri::Zero => InputPolarity::Pass,
                Tri::DontCare => InputPolarity::Drop,
            };
        }
        for (j, ctrl) in out_controls.iter_mut().enumerate() {
            if cube.has_output(j) {
                ctrl[r] = InputPolarity::Pass;
            }
        }
    }
    ColumnRepairOutcome::Repaired(ColumnRepairedPla {
        pla: GnorPla::from_parts(
            GnorPlane::from_controls(in_controls),
            GnorPlane::from_controls(out_controls),
            vec![true; o],
        ),
        column_of_input,
        row_of_cube,
    })
}

fn kuhn(
    c: usize,
    compatible: &[Vec<usize>],
    row_owner: &mut Vec<Option<usize>>,
    assignment: &mut Vec<Option<usize>>,
    visited: &mut Vec<bool>,
) -> bool {
    for &r in &compatible[c] {
        if visited[r] {
            continue;
        }
        visited[r] = true;
        let free = match row_owner[r] {
            None => true,
            Some(other) => kuhn(other, compatible, row_owner, assignment, visited),
        };
        if free {
            row_owner[r] = Some(c);
            assignment[c] = Some(r);
            return true;
        }
    }
    false
}

/// Fault-simulate a column-repaired PLA against its cover (exhaustive up
/// to [`logic::eval::EXHAUSTIVE_LIMIT`] logical inputs) — the
/// repair-then-re-inject round trip: applying the *same* defect map to
/// the repaired configuration must reproduce the cover's original truth
/// table. Sweeps through the logical [`RepairedView`] backend, 64+ lanes
/// per `eval_words` call.
pub fn verify_column_repair(
    cover: &Cover,
    repaired: &ColumnRepairedPla,
    defects: &DefectMap,
) -> bool {
    let n = cover.n_inputs().min(logic::eval::EXHAUSTIVE_LIMIT);
    ambipla_core::sim::equivalent_to_cover(&repaired.faulty_view(defects), cover, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::{repair, RepairOutcome};

    fn xor() -> Cover {
        Cover::parse("10 1\n01 1", 2, 1).expect("valid cover")
    }

    #[test]
    fn clean_array_maps_identity_like() {
        let f = xor();
        let defects = DefectMap::clean(3, 3, 1); // 1 spare row, 1 spare col
        match repair_with_columns(&f, &defects) {
            ColumnRepairOutcome::Repaired(r) => {
                assert!(verify_column_repair(&f, &r, &defects));
                // All logical inputs mapped to distinct columns.
                let mut cols = r.column_of_input.clone();
                cols.sort_unstable();
                cols.dedup();
                assert_eq!(cols.len(), 2);
            }
            ColumnRepairOutcome::Unrepairable { reason } => panic!("{reason}"),
        }
    }

    #[test]
    fn dead_column_is_bypassed() {
        // Column 0 stuck-off in every row: spare column must take over.
        let f = xor();
        let mut defects = DefectMap::clean(2, 3, 1); // no spare rows, 1 spare col
        for r in 0..2 {
            defects.set_input_defect(r, 0, DefectKind::StuckOff);
        }
        match repair_with_columns(&f, &defects) {
            ColumnRepairOutcome::Repaired(r) => {
                assert!(!r.column_of_input.contains(&0), "dead column used");
                assert!(verify_column_repair(&f, &r, &defects));
            }
            ColumnRepairOutcome::Unrepairable { reason } => panic!("{reason}"),
        }
    }

    #[test]
    fn row_only_repair_fails_where_columns_succeed() {
        // Same dead column, but the row-only repairer has no escape: both
        // cubes need both inputs, and every row's column-0 device is dead.
        let f = xor();
        let mut row_only = DefectMap::clean(4, 2, 1); // spare rows only
        for r in 0..4 {
            row_only.set_input_defect(r, 0, DefectKind::StuckOff);
        }
        assert!(matches!(
            repair(&f, &row_only),
            RepairOutcome::Unrepairable { .. }
        ));
        // With one spare column the 2D repairer recovers.
        let mut with_col = DefectMap::clean(4, 3, 1);
        for r in 0..4 {
            with_col.set_input_defect(r, 0, DefectKind::StuckOff);
        }
        assert!(repair_with_columns(&f, &with_col).is_repaired());
    }

    #[test]
    fn stuck_on_rows_still_need_row_spares() {
        let f = xor();
        let mut defects = DefectMap::clean(3, 4, 1); // 1 spare row, 2 spare cols
        defects.set_input_defect(0, 3, DefectKind::StuckOn); // kills row 0 even on a spare col
        match repair_with_columns(&f, &defects) {
            ColumnRepairOutcome::Repaired(r) => {
                assert!(!r.row_of_cube.contains(&0), "stuck-on row used");
                assert!(verify_column_repair(&f, &r, &defects));
            }
            ColumnRepairOutcome::Unrepairable { reason } => panic!("{reason}"),
        }
    }

    #[test]
    fn monte_carlo_verified_repairs() {
        let f = Cover::parse("110 01\n101 01\n011 11\n100 10", 3, 2).unwrap();
        let mut repaired_count = 0;
        for seed in 0..30u64 {
            let defects = DefectMap::sample(6, 5, 2, 0.06, 0.9, seed * 7 + 1);
            if let ColumnRepairOutcome::Repaired(r) = repair_with_columns(&f, &defects) {
                repaired_count += 1;
                assert!(
                    verify_column_repair(&f, &r, &defects),
                    "seed {seed}: repair verified false"
                );
            }
        }
        assert!(repaired_count > 15, "2D repair should usually succeed");
    }

    #[test]
    fn unrepairable_when_everything_is_dead() {
        let f = xor();
        let defects = DefectMap::sample(2, 2, 1, 1.0, 0.5, 1);
        assert!(!repair_with_columns(&f, &defects).is_repaired());
    }
}
