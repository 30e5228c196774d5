//! A GNOR plane: an array of GNOR gates sharing input columns (Fig. 4).
//!
//! Each row of the plane is one [`GnorGate`]; all rows see the same column
//! inputs. The configuration of the whole plane is a `rows × cols` matrix of
//! [`InputPolarity`] values — equivalently, of PG charge levels, which is
//! exactly what the Fig. 3 programming protocol writes.

use crate::gnor::{GnorGate, InputPolarity};
use cnfet::{PgLevel, ProgrammingMatrix};

/// A `rows × cols` array of GNOR gates over shared input columns.
///
/// # Example
///
/// ```
/// use ambipla_core::{GnorPlane, InputPolarity::*};
///
/// // Two rows over columns (a, b): row0 = NOR(a, b̄), row1 = NOR(ā).
/// let plane = GnorPlane::from_controls(vec![
///     vec![Pass, Invert],
///     vec![Invert, Drop],
/// ]);
/// assert_eq!(plane.evaluate(&[false, true]), vec![true, false]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GnorPlane {
    cols: usize,
    rows: Vec<GnorGate>,
}

impl GnorPlane {
    /// An unconfigured plane (every device at `V0`).
    pub fn unconfigured(rows: usize, cols: usize) -> GnorPlane {
        GnorPlane {
            cols,
            rows: (0..rows).map(|_| GnorGate::unconfigured(cols)).collect(),
        }
    }

    /// Build a plane from a full control matrix.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths or the matrix is empty.
    pub fn from_controls(controls: Vec<Vec<InputPolarity>>) -> GnorPlane {
        assert!(!controls.is_empty(), "a plane needs at least one row");
        let cols = controls[0].len();
        assert!(
            controls.iter().all(|r| r.len() == cols),
            "ragged control matrix"
        );
        GnorPlane {
            cols,
            rows: controls.into_iter().map(GnorGate::new).collect(),
        }
    }

    /// Number of rows (GNOR gates).
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of input columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The gate at `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn gate(&self, row: usize) -> &GnorGate {
        &self.rows[row]
    }

    /// Iterate over the gates.
    pub fn gates(&self) -> impl Iterator<Item = &GnorGate> {
        self.rows.iter()
    }

    /// Evaluate every row on the shared column inputs.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != cols()`.
    pub fn evaluate(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.cols, "input arity mismatch");
        self.rows.iter().map(|g| g.evaluate(inputs)).collect()
    }

    /// Width-generic bit-parallel evaluation: `words` lane words per
    /// input column in (`inputs[i·words + w]`, signal-major), `words`
    /// lane words per row out. See [`GnorGate::evaluate_words`].
    ///
    /// # Panics
    ///
    /// Panics if `words == 0`, `inputs.len() != cols() × words`, or
    /// `out.len() != rows() × words`.
    pub fn evaluate_words(&self, inputs: &[u64], out: &mut [u64], words: usize) {
        assert!(words > 0, "at least one lane word per signal");
        assert_eq!(inputs.len(), self.cols * words, "input arity mismatch");
        assert_eq!(
            out.len(),
            self.rows.len() * words,
            "output buffer size mismatch"
        );
        for (g, row) in self.rows.iter().zip(out.chunks_exact_mut(words)) {
            g.evaluate_words(inputs, row, words);
        }
    }

    /// Number of programmed (non-`V0`) devices — the used crosspoints.
    pub fn active_devices(&self) -> usize {
        self.rows.iter().map(|g| g.active_inputs()).sum()
    }

    /// The PG-level map of the whole plane (row-major), as written by the
    /// configuration protocol.
    pub fn pg_map(&self) -> Vec<Vec<PgLevel>> {
        self.rows.iter().map(|g| g.pg_levels()).collect()
    }

    /// Rebuild a plane from a PG-level map (array readback).
    ///
    /// # Panics
    ///
    /// Panics if the map is empty or ragged.
    pub fn from_pg_map(map: &[Vec<PgLevel>]) -> GnorPlane {
        assert!(!map.is_empty(), "a plane needs at least one row");
        let cols = map[0].len();
        assert!(map.iter().all(|r| r.len() == cols), "ragged PG map");
        GnorPlane {
            cols,
            rows: map.iter().map(|r| GnorGate::from_pg_levels(r)).collect(),
        }
    }

    /// Program this plane's configuration into a charge matrix using the
    /// Fig. 3 row/column protocol (one pulse per device).
    ///
    /// # Panics
    ///
    /// Panics if the matrix dimensions do not match the plane.
    pub fn program_into(&self, matrix: &mut ProgrammingMatrix) {
        assert_eq!(matrix.rows(), self.rows(), "matrix row count mismatch");
        assert_eq!(matrix.cols(), self.cols(), "matrix column count mismatch");
        matrix.program_map(&self.pg_map());
    }

    /// Read a plane back from a programmed charge matrix.
    pub fn from_programmed(matrix: &ProgrammingMatrix) -> GnorPlane {
        GnorPlane::from_pg_map(&matrix.read_map())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gnor::InputPolarity::*;

    fn sample_plane() -> GnorPlane {
        GnorPlane::from_controls(vec![
            vec![Pass, Invert, Drop],
            vec![Invert, Drop, Pass],
            vec![Drop, Drop, Drop],
        ])
    }

    #[test]
    fn dimensions() {
        let p = sample_plane();
        assert_eq!(p.rows(), 3);
        assert_eq!(p.cols(), 3);
        assert_eq!(p.active_devices(), 4);
    }

    #[test]
    fn evaluation_is_per_row_gnor() {
        let p = sample_plane();
        let out = p.evaluate(&[false, true, false]);
        // row0: NOR(a, b̄) = NOR(0, 0) = 1
        // row1: NOR(ā, c) = NOR(1, 0) = 0
        // row2: unconfigured = 1
        assert_eq!(out, vec![true, false, true]);
    }

    #[test]
    fn unconfigured_plane_outputs_all_ones() {
        let p = GnorPlane::unconfigured(2, 4);
        assert_eq!(p.evaluate(&[true; 4]), vec![true, true]);
        assert_eq!(p.active_devices(), 0);
    }

    #[test]
    fn pg_map_roundtrip() {
        let p = sample_plane();
        assert_eq!(GnorPlane::from_pg_map(&p.pg_map()), p);
    }

    #[test]
    fn programming_roundtrip_through_charge_matrix() {
        let p = sample_plane();
        let mut m = ProgrammingMatrix::new(3, 3, 1.0);
        p.program_into(&mut m);
        let back = GnorPlane::from_programmed(&m);
        assert_eq!(back, p);
        // One pulse per device, as the protocol requires.
        assert_eq!(m.pulse_count(), 9);
    }

    #[test]
    fn leaked_array_reads_back_as_unconfigured() {
        let p = sample_plane();
        let mut m = ProgrammingMatrix::new(3, 3, 1e-6);
        p.program_into(&mut m);
        m.advance(1.0); // far past retention
        let back = GnorPlane::from_programmed(&m);
        assert_eq!(back, GnorPlane::unconfigured(3, 3));
    }

    #[test]
    #[should_panic(expected = "ragged control matrix")]
    fn ragged_matrix_rejected() {
        let _ = GnorPlane::from_controls(vec![vec![Pass], vec![Pass, Drop]]);
    }
}
