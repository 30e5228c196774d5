//! Covers: sets of cubes implementing multi-output Boolean functions.

use crate::cube::{Cube, Tri};
use crate::urp;
use std::fmt;

/// A sum-of-products cover of a multi-output Boolean function.
///
/// A cover is an ordered list of [`Cube`]s sharing the same input/output
/// arity. Output `j` of the function is the OR of all cubes whose output part
/// asserts bit `j`. Covers are the currency of the whole toolchain: the
/// ESPRESSO minimizer transforms covers, the GNOR-PLA mapper consumes them,
/// and the area model prices them.
#[derive(Clone, PartialEq, Eq)]
pub struct Cover {
    n_inputs: usize,
    n_outputs: usize,
    cubes: Vec<Cube>,
}

impl Cover {
    /// An empty cover (constant-0 function) of the given arity.
    pub fn new(n_inputs: usize, n_outputs: usize) -> Cover {
        Cover {
            n_inputs,
            n_outputs,
            cubes: Vec::new(),
        }
    }

    /// Build a cover from cubes.
    ///
    /// # Panics
    ///
    /// Panics if any cube's arity differs from `(n_inputs, n_outputs)`.
    pub fn from_cubes(n_inputs: usize, n_outputs: usize, cubes: Vec<Cube>) -> Cover {
        for c in &cubes {
            assert_eq!(c.n_inputs(), n_inputs, "cube input arity mismatch");
            assert_eq!(c.n_outputs(), n_outputs, "cube output arity mismatch");
        }
        Cover {
            n_inputs,
            n_outputs,
            cubes,
        }
    }

    /// Parse a whitespace-separated list of PLA-style cube lines,
    /// e.g. `"10- 1\n0-1 1"`. Blank lines are skipped.
    ///
    /// Returns `None` on any malformed line.
    pub fn parse(text: &str, n_inputs: usize, n_outputs: usize) -> Option<Cover> {
        let mut cubes = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            cubes.push(Cube::parse(line, n_inputs, n_outputs)?);
        }
        Some(Cover::from_cubes(n_inputs, n_outputs, cubes))
    }

    /// Number of input variables.
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Number of outputs.
    pub fn n_outputs(&self) -> usize {
        self.n_outputs
    }

    /// The cubes of this cover.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Consume the cover, returning its cubes.
    pub fn into_cubes(self) -> Vec<Cube> {
        self.cubes
    }

    /// Number of cubes (product terms / PLA rows).
    pub fn len(&self) -> usize {
        self.cubes.len()
    }

    /// True if the cover has no cubes.
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Append a cube.
    ///
    /// # Panics
    ///
    /// Panics if the cube's arity differs from the cover's.
    pub fn push(&mut self, cube: Cube) {
        assert_eq!(cube.n_inputs(), self.n_inputs, "cube input arity mismatch");
        assert_eq!(
            cube.n_outputs(),
            self.n_outputs,
            "cube output arity mismatch"
        );
        self.cubes.push(cube);
    }

    /// Remove the cube at `index` and return it.
    pub fn remove(&mut self, index: usize) -> Cube {
        self.cubes.remove(index)
    }

    /// Iterate over the cubes.
    pub fn iter(&self) -> std::slice::Iter<'_, Cube> {
        self.cubes.iter()
    }

    /// Total number of input literals over all cubes (a standard PLA cost
    /// metric alongside the cube count).
    pub fn literal_count(&self) -> usize {
        self.cubes.iter().map(Cube::literal_count).sum()
    }

    /// Drop empty cubes and cubes single-cube-contained in another cube
    /// (SCC). Keeps the first of two identical cubes.
    ///
    /// The pairwise loop is prefiltered by per-cube word signatures (the
    /// OR-fold of each cube's packed input and output words; word-wise
    /// containment implies fold containment): a pair whose signatures
    /// refute containment is rejected in two word ops, so the full
    /// [`Cube::contains`] test only runs on genuine candidates. The
    /// result is identical to the unfiltered O(n²) loop (differentially
    /// tested in `espresso_diff.rs`).
    pub fn make_scc_minimal(&mut self) {
        self.cubes.retain(|c| !c.is_empty());
        let sigs: Vec<(u64, u64)> = self.cubes.iter().map(Cube::containment_signature).collect();
        let mut keep = vec![true; self.cubes.len()];
        for i in 0..self.cubes.len() {
            if !keep[i] {
                continue;
            }
            for j in 0..self.cubes.len() {
                if i == j || !keep[j] {
                    continue;
                }
                // sig(i) ⊄ sig(j) proves cube j cannot contain cube i.
                if sigs[i].0 & !sigs[j].0 != 0 || sigs[i].1 & !sigs[j].1 != 0 {
                    continue;
                }
                if self.cubes[j].contains(&self.cubes[i])
                    && (i > j || self.cubes[i] != self.cubes[j])
                {
                    keep[i] = false;
                    break;
                }
            }
        }
        let mut it = keep.iter();
        self.cubes.retain(|_| *it.next().unwrap());
    }

    /// Union of two covers (cube list concatenation).
    ///
    /// # Panics
    ///
    /// Panics if arities differ.
    pub fn union(&self, other: &Cover) -> Cover {
        assert_eq!(self.n_inputs, other.n_inputs, "input arity mismatch");
        assert_eq!(self.n_outputs, other.n_outputs, "output arity mismatch");
        let mut cubes = self.cubes.clone();
        cubes.extend(other.cubes.iter().cloned());
        Cover::from_cubes(self.n_inputs, self.n_outputs, cubes)
    }

    /// The single-output projection: cubes driving output `j`, reduced to a
    /// one-output cover of their input parts.
    pub fn output_slice(&self, j: usize) -> Cover {
        assert!(j < self.n_outputs, "output index out of range");
        let mut out = Cover::new(self.n_inputs, 1);
        for c in &self.cubes {
            if c.has_output(j) {
                out.push(c.input_part());
            }
        }
        out
    }

    /// Re-assemble a multi-output cover from per-output single-output covers.
    ///
    /// Identical input parts driving several outputs are merged back into one
    /// multi-output cube, which models the product-term sharing of a PLA row.
    ///
    /// # Panics
    ///
    /// Panics if any slice is not single-output or arities differ.
    pub fn from_output_slices(slices: &[Cover]) -> Cover {
        assert!(!slices.is_empty(), "need at least one output slice");
        let n_inputs = slices[0].n_inputs;
        let n_outputs = slices.len();
        let mut merged: Vec<Cube> = Vec::new();
        for (j, s) in slices.iter().enumerate() {
            assert_eq!(s.n_outputs, 1, "slice {j} must be single-output");
            assert_eq!(s.n_inputs, n_inputs, "slice {j} input arity mismatch");
            for c in &s.cubes {
                let mut tris = Vec::with_capacity(n_inputs);
                for i in 0..n_inputs {
                    tris.push(c.input(i));
                }
                let mut outs = vec![false; n_outputs];
                outs[j] = true;
                let cube = Cube::from_tris(&tris, &outs);
                if let Some(existing) = merged
                    .iter_mut()
                    .find(|m| m.input_contains(&cube) && cube.input_contains(m))
                {
                    existing.set_output(j);
                } else {
                    merged.push(cube);
                }
            }
        }
        Cover::from_cubes(n_inputs, n_outputs, merged)
    }

    /// Evaluate the function on a packed input assignment (bit `i` of `bits`
    /// is input `i`); returns one bool per output.
    ///
    /// # Panics
    ///
    /// Panics if `n_inputs > 64`.
    pub fn eval_bits(&self, bits: u64) -> Vec<bool> {
        assert!(self.n_inputs <= 64, "eval_bits supports at most 64 inputs");
        let mut out = vec![false; self.n_outputs];
        for c in &self.cubes {
            if c.covers_bits(bits) {
                for j in c.outputs() {
                    out[j] = true;
                }
            }
        }
        out
    }

    /// Evaluate up to `words × 64` packed input vectors at once into a
    /// caller-allocated buffer — the width-generic, allocation-free SOP
    /// kernel behind every block-level consumer in the workspace.
    ///
    /// Layout is **signal-major**: `inputs[i·words .. (i+1)·words]` are
    /// the `words` lane words of input `i` (lane `L` of the block is bit
    /// `L % 64` of word `L / 64`), and `out[j·words .. (j+1)·words]` are
    /// the lane words of output `j` on return. With `words == 1` this is
    /// exactly the classic 64-lane column-major block. This is what the
    /// `Simulator` trait in `ambipla_core::sim` exposes as `eval_words`
    /// for every backend, and the engine behind the batched
    /// [`check_equivalent`](crate::eval::check_equivalent) /
    /// [`check_implements`](crate::eval::check_implements) sweeps.
    ///
    /// # Panics
    ///
    /// Panics if `words == 0`, `inputs.len() != n_inputs() × words`, or
    /// `out.len() != n_outputs() × words`.
    pub fn eval_words(&self, inputs: &[u64], out: &mut [u64], words: usize) {
        /// Lane words processed per pass over the cube list: cube literals
        /// are decoded once per tile, so wider blocks amortize the decode;
        /// 8 words (512 lanes) of live state still fit in registers / L1.
        const EVAL_TILE: usize = 8;
        assert!(words > 0, "at least one lane word per signal");
        assert_eq!(inputs.len(), self.n_inputs * words, "input arity mismatch");
        assert_eq!(
            out.len(),
            self.n_outputs * words,
            "output buffer size mismatch"
        );
        out.fill(0);
        let mut base = 0;
        while base < words {
            let tile = (words - base).min(EVAL_TILE);
            'cube: for c in &self.cubes {
                let mut covered = [!0u64; EVAL_TILE];
                for i in 0..self.n_inputs {
                    let row = &inputs[i * words + base..i * words + base + tile];
                    match c.input(i) {
                        Tri::DontCare => continue,
                        Tri::One => {
                            for (cw, &x) in covered.iter_mut().zip(row) {
                                *cw &= x;
                            }
                        }
                        Tri::Zero => {
                            for (cw, &x) in covered.iter_mut().zip(row) {
                                *cw &= !x;
                            }
                        }
                    }
                    if covered[..tile].iter().all(|&w| w == 0) {
                        continue 'cube;
                    }
                }
                for j in c.outputs() {
                    let orow = &mut out[j * words + base..j * words + base + tile];
                    for (o, &cw) in orow.iter_mut().zip(&covered) {
                        *o |= cw;
                    }
                }
            }
            base += tile;
        }
    }

    /// Evaluate 64 packed input vectors at once (bit-parallel lanes).
    ///
    /// `inputs[i]` carries input `i` of all 64 lanes: bit `L` of that word
    /// is input `i` of lane `L`. The returned words carry the outputs in
    /// the same layout. The allocating single-word form of
    /// [`Cover::eval_words`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != n_inputs()`.
    pub fn eval_batch(&self, inputs: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; self.n_outputs];
        self.eval_words(inputs, &mut out, 1);
        out
    }

    /// Evaluate on an explicit boolean assignment.
    pub fn eval(&self, assignment: &[bool]) -> Vec<bool> {
        assert_eq!(assignment.len(), self.n_inputs, "assignment arity mismatch");
        let mut out = vec![false; self.n_outputs];
        for c in &self.cubes {
            let hit = (0..self.n_inputs).all(|i| match c.input(i) {
                Tri::DontCare => true,
                Tri::One => assignment[i],
                Tri::Zero => !assignment[i],
            });
            if hit {
                for j in c.outputs() {
                    out[j] = true;
                }
            }
        }
        out
    }

    /// Cofactor of the cover by cube `p` (cubes not intersecting `p` drop out).
    pub fn cofactor(&self, p: &Cube) -> Cover {
        let cubes = self.cubes.iter().filter_map(|c| c.cofactor(p)).collect();
        Cover::from_cubes(self.n_inputs, self.n_outputs, cubes)
    }

    /// True if this single-output cover is the tautology (covers the whole
    /// input space). Delegates to the unate recursive paradigm.
    ///
    /// # Panics
    ///
    /// Panics if the cover is not single-output; use [`Cover::output_slice`]
    /// first for multi-output covers.
    pub fn is_tautology(&self) -> bool {
        assert_eq!(self.n_outputs, 1, "tautology is defined per output");
        urp::tautology(self)
    }

    /// Complement of this single-output cover via the unate recursive
    /// paradigm.
    ///
    /// # Panics
    ///
    /// Panics if the cover is not single-output.
    pub fn complement(&self) -> Cover {
        assert_eq!(self.n_outputs, 1, "complement is defined per output");
        urp::complement(self)
    }
}

impl fmt::Debug for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Cover(i={}, o={}, p={})",
            self.n_inputs,
            self.n_outputs,
            self.cubes.len()
        )?;
        for c in &self.cubes {
            writeln!(f, "  {c}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.cubes {
            writeln!(f, "{c}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Cover {
    type Item = &'a Cube;
    type IntoIter = std::slice::Iter<'a, Cube>;

    fn into_iter(self) -> Self::IntoIter {
        self.cubes.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cover(text: &str, ni: usize, no: usize) -> Cover {
        Cover::parse(text, ni, no).expect("parse cover")
    }

    #[test]
    fn parse_eval_xor() {
        let f = cover("10 1\n01 1", 2, 1);
        assert_eq!(f.len(), 2);
        assert!(!f.eval_bits(0b00)[0]);
        assert!(f.eval_bits(0b01)[0]);
        assert!(f.eval_bits(0b10)[0]);
        assert!(!f.eval_bits(0b11)[0]);
    }

    #[test]
    fn eval_multi_output() {
        let f = cover("1- 10\n-1 01", 2, 2);
        assert_eq!(f.eval_bits(0b01), vec![true, false]);
        assert_eq!(f.eval_bits(0b10), vec![false, true]);
        assert_eq!(f.eval_bits(0b11), vec![true, true]);
        assert_eq!(f.eval_bits(0b00), vec![false, false]);
    }

    #[test]
    fn eval_slice_agrees_with_eval() {
        let f = cover("1-0 110\n011 011\n--1 100", 3, 3);
        for bits in 0..8u64 {
            let full = f.eval_bits(bits);
            for (j, &want) in full.iter().enumerate() {
                assert_eq!(f.output_slice(j).eval_bits(bits)[0], want);
            }
        }
    }

    #[test]
    fn scc_removes_contained_and_duplicate_cubes() {
        let mut f = cover("1-- 1\n110 1\n1-- 1\n0-- 1", 3, 1);
        f.make_scc_minimal();
        assert_eq!(f.len(), 2);
        for bits in 0..8u64 {
            assert!(f.eval_bits(bits)[0]);
        }
    }

    #[test]
    fn scc_respects_output_parts() {
        // Input-contained but driving a different output: must be kept.
        let mut f = cover("11 10\n1- 01", 2, 2);
        f.make_scc_minimal();
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn output_slices_roundtrip_with_sharing() {
        let f = cover("11 11\n0- 10\n-0 01", 2, 2);
        let slices: Vec<Cover> = (0..2).map(|j| f.output_slice(j)).collect();
        let back = Cover::from_output_slices(&slices);
        // Shared cube `11` must be merged back into a single row.
        assert_eq!(back.len(), 3);
        for bits in 0..4u64 {
            assert_eq!(back.eval_bits(bits), f.eval_bits(bits));
        }
    }

    #[test]
    fn eval_matches_eval_bits() {
        let f = cover("10-1 1\n0--- 1", 4, 1);
        for bits in 0..16u64 {
            let assignment: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(f.eval(&assignment)[0], f.eval_bits(bits)[0]);
        }
    }

    #[test]
    fn eval_batch_matches_eval_bits_lanewise() {
        let f = cover("10-1 10\n0--- 01\n11-- 11", 4, 2);
        // Lane L carries assignment L (only lanes 0..16 are meaningful).
        let inputs: Vec<u64> = (0..4)
            .map(|i| (0..64u64).fold(0u64, |w, lane| w | ((lane % 16) >> i & 1) << lane))
            .collect();
        let words = f.eval_batch(&inputs);
        for lane in 0..64u64 {
            let scalar = f.eval_bits(lane % 16);
            for j in 0..2 {
                assert_eq!(
                    words[j] >> lane & 1 == 1,
                    scalar[j],
                    "lane {lane} output {j}"
                );
            }
        }
    }

    #[test]
    fn cofactor_drops_disjoint_cubes() {
        let f = cover("11 1\n00 1", 2, 1);
        let p = Cube::parse("1- 1", 2, 1).unwrap();
        let cf = f.cofactor(&p);
        assert_eq!(cf.len(), 1);
        assert_eq!(cf.cubes()[0].to_string(), "-1 1");
    }

    #[test]
    fn empty_cover_is_constant_zero() {
        let f = Cover::new(3, 2);
        assert!(f.is_empty());
        assert_eq!(f.eval_bits(0b101), vec![false, false]);
    }

    #[test]
    fn literal_count_sums_cubes() {
        let f = cover("10- 1\n--- 1\n111 1", 3, 1);
        assert_eq!(f.literal_count(), 5);
    }
}
