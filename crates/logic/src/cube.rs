//! Positional-cube representation of product terms.
//!
//! Each binary input variable occupies **two bits** in a packed word array,
//! following the encoding used by the original ESPRESSO implementation:
//!
//! | pair  | meaning                  | [`Tri`]          |
//! |-------|--------------------------|------------------|
//! | `01`  | literal `x̄` (must be 0) | [`Tri::Zero`]    |
//! | `10`  | literal `x` (must be 1)  | [`Tri::One`]     |
//! | `11`  | don't care (both)        | [`Tri::DontCare`]|
//! | `00`  | empty (contradiction)    | —                |
//!
//! The *output part* is a plain bitmask: bit `j` set means the cube belongs to
//! the cover of output `j`. A cube with an all-zero output part is empty.

use std::fmt;

/// Number of input variables packed into one `u64` word (2 bits each).
const VARS_PER_WORD: usize = 32;
/// Number of output bits packed into one `u64` word.
const OUTS_PER_WORD: usize = 64;

/// Ternary value of one input position of a cube.
///
/// `Tri` is the user-facing view of the two-bit pair stored in a [`Cube`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tri {
    /// The variable must be `0` (complemented literal).
    Zero,
    /// The variable must be `1` (positive literal).
    One,
    /// The variable is unconstrained.
    DontCare,
}

impl Tri {
    /// The two-bit positional encoding of this value.
    fn pair(self) -> u64 {
        match self {
            Tri::Zero => 0b01,
            Tri::One => 0b10,
            Tri::DontCare => 0b11,
        }
    }

    /// Parse a single PLA-format character (`0`, `1`, `-` or `~`).
    pub fn from_char(c: char) -> Option<Tri> {
        match c {
            '0' => Some(Tri::Zero),
            '1' => Some(Tri::One),
            '-' | '~' | '2' => Some(Tri::DontCare),
            _ => None,
        }
    }

    /// The PLA-format character for this value.
    pub fn to_char(self) -> char {
        match self {
            Tri::Zero => '0',
            Tri::One => '1',
            Tri::DontCare => '-',
        }
    }
}

impl fmt::Display for Tri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

/// A product term over `n_inputs` binary variables with a multi-output part.
///
/// Cubes are the atoms manipulated by every algorithm in this crate: the
/// ESPRESSO loop, the unate recursive paradigm, and the GNOR-PLA mapper in the
/// core crate. All set operations (intersection, containment, consensus,
/// cofactor, supercube) are implemented word-parallel on the packed
/// representation.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Cube {
    n_inputs: usize,
    n_outputs: usize,
    /// Packed bit-pair input part, `ceil(n_inputs / 32)` words.
    input: Vec<u64>,
    /// Packed output bitmask, `ceil(n_outputs / 64)` words.
    output: Vec<u64>,
}

impl Cube {
    /// A full cube: every input don't-care, every output asserted.
    ///
    /// This is the universe of the Boolean space; useful as the starting point
    /// for intersections and as the tautology witness.
    pub fn universe(n_inputs: usize, n_outputs: usize) -> Cube {
        let mut input = vec![u64::MAX; n_inputs.div_ceil(VARS_PER_WORD).max(1)];
        let mut output = vec![u64::MAX; n_outputs.div_ceil(OUTS_PER_WORD).max(1)];
        mask_tail(&mut input, 2 * n_inputs);
        mask_tail(&mut output, n_outputs);
        Cube {
            n_inputs,
            n_outputs,
            input,
            output,
        }
    }

    /// Build a cube from explicit ternary input values and output membership.
    ///
    /// # Panics
    ///
    /// Panics if `outputs` is empty (a cube must drive at least one output
    /// when constructed this way; use [`Cube::universe`] plus
    /// [`Cube::clear_output`] for special cases).
    pub fn from_tris(inputs: &[Tri], outputs: &[bool]) -> Cube {
        assert!(!outputs.is_empty(), "cube must have at least one output");
        let mut cube = Cube::universe(inputs.len(), outputs.len());
        for (i, t) in inputs.iter().enumerate() {
            cube.set_input(i, *t);
        }
        for (j, o) in outputs.iter().enumerate() {
            if !o {
                cube.clear_output(j);
            }
        }
        cube
    }

    /// Parse a cube from PLA-format text, e.g. `"10-1 01"`.
    ///
    /// The input part uses `0`, `1`, `-`; the output part uses `1` for
    /// membership and `0`/`-`/`~` for absence (function-set semantics).
    /// Whitespace between the two parts is optional.
    pub fn parse(text: &str, n_inputs: usize, n_outputs: usize) -> Option<Cube> {
        let chars: Vec<char> = text.chars().filter(|c| !c.is_whitespace()).collect();
        if chars.len() != n_inputs + n_outputs {
            return None;
        }
        let mut cube = Cube::universe(n_inputs, n_outputs);
        for (i, &c) in chars[..n_inputs].iter().enumerate() {
            cube.set_input(i, Tri::from_char(c)?);
        }
        for (j, &c) in chars[n_inputs..].iter().enumerate() {
            if c != '1' {
                cube.clear_output(j);
            }
        }
        Some(cube)
    }

    /// The minterm cube for an input assignment given as packed bits
    /// (bit `i` of `bits` is the value of variable `i`), asserting every
    /// output.
    pub fn minterm(bits: u64, n_inputs: usize, n_outputs: usize) -> Cube {
        assert!(n_inputs <= 64, "packed minterms support at most 64 inputs");
        let mut cube = Cube::universe(n_inputs, n_outputs);
        for i in 0..n_inputs {
            cube.set_input(
                i,
                if bits >> i & 1 == 1 {
                    Tri::One
                } else {
                    Tri::Zero
                },
            );
        }
        cube
    }

    /// Number of input variables.
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Number of outputs.
    pub fn n_outputs(&self) -> usize {
        self.n_outputs
    }

    /// The ternary value at input position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_inputs()` or the position holds the empty pair.
    pub fn input(&self, i: usize) -> Tri {
        assert!(i < self.n_inputs, "input index out of range");
        let word = self.input[i / VARS_PER_WORD];
        match word >> (2 * (i % VARS_PER_WORD)) & 0b11 {
            0b01 => Tri::Zero,
            0b10 => Tri::One,
            0b11 => Tri::DontCare,
            _ => panic!("empty input position {i} read as Tri"),
        }
    }

    /// Set the ternary value at input position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_inputs()`.
    pub fn set_input(&mut self, i: usize, t: Tri) {
        assert!(i < self.n_inputs, "input index out of range");
        let w = i / VARS_PER_WORD;
        let s = 2 * (i % VARS_PER_WORD);
        self.input[w] = (self.input[w] & !(0b11 << s)) | (t.pair() << s);
    }

    /// Whether the cube drives output `j`.
    pub fn has_output(&self, j: usize) -> bool {
        assert!(j < self.n_outputs, "output index out of range");
        self.output[j / OUTS_PER_WORD] >> (j % OUTS_PER_WORD) & 1 == 1
    }

    /// Assert output `j`.
    pub fn set_output(&mut self, j: usize) {
        assert!(j < self.n_outputs, "output index out of range");
        self.output[j / OUTS_PER_WORD] |= 1 << (j % OUTS_PER_WORD);
    }

    /// Deassert output `j`.
    pub fn clear_output(&mut self, j: usize) {
        assert!(j < self.n_outputs, "output index out of range");
        self.output[j / OUTS_PER_WORD] &= !(1 << (j % OUTS_PER_WORD));
    }

    /// Iterator over the indices of the outputs this cube drives.
    pub fn outputs(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n_outputs).filter(|&j| self.has_output(j))
    }

    /// Number of asserted outputs.
    pub fn output_count(&self) -> usize {
        self.output.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the input part contains an empty (`00`) pair or no output is
    /// asserted — i.e. the cube denotes the empty set.
    pub fn is_empty(&self) -> bool {
        if self.output.iter().all(|&w| w == 0) {
            return true;
        }
        self.has_empty_input()
    }

    /// True if some input position holds the contradictory `00` pair.
    fn has_empty_input(&self) -> bool {
        for (w, &word) in self.input.iter().enumerate() {
            let lo = word & LO_MASK;
            let hi = (word >> 1) & LO_MASK;
            let mut both_zero = !(lo | hi) & LO_MASK;
            // Ignore pairs beyond n_inputs.
            let first = w * VARS_PER_WORD;
            if first + VARS_PER_WORD > self.n_inputs {
                let valid = self.n_inputs.saturating_sub(first);
                if valid == 0 {
                    both_zero = 0;
                } else {
                    both_zero &= ((1u64 << (2 * valid)) - 1) & LO_MASK;
                }
            }
            if both_zero != 0 {
                return true;
            }
        }
        false
    }

    /// Number of input positions carrying a literal (not don't-care).
    pub fn literal_count(&self) -> usize {
        // Word-parallel: a literal position is `01` or `10`, i.e. the low
        // and high pair bits differ.
        self.input
            .iter()
            .map(|&w| (((w >> 1) ^ w) & LO_MASK).count_ones() as usize)
            .sum()
    }

    /// Intersection of two cubes (AND of parts). May be empty.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn intersect(&self, other: &Cube) -> Cube {
        self.check_dims(other);
        Cube {
            n_inputs: self.n_inputs,
            n_outputs: self.n_outputs,
            input: zip_words(&self.input, &other.input, |a, b| a & b),
            output: zip_words(&self.output, &other.output, |a, b| a & b),
        }
    }

    /// True if the two cubes share at least one minterm on at least one
    /// common output.
    pub fn intersects(&self, other: &Cube) -> bool {
        !self.intersect(other).is_empty()
    }

    /// True if the input parts alone share at least one point (outputs are
    /// ignored). Used when testing against per-output OFF-sets.
    ///
    /// Unlike most binary cube operations this only requires the *input*
    /// arities to match, so multi-output cubes can be tested directly
    /// against single-output OFF-set cubes without materializing
    /// [`Cube::input_part`].
    pub fn inputs_intersect(&self, other: &Cube) -> bool {
        assert_eq!(self.n_inputs, other.n_inputs, "input arity mismatch");
        for (w, (&a, &b)) in self.input.iter().zip(&other.input).enumerate() {
            if conflict_word(a & b, self.n_inputs, w) != 0 {
                return false;
            }
        }
        true
    }

    /// True if `self` contains `other` as a set (both parts).
    pub fn contains(&self, other: &Cube) -> bool {
        self.check_dims(other);
        words_subset(&other.input, &self.input) && words_subset(&other.output, &self.output)
    }

    /// True if the input part of `self` contains the input part of `other`.
    pub fn input_contains(&self, other: &Cube) -> bool {
        self.check_dims(other);
        words_subset(&other.input, &self.input)
    }

    /// Smallest cube containing both operands (OR of parts).
    pub fn supercube(&self, other: &Cube) -> Cube {
        self.check_dims(other);
        Cube {
            n_inputs: self.n_inputs,
            n_outputs: self.n_outputs,
            input: zip_words(&self.input, &other.input, |a, b| a | b),
            output: zip_words(&self.output, &other.output, |a, b| a | b),
        }
    }

    /// Input-part distance: the number of input variables on which the two
    /// cubes conflict (their pairwise AND is `00`).
    pub fn input_distance(&self, other: &Cube) -> usize {
        self.check_dims(other);
        self.input
            .iter()
            .zip(&other.input)
            .enumerate()
            .map(|(w, (&a, &b))| conflict_word(a & b, self.n_inputs, w).count_ones() as usize)
            .sum()
    }

    /// Full distance à la ESPRESSO: input distance plus one when the output
    /// parts are disjoint.
    pub fn distance(&self, other: &Cube) -> usize {
        let mut d = self.input_distance(other);
        if self
            .output
            .iter()
            .zip(&other.output)
            .all(|(&a, &b)| a & b == 0)
        {
            d += 1;
        }
        d
    }

    /// Consensus (the cube adjacency product). Defined when `distance == 1`:
    ///
    /// * conflict in one input variable → that variable becomes don't-care,
    ///   other parts are intersected;
    /// * disjoint outputs only → inputs are intersected, outputs are united.
    ///
    /// Returns `None` when the distance is not exactly 1.
    pub fn consensus(&self, other: &Cube) -> Option<Cube> {
        self.check_dims(other);
        let input_d = self.input_distance(other);
        let out_disjoint = self
            .output
            .iter()
            .zip(&other.output)
            .all(|(&a, &b)| a & b == 0);
        match (input_d, out_disjoint) {
            (1, false) => {
                let mut c = self.intersect(other);
                // Find the single conflicting variable and raise it.
                for i in 0..self.n_inputs {
                    let w = i / VARS_PER_WORD;
                    let s = 2 * (i % VARS_PER_WORD);
                    if c.input[w] >> s & 0b11 == 0 {
                        c.set_input(i, Tri::DontCare);
                        break;
                    }
                }
                Some(c)
            }
            (0, true) => {
                let mut c = self.intersect(other);
                c.output = zip_words(&self.output, &other.output, |a, b| a | b);
                Some(c)
            }
            _ => None,
        }
    }

    /// Cofactor of `self` with respect to cube `p` (the Shannon cofactor
    /// generalized to cubes). Returns `None` if the cubes do not intersect.
    ///
    /// Variables where `p` carries a literal become don't-care in the result;
    /// the output part is restricted to `p`'s outputs.
    pub fn cofactor(&self, p: &Cube) -> Option<Cube> {
        self.check_dims(p);
        if self.input_distance(p) > 0 {
            return None;
        }
        let out: Vec<u64> = zip_words(&self.output, &p.output, |a, b| a & b);
        if out.iter().all(|&w| w == 0) {
            return None;
        }
        // input_i := self_i | !p_i  (raise positions fixed by p).
        let mut input = zip_words(&self.input, &p.input, |a, b| a | !b);
        mask_tail(&mut input, 2 * self.n_inputs);
        Some(Cube {
            n_inputs: self.n_inputs,
            n_outputs: self.n_outputs,
            input,
            output: out,
        })
    }

    /// The input part of this cube as a fresh single-output cube (output 0
    /// asserted). Used to test input parts against per-output OFF-set covers.
    pub fn input_part(&self) -> Cube {
        let mut c = Cube::universe(self.n_inputs, 1);
        c.input.copy_from_slice(&self.input);
        c
    }

    /// True if every input position is don't-care (the input universe).
    pub fn input_is_full(&self) -> bool {
        (0..self.n_inputs).all(|i| self.input(i) == Tri::DontCare)
    }

    /// True if the cube's input part covers the packed minterm `bits`.
    pub fn covers_bits(&self, bits: u64) -> bool {
        debug_assert!(self.n_inputs <= 64);
        for i in 0..self.n_inputs {
            let need = if bits >> i & 1 == 1 {
                Tri::One
            } else {
                Tri::Zero
            };
            let t = self.input(i);
            if t != Tri::DontCare && t != need {
                return false;
            }
        }
        true
    }

    fn check_dims(&self, other: &Cube) {
        assert_eq!(self.n_inputs, other.n_inputs, "input arity mismatch");
        assert_eq!(self.n_outputs, other.n_outputs, "output arity mismatch");
    }

    /// The packed pair-word input part (32 variables per `u64`, 2 bits
    /// each). This is the raw representation the word-parallel URP and
    /// EXPAND kernels operate on directly.
    pub(crate) fn input_words(&self) -> &[u64] {
        &self.input
    }

    /// Write the LO-aligned conflict mask between the input parts of
    /// `self` and `other` into `out`: bit `2·(i % 32)` of `out[i / 32]` is
    /// set iff the two cubes carry opposite literals on variable `i`.
    /// Only the input arities must match.
    ///
    /// # Panics
    ///
    /// Panics if input arities differ or `out` is shorter than the input
    /// word count.
    pub(crate) fn conflict_mask_into(&self, other: &Cube, out: &mut [u64]) {
        assert_eq!(self.n_inputs, other.n_inputs, "input arity mismatch");
        for (w, (&a, &b)) in self.input.iter().zip(&other.input).enumerate() {
            out[w] = conflict_word(a & b, self.n_inputs, w);
        }
    }

    /// Raise every variable whose LO-aligned mask bit is set to
    /// don't-care, word-parallel (mask geometry as produced by
    /// [`Cube::conflict_mask_into`]).
    pub(crate) fn raise_vars(&mut self, mask: &[u64]) {
        for (word, &m) in self.input.iter_mut().zip(mask) {
            debug_assert_eq!(m & !LO_MASK, 0, "mask must be LO-aligned");
            *word |= m | (m << 1);
        }
    }

    /// Replace the input part with `other`'s input part, word-parallel.
    /// Only the input arities must match; the output part is untouched.
    pub(crate) fn copy_input_from(&mut self, other: &Cube) {
        assert_eq!(self.n_inputs, other.n_inputs, "input arity mismatch");
        self.input.copy_from_slice(&other.input);
    }

    /// Cheap containment prefilter summary: the OR-fold of the packed
    /// input pair-words and of the output mask words. Word-wise
    /// containment implies fold containment, so for cubes `a ⊆ b` it
    /// holds that `sig(a).0 & !sig(b).0 == 0` and
    /// `sig(a).1 & !sig(b).1 == 0` — two word ops reject a pair that
    /// cannot be in containment without touching the full parts. For
    /// covers of ≤ 32 inputs / ≤ 64 outputs the fold is the exact part,
    /// so the prefilter *is* the containment test there.
    pub(crate) fn containment_signature(&self) -> (u64, u64) {
        let fold = |ws: &[u64]| ws.iter().fold(0u64, |acc, &w| acc | w);
        (fold(&self.input), fold(&self.output))
    }
}

/// Empty (`00`) pairs of a meet word, as an LO-aligned mask with the tail
/// beyond `n_inputs` cleared. `w` is the word's index in the input array.
/// (Passing a cube's own word finds its empty pairs; passing the AND of two
/// cubes' words finds their conflicts — the URP matrix loaders use both.)
#[inline]
pub(crate) fn conflict_word(meet: u64, n_inputs: usize, w: usize) -> u64 {
    let lo = meet & LO_MASK;
    let hi = (meet >> 1) & LO_MASK;
    let mut empty = !(lo | hi) & LO_MASK;
    let first = w * VARS_PER_WORD;
    let valid = n_inputs.saturating_sub(first).min(VARS_PER_WORD);
    if valid < VARS_PER_WORD {
        empty &= (1u64 << (2 * valid)).wrapping_sub(1);
    }
    empty
}

/// Mask selecting the low bit of every pair.
pub(crate) const LO_MASK: u64 = 0x5555_5555_5555_5555;

fn zip_words(a: &[u64], b: &[u64], f: impl Fn(u64, u64) -> u64) -> Vec<u64> {
    a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
}

fn words_subset(small: &[u64], big: &[u64]) -> bool {
    small.iter().zip(big).all(|(&s, &b)| s & !b == 0)
}

/// Zero out bits at positions `>= n_bits` in a packed word array.
fn mask_tail(words: &mut [u64], n_bits: usize) {
    for (w, word) in words.iter_mut().enumerate() {
        let first = w * 64;
        if first >= n_bits {
            *word = 0;
        } else if first + 64 > n_bits {
            *word &= (1u64 << (n_bits - first)) - 1;
        }
    }
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cube({self})")
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.n_inputs {
            let w = i / VARS_PER_WORD;
            let s = 2 * (i % VARS_PER_WORD);
            let c = match self.input[w] >> s & 0b11 {
                0b01 => '0',
                0b10 => '1',
                0b11 => '-',
                _ => '!',
            };
            write!(f, "{c}")?;
        }
        write!(f, " ")?;
        for j in 0..self.n_outputs {
            write!(f, "{}", if self.has_output(j) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube(text: &str, ni: usize, no: usize) -> Cube {
        Cube::parse(text, ni, no).expect("parse cube")
    }

    #[test]
    fn parse_and_display_roundtrip() {
        let c = cube("10-1 01", 4, 2);
        assert_eq!(c.to_string(), "10-1 01");
        assert_eq!(c.input(0), Tri::One);
        assert_eq!(c.input(1), Tri::Zero);
        assert_eq!(c.input(2), Tri::DontCare);
        assert_eq!(c.input(3), Tri::One);
        assert!(!c.has_output(0));
        assert!(c.has_output(1));
    }

    #[test]
    fn universe_is_full_and_nonempty() {
        let u = Cube::universe(67, 3);
        assert!(!u.is_empty());
        assert!(u.input_is_full());
        assert_eq!(u.output_count(), 3);
        for i in 0..67 {
            assert_eq!(u.input(i), Tri::DontCare);
        }
    }

    #[test]
    fn empty_detection() {
        let a = cube("1- 1", 2, 1);
        let b = cube("0- 1", 2, 1);
        let meet = a.intersect(&b);
        assert!(meet.is_empty());
        assert!(!a.is_empty());
        let mut no_out = a.clone();
        no_out.clear_output(0);
        assert!(no_out.is_empty());
    }

    #[test]
    fn containment() {
        let big = cube("1-- 1", 3, 1);
        let small = cube("1-0 1", 3, 1);
        assert!(big.contains(&small));
        assert!(!small.contains(&big));
        assert!(big.contains(&big));
    }

    #[test]
    fn output_containment_matters() {
        let a = cube("1- 10", 2, 2);
        let b = cube("1- 11", 2, 2);
        assert!(b.contains(&a));
        assert!(!a.contains(&b));
    }

    #[test]
    fn supercube_covers_both() {
        let a = cube("10 1", 2, 1);
        let b = cube("01 1", 2, 1);
        let sc = a.supercube(&b);
        assert!(sc.contains(&a));
        assert!(sc.contains(&b));
        assert!(sc.input_is_full());
    }

    #[test]
    fn distance_counts_conflicts() {
        let a = cube("101 1", 3, 1);
        let b = cube("010 1", 3, 1);
        assert_eq!(a.input_distance(&b), 3);
        assert_eq!(a.distance(&b), 3);
        let c = cube("1-1 1", 3, 1);
        assert_eq!(a.input_distance(&c), 0);
        assert_eq!(a.distance(&c), 0);
    }

    #[test]
    fn distance_includes_output_part() {
        let a = cube("11 10", 2, 2);
        let b = cube("11 01", 2, 2);
        assert_eq!(a.input_distance(&b), 0);
        assert_eq!(a.distance(&b), 1);
    }

    #[test]
    fn consensus_on_single_input_conflict() {
        let a = cube("1-1 1", 3, 1);
        let b = cube("0-1 1", 3, 1);
        let c = a.consensus(&b).expect("distance 1");
        assert_eq!(c.to_string(), "--1 1");
    }

    #[test]
    fn consensus_on_outputs() {
        let a = cube("11 10", 2, 2);
        let b = cube("1- 01", 2, 2);
        let c = a.consensus(&b).expect("output consensus");
        assert_eq!(c.to_string(), "11 11");
    }

    #[test]
    fn consensus_undefined_at_distance_two() {
        let a = cube("11 1", 2, 1);
        let b = cube("00 1", 2, 1);
        assert!(a.consensus(&b).is_none());
    }

    #[test]
    fn cofactor_raises_fixed_positions() {
        let c = cube("10- 1", 3, 1);
        let p = cube("1-- 1", 3, 1);
        let cf = c.cofactor(&p).expect("intersecting");
        assert_eq!(cf.to_string(), "-0- 1");
        let q = cube("0-- 1", 3, 1);
        assert!(c.cofactor(&q).is_none());
    }

    #[test]
    fn minterm_and_covers_bits() {
        let m = Cube::minterm(0b101, 3, 1);
        assert_eq!(m.to_string(), "101 1");
        let c = cube("1-1 1", 3, 1);
        assert!(c.covers_bits(0b101));
        assert!(c.covers_bits(0b111));
        assert!(!c.covers_bits(0b100));
    }

    #[test]
    fn literal_count() {
        assert_eq!(cube("1-0- 1", 4, 1).literal_count(), 2);
        assert_eq!(Cube::universe(5, 1).literal_count(), 0);
    }

    #[test]
    fn wide_cubes_cross_word_boundaries() {
        let n = 70;
        let mut c = Cube::universe(n, 1);
        c.set_input(0, Tri::One);
        c.set_input(33, Tri::Zero);
        c.set_input(69, Tri::One);
        assert_eq!(c.input(0), Tri::One);
        assert_eq!(c.input(33), Tri::Zero);
        assert_eq!(c.input(69), Tri::One);
        assert_eq!(c.literal_count(), 3);
        let mut d = Cube::universe(n, 1);
        d.set_input(33, Tri::One);
        assert_eq!(c.input_distance(&d), 1);
        assert!(c.intersect(&d).is_empty());
    }

    #[test]
    fn inputs_intersect_ignores_outputs() {
        let a = cube("11 10", 2, 2);
        let b = cube("11 01", 2, 2);
        assert!(a.inputs_intersect(&b));
        assert!(!a.intersects(&b));
    }

    #[test]
    #[should_panic(expected = "input arity mismatch")]
    fn dimension_mismatch_panics() {
        let a = Cube::universe(2, 1);
        let b = Cube::universe(3, 1);
        let _ = a.intersect(&b);
    }
}
