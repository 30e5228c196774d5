//! Materialized truth tables: the O(1) lookup tier for small simulators.
//!
//! For a simulator with `n ≤ ~20` inputs, the complete truth table —
//! `2^n × n_outputs` bits, packed into `u64` lane words — is small enough
//! to build once and serve forever: after one exhaustive sweep every
//! evaluation is a pure indexed load, with no plane cascades, no SOP
//! kernel, and no result cache in the path. [`TruthTable`] is that
//! backing store:
//!
//! * [`TruthTable::from_simulator`] materializes any `&dyn Simulator`
//!   via chunked [`exhaustive_words`] sweeps (buffers reused across
//!   chunks, tail lanes beyond `2^n` canonically zeroed),
//! * the table itself implements [`Simulator`]: its
//!   [`eval_words`](Simulator::eval_words) gathers each lane's packed
//!   assignment from the signal-major input words and answers by index,
//!   so a materialized table is a drop-in backend anywhere a simulator
//!   is accepted — including an `ambipla_serve` registration slot,
//! * [`TruthTable::first_difference`] compares two tables word-at-a-time
//!   in the canonical (assignment, then output) counterexample order,
//!   which is what lets `sim::check_equivalent` answer small-`n`
//!   equivalence queries by table compare,
//! * [`table_bytes`] prices a would-be table without building it — the
//!   number the `ambipla_serve` tier checks against its 1 MiB budget
//!   before materializing a registration.
//!
//! # Layout
//!
//! Signal-major, like every other block in the workspace: output `j`
//! owns `stride = ⌈2^n / 64⌉` consecutive words, and the value of output
//! `j` on packed assignment `a` is bit `a % 64` of word
//! `table[j·stride + a/64]`. Words are fully canonical — lanes beyond
//! `2^n` (only possible when `n < 6`) are zero — so two tables of equal
//! function are bit-identical and table equality is `words == words`.

use crate::sim::Simulator;
use logic::eval::{exhaustive_words, first_set_lane_words, lane_mask_words, sweep_words, LANES};

/// Bytes of packed table words a `(n_inputs, n_outputs)` truth table
/// occupies: `⌈2^n / 64⌉ × n_outputs × 8`. Computed in `u128` so the
/// price of an absurd request (`n` up to 63) is still exact rather than
/// a silent overflow — budget checks compare against this directly.
pub fn table_bytes(n_inputs: usize, n_outputs: usize) -> u128 {
    assert!(n_inputs < 64, "truth tables need n_inputs < 64");
    (1u128 << n_inputs).div_ceil(LANES as u128) * 8 * n_outputs as u128
}

/// A complete materialized truth table of a small simulator.
///
/// See the [module docs](self) for the layout and the serving/equivalence
/// roles. Equality is derived: canonical words make bit-equality function
/// equality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TruthTable {
    n_inputs: usize,
    n_outputs: usize,
    /// Words per output: `⌈2^n / 64⌉`.
    stride: usize,
    /// `n_outputs × stride` packed words, output-major.
    words: Box<[u64]>,
}

impl TruthTable {
    /// Materialize `sim` by exhaustive sweep: evaluate all `2^n`
    /// assignments in [`sweep_words`]-sized chunks through
    /// [`exhaustive_words`], reusing the input/output buffers across
    /// chunks, and mask the final partial word (only possible when
    /// `n < 6`) so the stored words are canonical.
    ///
    /// Cost is one full exhaustive evaluation of `sim` — `2^n` lanes at
    /// the backend's native width. Callers gate on [`table_bytes`]
    /// first; this constructor only enforces the hard arity limit.
    ///
    /// # Panics
    ///
    /// Panics if `sim.n_inputs() >= 64` (the packed-assignment space no
    /// longer fits an index) or if the table's word count overflows the
    /// address space.
    pub fn from_simulator(sim: &dyn Simulator) -> TruthTable {
        let n = sim.n_inputs();
        let o = sim.n_outputs();
        assert!(n < 64, "truth tables need n_inputs < 64");
        let total = 1u64 << n;
        let stride = (total as usize).div_ceil(LANES);
        let mut words = vec![0u64; o.checked_mul(stride).expect("table fits memory")];
        let sweep = sweep_words(n);
        let mut inputs = vec![0u64; n * sweep];
        let mut out = vec![0u64; o * sweep];
        let mut bw = 0usize; // base word index into each output's stride
        while bw < stride {
            let chunk = sweep.min(stride - bw);
            let base = (bw * LANES) as u64;
            exhaustive_words(base, n, chunk, &mut inputs[..n * chunk]);
            sim.eval_words(&inputs[..n * chunk], &mut out[..o * chunk], chunk);
            let valid = (total - base) as usize;
            for j in 0..o {
                for w in 0..chunk {
                    words[j * stride + bw + w] = out[j * chunk + w] & lane_mask_words(valid, w);
                }
            }
            bw += chunk;
        }
        TruthTable {
            n_inputs: n,
            n_outputs: o,
            stride,
            words: words.into_boxed_slice(),
        }
    }

    /// Answer one packed assignment by indexed load: bits of `bits`
    /// above input `n` are ignored, and the returned vector is one
    /// `bool` per output — the same shape as
    /// [`simulate_bits`](Simulator::simulate_bits), without the
    /// pack/evaluate/unpack round trip.
    pub fn lookup_bits(&self, bits: u64) -> Vec<bool> {
        let idx = (bits & ((1u64 << self.n_inputs) - 1)) as usize;
        let (w, b) = (idx / LANES, idx % LANES);
        (0..self.n_outputs)
            .map(|j| self.words[j * self.stride + w] >> b & 1 == 1)
            .collect()
    }

    /// Write output `j`'s value on `bits` for every output into `out`
    /// (reused caller buffer) — the allocation-free form of
    /// [`lookup_bits`](TruthTable::lookup_bits) the serving fast path
    /// uses.
    pub fn lookup_into(&self, bits: u64, out: &mut Vec<bool>) {
        let idx = (bits & ((1u64 << self.n_inputs) - 1)) as usize;
        let (w, b) = (idx / LANES, idx % LANES);
        out.clear();
        out.extend((0..self.n_outputs).map(|j| self.words[j * self.stride + w] >> b & 1 == 1));
    }

    /// Earliest `(assignment, output)` on which two tables differ, in
    /// the canonical counterexample order (lowest assignment first,
    /// lowest output breaking ties) — `None` if the functions are equal.
    ///
    /// # Panics
    ///
    /// Panics if the arities differ.
    pub fn first_difference(&self, other: &TruthTable) -> Option<(u64, usize)> {
        assert_eq!(self.n_inputs, other.n_inputs, "input arity mismatch");
        assert_eq!(self.n_outputs, other.n_outputs, "output arity mismatch");
        let diff =
            |j: usize, w: usize| self.words[j * self.stride + w] ^ other.words[j * self.stride + w];
        first_set_lane_words(diff, self.n_outputs, self.stride, 1usize << self.n_inputs)
            .map(|(lane, output)| (lane as u64, output))
    }

    /// Bytes of packed table words this table holds.
    pub fn bytes(&self) -> usize {
        self.words.len() * 8
    }
}

/// A materialized table is itself a [`Simulator`]: `eval_words` gathers
/// each lane's packed assignment from the signal-major input words and
/// answers every output by indexed load. Garbage tail lanes of a partial
/// block gather a garbage index and produce garbage output lanes — the
/// standard contract; the index is always in range because it is built
/// from exactly `n_inputs` bits.
impl Simulator for TruthTable {
    fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    fn n_outputs(&self) -> usize {
        self.n_outputs
    }

    fn eval_words(&self, inputs: &[u64], out: &mut [u64], words: usize) {
        assert!(words > 0, "at least one lane word per signal");
        assert_eq!(inputs.len(), self.n_inputs * words, "buffer size mismatch");
        assert_eq!(out.len(), self.n_outputs * words, "buffer size mismatch");
        out.fill(0);
        for w in 0..words {
            for bit in 0..LANES {
                let mut idx = 0usize;
                for i in 0..self.n_inputs {
                    idx |= ((inputs[i * words + w] >> bit & 1) as usize) << i;
                }
                let (tw, tb) = (idx / LANES, idx % LANES);
                for j in 0..self.n_outputs {
                    out[j * words + w] |= (self.words[j * self.stride + tw] >> tb & 1) << bit;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logic::Cover;

    fn xor3() -> Cover {
        Cover::parse("100 1\n010 1\n001 1\n111 1", 3, 1).expect("valid cover")
    }

    #[test]
    fn tables_agree_with_their_source_on_every_assignment() {
        let f = xor3();
        let t = TruthTable::from_simulator(&f);
        for bits in 0..8u64 {
            assert_eq!(
                t.lookup_bits(bits),
                f.simulate_bits(bits),
                "bits {bits:03b}"
            );
            assert_eq!(
                t.simulate_bits(bits),
                f.simulate_bits(bits),
                "bits {bits:03b}"
            );
        }
    }

    #[test]
    fn sub_word_tables_have_canonical_zero_tails() {
        // 3 inputs → 8 valid lanes in a 64-lane word: the other 56 bits
        // must be zero, making equal functions bit-identical tables.
        let t = TruthTable::from_simulator(&xor3());
        let again = TruthTable::from_simulator(&xor3());
        assert_eq!(t, again);
        assert_eq!(t.bytes(), 8);
    }

    #[test]
    fn first_difference_reports_the_lowest_assignment_then_output() {
        let a = TruthTable::from_simulator(&xor3());
        // Differs from xor3 exactly on assignment 0b111 (output 0).
        let parity = Cover::parse("100 1\n010 1\n001 1", 3, 1).expect("valid cover");
        let b = TruthTable::from_simulator(&parity);
        assert_eq!(a.first_difference(&b), Some((0b111, 0)));
        assert_eq!(a.first_difference(&a), None);
    }

    #[test]
    fn table_bytes_prices_without_building() {
        assert_eq!(table_bytes(3, 1), 8);
        assert_eq!(table_bytes(6, 2), 16);
        assert_eq!(table_bytes(12, 16), (1 << 12) / 64 * 8 * 16);
        assert_eq!(table_bytes(40, 4), (1u128 << 40) / 64 * 8 * 4);
    }
}
