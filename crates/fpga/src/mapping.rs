//! Mapping logic functions onto k-input CLBs.
//!
//! The paper notes that "FPGAs implement any function within a limited
//! number of inputs … we expect the function implemented in a PLA-based
//! FPGA to be split into blocks the same way standard FPGAs split large
//! functions into different CLBs." This module implements that split: a
//! recursive **Shannon decomposition** that breaks a multi-input cover
//! into a DAG of blocks with at most `k` inputs each:
//!
//! * leaves are sub-covers over ≤ k variables (one CLB each),
//! * internal nodes are 3-input multiplexers `(sel, then, else)` — also a
//!   CLB — selecting between the two cofactor subtrees.
//!
//! The result is both a [`Circuit`] (for place-and-route) and an
//! evaluable [`MappedNetwork`] whose function is verified against the
//! original cover.

use crate::circuit::{Circuit, Net};
use ambipla_core::{sim, Simulator};
use logic::{Cover, Cube, Tri};

/// One CLB-sized block of a mapped network.
#[derive(Debug, Clone, PartialEq)]
pub enum Block {
    /// A leaf function over the listed primary inputs (cover is
    /// single-output over exactly those variables, in order).
    Leaf {
        /// Primary-input indices feeding this block.
        inputs: Vec<usize>,
        /// The block's local single-output cover.
        cover: Cover,
    },
    /// A 2:1 multiplexer: `sel ? hi : lo`, where `sel` is a primary input
    /// and `hi`/`lo` are earlier block indices.
    Mux {
        /// Primary input used as the select.
        sel: usize,
        /// Block evaluated when `sel` is 1 (the positive cofactor).
        hi: usize,
        /// Block evaluated when `sel` is 0.
        lo: usize,
    },
}

/// A cover decomposed into a DAG of ≤ k-input blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct MappedNetwork {
    n_inputs: usize,
    blocks: Vec<Block>,
    /// Root block per output of the original cover.
    roots: Vec<usize>,
    k: usize,
}

impl MappedNetwork {
    /// Decompose `cover` into blocks of at most `k` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `k < 3` (a mux needs 3 inputs) or the cover has no
    /// outputs.
    pub fn decompose(cover: &Cover, k: usize) -> MappedNetwork {
        assert!(k >= 3, "CLBs need at least 3 inputs (mux)");
        assert!(cover.n_outputs() > 0, "cover must have outputs");
        let mut net = MappedNetwork {
            n_inputs: cover.n_inputs(),
            blocks: Vec::new(),
            roots: Vec::new(),
            k,
        };
        for j in 0..cover.n_outputs() {
            let slice = cover.output_slice(j);
            let all_vars: Vec<usize> = (0..cover.n_inputs()).collect();
            let root = net.build(&slice, &all_vars);
            net.roots.push(root);
        }
        net
    }

    /// Recursively build blocks for `cover` over primary variables `vars`
    /// (cover's variable `i` is primary input `vars[i]`).
    fn build(&mut self, cover: &Cover, vars: &[usize]) -> usize {
        // Project away unused variables first.
        let (cover, vars) = project_support(cover, vars);
        if vars.len() <= self.k {
            self.blocks.push(Block::Leaf {
                inputs: vars.clone(),
                cover,
            });
            return self.blocks.len() - 1;
        }
        // Shannon split on the most frequent variable (keeps cofactors
        // small).
        let split = most_used_var(&cover);
        let hi_cof = shannon(&cover, split, true);
        let lo_cof = shannon(&cover, split, false);
        let sub_vars: Vec<usize> = vars
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != split)
            .map(|(_, &v)| v)
            .collect();
        let hi = self.build(&drop_var(&hi_cof, split), &sub_vars);
        let lo = self.build(&drop_var(&lo_cof, split), &sub_vars);
        self.blocks.push(Block::Mux {
            sel: vars[split],
            hi,
            lo,
        });
        self.blocks.len() - 1
    }

    /// Number of blocks (CLBs).
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The blocks, in dependency (index) order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Root block index per output.
    pub fn roots(&self) -> &[usize] {
        &self.roots
    }

    /// The CLB input bound this network was mapped for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// True if the network implements `cover` (exhaustive up to
    /// [`logic::eval::EXHAUSTIVE_LIMIT`] inputs), swept 64 lanes per step
    /// through the block path.
    pub fn implements(&self, cover: &Cover) -> bool {
        let n = self.n_inputs.min(logic::eval::EXHAUSTIVE_LIMIT);
        sim::equivalent_to_cover(self, cover, n)
    }

    /// Convert into a routable [`Circuit`]: one circuit block per mapped
    /// block, block-to-block nets from the mux structure. (Primary-input
    /// fanout is local to the tile in this model and not routed.)
    pub fn to_circuit(&self) -> Circuit {
        let mut nets = Vec::new();
        for (idx, block) in self.blocks.iter().enumerate() {
            if let Block::Mux { hi, lo, .. } = block {
                for &src in [hi, lo].into_iter() {
                    nets.push(Net {
                        source: src,
                        sinks: vec![idx],
                        is_complement: false,
                    });
                }
            }
        }
        Circuit::new(self.blocks.len(), nets)
    }
}

/// The FPGA flow's block path: the mapped DAG evaluates word-level,
/// `words` lane words of 64 lanes each per net. Leaves gather their
/// primary-input word groups (whole-signal copies in the signal-major
/// layout) and evaluate their local cover with `Cover::eval_words`; a mux
/// block is three word ops per lane word (`sel & hi | !sel & lo`). This
/// is what lets mapped networks ride the same verification sweeps and
/// `SimService` batching as the PLA architectures.
impl Simulator for MappedNetwork {
    fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    fn n_outputs(&self) -> usize {
        self.roots.len()
    }

    fn eval_words(&self, inputs: &[u64], out: &mut [u64], words: usize) {
        assert!(words > 0, "at least one lane word per signal");
        assert_eq!(inputs.len(), self.n_inputs * words, "input arity mismatch");
        assert_eq!(
            out.len(),
            self.roots.len() * words,
            "output buffer size mismatch"
        );
        let mut value = vec![0u64; self.blocks.len() * words];
        let mut local: Vec<u64> = Vec::new();
        for (idx, block) in self.blocks.iter().enumerate() {
            match block {
                Block::Leaf { inputs: pis, cover } => {
                    local.clear();
                    for &pi in pis {
                        local.extend_from_slice(&inputs[pi * words..(pi + 1) * words]);
                    }
                    cover.eval_words(&local, &mut value[idx * words..(idx + 1) * words], words);
                }
                Block::Mux { sel, hi, lo } => {
                    for w in 0..words {
                        let s = inputs[sel * words + w];
                        value[idx * words + w] =
                            (s & value[hi * words + w]) | (!s & value[lo * words + w]);
                    }
                }
            }
        }
        for (orow, &r) in out.chunks_exact_mut(words).zip(&self.roots) {
            orow.copy_from_slice(&value[r * words..(r + 1) * words]);
        }
    }
}

/// Restrict a cover to its support variables; returns the projected cover
/// and the corresponding primary-variable list.
fn project_support(cover: &Cover, vars: &[usize]) -> (Cover, Vec<usize>) {
    let support: Vec<usize> = (0..cover.n_inputs())
        .filter(|&i| cover.iter().any(|c| c.input(i) != Tri::DontCare))
        .collect();
    if support.len() == cover.n_inputs() {
        return (cover.clone(), vars.to_vec());
    }
    if support.is_empty() {
        // Constant function: keep one dummy variable for a 1-input leaf.
        let keep = [0usize];
        let cubes: Vec<Cube> = cover.iter().map(|_| Cube::universe(1, 1)).collect();
        let projected = Cover::from_cubes(1, 1, cubes);
        return (projected, vec![vars[keep[0]]]);
    }
    let cubes: Vec<Cube> = cover
        .iter()
        .map(|c| {
            let tris: Vec<Tri> = support.iter().map(|&i| c.input(i)).collect();
            Cube::from_tris(&tris, &[true])
        })
        .collect();
    let projected = Cover::from_cubes(support.len(), 1, cubes);
    let new_vars: Vec<usize> = support.iter().map(|&i| vars[i]).collect();
    (projected, new_vars)
}

/// The variable used by the most cubes.
fn most_used_var(cover: &Cover) -> usize {
    (0..cover.n_inputs())
        .max_by_key(|&i| cover.iter().filter(|c| c.input(i) != Tri::DontCare).count())
        .expect("cover has variables")
}

/// Shannon cofactor (variable stays in place as don't-care).
fn shannon(cover: &Cover, var: usize, value: bool) -> Cover {
    let mut p = Cube::universe(cover.n_inputs(), 1);
    p.set_input(var, if value { Tri::One } else { Tri::Zero });
    cover.cofactor(&p)
}

/// Remove variable `var` from every cube (it must be don't-care).
fn drop_var(cover: &Cover, var: usize) -> Cover {
    let cubes: Vec<Cube> = cover
        .iter()
        .map(|c| {
            let tris: Vec<Tri> = (0..cover.n_inputs())
                .filter(|&i| i != var)
                .map(|i| c.input(i))
                .collect();
            Cube::from_tris(&tris, &[true])
        })
        .collect();
    Cover::from_cubes(cover.n_inputs() - 1, 1, cubes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cover(text: &str, ni: usize, no: usize) -> Cover {
        Cover::parse(text, ni, no).expect("parse cover")
    }

    #[test]
    fn small_function_is_one_leaf() {
        let f = cover("10 1\n01 1", 2, 1);
        let net = MappedNetwork::decompose(&f, 4);
        assert_eq!(net.n_blocks(), 1);
        assert!(net.implements(&f));
    }

    #[test]
    fn wide_function_gets_split() {
        // 6-variable parity-ish function with k=4 must introduce muxes.
        let f = cover("111111 1\n000000 1\n110000 1\n001100 1\n000011 1", 6, 1);
        let net = MappedNetwork::decompose(&f, 4);
        assert!(net.n_blocks() > 1);
        assert!(net.implements(&f));
        // Every leaf respects the input bound.
        for b in net.blocks() {
            if let Block::Leaf { inputs, .. } = b {
                assert!(inputs.len() <= 4);
            }
        }
    }

    #[test]
    fn multi_output_maps_every_output() {
        let f = cover("11- 10\n--1 01\n0-0 11", 3, 2);
        let net = MappedNetwork::decompose(&f, 3);
        assert_eq!(net.roots().len(), 2);
        assert!(net.implements(&f));
    }

    #[test]
    fn support_projection_shrinks_leaves() {
        // Function only depends on x5 out of 8 variables: one 1-input leaf.
        let f = cover("-----1-- 1", 8, 1);
        let net = MappedNetwork::decompose(&f, 4);
        assert_eq!(net.n_blocks(), 1);
        match &net.blocks()[0] {
            Block::Leaf { inputs, .. } => assert_eq!(inputs, &vec![5]),
            b => panic!("expected leaf, got {b:?}"),
        }
        assert!(net.implements(&f));
    }

    #[test]
    fn mux_dag_is_index_ordered() {
        let f = cover("111111 1\n000000 1\n101010 1\n010101 1", 6, 1);
        let net = MappedNetwork::decompose(&f, 3);
        for (idx, b) in net.blocks().iter().enumerate() {
            if let Block::Mux { hi, lo, .. } = b {
                assert!(*hi < idx && *lo < idx, "children precede parents");
            }
        }
        assert!(net.implements(&f));
    }

    #[test]
    fn to_circuit_is_routable_shape() {
        let f = cover("111111 1\n000000 1\n101010 1\n010101 1", 6, 1);
        let net = MappedNetwork::decompose(&f, 3);
        let circuit = net.to_circuit();
        assert_eq!(circuit.n_blocks(), net.n_blocks());
        // Mux blocks each contribute two incoming nets.
        let mux_count = net
            .blocks()
            .iter()
            .filter(|b| matches!(b, Block::Mux { .. }))
            .count();
        assert_eq!(circuit.nets().len(), 2 * mux_count);
    }

    #[test]
    fn deep_split_still_correct() {
        // 10 variables at k=3: forces several mux levels.
        let f = cover("1111100000 1\n0000011111 1\n1010101010 1", 10, 1);
        let net = MappedNetwork::decompose(&f, 3);
        assert!(net.n_blocks() >= 4);
        assert!(net.implements(&f));
    }

    #[test]
    #[should_panic(expected = "at least 3 inputs")]
    fn tiny_k_rejected() {
        let f = cover("10 1", 2, 1);
        let _ = MappedNetwork::decompose(&f, 2);
    }
}
