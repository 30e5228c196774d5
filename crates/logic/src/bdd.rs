//! Reduced ordered binary decision diagrams (ROBDDs).
//!
//! A small hash-consed BDD package used for **complete** equivalence
//! checking where exhaustive enumeration stops scaling (the `eval` module
//! samples beyond 20 inputs; BDDs prove). Supports the operations the
//! toolchain needs: build from a [`Cover`], boolean `apply`, negation,
//! satisfiability/tautology tests and model counting.
//!
//! Variable order is the natural input order — good enough for PLA covers,
//! which are shallow; no dynamic reordering.

use crate::cover::Cover;
use crate::cube::Tri;
use std::collections::HashMap;

/// Node reference: index into the manager's node table. `0` and `1` are
/// the terminal FALSE/TRUE nodes.
pub type Ref = u32;

/// Terminal FALSE.
pub const ZERO: Ref = 0;
/// Terminal TRUE.
pub const ONE: Ref = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    var: u32,
    lo: Ref,
    hi: Ref,
}

/// A BDD manager: node table, unique table, and operation cache.
///
/// # Example
///
/// ```
/// use logic::bdd::Bdd;
/// use logic::Cover;
///
/// let mut bdd = Bdd::new(2);
/// let f = bdd.from_cover(&Cover::parse("10 1\n01 1", 2, 1).unwrap(), 0);
/// let x0 = bdd.var(0);
/// let x1 = bdd.var(1);
/// let xor = bdd.xor(x0, x1);
/// assert_eq!(f, xor); // hash-consing makes equivalence a pointer check
/// ```
#[derive(Debug, Clone)]
pub struct Bdd {
    n_vars: usize,
    nodes: Vec<Node>,
    unique: HashMap<Node, Ref>,
    and_cache: HashMap<(Ref, Ref), Ref>,
    or_cache: HashMap<(Ref, Ref), Ref>,
    not_cache: HashMap<Ref, Ref>,
}

impl Bdd {
    /// A manager over `n_vars` variables.
    pub fn new(n_vars: usize) -> Bdd {
        Bdd {
            n_vars,
            // Terminals occupy slots 0 and 1 with a sentinel var.
            nodes: vec![
                Node {
                    var: u32::MAX,
                    lo: ZERO,
                    hi: ZERO,
                },
                Node {
                    var: u32::MAX,
                    lo: ONE,
                    hi: ONE,
                },
            ],
            unique: HashMap::new(),
            and_cache: HashMap::new(),
            or_cache: HashMap::new(),
            not_cache: HashMap::new(),
        }
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    fn mk(&mut self, var: u32, lo: Ref, hi: Ref) -> Ref {
        if lo == hi {
            return lo;
        }
        let node = Node { var, lo, hi };
        if let Some(&r) = self.unique.get(&node) {
            return r;
        }
        let r = self.nodes.len() as Ref;
        self.nodes.push(node);
        self.unique.insert(node, r);
        r
    }

    /// The function `x_i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_vars`.
    pub fn var(&mut self, i: usize) -> Ref {
        assert!(i < self.n_vars, "variable out of range");
        self.mk(i as u32, ZERO, ONE)
    }

    /// The function `x̄_i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_vars`.
    pub fn nvar(&mut self, i: usize) -> Ref {
        assert!(i < self.n_vars, "variable out of range");
        self.mk(i as u32, ONE, ZERO)
    }

    /// Conjunction.
    pub fn and(&mut self, a: Ref, b: Ref) -> Ref {
        if a == ZERO || b == ZERO {
            return ZERO;
        }
        if a == ONE {
            return b;
        }
        if b == ONE {
            return a;
        }
        if a == b {
            return a;
        }
        let key = (a.min(b), a.max(b));
        if let Some(&r) = self.and_cache.get(&key) {
            return r;
        }
        let (va, vb) = (self.nodes[a as usize].var, self.nodes[b as usize].var);
        let v = va.min(vb);
        let (a_lo, a_hi) = self.cofactors(a, v);
        let (b_lo, b_hi) = self.cofactors(b, v);
        let lo = self.and(a_lo, b_lo);
        let hi = self.and(a_hi, b_hi);
        let r = self.mk(v, lo, hi);
        self.and_cache.insert(key, r);
        r
    }

    /// Disjunction.
    pub fn or(&mut self, a: Ref, b: Ref) -> Ref {
        if a == ONE || b == ONE {
            return ONE;
        }
        if a == ZERO {
            return b;
        }
        if b == ZERO {
            return a;
        }
        if a == b {
            return a;
        }
        let key = (a.min(b), a.max(b));
        if let Some(&r) = self.or_cache.get(&key) {
            return r;
        }
        let (va, vb) = (self.nodes[a as usize].var, self.nodes[b as usize].var);
        let v = va.min(vb);
        let (a_lo, a_hi) = self.cofactors(a, v);
        let (b_lo, b_hi) = self.cofactors(b, v);
        let lo = self.or(a_lo, b_lo);
        let hi = self.or(a_hi, b_hi);
        let r = self.mk(v, lo, hi);
        self.or_cache.insert(key, r);
        r
    }

    /// Negation.
    pub fn not(&mut self, a: Ref) -> Ref {
        match a {
            ZERO => ONE,
            ONE => ZERO,
            _ => {
                if let Some(&r) = self.not_cache.get(&a) {
                    return r;
                }
                let n = self.nodes[a as usize];
                let lo = self.not(n.lo);
                let hi = self.not(n.hi);
                let r = self.mk(n.var, lo, hi);
                self.not_cache.insert(a, r);
                r
            }
        }
    }

    /// Exclusive or.
    pub fn xor(&mut self, a: Ref, b: Ref) -> Ref {
        let nb = self.not(b);
        let na = self.not(a);
        let t1 = self.and(a, nb);
        let t2 = self.and(na, b);
        self.or(t1, t2)
    }

    fn cofactors(&self, a: Ref, v: u32) -> (Ref, Ref) {
        let n = self.nodes[a as usize];
        if n.var == v {
            (n.lo, n.hi)
        } else {
            (a, a)
        }
    }

    /// Build the BDD of output `j` of a cover.
    ///
    /// # Panics
    ///
    /// Panics if the cover's input count differs from the manager's, or
    /// `j` is out of range.
    pub fn from_cover(&mut self, cover: &Cover, j: usize) -> Ref {
        assert_eq!(cover.n_inputs(), self.n_vars, "variable count mismatch");
        assert!(j < cover.n_outputs(), "output out of range");
        let mut f = ZERO;
        for cube in cover.iter() {
            if !cube.has_output(j) {
                continue;
            }
            let mut term = ONE;
            // AND literals from the highest variable down so intermediate
            // BDDs stay small under the natural order.
            for i in (0..self.n_vars).rev() {
                let lit = match cube.input(i) {
                    Tri::One => self.var(i),
                    Tri::Zero => self.nvar(i),
                    Tri::DontCare => continue,
                };
                term = self.and(term, lit);
            }
            f = self.or(f, term);
        }
        f
    }

    /// Evaluate a BDD on a packed assignment.
    pub fn eval(&self, mut f: Ref, bits: u64) -> bool {
        loop {
            match f {
                ZERO => return false,
                ONE => return true,
                _ => {
                    let n = self.nodes[f as usize];
                    f = if bits >> n.var & 1 == 1 { n.hi } else { n.lo };
                }
            }
        }
    }

    /// Number of satisfying assignments over all `n_vars` variables.
    pub fn sat_count(&self, f: Ref) -> u64 {
        let mut memo: HashMap<Ref, u64> = HashMap::new();
        self.sat_rec(f, &mut memo) << self.gap(f)
    }

    fn gap(&self, f: Ref) -> u32 {
        match f {
            ZERO | ONE => self.n_vars as u32,
            _ => self.nodes[f as usize].var,
        }
    }

    fn sat_rec(&self, f: Ref, memo: &mut HashMap<Ref, u64>) -> u64 {
        match f {
            ZERO => 0,
            ONE => 1,
            _ => {
                if let Some(&c) = memo.get(&f) {
                    return c;
                }
                let n = self.nodes[f as usize];
                let lo = self.sat_rec(n.lo, memo) << (self.gap(n.lo) - n.var - 1);
                let hi = self.sat_rec(n.hi, memo) << (self.gap(n.hi) - n.var - 1);
                let c = lo + hi;
                memo.insert(f, c);
                c
            }
        }
    }

    /// True if `f` is the constant TRUE (tautology).
    pub fn is_tautology(&self, f: Ref) -> bool {
        f == ONE
    }

    /// Number of nodes reachable from `f` (the size of the function's own
    /// diagram; the manager also retains dead intermediates — there is no
    /// garbage collection).
    pub fn reachable_count(&self, f: Ref) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f];
        while let Some(r) = stack.pop() {
            if !seen.insert(r) || r == ZERO || r == ONE {
                continue;
            }
            let n = self.nodes[r as usize];
            stack.push(n.lo);
            stack.push(n.hi);
        }
        seen.len()
    }
}

/// Prove or refute multi-output equivalence of two covers with BDDs
/// (complete, unlike the sampled checker for wide functions).
///
/// # Panics
///
/// Panics if the arities differ.
pub fn bdd_equivalent(a: &Cover, b: &Cover) -> bool {
    assert_eq!(a.n_inputs(), b.n_inputs(), "input arity mismatch");
    assert_eq!(a.n_outputs(), b.n_outputs(), "output arity mismatch");
    let mut bdd = Bdd::new(a.n_inputs());
    (0..a.n_outputs()).all(|j| {
        let fa = bdd.from_cover(a, j);
        let fb = bdd.from_cover(b, j);
        fa == fb // canonical: equivalence is reference equality
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::espresso::espresso;

    fn cover(text: &str, ni: usize, no: usize) -> Cover {
        Cover::parse(text, ni, no).expect("parse cover")
    }

    #[test]
    fn terminals_and_vars() {
        let mut b = Bdd::new(2);
        let x = b.var(0);
        assert!(b.eval(x, 0b01));
        assert!(!b.eval(x, 0b10));
        let nx = b.nvar(0);
        assert!(!b.eval(nx, 0b01));
        let n = b.not(x);
        assert_eq!(n, nx, "canonical negation");
    }

    #[test]
    fn reduction_merges_equal_children() {
        let mut b = Bdd::new(2);
        let x = b.var(0);
        let nx = b.not(x);
        assert_eq!(b.or(x, nx), ONE);
        assert_eq!(b.and(x, nx), ZERO);
    }

    #[test]
    fn from_cover_matches_eval() {
        let f = cover("1-0 1\n011 1", 3, 1);
        let mut b = Bdd::new(3);
        let r = b.from_cover(&f, 0);
        for bits in 0..8u64 {
            assert_eq!(b.eval(r, bits), f.eval_bits(bits)[0], "bits {bits:03b}");
        }
    }

    #[test]
    fn canonical_equivalence() {
        // Same function, different covers → same node.
        let a = cover("1- 1", 2, 1);
        let b_cover = cover("11 1\n10 1", 2, 1);
        assert!(bdd_equivalent(&a, &b_cover));
        let c = cover("11 1", 2, 1);
        assert!(!bdd_equivalent(&a, &c));
    }

    #[test]
    fn espresso_verified_by_bdd() {
        let f = cover("1-0 10\n011 01\n--1 11\n110 10", 3, 2);
        let (min, _) = espresso(&f);
        assert!(bdd_equivalent(&f, &min));
    }

    #[test]
    fn sat_count_matches_exhaustive() {
        for text in ["10 1\n01 1", "1-- 1\n-1- 1\n--1 1", "11- 1\n-11 1\n1-1 1"] {
            let ni = text
                .lines()
                .next()
                .unwrap()
                .split(' ')
                .next()
                .unwrap()
                .len();
            let f = Cover::parse(text, ni, 1).unwrap();
            let mut b = Bdd::new(ni);
            let r = b.from_cover(&f, 0);
            let want = (0..(1u64 << ni)).filter(|&m| f.eval_bits(m)[0]).count() as u64;
            assert_eq!(b.sat_count(r), want, "{text}");
        }
    }

    #[test]
    fn wide_function_proved_not_sampled() {
        // 30 variables — far beyond exhaustive range. AND-chain vs itself
        // with a redundant cube.
        let n = 30;
        let mut base = String::new();
        for i in 0..n {
            base.push(if i < 15 { '1' } else { '-' });
        }
        let a = Cover::parse(&format!("{base} 1"), n, 1).unwrap();
        let mut two = format!("{base} 1\n");
        // Contained cube (adds one literal).
        let mut tight = base.clone();
        tight.replace_range(20..21, "0");
        two.push_str(&format!("{tight} 1"));
        let b_cover = Cover::parse(&two, n, 1).unwrap();
        assert!(bdd_equivalent(&a, &b_cover), "containment proved at n=30");
    }

    #[test]
    fn tautology_detection() {
        let f = cover("1- 1\n0- 1", 2, 1);
        let mut b = Bdd::new(2);
        let r = b.from_cover(&f, 0);
        assert!(b.is_tautology(r));
        assert_eq!(b.sat_count(r), 4);
    }

    #[test]
    fn xor_chain_node_growth_is_linear() {
        // XOR of n variables has 2n-1 internal nodes under any order.
        let n = 16;
        let mut b = Bdd::new(n);
        let mut f = ZERO;
        for i in 0..n {
            let x = b.var(i);
            f = b.xor(f, x);
        }
        // The final diagram is linear in n (terminals + 2 nodes/level),
        // even though the un-collected manager retains intermediates.
        assert!(
            b.reachable_count(f) <= 2 * n + 2,
            "reachable count {}",
            b.reachable_count(f)
        );
        assert_eq!(b.sat_count(f), 1u64 << (n - 1));
    }
}
