//! Seeded input generators. Every request a workload sends comes from
//! here, so one `--seed` always yields the same inputs.

/// SplitMix64: a small, fast, well-mixed generator for workload inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Zipf exponent of the `wire_open` vector popularity.
pub const ZIPF_S: f64 = 1.0;

/// Zipf(`s`) over ranks `0..n`, sampled by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Map a popularity rank onto an input vector of an `n_inputs`-input
/// design. Multiplying by an odd constant and xoring a salt are both
/// bijections on `0..2^n`, so every rank gets its own vector and the hot
/// vectors are scattered over the space rather than clustered at 0.
pub fn rank_to_vector(rank: u64, n_inputs: usize, salt: u64) -> u64 {
    let mask = (1u64 << n_inputs) - 1;
    (rank.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt) & mask
}

/// One scheduled `wire_open` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireReq {
    /// When the request is due, ns after the run starts.
    pub due_ns: u64,
    /// Connection (= tenant) index, 0 or 1.
    pub conn: u8,
    /// Registration index, 0 (`max46`) or 1 (`t2`).
    pub reg: u8,
    /// Packed input vector.
    pub bits: u64,
}

/// An open-loop schedule: Poisson arrivals at `rate` per second for
/// `seconds`, alternating between the two connections, each request
/// picking a registration by a fair coin and its vector by Zipf rank
/// within that registration's `2^inputs[reg]` vectors.
pub fn wire_schedule(seed: u64, rate: f64, seconds: f64, inputs: [usize; 2]) -> Vec<WireReq> {
    let mut rng = Rng::new(seed);
    let zipf = inputs.map(|n| Zipf::new(1 << n, ZIPF_S));
    let salts = [rng.next_u64(), rng.next_u64()];
    let horizon = seconds * 1e9;
    let mut out = Vec::with_capacity((rate * seconds * 1.05) as usize);
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate * 1e9;
        if t >= horizon {
            return out;
        }
        let reg = rng.below(2) as usize;
        let rank = zipf[reg].sample(&mut rng) as u64;
        out.push(WireReq {
            due_ns: t as u64,
            conn: (out.len() % 2) as u8,
            reg: reg as u8,
            bits: rank_to_vector(rank, inputs[reg], salts[reg]),
        });
    }
}

/// `count` uniform random vectors of `n_inputs` bits.
pub fn uniform_vectors(rng: &mut Rng, n_inputs: usize, count: usize) -> Vec<u64> {
    let mask = if n_inputs >= 64 {
        !0
    } else {
        (1u64 << n_inputs) - 1
    };
    (0..count).map(|_| rng.next_u64() & mask).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_seed_deterministic() {
        let a = wire_schedule(7, 20_000.0, 0.5, [9, 17]);
        let b = wire_schedule(7, 20_000.0, 0.5, [9, 17]);
        let c = wire_schedule(8, 20_000.0, 0.5, [9, 17]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn schedules_hit_the_offered_rate_and_stay_in_range() {
        let s = wire_schedule(3, 20_000.0, 1.0, [9, 17]);
        let n = s.len() as f64;
        assert!((n - 20_000.0).abs() < 20_000.0 * 0.03, "{n} arrivals");
        assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        for r in &s {
            let width = [9, 17][r.reg as usize];
            assert!(r.bits < 1 << width);
        }
    }

    #[test]
    fn uniform_vectors_are_seed_deterministic() {
        let a = uniform_vectors(&mut Rng::new(5), 32, 100);
        let b = uniform_vectors(&mut Rng::new(5), 32, 100);
        assert_eq!(a, b);
        assert!(a.iter().all(|&v| v < 1 << 32));
        assert_ne!(a, uniform_vectors(&mut Rng::new(6), 32, 100));
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(512, ZIPF_S);
        let mut rng = Rng::new(1);
        let hits = (0..10_000).filter(|_| z.sample(&mut rng) == 0).count();
        // P(rank 0) = 1/H_512 ≈ 0.147.
        assert!((1_200..1_800).contains(&hits), "{hits}");
    }

    #[test]
    fn rank_mapping_is_a_bijection() {
        let mut seen = vec![false; 512];
        for r in 0..512 {
            let v = rank_to_vector(r, 9, 0x1ab) as usize;
            assert!(!seen[v]);
            seen[v] = true;
        }
    }
}
