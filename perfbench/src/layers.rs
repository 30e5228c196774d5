//! Per-layer timings taken from outside, around calls into each layer's
//! public functions, on the workload's own inputs.

use std::hint::black_box;
use std::time::Duration;

use ambipla_core::{Simulator, TruthTable};
use ambipla_net::{encode_frame, Frame, FrameReader, QuotaConfig, TokenBucket};
use ambipla_serve::{HistogramSnapshot, SimKey, SimService, StatsSnapshot};
use logic::eval::{pack_vectors_words, unpack_lane_words, LANES};

use crate::stats::time_per_item;

/// Lane words per evaluated block, as the serving workloads flush.
pub const WORDS: usize = 4;
const ROUNDS: usize = 5;
const MIN_ROUND: Duration = Duration::from_millis(10);

/// The micro-level timings of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Layers {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub try_take_ns: f64,
    pub pack_ns_per_lane: f64,
    pub unpack_ns_per_lane: f64,
    pub eval_ns_per_lane: f64,
    pub lookup_ns: f64,
    pub build_us: f64,
}

/// Lane blocks of `vectors`, packed for `sim` at [`WORDS`] words.
fn blocks(sim: &dyn Simulator, vectors: &[u64]) -> Vec<Vec<u64>> {
    vectors
        .chunks(WORDS * LANES)
        .map(|chunk| {
            let mut b = vec![0u64; sim.n_inputs() * WORDS];
            pack_vectors_words(chunk, sim.n_inputs(), WORDS, &mut b);
            b
        })
        .collect()
}

/// Time every layer on `sim` (the workload's batched backend) with
/// `vectors`, the tier on `tier_sim` with `tier_vectors`, and the token
/// bucket over `stamps_ns`.
pub fn probe(
    sim: &dyn Simulator,
    vectors: &[u64],
    tier_sim: &dyn Simulator,
    tier_vectors: &[u64],
    stamps_ns: &[u64],
) -> Layers {
    let inputs = blocks(sim, vectors);
    let o = sim.n_outputs();
    let mut out = vec![0u64; o * WORDS];
    let outputs: Vec<Vec<u64>> = inputs
        .iter()
        .map(|b| {
            sim.eval_words(b, &mut out, WORDS);
            out.clone()
        })
        .collect();
    let lanes = vectors.len();

    let mut packed = vec![0u64; sim.n_inputs() * WORDS];
    let pack_ns_per_lane = time_per_item(ROUNDS, MIN_ROUND, lanes, || {
        for chunk in vectors.chunks(WORDS * LANES) {
            pack_vectors_words(black_box(chunk), sim.n_inputs(), WORDS, &mut packed);
            black_box(&packed);
        }
    });
    let eval_ns_per_lane = time_per_item(ROUNDS, MIN_ROUND, inputs.len() * WORDS * LANES, || {
        for b in &inputs {
            sim.eval_words(black_box(b), &mut out, WORDS);
            black_box(&out);
        }
    });
    let unpack_ns_per_lane =
        time_per_item(ROUNDS, MIN_ROUND, outputs.len() * WORDS * LANES, || {
            for b in &outputs {
                for lane in 0..WORDS * LANES {
                    black_box(unpack_lane_words(black_box(b), lane, WORDS));
                }
            }
        });

    let replies: Vec<Vec<bool>> = (0..lanes)
        .map(|i| unpack_lane_words(&outputs[i / (WORDS * LANES)], i % (WORDS * LANES), WORDS))
        .collect();
    let (encode_ns, decode_ns) = codec(&frames(vectors, replies));

    // A finite quota well above the offered rate, so the refill
    // arithmetic runs and every take is granted.
    let quota = QuotaConfig {
        rate_per_sec: 1 << 30,
        burst: 1 << 20,
    };
    let try_take_ns = time_per_item(ROUNDS, MIN_ROUND, stamps_ns.len(), || {
        let mut bucket = TokenBucket::new(quota, stamps_ns[0]);
        for &t in stamps_ns {
            black_box(bucket.try_take(black_box(t)));
        }
    });

    let build_us = time_per_item(ROUNDS, MIN_ROUND, 1, || {
        black_box(TruthTable::from_simulator(black_box(tier_sim)));
    }) / 1e3;
    let table = TruthTable::from_simulator(tier_sim);
    let lookup_ns = time_per_item(ROUNDS, MIN_ROUND, tier_vectors.len(), || {
        for &v in tier_vectors {
            black_box(table.lookup_bits(black_box(v)));
        }
    });

    Layers {
        encode_ns,
        decode_ns,
        try_take_ns,
        pack_ns_per_lane,
        unpack_ns_per_lane,
        eval_ns_per_lane,
        lookup_ns,
        build_us,
    }
}

/// Each request of `vectors` as a frame, followed by its reply.
pub fn frames(vectors: &[u64], replies: Vec<Vec<bool>>) -> Vec<Frame> {
    let key = SimKey::new(0x0b5e_57ed);
    vectors
        .iter()
        .zip(replies)
        .enumerate()
        .flat_map(|(i, (&bits, outputs))| {
            let req_id = i as u64;
            [
                Frame::Request {
                    req_id,
                    sim: key,
                    bits,
                },
                Frame::Reply {
                    req_id,
                    epoch: 0,
                    outputs,
                },
            ]
        })
        .collect()
}

/// Mean ns to encode one of `frames`, and to decode one from a stream.
pub fn codec(frames: &[Frame]) -> (f64, f64) {
    let mut wire = Vec::new();
    let encode_ns = time_per_item(ROUNDS, MIN_ROUND, frames.len(), || {
        wire.clear();
        for f in frames {
            encode_frame(black_box(f), &mut wire);
        }
        black_box(&wire);
    });
    let decode_ns = time_per_item(ROUNDS, MIN_ROUND, frames.len(), || {
        let mut reader = FrameReader::new();
        reader.extend(&wire);
        while let Ok(Some(f)) = reader.next_frame() {
            black_box(f);
        }
    });
    (encode_ns, decode_ns)
}

/// The batching layer's counters at the end of a phase.
#[derive(Debug, Clone, Copy)]
pub struct ServeView {
    pub stats: StatsSnapshot,
    /// Median queue wait before a flush, µs, interpolated within the
    /// log₂ histogram bucket it falls in.
    pub flush_wait_p50_us: f64,
}

impl ServeView {
    pub fn of(service: &SimService) -> ServeView {
        let mut hist = HistogramSnapshot::default();
        for reg in service.stats_per_registration() {
            for e in &reg.epochs {
                hist.merge(&e.latency);
            }
        }
        ServeView {
            stats: service.stats(),
            flush_wait_p50_us: interpolated_quantile_ns(&hist, 0.5) / 1e3,
        }
    }

    pub fn share(&self, part: u64) -> f64 {
        part as f64 / self.stats.blocks.max(1) as f64
    }
}

/// Quantile `q` of a log₂-bucketed histogram, interpolating linearly by
/// rank inside the bucket (bucket `b` holds values in `(2^(b-1), 2^b]`).
pub fn interpolated_quantile_ns(h: &HistogramSnapshot, q: f64) -> f64 {
    let count = h.count();
    if count == 0 {
        return 0.0;
    }
    let rank = q * count as f64;
    let mut seen = 0u64;
    for (b, &n) in h.buckets.iter().enumerate() {
        if n > 0 && (seen + n) as f64 >= rank {
            let hi = HistogramSnapshot::bucket_bound(b) as f64;
            let lo = if b == 0 { 0.0 } else { hi / 2.0 };
            return lo + (hi - lo) * ((rank - seen as f64) / n as f64).clamp(0.0, 1.0);
        }
        seen += n;
    }
    HistogramSnapshot::bucket_bound(63) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_stays_inside_the_bucket() {
        let mut h = HistogramSnapshot::default();
        h.buckets[10] = 4; // values in (512, 1024]
        assert_eq!(interpolated_quantile_ns(&h, 0.5), 768.0);
        assert_eq!(interpolated_quantile_ns(&h, 1.0), 1024.0);
    }
}
