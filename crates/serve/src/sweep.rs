//! Offline bulk evaluation: many simulators, many vectors, sharded across
//! the deterministic worker pool.
//!
//! The online batcher ([`crate::SimService`]) optimizes *latency-bounded*
//! traffic; this module is its bulk counterpart for *throughput-bound*
//! jobs that already know their whole workload (verification sweeps,
//! test-set replay, dataset scoring). Jobs are sharded across a
//! [`WorkerPool`] — each worker chunks its simulator's vectors into
//! multi-word blocks of [`SWEEP_WORDS`]` × 64` lanes and evaluates with
//! [`Simulator::eval_words`] into per-job reused buffers — and results
//! come back in job order, bit-identical to the sequential loop for any
//! thread count.
//!
//! Like the online service, the sweep is backend-agnostic:
//! [`eval_sims_blocked`] takes `&dyn Simulator` jobs (mix covers, PLAs,
//! faulty arrays and FPGA mappings in one call).

use ambipla_core::{Simulator, WorkerPool};
use logic::eval::{pack_vectors_words, unpack_lane_words, LANES, SWEEP_WORDS};

/// Evaluate one simulator's vectors, `SWEEP_WORDS × 64` lanes at a time
/// with buffers reused across blocks. Only the valid lanes of the
/// (possibly partial) tail block are unpacked — the
/// `logic::eval::lane_mask` contract.
fn eval_blocked_one(sim: &dyn Simulator, vectors: &[u64]) -> Vec<Vec<bool>> {
    let (n, o) = (sim.n_inputs(), sim.n_outputs());
    let mut packed = vec![0u64; n * SWEEP_WORDS];
    let mut out = vec![0u64; o * SWEEP_WORDS];
    let mut results = Vec::with_capacity(vectors.len());
    for chunk in vectors.chunks(SWEEP_WORDS * LANES) {
        let words = chunk.len().div_ceil(LANES);
        let (packed, out) = (&mut packed[..n * words], &mut out[..o * words]);
        pack_vectors_words(chunk, n, words, packed);
        sim.eval_words(packed, out, words);
        results.extend((0..chunk.len()).map(|lane| unpack_lane_words(out, lane, words)));
    }
    results
}

/// Evaluate each job's vectors on its simulator, 64 lanes at a time, with
/// the jobs sharded across `pool`.
///
/// Returns, per job and in job order, one output `Vec<bool>` per input
/// vector — exactly what `sim.simulate_bits(vector)` returns, for any
/// thread count (determinism inherited from [`WorkerPool::map`]). The
/// jobs may mix backend types freely.
pub fn eval_sims_blocked(
    jobs: &[(&(dyn Simulator + Sync), Vec<u64>)],
    pool: &WorkerPool,
) -> Vec<Vec<Vec<bool>>> {
    pool.map(jobs, |_, (sim, vectors)| eval_blocked_one(*sim, vectors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ambipla_core::GnorPla;
    use logic::Cover;

    fn test_jobs() -> Vec<(Cover, Vec<u64>)> {
        let covers = [
            Cover::parse("10 1\n01 1", 2, 1).expect("valid cover"),
            Cover::parse("110 01\n101 01\n011 01\n111 01", 3, 2).expect("valid cover"),
            Cover::parse("1--- 10\n--11 01", 4, 2).expect("valid cover"),
        ];
        // 150 vectors per cover: two full lane words plus a partial tail
        // word within one SWEEP_WORDS-wide block.
        covers
            .iter()
            .enumerate()
            .map(|(j, c)| {
                let mask = logic::eval::lane_mask(c.n_inputs());
                let vectors = (0..150u64)
                    .map(|i| i.wrapping_mul(0x9e37 + j as u64) & mask)
                    .collect();
                (c.clone(), vectors)
            })
            .collect()
    }

    #[test]
    fn sharded_bulk_eval_matches_scalar_loop() {
        let covers = test_jobs();
        let jobs: Vec<(&(dyn Simulator + Sync), Vec<u64>)> = covers
            .iter()
            .map(|(cover, vectors)| (cover as &(dyn Simulator + Sync), vectors.clone()))
            .collect();
        let sequential = eval_sims_blocked(&jobs, &WorkerPool::new(1));
        for threads in [2, 3, 8] {
            assert_eq!(
                sequential,
                eval_sims_blocked(&jobs, &WorkerPool::new(threads)),
                "{threads} threads"
            );
        }
        for ((cover, vectors), results) in covers.iter().zip(&sequential) {
            for (&bits, outputs) in vectors.iter().zip(results) {
                assert_eq!(outputs, &cover.eval_bits(bits));
            }
        }
    }

    #[test]
    fn heterogeneous_jobs_sweep_together() {
        // One call, three backend types: the cover, the PLA mapped from
        // it, and the cover again under a different vector set.
        let cover = Cover::parse("110 01\n101 01\n011 01\n111 01", 3, 2).expect("valid cover");
        let pla = GnorPla::from_cover(&cover);
        let vectors: Vec<u64> = (0..100u64).map(|i| i % 8).collect();
        let jobs: Vec<(&(dyn Simulator + Sync), Vec<u64>)> = vec![
            (&cover, vectors.clone()),
            (&pla, vectors.clone()),
            (&cover, vectors.iter().rev().copied().collect()),
        ];
        for threads in [1, 4] {
            let out = eval_sims_blocked(&jobs, &WorkerPool::new(threads));
            for ((sim, vectors), results) in jobs.iter().zip(&out) {
                for (&bits, outputs) in vectors.iter().zip(results) {
                    assert_eq!(outputs, &sim.simulate_bits(bits), "{threads} threads");
                }
            }
        }
    }
}
