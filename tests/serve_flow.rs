//! Property contracts of the `ambipla_serve` request-batching service.
//!
//! For random covers and arbitrary interleavings of requests — mixed
//! across covers, mixed between per-request tickets and shared reply
//! channels, with block boundaries and deadline flushes landing wherever
//! they land — every reply must equal the direct scalar
//! `GnorPla::simulate_bits` answer for that request. Batching, packing
//! and flush timing are pure throughput mechanics; they must never be
//! observable in the results. Behind counting backends, every batched
//! flush is exactly one `eval_words` call over the block's lane words.

use ambipla::core::{GnorPla, Simulator};
use ambipla::fault::{DefectKind, DefectMap, FaultyGnorPla};
use ambipla::logic::{Cover, Cube, Tri};
use ambipla::serve::{
    reply_channel, ServeConfig, SharedSim, SimKey, SimService, Tier, TierPolicy, LANES,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A pass-through backend that counts its `eval_words` calls and the lane
/// words they evaluated.
struct Counting<S> {
    inner: S,
    calls: AtomicU64,
    words: AtomicU64,
}

impl<S> Counting<S> {
    fn over(inner: S) -> Arc<Counting<S>> {
        Arc::new(Counting {
            inner,
            calls: AtomicU64::new(0),
            words: AtomicU64::new(0),
        })
    }

    /// `(eval_words calls, lane words evaluated)` so far.
    fn counts(&self) -> (u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.words.load(Ordering::Relaxed),
        )
    }
}

impl<S: Simulator> Simulator for Counting<S> {
    fn n_inputs(&self) -> usize {
        self.inner.n_inputs()
    }

    fn n_outputs(&self) -> usize {
        self.inner.n_outputs()
    }

    fn eval_words(&self, inputs: &[u64], out: &mut [u64], words: usize) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.words.fetch_add(words as u64, Ordering::Relaxed);
        self.inner.eval_words(inputs, out, words);
    }
}

/// Register `cover` behind a counting backend under its canonical key.
fn register_counted(
    service: &SimService,
    cover: &Cover,
) -> (ambipla::serve::SimId, Arc<Counting<Cover>>) {
    let counting = Counting::over(cover.clone());
    let id = service.register_sim(Arc::clone(&counting) as SharedSim, SimKey::of_cover(cover));
    (id, counting)
}

/// A random cube over `n` inputs and `o` outputs.
fn arb_cube(n: usize, o: usize) -> impl Strategy<Value = Cube> {
    (
        proptest::collection::vec(0..3u8, n),
        proptest::collection::vec(any::<bool>(), o),
        0..o,
    )
        .prop_map(move |(tris, mut outs, force)| {
            outs[force] = true; // at least one output
            let tris: Vec<Tri> = tris
                .iter()
                .map(|&t| match t {
                    0 => Tri::Zero,
                    1 => Tri::One,
                    _ => Tri::DontCare,
                })
                .collect();
            Cube::from_tris(&tris, &outs)
        })
}

/// A random cover with 1..=max_cubes cubes.
fn arb_cover(n: usize, o: usize, max_cubes: usize) -> impl Strategy<Value = Cover> {
    proptest::collection::vec(arb_cube(n, o), 1..=max_cubes)
        .prop_map(move |cubes| Cover::from_cubes(n, o, cubes))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batched_service_matches_scalar_simulate_bits(
        covers in (arb_cover(4, 2, 6), arb_cover(6, 3, 10), arb_cover(3, 1, 4)),
        schedule in proptest::collection::vec(
            (0..3usize, any::<u64>(), any::<bool>()),
            1..300,
        ),
        block_words in 1..4usize,
    ) {
        let covers = [covers.0, covers.1, covers.2];
        let plas: Vec<GnorPla> = covers.iter().map(GnorPla::from_cover).collect();
        // A short deadline so runs exercise deadline flushes alongside
        // full-block flushes (schedules longer than 64 per cover).
        // block_words > 1 additionally exercises multi-word packing and
        // multi-word tail masking. The default tier floor (4096 lanes) is
        // far above any schedule, so every registration stays batched.
        let service = SimService::start(ServeConfig {
            max_wait: Duration::from_micros(200),
            block_words,
            ..ServeConfig::default()
        })
        .expect("valid config");
        let (ids, counters): (Vec<_>, Vec<_>) =
            covers.iter().map(|c| register_counted(&service, c)).unzip();

        // Interleave the two submission styles in schedule order: shared
        // reply channel (tagged with the schedule index) and per-request
        // tickets.
        let (sink, stream) = reply_channel();
        let mut tagged = 0usize;
        let mut tickets = Vec::new();
        for (i, &(cover, bits, use_ticket)) in schedule.iter().enumerate() {
            if use_ticket {
                tickets.push((i, service.submit(ids[cover], bits)));
            } else {
                service.submit_tagged(ids[cover], bits, i as u64, &sink);
                tagged += 1;
            }
        }

        let expected = |i: usize| {
            let (cover, bits, _) = schedule[i];
            plas[cover].simulate_bits(bits)
        };
        for _ in 0..tagged {
            let reply = stream.recv();
            prop_assert_eq!(&reply.outputs, &expected(reply.tag as usize));
        }
        for (i, ticket) in tickets {
            prop_assert_eq!(&ticket.wait(), &expected(i));
        }

        let snap = service.shutdown();
        prop_assert_eq!(snap.requests, schedule.len() as u64);
        prop_assert_eq!(snap.lanes_filled, schedule.len() as u64);
        // Every batched flush is exactly one eval_words call over all of
        // its lane words: calls == blocks, words == capacity / 64.
        let (calls, words) = counters
            .iter()
            .map(|c| c.counts())
            .fold((0, 0), |(a, b), (c, w)| (a + c, b + w));
        prop_assert_eq!(calls, snap.blocks);
        prop_assert_eq!(words, snap.lane_capacity / LANES as u64);
    }

    /// Mixed tiers on one service: with a forced policy bounded at 4
    /// inputs, the 4- and 3-input registrations serve from materialized
    /// truth tables while the 6-input one stays on the batched path —
    /// and under an arbitrary interleaving of requests across all three
    /// (tickets and tagged replies mixed, flush boundaries wherever they
    /// land), every reply must still equal the scalar answer. The tier
    /// is throughput mechanics; it must never be observable in the
    /// results.
    #[test]
    fn tiered_and_batched_registrations_interleave_transparently(
        covers in (arb_cover(4, 2, 6), arb_cover(6, 3, 10), arb_cover(3, 1, 4)),
        schedule in proptest::collection::vec(
            (0..3usize, any::<u64>(), any::<bool>()),
            1..300,
        ),
    ) {
        let covers = [covers.0, covers.1, covers.2];
        let plas: Vec<GnorPla> = covers.iter().map(GnorPla::from_cover).collect();
        let service = SimService::start(ServeConfig {
            max_wait: Duration::from_micros(200),
            tier_policy: TierPolicy::Forced,
            tier_max_inputs: 4,
            ..ServeConfig::default()
        })
        .expect("valid config");
        let (ids, counters): (Vec<_>, Vec<_>) =
            covers.iter().map(|c| register_counted(&service, c)).unzip();

        let (sink, stream) = reply_channel();
        let mut tagged = 0usize;
        let mut tickets = Vec::new();
        for (i, &(cover, bits, use_ticket)) in schedule.iter().enumerate() {
            if use_ticket {
                tickets.push((i, service.submit(ids[cover], bits)));
            } else {
                service.submit_tagged(ids[cover], bits, i as u64, &sink);
                tagged += 1;
            }
        }

        let expected = |i: usize| {
            let (cover, bits, _) = schedule[i];
            plas[cover].simulate_bits(bits)
        };
        for _ in 0..tagged {
            let reply = stream.recv();
            prop_assert_eq!(&reply.outputs, &expected(reply.tag as usize));
        }
        for (i, ticket) in tickets {
            prop_assert_eq!(&ticket.wait(), &expected(i));
        }

        // Registration (and forced promotion) is processed FIFO on the
        // shard ahead of every flush above, so after the drain the tier
        // split is settled: the ≤ 4-input registrations materialized,
        // the 6-input one batched.
        prop_assert_eq!(service.stats_for(ids[0]).tier, Tier::Materialized);
        prop_assert_eq!(service.stats_for(ids[1]).tier, Tier::Batched);
        prop_assert_eq!(service.stats_for(ids[2]).tier, Tier::Materialized);
        // The materialized registrations evaluated their backend once —
        // the one-word exhaustive sweep — and never again. Every flush of
        // the batched one is one eval_words call over its lane words.
        prop_assert_eq!(counters[0].counts(), (1, 1));
        prop_assert_eq!(counters[2].counts(), (1, 1));
        let batched = &service.stats_for(ids[1]).epochs[0];
        prop_assert_eq!(
            counters[1].counts(),
            (batched.blocks, batched.lane_capacity / LANES as u64)
        );

        let snap = service.shutdown();
        prop_assert_eq!(snap.requests, schedule.len() as u64);
        prop_assert_eq!(
            snap.lanes_filled, schedule.len() as u64,
            "materialized flushes account their lanes like batched ones"
        );
        prop_assert_eq!(snap.materialized, 2);
    }
}

/// The redesigned registration API end to end through the facade: a
/// specification cover and its defective twin served side by side, with
/// identical bit patterns in flight for both, must scatter each reply to
/// the right backend, and each twin's blocks are evaluated by that twin
/// alone.
#[test]
fn cover_and_faulty_twin_are_served_side_by_side() {
    let service = SimService::with_defaults();
    let spec = Cover::parse(
        "110 01\n101 01\n011 01\n111 01\n100 10\n010 10\n001 10\n111 10",
        3,
        2,
    )
    .expect("valid cover");
    let pla = GnorPla::from_cover(&spec);
    let d = pla.dimensions();
    let mut defects = DefectMap::clean(d.products, d.inputs, d.outputs);
    defects.set_input_defect(0, 1, DefectKind::StuckOff);
    let faulty = FaultyGnorPla::new(pla, defects);
    assert!(
        (0..8u64).any(|b| faulty.simulate_bits(b) != spec.eval_bits(b)),
        "the defect must corrupt the function for this test to mean anything"
    );

    let (cid, spec_counts) = register_counted(&service, &spec);
    let faulty_counts = Counting::over(faulty.clone());
    let fid = service.register_sim(
        Arc::clone(&faulty_counts) as SharedSim,
        SimKey::new(SimKey::of_cover(&spec).raw() ^ 0xdef),
    );
    // Three rounds of every assignment to both backends: identical input
    // blocks in flight for both registrations.
    for _ in 0..3 {
        let tickets: Vec<_> = (0..8u64)
            .map(|bits| (bits, service.submit(cid, bits), service.submit(fid, bits)))
            .collect();
        for (bits, ct, ft) in tickets {
            assert_eq!(ct.wait(), spec.eval_bits(bits), "cover bits {bits:03b}");
            assert_eq!(
                ft.wait(),
                faulty.simulate_bits(bits),
                "faulty bits {bits:03b}"
            );
        }
    }
    let per_reg = [service.stats_for(cid), service.stats_for(fid)];
    let snap = service.shutdown();
    assert_eq!(snap.requests, 48);
    for (reg, counts) in per_reg
        .iter()
        .zip([spec_counts.counts(), faulty_counts.counts()])
    {
        let e = &reg.epochs[0];
        assert_eq!(e.lanes_filled, 24, "slot {}", reg.slot);
        assert_eq!(
            counts,
            (e.blocks, e.lane_capacity / LANES as u64),
            "slot {}: one eval_words call per flushed block, on its own backend",
            reg.slot
        );
    }
}

/// Backpressure and hot swaps compose: a queue filled to `queue_depth`
/// refuses further `try_submit`s, a swap *drains* that queue (answering
/// every accepted request under the outgoing epoch), and the freed
/// capacity is immediately usable under the new epoch — with the
/// `queue_full` / `swap_flushes` counters accounting for all of it.
#[test]
fn try_submit_composes_with_swap_drains() {
    let service = SimService::start(ServeConfig {
        max_wait: Duration::from_secs(10), // only swaps and shutdown flush
        queue_depth: 4,
        ..ServeConfig::default()
    })
    .expect("valid config");
    let spec = Cover::parse("10 1\n01 1", 2, 1).expect("valid cover");
    let id = service.register(spec.clone());
    let before: Vec<_> = (0..4u64)
        .map(|bits| {
            (
                bits % 4,
                service.try_submit(id, bits % 4).expect("below depth"),
            )
        })
        .collect();
    assert!(service.try_submit(id, 0).is_err(), "queue is full");

    // The swap drains all four: they resolve under epoch 0, and the queue
    // has room again without any deadline ever firing.
    assert_eq!(service.swap_sim(id, Arc::new(spec.clone())), 1);
    for (bits, ticket) in before {
        let reply = ticket.wait_reply();
        assert_eq!(reply.epoch, 0, "drained under the outgoing epoch");
        assert_eq!(reply.outputs, spec.eval_bits(bits));
    }
    let after = service
        .try_submit(id, 1)
        .expect("the swap drain freed the queue");
    let snap = service.shutdown();
    let reply = after.wait_reply();
    assert_eq!(
        reply.epoch, 1,
        "post-swap requests serve under the new epoch"
    );
    assert_eq!(reply.outputs, spec.eval_bits(1));
    assert_eq!(snap.queue_full, 1);
    assert_eq!(snap.swaps, 1);
    assert_eq!(snap.swap_flushes, 1);
    assert_eq!(snap.lanes_filled, 5, "every accepted request was answered");
}

/// Bounded submitters hammering `try_submit` while another thread swaps
/// repeatedly must never deadlock, and the books must balance: every
/// accepted ticket resolves (under some epoch ≤ the swap count), every
/// rejection is counted.
#[test]
fn concurrent_try_submit_during_swaps_never_deadlocks() {
    const SWAPS: u64 = 20;
    const SUBMITTERS: u64 = 2;
    const ATTEMPTS: u64 = 200;
    let service = SimService::start(ServeConfig {
        max_wait: Duration::from_micros(100),
        queue_depth: 16,
        ..ServeConfig::default()
    })
    .expect("valid config");
    let spec = Cover::parse("10 1\n01 1", 2, 1).expect("valid cover");
    let id = service.register(spec.clone());

    let accepted: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SUBMITTERS)
            .map(|t| {
                let service = &service;
                let spec = &spec;
                s.spawn(move || {
                    let mut accepted = 0u64;
                    for i in 0..ATTEMPTS {
                        let bits = (t + i) % 4;
                        if let Ok(ticket) = service.try_submit(id, bits) {
                            accepted += 1;
                            let reply = ticket.wait_reply();
                            assert_eq!(reply.outputs, spec.eval_bits(bits));
                            assert!(reply.epoch <= SWAPS);
                        }
                    }
                    accepted
                })
            })
            .collect();
        for k in 1..=SWAPS {
            assert_eq!(service.swap_sim(id, Arc::new(spec.clone())), k);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter panicked"))
            .sum()
    });

    let snap = service.shutdown();
    assert_eq!(snap.swaps, SWAPS);
    assert_eq!(snap.requests, accepted);
    assert_eq!(
        snap.lanes_filled, accepted,
        "every accepted request flushed"
    );
    assert_eq!(
        snap.requests + snap.queue_full,
        SUBMITTERS * ATTEMPTS,
        "every attempt either served or counted as a rejection"
    );
}

/// The service's per-cover queues must not leak results across covers
/// even when the same bit patterns are in flight for all of them.
#[test]
fn identical_bits_to_different_covers_stay_separate() {
    let service = SimService::with_defaults();
    let covers: Vec<Cover> = ambipla::benchmarks::classics()
        .into_iter()
        .map(|b| b.on)
        .collect();
    let ids: Vec<_> = covers.iter().map(|c| service.register(c.clone())).collect();
    let tickets: Vec<_> = (0..3 * covers.len())
        .map(|i| {
            let c = i % covers.len();
            (
                c,
                (i / covers.len()) as u64,
                service.submit(ids[c], (i / covers.len()) as u64),
            )
        })
        .collect();
    for (c, bits, ticket) in tickets {
        assert_eq!(
            ticket.wait(),
            covers[c].eval_bits(bits),
            "cover {c} bits {bits}"
        );
    }
}
