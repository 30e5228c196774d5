//! Property test: the aggregate [`StatsSnapshot`] is *exactly* the fold
//! of the per-registration snapshots — no counter invented, none lost.
//!
//! Arbitrary op sequences (requests, rejections, epoch bumps, flushes
//! with arbitrary cause / lanes / capacity / latency) are replayed into
//! [`RegStats`] registries while an independent tally tracks what went
//! in. [`StatsSnapshot::fold`] over the per-registration snapshots must
//! reproduce the tally to the last unit, and its derived fields
//! (occupancy, latency quantiles) must agree with the merged histogram.

use ambipla::serve::{FlushCause, HistogramSnapshot, RegStats, StatsSnapshot};
use proptest::prelude::*;

/// One recorded operation against a single registration.
#[derive(Debug, Clone)]
enum Op {
    Request,
    QueueFull,
    /// Bump the registration to its next epoch (a completed hot swap).
    Swap,
    Flush {
        cause: FlushCause,
        lanes: usize,
        capacity: usize,
        latency_ns: u64,
    },
}

fn arb_cause() -> impl Strategy<Value = FlushCause> {
    prop_oneof![
        Just(FlushCause::Full),
        Just(FlushCause::Deadline),
        Just(FlushCause::Swap),
        Just(FlushCause::Shutdown),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => Just(Op::Request),
        1 => Just(Op::QueueFull),
        1 => Just(Op::Swap),
        3 => (arb_cause(), 1..257usize, 1..257usize, 0..5_000_000u64).prop_map(
            |(cause, lanes, capacity, latency_ns)| Op::Flush {
                cause,
                lanes,
                capacity,
                latency_ns,
            }
        ),
    ]
}

/// The independent tally: plain sums, no shared code with the fold.
#[derive(Default)]
struct Tally {
    requests: u64,
    queue_full: u64,
    swaps: u64,
    blocks: u64,
    by_cause: [u64; 4],
    lanes_filled: u64,
    lane_capacity: u64,
    latencies: Vec<u64>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn per_registration_stats_fold_exactly_to_aggregate(
        regs in proptest::collection::vec(
            proptest::collection::vec(arb_op(), 0..60),
            1..5,
        ),
    ) {
        let mut tally = Tally::default();
        let mut snapshots = Vec::new();
        for (slot, ops) in regs.iter().enumerate() {
            let reg = RegStats::new(slot as u32);
            for op in ops {
                match *op {
                    Op::Request => {
                        reg.record_request();
                        tally.requests += 1;
                    }
                    Op::QueueFull => {
                        reg.record_queue_full();
                        tally.queue_full += 1;
                    }
                    Op::Swap => {
                        reg.begin_epoch();
                        tally.swaps += 1;
                    }
                    Op::Flush { cause, lanes, capacity, latency_ns } => {
                        reg.current_epoch()
                            .record_flush(cause, lanes, capacity, latency_ns);
                        tally.blocks += 1;
                        tally.by_cause[match cause {
                            FlushCause::Full => 0,
                            FlushCause::Deadline => 1,
                            FlushCause::Swap => 2,
                            FlushCause::Shutdown => 3,
                        }] += 1;
                        tally.lanes_filled += lanes as u64;
                        tally.lane_capacity += capacity as u64;
                        tally.latencies.push(latency_ns);
                    }
                }
            }
            snapshots.push(reg.snapshot(0));
        }

        let agg = StatsSnapshot::fold(&snapshots);

        // Every counter in the aggregate is the tally, to the last unit.
        prop_assert_eq!(agg.requests, tally.requests);
        prop_assert_eq!(agg.queue_full, tally.queue_full);
        prop_assert_eq!(agg.swaps, tally.swaps);
        prop_assert_eq!(agg.blocks, tally.blocks);
        prop_assert_eq!(agg.full_flushes, tally.by_cause[0]);
        prop_assert_eq!(agg.deadline_flushes, tally.by_cause[1]);
        prop_assert_eq!(agg.swap_flushes, tally.by_cause[2]);
        prop_assert_eq!(agg.shutdown_flushes, tally.by_cause[3]);
        prop_assert_eq!(agg.lanes_filled, tally.lanes_filled);
        prop_assert_eq!(agg.lane_capacity, tally.lane_capacity);
        prop_assert_eq!(agg.cache_hit_rate, 0.0, "the inert stand-in");

        // Derived fields agree with plain recomputation.
        if tally.lane_capacity > 0 {
            let occ = tally.lanes_filled as f64 / tally.lane_capacity as f64;
            prop_assert!((agg.lane_occupancy - occ).abs() < 1e-12);
        } else {
            prop_assert_eq!(agg.lane_occupancy, 0.0);
        }

        // The merged latency histogram saw exactly the recorded flushes,
        // and the quantiles bracket the true values at bucket precision:
        // the reported log2-bucket upper bound is >= the exact quantile
        // and within one bucket (2x) of it.
        let mut merged = HistogramSnapshot::default();
        for snap in &snapshots {
            for e in &snap.epochs {
                merged.merge(&e.latency);
            }
        }
        prop_assert_eq!(merged.count(), tally.latencies.len() as u64);
        prop_assert_eq!(merged.sum_ns, tally.latencies.iter().sum::<u64>());
        if !tally.latencies.is_empty() {
            let mut sorted = tally.latencies.clone();
            sorted.sort_unstable();
            for (q, reported) in [(0.50, agg.p50_flush_ns), (0.99, agg.p99_flush_ns)] {
                let rank = ((sorted.len() as f64 * q).ceil() as usize)
                    .clamp(1, sorted.len());
                let exact = sorted[rank - 1];
                prop_assert!(
                    reported >= exact,
                    "q{q}: bucket bound {reported} below exact {exact}"
                );
                prop_assert!(
                    reported <= exact.next_power_of_two().max(1) * 2,
                    "q{q}: bucket bound {reported} more than one bucket above exact {exact}"
                );
            }
        }
    }
}
