//! Service-facing metrics: per-registration, per-epoch counters with
//! lock-free recording and fold-based aggregation.
//!
//! Stats are segmented the way the service itself is: a [`RegStats`] per
//! registration (requests, backpressure rejections, live queue depth)
//! holding one [`EpochStats`] per epoch (flush counters, lane occupancy,
//! flush-latency histogram). Every counter — including
//! the histogram buckets ([`AtomicHistogram`]) — is a relaxed atomic, so
//! the batcher's flush hot path never takes a lock and `stats()` scrapes
//! never contend with it. The aggregate [`StatsSnapshot`] is no longer a
//! separate set of counters: it is [`StatsSnapshot::fold`] over the
//! per-registration snapshots — one snapshot path, no fabricated
//! fields. A snapshot is a consistent-enough copy for dashboards and
//! bench output — it is not a transactional read, matching what
//! production metric scrapes do.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

pub use ambipla_obs::FlushCause;

/// Which evaluation tier a registration is served by.
///
/// The tier is fixed by the time `register_sim` returns. Under the
/// default `TierPolicy::Forced`, an eligible backend is
/// [`Materialized`](Tier::Materialized): the batcher builds its table
/// as it handles the registration, ahead of every request, and each
/// request is answered on arrival by truth-table indexed load instead
/// of waiting for a batched `eval_words` call. Every other registration
/// is [`Batched`](Tier::Batched). A hot swap rebuilds the table before
/// it is acknowledged, so the tier never changes;
/// [`RegSnapshot::tier`] and the `ambipla_tier` metric family report
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Requests are lane-packed and each flushed block is evaluated by
    /// one backend `eval_words` call.
    Batched,
    /// Requests are answered by O(1) indexed load from a materialized
    /// [`TruthTable`](ambipla_core::TruthTable) — no backend call.
    Materialized,
}

impl Tier {
    /// Stable lowercase label (Prometheus `tier` label value).
    pub const fn label(self) -> &'static str {
        match self {
            Tier::Batched => "batched",
            Tier::Materialized => "materialized",
        }
    }
}

/// Log₂-bucketed latency histogram over nanoseconds with atomic bucket
/// counters: `record` is a pair of relaxed `fetch_add`s (bucket + sum),
/// safe from any thread, and scrapes read the buckets without blocking
/// recorders.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; 64],
    sum_ns: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> AtomicHistogram {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    /// Record one observation.
    pub fn record(&self, ns: u64) {
        let bucket = (64 - ns.leading_zeros() as usize).min(63);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Copy the bucket counters out.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; 64];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of an [`AtomicHistogram`]: mergeable (for folding
/// per-epoch histograms into an aggregate) and queryable for quantiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observation count per log₂ bucket; bucket `b` covers values whose
    /// bit length is `b` (upper bound `2^b`, bucket 0 holds exact zeros).
    pub buckets: [u64; 64],
    /// Sum of all recorded values in ns (Prometheus histogram `_sum`).
    pub sum_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: [0; 64],
            sum_ns: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Accumulate another snapshot's buckets into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum_ns += other.sum_ns;
    }

    /// Upper bound (in ns) of the bucket containing quantile `q` in
    /// `[0, 1]`, or 0 if nothing was recorded. Log₂ buckets bound the
    /// relative error at 2×, which is plenty for p50/p99 reporting.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (bucket, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_bound(bucket);
            }
        }
        unreachable!("rank is clamped to the recorded count");
    }

    /// Upper bound in ns of bucket `b` (the `le` boundary exporters use).
    pub fn bucket_bound(bucket: usize) -> u64 {
        if bucket == 0 {
            0
        } else {
            1u64 << bucket
        }
    }
}

/// Flush-side counters of one `(registration, epoch)` pair. All fields
/// are relaxed atomics; the batcher caches an `Arc<EpochStats>` for the
/// live epoch so recording a flush touches no locks and no registry.
#[derive(Debug)]
pub struct EpochStats {
    epoch: u64,
    blocks: AtomicU64,
    full_flushes: AtomicU64,
    deadline_flushes: AtomicU64,
    swap_flushes: AtomicU64,
    shutdown_flushes: AtomicU64,
    lanes_filled: AtomicU64,
    lane_capacity: AtomicU64,
    flush_latency: AtomicHistogram,
}

impl EpochStats {
    fn new(epoch: u64) -> EpochStats {
        EpochStats {
            epoch,
            blocks: AtomicU64::new(0),
            full_flushes: AtomicU64::new(0),
            deadline_flushes: AtomicU64::new(0),
            swap_flushes: AtomicU64::new(0),
            shutdown_flushes: AtomicU64::new(0),
            lanes_filled: AtomicU64::new(0),
            lane_capacity: AtomicU64::new(0),
            flush_latency: AtomicHistogram::default(),
        }
    }

    /// The epoch these counters belong to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Count one flushed block: its cause, how many lanes were occupied,
    /// its lane `capacity` (`words × 64` for an evaluated block, 1 for a
    /// truth-table answer, so lane occupancy stays meaningful for both)
    /// and the queue latency (first enqueue → flush) in ns.
    pub fn record_flush(&self, cause: FlushCause, lanes: usize, capacity: usize, latency_ns: u64) {
        self.blocks.fetch_add(1, Ordering::Relaxed);
        self.lanes_filled.fetch_add(lanes as u64, Ordering::Relaxed);
        self.lane_capacity
            .fetch_add(capacity as u64, Ordering::Relaxed);
        match cause {
            FlushCause::Full => &self.full_flushes,
            FlushCause::Deadline => &self.deadline_flushes,
            FlushCause::Swap => &self.swap_flushes,
            FlushCause::Shutdown => &self.shutdown_flushes,
        }
        .fetch_add(1, Ordering::Relaxed);
        self.flush_latency.record(latency_ns);
    }

    /// Copy the counters out.
    pub fn snapshot(&self) -> EpochSnapshot {
        let latency = self.flush_latency.snapshot();
        EpochSnapshot {
            epoch: self.epoch,
            blocks: self.blocks.load(Ordering::Relaxed),
            full_flushes: self.full_flushes.load(Ordering::Relaxed),
            deadline_flushes: self.deadline_flushes.load(Ordering::Relaxed),
            swap_flushes: self.swap_flushes.load(Ordering::Relaxed),
            shutdown_flushes: self.shutdown_flushes.load(Ordering::Relaxed),
            lanes_filled: self.lanes_filled.load(Ordering::Relaxed),
            lane_capacity: self.lane_capacity.load(Ordering::Relaxed),
            latency,
        }
    }
}

/// Counters of one registration, segmented by epoch.
///
/// `requests` and `queue_full` are registration-lifetime counters (the
/// submit path doesn't know which epoch will eventually flush a
/// request); everything flush-shaped lives in the per-epoch
/// [`EpochStats`]. The epoch list only grows — a swap appends via
/// [`begin_epoch`](RegStats::begin_epoch) — so historical epochs stay
/// queryable after the swap that retired them.
#[derive(Debug)]
pub struct RegStats {
    slot: u32,
    requests: AtomicU64,
    queue_full: AtomicU64,
    /// Whether the registration is served from a table ([`Tier`]): set
    /// once, by `register_sim` before it returns, and never cleared.
    materialized: AtomicBool,
    epochs: RwLock<Vec<Arc<EpochStats>>>,
}

impl RegStats {
    /// Fresh registration stats with epoch 0 already begun.
    pub fn new(slot: u32) -> RegStats {
        RegStats {
            slot,
            requests: AtomicU64::new(0),
            queue_full: AtomicU64::new(0),
            materialized: AtomicBool::new(false),
            epochs: RwLock::new(vec![Arc::new(EpochStats::new(0))]),
        }
    }

    /// Registration slot index.
    pub fn slot(&self) -> u32 {
        self.slot
    }

    /// Count one accepted request.
    pub fn record_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one submission rejected by backpressure
    /// ([`SimService::try_submit`](crate::SimService::try_submit) against
    /// a full per-simulator queue).
    pub fn record_queue_full(&self) {
        self.queue_full.fetch_add(1, Ordering::Relaxed);
    }

    /// Mark the registration [`Tier::Materialized`]. One way: no
    /// registration goes back to [`Tier::Batched`].
    pub fn mark_materialized(&self) {
        self.materialized.store(true, Ordering::Relaxed);
    }

    /// The registration's [`Tier`].
    pub fn tier(&self) -> Tier {
        if self.materialized.load(Ordering::Relaxed) {
            Tier::Materialized
        } else {
            Tier::Batched
        }
    }

    /// The live epoch's counters. The batcher caches this `Arc` per
    /// registration, so the flush path pays this lock only once per swap.
    pub fn current_epoch(&self) -> Arc<EpochStats> {
        // Poison recovery on every stats lock in this file: the guarded
        // data are append-only Vecs of Arcs, so a panicking writer can
        // only leave a fully-pushed or fully-absent entry behind.
        Arc::clone(
            self.epochs
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .last()
                .expect("epoch 0 exists"),
        )
    }

    /// Begin the next epoch (a completed hot swap) and return its
    /// counters. The number of completed swaps on this registration is
    /// exactly the current epoch number.
    pub fn begin_epoch(&self) -> Arc<EpochStats> {
        let mut epochs = self
            .epochs
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let next = EpochStats::new(epochs.len() as u64);
        let stats = Arc::new(next);
        epochs.push(Arc::clone(&stats));
        stats
    }

    /// Copy the counters out, with the caller-supplied live queue depth
    /// gauge (the batcher's pending-lane count for this registration).
    pub fn snapshot(&self, queue_depth: u64) -> RegSnapshot {
        let epochs: Vec<EpochSnapshot> = self
            .epochs
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            // analyze: allow(lock_order, reason = "EpochStats::snapshot takes no locks; the name-keyed call graph merges it with Reg/ServiceStats::snapshot")
            .map(|e| e.snapshot())
            .collect();
        RegSnapshot {
            slot: self.slot,
            requests: self.requests.load(Ordering::Relaxed),
            queue_full: self.queue_full.load(Ordering::Relaxed),
            queue_depth,
            epoch: epochs.last().map(|e| e.epoch).unwrap_or(0),
            tier: self.tier(),
            epochs,
        }
    }
}

/// Registry of every registration's stats for one
/// [`SimService`](crate::SimService). Registrations are append-only and
/// indexed by slot, mirroring the service's own slot table.
#[derive(Debug, Default)]
pub struct ServiceStats {
    regs: RwLock<Vec<Arc<RegStats>>>,
}

impl ServiceStats {
    /// Add stats for the next registration slot and return them.
    pub fn register(&self) -> Arc<RegStats> {
        let mut regs = self
            .regs
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let stats = Arc::new(RegStats::new(regs.len() as u32));
        regs.push(Arc::clone(&stats));
        stats
    }

    /// Stats of one registration by slot index.
    pub fn reg(&self, slot: usize) -> Option<Arc<RegStats>> {
        self.regs
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(slot)
            .cloned()
    }

    /// All registrations, slot order.
    pub fn registrations(&self) -> Vec<Arc<RegStats>> {
        self.regs
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Aggregate snapshot: the fold over all registrations (queue-depth
    /// gauges read as 0 here — the service handle supplies live depths
    /// for [`RegSnapshot`]s it hands out).
    pub fn snapshot(&self) -> StatsSnapshot {
        let regs: Vec<RegSnapshot> = self
            .regs
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            // analyze: allow(lock_order, reason = "regs -> epochs is the established order; the merged snapshot name adds a phantom reverse edge")
            .map(|r| r.snapshot(0))
            .collect();
        StatsSnapshot::fold(&regs)
    }
}

/// Point-in-time copy of one `(registration, epoch)`'s flush counters.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochSnapshot {
    /// Epoch number (0 is the initial registration).
    pub epoch: u64,
    /// Blocks flushed under this epoch.
    pub blocks: u64,
    /// Blocks flushed because all lanes filled.
    pub full_flushes: u64,
    /// Blocks flushed because the oldest request hit `max_wait`.
    pub deadline_flushes: u64,
    /// Blocks drained by the hot swap that ended this epoch (0 or 1).
    pub swap_flushes: u64,
    /// Blocks drained at shutdown.
    pub shutdown_flushes: u64,
    /// Total occupied lanes over this epoch's flushed blocks.
    pub lanes_filled: u64,
    /// Total lane capacity of this epoch's flushed blocks.
    pub lane_capacity: u64,
    /// Flush-latency distribution (mergeable log₂ buckets).
    pub latency: HistogramSnapshot,
}

impl EpochSnapshot {
    /// Flush latency median (ns, log₂-bucket upper bound).
    pub fn p50_flush_ns(&self) -> u64 {
        self.latency.quantile_ns(0.50)
    }

    /// Flush latency 99th percentile (ns, log₂-bucket upper bound).
    pub fn p99_flush_ns(&self) -> u64 {
        self.latency.quantile_ns(0.99)
    }
}

/// Point-in-time copy of one registration's stats: lifetime counters,
/// the live queue-depth gauge, and every epoch's [`EpochSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct RegSnapshot {
    /// Registration slot index.
    pub slot: u32,
    /// Requests accepted for this registration.
    pub requests: u64,
    /// Submissions rejected by backpressure.
    pub queue_full: u64,
    /// Live queue depth (pending lanes) when the snapshot was taken.
    pub queue_depth: u64,
    /// Current epoch (== completed swaps on this registration).
    pub epoch: u64,
    /// The evaluation tier serving this registration when the snapshot
    /// was taken.
    pub tier: Tier,
    /// Per-epoch counters, epoch order (index == epoch number).
    pub epochs: Vec<EpochSnapshot>,
}

/// Point-in-time copy of a service's aggregate metrics — the fold
/// ([`StatsSnapshot::fold`]) of its per-registration snapshots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsSnapshot {
    /// Requests accepted.
    pub requests: u64,
    /// Submissions rejected by backpressure (`try_submit` against a full
    /// per-simulator queue). Rejected submissions are *not* counted in
    /// `requests`.
    pub queue_full: u64,
    /// Blocks flushed.
    pub blocks: u64,
    /// Blocks flushed because all 64 lanes filled.
    pub full_flushes: u64,
    /// Blocks flushed because the oldest request hit `max_wait`.
    pub deadline_flushes: u64,
    /// Blocks drained by a hot swap (the outgoing epoch's last flush).
    /// Swaps that found an empty queue drain nothing, so
    /// `swap_flushes <= swaps`.
    pub swap_flushes: u64,
    /// Blocks drained at shutdown.
    pub shutdown_flushes: u64,
    /// Completed hot swaps (epoch bumps) across all registrations. A
    /// registration's current epoch equals the number of swaps applied to
    /// it, so on a single-registration service this reconciles directly
    /// with `SimService::epoch`.
    pub swaps: u64,
    /// Registrations currently served from the materialized tier
    /// ([`Tier::Materialized`]) — a gauge, not a lifetime counter.
    pub materialized: u64,
    /// Total occupied lanes over all flushed blocks.
    pub lanes_filled: u64,
    /// Total lane capacity of all flushed blocks (`Σ words × 64`; partial
    /// flushes only pay for the lane words they actually evaluate, and a
    /// truth-table answer is a one-lane block).
    pub lane_capacity: u64,
    /// `lanes_filled / lane_capacity` — mean fraction of useful lanes.
    pub lane_occupancy: f64,
    /// Flush latency median (ns, log₂-bucket upper bound) over all
    /// registrations' merged histograms.
    pub p50_flush_ns: u64,
    /// Flush latency 99th percentile (ns, log₂-bucket upper bound).
    pub p99_flush_ns: u64,
    /// Inert: always 0.0. The service keeps no result cache; the field
    /// stays so existing readers still compile.
    pub cache_hit_rate: f64,
}

impl StatsSnapshot {
    /// Fold per-registration snapshots into the aggregate view. This *is*
    /// the definition of the aggregate: every counter (including the
    /// latency quantiles, computed from the merged bucket arrays) comes
    /// from the per-registration data.
    pub fn fold(regs: &[RegSnapshot]) -> StatsSnapshot {
        let mut out = StatsSnapshot {
            requests: 0,
            queue_full: 0,
            blocks: 0,
            full_flushes: 0,
            deadline_flushes: 0,
            swap_flushes: 0,
            shutdown_flushes: 0,
            swaps: 0,
            materialized: 0,
            lanes_filled: 0,
            lane_capacity: 0,
            lane_occupancy: 0.0,
            p50_flush_ns: 0,
            p99_flush_ns: 0,
            cache_hit_rate: 0.0,
        };
        let mut latency = HistogramSnapshot::default();
        for reg in regs {
            out.requests += reg.requests;
            out.queue_full += reg.queue_full;
            out.swaps += reg.epoch;
            out.materialized += matches!(reg.tier, Tier::Materialized) as u64;
            for e in &reg.epochs {
                out.blocks += e.blocks;
                out.full_flushes += e.full_flushes;
                out.deadline_flushes += e.deadline_flushes;
                out.swap_flushes += e.swap_flushes;
                out.shutdown_flushes += e.shutdown_flushes;
                out.lanes_filled += e.lanes_filled;
                out.lane_capacity += e.lane_capacity;
                latency.merge(&e.latency);
            }
        }
        if out.lane_capacity > 0 {
            out.lane_occupancy = out.lanes_filled as f64 / out.lane_capacity as f64;
        }
        out.p50_flush_ns = latency.quantile_ns(0.50);
        out.p99_flush_ns = latency.quantile_ns(0.99);
        out
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "requests: {} (+{} rejected: queue full)  blocks: {} (full {} / deadline {} / swap {} / shutdown {})",
            self.requests,
            self.queue_full,
            self.blocks,
            self.full_flushes,
            self.deadline_flushes,
            self.swap_flushes,
            self.shutdown_flushes,
        )?;
        if self.swaps > 0 {
            writeln!(
                f,
                "hot swaps: {} epoch bumps ({} drained a non-empty queue)",
                self.swaps, self.swap_flushes,
            )?;
        }
        if self.materialized > 0 {
            writeln!(
                f,
                "tiering: {} registration(s) serving from materialized truth tables",
                self.materialized,
            )?;
        }
        writeln!(
            f,
            "lane occupancy: {:.1}% ({} lanes over {} blocks)",
            100.0 * self.lane_occupancy,
            self.lanes_filled,
            self.blocks,
        )?;
        write!(
            f,
            "flush latency: p50 ≤ {:.1} µs, p99 ≤ {:.1} µs",
            self.p50_flush_ns as f64 / 1_000.0,
            self.p99_flush_ns as f64 / 1_000.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_track_log2_buckets() {
        let h = AtomicHistogram::default();
        for ns in [100u64, 100, 100, 100, 100, 100, 100, 100, 100, 100_000] {
            h.record(ns);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 10);
        // 100 ns lands in bucket 7 (64..128); p50 reports its upper bound.
        assert_eq!(snap.quantile_ns(0.50), 128);
        // The single 100 µs outlier only surfaces at the very top.
        assert_eq!(snap.quantile_ns(0.99), 131_072);
        assert_eq!(snap.quantile_ns(0.0), 128); // rank clamps to 1
        assert_eq!(snap.sum_ns, 9 * 100 + 100_000);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let snap = AtomicHistogram::default().snapshot();
        assert_eq!(snap.quantile_ns(0.5), 0);
        assert_eq!(snap.count(), 0);
    }

    #[test]
    fn zero_latency_is_representable() {
        let h = AtomicHistogram::default();
        h.record(0);
        assert_eq!(h.snapshot().quantile_ns(0.5), 0);
    }

    #[test]
    fn histogram_records_concurrently_without_loss() {
        let h = Arc::new(AtomicHistogram::default());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.snapshot().count(), 40_000);
    }

    #[test]
    fn histogram_merge_is_bucketwise() {
        let a = AtomicHistogram::default();
        let b = AtomicHistogram::default();
        a.record(100);
        b.record(100);
        b.record(100_000);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 3);
        assert_eq!(m.quantile_ns(0.50), 128);
        assert_eq!(m.sum_ns, 200 + 100_000);
    }

    #[test]
    fn stats_accumulate_and_snapshot() {
        let stats = ServiceStats::default();
        let reg = stats.register();
        for _ in 0..70 {
            reg.record_request();
        }
        reg.record_queue_full();
        reg.record_queue_full();
        let epoch = reg.current_epoch();
        epoch.record_flush(FlushCause::Full, 64, 64, 2_000);
        epoch.record_flush(FlushCause::Deadline, 6, 64, 150_000);
        reg.begin_epoch();
        let snap = stats.snapshot();
        assert_eq!(snap.requests, 70);
        assert_eq!(snap.queue_full, 2);
        assert_eq!(snap.blocks, 2);
        assert_eq!(snap.full_flushes, 1);
        assert_eq!(snap.deadline_flushes, 1);
        assert_eq!(snap.swap_flushes, 0);
        assert_eq!(snap.shutdown_flushes, 0);
        assert_eq!(snap.swaps, 1);
        assert_eq!(snap.lanes_filled, 70);
        assert!((snap.lane_occupancy - 70.0 / 128.0).abs() < 1e-12);
        assert_eq!(snap.cache_hit_rate, 0.0, "the inert stand-in");
        assert!(snap.p50_flush_ns >= 2_000);
        assert!(snap.p99_flush_ns >= snap.p50_flush_ns);
        // Display renders without panicking and mentions the headline
        // figures.
        let text = snap.to_string();
        assert!(text.contains("requests: 70"));
        assert!(text.contains("lane occupancy"));
    }

    #[test]
    fn swap_drains_count_separately_from_swaps() {
        let stats = ServiceStats::default();
        let reg = stats.register();
        // First swap drains a 10-lane partial queue under the outgoing
        // epoch; the second finds the queue empty (no flush recorded).
        reg.current_epoch()
            .record_flush(FlushCause::Swap, 10, 64, 500);
        reg.begin_epoch();
        reg.begin_epoch();
        let snap = stats.snapshot();
        assert_eq!(snap.swaps, 2);
        assert_eq!(snap.swap_flushes, 1);
        assert_eq!(snap.blocks, 1);
        assert!(snap.swap_flushes <= snap.swaps);
        assert!(snap.to_string().contains("hot swaps: 2 epoch bumps"));
    }

    #[test]
    fn multi_word_flushes_widen_the_capacity() {
        let stats = ServiceStats::default();
        let reg = stats.register();
        let epoch = reg.current_epoch();
        // A full 3-word block and a partial 130-lane (3-word) flush.
        epoch.record_flush(FlushCause::Full, 192, 192, 1_000);
        epoch.record_flush(FlushCause::Deadline, 130, 192, 1_000);
        let snap = stats.snapshot();
        assert_eq!(snap.lanes_filled, 322);
        assert_eq!(snap.lane_capacity, 384);
        assert!((snap.lane_occupancy - 322.0 / 384.0).abs() < 1e-12);
    }

    #[test]
    fn per_epoch_counters_stay_segmented() {
        let reg = RegStats::new(4);
        reg.current_epoch()
            .record_flush(FlushCause::Full, 64, 64, 1_000);
        let e1 = reg.begin_epoch();
        e1.record_flush(FlushCause::Deadline, 10, 64, 9_000);
        let snap = reg.snapshot(7);
        assert_eq!(snap.slot, 4);
        assert_eq!(snap.queue_depth, 7);
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.epochs.len(), 2);
        assert_eq!(snap.epochs[0].epoch, 0);
        assert_eq!(snap.epochs[0].full_flushes, 1);
        assert_eq!(snap.epochs[0].lanes_filled, 64);
        assert_eq!(snap.epochs[1].epoch, 1);
        assert_eq!(snap.epochs[1].deadline_flushes, 1);
        assert_eq!(snap.epochs[1].lanes_filled, 10);
        assert!(snap.epochs[1].p50_flush_ns() >= 9_000);
    }

    #[test]
    fn fold_of_registrations_matches_manual_totals() {
        let stats = ServiceStats::default();
        let a = stats.register();
        let b = stats.register();
        a.record_request();
        a.record_request();
        b.record_request();
        a.current_epoch()
            .record_flush(FlushCause::Full, 64, 64, 1_000);
        b.current_epoch()
            .record_flush(FlushCause::Deadline, 32, 64, 64_000);
        let folded = stats.snapshot();
        assert_eq!(folded.requests, 3);
        assert_eq!(folded.blocks, 2);
        assert_eq!(folded.lanes_filled, 96);
        assert_eq!(folded.lane_capacity, 128);
        // Merged histogram spans both registrations' observations.
        assert_eq!(folded.p50_flush_ns, 1_024);
        assert_eq!(folded.p99_flush_ns, 65_536);
    }
}
