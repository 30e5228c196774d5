//! Snapshot → metric-family conversion for the exporters.
//!
//! [`metric_families`] flattens per-registration snapshots
//! ([`RegSnapshot`]) and the aggregate ([`StatsSnapshot`]) into the
//! `ambipla_obs` metric model, ready for
//! [`prometheus_text`](ambipla_obs::prometheus_text) or
//! [`json_text`](ambipla_obs::json_text). Per-registration series carry
//! `sim` (slot index) and — for flush-shaped counters — `epoch` labels,
//! so a scrape shows each `(SimId, epoch)` generation as its own series;
//! flush counts additionally split by `cause`
//! ([`FlushCause::label`](crate::stats::FlushCause::label)), and the
//! `ambipla_tier` gauge names each registration's live serving tier
//! through its `tier` label
//! ([`Tier::label`](crate::stats::Tier::label)).

use crate::stats::{FlushCause, HistogramSnapshot, RegSnapshot, StatsSnapshot};
use ambipla_obs::{MetricFamily, MetricKind, Sample};

fn l(pairs: &[(&str, String)]) -> Vec<(String, String)> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

/// Cumulative `le`-bucket samples (plus `_count` / `_sum`) of one
/// histogram, with the shared label set `base`. Only buckets through the
/// highest non-empty one are emitted (the `+Inf` bucket always is), so
/// idle series stay one line instead of 64.
fn histogram_samples(base: &[(&str, String)], hist: &HistogramSnapshot, out: &mut Vec<Sample>) {
    let mut cumulative = 0u64;
    let last = hist
        .buckets
        .iter()
        .rposition(|&n| n > 0)
        .map(|i| i + 1)
        .unwrap_or(0);
    for (b, &n) in hist.buckets.iter().enumerate().take(last) {
        cumulative += n;
        let mut labels = l(base);
        labels.push((
            "le".to_string(),
            HistogramSnapshot::bucket_bound(b).to_string(),
        ));
        out.push(Sample::suffixed("_bucket", labels, cumulative as f64));
    }
    let mut labels = l(base);
    labels.push(("le".to_string(), "+Inf".to_string()));
    out.push(Sample::suffixed("_bucket", labels, hist.count() as f64));
    out.push(Sample::suffixed("_count", l(base), hist.count() as f64));
    out.push(Sample::suffixed("_sum", l(base), hist.sum_ns as f64));
}

/// Build the full family list: per-registration lifetime counters and
/// gauges (`sim` label), per-`(sim, epoch)` flush/lane series, the
/// per-epoch flush-latency histograms, and the aggregate-only swap
/// counter. Registrations with no traffic still
/// contribute their zero-valued series — an idle backend is visible, not
/// absent.
pub fn metric_families(regs: &[RegSnapshot], aggregate: &StatsSnapshot) -> Vec<MetricFamily> {
    let mut requests = Vec::new();
    let mut queue_full = Vec::new();
    let mut queue_depth = Vec::new();
    let mut epoch_gauge = Vec::new();
    let mut tier_gauge = Vec::new();
    let mut blocks = Vec::new();
    let mut lanes = Vec::new();
    let mut capacity = Vec::new();
    let mut latency = Vec::new();
    for reg in regs {
        let sim = reg.slot.to_string();
        requests.push(Sample::new(l(&[("sim", sim.clone())]), reg.requests as f64));
        queue_full.push(Sample::new(
            l(&[("sim", sim.clone())]),
            reg.queue_full as f64,
        ));
        queue_depth.push(Sample::new(
            l(&[("sim", sim.clone())]),
            reg.queue_depth as f64,
        ));
        epoch_gauge.push(Sample::new(l(&[("sim", sim.clone())]), reg.epoch as f64));
        tier_gauge.push(Sample::new(
            l(&[("sim", sim.clone()), ("tier", reg.tier.label().to_string())]),
            1.0,
        ));
        for e in &reg.epochs {
            let base = [("sim", sim.clone()), ("epoch", e.epoch.to_string())];
            for (cause, n) in [
                (FlushCause::Full, e.full_flushes),
                (FlushCause::Deadline, e.deadline_flushes),
                (FlushCause::Swap, e.swap_flushes),
                (FlushCause::Shutdown, e.shutdown_flushes),
            ] {
                let mut labels = l(&base);
                labels.push(("cause".to_string(), cause.label().to_string()));
                blocks.push(Sample::new(labels, n as f64));
            }
            lanes.push(Sample::new(l(&base), e.lanes_filled as f64));
            capacity.push(Sample::new(l(&base), e.lane_capacity as f64));
            histogram_samples(&base, &e.latency, &mut latency);
        }
    }
    vec![
        MetricFamily::new(
            "ambipla_requests_total",
            "Requests accepted, per registration.",
            MetricKind::Counter,
            requests,
        ),
        MetricFamily::new(
            "ambipla_queue_full_total",
            "Submissions rejected by backpressure, per registration.",
            MetricKind::Counter,
            queue_full,
        ),
        MetricFamily::new(
            "ambipla_queue_depth",
            "Live pending-request gauge, per registration.",
            MetricKind::Gauge,
            queue_depth,
        ),
        MetricFamily::new(
            "ambipla_epoch",
            "Current epoch (completed hot swaps), per registration.",
            MetricKind::Gauge,
            epoch_gauge,
        ),
        MetricFamily::new(
            "ambipla_tier",
            "Serving tier, per registration: the tier label names the \
             live tier (batched or materialized) and the sample is 1.",
            MetricKind::Gauge,
            tier_gauge,
        ),
        MetricFamily::new(
            "ambipla_flushed_blocks_total",
            "Blocks flushed, per (registration, epoch) and flush cause.",
            MetricKind::Counter,
            blocks,
        ),
        MetricFamily::new(
            "ambipla_lanes_filled_total",
            "Occupied lanes over flushed blocks, per (registration, epoch).",
            MetricKind::Counter,
            lanes,
        ),
        MetricFamily::new(
            "ambipla_lane_capacity_total",
            "Lane capacity of flushed blocks, per (registration, epoch).",
            MetricKind::Counter,
            capacity,
        ),
        MetricFamily::new(
            "ambipla_flush_latency_ns",
            "Flush queue latency in ns (log2 buckets), per (registration, epoch).",
            MetricKind::Histogram,
            latency,
        ),
        MetricFamily::new(
            "ambipla_swaps_total",
            "Completed hot swaps (service-wide).",
            MetricKind::Counter,
            vec![Sample::new(vec![], aggregate.swaps as f64)],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ambipla_obs::{json_text, prometheus_text};

    #[test]
    fn zero_count_registration_renders_zero_series() {
        let reg = crate::stats::RegStats::new(0).snapshot(0);
        let agg = StatsSnapshot::fold(std::slice::from_ref(&reg));
        let fams = metric_families(&[reg], &agg);
        let text = prometheus_text(&fams);
        // The idle registration is visible, all zeros.
        assert!(text.contains("ambipla_requests_total{sim=\"0\"} 0\n"));
        assert!(text.contains("ambipla_tier{sim=\"0\",tier=\"batched\"} 1\n"));
        assert!(
            text.contains("ambipla_flushed_blocks_total{sim=\"0\",epoch=\"0\",cause=\"full\"} 0\n")
        );
        // Its empty histogram is a single +Inf bucket.
        assert!(
            text.contains("ambipla_flush_latency_ns_bucket{sim=\"0\",epoch=\"0\",le=\"+Inf\"} 0\n")
        );
        assert!(text.contains("ambipla_flush_latency_ns_count{sim=\"0\",epoch=\"0\"} 0\n"));
        // The JSON renderer accepts the same families.
        assert!(json_text(&fams).contains("\"name\":\"ambipla_requests_total\""));
    }

    #[test]
    fn per_epoch_series_carry_both_labels() {
        let reg = crate::stats::RegStats::new(3);
        reg.record_request();
        reg.current_epoch()
            .record_flush(FlushCause::Full, 64, 64, 900);
        let e1 = reg.begin_epoch();
        e1.record_flush(FlushCause::Deadline, 5, 64, 70_000);
        let snap = reg.snapshot(2);
        let agg = StatsSnapshot::fold(std::slice::from_ref(&snap));
        let text = prometheus_text(&metric_families(&[snap], &agg));
        assert!(text.contains("ambipla_requests_total{sim=\"3\"} 1\n"));
        assert!(text.contains("ambipla_queue_depth{sim=\"3\"} 2\n"));
        assert!(text.contains("ambipla_epoch{sim=\"3\"} 1\n"));
        assert!(
            text.contains("ambipla_flushed_blocks_total{sim=\"3\",epoch=\"0\",cause=\"full\"} 1\n")
        );
        assert!(text.contains(
            "ambipla_flushed_blocks_total{sim=\"3\",epoch=\"1\",cause=\"deadline\"} 1\n"
        ));
        assert!(text.contains("ambipla_lanes_filled_total{sim=\"3\",epoch=\"1\"} 5\n"));
        assert!(!text.contains("ambipla_cache_"));
        // 900 ns lands in bucket 10 (le = 1024); the cumulative +Inf
        // bucket and _count agree.
        assert!(
            text.contains("ambipla_flush_latency_ns_bucket{sim=\"3\",epoch=\"0\",le=\"1024\"} 1\n")
        );
        assert!(
            text.contains("ambipla_flush_latency_ns_bucket{sim=\"3\",epoch=\"0\",le=\"+Inf\"} 1\n")
        );
        assert!(text.contains("ambipla_flush_latency_ns_sum{sim=\"3\",epoch=\"0\"} 900\n"));
        assert!(text.contains("ambipla_swaps_total 1\n"));
    }

    #[test]
    fn tier_series_track_the_live_tier_label() {
        let reg = crate::stats::RegStats::new(7);
        reg.mark_materialized();
        let snap = reg.snapshot(0);
        let agg = StatsSnapshot::fold(std::slice::from_ref(&snap));
        let fams = metric_families(&[snap], &agg);
        let text = prometheus_text(&fams);
        assert!(text.contains("ambipla_tier{sim=\"7\",tier=\"materialized\"} 1\n"));
        assert!(!text.contains("tier=\"batched\""));
        // The JSON exposition carries the same family and label.
        let json = json_text(&fams);
        assert!(json.contains("\"name\":\"ambipla_tier\""));
        assert!(json.contains("\"tier\":\"materialized\""));
    }
}
