//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <wire_open|serve_closed|paper_flow> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) measures the workload in [`ROUNDS`]
//! freshly set-up rounds that share `--seconds`, checks every output, and
//! prints every end-to-end metric. A traced run (`--trace 1`) measures the
//! workload untraced and traced, replays the `wire_open` schedule for the
//! latency ledger, times each layer from outside, and prints every
//! per-layer metric. The last stdout line is the result object; the line
//! before it carries provenance and each metric's median, quartiles and
//! sample count. `perfbench/README.md` maps each per-layer metric to the
//! end-to-end metric and workload it should move.

mod closed;
mod flow;
mod gen;
mod layers;
mod report;
mod stats;
mod trace;
mod wire;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ambipla_core::{GnorPla, Simulator};
use ambipla_serve::{ServeConfig, TierPolicy};

use crate::flow::{PassResult, DESIGNS, ESPRESSO_PASSES, FLAVORS};
use crate::gen::{uniform_vectors, wire_schedule, Rng};
use crate::layers::{Layers, ServeView};
use crate::report::{num, Metrics, END_TO_END, PER_LAYER};
use crate::stats::{nproc, peak_rss_mb, Latencies, Summary};
use crate::trace::Tracer;
use crate::wire::{Phase, Rig as WireRig, INPUTS, RATE};

const WORKLOADS: [&str; 3] = ["wire_open", "serve_closed", "paper_flow"];
/// Rounds per untraced run. Each round sets the workload up afresh and
/// measures it for `--seconds / ROUNDS`; `setup_s` and the per-round
/// metrics are medians over rounds, so one disturbed round cannot move
/// them.
const ROUNDS: usize = 10;
/// Traffic before measuring starts, so lazy set-up (tier promotion,
/// connection buffers) is done.
const WARMUP: Duration = Duration::from_millis(300);
/// Table 1/2 passes measured back to back after the rounds of a serving
/// workload. Passes squeezed between rounds ran in the cache and clock
/// state each round left behind, which widened their spread.
const PROBE_PASSES: usize = 20;
/// Traced passes after a serving workload.
const TRACED_PROBE_PASSES: usize = 3;
/// Vectors the layer probes evaluate.
const PROBE_VECTORS: usize = 4096;
/// Pacer lag p99 above which an open-loop run is flagged.
const MAX_LAG_P99_US: f64 = 1000.0;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key.to_string(), value);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let name = get("workload")?;
    let workload = WORKLOADS
        .into_iter()
        .find(|w| w == name)
        .ok_or_else(|| format!("unknown workload {name}; expected one of {WORKLOADS:?}"))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What a run measured, checked and noticed.
#[derive(Default)]
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    flags: BTreeMap<&'static str, String>,
    failures: BTreeMap<String, u64>,
}

impl Outcome {
    fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn flag(&mut self, name: &'static str, value: impl ToString) {
        self.flags.insert(name, value.to_string());
    }
}

fn ms(ns: &[u64]) -> Summary {
    Summary::of(ns.iter().map(|&v| v as f64 / 1e6).collect())
}

/// Latency, throughput and swap metrics of a serving workload's rounds:
/// each is the median of its per-round values, and swaps are pooled.
fn serving_metrics(out: &mut Outcome, rounds: &[Phase]) {
    let lats: Vec<Latencies> = rounds
        .iter()
        .map(|p| Latencies::new(&p.latency_ns))
        .collect();
    let per_round = |f: &dyn Fn(usize) -> f64| Summary::of((0..rounds.len()).map(f).collect());
    let swaps: Vec<u64> = rounds
        .iter()
        .flat_map(|p| p.swap_ns.iter().copied())
        .collect();
    let m = &mut out.metrics;
    m.median("latency_p50_us", per_round(&|r| lats[r].q(0.5)));
    m.median("latency_p99_us", per_round(&|r| lats[r].q(0.99)));
    m.median("throughput_rps", per_round(&|r| rounds[r].windows.rate()));
    m.median("swap_p50_ms", ms(&swaps));
    for p in rounds {
        out.count(p.attempted, p.failed);
        note_failures(out, p);
    }
}

/// Record why a phase's requests failed.
fn note_failures(out: &mut Outcome, p: &Phase) {
    for (why, n) in &p.reasons {
        *out.failures.entry(why.clone()).or_default() += n;
    }
}

/// `table1_ms` and `table2_ms`: the median pass.
fn table_metrics(out: &mut Outcome, passes: &[PassResult]) {
    let t1: Vec<u64> = passes.iter().map(|p| p.table1_ns).collect();
    let t2: Vec<u64> = passes.iter().map(|p| p.table2_ns).collect();
    out.metrics.median("table1_ms", ms(&t1));
    out.metrics.median("table2_ms", ms(&t2));
    count_passes(out, passes);
}

fn count_passes(out: &mut Outcome, passes: &[PassResult]) {
    for p in passes {
        out.count(p.attempted, p.failed);
    }
}

/// Latency of each design step of `passes`.
fn step_latencies(passes: &[PassResult]) -> Latencies {
    let steps: Vec<u64> = passes
        .iter()
        .flat_map(|p| p.step_ns.iter().copied())
        .collect();
    Latencies::new(&steps)
}

/// Design steps per second over `passes`.
fn step_rate(passes: &[PassResult]) -> f64 {
    let steps: usize = passes.iter().map(|p| p.step_ns.len()).sum();
    let wall: u64 = passes.iter().map(|p| p.wall_ns).sum();
    steps as f64 * 1e9 / wall as f64
}

/// Latency per design step, steps per second and deployment swaps of
/// `paper_flow`'s rounds of passes: the median of per-round values, with
/// swaps pooled.
fn flow_step_metrics(out: &mut Outcome, rounds: &[Vec<PassResult>]) {
    let lats: Vec<Latencies> = rounds.iter().map(|r| step_latencies(r)).collect();
    let swaps: Vec<u64> = rounds
        .iter()
        .flatten()
        .flat_map(|p| p.swap_ns.iter().copied())
        .collect();
    let m = &mut out.metrics;
    m.median(
        "latency_p50_us",
        Summary::of(lats.iter().map(|l| l.q(0.5)).collect()),
    );
    m.median(
        "latency_p99_us",
        Summary::of(lats.iter().map(|l| l.q(0.99)).collect()),
    );
    m.median(
        "throughput_rps",
        Summary::of(rounds.iter().map(|r| step_rate(r)).collect()),
    );
    m.median("swap_p50_ms", ms(&swaps));
}

/// Flag an open-loop phase whose pacer fell behind or whose backlog grew.
fn open_loop_flags(out: &mut Outcome, p: &Phase, prefix: &'static str) {
    let lag = Latencies::new(&p.lag_ns);
    let b = &p.backlog;
    let quarter = (b.len() / 4).max(1);
    let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len().max(1) as f64;
    let growth = if b.is_empty() {
        0.0
    } else {
        mean(&b[b.len() - quarter..]) - mean(&b[..quarter])
    };
    let behind = lag.q(0.99) > MAX_LAG_P99_US;
    let growing = growth > RATE * 0.002;
    out.flag(prefix, if behind || growing { "INVALID" } else { "ok" });
    if behind {
        out.flag("pacer_behind", format!("lag p99 {:.1} us", lag.q(0.99)));
    }
    if growing {
        out.flag("backlog_grew", format!("{growth:.0} requests"));
    }
}

fn untraced(args: &Args) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let round_s = args.seconds / ROUNDS as f64;
    let warm_ns = WARMUP.as_nanos() as u64;
    let mut setups = Vec::new();
    let mut rounds = Vec::new();
    let mut flow_rounds = Vec::new();
    let mut passes = Vec::new();
    for _ in 0..ROUNDS {
        let t = Instant::now();
        match args.workload {
            "wire_open" => {
                let span = WARMUP.as_secs_f64() + round_s;
                let rig = WireRig::setup(args.seed, span, wire::serve_config(), true)?;
                setups.push(t.elapsed().as_secs_f64());
                let phase = rig.run(warm_ns, false);
                open_loop_flags(&mut out, &phase, "open_loop");
                rounds.push(phase);
            }
            "serve_closed" => {
                let rig = closed::Rig::setup(args.seed);
                setups.push(t.elapsed().as_secs_f64());
                rounds.push(rig.run(WARMUP, round_s, false));
            }
            _ => {
                // Set-up includes one warm-up pass, so lazy state is
                // built before passes are timed.
                let flow = flow::Flow::setup();
                let mut deploy = flow::Deploy::setup(&flow, args.seed);
                let clock = stats::Clock::start();
                flow::run_pass(&flow, Some(&mut deploy), &mut Tracer::new(false), clock, 0);
                setups.push(t.elapsed().as_secs_f64());
                let mut off = Tracer::new(false);
                let round = flow::run_passes(&flow, Some(&mut deploy), round_s, 1, &mut off);
                deploy.teardown();
                passes.extend(round.iter().cloned());
                flow_rounds.push(round);
            }
        }
    }
    if rounds.is_empty() {
        flow_step_metrics(&mut out, &flow_rounds);
    } else {
        serving_metrics(&mut out, &rounds);
        passes = paper_probe(&mut out, PROBE_PASSES, &mut Tracer::new(false));
    }
    table_metrics(&mut out, &passes);
    if args.workload == "wire_open" {
        out.flag("offered_rps", RATE);
        // `max46` must be served from its truth table by the end of a round.
        let tiered = rounds
            .iter()
            .filter(|p| p.serve.is_some_and(|v| v.stats.materialized > 0))
            .count();
        out.flag("rounds_with_max46_materialized", tiered);
    }
    out.metrics.median("setup_s", Summary::of(setups));
    let ok = (out.attempted - out.failed.min(out.attempted)) as f64 / out.attempted.max(1) as f64;
    out.metrics.one("ok_ratio", ok);
    out.metrics
        .one("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    Ok(out)
}

/// Table 1/2 passes without deployment, after a serving workload. A
/// first, untimed pass refills the caches the serving workload evicted;
/// its checks still count.
fn paper_probe(out: &mut Outcome, passes: usize, tracer: &mut Tracer) -> Vec<PassResult> {
    let flow = flow::Flow::setup();
    let warm = flow::run_pass(
        &flow,
        None,
        &mut Tracer::new(false),
        stats::Clock::start(),
        0,
    );
    out.count(warm.attempted, warm.failed);
    flow::run_passes(&flow, None, 0.0, passes, tracer)
}

/// The latency ledger: the `wire_open` schedule over the wire, replayed
/// in process, and over the wire with the cache and with the tier off.
struct Ledger {
    latency_p50_us: f64,
    roundtrip_p50_us: f64,
    cache_off_p50_us: f64,
    tier_off_p50_us: f64,
    codec_us: f64,
    submit_ns: f64,
    default: Phase,
}

fn ledger(out: &mut Outcome, seed: u64, seconds: f64) -> std::io::Result<Ledger> {
    let span = WARMUP.as_secs_f64() + seconds;
    let warm_ns = WARMUP.as_nanos() as u64;
    let p50 = |p: &Phase| Latencies::new(&p.latency_ns).q(0.5);
    let mut phase = |config: ServeConfig, wire: bool, traced: bool| -> std::io::Result<Phase> {
        let p = WireRig::setup(seed, span, config, wire)?.run(warm_ns, traced);
        out.count(p.attempted, p.failed);
        note_failures(out, &p);
        Ok(p)
    };
    let default = phase(wire::serve_config(), true, false)?;
    let replay = phase(wire::serve_config(), false, true)?;
    let cache_off = phase(
        ServeConfig {
            cache_capacity: 0,
            ..wire::serve_config()
        },
        true,
        false,
    )?;
    let tier_off = phase(
        ServeConfig {
            tier_policy: TierPolicy::Disabled,
            ..wire::serve_config()
        },
        true,
        false,
    )?;
    // Codec cost per request: the request is encoded by the client and
    // decoded by the server, the reply the other way round.
    let designs = wire::Designs::build();
    let sched = wire_schedule(seed, RATE, 0.2, INPUTS);
    let vectors: Vec<u64> = sched.iter().map(|r| r.bits).collect();
    let replies = sched
        .iter()
        .map(|r| designs.truth[2 * r.reg as usize].lookup_bits(r.bits))
        .collect();
    let (enc, dec) = layers::codec(&layers::frames(&vectors, replies));
    Ok(Ledger {
        latency_p50_us: p50(&default),
        roundtrip_p50_us: p50(&replay),
        cache_off_p50_us: p50(&cache_off),
        tier_off_p50_us: p50(&tier_off),
        codec_us: 2.0 * (enc + dec) / 1e3,
        submit_ns: replay.tracer.mean_ns("serve.submit").unwrap_or(f64::NAN),
        default,
    })
}

/// Per-layer metrics of one workload's backends, from the layer probes.
fn layer_metrics(out: &mut Outcome, l: &Layers) {
    let m = &mut out.metrics;
    m.one("net.protocol.encode_ns", l.encode_ns);
    m.one("net.protocol.decode_ns", l.decode_ns);
    m.one("net.tenant.try_take_ns", l.try_take_ns);
    m.one("logic.eval.pack_ns_per_lane", l.pack_ns_per_lane);
    m.one("logic.eval.unpack_ns_per_lane", l.unpack_ns_per_lane);
    m.one("sim.eval_ns_per_lane", l.eval_ns_per_lane);
    m.one("tier.lookup_ns", l.lookup_ns);
    m.one("tier.build_us", l.build_us);
}

fn serve_view_metrics(out: &mut Outcome, v: &ServeView) {
    let m = &mut out.metrics;
    m.one(
        "serve.deadline_flush_share",
        v.share(v.stats.deadline_flushes),
    );
    m.one("serve.full_flush_share", v.share(v.stats.full_flushes));
    m.one("serve.lane_occupancy", v.stats.lane_occupancy);
    m.one("serve.flush_wait_p50_us", v.flush_wait_p50_us);
    m.one("serve.cache_hit_ratio", v.stats.cache_hit_rate);
}

/// Per-pass ESPRESSO, mapping, checking and FPGA metrics of traced passes.
fn pass_layer_metrics(out: &mut Outcome, passes: &[PassResult]) {
    let med = |f: &dyn Fn(&PassResult) -> f64| Summary::of(passes.iter().map(f).collect());
    let m = &mut out.metrics;
    for (d, design) in DESIGNS.iter().enumerate() {
        for (k, pass) in ESPRESSO_PASSES.iter().enumerate() {
            let name = format!("espresso.{}_us.{design}", pass.label());
            m.median(name, med(&|p| p.espresso_ns[d][k] as f64 / 1e3));
        }
        let last = passes.last().map_or(0, |p| p.cubes[d]);
        m.one(format!("espresso.cubes.{design}"), last as f64);
    }
    m.median("core.gnor_build_us", med(&|p| p.gnor_build_ns as f64 / 1e3));
    m.median("sim.check_equivalent_us", med(&|p| p.check_ns as f64 / 1e3));
    for (f, (_, flavor)) in FLAVORS.iter().enumerate() {
        m.median(
            format!("fpga.place_ms.{flavor}"),
            med(&|p| p.place_ns[f] as f64 / 1e6),
        );
        m.median(
            format!("fpga.route_ms.{flavor}"),
            med(&|p| p.route_ns[f] as f64 / 1e6),
        );
        let last = passes.last().map_or(0, |p| p.routed[f]);
        m.one(format!("fpga.routed_connections.{flavor}"), last as f64);
    }
    m.median("fpga.timing_us", med(&|p| p.timing_ns as f64 / 1e3));
}

/// `(latency p50 µs, throughput)` of an untraced and a traced phase.
fn overhead(out: &mut Outcome, untraced: (f64, f64), traced: (f64, f64)) {
    out.metrics
        .one("trace.overhead.latency_p50_us", traced.0 - untraced.0);
    out.metrics
        .one("trace.overhead.throughput_rps", traced.1 - untraced.1);
}

fn write_spans(path: &Path, phase: &str, tracer: &Tracer) {
    if let Err(e) = tracer.write_jsonl(path, phase) {
        eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        );
    }
}

/// Counts, tracing overhead and batching counters of a serving
/// workload's untraced phase `u` and traced phase `t`; the traced spans
/// go to `spans`.
fn serving_pair(out: &mut Outcome, spans: &Path, workload: &str, u: &Phase, t: &Phase) {
    write_spans(spans, workload, &t.tracer);
    for p in [u, t] {
        out.count(p.attempted, p.failed);
        note_failures(out, p);
    }
    let p50 = |p: &Phase| Latencies::new(&p.latency_ns).q(0.5);
    overhead(out, (p50(u), u.windows.rate()), (p50(t), t.windows.rate()));
    serve_view_metrics(out, t.serve.as_ref().expect("service counters"));
}

fn traced(args: &Args) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let main_s = (args.seconds * 0.25).max(1.0);
    let ledger_s = (args.seconds * 0.125).max(1.0);
    let warm_ns = WARMUP.as_nanos() as u64;
    let dir = PathBuf::from(".perfbench");
    std::fs::create_dir_all(&dir)?;
    let spans = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    let _ = std::fs::remove_file(&spans);
    let mut rng = Rng::new(args.seed ^ 0x1a7e_u64);
    let max46 = GnorPla::from_cover(&mcnc::max46().on);
    let tier_vectors = uniform_vectors(&mut rng, INPUTS[0], PROBE_VECTORS);
    let ledger = ledger(&mut out, args.seed, ledger_s)?;
    // Each arm yields the layer probes, the lanes per second its batched
    // backend evaluates, and the traced Table 1/2 passes.
    let (layers, eval_rate, passes) = match args.workload {
        "wire_open" => {
            let span = WARMUP.as_secs_f64() + main_s;
            let cfg = wire::serve_config();
            let u = WireRig::setup(args.seed, span, cfg, true)?.run(warm_ns, false);
            let t = WireRig::setup(args.seed, span, cfg, true)?.run(warm_ns, true);
            serving_pair(&mut out, &spans, args.workload, &u, &t);
            out.metrics.one("serve.submit_ns", ledger.submit_ns);
            // The run's own vectors: `t2` requests evaluate, `max46`
            // requests hit the table.
            let sched = wire_schedule(args.seed, RATE, 0.5, INPUTS);
            let pick = |reg: u8| -> Vec<u64> {
                sched
                    .iter()
                    .filter(|r| r.reg == reg)
                    .map(|r| r.bits)
                    .take(PROBE_VECTORS)
                    .collect()
            };
            let stamps: Vec<u64> = sched.iter().map(|r| r.due_ns).take(PROBE_VECTORS).collect();
            let designs = wire::Designs::build();
            let layers = layers::probe(&*designs.t2, &pick(1), &max46, &pick(0), &stamps);
            let probe = paper_probe(
                &mut out,
                TRACED_PROBE_PASSES,
                &mut Tracer::sampling(true, 1),
            );
            (layers, u.windows.rate(), probe)
        }
        "serve_closed" => {
            let u = closed::Rig::setup(args.seed).run(WARMUP, main_s, false);
            let rig = closed::Rig::setup(args.seed);
            let gnor = Arc::clone(&rig.backends[0]);
            let pool: Vec<u64> = rig.pool[..PROBE_VECTORS].to_vec();
            let t = rig.run(WARMUP, main_s, true);
            serving_pair(&mut out, &spans, args.workload, &u, &t);
            let submit_ns = t.tracer.mean_ns("serve.submit").unwrap_or(f64::NAN);
            out.metrics.one("serve.submit_ns", submit_ns);
            let stamps: Vec<u64> = (0..PROBE_VECTORS as u64)
                .map(|i| (i as f64 * 1e9 / u.windows.rate()) as u64)
                .collect();
            let layers = layers::probe(&*gnor, &pool, &max46, &tier_vectors, &stamps);
            let probe = paper_probe(
                &mut out,
                TRACED_PROBE_PASSES,
                &mut Tracer::sampling(true, 1),
            );
            (layers, u.windows.rate(), probe)
        }
        _ => {
            let flow = flow::Flow::setup();
            let run = |traced: bool| {
                let mut deploy = flow::Deploy::setup(&flow, args.seed);
                let mut tracer = Tracer::sampling(traced, 1);
                let passes = flow::run_passes(&flow, Some(&mut deploy), main_s, 1, &mut tracer);
                let view = deploy.view();
                deploy.teardown();
                (passes, tracer, view)
            };
            let (u, _, _) = run(false);
            let (t, tracer, view) = run(true);
            write_spans(&spans, args.workload, &tracer);
            overhead(
                &mut out,
                (step_latencies(&u).q(0.5), step_rate(&u)),
                (step_latencies(&t).q(0.5), step_rate(&t)),
            );
            serve_view_metrics(&mut out, &view);
            let submit_ns = tracer.mean_ns("serve.submit").unwrap_or(f64::NAN);
            out.metrics.one("serve.submit_ns", submit_ns);
            count_passes(&mut out, &u);
            // Lanes the equivalence checks evaluate per second.
            let lanes: u64 = u.iter().map(|p| p.lanes_checked).sum();
            let wall: u64 = u.iter().map(|p| p.wall_ns).sum();
            let t2 = GnorPla::from_cover(&mcnc::t2().on);
            let vectors = uniform_vectors(&mut rng, t2.n_inputs(), PROBE_VECTORS);
            let stamps: Vec<u64> = (0..PROBE_VECTORS as u64).map(|i| i * 1_000).collect();
            let layers = layers::probe(&t2, &vectors, &max46, &tier_vectors, &stamps);
            (layers, lanes as f64 * 1e9 / wall as f64, t)
        }
    };
    pass_layer_metrics(&mut out, &passes);
    count_passes(&mut out, &passes);
    layer_metrics(&mut out, &layers);
    let share = layers.eval_ns_per_lane * eval_rate / (1e9 * nproc() as f64);
    out.metrics.one("sim.eval_share", share);

    let l = &ledger;
    let self_us = l.latency_p50_us - l.roundtrip_p50_us - l.codec_us;
    let m = &mut out.metrics;
    m.one("ledger.latency_p50_us", l.latency_p50_us);
    m.one("serve.roundtrip_p50_us", l.roundtrip_p50_us);
    m.one("ledger.codec_us", l.codec_us);
    m.one("net.server.self_p50_us", self_us);
    m.one("serve.cache_off.latency_p50_us", l.cache_off_p50_us);
    m.one("tier.off.latency_p50_us", l.tier_off_p50_us);
    let lag = Latencies::new(&l.default.lag_ns);
    m.one("gen.lag_p50_us", lag.q(0.5));
    m.one("gen.lag_p99_us", lag.q(0.99));
    m.one(
        "gen.backlog_end",
        l.default.backlog.last().copied().unwrap_or(0) as f64,
    );
    open_loop_flags(&mut out, &l.default, "ledger_open_loop");
    // The parts are defined to sum to the whole; the check is that the
    // residual left to the front end is not negative.
    let parts = l.roundtrip_p50_us + self_us + l.codec_us;
    let balanced = self_us >= 0.0 && (parts - l.latency_p50_us).abs() < 1e-6;
    out.flag("ledger_balanced", balanced);
    out.flag("spans", spans.display());
    Ok(out)
}

/// Median ms of a fixed integer kernel over a 256 KiB buffer: a reading
/// of how fast the host ran, to tell host drift from a change in the code.
fn host_reference_ms() -> f64 {
    let mut buf = vec![0u64; 1 << 15];
    let mask = buf.len() - 1;
    let times = (0..9)
        .map(|_| {
            let t = Instant::now();
            let mut x = 1u64;
            for i in 0..1u64 << 20 {
                let j = x as usize & mask;
                buf[j] = buf[j].wrapping_add(x);
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
            }
            std::hint::black_box(&buf);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    Summary::of(times).median
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let host_before = host_reference_ms();
    let result = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let table: &[(&str, &str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mismatches = out.metrics.mismatches(table);
    for m in &mismatches {
        eprintln!("perfbench: metric {m}");
    }
    let correct = out.failed == 0 && mismatches.is_empty();
    out.flag(
        "host_reference_ms",
        format!(
            "{} before, {} after",
            num(host_before),
            num(host_reference_ms())
        ),
    );
    if !out.failures.is_empty() {
        let why: Vec<String> = out
            .failures
            .iter()
            .map(|(k, v)| format!("{k}: {v}"))
            .collect();
        eprintln!("perfbench: failures: {}", why.join(", "));
        out.flag("failures", why.join("; "));
    }
    out.flag(
        "mode",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    let flags: Vec<String> = out
        .flags
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
        .collect();
    println!(
        "{{\"report\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"commit\": \"{}\", \"rounds\": {ROUNDS}, \
         \"warmup_s\": {}, \"flags\": {{{}}}, \"metrics\": {}}}}}",
        args.workload,
        args.seed,
        num(args.seconds),
        args.trace as u8,
        nproc(),
        git_commit(),
        num(WARMUP.as_secs_f64()),
        flags.join(", "),
        out.metrics.json(table, true)
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        out.metrics.json(table, false)
    );
}
