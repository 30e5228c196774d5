//! `paper_flow`: the paper's offline design flow, pass after pass.
//!
//! A Table 1 pass takes each of `max46`, `apla` and `t2` through
//! ESPRESSO, the CNFET area model, GNOR-PLA mapping and an exhaustive
//! equivalence check. A Table 2 pass places, routes and times
//! `table2_fpga`'s circuit on both FPGA flavours. Each synthesised PLA is
//! then deployed: hot-swapped into a running service and probed with
//! seeded vectors, whose replies are checked.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ambipla_core::sim::check_equivalent;
use ambipla_core::{GnorPla, PlaDimensions, Technology};
use ambipla_serve::{
    reply_channel, ReplySink, ReplyStream, ServeConfig, SimId, SimKey, SimService, TierPolicy,
};
use fpga::{critical_path, place, route, Circuit, FpgaArch, FpgaFlavor};
use logic::espresso::Pass as EspressoPass;
use logic::{espresso_with_dc, espresso_with_dc_traced};

use crate::gen::{uniform_vectors, Rng};
use crate::layers::ServeView;
use crate::stats::Clock;
use crate::trace::Tracer;
use crate::wire::{DRAIN_TIMEOUT, RECV_POLL};

/// Table 1 designs, in paper order.
pub const DESIGNS: [&str; 3] = ["max46", "apla", "t2"];
/// Product terms ESPRESSO must keep, per design.
pub const EXPECT_CUBES: [usize; 3] = [46, 25, 52];
/// CNFET GNOR-PLA area in L², per design (the paper's Table 1 column).
pub const EXPECT_AREA: [f64; 3] = [27600.0, 33000.0, 102960.0];
/// The FPGA flavours of Table 2 and their metric labels.
pub const FLAVORS: [(FpgaFlavor, &str); 2] = [
    (FpgaFlavor::Standard, "standard"),
    (FpgaFlavor::CnfetPla, "cnfet"),
];
/// Routed two-pin connections per flavour at the canonical seed.
pub const EXPECT_ROUTED: [usize; 2] = [350, 178];
/// The canonical seed of `table2_fpga`'s circuit and placement.
const FPGA_SEED: u64 = 11;
/// Probe vectors sent to each deployed PLA per pass.
const PROBES: usize = 64;
/// ESPRESSO passes reported per design.
pub const ESPRESSO_PASSES: [EspressoPass; 4] = [
    EspressoPass::Urp,
    EspressoPass::Expand,
    EspressoPass::Irredundant,
    EspressoPass::Reduce,
];

/// The flow's inputs: the Table 1 designs and the Table 2 circuit.
pub struct Flow {
    designs: Vec<mcnc::Benchmark>,
    circuit: Circuit,
    arch: FpgaArch,
}

impl Flow {
    pub fn setup() -> Flow {
        let circuit = Circuit::random(63, 3, 0.95, FPGA_SEED);
        let arch = FpgaArch::sized_for(circuit.n_blocks(), 0.99);
        Flow {
            designs: mcnc::table1_benchmarks(),
            circuit,
            arch,
        }
    }
}

/// A running service each synthesised PLA is deployed into.
pub struct Deploy {
    service: SimService,
    ids: Vec<SimId>,
    sink: ReplySink,
    stream: ReplyStream,
    probes: Vec<Vec<u64>>,
    expected: Vec<Vec<Vec<bool>>>,
}

impl Deploy {
    pub fn setup(flow: &Flow, seed: u64) -> Deploy {
        let service = SimService::start(ServeConfig {
            tier_policy: TierPolicy::Forced,
            ..ServeConfig::default()
        })
        .expect("valid deploy config");
        let mut rng = Rng::new(seed);
        let ids = flow
            .designs
            .iter()
            .enumerate()
            .map(|(d, b)| {
                let pla = Arc::new(GnorPla::from_cover(&b.on));
                service.register_sim(pla, SimKey::new(0xf10e_0000 + d as u64))
            })
            .collect();
        let probes: Vec<Vec<u64>> = flow
            .designs
            .iter()
            .map(|b| uniform_vectors(&mut rng, b.on.n_inputs(), PROBES))
            .collect();
        let expected = flow
            .designs
            .iter()
            .zip(&probes)
            .map(|(b, p)| p.iter().map(|&v| b.on.eval_bits(v)).collect())
            .collect();
        let (sink, stream) = reply_channel();
        Deploy {
            service,
            ids,
            sink,
            stream,
            probes,
            expected,
        }
    }

    pub fn view(&self) -> ServeView {
        ServeView::of(&self.service)
    }

    pub fn teardown(self) {
        drop(self.sink);
        self.service.shutdown();
    }

    /// Swap `pla` in for design `d`, probe it, and count failures.
    fn deploy(
        &mut self,
        d: usize,
        pla: GnorPla,
        out: &mut PassResult,
        tracer: &mut Tracer,
        clock: Clock,
    ) {
        let t = Instant::now();
        self.service.swap_sim(self.ids[d], Arc::new(pla));
        out.swap_ns.push(t.elapsed().as_nanos() as u64);
        let mut pending = 0usize;
        for (j, &bits) in self.probes[d].iter().enumerate() {
            let tag = (d as u64) << 32 | j as u64;
            let start = clock.now_ns();
            let res = self
                .service
                .try_submit_tagged(self.ids[d], bits, tag, &self.sink);
            tracer.record(
                "serve.submit",
                Some("flow.deploy"),
                tag,
                start,
                clock.now_ns(),
            );
            out.attempted += 1;
            match res {
                Ok(()) => pending += 1,
                Err(_) => out.failed += 1,
            }
        }
        let waited = Instant::now();
        while pending > 0 {
            match self.stream.try_recv() {
                Some(reply) => {
                    pending -= 1;
                    let (rd, j) = (
                        (reply.tag >> 32) as usize,
                        (reply.tag & 0xffff_ffff) as usize,
                    );
                    let ok =
                        rd == d && self.expected[d].get(j).is_some_and(|e| *e == reply.outputs);
                    if !ok {
                        out.failed += 1;
                    }
                }
                None if waited.elapsed() > DRAIN_TIMEOUT => {
                    out.failed += pending as u64;
                    return;
                }
                None => std::thread::sleep(RECV_POLL),
            }
        }
    }
}

/// What one Table 1 + Table 2 pass measured and checked.
#[derive(Debug, Clone, Default)]
pub struct PassResult {
    pub table1_ns: u64,
    pub table2_ns: u64,
    /// Wall time of the whole pass, deployment included.
    pub wall_ns: u64,
    /// Wall time of each design step: three Table 1 designs, then the
    /// two Table 2 flavours.
    pub step_ns: Vec<u64>,
    pub swap_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// ESPRESSO pass totals per design, ns (traced passes only).
    pub espresso_ns: [[u64; 4]; 3],
    pub gnor_build_ns: u64,
    pub check_ns: u64,
    /// Lanes the equivalence checks evaluated, both sides.
    pub lanes_checked: u64,
    pub place_ns: [u64; 2],
    pub route_ns: [u64; 2],
    pub timing_ns: u64,
    pub cubes: [usize; 3],
    pub routed: [usize; 2],
}

/// Time `body` as a span named `name` under `parent`; returns its
/// result and duration in ns.
fn span<T>(
    tracer: &mut Tracer,
    clock: Clock,
    name: &'static str,
    parent: &'static str,
    req: u64,
    body: impl FnOnce() -> T,
) -> (T, u64) {
    let start = clock.now_ns();
    let out = body();
    let end = clock.now_ns();
    tracer.record(name, Some(parent), req, start, end);
    (out, end - start)
}

/// Run one pass; deploy each PLA when `deploy` is given.
pub fn run_pass(
    flow: &Flow,
    mut deploy: Option<&mut Deploy>,
    tracer: &mut Tracer,
    clock: Clock,
    pass: u64,
) -> PassResult {
    let mut out = PassResult::default();
    let pass_start = clock.now_ns();
    for (d, bench) in flow.designs.iter().enumerate() {
        let req = pass * 8 + d as u64;
        let step = clock.now_ns();
        let traced = tracer.enabled();
        let (min, _) = span(tracer, clock, "logic.espresso", "flow.table1", req, || {
            if traced {
                let (min, _, trace) = espresso_with_dc_traced(&bench.on, &bench.dc);
                for (k, p) in ESPRESSO_PASSES.iter().enumerate() {
                    out.espresso_ns[d][k] = trace.pass_totals(*p).1;
                }
                min
            } else {
                espresso_with_dc(&bench.on, &bench.dc).0
            }
        });
        let dims = PlaDimensions {
            inputs: min.n_inputs(),
            outputs: min.n_outputs(),
            products: min.len(),
        };
        let (area, _) = span(tracer, clock, "core.area", "flow.table1", req, || {
            Technology::CnfetGnor.pla_area(dims)
        });
        let (pla, build_ns) = span(tracer, clock, "core.gnor_build", "flow.table1", req, || {
            GnorPla::from_cover(&min)
        });
        out.gnor_build_ns += build_ns;
        let n = min.n_inputs();
        let (equivalent, check_ns) = span(
            tracer,
            clock,
            "sim.check_equivalent",
            "flow.table1",
            req,
            || check_equivalent(&pla, &min, n).is_equivalent(),
        );
        out.check_ns += check_ns;
        out.lanes_checked += 2 << n;
        let end = clock.now_ns();
        tracer.record("flow.table1", None, req, step, end);
        out.step_ns.push(end - step);
        out.table1_ns += end - step;
        out.cubes[d] = min.len();
        out.attempted += 1;
        if min.len() != EXPECT_CUBES[d] || area != EXPECT_AREA[d] || !equivalent {
            out.failed += 1;
        }
        if let Some(dep) = deploy.as_deref_mut() {
            dep.deploy(d, pla, &mut out, tracer, clock);
        }
    }
    for (f, &(flavor, _)) in FLAVORS.iter().enumerate() {
        let req = pass * 8 + 3 + f as u64;
        let step = clock.now_ns();
        let (placement, place_ns) = span(tracer, clock, "fpga.place", "flow.table2", req, || {
            place(&flow.circuit, &flow.arch, flavor, FPGA_SEED)
        });
        let (routing, route_ns) = span(tracer, clock, "fpga.route", "flow.table2", req, || {
            route(&flow.circuit, &placement, &flow.arch)
        });
        let (timing, timing_ns) = span(tracer, clock, "fpga.timing", "flow.table2", req, || {
            critical_path(&flow.circuit, &routing, &flow.arch)
        });
        let end = clock.now_ns();
        tracer.record("flow.table2", None, req, step, end);
        out.place_ns[f] = place_ns;
        out.route_ns[f] = route_ns;
        out.timing_ns += timing_ns;
        out.step_ns.push(end - step);
        out.table2_ns += end - step;
        out.routed[f] = routing.connections.len();
        out.attempted += 1;
        if out.routed[f] != EXPECT_ROUTED[f] || timing.frequency.is_nan() || timing.frequency <= 0.0
        {
            out.failed += 1;
        }
    }
    out.wall_ns = clock.now_ns() - pass_start;
    out
}

/// Run passes until `seconds` have passed (at least `min_passes`).
pub fn run_passes(
    flow: &Flow,
    mut deploy: Option<&mut Deploy>,
    seconds: f64,
    min_passes: usize,
    tracer: &mut Tracer,
) -> Vec<PassResult> {
    let clock = Clock::start();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < min_passes || start.elapsed() < budget {
        let pass = passes.len() as u64;
        passes.push(run_pass(flow, deploy.as_deref_mut(), tracer, clock, pass));
    }
    passes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_reproduces_the_paper_counts_and_deploys_cleanly() {
        let flow = Flow::setup();
        let mut deploy = Deploy::setup(&flow, 3);
        let clock = Clock::start();
        let pass = run_pass(
            &flow,
            Some(&mut deploy),
            &mut Tracer::sampling(true, 1),
            clock,
            0,
        );
        deploy.teardown();
        assert_eq!(pass.failed, 0);
        assert_eq!(pass.cubes, EXPECT_CUBES);
        assert_eq!(pass.routed, EXPECT_ROUTED);
        assert_eq!(pass.step_ns.len(), 5);
        assert_eq!(pass.swap_ns.len(), 3);
        assert_eq!(pass.attempted, 5 + 3 * PROBES as u64);
        assert!(pass.espresso_ns.iter().flatten().any(|&ns| ns > 0));
    }

    #[test]
    fn deploy_probes_are_seed_deterministic() {
        let flow = Flow::setup();
        let (a, b, c) = (
            Deploy::setup(&flow, 9),
            Deploy::setup(&flow, 9),
            Deploy::setup(&flow, 10),
        );
        assert_eq!(a.probes, b.probes);
        assert_ne!(a.probes, c.probes);
        for d in [a, b, c] {
            d.teardown();
        }
    }
}
