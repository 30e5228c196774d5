//! `serve_closed`: a saturated closed loop in process, no sockets.
//!
//! One thread keeps [`WINDOW`] `try_submit_tagged` requests in flight
//! over one reply channel, alternating between two registrations of the
//! same 32-input, 1024-product, 16-output GNOR PLA, one per batcher
//! shard. Vectors are drawn uniformly from a seeded pool of
//! [`POOL`] random 32-bit vectors whose outputs are precomputed from the
//! cover, so every reply is checked. Every [`SWAP_PERIOD`] the loop
//! hot-swaps one registration to an identical copy of the PLA, which
//! exercises the drain path under saturation.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ambipla_core::{EpochOracle, GnorPla, SharedSimulator};
use ambipla_serve::{reply_channel, ServeConfig, SimId, SimService};
use logic::Cover;
use mcnc::RandomPla;

use crate::gen::{uniform_vectors, Rng};
use crate::layers::ServeView;
use crate::stats::{Clock, Reservoir, Windows, RESERVOIR};
use crate::trace::Tracer;
use crate::wire::{key_on_shard, Phase, RECV_POLL};

/// Requests kept in flight.
pub const WINDOW: usize = 1024;
/// Distinct request vectors.
pub const POOL: usize = 1 << 16;
/// Time between two hot swaps.
pub const SWAP_PERIOD: Duration = Duration::from_millis(100);
/// Dimensions of the served PLA: inputs, outputs, products.
pub const DIMS: (usize, usize, usize) = (32, 16, 1024);
/// Seed of the served design; fixed, so every run serves the same PLA.
const DESIGN_SEED: u64 = 0x5e12_7e00;

pub fn serve_config() -> ServeConfig {
    ServeConfig {
        shards: 2,
        block_words: 4,
        max_wait: Duration::from_micros(100),
        queue_depth: 4096,
        ..ServeConfig::default()
    }
}

/// The served design, its two swap generations and the request pool.
pub struct Rig {
    pub backends: [SharedSimulator; 2],
    pub pool: Vec<u64>,
    /// Outputs of each pool vector, packed one bit per output.
    expected: Vec<u16>,
    seed: u64,
    service: SimService,
    ids: [SimId; 2],
}

fn pack_outputs(outputs: &[bool]) -> u16 {
    outputs
        .iter()
        .enumerate()
        .fold(0u16, |acc, (j, &b)| acc | (b as u16) << j)
}

impl Rig {
    pub fn setup(seed: u64) -> Rig {
        let (n, o, p) = DIMS;
        let cover = RandomPla::new(n, o, p).seed(DESIGN_SEED).build();
        let gnor = Arc::new(GnorPla::from_cover(&cover));
        let twin = Arc::new(GnorPla::clone(&gnor));
        let mut rng = Rng::new(seed);
        let pool = uniform_vectors(&mut rng, n, POOL);
        let expected = expected_outputs(&cover, &pool);
        let service = SimService::start(serve_config()).expect("valid serve_closed config");
        let backends: [SharedSimulator; 2] = [gnor, twin];
        let ids =
            [0, 1].map(|r| service.register_sim(Arc::clone(&backends[0]), key_on_shard(r, 0x5c)));
        Rig {
            backends,
            pool,
            expected,
            seed,
            service,
            ids,
        }
    }

    /// Keep the window full for `seconds` after `warmup` and check
    /// every reply.
    pub fn run(self, warmup: Duration, seconds: f64, traced: bool) -> Phase {
        let mut tracer = Tracer::new(traced);
        let oracles = [0, 1].map(|_| EpochOracle::new(Arc::clone(&self.backends[0])));
        let (sink, stream) = reply_channel();
        let mut rng = Rng::new(self.seed ^ 0xc105_ed00);
        // Per in-flight tag: submit time and pool index.
        const RING: usize = 4 * WINDOW;
        let mut ring = vec![(0u64, 0u32); RING];
        let mut latency_ns = Reservoir::new(RESERVOIR, self.seed);
        let mut swap_ns = Vec::new();
        let (mut submitted, mut failed) = (0u64, 0u64);
        let mut reasons: BTreeMap<String, u64> = BTreeMap::new();
        let mut fail = |why: &str, n: u64, failed: &mut u64| {
            *failed += n;
            *reasons.entry(why.to_string()).or_default() += n;
        };
        let clock = Clock::start();
        let warm_ns = warmup.as_nanos() as u64;
        let end_ns = warm_ns + (seconds * 1e9) as u64;
        let mut windows = Windows::new(warm_ns, end_ns, crate::wire::WINDOW);
        let mut next_swap = SWAP_PERIOD.as_nanos() as u64;
        let mut swaps_done = 0usize;

        let mut in_flight = 0usize;
        let mut drain_start: Option<Instant> = None;
        loop {
            let now = clock.now_ns();
            let open = now < end_ns;
            if open && now >= next_swap {
                let reg = swaps_done % 2;
                swaps_done += 1;
                let backend = Arc::clone(&self.backends[oracles[reg].len() % 2]);
                oracles[reg].push(Arc::clone(&backend));
                let t = Instant::now();
                self.service.swap_sim(self.ids[reg], backend);
                if now >= warm_ns {
                    swap_ns.push(t.elapsed().as_nanos() as u64);
                }
                next_swap += SWAP_PERIOD.as_nanos() as u64;
            }
            while open && in_flight < WINDOW {
                let tag = submitted;
                submitted += 1;
                let idx = rng.below(POOL as u64) as usize;
                let t = clock.now_ns();
                ring[tag as usize % RING] = (t, idx as u32);
                let id = self.ids[(tag % 2) as usize];
                let res = self
                    .service
                    .try_submit_tagged(id, self.pool[idx], tag, &sink);
                if tracer.enabled() {
                    tracer.record(
                        "serve.submit",
                        Some("serve.request"),
                        tag,
                        t,
                        clock.now_ns(),
                    );
                }
                match res {
                    Ok(()) => in_flight += 1,
                    Err(_) => fail("queue full", 1, &mut failed),
                }
            }
            let mut got = false;
            let mut now = 0;
            while let Some(reply) = stream.try_recv() {
                if !got {
                    now = clock.now_ns();
                    got = true;
                }
                in_flight -= 1;
                let (sent, idx) = ring[reply.tag as usize % RING];
                let reg = (reply.tag % 2) as usize;
                let ok = (reply.epoch as usize) < oracles[reg].len()
                    && pack_outputs(&reply.outputs) == self.expected[idx as usize];
                if !ok {
                    fail("wrong outputs or unknown epoch", 1, &mut failed);
                    continue;
                }
                tracer.record("serve.request", None, reply.tag, sent, now);
                if sent >= warm_ns && sent < end_ns {
                    latency_ns.push(now - sent);
                }
                windows.add(now);
            }
            if !open && in_flight == 0 {
                break;
            }
            if !got {
                if !open {
                    let start = *drain_start.get_or_insert_with(Instant::now);
                    if start.elapsed() > crate::wire::DRAIN_TIMEOUT {
                        fail("never answered", in_flight as u64, &mut failed);
                        break;
                    }
                }
                std::thread::sleep(RECV_POLL);
            }
        }
        let serve = ServeView::of(&self.service);
        drop(sink);
        self.service.shutdown();
        Phase {
            latency_ns: latency_ns.into_vec(),
            windows,
            swap_ns,
            attempted: submitted,
            failed,
            reasons,
            serve: Some(serve),
            tracer,
            ..Phase::default()
        }
    }
}

/// Outputs of `cover` on every vector, packed one bit per output.
fn expected_outputs(cover: &Cover, vectors: &[u64]) -> Vec<u16> {
    const WORDS: usize = 4;
    let (n, o) = (cover.n_inputs(), cover.n_outputs());
    let mut inputs = vec![0u64; n * WORDS];
    let mut out = vec![0u64; o * WORDS];
    let mut expected = Vec::with_capacity(vectors.len());
    for chunk in vectors.chunks(WORDS * 64) {
        logic::eval::pack_vectors_words(chunk, n, WORDS, &mut inputs);
        cover.eval_words(&inputs, &mut out, WORDS);
        for lane in 0..chunk.len() {
            expected.push(pack_outputs(&logic::eval::unpack_lane_words(
                &out, lane, WORDS,
            )));
        }
    }
    expected
}
