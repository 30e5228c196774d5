//! End-to-end driver of the `ambipla_serve` subsystem — the CI
//! `service-smoke` step.
//!
//! 1. Starts a [`SimService`], registers the whole MCNC benchmark
//!    registry, and fires interleaved requests from four client threads,
//!    verifying every reply against direct `eval_bits`.
//! 2. Registers **heterogeneous backends** on the same service — a GNOR
//!    PLA and its `FaultyGnorPla` twin under their own `SimKey`s — and
//!    verifies their replies against each backend's own `simulate_bits`
//!    (the twins must also disagree somewhere, proving the queues do not
//!    leak).
//! 3. Hot-swaps the faulty twin's registration mid-traffic — defect
//!    injection, column repair, re-minimization — and verifies every
//!    reply against the epoch that served it ([`EpochOracle`]).
//! 4. Runs the offline bulk sweep ([`eval_sims_blocked`], mixed backend
//!    types) with 1 and N worker threads and checks the results are
//!    identical.
//! 5. Runs the yield Monte-Carlo sequentially and sharded
//!    ([`fault::yield_curve_parallel`]) and checks bit-identical curves.
//! 6. Puts the TCP front end (`ambipla_net`) in front of a two-shard
//!    service on loopback: two tenants, verified replies, a rate-limited
//!    tenant driven into quota rejection, per-tenant counters checked.
//! 7. Serves the same 12-input PLA twice — with the truth-table tier
//!    disabled, and under the default policy — and prints both
//!    ns-per-request figures: batched `eval_words` flushes against O(1)
//!    indexed lookups from the table built at registration
//!    ([`Tier::Materialized`]).
//!
//! Any mismatch panics (non-zero exit); the happy path prints the service
//! stats table. Run:
//! `cargo run --release -p bench --bin service_demo`

use ambipla_core::{EpochOracle, GnorPla};
use ambipla_net::{Frame, NetClient, NetConfig, NetServer, QuotaConfig, TenantId};
use ambipla_serve::{
    eval_sims_blocked, reply_channel, shard_for_key, ServeConfig, SharedSim, SimId, SimKey,
    SimService, Simulator, Tier, TierPolicy, WorkerPool,
};
use fault::{repair_with_columns, ColumnRepairOutcome, DefectKind, DefectMap, FaultyGnorPla};
use std::sync::Arc;
use std::time::Instant;

const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 2_000;

/// Mask keeping the low `n` input bits of a packed assignment — the same
/// saturating low-bits mask as `lane_mask`, reused so the workspace keeps
/// one copy of the shift-overflow-sensitive math.
fn input_mask(n: usize) -> u64 {
    logic::eval::lane_mask(n)
}

fn main() {
    println!("# ambipla_serve — service demo");
    println!();

    // ---- 1. Online: multi-threaded clients against the batcher. --------
    // Sections 1-3 serve batched, so the stats table shows lane packing
    // and every swap drains; section 7 shows the truth-table tier.
    let covers: Vec<logic::Cover> = mcnc::registry().into_iter().map(|b| b.on).collect();
    let service = SimService::start(ServeConfig {
        tier_policy: TierPolicy::Disabled,
        ..ServeConfig::default()
    })
    .expect("valid config");
    let ids: Vec<_> = covers.iter().map(|c| service.register(c.clone())).collect();

    let started = Instant::now();
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let service = &service;
            let covers = &covers;
            let ids = &ids;
            s.spawn(move || {
                let (sink, stream) = reply_channel();
                // Deterministic per-client request stream, round-robin
                // over the registered covers.
                let pick = |i: usize| (client + i) % covers.len();
                let bits_of = |i: usize| {
                    (client as u64)
                        .wrapping_mul(0xd134_2543_de82_ef95)
                        .wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                        & input_mask(covers[pick(i)].n_inputs())
                };
                for i in 0..REQUESTS_PER_CLIENT {
                    service.submit_tagged(ids[pick(i)], bits_of(i), i as u64, &sink);
                }
                for _ in 0..REQUESTS_PER_CLIENT {
                    let reply = stream.recv();
                    let i = reply.tag as usize;
                    assert_eq!(
                        reply.outputs,
                        covers[pick(i)].eval_bits(bits_of(i)),
                        "client {client} request {i} got a wrong answer"
                    );
                }
            });
        }
    });
    let elapsed = started.elapsed();
    let total = CLIENTS * REQUESTS_PER_CLIENT;
    println!(
        "online: {total} requests from {CLIENTS} clients over {} covers in {:.1} ms \
         ({:.0}k req/s), all verified against eval_bits",
        covers.len(),
        elapsed.as_secs_f64() * 1e3,
        total as f64 / elapsed.as_secs_f64() / 1e3,
    );
    println!();
    println!("{}", service.stats());
    println!();

    // ---- 2. Heterogeneous backends: a PLA and its faulty twin. ---------
    // The Simulator redesign's acceptance scenario: one service batching
    // a `Cover`, a `GnorPla` and a `FaultyGnorPla` side by side, each
    // under its own stable `SimKey`, with every reply verified against
    // that backend's own scalar answer.
    let spec = covers[0].clone();
    let base_key = SimKey::of_cover(&spec);
    let nominal = GnorPla::from_cover(&spec);
    let mut defects = {
        let d = nominal.dimensions();
        DefectMap::clean(d.products, d.inputs, d.outputs)
    };
    defects.set_input_defect(0, 0, DefectKind::StuckOn);
    let faulty = FaultyGnorPla::new(nominal.clone(), defects);
    // Derived backends mix the base cover's key with a tag of what
    // changed — here simply which twin it is.
    let nid = service.register_sim(Arc::new(nominal.clone()), SimKey::new(base_key.raw() ^ 1));
    let fid = service.register_sim(Arc::new(faulty.clone()), SimKey::new(base_key.raw() ^ 2));
    let mask = input_mask(spec.n_inputs());
    let probes: Vec<u64> = (0..500u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) & mask)
        .collect();
    let mut twins_differ = false;
    let pairs: Vec<_> = probes
        .iter()
        .map(|&bits| (bits, service.submit(nid, bits), service.submit(fid, bits)))
        .collect();
    for (bits, nt, ft) in pairs {
        let n = nt.wait();
        let f = ft.wait();
        assert_eq!(
            n,
            nominal.simulate_bits(bits),
            "nominal twin answered wrong"
        );
        assert_eq!(f, faulty.simulate_bits(bits), "faulty twin answered wrong");
        twins_differ |= n != f;
    }
    assert!(
        twins_differ,
        "the stuck-on defect must be visible somewhere in 500 probes"
    );
    println!(
        "heterogeneous: GnorPla + FaultyGnorPla twins on one service — {} probes each, \
         all verified against their own simulate_bits (twins disagree: {twins_differ})",
        probes.len(),
    );
    println!();

    // ---- 3. Hot swaps: reconfigure the faulty slot mid-traffic. --------
    // The epoch contract end to end: swap the faulty twin's registration
    // through fresh defect draws, a column-repaired view and the
    // re-minimized specification while probes stay in flight, verifying
    // every reply against the generation that served it.
    let adder = logic::Cover::parse(
        "110 01\n101 01\n011 01\n111 01\n100 10\n010 10\n001 10\n111 10",
        3,
        2,
    )
    .expect("valid cover");
    let adder_pla = GnorPla::from_cover(&adder);
    let hot: SharedSim = Arc::new(adder_pla.clone());
    let oracle = EpochOracle::new(Arc::clone(&hot));
    let hid = service.register_sim(hot, SimKey::new(base_key.raw() ^ 3));
    let swap_rounds = 12u64;
    let mut in_flight = Vec::new();
    for k in 1..=swap_rounds {
        // Keep requests in flight across each swap: these are drained by
        // the swap under the *outgoing* epoch.
        for bits in 0..8u64 {
            in_flight.push((bits, service.submit(hid, bits)));
        }
        let d = adder_pla.dimensions();
        let candidate: SharedSim = match k % 3 {
            0 => Arc::new(logic::espresso::espresso(&adder).0),
            1 => Arc::new(FaultyGnorPla::new(
                adder_pla.clone(),
                DefectMap::sample(d.products, d.inputs, d.outputs, 0.08, 0.7, 0x5eed ^ k),
            )),
            _ => {
                let defects = DefectMap::sample(adder.len() + 2, 5, 2, 0.05, 0.8, 0xfee1 ^ k);
                match repair_with_columns(&adder, &defects) {
                    ColumnRepairOutcome::Repaired(r) => Arc::new(r.faulty_view(&defects)),
                    ColumnRepairOutcome::Unrepairable { .. } => Arc::new(adder_pla.clone()),
                }
            }
        };
        let promised = oracle.push(Arc::clone(&candidate));
        let installed = service.swap_sim(hid, candidate);
        assert_eq!(installed, promised, "oracle and service epochs diverged");
    }
    for (bits, ticket) in in_flight {
        let reply = ticket.wait_reply();
        assert!(
            oracle.matches(reply.epoch, bits, &reply.outputs),
            "hot-swap reply for bits {bits:03b} does not match epoch {}",
            reply.epoch
        );
    }
    assert_eq!(service.epoch(hid), swap_rounds);
    println!(
        "hot swaps: {swap_rounds} backend generations (defect injection, column repair, \
         re-minimization) on one registration — {} in-flight probes all matched \
         the epoch that served them",
        8 * swap_rounds,
    );
    println!();

    // ---- 4. Offline: bulk sweep sharded across the worker pool. --------
    // Mixed backend types in one eval_sims_blocked call: every cover plus
    // the nominal/faulty twins.
    let mut jobs: Vec<(&(dyn Simulator + Sync), Vec<u64>)> = covers
        .iter()
        .map(|c| {
            let mask = input_mask(c.n_inputs());
            let vectors: Vec<u64> = (0..1_000u64)
                .map(|i| i.wrapping_mul(0x2545_f491_4f6c_dd1d) & mask)
                .collect();
            (c as &(dyn Simulator + Sync), vectors)
        })
        .collect();
    let twin_vectors: Vec<u64> = (0..1_000u64)
        .map(|i| i.wrapping_mul(0x2545_f491_4f6c_dd1d) & mask)
        .collect();
    jobs.push((&nominal, twin_vectors.clone()));
    jobs.push((&faulty, twin_vectors));
    let t1 = Instant::now();
    let sequential = eval_sims_blocked(&jobs, &WorkerPool::new(1));
    let t1 = t1.elapsed();
    let pool = WorkerPool::available();
    let tn = Instant::now();
    let sharded = eval_sims_blocked(&jobs, &pool);
    let tn = tn.elapsed();
    assert_eq!(sequential, sharded, "sharded bulk sweep diverged");
    println!(
        "bulk sweep: {} mixed-backend jobs × 1000 vectors — {:.1} ms on 1 thread, {:.1} ms \
         on {} threads, results identical",
        jobs.len(),
        t1.as_secs_f64() * 1e3,
        tn.as_secs_f64() * 1e3,
        pool.threads(),
    );

    // ---- 5. Monte-Carlo: sequential vs sharded yield curves. -----------
    let rates = [0.005, 0.02, 0.05];
    let trials = 400;
    let t1 = Instant::now();
    let seq = fault::yield_curve(&adder, 3, &rates, trials, 17);
    let t1 = t1.elapsed();
    let tn = Instant::now();
    let par = fault::yield_curve_parallel(&adder, 3, &rates, trials, 17, pool.threads());
    let tn = tn.elapsed();
    assert_eq!(seq, par, "parallel Monte-Carlo diverged from sequential");
    println!(
        "yield Monte-Carlo: {trials} trials × {} rates — {:.1} ms sequential, {:.1} ms on \
         {} threads, curves bit-identical",
        rates.len(),
        t1.as_secs_f64() * 1e3,
        tn.as_secs_f64() * 1e3,
        pool.threads(),
    );
    for p in &par {
        println!(
            "  rate {:>6.3}: raw yield {:.2}, repaired {:.2} (+{:.2})",
            p.defect_rate,
            p.raw_yield,
            p.repaired_yield,
            p.improvement()
        );
    }

    println!();

    // ---- 6. Network front end: multi-tenant TCP over loopback. ---------
    // A two-shard service behind a NetServer, with the two exposed
    // registrations provably on different batcher shards. Tenant 1 runs
    // unlimited and verified; tenant 9 gets a burst-25, zero-refill
    // quota and is driven into QuotaExceeded rejections.
    let net_service = Arc::new(
        SimService::start(ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        })
        .expect("valid config"),
    );
    let net_key_a = (0..64u64)
        .map(SimKey::new)
        .find(|&k| shard_for_key(k, 2) == 0)
        .expect("a key on shard 0");
    let net_key_b = (0..64u64)
        .map(SimKey::new)
        .find(|&k| shard_for_key(k, 2) == 1)
        .expect("a key on shard 1");
    let server = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&net_service),
        NetConfig::default(),
    )
    .expect("bind loopback");
    let net_id_a = server.register_sim(Arc::new(adder.clone()), net_key_a);
    let net_id_b = server.register_sim(Arc::new(adder_pla.clone()), net_key_b);
    assert_ne!(
        net_service.shard_of(net_id_a),
        net_service.shard_of(net_id_b),
        "the demo's two network registrations must span both shards"
    );
    server.set_quota(
        TenantId::new(9),
        QuotaConfig {
            rate_per_sec: 0,
            burst: 25,
        },
    );

    // Tenant 1: 200 pipelined requests across both registrations, every
    // reply verified against the adder truth.
    let mut t1_client =
        NetClient::connect(server.local_addr(), TenantId::new(1)).expect("connect tenant 1");
    let t1_requests = 200u64;
    for i in 0..t1_requests {
        let key = if i % 2 == 0 { net_key_a } else { net_key_b };
        t1_client.queue_request(key, i, i % 8);
    }
    t1_client.flush().expect("flush tenant 1");
    for _ in 0..t1_requests {
        match t1_client.recv().expect("recv tenant 1") {
            Frame::Reply {
                req_id, outputs, ..
            } => assert_eq!(
                outputs,
                adder.eval_bits(req_id % 8),
                "tenant 1 request {req_id} answered wrong over the wire"
            ),
            other => panic!("tenant 1: unexpected frame {other:?}"),
        }
    }

    // Tenant 9: 40 requests against a 25-token bucket — the overflow
    // must come back as typed QuotaExceeded errors, not drops.
    let mut t9_client =
        NetClient::connect(server.local_addr(), TenantId::new(9)).expect("connect tenant 9");
    let mut t9_served = 0u64;
    let mut t9_rejected = 0u64;
    for i in 0..40u64 {
        match t9_client.call(net_key_a, i, i % 8).expect("call tenant 9") {
            Frame::Reply { .. } => t9_served += 1,
            Frame::Error { code, .. } => {
                assert_eq!(code.to_string(), "quota_exceeded");
                t9_rejected += 1;
            }
            other => panic!("tenant 9: unexpected frame {other:?}"),
        }
    }
    assert_eq!(
        (t9_served, t9_rejected),
        (25, 15),
        "a zero-refill 25-token bucket serves exactly its burst"
    );

    // Per-tenant counters reconcile with what the demo just drove.
    let tenant_stats = server.tenant_stats();
    let of = |t: u64| {
        tenant_stats
            .iter()
            .find(|s| s.id == TenantId::new(t))
            .expect("tenant seen")
    };
    assert_eq!(of(1).accepted, t1_requests);
    assert_eq!(of(1).replies, t1_requests);
    assert_eq!(of(1).quota_rejected, 0);
    assert_eq!(of(9).accepted, t9_served);
    assert_eq!(of(9).quota_rejected, t9_rejected);
    println!(
        "network: {} verified replies for tenant 1 over 2 shards; tenant 9's zero-refill \
         quota served {t9_served} and rejected {t9_rejected} with typed errors",
        t1_requests
    );
    drop(t1_client);
    drop(t9_client);
    server.shutdown();
    println!();

    // ---- 7. Tiered evaluation: one small sim, batched and tabled. -----
    // A 12-input / 8-output PLA served by a service with the tier
    // disabled, where every block pays a real `eval_words`, and by a
    // default service, which builds the 4 KiB packed truth table at
    // registration and answers every request by indexed load. Both get
    // the same request stream.
    let hot_cover = mcnc::RandomPla::new(12, 8, 1024)
        .seed(3)
        .literal_density(0.35)
        .build();
    let hot_pla = GnorPla::from_cover(&hot_cover);
    let requests = 4096u64;
    // A golden-ratio walk over the 12-bit input space, so the batched
    // service evaluates a spread of patterns rather than one repeated
    // block.
    let bits_of = |i: u64| (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 12) & input_mask(12);
    // Verification oracle: an independently built table for the bulk of
    // the replies (O(1) per check, so it stays out of the measurement's
    // way), with one scalar `simulate_bits` spot-check per block.
    let oracle = ambipla_core::TruthTable::from_simulator(&hot_pla);
    let run_phase = |service: &SimService, id: SimId| -> f64 {
        // One untimed reply first: it keeps the table build (default
        // service, ~1 ms) and the first flush's buffer allocations
        // (batched service) out of the timed phase.
        assert_eq!(service.submit(id, 0).wait(), oracle.lookup_bits(0));
        let (sink, stream) = reply_channel();
        let t0 = Instant::now();
        for i in 0..requests {
            service.submit_tagged(id, bits_of(i), i, &sink);
        }
        let replies: Vec<_> = (0..requests).map(|_| stream.recv()).collect();
        let ns = t0.elapsed().as_nanos() as f64 / requests as f64;
        for reply in replies {
            let bits = bits_of(reply.tag);
            assert_eq!(
                reply.outputs,
                oracle.lookup_bits(bits),
                "tier demo answered wrong for request {}",
                reply.tag
            );
            if reply.tag % 64 == 0 {
                assert_eq!(reply.outputs, hot_pla.simulate_bits(bits));
            }
        }
        ns
    };
    let batched_service = SimService::start(ServeConfig {
        tier_policy: TierPolicy::Disabled,
        ..ServeConfig::default()
    })
    .expect("valid config");
    let bid = batched_service.register_sim(Arc::new(hot_pla.clone()), SimKey::new(0x712));
    assert_eq!(batched_service.stats_for(bid).tier, Tier::Batched);
    let batched_ns = run_phase(&batched_service, bid);
    batched_service.shutdown();
    let table_service = SimService::with_defaults();
    let tid = table_service.register_sim(Arc::new(hot_pla.clone()), SimKey::new(0x712));
    assert_eq!(
        table_service.stats_for(tid).tier,
        Tier::Materialized,
        "the default policy must materialize a 12-input sim at registration"
    );
    let table_ns = run_phase(&table_service, tid);
    table_service.shutdown();
    println!(
        "tiered evaluation: the same 12-input PLA, {requests} requests each — \
         batched {batched_ns:.0} ns/request (one eval_words per block), \
         materialized {table_ns:.0} ns/request (table built at registration, O(1) indexed), \
         {:.1}x",
        batched_ns / table_ns
    );

    println!();
    println!("service demo OK");
}
