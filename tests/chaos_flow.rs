//! Chaos harness: epoch-versioned hot swaps under sustained concurrent
//! load.
//!
//! Issue 6's acceptance scenario, end to end: a [`SimService`] serves a
//! PLA while client threads hammer it and a mutator thread keeps
//! replacing the backend — injecting fresh defects into a
//! [`FaultyGnorPla`], applying `fault::repair_with_columns` and serving
//! the repaired view, and swapping in re-minimized covers — for at least
//! 50 hot swaps. The harness asserts the full epoch contract:
//!
//! * **(a)** every reply bit-matches the scalar truth of the epoch it was
//!   served under (checked against an [`EpochOracle`] that records every
//!   generation *before* its swap lands),
//! * **(b)** the service's `stats()` swap/epoch counters reconcile
//!   exactly with the driver's own swap log,
//! * **(c)** the structured event log is consistent: an [`EventRing`]
//!   recorder drained by a concurrent collector thread sees every swap
//!   in the driver's log exactly once, with the correct
//!   `(from_epoch, to_epoch)` pair, and — the ring being drained faster
//!   than it fills — loses nothing (`dropped() == 0`).
//!
//! Zero requests may be dropped: every submission must produce exactly
//! one reply. A deterministic companion test counts real evaluations: a
//! superseded backend is never evaluated again, and a swap leaves other
//! registrations' backends alone. `AMBIPLA_CHAOS_ITERS` overrides the default 60 swaps (CI
//! runs a bounded smoke with it; soak locally with a larger value).
//!
//! The network-mode run repeats the scenario through the full TCP stack
//! (`ambipla::net`): two tenants over loopback connections against a
//! two-shard service, with the mutator swapping both registrations and
//! every wire reply checked against its serving epoch's oracle truth.
//!
//! The tiered-evaluation run puts the same contract under the
//! materialized truth-table tier: a small (12-input) registration is
//! served from its table under concurrent load and hot-swapped twice
//! (each swap rebuilds the table under the new epoch), and every reply
//! still matches its serving epoch's oracle with zero drops — the tier
//! must be invisible in the results, before and after every swap. The
//! other runs serve batched (`TierPolicy::Disabled`), so their small
//! adder exercises lane packing, flushes and drains.

use ambipla::core::{EpochOracle, GnorPla, Simulator};
use ambipla::fault::{repair_with_columns, ColumnRepairOutcome, DefectMap, FaultyGnorPla};
use ambipla::logic::espresso::espresso;
use ambipla::logic::Cover;
use ambipla::obs::{Event, EventKind, EventRing};
use ambipla::serve::{reply_channel, ServeConfig, SharedSim, SimKey, SimService, TierPolicy};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The harness's specification: the 3-input full adder (sum, carry).
fn spec() -> Cover {
    Cover::parse(
        "110 01\n101 01\n011 01\n111 01\n100 10\n010 10\n001 10\n111 10",
        3,
        2,
    )
    .expect("valid cover")
}

/// Number of hot swaps the chaos runs drive (`AMBIPLA_CHAOS_ITERS`
/// overrides; the acceptance floor is 50).
fn chaos_iters() -> u64 {
    std::env::var("AMBIPLA_CHAOS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60)
}

/// Spin until `ready()` holds. A mutator uses it to wait for its clients'
/// traffic to reach the point an assertion depends on, instead of
/// racing them. After a minute it stops the clients and fails, so a dead
/// client fails the test instead of hanging it.
fn await_clients(running: &AtomicBool, what: &str, ready: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !ready() {
        if Instant::now() > deadline {
            running.store(false, Ordering::Relaxed);
            panic!("timed out waiting until {what}");
        }
        std::thread::yield_now();
    }
}

/// A pass-through backend that counts how many lane words it evaluated.
struct Counting {
    inner: SharedSim,
    words: AtomicUsize,
}

impl Counting {
    fn over(inner: SharedSim) -> Arc<Counting> {
        Arc::new(Counting {
            inner,
            words: AtomicUsize::new(0),
        })
    }

    fn words_evaluated(&self) -> usize {
        self.words.load(Ordering::Relaxed)
    }
}

impl Simulator for Counting {
    fn n_inputs(&self) -> usize {
        self.inner.n_inputs()
    }

    fn n_outputs(&self) -> usize {
        self.inner.n_outputs()
    }

    fn eval_words(&self, inputs: &[u64], out: &mut [u64], words: usize) {
        self.words.fetch_add(words, Ordering::Relaxed);
        self.inner.eval_words(inputs, out, words);
    }
}

/// Build swap candidate number `k` (all share the spec's 3×2 arity):
/// cycling through a re-minimized cover, a freshly defect-injected
/// faulty array, and a column-repaired view of a defective array —
/// the three reconfiguration shapes the issue's mutator must exercise.
fn swap_candidate(k: u64, spec: &Cover, base_faulty: &FaultyGnorPla) -> SharedSim {
    let d = base_faulty.shared_pla().dimensions();
    match k % 3 {
        0 => Arc::new(espresso(spec).0),
        1 => Arc::new(base_faulty.with_defects(DefectMap::sample(
            d.products,
            d.inputs,
            d.outputs,
            0.08,
            0.7,
            0x9e37 ^ k,
        ))),
        _ => {
            // Two spare rows and two spare columns; if this particular
            // defect draw is unrepairable, fall back to a clean ideal
            // array — the harness cares that swaps keep landing, not
            // that every draw is repairable.
            let defects = DefectMap::sample(
                spec.len() + 2,
                spec.n_inputs() + 2,
                2,
                0.05,
                0.8,
                0xc0de ^ k,
            );
            match repair_with_columns(spec, &defects) {
                ColumnRepairOutcome::Repaired(r) => Arc::new(r.faulty_view(&defects)),
                ColumnRepairOutcome::Unrepairable { .. } => Arc::new(GnorPla::from_cover(spec)),
            }
        }
    }
}

/// The tentpole scenario: ≥ `chaos_iters()` hot swaps under sustained
/// multi-threaded load, with every reply verified against the epoch that
/// served it, zero drops and reconciled counters.
#[test]
fn chaos_hot_swaps_under_load_keep_every_reply_epoch_consistent() {
    const CLIENTS: u64 = 4;
    const BURST: u64 = 32;
    let swaps = chaos_iters();
    assert!(swaps >= 50, "acceptance floor: at least 50 hot swaps");

    let spec = spec();
    let nominal = GnorPla::from_cover(&spec);
    let dims = nominal.dimensions();
    let base_faulty = FaultyGnorPla::new(
        nominal.clone(),
        DefectMap::clean(dims.products, dims.inputs, dims.outputs),
    );

    // (c) the event recorder: a lock-free ring drained by a concurrent
    // collector thread, so the producers never see a full ring and the
    // chaos run's complete structured-event history is available for the
    // consistency checks at the end.
    let ring = Arc::new(EventRing::with_capacity(1 << 14));
    let collector_stop = Arc::new(AtomicBool::new(false));
    let collector = {
        let ring = Arc::clone(&ring);
        let stop = Arc::clone(&collector_stop);
        std::thread::spawn(move || {
            let mut events: Vec<Event> = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                match ring.pop() {
                    Some(e) => events.push(e),
                    None => std::thread::yield_now(),
                }
            }
            events.extend(ring.drain());
            events
        })
    };

    let service = SimService::start_with_recorder(
        ServeConfig {
            max_wait: Duration::from_micros(100),
            block_words: 2,
            tier_policy: TierPolicy::Disabled,
            ..ServeConfig::default()
        },
        Arc::clone(&ring) as Arc<dyn ambipla::obs::Recorder>,
    )
    .expect("valid config");
    let initial: SharedSim = Arc::new(nominal);
    let oracle = EpochOracle::new(Arc::clone(&initial));
    let fid = service.register_sim(initial, SimKey::new(0xfad));

    let running = AtomicBool::new(true);
    // Replies the clients received, and the newest epoch among them: the
    // mutator's handshakes (see below) read them.
    let replies = AtomicU64::new(0);
    let newest_epoch = AtomicU64::new(0);
    let mut swap_log = Vec::new();
    let (client_submitted, epochs_seen) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let service = &service;
                let oracle = &oracle;
                let running = &running;
                let (replies, newest_epoch) = (&replies, &newest_epoch);
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xabad1dea ^ c);
                    let (sink, stream) = reply_channel();
                    let mut submitted = 0u64;
                    let mut epochs = BTreeSet::new();
                    while running.load(Ordering::Relaxed) {
                        // Burst-submit, then drain the burst: the input
                        // bits ride in the tag, so each reply is
                        // self-describing and order never matters.
                        for _ in 0..BURST {
                            let bits = rng.gen_range(0..8u64);
                            service.submit_tagged(fid, bits, submitted << 3 | bits, &sink);
                            submitted += 1;
                        }
                        for _ in 0..BURST {
                            let reply = stream.recv();
                            let bits = reply.tag & 0b111;
                            assert!(
                                oracle.matches(reply.epoch, bits, &reply.outputs),
                                "client {c}: reply for bits {bits:03b} does not match \
                                 the truth of epoch {} that served it",
                                reply.epoch
                            );
                            epochs.insert(reply.epoch);
                            newest_epoch.fetch_max(reply.epoch, Ordering::Relaxed);
                            replies.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    (submitted, epochs)
                })
            })
            .collect();

        // The mutator: push each generation into the oracle *before* its
        // swap lands, so a concurrent client can always resolve whatever
        // epoch its reply names. It starts once a client was answered
        // under epoch 0, and stops the clients once one was answered
        // under the final epoch, so traffic straddles every swap however
        // the threads are scheduled.
        // Relaxed loads (here and below): statistics polled in a
        // handshake; the thread joins publish everything else.
        await_clients(&running, "a client is answered", || {
            replies.load(Ordering::Relaxed) > 0
        });
        for k in 1..=swaps {
            let candidate = swap_candidate(k, &spec, &base_faulty);
            let promised = oracle.push(Arc::clone(&candidate));
            let installed = service.swap_sim(fid, candidate);
            assert_eq!(installed, promised, "oracle and service disagree on epochs");
            assert_eq!(installed, k, "epochs count completed swaps");
            swap_log.push(installed);
        }
        await_clients(
            &running,
            "a client is answered under the final epoch",
            || newest_epoch.load(Ordering::Relaxed) == swaps,
        );
        running.store(false, Ordering::Relaxed);

        let mut total = 0u64;
        let mut seen = BTreeSet::new();
        for h in handles {
            let (submitted, epochs) = h.join().expect("client thread panicked");
            total += submitted;
            seen.extend(epochs);
        }
        (total, seen)
    });

    // Traffic genuinely straddled swaps: replies were served under many
    // generations, starting at 0 (pre-first-swap) and reaching the final
    // epoch (clients keep submitting after the mutator stops).
    assert!(
        epochs_seen.len() >= 2,
        "chaos run never interleaved a swap with traffic: {epochs_seen:?}"
    );
    assert_eq!(*epochs_seen.last().expect("some epoch"), swaps);
    assert!(epochs_seen.iter().all(|&e| e <= swaps));

    // (b) the service's counters reconcile with the mutator's swap log.
    let snap = service.shutdown();
    assert_eq!(swap_log.len() as u64, swaps);
    assert_eq!(snap.swaps, swaps, "every logged swap bumped an epoch");
    assert!(snap.swap_flushes <= snap.swaps);
    assert_eq!(
        snap.requests, client_submitted,
        "every submission was counted"
    );
    assert_eq!(
        snap.lanes_filled, client_submitted,
        "zero dropped requests: every submission left through a flush"
    );

    // (c) event-log consistency. The shutdown above flushed the final
    // events, so the collector now holds the complete history.
    collector_stop.store(true, Ordering::Relaxed);
    let events = collector.join().expect("collector thread panicked");
    assert_eq!(
        ring.dropped(),
        0,
        "the drained ring never filled: no event may be lost below capacity"
    );
    assert_eq!(ring.pushed(), events.len() as u64);

    // Exactly one Register for the chaos registration.
    let registers = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Register { slot: 0 }))
        .count();
    assert_eq!(registers, 1);

    // Every swap in the mutator's log appears in the ring exactly once,
    // with the correct epoch pair.
    let mut swap_pairs: Vec<(u64, u64)> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Swap {
                slot: 0,
                from_epoch,
                to_epoch,
                ..
            } => Some((from_epoch, to_epoch)),
            _ => None,
        })
        .collect();
    // Swap events are emitted by the single batcher thread in order, so
    // the ring preserves their sequence — but sort anyway so the check
    // only relies on "exactly once", not on FIFO.
    swap_pairs.sort_unstable();
    let expected: Vec<(u64, u64)> = (1..=swaps).map(|k| (k - 1, k)).collect();
    assert_eq!(
        swap_pairs, expected,
        "each driver-logged swap k must appear exactly once as (k-1, k)"
    );

    // Flush events reconcile with the counter fold: same lane total,
    // every flush stamped with an epoch the driver actually created.
    let mut flush_lanes = 0u64;
    for e in &events {
        if let EventKind::Flush {
            slot, epoch, lanes, ..
        } = e.kind
        {
            assert_eq!(slot, 0);
            assert!(epoch <= swaps);
            flush_lanes += lanes as u64;
        }
    }
    assert_eq!(
        flush_lanes, snap.lanes_filled,
        "the event log and the counters tell the same lane story"
    );
}

/// Deterministic companion to the chaos run, counted in real
/// evaluations: a swap drains the queue through the outgoing backend,
/// after which that backend is never evaluated again, and a bystander
/// registration's backend is not evaluated by anything but its own
/// traffic. With a 10 s deadline only full blocks and the swap drain
/// flush, so every count is exact.
#[test]
fn superseded_backends_are_never_evaluated_again() {
    let spec = spec();
    let service = SimService::start(ServeConfig {
        max_wait: Duration::from_secs(10), // only full blocks and drains flush
        tier_policy: TierPolicy::Disabled,
        ..ServeConfig::default()
    })
    .expect("valid config");
    let swapped_gen0 = Counting::over(Arc::new(spec.clone()));
    let bystander_gen = Counting::over(Arc::new(spec.clone()));
    let sid = service.register_sim(Arc::clone(&swapped_gen0) as SharedSim, SimKey::new(1));
    let bid = service.register_sim(Arc::clone(&bystander_gen) as SharedSim, SimKey::new(2));

    let (sink, stream) = reply_channel();
    let fill = |id| {
        for tag in 0..64u64 {
            service.submit_tagged(id, tag % 8, tag, &sink);
        }
        for _ in 0..64 {
            let reply = stream.recv();
            assert_eq!(reply.outputs, spec.eval_bits(reply.tag % 8));
        }
    };

    // Two full blocks each: one lane word per flush.
    for _ in 0..2 {
        fill(sid);
        fill(bid);
    }
    assert_eq!(swapped_gen0.words_evaluated(), 2);
    assert_eq!(bystander_gen.words_evaluated(), 2);

    // Swap with a partial block queued: the drain is gen0's last
    // evaluation, answered under epoch 0.
    for tag in 0..10u64 {
        service.submit_tagged(sid, tag % 8, tag, &sink);
    }
    let swapped_gen1 = Counting::over(Arc::new(spec.clone()));
    assert_eq!(
        service.swap_sim(sid, Arc::clone(&swapped_gen1) as SharedSim),
        1
    );
    for _ in 0..10 {
        let reply = stream.recv();
        assert_eq!(reply.epoch, 0, "drained under the outgoing epoch");
        assert_eq!(reply.outputs, spec.eval_bits(reply.tag % 8));
    }
    assert_eq!(swapped_gen0.words_evaluated(), 3, "the drain flush");
    assert_eq!(
        bystander_gen.words_evaluated(),
        2,
        "the swap does not evaluate the bystander"
    );

    // Post-swap traffic reaches only the new backend.
    fill(sid);
    fill(sid);
    assert_eq!(swapped_gen1.words_evaluated(), 2);
    assert_eq!(
        swapped_gen0.words_evaluated(),
        3,
        "the superseded backend is never evaluated again"
    );
    assert_eq!(
        bystander_gen.words_evaluated(),
        2,
        "the bystander's count does not move with another slot's traffic"
    );
    // The bystander's own traffic still evaluates on its own backend.
    fill(bid);
    assert_eq!(bystander_gen.words_evaluated(), 3);
    assert_eq!(swapped_gen0.words_evaluated(), 3);

    let snap = service.shutdown();
    assert_eq!(snap.swaps, 1);
    assert_eq!(snap.swap_flushes, 1);
    assert_eq!(snap.lanes_filled, 7 * 64 + 10);
}

/// Tiered-evaluation chaos: a 12-input registration is materialized at
/// registration and served from its truth table while client threads
/// hammer it with unique-pattern bursts, then hot-swapped twice —
/// through a different function and a different backend type. Asserts:
///
/// * every reply bit-matches its serving epoch's oracle truth, before
///   and after both swaps,
/// * zero drops (`requests == lanes_filled`),
/// * each swap rebuilds the table before it acks: the event ring carries
///   exactly one `TierPromote` per build — registration plus one per
///   swap.
#[test]
fn materialized_swaps_under_load_stay_epoch_consistent() {
    use ambipla::benchmarks::RandomPla;
    use ambipla::serve::Tier;

    const CLIENTS: u64 = 2;
    const BURST: u64 = 32;
    const N: usize = 12;

    let gen0_cover = RandomPla::new(N, 4, 48)
        .seed(21)
        .literal_density(0.4)
        .build();
    let gen1_cover = RandomPla::new(N, 4, 48)
        .seed(22)
        .literal_density(0.4)
        .build();

    let ring = Arc::new(EventRing::with_capacity(1 << 16));
    let service = SimService::start_with_recorder(
        ServeConfig {
            max_wait: Duration::from_micros(100),
            tier_policy: TierPolicy::Forced,
            ..ServeConfig::default()
        },
        Arc::clone(&ring) as Arc<dyn ambipla::obs::Recorder>,
    )
    .expect("valid config");

    let initial: SharedSim = Arc::new(GnorPla::from_cover(&gen0_cover));
    let oracle = EpochOracle::new(Arc::clone(&initial));
    let tid = service.register_sim(initial, SimKey::new(0x71e5));
    assert_eq!(
        service.stats_for(tid).tier,
        Tier::Materialized,
        "materialized at registration"
    );

    let running = AtomicBool::new(true);
    let replies = AtomicU64::new(0);
    let client_submitted = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let service = &service;
                let oracle = &oracle;
                let running = &running;
                let replies = &replies;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0x7ab1e ^ c);
                    let (sink, stream) = reply_channel();
                    let mut submitted = 0u64;
                    while running.load(Ordering::Relaxed) {
                        for _ in 0..BURST {
                            let bits = rng.gen_range(0..1u64 << N);
                            service.submit_tagged(tid, bits, submitted << N | bits, &sink);
                            submitted += 1;
                        }
                        for _ in 0..BURST {
                            let reply = stream.recv();
                            let bits = reply.tag & ((1 << N) - 1);
                            assert!(
                                oracle.matches(reply.epoch, bits, &reply.outputs),
                                "client {c}: reply for bits {bits:012b} does not match \
                                 the truth of epoch {} that served it",
                                reply.epoch
                            );
                            replies.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    submitted
                })
            })
            .collect();

        await_clients(&running, "every client is answered under epoch 0", || {
            replies.load(Ordering::Relaxed) >= CLIENTS * BURST
        });

        // Two hot swaps under load: a different function, then a
        // different backend type (the raw cover, same function as gen1).
        // Each rebuilds the table before swap_sim acks.
        let candidates: [SharedSim; 2] = [
            Arc::new(GnorPla::from_cover(&gen1_cover)),
            Arc::new(gen1_cover.clone()),
        ];
        for (k, candidate) in candidates.into_iter().enumerate() {
            let promised = oracle.push(Arc::clone(&candidate));
            assert_eq!(service.swap_sim(tid, candidate), promised);
            assert_eq!(promised, k as u64 + 1);
        }
        running.store(false, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .sum::<u64>()
    });

    let snap = service.shutdown();
    assert_eq!(snap.swaps, 2);
    assert_eq!(snap.materialized, 1);
    assert_eq!(snap.requests, client_submitted, "every submission counted");
    assert_eq!(
        snap.lanes_filled, client_submitted,
        "zero dropped requests across both swaps"
    );

    // Exactly one table build per generation: at registration, then one
    // per swap.
    let events = ring.drain();
    assert_eq!(ring.dropped(), 0, "the ring never filled");
    let builds: Vec<(u64, u32)> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::TierPromote {
                slot: 0,
                epoch,
                inputs,
                ..
            } => Some((epoch, inputs)),
            _ => None,
        })
        .collect();
    assert_eq!(
        builds,
        vec![(0, N as u32), (1, N as u32), (2, N as u32)],
        "one TierPromote per build, stamped with its epoch"
    );
}

/// Network-mode chaos: the same mutator pressure, but through the full
/// TCP stack — wire codec, hello authentication, per-tenant admission,
/// DRR scheduling, dispatch into a **two-shard** service — with two
/// tenants on separate loopback connections and the two target
/// registrations pinned to *different* batcher shards. Asserts:
///
/// * every wire reply bit-matches the scalar truth of the epoch that
///   served it (per-registration [`EpochOracle`]s),
/// * zero drops and zero error frames: each tenant gets exactly one
///   `Reply` per request, and the service counters agree,
/// * per-tenant counters reconcile with the driver's own log
///   (accepted == submitted == replies, no quota/queue rejects),
/// * the server's event recorder saw exactly one `Accept` and one
///   `Disconnect` per tenant and no `QuotaReject`.
#[test]
fn chaos_over_tcp_two_tenants_two_shards_stays_epoch_consistent() {
    use ambipla::net::{Frame, NetClient, NetConfig, NetServer, TenantId};
    use ambipla::serve::shard_for_key;

    const TENANTS: u64 = 2;
    const BURST: u64 = 32;
    let swaps = chaos_iters();

    let spec = spec();
    let nominal = GnorPla::from_cover(&spec);
    let dims = nominal.dimensions();
    let base_faulty = FaultyGnorPla::new(
        nominal.clone(),
        DefectMap::clean(dims.products, dims.inputs, dims.outputs),
    );

    let service = Arc::new(
        SimService::start(ServeConfig {
            shards: 2,
            max_wait: Duration::from_micros(100),
            block_words: 2,
            tier_policy: TierPolicy::Disabled,
            ..ServeConfig::default()
        })
        .expect("valid config"),
    );

    // Pick one key per shard so the chaos provably spans both batcher
    // threads.
    let key_a = (0..64u64)
        .map(SimKey::new)
        .find(|&k| shard_for_key(k, 2) == 0)
        .expect("a key hashing to shard 0");
    let key_b = (0..64u64)
        .map(SimKey::new)
        .find(|&k| shard_for_key(k, 2) == 1)
        .expect("a key hashing to shard 1");

    // The server's recorder only sees connection-lifecycle events here
    // (the service itself runs unrecorded), so the ring stays tiny.
    let ring = Arc::new(EventRing::with_capacity(1024));
    let server = NetServer::bind_with_recorder(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetConfig::default(),
        Arc::clone(&ring) as Arc<dyn ambipla::obs::Recorder>,
    )
    .expect("bind loopback");

    let initial_a: SharedSim = Arc::new(nominal.clone());
    let initial_b: SharedSim = Arc::new(nominal.clone());
    let oracle_a = EpochOracle::new(Arc::clone(&initial_a));
    let oracle_b = EpochOracle::new(Arc::clone(&initial_b));
    let id_a = server.register_sim(initial_a, key_a);
    let id_b = server.register_sim(initial_b, key_b);
    assert_ne!(
        service.shard_of(id_a),
        service.shard_of(id_b),
        "the two chaos registrations must live on different shards"
    );

    let addr = server.local_addr();
    let running = AtomicBool::new(true);
    // Per tenant: replies received, and the newest epoch among them.
    let replies: [AtomicU64; TENANTS as usize] = Default::default();
    let newest_epoch: [AtomicU64; TENANTS as usize] = Default::default();
    let mut swap_log: Vec<(u64, u64)> = Vec::new(); // (registration index, epoch)
    let per_tenant_submitted = std::thread::scope(|s| {
        let handles: Vec<_> = (0..TENANTS)
            .map(|t| {
                let oracle_a = &oracle_a;
                let oracle_b = &oracle_b;
                let running = &running;
                let replies = &replies[t as usize];
                let newest_epoch = &newest_epoch[t as usize];
                s.spawn(move || {
                    let mut client =
                        NetClient::connect(addr, TenantId::new(t)).expect("connect tenant");
                    let mut rng = StdRng::seed_from_u64(0x7cb ^ t);
                    let mut submitted = 0u64;
                    let mut epochs = BTreeSet::new();
                    while running.load(Ordering::Relaxed) {
                        // Pipeline a burst across BOTH registrations, then
                        // drain it. The request id encodes (serial, bits,
                        // sim), so out-of-order replies self-describe.
                        for _ in 0..BURST {
                            let bits = rng.gen_range(0..8u64);
                            let sim_idx = submitted & 1;
                            let key = if sim_idx == 0 { key_a } else { key_b };
                            client.queue_request(key, submitted << 4 | bits << 1 | sim_idx, bits);
                            submitted += 1;
                        }
                        client.flush().expect("flush burst");
                        for _ in 0..BURST {
                            match client.recv().expect("recv reply") {
                                Frame::Reply {
                                    req_id,
                                    epoch,
                                    outputs,
                                } => {
                                    let bits = req_id >> 1 & 0b111;
                                    let oracle = if req_id & 1 == 0 { oracle_a } else { oracle_b };
                                    assert!(
                                        oracle.matches(epoch, bits, &outputs),
                                        "tenant {t}: wire reply for bits {bits:03b} does \
                                         not match the truth of epoch {epoch}"
                                    );
                                    epochs.insert(epoch);
                                    newest_epoch.fetch_max(epoch, Ordering::Relaxed);
                                    replies.fetch_add(1, Ordering::Relaxed);
                                }
                                other => panic!("tenant {t}: unexpected frame {other:?}"),
                            }
                        }
                    }
                    assert!(
                        epochs.len() >= 2,
                        "tenant {t} never saw a swap straddle its traffic"
                    );
                    submitted
                })
            })
            .collect();

        // The mutator alternates between the two registrations, pushing
        // each generation into its oracle before the swap lands. Every
        // tenant is answered under epoch 0 before the first swap and
        // under a later epoch before the tenants stop, so each sees a
        // swap straddle its traffic however the threads are scheduled.
        // Relaxed loads: statistics polled in a handshake.
        await_clients(&running, "every tenant is answered", || {
            replies.iter().all(|r| r.load(Ordering::Relaxed) > 0)
        });
        for k in 1..=swaps {
            let candidate = swap_candidate(k, &spec, &base_faulty);
            let (idx, id, oracle) = if k % 2 == 0 {
                (0, id_a, &oracle_a)
            } else {
                (1, id_b, &oracle_b)
            };
            let promised = oracle.push(Arc::clone(&candidate));
            let installed = service.swap_sim(id, candidate);
            assert_eq!(installed, promised, "oracle and service disagree on epochs");
            swap_log.push((idx, installed));
        }
        await_clients(&running, "every tenant is answered after a swap", || {
            newest_epoch.iter().all(|e| e.load(Ordering::Relaxed) > 0)
        });
        running.store(false, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread panicked"))
            .collect::<Vec<u64>>()
    });

    // Per-tenant counters reconcile exactly with the driver's log: every
    // submission was admitted, dispatched and answered — zero drops, no
    // quota or backpressure rejects, no malformed requests.
    let stats = server.tenant_stats();
    assert_eq!(stats.len() as u64, TENANTS);
    for (t, snap) in stats.iter().enumerate() {
        let submitted = per_tenant_submitted[t];
        assert_eq!(snap.id, TenantId::new(t as u64));
        assert_eq!(snap.accepted, submitted, "tenant {t}: admissions");
        assert_eq!(snap.replies, submitted, "tenant {t}: zero drops");
        assert_eq!(snap.quota_rejected, 0);
        assert_eq!(snap.queue_full, 0);
        assert_eq!(snap.unknown_sim + snap.bad_arity, 0);
    }
    server.shutdown();

    // Connection lifecycle in the event log: one Accept and one
    // Disconnect per tenant, and never a QuotaReject.
    let events = ring.drain();
    assert_eq!(ring.dropped(), 0);
    for t in 0..TENANTS {
        let accepts = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Accept { tenant, .. } if tenant == t))
            .count();
        let disconnects = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Disconnect { tenant, .. } if tenant == t))
            .count();
        assert_eq!((accepts, disconnects), (1, 1), "tenant {t} lifecycle");
    }
    assert!(!events
        .iter()
        .any(|e| matches!(e.kind, EventKind::QuotaReject { .. })));

    // Service-side reconciliation across both shards.
    let total: u64 = per_tenant_submitted.iter().sum();
    let snap = Arc::try_unwrap(service)
        .unwrap_or_else(|_| panic!("all service handles released"))
        .shutdown();
    assert_eq!(snap.swaps, swaps, "every driver-logged swap landed");
    assert_eq!(swap_log.len() as u64, swaps);
    assert_eq!(snap.requests, total, "every wire request reached a shard");
    assert_eq!(snap.lanes_filled, total, "zero dropped requests");
}

/// One step of the proptest chaos driver: submit a request or hot-swap
/// the backend.
#[derive(Debug, Clone)]
enum ChaosOp {
    Submit { bits: u64 },
    Swap { seed: u64 },
}

fn arb_chaos_op() -> impl Strategy<Value = ChaosOp> {
    prop_oneof![
        4 => (0..8u64).prop_map(|bits| ChaosOp::Submit { bits }),
        1 => any::<u64>().prop_map(|seed| ChaosOp::Swap { seed }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Satellite (1): deterministic single-threaded chaos. For arbitrary
    /// submit/swap interleavings (defect draws seeded through the rand
    /// shim, so every failure replays exactly), every reply must match
    /// the truth of the epoch that served it, requests after the final
    /// swap must be served by the final epoch, and nothing is dropped.
    #[test]
    fn arbitrary_submit_swap_interleavings_stay_epoch_consistent(
        ops in proptest::collection::vec(arb_chaos_op(), 1..120),
    ) {
        let spec = spec();
        let nominal = GnorPla::from_cover(&spec);
        let dims = nominal.dimensions();
        let base_faulty = FaultyGnorPla::new(
            nominal.clone(),
            DefectMap::clean(dims.products, dims.inputs, dims.outputs),
        );
        // A huge deadline makes flush points deterministic: full blocks,
        // swap drains and the shutdown drain — nothing else.
        let service = SimService::start(ServeConfig {
            max_wait: Duration::from_secs(10),
            tier_policy: TierPolicy::Disabled,
            ..ServeConfig::default()
        })
    .expect("valid config");
        let initial: SharedSim = Arc::new(nominal);
        let oracle = EpochOracle::new(Arc::clone(&initial));
        let fid = service.register_sim(initial, SimKey::new(0xfad));

        let mut pending = Vec::new();
        let mut n_swaps = 0u64;
        let mut last_swap_at = 0usize;
        for (i, op) in ops.iter().enumerate() {
            match *op {
                ChaosOp::Submit { bits } => {
                    pending.push((i, bits, service.submit(fid, bits)));
                }
                ChaosOp::Swap { seed } => {
                    let candidate = swap_candidate(seed, &spec, &base_faulty);
                    let promised = oracle.push(Arc::clone(&candidate));
                    prop_assert_eq!(service.swap_sim(fid, candidate), promised);
                    n_swaps += 1;
                    last_swap_at = i;
                    prop_assert_eq!(promised, n_swaps);
                }
            }
        }
        let submitted = pending.len() as u64;
        // Shut down *first*: the drain answers every still-queued ticket
        // immediately instead of making them sit out the 10 s deadline.
        let snap = service.shutdown();
        for (i, bits, ticket) in pending {
            let reply = ticket.wait_reply();
            prop_assert!(
                oracle.matches(reply.epoch, bits, &reply.outputs),
                "op {}: reply for bits {:03b} does not match epoch {}",
                i, bits, reply.epoch
            );
            prop_assert!(reply.epoch <= n_swaps);
            if i > last_swap_at {
                // Deterministically: nothing flushes a post-final-swap
                // request except a full block or the shutdown drain, both
                // under the final epoch.
                prop_assert_eq!(reply.epoch, n_swaps);
            }
        }
        prop_assert_eq!(snap.swaps, n_swaps);
        prop_assert_eq!(snap.requests, submitted);
        prop_assert_eq!(snap.lanes_filled, submitted, "zero drops");
        prop_assert!(snap.swap_flushes <= snap.swaps);
    }
}
