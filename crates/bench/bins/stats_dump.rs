//! Exporter smoke driver — the CI `stats-dump` step.
//!
//! Drives a multi-registration, multi-swap workload through a
//! [`SimService`] with an [`EventRing`] recorder installed, then renders
//! the service's metric families through **both** exporters. Run:
//!
//! ```text
//! cargo run --release -p bench --bin stats_dump -- prometheus
//! cargo run --release -p bench --bin stats_dump -- json
//! cargo run --release -p bench --bin stats_dump            # both, with headers
//! ```
//!
//! With a format argument the selected exposition is the *only* stdout
//! output, so CI can pipe it straight into a validator. The workload
//! guarantees the properties the smoke step greps for: at least three
//! registrations, at least one registration with three epochs (two hot
//! swaps), a rejected submission (queue-full), one
//! registration driven past the default auto-tiering threshold (so the
//! `ambipla_tier` family carries both a `tier="batched"` and a
//! `tier="materialized"` sample), and — via
//! a loopback [`NetServer`] workload — tenant-labeled front-end
//! families with a non-zero quota rejection. The scrape concatenates
//! `SimService::metric_families` (10 families) with
//! `NetServer::metric_families` (7 tenant-labeled families).

use ambipla_core::GnorPla;
use ambipla_net::{Frame, NetClient, NetConfig, NetServer, QuotaConfig, TenantId};
use ambipla_obs::{json_text, prometheus_text, EventKind, EventRing};
use ambipla_serve::{reply_channel, ServeConfig, SimKey, SimService, Tier};
use std::sync::Arc;
use std::time::Duration;

fn workload(service: &SimService) {
    let xor = logic::Cover::parse("10 1\n01 1", 2, 1).expect("valid cover");
    let adder = logic::Cover::parse(
        "110 01\n101 01\n011 01\n111 01\n100 10\n010 10\n001 10\n111 10",
        3,
        2,
    )
    .expect("valid cover");
    let majority = logic::Cover::parse("11- 1\n1-1 1\n-11 1", 3, 1).expect("valid cover");

    let a = service.register(xor.clone());
    let b = service.register(adder.clone());
    let c = service.register_sim(Arc::new(GnorPla::from_cover(&majority)), SimKey::new(99));

    // Traffic over all three registrations.
    for round in 0..4u64 {
        let tickets: Vec<_> = (0..64u64)
            .flat_map(|i| {
                [
                    service.submit(a, i % 4),
                    service.submit(b, (i + round) % 8),
                    service.submit(c, i % 8),
                ]
            })
            .collect();
        for t in tickets {
            t.wait();
        }
    }

    // Two hot swaps on the adder registration — its series then span
    // epochs 0, 1 and 2 in the same scrape.
    service.swap_sim(b, Arc::new(GnorPla::from_cover(&adder)));
    for i in 0..32u64 {
        service.submit(b, i % 8).wait();
    }
    service.swap_sim(b, Arc::new(adder.clone()));
    for i in 0..32u64 {
        service.submit(b, i % 8).wait();
    }

    // Drive the bounded queue to rejection so queue_full is non-zero.
    let mut tickets = Vec::new();
    let mut rejected = 0usize;
    for i in 0..100_000u64 {
        match service.try_submit(a, i % 4) {
            Ok(t) => tickets.push(t),
            Err(_) => {
                rejected += 1;
                break;
            }
        }
    }
    for t in tickets {
        t.wait();
    }
    assert!(rejected > 0, "workload must exercise backpressure");

    // Drive a fourth registration past the *default* auto-tiering
    // threshold (tier_min_requests lanes served, eval spend ≥ 2^3), so
    // the scrape shows a `tier="materialized"` series next to the three
    // batched ones and the event ring records the promotion.
    let majority2 = logic::Cover::parse("11- 1\n1-1 1\n-11 1", 3, 1).expect("valid cover");
    let d = service.register_sim(Arc::new(majority2.clone()), SimKey::new(100));
    let (sink, stream) = reply_channel();
    let floor = ServeConfig::default().tier_min_requests + 64;
    for i in 0..floor {
        service.submit_tagged(d, i % 8, i, &sink);
    }
    for _ in 0..floor {
        let reply = stream.recv();
        assert_eq!(reply.outputs, majority2.eval_bits(reply.tag % 8));
    }
    assert_eq!(
        service.stats_for(d).tier,
        Tier::Materialized,
        "the hot small registration must have been promoted"
    );
}

/// Loopback TCP traffic so the seven `ambipla_net_*` families carry
/// tenant-labeled samples: tenant 1 streams verified requests, tenant 9
/// runs into a zero-refill quota so `quota_rejects_total` is non-zero.
fn net_workload(server: &NetServer) {
    let xor = logic::Cover::parse("10 1\n01 1", 2, 1).expect("valid cover");
    let key = SimKey::new(7);
    server.register_sim(Arc::new(xor.clone()), key);
    let addr = server.local_addr();

    let mut client = NetClient::connect(addr, TenantId::new(1)).expect("connect tenant 1");
    for i in 0..64u64 {
        let bits = i % 4;
        match client.call(key, i, bits).expect("round trip") {
            Frame::Reply { outputs, .. } => assert_eq!(outputs, xor.eval_bits(bits)),
            other => panic!("unexpected frame {other:?}"),
        }
    }

    server.set_quota(
        TenantId::new(9),
        QuotaConfig {
            rate_per_sec: 0,
            burst: 4,
        },
    );
    let mut client = NetClient::connect(addr, TenantId::new(9)).expect("connect tenant 9");
    let mut rejected = 0usize;
    for i in 0..8u64 {
        match client.call(key, i, i % 4).expect("round trip") {
            Frame::Reply { .. } => {}
            Frame::Error { code, .. } => {
                assert_eq!(code.to_string(), "quota_exceeded");
                rejected += 1;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(rejected, 4, "zero-refill quota must reject past its burst");
}

fn main() {
    let format = std::env::args().nth(1);
    let ring = Arc::new(EventRing::with_capacity(1 << 14));
    let config = ServeConfig {
        max_wait: Duration::from_micros(200),
        queue_depth: 256,
        ..ServeConfig::default()
    };
    let service =
        Arc::new(SimService::start_with_recorder(config, ring.clone()).expect("valid config"));
    workload(&service);

    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&service), NetConfig::default())
        .expect("bind loopback");
    net_workload(&server);

    let mut families = service.metric_families();
    families.extend(server.metric_families());
    match format.as_deref() {
        Some("prometheus") => print!("{}", prometheus_text(&families)),
        Some("json") => println!("{}", json_text(&families)),
        Some(other) => {
            eprintln!("unknown format {other:?}: expected `prometheus` or `json`");
            std::process::exit(2);
        }
        None => {
            println!("# ---- prometheus ----");
            print!("{}", prometheus_text(&families));
            println!("# ---- json ----");
            println!("{}", json_text(&families));
            let events = ring.drain();
            let swaps = events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Swap { .. }))
                .count();
            let promotions = events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::TierPromote { .. }))
                .count();
            println!(
                "# ---- events: {} recorded ({} dropped), {} swaps, {} tier promotions ----",
                events.len(),
                ring.dropped(),
                swaps,
                promotions
            );
        }
    }
    server.shutdown();
    Arc::try_unwrap(service)
        .unwrap_or_else(|_| panic!("all service handles released"))
        .shutdown();
}
