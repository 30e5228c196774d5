//! # ambipla_serve — the request-batching simulation service
//!
//! The core's [`Simulator`] trait made one *call* evaluate up to
//! `words × 64` input vectors on any backend; this crate makes one
//! *service* do it for many independent callers. It is the
//! serve-at-scale front end of the workspace: requests arrive one vector
//! at a time, and leave in multi-word lane blocks of up to
//! `ServeConfig::block_words × 64` requests — whatever the backend
//! behind each queue is.
//!
//! ```text
//!  clients        ┌──────────────────── SimService ─────────────────────┐
//!  submit(bits) ──┤  per-sim queues                 evaluation          │
//!  submit(bits) ──┼─▶ [Cover      ██████░░]       one eval_words call   │
//!  submit(bits) ──┤   [GnorPla    ██░░░░░░] ────▶ per flushed block on  │
//!  try_submit ────┼─▶ [FaultyPla  ████████]       &dyn Simulator        │
//!   └─ QueueFull ◀┤    flush on block_words       (reused buffers)      │
//!  replies  ◀─────┴──── × 64 lanes ── scatter lanes back over channels ─┘
//! ```
//!
//! * [`batcher`] — the [`SimService`]: per-simulator lane-packing queues
//!   over `Arc<dyn Simulator>` backends ([`SimService::register_sim`],
//!   with [`SimService::register`] as the `Cover` convenience), sharded
//!   across `ServeConfig::shards` batcher threads (each registration
//!   pinned by [`shard_for_key`] of its [`SimKey`], so the whole
//!   per-registration contract is shard-local), full-block / deadline
//!   flushes of up to `block_words × 64` lanes
//!   through one `eval_words` call on reused buffers, scatter to each
//!   request's [`ReplySink`] (a channel, or any [`ReplyTarget`]),
//!   bounded-queue backpressure
//!   ([`SimService::try_submit`] / [`QueueFull`]), typed configuration
//!   validation ([`ConfigError`]), **epoch-versioned
//!   hot swaps** ([`SimService::swap_sim`]: drain, install, bump — see
//!   the [`batcher`] module docs for the full contract), and **tiered
//!   evaluation** ([`TierPolicy`]): small backends are materialized at
//!   registration into packed
//!   [`TruthTable`](ambipla_core::TruthTable)s and each request is
//!   answered on arrival by O(1) indexed load (the
//!   [`Tier::Materialized`] tier), bit-identically to
//!   the batched path and with the table rebuilt on every swap,
//! * [`stats`] — per-registration, per-epoch metrics on lock-free atomic
//!   counters ([`RegStats`] / [`RegSnapshot`], served by
//!   [`SimService::stats_for`]), with the aggregate [`StatsSnapshot`]
//!   defined as the fold over registrations
//!   ([`StatsSnapshot::fold`]),
//! * [`export`] — snapshot → [`ambipla_obs`] metric families
//!   ([`metric_families`]), renderable as Prometheus text or JSON;
//!   structured events (flush / swap / queue-full / registration) flow to
//!   any [`ambipla_obs::Recorder`] installed via
//!   [`SimService::start_with_recorder`],
//! * [`sweep`] — offline bulk evaluation of `&dyn Simulator` jobs sharded
//!   across the deterministic [`WorkerPool`] (`logic::par::Pool`,
//!   re-exported through `ambipla_core`; the same pool shards
//!   `fault::yield_analysis` Monte-Carlo trials).
//!
//! ## Quickstart
//!
//! ```
//! use ambipla_serve::{ServeConfig, SimService};
//! use logic::Cover;
//!
//! let service = SimService::with_defaults();
//! let xor = Cover::parse("10 1\n01 1", 2, 1).unwrap();
//! let id = service.register(xor);
//! assert_eq!(service.submit(id, 0b01).wait(), vec![true]);
//! assert_eq!(service.submit(id, 0b11).wait(), vec![false]);
//! let stats = service.shutdown();
//! assert_eq!(stats.requests, 2);
//! ```
//!
//! Heterogeneous backends ride the same batcher — register a synthesized
//! PLA (or its faulty twin) under its own [`SimKey`]:
//!
//! ```
//! use ambipla_core::{GnorPla, Simulator};
//! use ambipla_serve::{SimKey, SimService};
//! use logic::Cover;
//! use std::sync::Arc;
//!
//! let service = SimService::with_defaults();
//! let xor = Cover::parse("10 1\n01 1", 2, 1).unwrap();
//! let pla = GnorPla::from_cover(&xor);
//! let id = service.register_sim(Arc::new(pla), SimKey::of_cover(&xor));
//! assert_eq!(service.submit(id, 0b10).wait(), vec![true]);
//! ```
//!
//! ## Hot swaps
//!
//! A registration's backend can be replaced mid-traffic without dropping
//! a request or mixing generations in a block: [`SimService::swap_sim`]
//! drains the queue through the outgoing backend, installs the new one
//! and bumps the registration's *epoch* — every [`SimReply`] names the
//! epoch that served it, so a verifier can check each answer against the
//! right generation:
//!
//! ```
//! use ambipla_serve::{SimKey, SimService};
//! use logic::Cover;
//! use std::sync::Arc;
//!
//! let service = SimService::with_defaults();
//! let xor = Cover::parse("10 1\n01 1", 2, 1).unwrap();
//! let nor = Cover::parse("00 1", 2, 1).unwrap();
//! let id = service.register_sim(Arc::new(xor), SimKey::new(1));
//! assert_eq!(service.epoch(id), 0);
//! assert_eq!(service.swap_sim(id, Arc::new(nor)), 1);
//! let reply = service.submit(id, 0b00).wait_reply();
//! assert_eq!((reply.epoch, reply.outputs), (1, vec![true]));
//! ```

// Production code returns typed errors instead of unwrapping; test code
// may unwrap freely. `ambipla-analyze` enforces the stronger
// panic-freedom rule on the hot/untrusted paths; this lint is the
// compile-time backstop for the rest of the crate.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod batcher;
pub mod export;
pub mod stats;
pub mod sweep;

/// Lanes per block (re-exported from `logic::eval`).
pub use logic::eval::LANES;

pub use ambipla_core::{cover_hash, Simulator, WorkerPool};
pub use batcher::{
    reply_channel, shard_for_key, ConfigError, QueueFull, ReplySink, ReplyStream, ReplyTarget,
    ServeConfig, SharedSim, SimId, SimKey, SimReply, SimService, SimTicket, TierPolicy,
};
pub use export::metric_families;
pub use stats::{
    AtomicHistogram, EpochSnapshot, EpochStats, FlushCause, HistogramSnapshot, RegSnapshot,
    RegStats, ServiceStats, StatsSnapshot, Tier,
};
pub use sweep::eval_sims_blocked;
