//! The lane-packing request batcher.
//!
//! A [`SimService`] owns `ServeConfig::shards` batcher threads (one by
//! default); each registration is pinned at
//! [`register_sim`](SimService::register_sim) time to the shard
//! [`shard_for_key`] derives from its [`SimKey`], so every queue,
//! flush, swap and epoch of a registration is owned by a single thread
//! and the whole per-registration contract below is independent of the
//! shard count. Clients register **any
//! [`Simulator`](ambipla_core::sim::Simulator) backend** — plain covers,
//! GNOR/classical/Whirlpool PLAs,
//! faulty arrays, FPGA mappings — and submit single-vector simulation
//! requests; the batcher queues requests **per registered simulator**,
//! packs them into multi-word lane blocks of up to
//! `ServeConfig::block_words × 64` lanes, and flushes a block when either
//!
//! * all `block_words × 64` lanes fill (`FlushCause::Full`) — one
//!   `eval_words` call now serves the whole block, or
//! * the oldest queued request has waited `max_wait`
//!   (`FlushCause::Deadline`) — a partial block is packed (unused lanes
//!   zero-filled, results masked per [`logic::eval::lane_mask`]'s
//!   contract) so tail latency stays bounded under light traffic.
//!
//! The packing, evaluation and scatter buffers live on the registration
//! and are **reused across flushes** — the flush path performs no
//! per-block `Vec` allocation beyond the reply payloads themselves.
//!
//! A flush is pack → **one** `eval_words` call over the whole block →
//! scatter. Results are scattered back to each request's [`ReplySink`]:
//! a per-request ticket channel, a shared reply channel, or any
//! [`ReplyTarget`] a front end supplies (the network server delivers
//! straight into a connection's outbox).
//! Backpressure is opt-in per submission: [`SimService::try_submit`]
//! refuses with [`QueueFull`] once a simulator's pending queue reaches
//! `ServeConfig::queue_depth`, while the plain `submit` paths stay
//! unbounded for trusted in-process callers. Dropping the service (or
//! calling [`shutdown`](SimService::shutdown)) drains every queue before
//! the thread exits, so no submitted request is ever lost.
//!
//! # Hot swaps: the epoch contract
//!
//! [`SimService::swap_sim`] replaces a registration's backend
//! **mid-traffic**. Each registration carries an **epoch** — 0 at
//! registration, incremented by every swap — and the service guarantees:
//!
//! * **Every reply is consistent with exactly one epoch.** A flush
//!   evaluates one backend; the swap *drains* the target's queued
//!   requests through the outgoing backend ([`FlushCause::Swap`]) before
//!   installing the new one, so no flushed block ever mixes generations,
//!   and [`SimReply::epoch`] names the generation that produced it.
//!   Requests already accepted when the swap lands are answered by the
//!   *old* backend; requests submitted after
//!   [`swap_sim`](SimService::swap_sim) returns are
//!   answered by the *new* one (in between, whichever epoch their flush
//!   falls under — "some single epoch", never a mixture).
//! * **Zero dropped requests.** A swap never sheds queued work; the drain
//!   flush answers every ticket exactly as a deadline flush would.
//! * **The superseded backend is never evaluated again.** Only the
//!   installed backend is ever evaluated, and a swap touches no other
//!   registration.
//! * **Arity is fixed per registration.** The replacement backend must
//!   match the registered `n_inputs`/`n_outputs` (checked before the swap
//!   is sent), so in-flight requests remain well-formed across the bump.
//!
//! `swap_sim` blocks until the batcher has performed the drain + install
//! and returns the new epoch; [`SimService::epoch`] reads a
//! registration's current epoch at any time, and
//! [`stats`](SimService::stats) reports `swaps` / `swap_flushes`
//! counters that reconcile with a driver's swap log.
//!
//! # Tiered evaluation: materialized truth tables
//!
//! A registration whose backend is small enough serves faster from a
//! [`TruthTable`] than from any batched evaluation: one exhaustive sweep
//! materializes all `2^n` answers into packed words, and every later
//! request is answered **on arrival** by indexed load — no wait for
//! `max_wait`, no packing, no backend call. Each registration is served
//! by one **tier** ([`Tier::Batched`] or [`Tier::Materialized`]), chosen
//! by [`ServeConfig::tier_policy`]:
//!
//! * [`TierPolicy::Forced`] (default) materializes every eligible
//!   registration at registration and again before every swap ack;
//! * [`TierPolicy::Disabled`] never materializes.
//!
//! A backend is eligible when it has at most 12 inputs and its
//! [`table_bytes`] price is at most 1 MiB (a 12-input table of up to
//! 2048 outputs); a wider or larger backend always stays batched. The
//! price of eligibility is one exhaustive sweep at registration and
//! another before every [`swap_sim`](SimService::swap_sim) returns:
//! 2.9 µs for a 9-input, 1-output, 46-product GNOR PLA, ~5 ms for a
//! 12-input, 16-output, 2048-product one (2-vCPU host), and more with
//! more outputs. `Disabled` is the choice for wide, cold or
//! often-swapped backends that would pay that sweep more often than
//! their table answers requests.
//!
//! The tier preserves every contract above. A table answer is accounted
//! as a full one-lane block that waited 0 ns (one [`EventKind::Flush`]
//! with `lanes: 1, words: 0`), and it leaves the pending gauge before its
//! reply is delivered, so lane occupancy and the flush-event lane total
//! mean what they mean for batched blocks. A materialized registration
//! never holds a queue: the table is built while the queue is empty (at
//! registration, before any request; at a swap, after the drain), so each
//! request is answered under the epoch current when it arrives. A hot
//! swap **replaces the stale table with one built under the new epoch**
//! before `swap_sim` returns, so a materialized registration is
//! bit-identical to a batched one across its whole epoch history. The
//! tier is settled by the time `register_sim` returns and never changes;
//! it is visible as [`RegSnapshot::tier`] / the `ambipla_tier` metric
//! family, and each table build is announced via
//! [`EventKind::TierPromote`].

use crate::stats::{
    EpochStats, FlushCause, RegSnapshot, RegStats, ServiceStats, StatsSnapshot, Tier,
};
use ambipla_core::{cover_hash, table_bytes, TruthTable};
use ambipla_obs::{Event, EventKind, MetricFamily, Recorder};
use logic::eval::{pack_vectors_words, unpack_lane_words, LANES};
use logic::Cover;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A shareable simulation backend: what [`SimService::register_sim`] and
/// [`SimService::swap_sim`] accept. The service's batcher thread
/// evaluates through the trait object, so any `Simulator` that is
/// `Send + Sync` can be served. (Re-exported alias of
/// [`ambipla_core::sim::SharedSimulator`].)
pub type SharedSim = ambipla_core::sim::SharedSimulator;

/// Tuning knobs of a [`SimService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Longest a queued request may wait before its partial block is
    /// flushed anyway.
    pub max_wait: Duration,
    /// Inert: accepted and ignored. The service keeps no result cache;
    /// the field stays so existing configurations still compile.
    /// Default 0.
    pub cache_capacity: usize,
    /// Pending-request bound per registered simulator enforced by
    /// [`SimService::try_submit`] /
    /// [`SimService::try_submit_tagged`] (the unbounded `submit` /
    /// `submit_tagged` paths ignore it, but their requests still occupy
    /// the queue `try_submit` measures).
    pub queue_depth: usize,
    /// Lane words per flushed block: a full flush packs
    /// `block_words × 64` queued requests into **one** backend
    /// `eval_words` call. Default 1 (the classic 64-lane block).
    pub block_words: usize,
    /// Number of batcher threads. Each registration is pinned to the
    /// shard [`shard_for_key`] derives from its [`SimKey`] at
    /// [`SimService::register_sim`] time, so one shard owns a
    /// registration's whole lifetime — its queue, flushes, swaps and
    /// epoch sequence — and the single-shard ordering/epoch contract
    /// holds per registration unchanged. Default 1 (the classic single
    /// batcher thread).
    pub shards: usize,
    /// Whether eligible registrations are served from materialized
    /// truth tables — see the [module docs](self) on tiered evaluation.
    /// Default [`TierPolicy::Forced`].
    pub tier_policy: TierPolicy,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_wait: Duration::from_micros(200),
            cache_capacity: 0,
            queue_depth: 256,
            block_words: 1,
            shards: 1,
            tier_policy: TierPolicy::Forced,
        }
    }
}

/// Widest backend (in inputs) the tier materializes: a 4096-assignment
/// sweep.
const TIER_MAX_INPUTS: usize = 12;

/// Memory guard: a backend whose [`table_bytes`] price exceeds this is
/// never materialized. 1 MiB is a 12-input table of up to 2048 outputs.
const TIER_MAX_TABLE_BYTES: u128 = 1 << 20;

/// Whether [`SimService`] serves eligible registrations from
/// materialized truth tables (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TierPolicy {
    /// Never materialize; every registration serves batched.
    Disabled,
    /// Materialize every eligible registration at registration and
    /// before every swap ack, so the table answers from the first
    /// request. Ineligible backends (too wide, over the memory budget)
    /// serve batched. The default.
    #[default]
    Forced,
}

impl ServeConfig {
    /// Check the configuration for degenerate values —
    /// [`SimService::start`] refuses them with the matching
    /// [`ConfigError`] instead of panicking mid-flight or misbehaving
    /// silently (a `queue_depth` of 0 would make every `try_submit`
    /// rejection-only; `block_words` / `shards` of 0 have no meaningful
    /// interpretation).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.queue_depth == 0 {
            return Err(ConfigError::ZeroQueueDepth);
        }
        if self.block_words == 0 {
            return Err(ConfigError::ZeroBlockWords);
        }
        if self.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        Ok(())
    }
}

/// A degenerate [`ServeConfig`] value, refused by [`SimService::start`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `queue_depth == 0`: every bounded submission would be rejected.
    ZeroQueueDepth,
    /// `block_words == 0`: blocks would have no lane capacity.
    ZeroBlockWords,
    /// `shards == 0`: there would be no batcher thread to serve requests.
    ZeroShards,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroQueueDepth => write!(f, "queue_depth must be at least 1"),
            ConfigError::ZeroBlockWords => write!(f, "block_words must be at least 1"),
            ConfigError::ZeroShards => write!(f, "shards must be at least 1"),
        }
    }
}

impl Error for ConfigError {}

/// Caller-supplied stable identity of a registered simulator. It has two
/// jobs:
///
/// * **routing** — a network front end names registrations on the wire
///   by key (`NetServer::expose` in `ambipla_net` maps each exposed key
///   to its [`SimId`]), so two registrations exposed on one server need
///   distinct keys;
/// * **placement** — [`shard_for_key`] pins a registration to a batcher
///   shard by its key, so a caller-stable key gives a stable shard.
///
/// The key is not an identity of the *function*: a hot swap
/// ([`SimService::swap_sim`]) replaces the backend behind a registration
/// and keeps its key (and therefore its shard); the registration's epoch
/// names the backend generation.
///
/// [`SimKey::of_cover`] derives a key from a cover's stable structural
/// hash ([`ambipla_core::cover_hash`]); for derived backends, mix the
/// underlying cover's key with a stable encoding of whatever was changed
/// (defect coordinates, mapping parameters, …) via
/// [`ambipla_core::hash::fnv1a`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimKey(u64);

impl SimKey {
    /// Wrap a caller-chosen 64-bit key.
    pub const fn new(raw: u64) -> SimKey {
        SimKey(raw)
    }

    /// The canonical key of a plain cover backend: its stable structural
    /// hash ([`ambipla_core::cover_hash`]).
    pub fn of_cover(cover: &Cover) -> SimKey {
        SimKey(cover_hash(cover))
    }

    /// The raw 64-bit key.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

/// The shard a [`SimKey`] is assigned to on a service with `shards`
/// batcher threads: an FNV-1a hash of the key's raw bits, reduced modulo
/// the shard count. Deterministic and stable for a given `(key, shards)`
/// pair, so tests and benches can place registrations on chosen shards.
pub fn shard_for_key(key: SimKey, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    (ambipla_core::hash::fnv1a(ambipla_core::hash::FNV_OFFSET, &key.raw().to_le_bytes())
        % shards as u64) as usize
}

/// Handle to a simulator registered with a [`SimService`]. Stamped with
/// the issuing service's identity, so submitting it to a *different*
/// service panics instead of silently simulating that service's
/// same-numbered backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimId {
    slot: usize,
    service: u64,
}

impl SimId {
    /// The registration's slot index — the `sim` label in exported
    /// metric families and the `slot` carried by recorder events
    /// ([`RegSnapshot::slot`] uses the same numbering).
    pub fn slot_index(self) -> u32 {
        self.slot as u32
    }
}

/// Rejection returned by [`SimService::try_submit`]: the target
/// simulator already has `queue_depth` requests pending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// The configured per-simulator bound that was hit.
    pub depth: usize,
}

impl fmt::Display for QueueFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulator queue full ({} requests pending)", self.depth)
    }
}

impl Error for QueueFull {}

/// One response: the caller's tag, the epoch that served it, and the
/// simulated output vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReply {
    /// Echo of the tag passed to [`SimService::submit_tagged`] (0 for
    /// [`SimService::submit`]).
    pub tag: u64,
    /// The registration epoch whose backend evaluated this request — the
    /// generation a verifier must check `outputs` against. See the
    /// [module docs](self) on the epoch contract.
    pub epoch: u64,
    /// One bool per simulator output.
    pub outputs: Vec<bool>,
}

/// Where a batcher thread hands one [`SimReply`]. Implemented for the
/// channel [`Sender`] behind [`reply_channel`] and tickets; a front end
/// implements it to receive replies without a channel hop (the network
/// server delivers into a connection's outbox).
///
/// `deliver` runs on the batcher thread, between flushes: it must not
/// block for long.
pub trait ReplyTarget: Send + Sync {
    /// Take one reply. A target that can no longer use it (a dropped
    /// receiver, a closed connection) drops it silently.
    fn deliver(&self, reply: SimReply);
}

impl ReplyTarget for Sender<SimReply> {
    fn deliver(&self, reply: SimReply) {
        // A client may have dropped its receiver; that is not an error.
        let _ = self.send(reply);
    }
}

/// Where a request's reply goes: the sending half of a shared reply
/// channel, or any [`ReplyTarget`] (clonable; one per client).
#[derive(Clone)]
pub struct ReplySink(Arc<dyn ReplyTarget>);

impl ReplySink {
    /// A sink delivering every reply to `target`.
    pub fn new(target: Arc<dyn ReplyTarget>) -> ReplySink {
        ReplySink(target)
    }
}

impl fmt::Debug for ReplySink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplySink").finish_non_exhaustive()
    }
}

/// Receiving half of a shared reply channel.
#[derive(Debug)]
pub struct ReplyStream(Receiver<SimReply>);

impl ReplyStream {
    /// Block until the next reply arrives.
    ///
    /// # Panics
    ///
    /// Panics if every [`ReplySink`] half (including those held by
    /// in-flight requests) is gone — replies can no longer arrive.
    pub fn recv(&self) -> SimReply {
        self.0.recv().expect("all reply sinks dropped")
    }

    /// Non-blocking poll for a reply.
    pub fn try_recv(&self) -> Option<SimReply> {
        self.0.try_recv().ok()
    }
}

/// A shared reply channel: submit many requests against one `ReplySink`
/// clone and drain their [`SimReply`]s (tag-matched) from the stream —
/// one channel allocation per client instead of one per request.
pub fn reply_channel() -> (ReplySink, ReplyStream) {
    let (tx, rx) = channel();
    (ReplySink(Arc::new(tx)), ReplyStream(rx))
}

/// Pending response handle of a single [`SimService::submit`] call.
#[derive(Debug)]
pub struct SimTicket(Receiver<SimReply>);

impl SimTicket {
    /// Block until the result arrives (at most `max_wait` plus one block
    /// evaluation after submission).
    ///
    /// # Panics
    ///
    /// Panics if the service thread died before answering.
    pub fn wait(self) -> Vec<bool> {
        self.wait_reply().outputs
    }

    /// Like [`wait`](SimTicket::wait), but returns the full [`SimReply`]
    /// — epoch-aware callers (hot-swap verifiers) need to know which
    /// generation answered.
    ///
    /// # Panics
    ///
    /// Panics if the service thread died before answering.
    pub fn wait_reply(self) -> SimReply {
        self.0.recv().expect("simulation service dropped")
    }
}

/// Handle-side state of one registration slot, shared with the batcher.
struct SlotState {
    /// The batcher shard this registration is pinned to
    /// ([`shard_for_key`] of its [`SimKey`]); every message for the slot
    /// goes down that shard's channel.
    shard: usize,
    /// Requests submitted but not yet flushed — incremented by every
    /// submission (bounded or not), decremented by the batcher as lanes
    /// flush; what `try_submit`'s backpressure check reads (and what
    /// [`RegSnapshot::queue_depth`] gauges).
    pending: AtomicUsize,
    /// The slot's current epoch: written by the batcher at registration
    /// (0) and on every completed swap, read by [`SimService::epoch`].
    epoch: AtomicU64,
    /// Registered input arity — fixed for the slot's lifetime; swap
    /// candidates must match.
    n_inputs: usize,
    /// Registered output arity — fixed for the slot's lifetime.
    n_outputs: usize,
    /// This registration's per-epoch metrics, shared between the handle
    /// (request / backpressure counters, snapshots) and the batcher
    /// (flush counters).
    stats: Arc<RegStats>,
}

enum Msg {
    Register {
        // Slot assigned by the handle's atomic counter. Carried in the
        // message because concurrent register() calls can reach the
        // channel in a different order than their fetch_adds.
        id: usize,
        sim: SharedSim,
        // Shared with the handle (see SimService::slots).
        slot: Arc<SlotState>,
    },
    Submit {
        id: usize,
        bits: u64,
        tag: u64,
        reply: ReplySink,
    },
    Swap {
        id: usize,
        sim: SharedSim,
        // Acked with the new epoch once the drain + install completed.
        ack: Sender<u64>,
    },
    Shutdown,
}

/// One batcher shard: its message channel and worker thread.
struct ShardHandle {
    tx: Sender<Msg>,
    worker: Option<JoinHandle<()>>,
}

/// The request-batching simulation service.
///
/// See the [module docs](self) for the batching protocol. All methods
/// take `&self`; the handle is `Sync` and can be shared across client
/// threads. With `ServeConfig::shards > 1`, N batcher threads each own
/// the disjoint set of registrations [`shard_for_key`] assigns them —
/// all per-registration guarantees (FIFO batching, the epoch contract,
/// stats) are unchanged, because a registration lives wholly on one
/// shard.
pub struct SimService {
    /// The batcher shards, in shard-index order (at least one).
    shards: Vec<ShardHandle>,
    stats: Arc<ServiceStats>,
    /// Per-slot shared state (owning shard, pending counter, epoch,
    /// fixed arity), indexed by `SimId::slot`.
    slots: RwLock<Vec<Arc<SlotState>>>,
    queue_depth: usize,
    tier_policy: TierPolicy,
    /// Event sink shared with the batcher threads. `None` (the default)
    /// keeps every record site a single branch — see
    /// [`Recorder`]'s disabled-path contract.
    recorder: Option<Arc<dyn Recorder>>,
    /// Process-unique identity stamped into every issued [`SimId`].
    nonce: u64,
}

/// Source of per-service nonces (see [`SimId`]).
static NEXT_SERVICE: AtomicU64 = AtomicU64::new(0);

impl SimService {
    /// Start a service with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns the matching [`ConfigError`] for degenerate
    /// configurations (see [`ServeConfig::validate`]) instead of starting
    /// a service that would panic or misbehave later.
    pub fn start(config: ServeConfig) -> Result<SimService, ConfigError> {
        SimService::start_inner(config, None)
    }

    /// Start a service with an event sink installed: the batcher emits a
    /// structured [`Event`] for every registration, flush, completed
    /// swap and backpressure rejection. With [`start`](SimService::start)
    /// (no recorder) those record sites cost one branch each — the
    /// disabled-path contract `serve_bench` holds the service to.
    ///
    /// # Errors
    ///
    /// Returns the matching [`ConfigError`] for degenerate
    /// configurations (see [`ServeConfig::validate`]).
    pub fn start_with_recorder(
        config: ServeConfig,
        recorder: Arc<dyn Recorder>,
    ) -> Result<SimService, ConfigError> {
        SimService::start_inner(config, Some(recorder))
    }

    fn start_inner(
        config: ServeConfig,
        recorder: Option<Arc<dyn Recorder>>,
    ) -> Result<SimService, ConfigError> {
        config.validate()?;
        let stats = Arc::new(ServiceStats::default());
        let shards = (0..config.shards)
            .map(|s| {
                let (tx, rx) = channel();
                let recorder = recorder.clone();
                let worker = std::thread::Builder::new()
                    .name(format!("ambipla-batcher-{s}"))
                    .spawn(move || batcher_loop(rx, config, recorder))
                    .expect("spawn batcher thread");
                ShardHandle {
                    tx,
                    worker: Some(worker),
                }
            })
            .collect();
        Ok(SimService {
            shards,
            stats,
            slots: RwLock::new(Vec::new()),
            queue_depth: config.queue_depth,
            tier_policy: config.tier_policy,
            recorder,
            nonce: NEXT_SERVICE.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// Start with [`ServeConfig::default`] (always a valid
    /// configuration, so this stays infallible).
    pub fn with_defaults() -> SimService {
        SimService::start(ServeConfig::default()).expect("default config is valid")
    }

    /// Register a simulation backend under a caller-supplied [`SimKey`];
    /// requests are queued and lane-packed per registration.
    ///
    /// The key picks the batcher shard ([`shard_for_key`]) and is how a
    /// front end names the registration — see [`SimKey`]. Distinct
    /// backend *types* coexist freely: a cover, the `GnorPla` mapped from
    /// it and its `FaultyGnorPla` twin can all be registered on one
    /// service and are batched and scattered independently.
    ///
    /// # Panics
    ///
    /// Panics if the backend has more than 64 inputs (packed-assignment
    /// requests are `u64`s).
    pub fn register_sim(&self, sim: SharedSim, key: SimKey) -> SimId {
        let (n_inputs, n_outputs) = (sim.n_inputs(), sim.n_outputs());
        assert!(n_inputs <= 64, "at most 64 inputs per simulator");
        // Short-circuit order matters: table_bytes asserts n_inputs < 64,
        // which the width test guarantees.
        let materialize = self.tier_policy == TierPolicy::Forced
            && n_inputs <= TIER_MAX_INPUTS
            && table_bytes(n_inputs, n_outputs) <= TIER_MAX_TABLE_BYTES;
        let shard = shard_for_key(key, self.shards.len());
        // The stats registry is appended under the slot lock so its slot
        // numbering always matches the id numbering.
        let (id, slot) = {
            // Poison recovery: a panic under this lock cannot leave the
            // slot table half-updated (pushes are single appends).
            let mut slots = self
                .slots
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            // analyze: allow(lock_order, reason = "name-keyed call graph merges ServiceStats::register (regs lock) with unrelated register fns; only regs is taken here, and regs never takes slots")
            let stats = self.stats.register();
            // Settled before the id is handed out; the batcher builds the
            // table when it handles the Register message.
            if materialize {
                stats.mark_materialized();
            }
            let slot = Arc::new(SlotState {
                shard,
                pending: AtomicUsize::new(0),
                epoch: AtomicU64::new(0),
                n_inputs,
                n_outputs,
                stats,
            });
            slots.push(Arc::clone(&slot));
            (slots.len() - 1, slot)
        };
        self.shards[shard]
            .tx
            .send(Msg::Register { id, sim, slot })
            .expect("batcher thread alive");
        SimId {
            slot: id,
            service: self.nonce,
        }
    }

    /// Hot-swap the backend behind a registration: atomically (from any
    /// observer's point of view) drain the slot's queued requests through
    /// the outgoing backend, install `sim`, and bump the slot's epoch.
    /// Blocks until the batcher has completed the drain + install and
    /// returns the **new epoch**; after return, every later submission is
    /// served by `sim`. See the [module docs](self) for the full epoch
    /// contract (zero dropped requests, no torn blocks, the superseded
    /// backend never evaluated again).
    ///
    /// The registration's [`SimKey`] is deliberately kept, and with it
    /// the shard: the epoch, not the key, names the backend generation,
    /// so the key can stay caller-stable across the backend's whole
    /// lifetime (re-minimized covers, mutated defect maps, repairs).
    ///
    /// # Panics
    ///
    /// Panics if `sim`'s input/output arity differs from the registered
    /// backend's, or if `id` was issued by a different service.
    pub fn swap_sim(&self, id: SimId, sim: SharedSim) -> u64 {
        let slot = self.slot(id);
        assert_eq!(
            sim.n_inputs(),
            slot.n_inputs,
            "swap candidate input arity differs from the registration"
        );
        assert_eq!(
            sim.n_outputs(),
            slot.n_outputs,
            "swap candidate output arity differs from the registration"
        );
        let (ack, done) = channel();
        self.shards[slot.shard]
            .tx
            .send(Msg::Swap {
                id: id.slot,
                sim,
                ack,
            })
            .expect("batcher thread alive");
        done.recv().expect("batcher thread alive")
    }

    /// The batcher shard a registration is pinned to — `shard_for_key`
    /// of its [`SimKey`] at registration time. Stable for the
    /// registration's lifetime (swaps keep the key, so they keep the
    /// shard).
    ///
    /// # Panics
    ///
    /// Panics if `sim` was issued by a different service.
    pub fn shard_of(&self, sim: SimId) -> usize {
        self.slot(sim).shard
    }

    /// Number of batcher shards (`ServeConfig::shards`).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Input/output arity of a registration: `(n_inputs, n_outputs)`,
    /// fixed at [`register_sim`](SimService::register_sim) time.
    ///
    /// # Panics
    ///
    /// Panics if `sim` was issued by a different service.
    pub fn arity(&self, sim: SimId) -> (usize, usize) {
        let slot = self.slot(sim);
        (slot.n_inputs, slot.n_outputs)
    }

    /// The current epoch of a registration: 0 until the first
    /// [`swap_sim`](SimService::swap_sim), then the number of completed
    /// swaps.
    pub fn epoch(&self, sim: SimId) -> u64 {
        self.slot(sim).epoch.load(Ordering::Acquire)
    }

    /// Register a plain cover backend — the compatibility wrapper around
    /// [`register_sim`](SimService::register_sim) with the cover's
    /// canonical key ([`SimKey::of_cover`]).
    ///
    /// # Panics
    ///
    /// Panics if the cover has more than 64 inputs.
    pub fn register(&self, cover: Cover) -> SimId {
        let key = SimKey::of_cover(&cover);
        self.register_sim(Arc::new(cover), key)
    }

    /// Submit one packed input assignment; returns a ticket to wait on.
    /// Unbounded: trusted in-process callers may queue past
    /// `queue_depth` (use [`try_submit`](SimService::try_submit) for
    /// backpressure).
    pub fn submit(&self, sim: SimId, bits: u64) -> SimTicket {
        let (tx, rx) = channel();
        let slot = self.slot(sim);
        slot.pending.fetch_add(1, Ordering::Relaxed);
        self.submit_raw(&slot, sim, bits, 0, ReplySink(Arc::new(tx)));
        SimTicket(rx)
    }

    /// Bounded submission: like [`submit`](SimService::submit), but
    /// refuses with [`QueueFull`] — and bumps the `queue_full` counter in
    /// [`stats`](SimService::stats) — once the target simulator already
    /// has `ServeConfig::queue_depth` requests pending (queued in the
    /// batcher or in flight on the channel). The caller decides whether
    /// to retry, shed load or spill to a bulk sweep.
    pub fn try_submit(&self, sim: SimId, bits: u64) -> Result<SimTicket, QueueFull> {
        let slot = self.slot(sim);
        let depth = self.queue_depth;
        if slot
            .pending
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |p| {
                (p < depth).then_some(p + 1)
            })
            .is_err()
        {
            slot.stats.record_queue_full();
            if let Some(r) = &self.recorder {
                r.record(Event::now(EventKind::QueueFull {
                    slot: sim.slot as u32,
                }));
            }
            return Err(QueueFull { depth });
        }
        let (tx, rx) = channel();
        self.submit_raw(&slot, sim, bits, 0, ReplySink(Arc::new(tx)));
        Ok(SimTicket(rx))
    }

    /// Submit against a shared reply channel with a caller-chosen tag —
    /// the high-throughput path for clients with many requests in flight.
    /// Unbounded, like [`submit`](SimService::submit).
    pub fn submit_tagged(&self, sim: SimId, bits: u64, tag: u64, reply: &ReplySink) {
        let slot = self.slot(sim);
        slot.pending.fetch_add(1, Ordering::Relaxed);
        self.submit_raw(&slot, sim, bits, tag, reply.clone());
    }

    /// Bounded tagged submission: [`SimService::submit_tagged`] with
    /// the backpressure of [`SimService::try_submit`] — refused with
    /// [`QueueFull`] once the target simulator has `queue_depth` requests
    /// pending. The network front end's dispatch path: many requests in
    /// flight over one shared [`ReplySink`], none allowed to queue
    /// without bound.
    pub fn try_submit_tagged(
        &self,
        sim: SimId,
        bits: u64,
        tag: u64,
        reply: &ReplySink,
    ) -> Result<(), QueueFull> {
        let slot = self.slot(sim);
        let depth = self.queue_depth;
        if slot
            .pending
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |p| {
                (p < depth).then_some(p + 1)
            })
            .is_err()
        {
            slot.stats.record_queue_full();
            if let Some(r) = &self.recorder {
                r.record(Event::now(EventKind::QueueFull {
                    slot: sim.slot as u32,
                }));
            }
            return Err(QueueFull { depth });
        }
        self.submit_raw(&slot, sim, bits, tag, reply.clone());
        Ok(())
    }

    /// The shared slot state of `sim`, validating the id en route.
    fn slot(&self, sim: SimId) -> Arc<SlotState> {
        assert!(
            sim.service == self.nonce,
            "sim id was issued by a different service"
        );
        // Poison recovery: registration appends are atomic under the
        // write lock, so a poisoned table is still well-formed.
        let slots = self
            .slots
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Arc::clone(slots.get(sim.slot).expect("unregistered sim id"))
    }

    fn submit_raw(&self, slot: &SlotState, sim: SimId, bits: u64, tag: u64, reply: ReplySink) {
        slot.stats.record_request();
        self.shards[slot.shard]
            .tx
            .send(Msg::Submit {
                id: sim.slot,
                bits,
                tag,
                reply,
            })
            .expect("batcher thread alive");
    }

    /// Current aggregate metrics: the fold over every registration's
    /// per-epoch counters (see [`StatsSnapshot::fold`]). One snapshot
    /// path — the per-registration data *is* the source of the aggregate.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot::fold(&self.stats_per_registration())
    }

    /// Per-registration metrics of one backend, keyed by `(SimId, epoch)`:
    /// lifetime request / backpressure counters, the live queue-depth
    /// gauge, and one [`EpochSnapshot`](crate::stats::EpochSnapshot) per
    /// epoch the registration has served (flush causes, lane occupancy,
    /// flush-latency histogram).
    ///
    /// # Panics
    ///
    /// Panics if `sim` was issued by a different service.
    pub fn stats_for(&self, sim: SimId) -> RegSnapshot {
        let slot = self.slot(sim);
        slot.stats
            .snapshot(slot.pending.load(Ordering::Relaxed) as u64)
    }

    /// Every registration's [`RegSnapshot`], slot order, with live
    /// queue-depth gauges.
    pub fn stats_per_registration(&self) -> Vec<RegSnapshot> {
        // Poison recovery: snapshots only read, and the table is
        // well-formed even after a panicking writer (single appends).
        let slots = self
            .slots
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        slots
            .iter()
            .map(|s| s.stats.snapshot(s.pending.load(Ordering::Relaxed) as u64))
            .collect()
    }

    /// The service's metrics as exporter-ready families: per-registration
    /// `(sim, epoch)` series plus the aggregate, renderable with
    /// [`ambipla_obs::prometheus_text`] or [`ambipla_obs::json_text`].
    pub fn metric_families(&self) -> Vec<MetricFamily> {
        crate::export::metric_families(&self.stats_per_registration(), &self.stats())
    }

    /// Drain every pending queue, stop the batcher thread and return the
    /// final metrics.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        // Signal every shard before joining any, so the drains overlap.
        for shard in &self.shards {
            if shard.worker.is_some() {
                let _ = shard.tx.send(Msg::Shutdown);
            }
        }
        for shard in &mut self.shards {
            if let Some(worker) = shard.worker.take() {
                worker.join().expect("batcher thread panicked");
            }
        }
    }
}

impl Drop for SimService {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One registered backend on the batcher side.
///
/// The pack / evaluate buffers are owned here and reused across flushes —
/// after the first full-width flush the flush path allocates nothing but
/// the reply payloads.
struct Registered {
    sim: SharedSim,
    /// Cached `sim.n_inputs()` (the packer needs it on every flush).
    n_inputs: usize,
    /// Cached `sim.n_outputs()` (sizes the output buffer).
    n_outputs: usize,
    /// Lane words per full block (`ServeConfig::block_words`).
    block_words: usize,
    /// The materialized tier: built at registration when the backend is
    /// eligible and rebuilt on every swap, `None` for a batched
    /// registration. Only ever set while the queue is empty; while
    /// present, every request is answered from it on arrival
    /// ([`answer_from_table`](Registered::answer_from_table)), so the
    /// queue stays empty.
    table: Option<TruthTable>,
    /// State shared with the handle: the pending counter this side
    /// decrements on flush, and the epoch this side publishes on swap.
    slot: Arc<SlotState>,
    /// The serving generation: 0 at registration, +1 per completed swap.
    /// Stamped into every reply.
    epoch: u64,
    /// The live epoch's stats — cached so the flush hot path records
    /// straight into atomics without touching the registry lock; replaced
    /// by `RegStats::begin_epoch` on every swap.
    epoch_stats: Arc<EpochStats>,
    vectors: Vec<u64>,
    replies: Vec<(u64, ReplySink)>,
    opened: Option<Instant>,
    /// Packed input block, `n_inputs × words`, signal-major.
    packed: Vec<u64>,
    /// Output block, `n_outputs × words`, signal-major.
    out: Vec<u64>,
}

impl Registered {
    fn new(sim: SharedSim, config: &ServeConfig, slot: Arc<SlotState>) -> Registered {
        let n_inputs = sim.n_inputs();
        let n_outputs = sim.n_outputs();
        let epoch_stats = slot.stats.current_epoch();
        Registered {
            sim,
            n_inputs,
            n_outputs,
            block_words: config.block_words,
            table: None,
            slot,
            epoch: 0,
            epoch_stats,
            vectors: Vec::with_capacity(config.block_words * LANES),
            replies: Vec::with_capacity(config.block_words * LANES),
            opened: None,
            packed: Vec::new(),
            out: Vec::new(),
        }
    }

    /// Materialize the current backend into a [`TruthTable`], replacing
    /// any table of an earlier epoch — at registration and after every
    /// swap's drain. The sweep cost is measured for real and carried by
    /// the [`EventKind::TierPromote`] event.
    fn materialize(&mut self, recorder: &Option<Arc<dyn Recorder>>) {
        let started = Instant::now();
        let table = TruthTable::from_simulator(self.sim.as_ref());
        let build_ns = started.elapsed().as_nanos() as u64;
        if let Some(rec) = recorder {
            rec.record(Event::now(EventKind::TierPromote {
                slot: self.slot.stats.slot(),
                epoch: self.epoch,
                inputs: self.n_inputs as u32,
                build_ns,
            }));
        }
        self.table = Some(table);
    }

    /// Account one block before any of its replies is delivered. A reply
    /// is the caller's signal that its request fully left the service, so
    /// by the time one arrives the block must already be visible in the
    /// stats and the pending count (a drain-then-try_submit or
    /// drain-then-stats sequence must not race these updates). The
    /// event's `words` is the lane words evaluated, `capacity / 64`.
    fn account(
        &self,
        cause: FlushCause,
        lanes: usize,
        capacity: usize,
        latency_ns: u64,
        recorder: &Option<Arc<dyn Recorder>>,
    ) {
        self.epoch_stats
            .record_flush(cause, lanes, capacity, latency_ns);
        self.slot.pending.fetch_sub(lanes, Ordering::Relaxed);
        if let Some(rec) = recorder {
            rec.record(Event::now(EventKind::Flush {
                slot: self.slot.stats.slot(),
                epoch: self.epoch,
                cause,
                lanes: lanes as u32,
                words: (capacity / LANES) as u32,
                latency_ns,
            }));
        }
    }

    /// Answer one request from the materialized table as it arrives: no
    /// packing, no backend call. It is accounted as a
    /// full one-lane block that waited 0 ns. Returns `false`, answering
    /// nothing, while the registration is batched.
    fn answer_from_table(
        &self,
        bits: u64,
        tag: u64,
        reply: &ReplySink,
        recorder: &Option<Arc<dyn Recorder>>,
    ) -> bool {
        let Some(table) = &self.table else {
            return false;
        };
        self.account(FlushCause::Full, 1, 1, 0, recorder);
        reply.0.deliver(SimReply {
            tag,
            epoch: self.epoch,
            outputs: table.lookup_bits(bits),
        });
        true
    }

    fn flush(&mut self, cause: FlushCause, recorder: &Option<Arc<dyn Recorder>>) {
        if self.vectors.is_empty() {
            return;
        }
        let lanes = self.vectors.len();
        // A partial (deadline / shutdown) flush only pays for the lane
        // words it actually needs.
        let words = lanes.div_ceil(LANES);
        let latency_ns = self
            .opened
            .map(|t| t.elapsed().as_nanos() as u64)
            .unwrap_or(0);
        self.packed.clear();
        self.packed.resize(self.n_inputs * words, 0);
        pack_vectors_words(&self.vectors, self.n_inputs, words, &mut self.packed);
        self.out.clear();
        self.out.resize(self.n_outputs * words, 0);
        self.sim.eval_words(&self.packed, &mut self.out, words);
        self.account(cause, lanes, words * LANES, latency_ns, recorder);
        // Scatter lane results. Only the `lanes` valid lanes are ever
        // unpacked, which is what makes partial (deadline) blocks safe —
        // see `logic::eval::lane_mask`.
        for (lane, (tag, reply)) in self.replies.drain(..).enumerate() {
            reply.0.deliver(SimReply {
                tag,
                epoch: self.epoch,
                outputs: unpack_lane_words(&self.out, lane, words),
            });
        }
        self.vectors.clear();
        self.opened = None;
    }
}

fn batcher_loop(rx: Receiver<Msg>, config: ServeConfig, recorder: Option<Arc<dyn Recorder>>) {
    let max_wait = config.max_wait;
    // Slot-addressed by SimId: concurrent register() calls may deliver
    // their Register messages out of id order, so slots can fill in any
    // order (None = id allocated but message not yet here).
    let mut registry: Vec<Option<Registered>> = Vec::new();
    // Cached min of all open queues' `opened` times, so the per-message
    // cost stays O(1) in the number of registered backends. Opening a
    // queue can only lower the min (updated inline); flushing can only
    // remove it, which marks the cache stale and triggers one lazy rescan.
    let mut oldest_open: Option<Instant> = None;
    let mut oldest_stale = false;
    loop {
        if oldest_stale {
            oldest_open = registry.iter().flatten().filter_map(|r| r.opened).min();
            oldest_stale = false;
        }
        // The next deadline is the oldest open queue's first-enqueue time
        // plus max_wait; with nothing queued, just block on the channel.
        let deadline = oldest_open.map(|oldest| oldest + max_wait);
        let msg = match deadline {
            None => match rx.recv() {
                Ok(msg) => msg,
                Err(_) => break, // handle dropped without Shutdown
            },
            Some(deadline) => {
                let now = Instant::now();
                if now >= deadline {
                    for r in registry.iter_mut().flatten() {
                        if r.opened.is_some_and(|t| t + max_wait <= now) {
                            r.flush(FlushCause::Deadline, &recorder);
                        }
                    }
                    oldest_stale = true;
                    continue;
                }
                match rx.recv_timeout(deadline - now) {
                    Ok(msg) => msg,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        };
        match msg {
            Msg::Register { id, sim, slot } => {
                if id >= registry.len() {
                    registry.resize_with(id + 1, || None);
                }
                let mut r = Registered::new(sim, &config, slot);
                if let Some(rec) = &recorder {
                    rec.record(Event::now(EventKind::Register { slot: id as u32 }));
                }
                // register_sim settled the tier. The table is ready before
                // the first request (register_sim has already returned the
                // id, but every Submit for it lands behind this message),
                // so the queue is still empty.
                if r.slot.stats.tier() == Tier::Materialized {
                    r.materialize(&recorder);
                }
                registry[id] = Some(r);
            }
            Msg::Submit {
                id,
                bits,
                tag,
                reply,
            } => {
                // A submit can only be sent with a SimId returned by a
                // register call, whose Register message precedes it on
                // this channel (same thread: FIFO; cross-thread: the id
                // handoff orders the sends).
                let r = registry
                    .get_mut(id)
                    .and_then(Option::as_mut)
                    // analyze: allow(panic_freedom, reason = "channel FIFO guarantees Register precedes Submit for a handed-out SimId; reachable only via memory corruption")
                    .expect("submit for a backend whose registration never arrived");
                if r.answer_from_table(bits, tag, &reply, &recorder) {
                    continue;
                }
                if r.vectors.is_empty() {
                    let now = Instant::now();
                    r.opened = Some(now);
                    if oldest_open.is_none_or(|oldest| now < oldest) {
                        oldest_open = Some(now);
                    }
                }
                r.vectors.push(bits);
                r.replies.push((tag, reply));
                if r.vectors.len() == r.block_words * LANES {
                    let was_oldest = r.opened == oldest_open;
                    r.flush(FlushCause::Full, &recorder);
                    if was_oldest {
                        oldest_stale = true;
                    }
                }
            }
            Msg::Swap { id, sim, ack } => {
                // Same ordering argument as Submit: the SimId handoff puts
                // the Register message ahead of the Swap on this channel.
                let r = registry
                    .get_mut(id)
                    .and_then(Option::as_mut)
                    // analyze: allow(panic_freedom, reason = "channel FIFO guarantees Register precedes Swap for a handed-out SimId; reachable only via memory corruption")
                    .expect("swap for a backend whose registration never arrived");
                // Drain the outgoing generation: everything queued before
                // the swap message is already ahead of it on the channel,
                // so this flush answers every such request under the old
                // epoch — zero drops, no torn blocks.
                let had_open = r.opened.is_some();
                let drained_lanes = r.vectors.len();
                r.flush(FlushCause::Swap, &recorder);
                r.sim = sim;
                r.epoch += 1;
                r.epoch_stats = r.slot.stats.begin_epoch();
                debug_assert_eq!(r.epoch_stats.epoch(), r.epoch);
                r.slot.epoch.store(r.epoch, Ordering::Release);
                if let Some(rec) = &recorder {
                    rec.record(Event::now(EventKind::Swap {
                        slot: id as u32,
                        from_epoch: r.epoch - 1,
                        to_epoch: r.epoch,
                        drained_lanes: drained_lanes as u32,
                    }));
                }
                // Replace the outgoing backend's stale table with one built
                // under the new epoch before acking (the drain above left
                // the queue empty); no message is handled in between.
                if r.table.is_some() {
                    r.materialize(&recorder);
                }
                if had_open {
                    oldest_stale = true;
                }
                // The swapper may have given up waiting; not an error.
                let _ = ack.send(r.epoch);
            }
            Msg::Shutdown => break,
        }
    }
    for r in registry.iter_mut().flatten() {
        r.flush(FlushCause::Shutdown, &recorder);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ambipla_core::{GnorPla, Simulator};
    use fault::{DefectKind, DefectMap, FaultyGnorPla};

    fn adder() -> Cover {
        Cover::parse(
            "110 01\n101 01\n011 01\n111 01\n100 10\n010 10\n001 10\n111 10",
            3,
            2,
        )
        .expect("valid cover")
    }

    /// The adder's faulty twin: one stuck-on crosspoint in the input
    /// plane, which visibly corrupts the function.
    fn faulty_adder() -> FaultyGnorPla {
        let pla = GnorPla::from_cover(&adder());
        let d = pla.dimensions();
        let mut defects = DefectMap::clean(d.products, d.inputs, d.outputs);
        defects.set_input_defect(0, 0, DefectKind::StuckOn);
        FaultyGnorPla::new(pla, defects)
    }

    /// A batched service with a short deadline: these small test covers
    /// would otherwise be served from tables.
    fn quick() -> ServeConfig {
        ServeConfig {
            max_wait: Duration::from_millis(1),
            tier_policy: TierPolicy::Disabled,
            ..ServeConfig::default()
        }
    }

    /// A batched service whose deadline never fires within a test: only
    /// full blocks, swaps and shutdown flush.
    fn no_deadline() -> ServeConfig {
        ServeConfig {
            max_wait: Duration::from_secs(10),
            tier_policy: TierPolicy::Disabled,
            ..ServeConfig::default()
        }
    }

    /// Config for driving `Registered::flush` directly at a chosen block
    /// width.
    fn words_config(block_words: usize) -> ServeConfig {
        ServeConfig {
            block_words,
            tier_policy: TierPolicy::Disabled,
            ..ServeConfig::default()
        }
    }

    /// A standalone slot for driving `Registered::flush` directly.
    fn test_slot(pending: usize, n_inputs: usize, n_outputs: usize) -> Arc<SlotState> {
        Arc::new(SlotState {
            shard: 0,
            pending: AtomicUsize::new(pending),
            epoch: AtomicU64::new(0),
            n_inputs,
            n_outputs,
            stats: Arc::new(RegStats::new(0)),
        })
    }

    #[test]
    fn single_request_matches_direct_eval() {
        let service = SimService::start(quick()).expect("valid config");
        let cover = adder();
        let id = service.register(cover.clone());
        for bits in 0..8u64 {
            assert_eq!(service.submit(id, bits).wait(), cover.eval_bits(bits));
        }
    }

    #[test]
    fn heterogeneous_backends_share_one_service() {
        // A nominal PLA and its faulty twin served side by side, plus the
        // raw specification cover — three backend types, one batcher.
        let service = SimService::start(quick()).expect("valid config");
        let cover = adder();
        let nominal = GnorPla::from_cover(&cover);
        let faulty = faulty_adder();

        let cid = service.register(cover.clone());
        let nid = service.register_sim(
            Arc::new(nominal.clone()),
            SimKey::new(SimKey::of_cover(&cover).raw() ^ 0x1),
        );
        let fid = service.register_sim(
            Arc::new(faulty.clone()),
            SimKey::new(SimKey::of_cover(&cover).raw() ^ 0x2),
        );

        // The fault must actually distinguish the twins somewhere.
        assert!((0..8u64).any(|b| faulty.simulate_bits(b) != nominal.simulate_bits(b)));

        let tickets: Vec<_> = (0..24u64)
            .map(|i| {
                let bits = i % 8;
                (
                    bits,
                    service.submit(cid, bits),
                    service.submit(nid, bits),
                    service.submit(fid, bits),
                )
            })
            .collect();
        for (bits, ct, nt, ft) in tickets {
            assert_eq!(ct.wait(), cover.eval_bits(bits), "cover bits {bits:03b}");
            assert_eq!(
                nt.wait(),
                nominal.simulate_bits(bits),
                "nominal bits {bits:03b}"
            );
            assert_eq!(
                ft.wait(),
                faulty.simulate_bits(bits),
                "faulty bits {bits:03b}"
            );
        }
    }

    #[test]
    fn try_submit_rejects_once_the_queue_is_full() {
        let service = SimService::start(ServeConfig {
            // Nothing flushes until shutdown: the queue can only grow.
            queue_depth: 4,
            ..no_deadline()
        })
        .expect("valid config");
        let cover = adder();
        let id = service.register(cover.clone());
        let tickets: Vec<_> = (0..4u64)
            .map(|bits| (bits, service.try_submit(id, bits).expect("below depth")))
            .collect();
        assert_eq!(
            service.try_submit(id, 0).unwrap_err(),
            QueueFull { depth: 4 }
        );
        assert_eq!(
            service.try_submit(id, 1).unwrap_err(),
            QueueFull { depth: 4 }
        );
        // The unbounded path is not subject to the bound.
        let overflow = service.submit(id, 5);
        let snap = service.stats();
        assert_eq!(snap.queue_full, 2);
        assert_eq!(snap.requests, 5, "rejected submissions are not requests");
        // Draining still answers everything that was accepted.
        let snap = service.shutdown();
        assert_eq!(snap.queue_full, 2);
        for (bits, ticket) in tickets {
            assert_eq!(ticket.wait(), cover.eval_bits(bits));
        }
        assert_eq!(overflow.wait(), cover.eval_bits(5));
    }

    #[test]
    fn flushes_free_queue_capacity() {
        let service = SimService::start(ServeConfig {
            queue_depth: 2,
            ..quick()
        })
        .expect("valid config");
        let cover = adder();
        let id = service.register(cover.clone());
        for round in 0..5u64 {
            let a = service.try_submit(id, round % 8).expect("capacity freed");
            let b = service
                .try_submit(id, (round + 1) % 8)
                .expect("second slot free");
            // Once a ticket resolves, its lane has left the pending count
            // (the flush decrements before scattering).
            assert_eq!(a.wait(), cover.eval_bits(round % 8), "round {round}");
            assert_eq!(b.wait(), cover.eval_bits((round + 1) % 8));
        }
        assert_eq!(service.shutdown().queue_full, 0);
    }

    #[test]
    fn queues_are_bounded_per_simulator() {
        let service = SimService::start(ServeConfig {
            queue_depth: 2,
            ..no_deadline()
        })
        .expect("valid config");
        let a = service.register(adder());
        let b = service.register_sim(Arc::new(faulty_adder()), SimKey::new(7));
        let _a1 = service.try_submit(a, 0).expect("a has capacity");
        let _a2 = service.try_submit(a, 1).expect("a has capacity");
        assert!(service.try_submit(a, 2).is_err(), "a is full");
        // b's queue is independent.
        let _b1 = service.try_submit(b, 0).expect("b has its own bound");
    }

    #[test]
    fn full_block_flushes_without_waiting_for_the_deadline() {
        // A generous deadline: if the 64th request did not trigger the
        // flush, this test would sit for 10 s and time out.
        let service = SimService::start(no_deadline()).expect("valid config");
        let cover = adder();
        let id = service.register(cover.clone());
        let (sink, stream) = reply_channel();
        for tag in 0..64u64 {
            service.submit_tagged(id, tag % 8, tag, &sink);
        }
        for _ in 0..64 {
            let reply = stream.recv();
            assert_eq!(reply.outputs, cover.eval_bits(reply.tag % 8));
        }
        let snap = service.stats();
        assert_eq!(snap.requests, 64);
        assert_eq!(snap.full_flushes, 1);
        assert_eq!(snap.deadline_flushes, 0);
        assert_eq!(snap.lanes_filled, 64);
        assert!((snap.lane_occupancy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_block_flushes_at_the_deadline() {
        let service = SimService::start(quick()).expect("valid config");
        let cover = adder();
        let id = service.register(cover.clone());
        let tickets: Vec<_> = (0..5u64)
            .map(|bits| (bits, service.submit(id, bits)))
            .collect();
        for (bits, ticket) in tickets {
            assert_eq!(ticket.wait(), cover.eval_bits(bits), "bits {bits:03b}");
        }
        let snap = service.stats();
        assert_eq!(snap.requests, 5);
        // ≥ 1, not == 1: a preempted submitter can split the five requests
        // over several deadline windows on a loaded machine.
        assert!(snap.deadline_flushes >= 1);
        assert_eq!(snap.full_flushes, 0);
        assert_eq!(snap.lanes_filled, 5);
        assert!(snap.p99_flush_ns >= 1_000_000, "waited at least max_wait");
    }

    #[test]
    fn covers_are_batched_independently() {
        let service = SimService::start(quick()).expect("valid config");
        let xor = Cover::parse("10 1\n01 1", 2, 1).expect("valid cover");
        let and = Cover::parse("11 1", 2, 1).expect("valid cover");
        let xid = service.register(xor.clone());
        let aid = service.register(and.clone());
        // Interleave submissions across the two covers.
        let pairs: Vec<_> = (0..10u64)
            .map(|bits| {
                let bits = bits % 4;
                (service.submit(xid, bits), service.submit(aid, bits), bits)
            })
            .collect();
        for (xt, at, bits) in pairs {
            assert_eq!(xt.wait(), xor.eval_bits(bits));
            assert_eq!(at.wait(), and.eval_bits(bits));
        }
    }

    #[test]
    fn shutdown_drains_pending_requests() {
        let service = SimService::start(no_deadline()).expect("valid config");
        let cover = adder();
        let id = service.register(cover.clone());
        let tickets: Vec<_> = (0..3u64)
            .map(|bits| (bits, service.submit(id, bits)))
            .collect();
        let snap = service.shutdown();
        assert_eq!(snap.shutdown_flushes, 1);
        for (bits, ticket) in tickets {
            assert_eq!(ticket.wait(), cover.eval_bits(bits));
        }
    }

    #[test]
    #[should_panic(expected = "unregistered sim id")]
    fn submitting_against_an_unknown_backend_panics() {
        let service = SimService::with_defaults();
        let forged = SimId {
            slot: 3,
            service: service.nonce,
        };
        service.submit(forged, 0);
    }

    #[test]
    #[should_panic(expected = "issued by a different service")]
    fn sim_ids_do_not_transfer_between_services() {
        let a = SimService::with_defaults();
        let b = SimService::with_defaults();
        let id = a.register(adder());
        b.submit(id, 0);
    }

    #[test]
    fn concurrent_registration_binds_ids_to_the_right_backends() {
        // Regression: ids are allocated under the handle's slot lock but
        // Register messages from different threads can reach the batcher
        // out of id order — each thread must still get answers from *its*
        // backend.
        let service = SimService::start(quick()).expect("valid config");
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let service = &service;
                s.spawn(move || {
                    // Recognizer of the 3-bit pattern `t`: output is 1 on
                    // exactly one assignment, different per thread.
                    let text: String = (0..3)
                        .map(|i| if t >> i & 1 == 1 { '1' } else { '0' })
                        .collect::<String>()
                        + " 1";
                    let cover = Cover::parse(&text, 3, 1).expect("valid cover");
                    let id = service.register(cover.clone());
                    for bits in 0..8u64 {
                        assert_eq!(
                            service.submit(id, bits).wait(),
                            vec![bits == t],
                            "thread {t} bits {bits:03b}"
                        );
                    }
                });
            }
        });
    }

    #[test]
    fn dropped_tickets_do_not_wedge_the_service() {
        let service = SimService::start(quick()).expect("valid config");
        let id = service.register(adder());
        drop(service.submit(id, 1)); // client walks away
        let ticket = service.submit(id, 2);
        assert_eq!(ticket.wait(), adder().eval_bits(2));
    }

    #[test]
    fn wide_blocks_flush_full_at_block_words_times_64() {
        // block_words = 2: 128 requests are exactly one full flush, and
        // the generous deadline proves the 128th request triggered it.
        let service = SimService::start(ServeConfig {
            block_words: 2,
            ..no_deadline()
        })
        .expect("valid config");
        let cover = adder();
        let id = service.register(cover.clone());
        let (sink, stream) = reply_channel();
        for tag in 0..128u64 {
            service.submit_tagged(id, tag % 8, tag, &sink);
        }
        for _ in 0..128 {
            let reply = stream.recv();
            assert_eq!(reply.outputs, cover.eval_bits(reply.tag % 8));
        }
        let snap = service.stats();
        assert_eq!(snap.requests, 128);
        assert_eq!(snap.full_flushes, 1);
        assert_eq!(snap.deadline_flushes, 0);
        assert_eq!(snap.lanes_filled, 128);
        assert_eq!(snap.lane_capacity, 128);
        assert!((snap.lane_occupancy - 1.0).abs() < 1e-12);
    }

    /// The multi-word generalization of the garbage-lane regression test:
    /// a flush of 130 requests (2 full lane words + 2 lanes of a third)
    /// must never leak the 62 masked tail lanes into replies. Drives
    /// `Registered::flush` directly so the 130-lane partial block is
    /// deterministic (a live service may split it across deadline windows
    /// under load).
    #[test]
    fn multi_word_partial_flush_masks_tail_lanes() {
        let cover = adder();
        let slot = test_slot(260, 3, 2);
        let mut reg = Registered::new(Arc::new(cover.clone()), &words_config(3), Arc::clone(&slot));
        let (sink, stream) = reply_channel();
        for round in 0..2 {
            for i in 0..130u64 {
                reg.vectors.push(i % 8);
                reg.replies.push((i, sink.clone()));
            }
            reg.flush(FlushCause::Deadline, &None);
            for _ in 0..130 {
                let reply = stream.recv();
                assert_eq!(
                    reply.outputs,
                    cover.eval_bits(reply.tag % 8),
                    "round {round} tag {}",
                    reply.tag
                );
            }
        }
        // Each 130-lane flush pays for three lane words, and only its 130
        // occupied lanes count as filled.
        let snap = StatsSnapshot::fold(&[slot.stats.snapshot(0)]);
        assert_eq!(snap.lanes_filled, 260);
        assert_eq!(snap.lane_capacity, 2 * 192);
        assert_eq!(slot.pending.load(Ordering::Relaxed), 0);
    }

    /// Requests queued before a swap are answered by the *old* backend
    /// under the old epoch; requests after it by the *new* backend under
    /// the bumped epoch — the per-reply half of the epoch contract.
    #[test]
    fn swap_splits_replies_by_epoch() {
        let service = SimService::start(no_deadline()).expect("valid config"); // only swaps flush
        let cover = adder();
        let nominal = GnorPla::from_cover(&cover);
        let faulty = faulty_adder();
        // The fault must distinguish the generations somewhere.
        let split = (0..8u64)
            .find(|&b| faulty.simulate_bits(b) != nominal.simulate_bits(b))
            .expect("injected fault is visible");

        let id = service.register_sim(Arc::new(nominal.clone()), SimKey::new(1));
        assert_eq!(service.epoch(id), 0);
        let before = service.submit(id, split);
        let epoch = service.swap_sim(id, Arc::new(faulty.clone()));
        assert_eq!(epoch, 1);
        assert_eq!(service.epoch(id), 1);
        let after = service.submit(id, split);

        let r0 = before.wait_reply();
        assert_eq!(r0.epoch, 0);
        assert_eq!(r0.outputs, nominal.simulate_bits(split));
        drop(service); // shutdown drains the post-swap queue
        let r1 = after.wait_reply();
        assert_eq!(r1.epoch, 1);
        assert_eq!(r1.outputs, faulty.simulate_bits(split));
    }

    #[test]
    fn swapping_an_empty_queue_still_bumps_the_epoch() {
        let service = SimService::start(quick()).expect("valid config");
        let id = service.register(adder());
        for expect in 1..=5u64 {
            assert_eq!(service.swap_sim(id, Arc::new(adder())), expect);
        }
        assert_eq!(service.epoch(id), 5);
        let snap = service.shutdown();
        assert_eq!(snap.swaps, 5);
        assert_eq!(snap.swap_flushes, 0, "nothing was queued to drain");
    }

    #[test]
    fn swap_drain_answers_every_queued_request() {
        let service = SimService::start(no_deadline()).expect("valid config");
        let cover = adder();
        let id = service.register(cover.clone());
        let tickets: Vec<_> = (0..5u64)
            .map(|bits| (bits, service.submit(id, bits)))
            .collect();
        service.swap_sim(id, Arc::new(cover.clone()));
        for (bits, ticket) in tickets {
            let reply = ticket.wait_reply();
            assert_eq!(reply.epoch, 0, "drained under the outgoing epoch");
            assert_eq!(reply.outputs, cover.eval_bits(bits));
        }
        let snap = service.shutdown();
        assert_eq!(snap.swaps, 1);
        assert_eq!(snap.swap_flushes, 1);
        assert_eq!(snap.lanes_filled, 5);
    }

    #[test]
    #[should_panic(expected = "input arity differs")]
    fn swap_rejects_mismatched_arity() {
        let service = SimService::start(quick()).expect("valid config");
        let id = service.register(adder());
        let xor = Cover::parse("10 1\n01 1", 2, 1).expect("valid cover");
        service.swap_sim(id, Arc::new(xor));
    }

    #[test]
    fn degenerate_configs_are_refused_with_typed_errors() {
        for (config, expected) in [
            (
                ServeConfig {
                    queue_depth: 0,
                    ..ServeConfig::default()
                },
                ConfigError::ZeroQueueDepth,
            ),
            (
                ServeConfig {
                    block_words: 0,
                    ..ServeConfig::default()
                },
                ConfigError::ZeroBlockWords,
            ),
            (
                ServeConfig {
                    shards: 0,
                    ..ServeConfig::default()
                },
                ConfigError::ZeroShards,
            ),
        ] {
            assert_eq!(config.validate().unwrap_err(), expected);
            match SimService::start(config) {
                Err(e) => assert_eq!(e, expected),
                Ok(_) => panic!("degenerate config {config:?} must not start"),
            }
            // The error is displayable (it names the offending knob).
            assert!(!expected.to_string().is_empty());
        }
        assert_eq!(ServeConfig::default().validate(), Ok(()));
        // The inert cache_capacity is accepted at any value.
        assert!(SimService::start(ServeConfig {
            cache_capacity: 4096,
            ..ServeConfig::default()
        })
        .is_ok());
    }

    #[test]
    fn sim_key_of_cover_is_the_stable_cover_hash() {
        let f = Cover::parse("10 1\n01 1", 2, 1).expect("valid cover");
        assert_eq!(SimKey::of_cover(&f).raw(), cover_hash(&f));
        assert_eq!(SimKey::of_cover(&f), SimKey::of_cover(&f.clone()));
    }

    #[test]
    fn shard_assignment_is_deterministic_and_in_range() {
        for raw in 0..256u64 {
            let key = SimKey::new(raw);
            assert_eq!(shard_for_key(key, 1), 0);
            for shards in [2usize, 3, 8] {
                let s = shard_for_key(key, shards);
                assert!(s < shards);
                assert_eq!(s, shard_for_key(key, shards), "stable per (key, shards)");
            }
        }
        // The hash actually spreads: 256 keys over 4 shards must not
        // collapse onto one.
        let mut seen = [false; 4];
        for raw in 0..256u64 {
            seen[shard_for_key(SimKey::new(raw), 4)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all four shards get keys");
    }

    #[test]
    fn sharded_service_serves_and_swaps_per_registration() {
        // Multiple registrations spread over several batcher threads:
        // every reply still comes from the right backend, swaps keep the
        // epoch contract per registration, and stats() folds across
        // shards.
        let service = SimService::start(ServeConfig {
            shards: 3,
            ..quick()
        })
        .expect("valid config");
        assert_eq!(service.shard_count(), 3);
        let cover = adder();
        let ids: Vec<_> = (0..8u64)
            .map(|k| service.register_sim(Arc::new(cover.clone()), SimKey::new(k)))
            .collect();
        // shard_of matches the public assignment rule, and with 8 keys
        // over 3 shards at least two shards are in use.
        let mut used = [false; 3];
        for (k, &id) in ids.iter().enumerate() {
            assert_eq!(
                service.shard_of(id),
                shard_for_key(SimKey::new(k as u64), 3)
            );
            used[service.shard_of(id)] = true;
        }
        assert!(used.iter().filter(|&&u| u).count() >= 2);

        let tickets: Vec<_> = (0..64u64)
            .map(|i| {
                let id = ids[(i % 8) as usize];
                (i % 8, service.submit(id, i % 8))
            })
            .collect();
        for (bits, t) in tickets {
            assert_eq!(t.wait(), cover.eval_bits(bits));
        }
        // Swap one registration; its epoch bumps, its shard-mates' do not.
        let victim = ids[5];
        assert_eq!(service.swap_sim(victim, Arc::new(cover.clone())), 1);
        assert_eq!(service.epoch(victim), 1);
        for (k, &id) in ids.iter().enumerate() {
            if k != 5 {
                assert_eq!(service.epoch(id), 0);
            }
        }
        let reply = service.submit(victim, 3).wait_reply();
        assert_eq!(reply.epoch, 1);
        assert_eq!(reply.outputs, cover.eval_bits(3));

        let snap = service.shutdown();
        assert_eq!(snap.requests, 64 + 1);
        assert_eq!(snap.lanes_filled, 64 + 1, "zero drops across shards");
        assert_eq!(snap.swaps, 1);
    }

    #[test]
    fn try_submit_tagged_is_bounded_like_try_submit() {
        let service = SimService::start(ServeConfig {
            queue_depth: 3, // nothing flushes until shutdown
            ..no_deadline()
        })
        .expect("valid config");
        let cover = adder();
        let id = service.register(cover.clone());
        let (sink, stream) = reply_channel();
        for tag in 0..3u64 {
            service
                .try_submit_tagged(id, tag % 8, tag, &sink)
                .expect("below depth");
        }
        assert_eq!(
            service.try_submit_tagged(id, 0, 99, &sink).unwrap_err(),
            QueueFull { depth: 3 }
        );
        let snap = service.stats();
        assert_eq!(snap.queue_full, 1);
        assert_eq!(snap.requests, 3, "the rejected submission is not counted");
        drop(service); // shutdown drains the accepted three
        for _ in 0..3 {
            let reply = stream.recv();
            assert_eq!(reply.outputs, cover.eval_bits(reply.tag % 8));
        }
        assert!(
            stream.try_recv().is_none(),
            "the rejected tag never replies"
        );
    }

    /// A backend that counts how many lane words it was asked to
    /// evaluate — distinguishes the exhaustive materialization sweep
    /// from per-flush batched evaluation.
    struct Probe {
        inner: Cover,
        words_evaluated: AtomicUsize,
    }

    impl Probe {
        fn of(inner: Cover) -> Arc<Probe> {
            Arc::new(Probe {
                inner,
                words_evaluated: AtomicUsize::new(0),
            })
        }
    }

    impl Simulator for Probe {
        fn n_inputs(&self) -> usize {
            self.inner.n_inputs()
        }
        fn n_outputs(&self) -> usize {
            Cover::n_outputs(&self.inner)
        }
        fn eval_words(&self, inputs: &[u64], out: &mut [u64], words: usize) {
            self.words_evaluated.fetch_add(words, Ordering::Relaxed);
            self.inner.eval_words(inputs, out, words);
        }
    }

    #[test]
    fn forced_tier_serves_from_the_table_without_evaluating_the_backend() {
        assert_eq!(ServeConfig::default().tier_policy, TierPolicy::Forced);
        let service = SimService::start(ServeConfig {
            max_wait: Duration::from_secs(10),
            tier_policy: TierPolicy::Forced,
            ..ServeConfig::default()
        })
        .expect("valid config");
        let cover = adder();
        let probe = Probe::of(cover.clone());
        let id = service.register_sim(Arc::clone(&probe) as SharedSim, SimKey::new(9));
        assert_eq!(
            service.stats_for(id).tier,
            Tier::Materialized,
            "settled when register_sim returns"
        );
        let (sink, stream) = reply_channel();
        for round in 0..3 {
            for tag in 0..64u64 {
                service.submit_tagged(id, tag % 8, tag, &sink);
            }
            for _ in 0..64 {
                let reply = stream.recv();
                assert_eq!(
                    reply.outputs,
                    cover.eval_bits(reply.tag % 8),
                    "round {round}"
                );
            }
        }
        assert_eq!(service.stats_for(id).tier, Tier::Materialized);
        let snap = service.stats();
        assert_eq!(snap.materialized, 1);
        // Each table answer is a full one-lane block that waited 0 ns.
        assert_eq!(snap.blocks, 3 * 64);
        assert_eq!(snap.full_flushes, 3 * 64);
        assert_eq!(snap.lanes_filled, 3 * 64);
        assert_eq!(snap.lane_capacity, 3 * 64);
        assert!((snap.lane_occupancy - 1.0).abs() < 1e-12);
        assert_eq!(snap.p99_flush_ns, 0, "answered on arrival");
        assert_eq!(
            probe.words_evaluated.load(Ordering::Relaxed),
            1,
            "the backend is evaluated exactly once: the 2^3-assignment sweep"
        );
    }

    /// A materialized registration answers each request when it arrives:
    /// with a 10 s deadline, a lone request that queued for `max_wait`
    /// would take 10 s.
    #[test]
    fn materialized_requests_do_not_wait_for_the_deadline() {
        let service = SimService::start(ServeConfig {
            max_wait: Duration::from_secs(10),
            tier_policy: TierPolicy::Forced,
            ..ServeConfig::default()
        })
        .expect("valid config");
        let cover = adder();
        let id = service.register(cover.clone());
        let started = Instant::now();
        for bits in 0..8u64 {
            let reply = service.submit(id, bits).wait_reply();
            assert_eq!((reply.epoch, reply.outputs), (0, cover.eval_bits(bits)));
        }
        assert!(
            started.elapsed() < Duration::from_millis(500),
            "answered on arrival, not at the deadline ({:?})",
            started.elapsed()
        );
        assert_eq!(service.stats().deadline_flushes, 0);
    }

    #[test]
    fn disabled_policy_never_materializes() {
        let service = SimService::start(ServeConfig {
            max_wait: Duration::from_secs(10),
            tier_policy: TierPolicy::Disabled,
            ..ServeConfig::default()
        })
        .expect("valid config");
        let cover = adder();
        let probe = Probe::of(cover.clone());
        let id = service.register_sim(Arc::clone(&probe) as SharedSim, SimKey::of_cover(&cover));
        let (sink, stream) = reply_channel();
        for _ in 0..3 {
            for tag in 0..64u64 {
                service.submit_tagged(id, tag % 8, tag, &sink);
            }
            for _ in 0..64 {
                let reply = stream.recv();
                assert_eq!(reply.outputs, cover.eval_bits(reply.tag % 8));
            }
        }
        assert_eq!(service.stats_for(id).tier, Tier::Batched);
        let snap = service.stats();
        assert_eq!(snap.materialized, 0);
        assert_eq!(
            probe.words_evaluated.load(Ordering::Relaxed),
            3,
            "every block is a batched evaluation, and no sweep ever runs"
        );
    }

    /// The eligibility edges under the Forced policy: a 13-input backend,
    /// and a 12-input one whose table is one output over the 1 MiB budget
    /// (2049 outputs), stay batched; 12 inputs × 2048 outputs is exactly
    /// the budget and materializes.
    #[test]
    fn oversized_tables_stay_batched_despite_forced_policy() {
        let service = SimService::start(ServeConfig {
            max_wait: Duration::from_secs(10),
            tier_policy: TierPolicy::Forced,
            ..ServeConfig::default()
        })
        .expect("valid config");
        let constant = |inputs: usize, outputs: usize| {
            let text = format!("{} {}", "-".repeat(inputs), "1".repeat(outputs));
            Probe::of(Cover::parse(&text, inputs, outputs).expect("valid cover"))
        };
        assert_eq!(table_bytes(12, 2048), TIER_MAX_TABLE_BYTES);
        let (sink, stream) = reply_channel();
        for (key, inputs, outputs) in [(1, 13, 1), (2, 12, 2049)] {
            let probe = constant(inputs, outputs);
            let id = service.register_sim(Arc::clone(&probe) as SharedSim, SimKey::new(key));
            for tag in 0..64u64 {
                service.submit_tagged(id, tag, tag, &sink);
            }
            for _ in 0..64 {
                assert_eq!(stream.recv().outputs, vec![true; outputs]);
            }
            assert_eq!(
                service.stats_for(id).tier,
                Tier::Batched,
                "{inputs}×{outputs}"
            );
            assert_eq!(
                probe.words_evaluated.load(Ordering::Relaxed),
                1,
                "{inputs}×{outputs}: served through the batched path, one flush and no sweep"
            );
        }
        let probe = constant(12, 2048);
        let id = service.register_sim(Arc::clone(&probe) as SharedSim, SimKey::new(3));
        assert_eq!(service.submit(id, 0).wait(), vec![true; 2048]);
        assert_eq!(service.stats_for(id).tier, Tier::Materialized);
        assert_eq!(
            probe.words_evaluated.load(Ordering::Relaxed),
            64,
            "one 2^12-assignment sweep, then answered from the table"
        );
        assert_eq!(service.stats().materialized, 1);
    }

    /// A swap must drop the outgoing backend's table (its answers are
    /// stale the moment the new backend installs) and re-materialize
    /// under the new epoch before `swap_sim` returns.
    #[test]
    fn swaps_drop_and_rebuild_the_materialized_table() {
        let service = SimService::start(ServeConfig {
            max_wait: Duration::from_millis(1),
            tier_policy: TierPolicy::Forced,
            ..ServeConfig::default()
        })
        .expect("valid config");
        let cover = adder();
        let nominal = GnorPla::from_cover(&cover);
        let faulty = faulty_adder();
        let split = (0..8u64)
            .find(|&b| faulty.simulate_bits(b) != nominal.simulate_bits(b))
            .expect("injected fault is visible");

        let id = service.register_sim(Arc::new(nominal.clone()), SimKey::new(1));
        let r0 = service.submit(id, split).wait_reply();
        assert_eq!(r0.epoch, 0);
        assert_eq!(r0.outputs, nominal.simulate_bits(split));
        assert_eq!(service.stats_for(id).tier, Tier::Materialized);

        assert_eq!(service.swap_sim(id, Arc::new(faulty.clone())), 1);
        let r1 = service.submit(id, split).wait_reply();
        assert_eq!(r1.epoch, 1);
        assert_eq!(
            r1.outputs,
            faulty.simulate_bits(split),
            "the stale table must not answer for the new backend"
        );
        assert_eq!(
            service.stats_for(id).tier,
            Tier::Materialized,
            "re-materialized under the new epoch"
        );
    }
}
