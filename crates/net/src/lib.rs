//! # ambipla_net — the multi-tenant TCP front end
//!
//! `ambipla_serve` batches requests arriving through in-process
//! channels; this crate puts a network in front of it. A
//! [`NetServer`] listens on TCP, speaks a length-prefixed binary
//! protocol, authenticates each connection as a [`TenantId`], enforces
//! per-tenant token-bucket quotas, schedules admitted requests with
//! deficit round robin so no tenant can starve another, and dispatches
//! into the sharded `SimService` — whose out-of-order, epoch-tagged
//! replies stream straight back to the owning connection.
//!
//! ```text
//!  clients (TCP)        ambipla_net                      ambipla_serve
//!  ┌────────┐  Hello   ┌──────────────────────────┐     ┌─────────────┐
//!  │tenant 1│─Request─▶│ reader threads:          │     │ batcher     │
//!  └────────┘          │  decode → route → quota  │     │ shard 0     │
//!  ┌────────┐          │ DRR scheduler per tenant │────▶│ batcher     │
//!  │tenant 2│◀─Reply───│ dispatcher → try_submit  │     │ shard 1 ... │
//!  └────────┘  /Error  └──────────────────────────┘     └─────────────┘
//! ```
//!
//! ## Wire format
//!
//! Frames are `[u32 payload length (LE)][u8 kind][body]`, integers
//! little-endian (full layouts in [`protocol`]):
//!
//! | kind | frame     | body                                          |
//! |------|-----------|-----------------------------------------------|
//! | 0x01 | `Hello`   | magic, version, tenant id                     |
//! | 0x02 | `HelloOk` | magic, version                                |
//! | 0x03 | `Request` | request id, sim key, packed input bits        |
//! | 0x04 | `Reply`   | request id, serving epoch, packed output words|
//! | 0x05 | `Error`   | request id, typed code ([`ErrorCode`])        |
//!
//! Replies are correlated by request id, never by order — a hot
//! registration's block flush can overtake a cold one's deadline flush.
//!
//! * [`protocol`] — codec: [`Frame`], [`encode_frame`],
//!   [`decode_payload`], the incremental [`FrameReader`], typed
//!   [`WireError`]s; never panics on hostile bytes,
//! * [`tenant`] — [`TenantId`], integer-math [`TokenBucket`] quotas
//!   ([`QuotaConfig`]), per-tenant counters
//!   ([`TenantState`] / [`TenantSnapshot`]) and the [`TenantRegistry`],
//! * [`server`] — [`NetServer`]: the blocking accept loop, a reader and
//!   a writer thread per connection, the deficit-round-robin scheduler,
//!   the dispatcher, and tenant-labeled [`NetServer::metric_families`],
//! * [`client`] — the blocking reference [`NetClient`] used by tests,
//!   benches and demos.

// Production code returns typed errors instead of unwrapping; test code
// may unwrap freely. `ambipla-analyze` enforces the stronger
// panic-freedom rule on the hot/untrusted paths; this lint is the
// compile-time backstop for the rest of the crate.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod client;
pub mod protocol;
pub mod server;
pub mod tenant;

pub use client::{ClientError, NetClient};
pub use protocol::{
    decode_payload, encode_frame, ErrorCode, Frame, FrameReader, WireError, MAGIC, MAX_FRAME,
    VERSION,
};
pub use server::{NetConfig, NetServer};
pub use tenant::{QuotaConfig, TenantId, TenantRegistry, TenantSnapshot, TenantState, TokenBucket};
