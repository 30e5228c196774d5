//! Structured event vocabulary and monotonic timestamps.
//!
//! Events are small `Copy` records — fixed-size by construction so the
//! [`EventRing`](crate::EventRing) can store them inline without
//! allocation. The vocabulary covers the serve layer's state transitions
//! (registrations, epoch-bumping hot swaps, block flushes, backpressure
//! rejections, truth-table tier promotions) and the net front
//! end's connection lifecycle (accepts, disconnects, tenant quota
//! rejections); producers stamp each
//! event with [`monotonic_ns`] **at the record site**, and only when a
//! recorder is actually installed (see [`Recorder`](crate::Recorder) for
//! the disabled-path contract).

use std::sync::OnceLock;
use std::time::Instant;

/// Why a block left a pending queue. Shared vocabulary between the
/// `ambipla_serve` batcher (its stats counters and flush path) and the
/// event layer, defined here so both sides agree on one type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushCause {
    /// All `block_words × 64` lanes filled.
    Full,
    /// The oldest queued request hit the configured `max_wait`.
    Deadline,
    /// A hot swap drained the queue under the outgoing epoch before
    /// installing the new backend.
    Swap,
    /// Service shutdown drained the queue.
    Shutdown,
}

impl FlushCause {
    /// Stable lowercase label (Prometheus `cause` label value).
    pub const fn label(self) -> &'static str {
        match self {
            FlushCause::Full => "full",
            FlushCause::Deadline => "deadline",
            FlushCause::Swap => "swap",
            FlushCause::Shutdown => "shutdown",
        }
    }
}

/// Nanoseconds since the process's first call into the observability
/// layer — a monotonic, strictly non-decreasing clock shared by every
/// producer thread, cheap enough to stamp on each recorded event.
pub fn monotonic_ns() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One structured telemetry event: what happened ([`EventKind`]) and when
/// ([`monotonic_ns`] at the record site).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Monotonic timestamp ([`monotonic_ns`]) taken when the event was
    /// recorded.
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Stamp `kind` with the current [`monotonic_ns`].
    pub fn now(kind: EventKind) -> Event {
        Event {
            ts_ns: monotonic_ns(),
            kind,
        }
    }
}

/// The event vocabulary. Every variant is scalar-only so [`Event`] stays
/// `Copy` and ring slots need no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A backend was registered into `slot` (epoch 0 begins).
    Register {
        /// Registration slot index (`SimId` slot in the serve layer).
        slot: u32,
    },
    /// A hot swap completed on `slot`: the backend serving `from_epoch`
    /// was replaced and `to_epoch` (`from_epoch + 1`) began.
    Swap {
        /// Registration slot index.
        slot: u32,
        /// The superseded epoch.
        from_epoch: u64,
        /// The newly installed epoch.
        to_epoch: u64,
        /// Lanes the drain flush answered under the outgoing epoch (0 if
        /// the queue was empty when the swap landed).
        drained_lanes: u32,
    },
    /// A block flush on `slot` under `epoch`.
    Flush {
        /// Registration slot index.
        slot: u32,
        /// Epoch whose backend evaluated the block.
        epoch: u64,
        /// Why the block flushed.
        cause: FlushCause,
        /// Occupied lanes.
        lanes: u32,
        /// Lane words the flush evaluated.
        words: u32,
        /// Queue latency (first enqueue → flush) in ns.
        latency_ns: u64,
    },
    /// A bounded submission was rejected by backpressure.
    QueueFull {
        /// Registration slot index.
        slot: u32,
    },
    /// A registration was promoted to the materialized tier: its backend
    /// was swept exhaustively into a packed truth table, and every
    /// subsequent flush under `epoch` answers by indexed load (serve
    /// layer's auto-tiering, or a forced-tier configuration).
    TierPromote {
        /// Registration slot index.
        slot: u32,
        /// Epoch whose backend was materialized (a hot swap drops the
        /// table and re-materializes under the new epoch).
        epoch: u64,
        /// The backend's input count (`2^inputs` assignments were swept).
        inputs: u32,
        /// Wall-clock cost of the exhaustive sweep in ns.
        build_ns: u64,
    },
    /// A network connection completed its hello handshake and was
    /// admitted (net layer).
    Accept {
        /// Authenticated tenant id (raw `TenantId`).
        tenant: u64,
        /// Connection slot index assigned by the listener.
        slot: u32,
    },
    /// A network connection closed — peer hangup, protocol violation or
    /// server shutdown (net layer).
    Disconnect {
        /// Authenticated tenant id (raw `TenantId`).
        tenant: u64,
        /// Connection slot index the listener had assigned.
        slot: u32,
    },
    /// A request was rejected by its tenant's token-bucket quota before
    /// reaching the batcher (net layer).
    QuotaReject {
        /// Tenant whose bucket was empty.
        tenant: u64,
        /// Target registration slot of the rejected request.
        slot: u32,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_ns_never_decreases() {
        let a = monotonic_ns();
        let b = monotonic_ns();
        assert!(b >= a);
    }

    #[test]
    fn events_are_stamped_in_order() {
        let a = Event::now(EventKind::Register { slot: 0 });
        let b = Event::now(EventKind::QueueFull { slot: 0 });
        assert!(b.ts_ns >= a.ts_ns);
    }

    #[test]
    fn flush_cause_labels_are_stable() {
        assert_eq!(FlushCause::Full.label(), "full");
        assert_eq!(FlushCause::Deadline.label(), "deadline");
        assert_eq!(FlushCause::Swap.label(), "swap");
        assert_eq!(FlushCause::Shutdown.label(), "shutdown");
    }
}
