//! Tenant identity, token-bucket quotas and per-tenant counters.
//!
//! Every connection authenticates a [`TenantId`] in its hello frame;
//! all requests on the connection bill against that tenant's
//! [`TokenBucket`] (admission quota) and are accounted in its
//! [`TenantState`] counters. The [`TenantRegistry`] owns the per-tenant
//! state, creating entries on first sight with the server's default
//! [`QuotaConfig`].
//!
//! Quota math is integer-only: the bucket stores *micro-tokens*
//! (1 request = 1_000_000 micro-tokens) and refills
//! `rate_per_sec` tokens per second of monotonic time, capped at
//! `burst` tokens, so sub-millisecond request spacing accrues credit
//! without floating point.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Micro-tokens per request.
const MICRO: u128 = 1_000_000;

/// Opaque tenant identity carried in the hello frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(u64);

impl TenantId {
    /// Wrap a raw tenant id.
    pub fn new(raw: u64) -> TenantId {
        TenantId(raw)
    }

    /// The raw id (what goes on the wire and into metric labels).
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// Token-bucket parameters for one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotaConfig {
    /// Sustained admission rate in requests per second.
    pub rate_per_sec: u64,
    /// Bucket capacity: how many requests may burst above the rate.
    pub burst: u64,
}

impl QuotaConfig {
    /// A quota that never rejects (both fields `u64::MAX`).
    pub fn unlimited() -> QuotaConfig {
        QuotaConfig {
            rate_per_sec: u64::MAX,
            burst: u64::MAX,
        }
    }

    /// Whether this quota is the [`unlimited`](QuotaConfig::unlimited)
    /// sentinel.
    pub fn is_unlimited(&self) -> bool {
        self.rate_per_sec == u64::MAX && self.burst == u64::MAX
    }
}

impl Default for QuotaConfig {
    fn default() -> QuotaConfig {
        QuotaConfig::unlimited()
    }
}

/// Integer-math token bucket over monotonic nanosecond timestamps.
#[derive(Debug)]
pub struct TokenBucket {
    config: QuotaConfig,
    /// Current credit in micro-tokens.
    micro: u128,
    /// Timestamp of the last refill.
    last_ns: u64,
}

impl TokenBucket {
    /// A bucket starting full (at `burst` tokens) as of `now_ns`.
    pub fn new(config: QuotaConfig, now_ns: u64) -> TokenBucket {
        TokenBucket {
            config,
            micro: (config.burst as u128).saturating_mul(MICRO),
            last_ns: now_ns,
        }
    }

    /// Take one token if available; `false` means "over quota".
    ///
    /// Refills first: `dt_ns × rate_per_sec / 1000` micro-tokens since
    /// the latest timestamp seen, capped at `burst` tokens. Unlimited
    /// quotas short-circuit to `true`.
    ///
    /// Callers may pass timestamps out of order (two connections of one
    /// tenant read the clock before taking the bucket lock), so the
    /// refill clock only moves forward: an earlier stamp refills nothing
    /// and cannot make a later one refill the same interval twice.
    pub fn try_take(&mut self, now_ns: u64) -> bool {
        if self.config.is_unlimited() {
            return true;
        }
        let dt_ns = now_ns.saturating_sub(self.last_ns);
        self.last_ns = self.last_ns.max(now_ns);
        let cap = (self.config.burst as u128).saturating_mul(MICRO);
        // rate tokens/sec = rate micro-tokens/µs = rate/1000 micro-tokens/ns.
        let gained = dt_ns as u128 * self.config.rate_per_sec as u128 / 1000;
        self.micro = (self.micro + gained).min(cap);
        if self.micro >= MICRO {
            self.micro -= MICRO;
            true
        } else {
            false
        }
    }

    /// The parameters this bucket enforces.
    pub fn config(&self) -> QuotaConfig {
        self.config
    }
}

/// Live per-tenant accounting: quota bucket plus lock-free counters.
#[derive(Debug)]
pub struct TenantState {
    /// The tenant these counters belong to.
    pub id: TenantId,
    bucket: RwLock<TokenBucket>,
    accepted: AtomicU64,
    quota_rejected: AtomicU64,
    queue_full: AtomicU64,
    unknown_sim: AtomicU64,
    bad_arity: AtomicU64,
    replies: AtomicU64,
    connections: AtomicU64,
    accepts: AtomicU64,
}

impl TenantState {
    fn new(id: TenantId, quota: QuotaConfig, now_ns: u64) -> TenantState {
        TenantState {
            id,
            bucket: RwLock::new(TokenBucket::new(quota, now_ns)),
            accepted: AtomicU64::new(0),
            quota_rejected: AtomicU64::new(0),
            queue_full: AtomicU64::new(0),
            unknown_sim: AtomicU64::new(0),
            bad_arity: AtomicU64::new(0),
            replies: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            accepts: AtomicU64::new(0),
        }
    }

    /// Spend one quota token; `false` means the request must be
    /// rejected with `QuotaExceeded`.
    pub fn try_take_token(&self, now_ns: u64) -> bool {
        // Poison recovery: the bucket is a pair of scalars that every
        // mutation leaves consistent, and quota accounting must not
        // panic on the dispatch path.
        self.bucket
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .try_take(now_ns)
    }

    /// Replace the tenant's quota (the new bucket starts full).
    pub fn set_quota(&self, quota: QuotaConfig, now_ns: u64) {
        *self
            .bucket
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = TokenBucket::new(quota, now_ns);
    }

    /// Count a request admitted past quota into the scheduler.
    pub fn record_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a quota rejection.
    pub fn record_quota_reject(&self) {
        self.quota_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a service-backpressure rejection.
    pub fn record_queue_full(&self) {
        self.queue_full.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a request naming an unexposed sim.
    pub fn record_unknown_sim(&self) {
        self.unknown_sim.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a request with out-of-arity input bits.
    pub fn record_bad_arity(&self) {
        self.bad_arity.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a reply streamed back to the tenant.
    pub fn record_reply(&self) {
        self.replies.fetch_add(1, Ordering::Relaxed);
    }

    /// Track a connection opening (bumps the live gauge and the
    /// lifetime accept counter).
    pub fn record_connect(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
        self.accepts.fetch_add(1, Ordering::Relaxed);
    }

    /// Track a connection closing (decrements the live gauge).
    pub fn record_disconnect(&self) {
        self.connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> TenantSnapshot {
        TenantSnapshot {
            id: self.id,
            accepted: self.accepted.load(Ordering::Relaxed),
            quota_rejected: self.quota_rejected.load(Ordering::Relaxed),
            queue_full: self.queue_full.load(Ordering::Relaxed),
            unknown_sim: self.unknown_sim.load(Ordering::Relaxed),
            bad_arity: self.bad_arity.load(Ordering::Relaxed),
            replies: self.replies.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            accepts: self.accepts.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of one tenant's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// Which tenant.
    pub id: TenantId,
    /// Requests admitted past quota into the scheduler.
    pub accepted: u64,
    /// Requests rejected by the token bucket.
    pub quota_rejected: u64,
    /// Requests rejected by service backpressure.
    pub queue_full: u64,
    /// Requests naming an unexposed sim.
    pub unknown_sim: u64,
    /// Requests with input bits above the target's arity.
    pub bad_arity: u64,
    /// Replies streamed back.
    pub replies: u64,
    /// Currently open connections (gauge).
    pub connections: u64,
    /// Lifetime accepted connections.
    pub accepts: u64,
}

/// Registry of per-tenant state, keyed by raw tenant id.
///
/// Tenants materialize on first hello with `default_quota`; quotas can
/// be tightened per tenant afterwards via
/// [`set_quota`](TenantRegistry::set_quota).
#[derive(Debug)]
pub struct TenantRegistry {
    default_quota: QuotaConfig,
    tenants: RwLock<HashMap<u64, Arc<TenantState>>>,
}

impl TenantRegistry {
    /// A registry handing new tenants `default_quota`.
    pub fn new(default_quota: QuotaConfig) -> TenantRegistry {
        TenantRegistry {
            default_quota,
            tenants: RwLock::new(HashMap::new()),
        }
    }

    /// The tenant's state, created with the default quota on first use.
    pub fn get_or_create(&self, id: TenantId, now_ns: u64) -> Arc<TenantState> {
        // Poison recovery (here and below): the map's values are Arcs
        // swapped in atomically; a panic elsewhere cannot leave a
        // half-inserted entry, so the state is safe to reuse.
        if let Some(state) = self
            .tenants
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&id.raw())
        {
            return Arc::clone(state);
        }
        let mut map = self
            .tenants
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Arc::clone(
            map.entry(id.raw())
                .or_insert_with(|| Arc::new(TenantState::new(id, self.default_quota, now_ns))),
        )
    }

    /// Set (or reset) one tenant's quota; creates the tenant if new.
    pub fn set_quota(&self, id: TenantId, quota: QuotaConfig, now_ns: u64) {
        self.get_or_create(id, now_ns).set_quota(quota, now_ns);
    }

    /// Snapshots of every known tenant, sorted by tenant id.
    pub fn snapshots(&self) -> Vec<TenantSnapshot> {
        let mut out: Vec<TenantSnapshot> = self
            .tenants
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .values()
            .map(|t| t.snapshot())
            .collect();
        out.sort_by_key(|s| s.id);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_bucket_never_rejects() {
        let mut b = TokenBucket::new(QuotaConfig::unlimited(), 0);
        for t in 0..10_000u64 {
            assert!(b.try_take(t));
        }
    }

    #[test]
    fn bucket_burst_then_rate_refill() {
        // 5-token burst, 1000 req/s → one token per millisecond.
        let q = QuotaConfig {
            rate_per_sec: 1000,
            burst: 5,
        };
        let mut b = TokenBucket::new(q, 0);
        for _ in 0..5 {
            assert!(b.try_take(0), "burst tokens");
        }
        assert!(!b.try_take(0), "bucket drained");
        assert!(!b.try_take(999_999), "1µs shy of a refill");
        assert!(b.try_take(1_000_000 + 999_999), "1ms refills one token");
        assert!(!b.try_take(1_000_000 + 999_999), "and only one");
    }

    #[test]
    fn bucket_refill_caps_at_burst() {
        let q = QuotaConfig {
            rate_per_sec: 1_000_000,
            burst: 3,
        };
        let mut b = TokenBucket::new(q, 0);
        // A long idle period must not accrue more than `burst` tokens.
        let late = 60 * 1_000_000_000;
        for i in 0..3 {
            assert!(b.try_take(late + i), "token {i} of the refilled burst");
        }
        assert!(!b.try_take(late + 3), "capped at burst");
    }

    #[test]
    fn out_of_order_timestamps_never_refill_an_interval_twice() {
        // One token per ms, burst 1. Over 1.5 ms the bucket may grant
        // the burst plus one refill; the late 0.5 ms stamp must not pull
        // the clock back and let 1.5 ms refill 0.5..1.5 ms again.
        let q = QuotaConfig {
            rate_per_sec: 1000,
            burst: 1,
        };
        let mut b = TokenBucket::new(q, 0);
        let granted = [0, 1_000_000, 500_000, 1_500_000]
            .into_iter()
            .filter(|&t| b.try_take(t))
            .count();
        assert_eq!(granted, 2);
    }

    #[test]
    fn zero_rate_quota_is_burst_only() {
        let q = QuotaConfig {
            rate_per_sec: 0,
            burst: 2,
        };
        let mut b = TokenBucket::new(q, 0);
        assert!(b.try_take(0));
        assert!(b.try_take(1));
        assert!(!b.try_take(u64::MAX / 2), "never refills");
    }

    #[test]
    fn registry_creates_once_and_snapshots_sorted() {
        let reg = TenantRegistry::new(QuotaConfig::unlimited());
        let b = reg.get_or_create(TenantId::new(9), 0);
        let a = reg.get_or_create(TenantId::new(2), 0);
        let b2 = reg.get_or_create(TenantId::new(9), 0);
        assert!(Arc::ptr_eq(&b, &b2));
        a.record_accepted();
        b.record_connect();
        let snaps = reg.snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].id, TenantId::new(2));
        assert_eq!(snaps[0].accepted, 1);
        assert_eq!(snaps[1].id, TenantId::new(9));
        assert_eq!((snaps[1].connections, snaps[1].accepts), (1, 1));
    }

    #[test]
    fn set_quota_replaces_bucket() {
        let reg = TenantRegistry::new(QuotaConfig::unlimited());
        let t = reg.get_or_create(TenantId::new(1), 0);
        assert!(t.try_take_token(0));
        reg.set_quota(
            TenantId::new(1),
            QuotaConfig {
                rate_per_sec: 0,
                burst: 1,
            },
            0,
        );
        assert!(t.try_take_token(0), "new bucket starts full");
        assert!(!t.try_take_token(0), "then enforces");
    }

    /// Regression for the poison-recovery change: quota accounting
    /// used to `.expect("bucket lock")` — one panicking thread holding
    /// the bucket would then panic every later request. It now recovers
    /// the guard and keeps enforcing the quota.
    #[test]
    fn quota_survives_a_poisoned_bucket_lock() {
        let reg = TenantRegistry::new(QuotaConfig {
            rate_per_sec: 0,
            burst: 2,
        });
        let t = reg.get_or_create(TenantId::new(7), 0);
        assert!(t.try_take_token(0));
        // Poison both the registry map lock and the bucket lock.
        let t2 = Arc::clone(&t);
        let _ = std::thread::spawn(move || {
            let _bucket = t2.bucket.write().unwrap();
            panic!("poison the bucket");
        })
        .join();
        let reg2 = &reg;
        let _ = std::thread::scope(|s| {
            s.spawn(|| {
                let _map = reg2.tenants.write().unwrap();
                panic!("poison the registry");
            })
            .join()
        });
        // Same state handed back, quota still enforced from where it was.
        let again = reg.get_or_create(TenantId::new(7), 0);
        assert!(Arc::ptr_eq(&t, &again));
        assert!(again.try_take_token(0), "second burst token survives");
        assert!(!again.try_take_token(0), "cap still enforced");
        assert_eq!(reg.snapshots().len(), 1, "snapshots also recover");
    }
}
