//! The declarative policy table driving the rule engine.
//!
//! Policies match files by workspace-relative path *suffix* (forward
//! slashes), so the same table works whether the analyzer runs from the
//! workspace root or a fixture directory. Every entry carries a reason
//! string: the table is documentation as much as configuration.

/// Where the panic-freedom rule applies.
#[derive(Debug, Clone)]
pub struct PanicPolicy {
    /// Path suffix the policy applies to.
    pub path_suffix: &'static str,
    /// If non-empty, only these functions (and functions lexically
    /// nested in them) are covered; if empty, the whole file is.
    pub functions: &'static [&'static str],
    /// Why this module must not panic.
    pub reason: &'static str,
}

/// Files/fields where a given set of atomic orderings is pre-justified,
/// so individual sites don't each need a comment.
#[derive(Debug, Clone)]
pub struct AtomicPolicy {
    /// Path suffix the policy applies to.
    pub path_suffix: &'static str,
    /// Receiver field/variable name the ordering is used on, or `"*"`
    /// for any receiver in the file.
    pub field: &'static str,
    /// Orderings this entry justifies (`Relaxed`, `Acquire`, ...).
    pub orderings: &'static [&'static str],
    /// Why these orderings are sound here.
    pub reason: &'static str,
}

/// Panic-freedom coverage. The untrusted/hot paths named in the design
/// docs: the wire codec, the client, the server dispatch path, the
/// batcher flush path, and the lock-free event ring.
pub const PANIC_POLICIES: &[PanicPolicy] = &[
    PanicPolicy {
        path_suffix: "crates/net/src/protocol.rs",
        functions: &[],
        reason: "parses untrusted bytes from the wire; a panic is a remote DoS",
    },
    PanicPolicy {
        path_suffix: "crates/net/src/client.rs",
        functions: &[],
        reason: "library code embedded in user processes; errors must be typed",
    },
    PanicPolicy {
        path_suffix: "crates/net/src/server.rs",
        functions: &[],
        reason:
            "dispatch path serves every tenant; one panic kills the listener or a scheduler thread",
    },
    PanicPolicy {
        path_suffix: "crates/net/src/tenant.rs",
        functions: &[],
        reason: "quota accounting runs on every request on the dispatch path",
    },
    PanicPolicy {
        path_suffix: "crates/serve/src/batcher.rs",
        functions: &[
            "flush",
            "account",
            "answer_from_table",
            "materialize",
            "batcher_loop",
        ],
        reason: "the flush path drains every registered sim; a panic wedges the batcher thread",
    },
    PanicPolicy {
        path_suffix: "crates/obs/src/ring.rs",
        functions: &[],
        reason: "the event ring is called from every hot path; it must never unwind",
    },
    // Fixture: exercises the rule in golden tests.
    PanicPolicy {
        path_suffix: "fixtures/panic_fixture.rs",
        functions: &[],
        reason: "violation-seeded fixture for the golden findings test",
    },
    PanicPolicy {
        path_suffix: "fixtures/allow_fixture.rs",
        functions: &[],
        reason: "fixture exercising the allow() escape hatch",
    },
];

/// Pre-justified atomic orderings. Entries cover whole families of
/// monotonic counters so each site doesn't need a comment; anything not
/// covered here needs a justification comment at the site.
pub const ATOMIC_POLICIES: &[AtomicPolicy] = &[
    AtomicPolicy {
        path_suffix: "crates/obs/src/ring.rs",
        field: "seq",
        orderings: &["Acquire", "Release"],
        reason: "Vyukov slot protocol: seq Release-publishes the slot payload, Acquire observes it",
    },
    AtomicPolicy {
        path_suffix: "crates/obs/src/ring.rs",
        field: "head",
        orderings: &["Relaxed"],
        reason: "cursors race benignly; the per-slot seq provides the synchronization",
    },
    AtomicPolicy {
        path_suffix: "crates/obs/src/ring.rs",
        field: "tail",
        orderings: &["Relaxed"],
        reason: "cursors race benignly; the per-slot seq provides the synchronization",
    },
    AtomicPolicy {
        path_suffix: "crates/obs/src/ring.rs",
        field: "pushed",
        orderings: &["Relaxed"],
        reason: "monotonic statistics counter; no ordering dependency",
    },
    AtomicPolicy {
        path_suffix: "crates/obs/src/ring.rs",
        field: "dropped",
        orderings: &["Relaxed"],
        reason: "monotonic statistics counter; no ordering dependency",
    },
    AtomicPolicy {
        path_suffix: "crates/net/src/tenant.rs",
        field: "*",
        orderings: &["Relaxed"],
        reason: "per-tenant monotonic counters and gauges; snapshots tolerate tearing",
    },
    AtomicPolicy {
        path_suffix: "crates/serve/src/stats.rs",
        field: "*",
        orderings: &["Relaxed"],
        reason: "metrics counters only; readers tolerate stale or torn snapshots",
    },
    AtomicPolicy {
        path_suffix: "crates/serve/src/batcher.rs",
        field: "pending",
        orderings: &["Relaxed"],
        reason: "in-flight lane gauge; admission reads it as a hint, the channel orders the work",
    },
    AtomicPolicy {
        path_suffix: "crates/serve/src/batcher.rs",
        field: "epoch",
        orderings: &["Acquire", "Release"],
        reason: "Release-publishes the swapped-in backend's epoch; readers Acquire to observe it",
    },
    AtomicPolicy {
        path_suffix: "crates/serve/src/batcher.rs",
        field: "NEXT_SERVICE",
        orderings: &["Relaxed"],
        reason: "monotonic service-id allocator; ids need uniqueness, not ordering",
    },
    AtomicPolicy {
        path_suffix: "crates/net/src/server.rs",
        field: "stop",
        orderings: &["Relaxed"],
        reason: "cooperative shutdown flag; thread joins provide the synchronization",
    },
    AtomicPolicy {
        path_suffix: "crates/net/src/server.rs",
        field: "conn_seq",
        orderings: &["Relaxed"],
        reason: "monotonic connection-id allocator",
    },
    // Fixture: exercises the policy-match path in golden tests.
    AtomicPolicy {
        path_suffix: "fixtures/atomics_fixture.rs",
        field: "policy_ok",
        orderings: &["Relaxed"],
        reason: "fixture entry proving policy-listed sites are accepted",
    },
];

/// Keywords whose presence in an attached comment counts as an
/// ordering justification. Case-insensitive substring match.
pub const ORDERING_JUSTIFICATION_KEYWORDS: &[&str] = &[
    "ordering",
    "acquire",
    "release",
    "relaxed",
    "seqcst",
    "acqrel",
    "atomic",
    "monotonic",
    "synchroniz",
    "happens-before",
];

/// `SeqCst` is disallowed everywhere except sites listed here (none in
/// the real tree: total order is never needed, and it hides missing
/// reasoning). Fixtures exercise the failure mode.
pub const SEQCST_ALLOWED: &[AtomicPolicy] = &[];

/// Does `rel` (workspace-relative, forward slashes) match `suffix`?
/// Matches whole path segments so `ring.rs` does not match `string.rs`.
pub fn path_matches(rel: &str, suffix: &str) -> bool {
    if let Some(prefix) = rel.strip_suffix(suffix) {
        prefix.is_empty() || prefix.ends_with('/')
    } else {
        false
    }
}

/// The panic policy (if any) covering `rel`.
pub fn panic_policy_for(rel: &str) -> Option<&'static PanicPolicy> {
    PANIC_POLICIES
        .iter()
        .find(|p| path_matches(rel, p.path_suffix))
}

/// All atomic policy entries covering `rel`.
pub fn atomic_policies_for(rel: &str) -> Vec<&'static AtomicPolicy> {
    ATOMIC_POLICIES
        .iter()
        .filter(|p| path_matches(rel, p.path_suffix))
        .collect()
}

/// Whether an atomic policy entry justifies `ordering` on `field`.
pub fn atomic_policy_allows(rel: &str, field: &str, ordering: &str) -> bool {
    atomic_policies_for(rel)
        .iter()
        .any(|p| (p.field == "*" || p.field == field) && p.orderings.contains(&ordering))
}

/// Whether a comment blob justifies an ordering choice.
pub fn comment_justifies_ordering(comment: &str) -> bool {
    let lower = comment.to_lowercase();
    ORDERING_JUSTIFICATION_KEYWORDS
        .iter()
        .any(|k| lower.contains(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_suffix_matches_whole_segments() {
        assert!(path_matches(
            "crates/obs/src/ring.rs",
            "crates/obs/src/ring.rs"
        ));
        assert!(path_matches(
            "/abs/root/crates/obs/src/ring.rs",
            "crates/obs/src/ring.rs"
        ));
        assert!(!path_matches("crates/obs/src/string.rs", "ring.rs"));
        assert!(path_matches("crates/obs/src/ring.rs", "ring.rs"));
    }

    #[test]
    fn atomic_policy_wildcards() {
        assert!(atomic_policy_allows(
            "crates/net/src/tenant.rs",
            "admitted",
            "Relaxed"
        ));
        assert!(!atomic_policy_allows(
            "crates/net/src/tenant.rs",
            "admitted",
            "SeqCst"
        ));
        assert!(atomic_policy_allows(
            "crates/obs/src/ring.rs",
            "seq",
            "Acquire"
        ));
        assert!(!atomic_policy_allows(
            "crates/obs/src/ring.rs",
            "seq",
            "Relaxed"
        ));
    }

    #[test]
    fn justification_keywords() {
        assert!(comment_justifies_ordering(
            "// Relaxed: counter only, no ordering needed"
        ));
        assert!(!comment_justifies_ordering("// bump the number"));
    }
}
