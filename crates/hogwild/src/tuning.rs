//! Execution tuning knobs shared by all native executors.

use crate::model::{ModelLayout, UpdateOrder};

/// When to take the O(Δ) sparse gradient path instead of the O(d) dense one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SparsePolicy {
    /// Sparse iff the oracle declares a support bound Δ with `4·Δ ≤ d` — the
    /// regime where skipping the dense view scan clearly pays. The default.
    #[default]
    Auto,
    /// Always run the dense path (the paper-faithful full view scan).
    ForceDense,
    /// Run the sparse path whenever the oracle declares *any* support bound
    /// (oracles without one fall back to dense — the sparse machinery needs
    /// a bound to be meaningful).
    ForceSparse,
}

impl SparsePolicy {
    /// Decides the path for a model of dimension `d` and an oracle reporting
    /// `max_support`.
    #[must_use]
    pub fn use_sparse(self, d: usize, max_support: Option<usize>) -> bool {
        match self {
            Self::ForceDense => false,
            Self::ForceSparse => max_support.is_some(),
            Self::Auto => max_support.is_some_and(|s| s.saturating_mul(4) <= d),
        }
    }
}

/// How to shard the parameter store across per-range arenas.
///
/// Resolution to an actual shard count (and router) lives in
/// `crate::shard::ShardPolicy::resolve`; the flat store remains the default
/// because at small `d` the padded flat layout already solves false sharing
/// and the router would be pure overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ShardPolicy {
    /// One flat arena (`SharedModel`) — the default.
    #[default]
    Flat,
    /// Derive the shard count from the detected topology (cores and
    /// coherency-line size).
    Auto,
    /// At most this many power-of-two chunked shards (clamped to `1..=d`;
    /// chunk rounding can realise fewer).
    Fixed(usize),
}

/// Tuning of a native executor's hot loop, orthogonal to the algorithmic
/// configuration (`threads`, `iterations`, `alpha`, …).
///
/// The defaults reproduce the paper-faithful execution on dense oracles and
/// switch Δ-sparse oracles onto the O(Δ) path automatically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecTuning {
    /// Shared-model memory layout (false-sharing avoidance at small d).
    /// Applies to the flat store; sharded stores are always compact within
    /// each arena (the arenas themselves provide the separation).
    pub layout: ModelLayout,
    /// Memory ordering of model reads and `fetch&add`s.
    pub order: UpdateOrder,
    /// Dense-vs-sparse path selection.
    pub sparse: SparsePolicy,
    /// Parameter-store sharding (flat, topology-derived, or fixed count).
    pub shards: ShardPolicy,
    /// Pin worker threads round-robin to cores at spawn (best effort; a
    /// failed pin is ignored). Off by default.
    pub pin: bool,
}

impl Default for ExecTuning {
    fn default() -> Self {
        Self {
            layout: ModelLayout::Compact,
            order: UpdateOrder::SeqCst,
            sparse: SparsePolicy::Auto,
            shards: ShardPolicy::Flat,
            pin: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_policy_requires_headroom() {
        let p = SparsePolicy::Auto;
        assert!(p.use_sparse(16, Some(1)), "Δ=1, d=16");
        assert!(p.use_sparse(4, Some(1)), "Δ=1, d=4 is the boundary");
        assert!(!p.use_sparse(3, Some(1)), "Δ=1, d=3: too dense to pay off");
        assert!(!p.use_sparse(1 << 20, None), "dense oracle stays dense");
    }

    #[test]
    fn force_policies() {
        assert!(!SparsePolicy::ForceDense.use_sparse(1 << 20, Some(1)));
        assert!(SparsePolicy::ForceSparse.use_sparse(2, Some(1)));
        assert!(
            !SparsePolicy::ForceSparse.use_sparse(2, None),
            "no support bound ⇒ no sparse path even when forced"
        );
    }

    #[test]
    fn default_tuning_is_paper_faithful_with_auto_sparse() {
        let t = ExecTuning::default();
        assert_eq!(t.layout, ModelLayout::Compact);
        assert_eq!(t.order, UpdateOrder::SeqCst);
        assert_eq!(t.sparse, SparsePolicy::Auto);
        assert_eq!(t.shards, ShardPolicy::Flat, "flat store is the default");
        assert!(!t.pin, "pinning defaults off");
    }
}
