//! The per-process telemetry handle: one slab per shard plus one
//! pool-level slab, all allocated up front. It is the one store of every
//! count the engines, the pool and the ingest tier keep.

use std::sync::Arc;

use crate::slab::ShardSlab;
use crate::snapshot::Snapshot;

/// Owns every metric slab. Shards hold `Arc`s to their slab and record
/// independently; the registry merges them deterministically at snapshot
/// time.
#[derive(Debug)]
pub struct Registry {
    shards: Vec<Arc<ShardSlab>>,
    pool: Arc<ShardSlab>,
}

impl Registry {
    /// Allocate `shards` shard slabs plus the pool-level slab.
    ///
    /// # Panics
    /// If `shards == 0`.
    pub fn new(shards: usize) -> Self {
        Self::over((0..shards).map(|_| Arc::new(ShardSlab::new())).collect())
    }

    /// A registry over shard slabs that already exist (a standalone
    /// engine's own slab), plus a fresh pool-level slab.
    ///
    /// # Panics
    /// If `shards` is empty.
    pub fn over(shards: Vec<Arc<ShardSlab>>) -> Self {
        assert!(!shards.is_empty(), "registry needs at least one shard slab");
        Self {
            shards,
            pool: Arc::new(ShardSlab::new()),
        }
    }

    /// A registry over `shards` shard slabs that shares this one's pool
    /// slab and its first `shards` shard slabs, with fresh slabs past them.
    ///
    /// # Panics
    /// If `shards == 0`.
    pub fn resized(&self, shards: usize) -> Self {
        assert!(shards > 0, "registry needs at least one shard slab");
        let kept = shards.min(self.shards.len());
        Self {
            shards: self.shards[..kept]
                .iter()
                .cloned()
                .chain((kept..shards).map(|_| Arc::new(ShardSlab::new())))
                .collect(),
            pool: Arc::clone(&self.pool),
        }
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Borrow shard `i`'s slab.
    ///
    /// # Panics
    /// If `i >= shard_count()`.
    pub fn shard(&self, i: usize) -> &ShardSlab {
        &self.shards[i]
    }

    /// Clone shard `i`'s slab handle, for handing to a worker.
    pub fn shard_slab(&self, i: usize) -> Arc<ShardSlab> {
        Arc::clone(&self.shards[i])
    }

    /// The pool-level slab (batch sizes, merge time, central sweeps).
    pub fn pool(&self) -> &ShardSlab {
        &self.pool
    }

    /// Clone the pool-level slab handle, for components that record
    /// pool-wide metrics off-thread (e.g. the flight recorder).
    pub fn pool_slab(&self) -> Arc<ShardSlab> {
        Arc::clone(&self.pool)
    }

    /// Copy every slab into an owned, serializable snapshot stamped with
    /// the caller's clock.
    pub fn snapshot(&self, time_ms: u64) -> Snapshot {
        Snapshot {
            time_ms,
            shards: self.shards.iter().map(|s| s.snapshot()).collect(),
            pool: self.pool.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Counter;

    #[test]
    fn shard_records_merge_into_one_total() {
        let reg = Registry::new(3);
        reg.shard(0).add(Counter::Transitions, 10);
        reg.shard(2).add(Counter::Transitions, 5);
        reg.pool().inc(Counter::BatchesIngested);

        let snap = reg.snapshot(42);
        assert_eq!(snap.time_ms, 42);
        assert_eq!(snap.shards.len(), 3);
        let merged = snap.merged();
        assert_eq!(merged.counter(Counter::Transitions), 15);
        assert_eq!(merged.counter(Counter::BatchesIngested), 1);
    }

    #[test]
    fn resize_keeps_the_surviving_slabs() {
        let reg = Registry::new(2);
        reg.shard(1).add(Counter::Transitions, 7);
        reg.pool().inc(Counter::BatchesIngested);

        let grown = reg.resized(3);
        assert_eq!(grown.shard_count(), 3);
        assert!(Arc::ptr_eq(&grown.shard_slab(1), &reg.shard_slab(1)));
        assert!(Arc::ptr_eq(&grown.pool_slab(), &reg.pool_slab()));
        assert_eq!(grown.shard(2).get(Counter::Transitions), 0);

        let shrunk = grown.resized(1);
        assert_eq!(shrunk.shard_count(), 1);
        assert_eq!(
            shrunk
                .snapshot(0)
                .merged()
                .counter(Counter::BatchesIngested),
            1
        );
        assert_eq!(shrunk.snapshot(0).merged().counter(Counter::Transitions), 0);
    }
}
