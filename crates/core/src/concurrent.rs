//! Concurrency primitives behind the session's `&self` read path.
//!
//! [`crate::session::AnalysisSession`] serves warm independence checks from
//! shared caches. To let **many threads** call
//! [`check`](crate::session::AnalysisSession::check) on one session at the
//! same time, those caches live behind the two structures here:
//!
//! * [`ShardedMap`] — a hash map split into a fixed number of
//!   independently `RwLock`ed shards. Warm reads take one uncontended read
//!   lock; cold inserts write-lock only the key's shard, so concurrent
//!   checks over different expressions never serialize against each other.
//! * [`EnginePool`] — a checkout pool of [`CdagEngine`]s keyed by the
//!   multiplicity bound `k`. An engine's generation-stamped scratch
//!   workspace makes it cheap to reuse but inherently single-threaded
//!   (`!Sync`); the pool hands each calling thread its own engine and takes
//!   it back when the [`PooledEngine`] guard drops, so scratch reuse
//!   survives across calls *and* across threads without a global lock held
//!   during inference.
//!
//! Both structures are deliberately conservative: plain `std::sync`
//! primitives, no lock-free cleverness, and semantics chosen so that racing
//! writers are *idempotent* (two threads inferring the same `(expression,
//! k)` insert equal values — whichever lands second wins without changing
//! any observable result).

use crate::engine::cdag::CdagEngine;
use crate::fxhash::FxHasher;
use crate::parallel::Jobs;
use qui_schema::SchemaLike;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, RwLock};

/// Number of shards. A small power of two: enough that a handful of worker
/// threads rarely collide on a shard lock, small enough that iterating all
/// shards (never on the hot path) stays trivial.
const SHARDS: usize = 16;

/// A concurrent hash map sharded over `SHARDS` independent `RwLock`ed
/// `HashMap`s.
///
/// Values are returned **by clone** — callers store cheap handles
/// (`Arc<T>`, small PODs) so a read is one lock + one clone and no borrow
/// ever escapes a shard lock.
pub struct ShardedMap<K, V> {
    shards: Vec<RwLock<HashMap<K, V>>>,
}

impl<K: Hash + Eq, V> Default for ShardedMap<K, V> {
    fn default() -> Self {
        ShardedMap {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }
}

impl<K: Hash + Eq, V> ShardedMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    fn shard(&self, key: &K) -> &RwLock<HashMap<K, V>> {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Clones the value under `key`, if present.
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.shard(key).read().unwrap().get(key).cloned()
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.shard(key).read().unwrap().contains_key(key)
    }

    /// Inserts `value` under `key` (replacing any previous value).
    pub fn insert(&self, key: K, value: V) {
        self.shard(&key).write().unwrap().insert(key, value);
    }

    /// Total number of entries across all shards (not atomic with respect
    /// to concurrent writers; used for stats and tests only).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap().len()).sum()
    }

    /// Whether the map has no entries (same caveat as [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A checkout pool of [`CdagEngine`]s, one free-list per multiplicity bound.
///
/// The engine's scratch workspace (mark vectors, adjacency buffers) is what
/// makes warm CDAG checks cheap, but it is interior-mutable and therefore
/// `!Sync`. The pool keeps finished engines on a per-`k` free list: a
/// thread checks one out (or builds a fresh one when the list is empty),
/// runs its inference without holding any lock, and the guard returns the
/// engine — scratch intact — on drop.
pub struct EnginePool<'a, S: SchemaLike> {
    schema: &'a S,
    element_chains: bool,
    jobs: Jobs,
    free: Mutex<HashMap<usize, Vec<CdagEngine<'a, S>>>>,
}

impl<'a, S: SchemaLike> EnginePool<'a, S> {
    /// A pool creating engines over `schema` with the given element-chain
    /// configuration.
    pub fn new(schema: &'a S, element_chains: bool) -> Self {
        EnginePool {
            schema,
            element_chains,
            jobs: Jobs::Fixed(1),
            free: Mutex::new(HashMap::new()),
        }
    }

    /// Worker-count policy handed to every engine the pool creates (see
    /// [`CdagEngine::with_jobs`]): large closure sweeps shard over this many
    /// workers. Results are bit-identical for every value.
    pub fn with_jobs(mut self, jobs: Jobs) -> Self {
        self.jobs = jobs;
        self
    }

    /// Checks out an engine for bound `k`: a pooled one when available, a
    /// fresh one otherwise. The engine returns to the pool when the guard
    /// drops.
    pub fn checkout(&self, k: usize) -> PooledEngine<'_, 'a, S> {
        let pooled = self
            .free
            .lock()
            .unwrap()
            .get_mut(&k)
            .and_then(|v: &mut Vec<CdagEngine<'a, S>>| v.pop());
        let engine = pooled.unwrap_or_else(|| {
            CdagEngine::new(self.schema, k)
                .with_element_chains(self.element_chains)
                .with_jobs(self.jobs)
        });
        PooledEngine {
            pool: self,
            k,
            engine: Some(engine),
        }
    }

    /// Number of idle engines currently pooled (tests/stats only).
    pub fn idle(&self) -> usize {
        self.free.lock().unwrap().values().map(Vec::len).sum()
    }

    fn put_back(&self, k: usize, engine: CdagEngine<'a, S>) {
        let mut free = self.free.lock().unwrap();
        let slot = free.entry(k).or_default();
        // Bound the free list: engines beyond a small per-k cap are dropped
        // rather than hoarded (the cap comfortably covers the worker counts
        // the pool sees; an unbounded list would pin every scratch buffer a
        // burst ever allocated).
        if slot.len() < 32 {
            slot.push(engine);
        }
    }
}

/// RAII guard over a checked-out [`CdagEngine`]; derefs to the engine and
/// returns it to its pool on drop.
pub struct PooledEngine<'p, 'a, S: SchemaLike> {
    pool: &'p EnginePool<'a, S>,
    k: usize,
    engine: Option<CdagEngine<'a, S>>,
}

impl<'p, 'a, S: SchemaLike> std::ops::Deref for PooledEngine<'p, 'a, S> {
    type Target = CdagEngine<'a, S>;

    fn deref(&self) -> &CdagEngine<'a, S> {
        self.engine.as_ref().expect("engine present until drop")
    }
}

impl<'p, 'a, S: SchemaLike> Drop for PooledEngine<'p, 'a, S> {
    fn drop(&mut self) {
        if let Some(engine) = self.engine.take() {
            self.pool.put_back(self.k, engine);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qui_schema::Dtd;
    use std::sync::Arc;

    fn fig1() -> Dtd {
        Dtd::parse_compact("doc -> (a|b)* ; a -> c ; b -> c", "doc").unwrap()
    }

    #[test]
    fn sharded_map_inserts_and_reads_across_threads() {
        let map: ShardedMap<usize, Arc<usize>> = ShardedMap::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let map = &map;
                s.spawn(move || {
                    for i in 0..100 {
                        map.insert(t * 100 + i, Arc::new(i));
                    }
                });
            }
        });
        assert_eq!(map.len(), 400);
        assert_eq!(map.get(&205).as_deref(), Some(&5));
        assert!(map.contains_key(&0));
        assert!(!map.contains_key(&400));
    }

    #[test]
    fn engine_pool_reuses_engines_per_bound() {
        let dtd = fig1();
        let pool = EnginePool::new(&dtd, true);
        assert_eq!(pool.idle(), 0);
        {
            let _e2 = pool.checkout(2);
            let _e3 = pool.checkout(3);
            // Both checked out: nothing idle.
            assert_eq!(pool.idle(), 0);
        }
        // Both returned on drop.
        assert_eq!(pool.idle(), 2);
        {
            let _again = pool.checkout(2);
            // The k=2 engine came off the free list, the k=3 one stayed.
            assert_eq!(pool.idle(), 1);
        }
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn engine_pool_checkout_works_concurrently() {
        let dtd = fig1();
        let pool = EnginePool::new(&dtd, true);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = &pool;
                s.spawn(move || {
                    for _ in 0..50 {
                        let e = pool.checkout(2);
                        // Touch the engine so the checkout is not optimized
                        // away; k() is a cheap accessor.
                        assert_eq!(e.k(), 2);
                    }
                });
            }
        });
        assert!(pool.idle() >= 1);
    }
}
