//! Reusable solver buffers: allocation-free steady-state solves.
//!
//! Every kernel solve needs a handful of `O(n)` `f64` working vectors
//! (current scores, next scores, dense teleport — and `O(n·lanes)`
//! interleaves for batches). Before this module existed each solve
//! allocated them fresh, which under request-serving traffic means three
//! large allocations *per query* and a working set that hops around the
//! heap. A [`SolverArena`] is one bounded free list of such buffers (the
//! kernel has one score precision, so there is one pool):
//! [`SolverArena::take`] checks one out (reusing capacity when a returned
//! buffer is big enough), the [`ArenaBuf`] guard returns it on drop, and
//! [`ArenaBuf::detach`] lets a result vector escape permanently (the one
//! unavoidable allocation of a full-rank solve — the top-k serving path
//! never detaches, so it is allocation-free after warm-up).
//!
//! The arena to use is resolved per thread: [`with_arena`] scopes a
//! specific arena (the engine executor scopes its per-dataset pool around
//! every solve), and everything outside such a scope shares one global
//! arena. Checkout happens on the solving thread *before* the parallel
//! scheme fans out to its scoped workers, so the thread-local lookup never
//! races.
//!
//! [`SolverArena::allocations`] counts every fresh or growing allocation —
//! the counting hook the zero-allocation steady-state tests (and the
//! `topk_serving` bench) assert against.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Buffers kept in the free list beyond this are dropped instead of
/// pooled.
const MAX_POOLED: usize = 32;

/// Total pooled capacity cap in bytes (128 MiB): enough to keep
/// one full batch solve's working set (three `n × MAX_FUSED_LANES`
/// interleaves) warm on graphs into the millions of nodes, while
/// guaranteeing an idle arena never retains more than this — without it,
/// a burst of wide batches would pin 32 jumbo buffers per dataset
/// forever. When over budget the *largest* buffers go first: that is
/// what actually frees memory (count-based eviction of small buffers
/// would leave the jumbos resident).
const MAX_POOLED_BYTES: usize = 128 * 1024 * 1024;

/// A bounded, thread-safe free list of `f64` solver buffers.
#[derive(Debug, Default)]
pub struct SolverArena {
    free: Mutex<Vec<Vec<f64>>>,
    allocations: AtomicU64,
}

impl SolverArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        SolverArena::default()
    }

    /// The process-wide fallback arena used by solves outside any
    /// [`with_arena`] scope.
    pub fn global() -> &'static Arc<SolverArena> {
        static GLOBAL: OnceLock<Arc<SolverArena>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(SolverArena::new()))
    }

    /// Checks out a zero-filled buffer of length `n`, reusing pooled
    /// capacity when possible (best fit: the smallest pooled buffer that
    /// holds `n`; too-small buffers stay pooled for smaller checkouts, so
    /// mixed-size traffic — single solves and wide batches sharing one
    /// per-dataset arena — reuses instead of churning). Counts an
    /// allocation only when nothing pooled fits.
    pub fn take(self: &Arc<Self>, n: usize) -> ArenaBuf {
        let recycled = {
            let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
            // The list is kept sorted by capacity (see `give`), so the
            // best fit is the first buffer at or past `n`.
            let pos = free.partition_point(|b| b.capacity() < n);
            (pos < free.len()).then(|| free.remove(pos))
        };
        let mut buf = match recycled {
            Some(b) => b,
            None => {
                self.allocations.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(n)
            }
        };
        buf.clear();
        buf.resize(n, 0.0);
        ArenaBuf { arena: Arc::clone(self), buf }
    }

    /// Buffers currently pooled (diagnostic).
    pub fn pooled(&self) -> usize {
        self.free.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Total fresh/growing buffer allocations since construction — the
    /// counting hook for zero-allocation steady-state assertions.
    pub fn allocations(&self) -> u64 {
        self.allocations.load(Ordering::Relaxed)
    }

    fn give(&self, buf: Vec<f64>) {
        if buf.capacity() == 0 {
            return; // detached guards drop an empty shell
        }
        let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
        // Keep the list sorted by capacity so `take` can best-fit search.
        let pos = free.partition_point(|b| b.capacity() <= buf.capacity());
        free.insert(pos, buf);
        if free.len() > MAX_POOLED {
            // Count bound: evict the smallest — large buffers are the
            // expensive ones to re-create and serve any smaller checkout.
            free.remove(0);
        }
        // Byte bound: evict the largest until under budget (always
        // keeping at least one buffer so a steady single-size workload
        // larger than the budget still reuses).
        let elem = std::mem::size_of::<f64>();
        let mut total: usize = free.iter().map(|b| b.capacity() * elem).sum();
        while total > MAX_POOLED_BYTES && free.len() > 1 {
            total -= free.pop().map(|b| b.capacity() * elem).unwrap_or(0);
        }
    }
}

/// A checked-out arena buffer; dereferences to its `Vec<f64>` and returns
/// the capacity to the pool on drop.
#[derive(Debug)]
pub struct ArenaBuf {
    arena: Arc<SolverArena>,
    buf: Vec<f64>,
}

impl ArenaBuf {
    /// Takes the buffer out of arena management permanently — used when a
    /// solve's final score vector escapes to the caller. The pool replaces
    /// it with a fresh allocation on a later checkout (counted by
    /// [`SolverArena::allocations`]).
    pub fn detach(mut self) -> Vec<f64> {
        std::mem::take(&mut self.buf)
    }
}

impl Deref for ArenaBuf {
    type Target = Vec<f64>;

    fn deref(&self) -> &Vec<f64> {
        &self.buf
    }
}

impl DerefMut for ArenaBuf {
    fn deref_mut(&mut self) -> &mut Vec<f64> {
        &mut self.buf
    }
}

impl Drop for ArenaBuf {
    fn drop(&mut self) {
        self.arena.give(std::mem::take(&mut self.buf));
    }
}

thread_local! {
    static CURRENT: RefCell<Vec<Arc<SolverArena>>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with `arena` as the thread's current solver arena: every
/// kernel solve started by `f` on this thread checks its buffers out of
/// `arena` instead of the global one. Scopes nest; the engine executor
/// wraps each task in the owning dataset's arena.
pub fn with_arena<R>(arena: &Arc<SolverArena>, f: impl FnOnce() -> R) -> R {
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            CURRENT.with(|c| c.borrow_mut().pop());
        }
    }
    CURRENT.with(|c| c.borrow_mut().push(Arc::clone(arena)));
    let _pop = Pop;
    f()
}

/// The arena the current thread's solves draw from: the innermost
/// [`with_arena`] scope, or the global arena.
pub fn current_arena() -> Arc<SolverArena> {
    CURRENT
        .with(|c| c.borrow().last().cloned())
        .unwrap_or_else(|| Arc::clone(SolverArena::global()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_capacity() {
        let arena = Arc::new(SolverArena::new());
        {
            let _a = arena.take(100);
        }
        assert_eq!(arena.allocations(), 1);
        assert_eq!(arena.pooled(), 1);
        {
            let b = arena.take(80); // fits in the recycled buffer
            assert_eq!(b.len(), 80);
            assert!(b.iter().all(|&v| v == 0.0));
        }
        assert_eq!(arena.allocations(), 1, "reuse must not allocate");
    }

    #[test]
    fn growth_counts_as_allocation() {
        let arena = Arc::new(SolverArena::new());
        drop(arena.take(10));
        drop(arena.take(1000)); // pooled 10-cap buffer is too small
        assert_eq!(arena.allocations(), 2);
        drop(arena.take(500)); // the 1000-cap buffer serves this
        assert_eq!(arena.allocations(), 2);
    }

    #[test]
    fn mixed_size_workloads_reuse_best_fit() {
        let arena = Arc::new(SolverArena::new());
        drop(arena.take(100));
        drop(arena.take(1000)); // 100-cap doesn't fit and stays pooled
        assert_eq!(arena.allocations(), 2);
        {
            // Small checkout best-fits the small buffer, sparing the big.
            let b = arena.take(50);
            assert!(b.capacity() >= 50 && b.capacity() < 1000);
        }
        // Alternating solve/batch-shaped traffic never allocates again.
        for _ in 0..10 {
            drop(arena.take(100));
            drop(arena.take(1000));
        }
        assert_eq!(arena.allocations(), 2);
    }

    #[test]
    fn buffers_zeroed_on_checkout() {
        let arena = Arc::new(SolverArena::new());
        {
            let mut a = arena.take(8);
            a.iter_mut().for_each(|v| *v = 7.0);
        }
        let b = arena.take(8);
        assert!(b.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn detach_escapes_and_pool_refills() {
        let arena = Arc::new(SolverArena::new());
        let v = arena.take(16).detach();
        assert_eq!(v.len(), 16);
        assert_eq!(arena.pooled(), 0, "detached buffers don't return");
        drop(arena.take(16));
        assert_eq!(arena.allocations(), 2);
    }

    #[test]
    fn pool_is_bounded() {
        let arena = Arc::new(SolverArena::new());
        let bufs: Vec<_> = (0..MAX_POOLED + 10).map(|_| arena.take(4)).collect();
        drop(bufs);
        assert!(arena.pooled() <= MAX_POOLED);
    }

    #[test]
    fn pool_bytes_are_bounded() {
        let arena = Arc::new(SolverArena::new());
        // Four buffers of half the byte budget each can't all stay.
        let big = MAX_POOLED_BYTES / std::mem::size_of::<f64>() / 2;
        let bufs: Vec<_> = (0..4).map(|_| arena.take(big)).collect();
        drop(bufs);
        let total: usize = (0..arena.pooled()).count() * big;
        assert!(total * 8 <= MAX_POOLED_BYTES, "pooled {} buffers of {big}", arena.pooled());
        assert!(arena.pooled() >= 1, "at least one buffer stays for reuse");
    }

    #[test]
    fn scoped_arena_wins_over_global() {
        let mine = Arc::new(SolverArena::new());
        with_arena(&mine, || {
            let inner = current_arena();
            assert!(Arc::ptr_eq(&inner, &mine));
            let nested = Arc::new(SolverArena::new());
            with_arena(&nested, || {
                assert!(Arc::ptr_eq(&current_arena(), &nested));
            });
            assert!(Arc::ptr_eq(&current_arena(), &mine));
        });
        assert!(Arc::ptr_eq(&current_arena(), SolverArena::global()));
    }
}
