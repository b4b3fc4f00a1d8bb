//! Job-scoped reuse of stationary vectors.
//!
//! Six of the seven built-ins read stationary distributions: PageRank,
//! PPR, CheiRank and Pers. CheiRank one each, and both 2DRank variants
//! two, which they only combine with the square sweep. Each algorithm
//! declares the vectors it reads as [`StationaryRead`]s
//! ([`crate::RelevanceAlgorithm::stationary_reads`]); the default is
//! none, so CycleRank and third-party algorithms never touch a memo.
//!
//! A [`VectorMemo`] lets the rows of one job — the engine groups the rows
//! of a query set that read a common vector — solve each vector once.
//! [`with_vector_memo`] installs it for the calling thread the way
//! [`crate::arena::with_arena`] installs an arena, together with the
//! version of the graph the rows run on. The full-rank single-seed path
//! of [`crate::builtin::Stationary`] and both solves of
//! [`crate::tworank::two_d_rank_with`] fetch their vectors through it.
//! Outside any scope a fetch is a plain solve.
//!
//! A memo is told up front which reads its job will make, and keeps a
//! solved vector only while a later read of that vector is still due:
//! the last reader takes it, so a one-row job keeps nothing and copies
//! nothing. A job has one teleport and one configuration, so a memo
//! holds at most one vector per orientation, and it frees them when the
//! job drops it. There is no global cache.
//!
//! A reused vector carries the bits a fresh solve would produce: the key
//! (`vector_key`) is the graph version, the orientation, the teleport
//! reference and every [`SolverConfig`] field that changes the vector or
//! its convergence record.

use crate::error::AlgoError;
use crate::solver::{Scheme, SolverConfig, SweepOutcome};
use relgraph::{DirectedGraph, GraphView, NodeId};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Which orientation of the graph a stationary vector is solved on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Orientation {
    /// The graph as given (the PageRank side).
    Forward,
    /// The transposed graph (the CheiRank side).
    Transposed,
}

impl Orientation {
    /// The view of `graph` in this orientation.
    pub(crate) fn view(self, graph: &DirectedGraph) -> GraphView<'_> {
        match self {
            Orientation::Forward => graph.view(),
            Orientation::Transposed => graph.transposed(),
        }
    }
}

/// Where a stationary vector's random walk teleports to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Teleport {
    /// Uniformly to every node (the global algorithms).
    Uniform,
    /// To the run's reference node (the personalized algorithms).
    Reference,
}

/// One stationary vector an algorithm reads: orientation × teleport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StationaryRead {
    /// The graph orientation the vector is solved on.
    pub orientation: Orientation,
    /// Where the walk teleports.
    pub teleport: Teleport,
}

impl StationaryRead {
    /// The read of `orientation` × `teleport`.
    pub(crate) const fn new(orientation: Orientation, teleport: Teleport) -> Self {
        StationaryRead { orientation, teleport }
    }
}

/// What identifies a solved vector: equal keys mean equal bits.
#[derive(Debug, Clone, Copy, PartialEq)]
struct VectorKey {
    version: u64,
    orientation: Orientation,
    reference: Option<NodeId>,
    damping: u64,
    tolerance: u64,
    max_iterations: usize,
    scheme: Scheme,
    record_trace: bool,
}

impl VectorKey {
    fn read(&self) -> StationaryRead {
        let teleport =
            if self.reference.is_some() { Teleport::Reference } else { Teleport::Uniform };
        StationaryRead::new(self.orientation, teleport)
    }
}

/// The memo key of the vector solved on graph `version` in `orientation`,
/// teleporting to `reference` (uniformly when `None`), under `cfg`.
fn vector_key(
    version: u64,
    orientation: Orientation,
    reference: Option<NodeId>,
    cfg: &SolverConfig,
) -> VectorKey {
    VectorKey {
        version,
        orientation,
        reference,
        damping: cfg.damping.to_bits(),
        tolerance: cfg.tolerance.to_bits(),
        max_iterations: cfg.max_iterations,
        scheme: cfg.scheme,
        record_trace: cfg.record_trace,
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// Solved vectors a later read is still due for.
    kept: RefCell<Vec<(VectorKey, Rc<SweepOutcome>)>>,
    /// Reads still due, per read kind.
    due: RefCell<Vec<(StationaryRead, usize)>>,
    reads: Cell<usize>,
    reused: Cell<usize>,
}

/// The stationary vectors one job has solved and will read again. A
/// cheap handle: clones share one memo. Not `Send`: a job runs on one
/// thread. `VectorMemo::default()` expects no reads, so it keeps nothing
/// and every fetch through it solves.
#[derive(Debug, Clone, Default)]
pub struct VectorMemo(Rc<Inner>);

impl VectorMemo {
    /// A memo for a job whose rows will make `reads`, one item per row
    /// per vector read. A vector is kept only while a read of its kind is
    /// still due.
    pub fn new(reads: impl IntoIterator<Item = StationaryRead>) -> Self {
        let mut due: Vec<(StationaryRead, usize)> = Vec::new();
        for read in reads {
            match due.iter_mut().find(|(r, _)| *r == read) {
                Some((_, n)) => *n += 1,
                None => due.push((read, 1)),
            }
        }
        VectorMemo(Rc::new(Inner { due: RefCell::new(due), ..Inner::default() }))
    }

    /// Vectors fetched through this memo so far.
    pub fn reads(&self) -> usize {
        self.0.reads.get()
    }

    /// Of [`VectorMemo::reads`], those answered by a vector an earlier
    /// read solved.
    pub fn reused(&self) -> usize {
        self.0.reused.get()
    }

    /// Vectors currently kept for a later read.
    pub fn kept(&self) -> usize {
        self.0.kept.borrow().len()
    }

    /// Counts one read of `key`'s kind; returns whether another is still
    /// due after it.
    fn take_due(&self, key: &VectorKey) -> bool {
        let read = key.read();
        let mut due = self.0.due.borrow_mut();
        match due.iter_mut().find(|(r, _)| *r == read) {
            Some((_, n)) => {
                *n = n.saturating_sub(1);
                *n > 0
            }
            None => false,
        }
    }

    fn fetch(
        &self,
        key: VectorKey,
        solve: impl FnOnce() -> Result<SweepOutcome, AlgoError>,
    ) -> Result<Rc<SweepOutcome>, AlgoError> {
        let inner = &self.0;
        inner.reads.set(inner.reads.get() + 1);
        let more_due = self.take_due(&key);
        let hit = {
            let mut kept = inner.kept.borrow_mut();
            kept.iter().position(|(k, _)| *k == key).map(|at| {
                if more_due {
                    Rc::clone(&kept[at].1)
                } else {
                    kept.swap_remove(at).1
                }
            })
        };
        if let Some(vector) = hit {
            inner.reused.set(inner.reused.get() + 1);
            return Ok(vector);
        }
        let vector = Rc::new(solve()?);
        if more_due {
            // A job has one teleport and one config, so a kept vector of
            // the same kind is from an older graph version: replace it.
            let mut kept = inner.kept.borrow_mut();
            kept.retain(|(k, _)| k.read() != key.read());
            kept.push((key, Rc::clone(&vector)));
        }
        Ok(vector)
    }
}

thread_local! {
    static CURRENT: RefCell<Vec<(VectorMemo, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with `memo` as the thread's vector memo for graph `version`:
/// the stationary solves `f` starts on this thread fetch their vectors
/// through it. A memo serves the rows of one job, which run on one
/// dataset; `version` keeps a vector solved before an edit from
/// answering a read after it. Scopes nest.
pub fn with_vector_memo<R>(memo: &VectorMemo, version: u64, f: impl FnOnce() -> R) -> R {
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            CURRENT.with(|c| c.borrow_mut().pop());
        }
    }
    CURRENT.with(|c| c.borrow_mut().push((memo.clone(), version)));
    let _pop = Pop;
    f()
}

/// The stationary vector of `orientation` × `reference` under `cfg`:
/// from the thread's memo when an earlier read of its job solved it,
/// otherwise from `solve`. The caller owns the result outright when no
/// later read is due.
pub(crate) fn stationary(
    orientation: Orientation,
    reference: Option<NodeId>,
    cfg: &SolverConfig,
    solve: impl FnOnce() -> Result<SweepOutcome, AlgoError>,
) -> Result<Rc<SweepOutcome>, AlgoError> {
    match CURRENT.with(|c| c.borrow().last().cloned()) {
        Some((memo, version)) => {
            memo.fetch(vector_key(version, orientation, reference, cfg), solve)
        }
        None => solve().map(Rc::new),
    }
}

/// The outcome itself when no one else holds it, else a copy.
pub(crate) fn owned(vector: Rc<SweepOutcome>) -> SweepOutcome {
    Rc::try_unwrap(vector).unwrap_or_else(|shared| SweepOutcome::clone(&shared))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::ScoreVector;
    use crate::solver::Convergence;

    const FORWARD_UNIFORM: StationaryRead =
        StationaryRead::new(Orientation::Forward, Teleport::Uniform);
    const TRANSPOSED_UNIFORM: StationaryRead =
        StationaryRead::new(Orientation::Transposed, Teleport::Uniform);

    fn outcome(tag: f64) -> SweepOutcome {
        SweepOutcome {
            scores: ScoreVector::new(vec![tag]),
            convergence: Convergence { iterations: 1, residual: 0.0, converged: true },
            trace: None,
        }
    }

    /// Fetches the forward uniform vector, counting solves.
    fn fetch(cfg: &SolverConfig, solves: &Cell<usize>, tag: f64) -> Rc<SweepOutcome> {
        stationary(Orientation::Forward, None, cfg, || {
            solves.set(solves.get() + 1);
            Ok(outcome(tag))
        })
        .unwrap()
    }

    #[test]
    fn a_due_vector_is_solved_once_and_the_last_reader_takes_it() {
        let memo = VectorMemo::new([FORWARD_UNIFORM, FORWARD_UNIFORM, TRANSPOSED_UNIFORM]);
        let (cfg, solves) = (SolverConfig::default(), Cell::new(0));
        with_vector_memo(&memo, 0, || {
            let first = fetch(&cfg, &solves, 1.0);
            assert_eq!(memo.kept(), 1, "a second read is due");
            drop(first);
            let second = fetch(&cfg, &solves, 2.0);
            assert_eq!(second.scores.as_slice(), &[1.0], "the first solve answers");
            assert_eq!(memo.kept(), 0, "no read is due any more");
            assert_eq!(Rc::strong_count(&second), 1, "the last reader owns it");
        });
        assert_eq!((solves.get(), memo.reads(), memo.reused()), (1, 2, 1));
    }

    #[test]
    fn a_vector_no_later_read_needs_is_not_kept() {
        let memo = VectorMemo::new([FORWARD_UNIFORM]);
        let (cfg, solves) = (SolverConfig::default(), Cell::new(0));
        with_vector_memo(&memo, 0, || {
            let only = fetch(&cfg, &solves, 1.0);
            assert_eq!(Rc::strong_count(&only), 1);
        });
        assert_eq!(memo.kept(), 0);
    }

    #[test]
    fn every_key_part_separates_vectors() {
        let base = SolverConfig::default();
        let variants = [
            SolverConfig { damping: 0.5, ..base },
            SolverConfig { tolerance: 1e-6, ..base },
            SolverConfig { max_iterations: 7, ..base },
            base.with_scheme(Scheme::Power),
            base.with_trace(),
        ];
        for (i, cfg) in variants.iter().enumerate() {
            let memo = VectorMemo::new([FORWARD_UNIFORM; 2]);
            let solves = Cell::new(0);
            with_vector_memo(&memo, 0, || {
                fetch(&base, &solves, 1.0);
                fetch(cfg, &solves, 2.0);
            });
            assert_eq!(solves.get(), 2, "config variant {i} must not reuse");
        }
        let to_reference = StationaryRead::new(Orientation::Forward, Teleport::Reference);
        let memo = VectorMemo::new([to_reference; 2]);
        let solves = Cell::new(0);
        with_vector_memo(&memo, 0, || {
            for node in [0, 1] {
                let reference = Some(NodeId::new(node));
                stationary(Orientation::Forward, reference, &base, || {
                    solves.set(solves.get() + 1);
                    Ok(outcome(1.0))
                })
                .unwrap();
            }
        });
        assert_eq!(solves.get(), 2, "another reference is another vector");
        let memo = VectorMemo::new([FORWARD_UNIFORM; 2]);
        let solves = Cell::new(0);
        with_vector_memo(&memo, 0, || fetch(&base, &solves, 1.0));
        let later = with_vector_memo(&memo, 1, || fetch(&base, &solves, 2.0));
        assert_eq!(solves.get(), 2, "a new graph version never reuses");
        assert_eq!(later.scores.as_slice(), &[2.0]);
        // Thread count does not change the bits, so it shares.
        let memo = VectorMemo::new([FORWARD_UNIFORM; 2]);
        let solves = Cell::new(0);
        with_vector_memo(&memo, 0, || {
            fetch(&base, &solves, 1.0);
            fetch(&base.with_threads(3), &solves, 2.0);
        });
        assert_eq!(solves.get(), 1);
    }

    #[test]
    fn outside_a_scope_every_fetch_solves() {
        let (cfg, solves) = (SolverConfig::default(), Cell::new(0));
        fetch(&cfg, &solves, 1.0);
        fetch(&cfg, &solves, 1.0);
        assert_eq!(solves.get(), 2);
    }

    #[test]
    fn a_failed_solve_keeps_nothing() {
        let memo = VectorMemo::new([FORWARD_UNIFORM; 2]);
        let cfg = SolverConfig::default();
        with_vector_memo(&memo, 0, || {
            let failed =
                stationary(Orientation::Forward, None, &cfg, || Err(AlgoError::EmptyGraph));
            assert!(failed.is_err());
        });
        assert_eq!((memo.kept(), memo.reused()), (0, 0));
    }
}
