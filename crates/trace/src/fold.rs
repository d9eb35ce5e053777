//! The fold-style kernel contract and the one scheduler that runs it.
//!
//! Every heavy analysis kernel has the same shape: an accumulator is
//! initialized, each network-aligned view of the probes is folded into it,
//! and a finish step distills it into the kernel's output. A kernel folds
//! a view as **units** (a network, a range of probe sets, a (threshold,
//! network) pair), each mapped to a **piece** on its own and merged into
//! the partial in unit order. [`FoldKernel`] names that shape; [`run_fold`]
//! drives one kernel over one whole view, and [`Running`] pairs a kernel
//! with its partial so a caller can drive many kernels over views as they
//! arrive (the streaming build folds every kernel over each sealed part).
//!
//! ## One parallel level
//!
//! Kernels never call `par_iter`. [`fold_all`] puts the units of every
//! scheduled kernel into one list, network-major, and [`map_in_order`]
//! runs it: workers claim units in list order, and pieces are merged in
//! list order as they finish, with at most `4 × threads` unmerged. So the
//! units of one large network spread over every worker instead of holding
//! up one kernel.
//!
//! ## Byte-identity contract
//!
//! Each kernel's **single** partial is threaded through the views in
//! network order, and through each view's pieces in unit order, never
//! combined from separate partials after the fact. A piece depends only
//! on its unit, so every kernel sees exactly the accumulation sequence of
//! one walk over the whole dataset (order-sensitive float sums included),
//! at any thread count and beside any other kernels.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use mesh11_phy::Phy;
use rayon::prelude::*;

use crate::dataset::NetworkMeta;
use crate::ids::NetworkId;
use crate::index::{DatasetView, NetworkView};

/// A fold-style analysis kernel: `init → (units → pieces → merge)* →
/// finish`, one round of units per view.
pub trait FoldKernel: Sync {
    /// The accumulated state threaded through the views.
    type Partial: Send;
    /// What one unit maps to.
    type Piece: Send;
    /// The finished analysis result.
    type Output;
    /// Whether the units read the view's per-probe columns, which are then
    /// built before any unit runs.
    const COLUMNS: bool = false;

    /// A fresh (empty) partial.
    fn init(&self) -> Self::Partial;

    /// A view's units in merge order; the networks they read do not
    /// decrease.
    fn units<'a>(&'a self, view: DatasetView<'a>) -> Vec<Unit<'a, Self::Piece>>;

    /// Merges the next piece, in unit order, into the partial.
    fn merge(&self, partial: &mut Self::Partial, piece: Self::Piece);

    /// Distills the accumulated partial into the kernel's output.
    fn finish(&self, partial: Self::Partial) -> Self::Output;
}

/// Runs one kernel to completion over one whole view.
pub fn run_fold<K: FoldKernel>(view: DatasetView<'_>, kernel: &K) -> K::Output {
    let mut partial = kernel.init();
    fold_all(plan(kernel, &mut partial, view));
    kernel.finish(partial)
}

/// One unit of a view's work: the network it reads, and the map to its
/// piece, run on any worker.
pub type Unit<'a, P> = (NetworkId, Box<dyn Fn() -> P + Sync + 'a>);

/// One unit per network: `piece` of each of the view's groups of `phy`.
pub fn network_units<'a, P>(
    view: DatasetView<'a>,
    phy: Phy,
    piece: impl Fn(NetworkView<'a>) -> P + Sync + Copy + 'a,
) -> Vec<Unit<'a, P>> {
    let nets = view.network_views(phy).into_iter();
    nets.map(|nv| unit(nv.network(), move || piece(nv)))
        .collect()
}

/// One unit per network that `keep` keeps: `piece` of its metadata.
pub fn meta_units<'a, P>(
    view: DatasetView<'a>,
    keep: impl Fn(&NetworkMeta) -> bool,
    piece: impl Fn(&'a NetworkMeta) -> P + Sync + Copy + 'a,
) -> Vec<Unit<'a, P>> {
    let metas = view.networks().iter().filter(|m| keep(m));
    metas.map(|m| unit(m.id, move || piece(m))).collect()
}

/// A unit of `network` that maps to `piece()`.
pub fn unit<'a, P>(network: NetworkId, piece: impl Fn() -> P + Sync + 'a) -> Unit<'a, P> {
    (network, Box::new(piece))
}

/// A scheduled unit: the network it reads, and the work that maps its
/// piece and returns the merge of it.
pub type Job<'a> = (NetworkId, Box<dyn Fn() -> Merge<'a> + Sync + 'a>);

/// Merges one piece into its kernel's partial.
pub type Merge<'a> = Box<dyn FnOnce() + Send + 'a>;

/// `kernel`'s units over `view` as jobs merging into `partial`; builds
/// the view's columns first if the kernel reads them.
pub fn plan<'a, K: FoldKernel>(
    kernel: &'a K,
    partial: &'a mut K::Partial,
    view: DatasetView<'a>,
) -> Vec<Job<'a>> {
    if K::COLUMNS {
        view.columns();
    }
    let partial = Arc::new(Mutex::new(partial));
    let mut floor = NetworkId(0);
    let units = kernel.units(view).into_iter();
    let jobs = units.map(|(net, piece)| {
        // A running maximum, so the stable sort keeps the kernel's order.
        floor = floor.max(net);
        let partial = Arc::clone(&partial);
        let job = move || -> Merge<'a> {
            let (piece, partial) = (piece(), Arc::clone(&partial));
            Box::new(move || kernel.merge(&mut lock(&partial), piece))
        };
        (floor, Box::new(job) as Box<dyn Fn() -> Merge<'a> + Sync>)
    });
    jobs.collect()
}

/// Folds one network-aligned view into every kernel `jobs` were planned
/// for, as one list run by [`map_in_order`]: network-major, and in plan
/// order within a network.
pub fn fold_all(mut jobs: Vec<Job<'_>>) {
    jobs.sort_by_key(|job| job.0);
    map_in_order(&jobs, |job| (job.1)(), |merge| merge());
}

/// The object-safe face of a running fold, so a caller can drive a
/// heterogeneous set of kernels over the same views.
pub trait WindowFold: Send {
    /// Plans this kernel's units over `view`, to be scheduled beside other
    /// kernels' by [`fold_all`].
    fn plan<'a>(&'a mut self, view: DatasetView<'a>) -> Vec<Job<'a>>;

    /// Folds one view into this kernel's partial, scheduled alone.
    fn fold_window(&mut self, view: DatasetView<'_>) {
        fold_all(self.plan(view));
    }
}

/// A kernel paired with its in-flight partial. Construct one per kernel,
/// fold each view into all of them, then take each output with
/// [`Running::finish`].
pub struct Running<K: FoldKernel> {
    kernel: K,
    partial: K::Partial,
}

impl<K: FoldKernel> Running<K> {
    /// Starts a kernel with a fresh partial.
    pub fn new(kernel: K) -> Self {
        let partial = kernel.init();
        Self { kernel, partial }
    }

    /// Finishes the fold, consuming the runner.
    pub fn finish(self) -> K::Output {
        self.kernel.finish(self.partial)
    }
}

impl<K: FoldKernel + Send> WindowFold for Running<K> {
    fn plan<'a>(&'a mut self, view: DatasetView<'a>) -> Vec<Job<'a>> {
        plan(&self.kernel, &mut self.partial, view)
    }
}

/// The shared state of [`map_in_order`].
struct Queue<R> {
    /// The next item to claim.
    next: usize,
    /// Items before this one are merged; claims stay within a window of it.
    merged: usize,
    /// Each claimed, unmerged item's result, once mapped, from `merged` on.
    done: VecDeque<Option<R>>,
    /// Whether a worker is merging; only one does at a time.
    merging: bool,
    /// Set when a worker panics, so no other waits for its result.
    failed: bool,
}

/// Maps `items` on the pool's workers and hands each result to `merge`
/// in item order. Workers claim items in order, at most `4 × threads`
/// past the last merged one, and whichever worker finds the oldest result
/// ready merges every ready result in order, so nothing waits for a whole
/// batch and the merges run where the pieces were made. At one thread the
/// items are mapped and merged in turn on the caller. A panic in `map` or
/// `merge` stops the workers and resumes on the caller.
pub fn map_in_order<T: Sync, R: Send>(
    items: &[T],
    map: impl Fn(&T) -> R + Sync,
    merge: impl FnMut(R) + Send,
) {
    let threads = rayon::current_num_threads().min(items.len());
    if threads <= 1 {
        items.iter().map(map).for_each(merge);
        return;
    }
    let window = 4 * rayon::current_num_threads();
    let queue = Mutex::new(Queue {
        next: 0,
        merged: 0,
        done: VecDeque::new(),
        merging: false,
        failed: false,
    });
    let (turn, merge) = (Condvar::new(), Mutex::new(merge));
    let work = || {
        let mut q = lock(&queue);
        loop {
            while !q.failed && q.next < items.len() && q.next >= q.merged + window {
                q = turn.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
            if q.failed || q.next == items.len() {
                return;
            }
            let i = q.next;
            q.next += 1;
            q.done.push_back(None);
            drop(q);
            let r = map(&items[i]);
            q = lock(&queue);
            let at = i - q.merged;
            q.done[at] = Some(r);
            if q.merging {
                continue;
            }
            // Merge the oldest results while they are ready, each outside
            // the lock; its slot stays queued, empty, until it is merged.
            q.merging = true;
            while let Some(r) = q.done.front_mut().and_then(Option::take) {
                drop(q);
                (*lock(&merge))(r);
                q = lock(&queue);
                q.done.pop_front();
                q.merged += 1;
                turn.notify_all();
            }
            q.merging = false;
        }
    };
    let worker = |_: &()| {
        std::panic::catch_unwind(AssertUnwindSafe(&work)).unwrap_or_else(|panic| {
            lock(&queue).failed = true;
            turn.notify_all();
            std::panic::resume_unwind(panic)
        })
    };
    vec![(); threads]
        .par_iter()
        .map(worker)
        .collect::<Vec<()>>();
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::ids::ApId;
    use crate::probe::{Probe, RateObs};
    use mesh11_phy::BitRate;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Counts probe sets and views folded: one unit per view.
    struct CountProbes;

    impl FoldKernel for CountProbes {
        type Partial = (usize, usize); // (probes, views folded)
        type Piece = usize;
        type Output = (usize, usize);
        fn init(&self) -> Self::Partial {
            (0, 0)
        }
        fn units<'a>(&'a self, view: DatasetView<'a>) -> Vec<Unit<'a, usize>> {
            vec![unit(NetworkId(0), move || view.dataset().probes.len())]
        }
        fn merge(&self, partial: &mut Self::Partial, probes: usize) {
            partial.0 += probes;
            partial.1 += 1;
        }
        fn finish(&self, partial: Self::Partial) -> Self::Output {
            partial
        }
    }

    fn toy_dataset(nets: u32, probes_per_net: u32) -> Dataset {
        let mut ds = Dataset::default();
        for n in 0..nets {
            ds.networks.push(NetworkMeta {
                id: NetworkId(n),
                env: crate::ids::EnvLabel::Indoor,
                n_aps: 4,
                radios: vec![Phy::Bg],
                location: "toy".into(),
            });
            for i in 0..probes_per_net {
                ds.probes.push(Probe {
                    network: NetworkId(n),
                    phy: Phy::Bg,
                    time_s: f64::from(i),
                    sender: ApId(i % 2),
                    receiver: ApId(2 + i % 2),
                    obs: &[RateObs {
                        rate: BitRate::bg_mbps(1.0).unwrap(),
                        loss: 0.25,
                        snr_db: 12.0,
                    }],
                });
            }
        }
        ds
    }

    #[test]
    fn run_fold_matches_whole_view() {
        let ds = toy_dataset(3, 25);
        let ix = crate::index::DatasetIndex::build(&ds);
        let view = DatasetView::new(&ds, &ix);
        let whole = run_fold(view, &CountProbes);
        assert_eq!(whole, (ds.probes.len(), 1));
    }

    /// Units with a spin each, on networks `nets` (ascending); a piece
    /// counts itself alive in `live` until it is merged, and `peak` keeps
    /// the most seen alive.
    struct Spin<'a> {
        nets: Vec<u32>,
        spins: Vec<u32>,
        live: &'a AtomicUsize,
        peak: &'a AtomicUsize,
    }

    struct Alive<'a>(usize, &'a AtomicUsize);

    impl<'a> Spin<'a> {
        fn spin(&self, u: usize) -> Alive<'a> {
            let now = self.live.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
            let mut x = 0u64;
            for i in 0..self.spins[u] {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(u64::from(i)));
            }
            Alive(u, self.live)
        }
    }

    impl Drop for Alive<'_> {
        fn drop(&mut self) {
            self.1.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl<'a> FoldKernel for Spin<'a> {
        type Partial = Vec<usize>;
        type Piece = Alive<'a>;
        type Output = Vec<usize>;
        fn init(&self) -> Vec<usize> {
            Vec::new()
        }
        fn units<'b>(&'b self, _: DatasetView<'b>) -> Vec<Unit<'b, Alive<'a>>> {
            let nets = self.nets.iter().enumerate();
            nets.map(|(u, &n)| unit(NetworkId(n), move || self.spin(u)))
                .collect()
        }
        fn merge(&self, merged: &mut Vec<usize>, piece: Alive<'a>) {
            merged.push(piece.0);
        }
        fn finish(&self, merged: Vec<usize>) -> Vec<usize> {
            merged
        }
    }

    #[test]
    #[should_panic(expected = "item 3 fails")]
    fn a_failed_item_stops_the_schedule_and_resumes_on_the_caller() {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let items: Vec<usize> = (0..64).collect();
        pool.install(|| {
            map_in_order(&items, |&i| assert!(i != 3, "item {i} fails"), |()| ());
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Kernels of 0..40 units on random networks, each unit spinning a
        /// random while, so pieces finish out of order: every kernel's
        /// merges arrive in unit order, and no more than window + threads
        /// pieces are ever alive.
        #[test]
        fn schedule_merges_in_unit_order_within_the_window(
            threads in 1usize..5,
            shapes in proptest::collection::vec(
                proptest::collection::vec((0u32..6, 0u32..20_000), 0..40),
                1..6,
            ),
        ) {
            let ds = toy_dataset(1, 1);
            let ix = crate::index::DatasetIndex::build(&ds);
            let view = DatasetView::new(&ds, &ix);
            let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let kernels: Vec<Spin<'_>> = shapes
                .iter()
                .map(|units| {
                    let mut nets: Vec<u32> = units.iter().map(|u| u.0).collect();
                    nets.sort_unstable();
                    let spins = units.iter().map(|u| u.1).collect();
                    Spin { nets, spins, live: &live, peak: &peak }
                })
                .collect();
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let (merged, window) = pool.install(|| {
                let mut partials: Vec<Vec<usize>> = kernels.iter().map(|k| k.init()).collect();
                let jobs = kernels.iter().zip(&mut partials);
                fold_all(jobs.flat_map(|(k, p)| plan(k, p, view)).collect());
                (partials, 4 * threads)
            });
            for (k, m) in kernels.iter().zip(&merged) {
                prop_assert_eq!(m, &(0..k.nets.len()).collect::<Vec<_>>());
            }
            prop_assert_eq!(live.load(Ordering::SeqCst), 0);
            let peak = peak.load(Ordering::SeqCst);
            prop_assert!(peak <= window + threads, "peak {} alive", peak);
        }
    }
}
