//! The fold-style kernel contract.
//!
//! Every heavy analysis kernel in the workspace has the same shape: an
//! accumulator is initialized, each network-aligned view of the probes is
//! folded into it (fanning out per network inside the view and merging the
//! per-network partials back in network order), and a finish step distills
//! the accumulated state into the kernel's output. [`FoldKernel`] names
//! that shape. [`run_fold`] drives one kernel over one whole view — the
//! body of every analysis's view function; [`Running`] pairs a kernel with
//! its partial so a caller can drive many kernels over views as they
//! arrive (the streaming build folds every kernel over each sealed part of
//! the simulation).
//!
//! ## Byte-identity contract
//!
//! Each kernel's **single** partial is threaded sequentially through the
//! views in network order (never folding views into separate partials and
//! combining them after the fact). Because views are network-aligned and
//! arrive in network order, every kernel sees exactly the same
//! accumulation sequence as one walk over the whole dataset — including
//! kernels whose partials carry order-sensitive float sums (bitrate
//! adaptation). Parallelism comes from the per-network fan-out *inside*
//! `fold` and from fanning *across* kernels (each mutates only its own
//! partial), never from reordering the view sequence.

use crate::index::DatasetView;

/// A fold-style analysis kernel: `init → fold(view)* → finish`.
pub trait FoldKernel {
    /// The accumulated state threaded through the views.
    type Partial: Send;
    /// The finished analysis result.
    type Output;

    /// A fresh (empty) partial.
    fn init(&self) -> Self::Partial;

    /// Folds one network-aligned view into the partial. Views arrive in
    /// network order; implementations may fan out per network internally
    /// but must merge those per-network results back in network order.
    fn fold(&self, view: DatasetView<'_>, partial: &mut Self::Partial);

    /// Distills the accumulated partial into the kernel's output.
    fn finish(&self, partial: Self::Partial) -> Self::Output;
}

/// Runs one kernel to completion over one whole view: `init`, a single
/// `fold`, `finish`.
pub fn run_fold<K: FoldKernel>(view: DatasetView<'_>, kernel: &K) -> K::Output {
    let mut partial = kernel.init();
    kernel.fold(view, &mut partial);
    kernel.finish(partial)
}

/// The object-safe face of a running fold, so a caller can drive a
/// heterogeneous set of kernels over the same views.
pub trait WindowFold: Send {
    /// Folds one view into this kernel's partial.
    fn fold_window(&mut self, view: DatasetView<'_>);
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

impl<K: FoldKernel + Send> WindowFold for Running<K>
where
    K::Partial: Send,
{
    fn fold_window(&mut self, view: DatasetView<'_>) {
        self.kernel.fold(view, &mut self.partial);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, NetworkMeta};
    use crate::ids::{ApId, NetworkId};
    use crate::probe::{Probe, RateObs};
    use mesh11_phy::{BitRate, Phy};

    /// Counts probe sets and fold calls.
    struct CountProbes;

    impl FoldKernel for CountProbes {
        type Partial = (usize, usize); // (probes, views folded)
        type Output = (usize, usize);
        fn init(&self) -> Self::Partial {
            (0, 0)
        }
        fn fold(&self, view: DatasetView<'_>, partial: &mut Self::Partial) {
            partial.0 += view.dataset().probes.len();
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
}
