//! # mesh11-trace
//!
//! The dataset model: the shape of the data the paper's measurement
//! infrastructure produced, independent of how it was produced.
//!
//! Everything downstream (the `mesh11-core` analyses) consumes only these
//! types; the simulator (`mesh11-sim`) is just one producer. A real
//! Meraki-style export could be loaded into the same structures and the
//! entire analysis pipeline would run unchanged — that separation is the
//! design center of the reproduction.
//!
//! ## Data shapes (paper §3)
//!
//! * [`Probe`] — one report of inter-AP broadcast-probe statistics: for a
//!   (receiver, sender) pair, the mean loss rate over the past 800 s and the
//!   most recent SNR, per probed bit rate. Reports arrive every 300 s; each
//!   rate's loss aggregates ≈20 probes (40 s cadence). A [`ProbeTable`]
//!   stores many flat: one [`ProbeSet`] header row per report and every
//!   report's observations in one shared arena.
//! * [`ClientSample`] — one 5-minute bin of per-client counters at an AP:
//!   association requests and data packets. Driven by real user behaviour,
//!   not controlled probes.
//! * [`Dataset`] — the container: network metadata plus both record streams,
//!   with JSON and compact binary codecs.
//! * [`DeliveryMatrix`] — the per-(network, rate) directed delivery-rate
//!   matrix distilled from probe sets; the input to the routing (§5) and
//!   hidden-triple (§6) analyses.
//! * [`DatasetIndex`] / [`DatasetView`] — precomputed grouped ranges
//!   (per PHY, per network, per directed link) plus per-probe SNR and
//!   optimal-rate columns built on first read, so the analyses walk
//!   contiguous slices instead of re-filtering the probe table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunk;
pub mod client;
pub mod codec;
pub mod dataset;
pub mod fold;
pub mod ids;
pub mod index;
pub mod matrix;
pub mod probe;
pub mod slice;
pub mod snrstats;
pub mod validate;

pub use chunk::{
    ChunkConfig, ChunkHandle, ChunkStore, ChunkStoreStats, ChunkedDataset, ChunkedDatasetBuilder,
    ProbeChunk, ProbeSource, WindowData,
};
pub use client::ClientSample;
pub use dataset::{Dataset, NetworkMeta};
pub use fold::{fold_all, map_in_order, plan, run_fold, FoldKernel, Job, Running, WindowFold};
pub use ids::{ApId, ClientId, EnvLabel, NetworkId};
pub use index::{
    DatasetIndex, DatasetView, LinkRange, LinkView, NetRange, NetworkView, ProbeColumns, ProbeEntry,
};
pub use matrix::DeliveryMatrix;
pub use probe::{Probe, ProbeSet, ProbeTable, Probes, RateObs};
pub use validate::{LoadError, Violation};
