//! # mesh11-channel
//!
//! Radio propagation models for the `mesh11` simulator: everything between
//! "AP A transmits a frame at rate r" and "AP B's Atheros chip reports an
//! SNR and the frame did/did not survive".
//!
//! ## Model structure
//!
//! A directed link's instantaneous SNR decomposes as
//!
//! ```text
//! snr(a→b, t) = tx_power(a) + tx_offset(a)            // hardware
//!             − pathloss(‖a−b‖)                        // geometry
//!             − shadow(a,b)                            // static, symmetric
//!             − temporal(a,b, t)                       // AR(1), symmetric
//!             + fade(t)                                // per-frame, i.i.d.
//!             − noise_floor − nf_offset(b)             // receiver hardware
//! ```
//!
//! and the frame survives with probability
//! `CalibratedPhy::success(rate, snr − interference(a→b))`, where the
//! *interference floor* is a static per-directed-link draw that degrades
//! reception **without appearing in the reported SNR**. This last term is
//! the mechanism behind the paper's central §4 finding: two links with
//! identical reported SNR can have different optimal bit rates, and only
//! per-link training can learn which is which (the paper's own hypothesis,
//! §4.6, citing SGRA's observation that SNR overestimates channel quality
//! under interference).
//!
//! Asymmetry (Fig 5.2) falls out of the per-AP `tx_offset`/`nf_offset`
//! hardware draws plus direction-specific interference; shadowing and its
//! temporal evolution are reciprocal, as physics demands.
//!
//! ## Modules
//!
//! * [`params`] — [`ChannelParams`] and [`Environment`] (indoor/outdoor
//!   parameter sets).
//! * [`pathloss`] — log-distance path loss.
//! * [`hardware`] — per-radio TX-power and noise-figure offsets.
//! * [`link`] — [`LinkModel`]: the composed directed-pair channel with
//!   seeded, time-evolving state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hardware;
pub mod link;
pub mod params;
pub mod pathloss;

pub use hardware::RadioHardware;
pub use link::{FadeLatch, LinkModel, PolarNormal, SnrSample};
pub use params::{ChannelParams, Environment};
