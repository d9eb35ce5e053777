//! # mesh11 — Measurement and Analysis of Real-World 802.11 Mesh Networks
//!
//! Facade crate re-exporting the full `mesh11` toolkit: a reproduction of
//! LaCurts & Balakrishnan's IMC 2010 measurement study of 110 commercial
//! Meraki mesh networks (1407 APs), built as a synthetic-campaign simulator
//! plus the paper's analysis pipeline.
//!
//! See the workspace `README.md` for the architecture overview and
//! `DESIGN.md` for the per-experiment index.
//!
//! ```no_run
//! use mesh11::prelude::*;
//!
//! // Generate a small seeded campaign, simulate it, and ask the paper's
//! // first question: how well does a per-link SNR table pick bit rates?
//! let campaign = CampaignSpec::small(42).generate();
//! let dataset = SimConfig::quick().run_campaign(&campaign);
//! let index = DatasetIndex::build(&dataset);
//! let view = DatasetView::new(&dataset, &index);
//! let table = LookupTableSet::build(view, Scope::Link, Phy::Bg);
//! println!("per-link accuracy: {:.1}%", 100.0 * table.exact_accuracy(view));
//! ```

#![forbid(unsafe_code)]

pub use mesh11_channel as channel;
pub use mesh11_core as core;
pub use mesh11_phy as phy;
pub use mesh11_sim as sim;
pub use mesh11_stats as stats;
pub use mesh11_topo as topo;
pub use mesh11_trace as trace;

/// One-stop imports for examples and applications.
pub mod prelude {
    pub use mesh11_channel::{ChannelParams, Environment, LinkModel};
    pub use mesh11_core::bitrate::{
        link_stability, simulate_adapters, AdapterKind, LookupTableSet, Scope, StrategyKind,
        ThroughputPenalty,
    };
    pub use mesh11_core::mobility::{ClientSessions, MobilityReport};
    pub use mesh11_core::routing::{EtxVariant, OpportunisticAnalysis};
    pub use mesh11_core::triples::{HearRule, TripleAnalysis};
    pub use mesh11_phy::{BitRate, Phy, RateClass};
    pub use mesh11_sim::{FaultPlan, SimConfig};
    pub use mesh11_stats::{Cdf, Summary};
    pub use mesh11_topo::{CampaignSpec, NetworkSpec};
    pub use mesh11_trace::{
        Dataset, DatasetIndex, DatasetView, DeliveryMatrix, Probe, ProbeSet, ProbeTable,
    };
}
