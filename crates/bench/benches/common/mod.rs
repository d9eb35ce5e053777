//! What several benches share.

use mesh11_bench::{ReproContext, Scale};

/// The quick campaign's dataset, resident, with every analysis folded
/// over its whole view.
pub fn resident(seed: u64) -> ReproContext {
    let scale = Scale::Quick;
    let ds = scale
        .config()
        .run_campaign(&scale.campaign_spec(seed).generate());
    ReproContext::from_dataset(ds, scale.config(), seed)
}
