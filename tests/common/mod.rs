//! Hostile datasets shared by the equivalence tests: probe sets described
//! by small spec tuples, with ids near `u32::MAX`, both PHYs, duplicate and
//! out-of-order times, and SNRs that interpolate, tie and carry a sign.

use mesh11::phy::Phy;
use mesh11::trace::{ApId, Dataset, NetworkId, Probe, ProbeTable, RateObs};
use proptest::prelude::*;

/// Network and AP ids drawn from small pools (so links repeat), with
/// members at the top of the id space.
pub const NET_IDS: [u32; 5] = [0, 3, 7, u32::MAX - 1, u32::MAX];
pub const AP_IDS: [u32; 4] = [0, 1, u32::MAX - 1, u32::MAX];
/// SNRs with both zeros and half-dB steps, so medians interpolate, tie and
/// carry a sign bit.
pub const SNRS: [f64; 7] = [0.0, -0.0, 10.0, 10.5, 11.0, -3.25, 40.0];

/// `(rate index, loss in quarters, SNRS index)`.
pub type ObsSpec = (usize, u8, usize);
/// `(NET_IDS index, HT?, (AP_IDS index, AP_IDS index), time step, observations)`.
pub type ProbeSpec = (usize, bool, (usize, usize), u32, Vec<ObsSpec>);

/// The dataset holding one probe set per spec, in spec order.
pub fn dataset(specs: &[ProbeSpec]) -> Dataset {
    let mut probes = ProbeTable::new();
    for (net, ht, (s, r), t, obs) in specs {
        let phy = if *ht { Phy::Ht } else { Phy::Bg };
        let rates = phy.all_rates();
        let obs: Vec<RateObs> = obs
            .iter()
            .map(|&(rate, loss_q, snr)| RateObs {
                rate: rates[rate % rates.len()],
                // Quarter-step losses: 12 Mb/s at 0.5 ties 6 Mb/s at 0,
                // and full loss ties every rate at zero.
                loss: f64::from(loss_q) / 4.0,
                snr_db: SNRS[snr],
            })
            .collect();
        probes.push(Probe {
            network: NetworkId(NET_IDS[*net]),
            phy,
            // Few distinct times: duplicate timestamps are legal.
            time_s: f64::from(*t) * 300.0,
            sender: ApId(AP_IDS[*s]),
            receiver: ApId(AP_IDS[*r]),
            obs: &obs,
        });
    }
    Dataset {
        probes,
        ..Dataset::default()
    }
}

/// Up to `max_sets` probe sets drawn from the pools above, in any order.
pub fn specs(max_sets: usize) -> impl Strategy<Value = Vec<ProbeSpec>> {
    proptest::collection::vec(
        (
            0usize..NET_IDS.len(),
            proptest::bool::ANY,
            (0usize..AP_IDS.len(), 0usize..AP_IDS.len()),
            0u32..4,
            proptest::collection::vec((0usize..64, 0u8..=4, 0usize..SNRS.len()), 1..7),
        ),
        0..max_sets,
    )
}

/// Runs `f` under a scoped pool of exactly `threads` workers.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build pool")
        .install(f)
}
