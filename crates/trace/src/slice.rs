//! Dataset slicing: time windows and network subsets.
//!
//! The paper's own methodology slices its data ("a 24-hour snapshot", "an
//! 11-hour snapshot of this data"); these utilities give downstream
//! analyses the same power over any dataset — re-running an analysis on
//! the first vs second half of a trace, or on one environment's networks,
//! without re-simulating.

use mesh11_phy::Phy;

use crate::dataset::Dataset;
use crate::ids::{EnvLabel, NetworkId};

impl Dataset {
    /// The records whose timestamps fall in `[t0, t1)`, horizons adjusted.
    /// Network metadata is kept whole (it is time-invariant).
    pub fn time_window(&self, t0_s: f64, t1_s: f64) -> Dataset {
        assert!(t0_s <= t1_s, "window must be ordered");
        Dataset {
            networks: self.networks.clone(),
            probes: self
                .probes
                .iter()
                .filter(|p| (t0_s..t1_s).contains(&p.time_s))
                .collect(),
            clients: self
                .clients
                .iter()
                .filter(|c| (t0_s..t1_s).contains(&c.bin_start_s))
                .copied()
                .collect(),
            probe_horizon_s: t1_s.min(self.probe_horizon_s),
            client_horizon_s: t1_s.min(self.client_horizon_s),
        }
    }

    /// Only the networks accepted by `keep` (and their records). Ids are
    /// preserved, so `networks` stays indexable only when the kept set is a
    /// prefix — use [`Dataset::meta`] lookups, which handle gaps, rather
    /// than positional indexing on filtered datasets.
    pub fn filter_networks(&self, keep: impl Fn(&crate::dataset::NetworkMeta) -> bool) -> Dataset {
        let kept: std::collections::BTreeSet<NetworkId> = self
            .networks
            .iter()
            .filter(|m| keep(m))
            .map(|m| m.id)
            .collect();
        Dataset {
            networks: self
                .networks
                .iter()
                .filter(|m| kept.contains(&m.id))
                .cloned()
                .collect(),
            probes: self
                .probes
                .iter()
                .filter(|p| kept.contains(&p.network))
                .collect(),
            clients: self
                .clients
                .iter()
                .filter(|c| kept.contains(&c.network))
                .copied()
                .collect(),
            probe_horizon_s: self.probe_horizon_s,
            client_horizon_s: self.client_horizon_s,
        }
    }

    /// Shorthand: only networks of one environment.
    pub fn only_env(&self, env: EnvLabel) -> Dataset {
        self.filter_networks(|m| m.env == env)
    }

    /// Shorthand: only networks running `phy`.
    pub fn only_phy(&self, phy: Phy) -> Dataset {
        self.filter_networks(|m| m.radios.contains(&phy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::NetworkMeta;
    use crate::ids::{ApId, ClientId};
    use crate::probe::{Probe, RateObs};
    use crate::ClientSample;
    use mesh11_phy::BitRate;

    fn two_network_dataset() -> Dataset {
        let meta = |i: u32, env| NetworkMeta {
            id: NetworkId(i),
            env,
            n_aps: 3,
            radios: vec![if i == 0 { Phy::Bg } else { Phy::Ht }],
            location: String::new(),
        };
        let obs = |net: u32| RateObs {
            rate: if net == 0 {
                BitRate::bg_mbps(1.0).unwrap()
            } else {
                BitRate::ht_mcs(0, false).unwrap()
            },
            loss: 0.0,
            snr_db: 20.0,
        };
        let (bg, ht) = ([obs(0)], [obs(1)]);
        let probe = |net: u32, t: f64| Probe {
            network: NetworkId(net),
            phy: if net == 0 { Phy::Bg } else { Phy::Ht },
            time_s: t,
            sender: ApId(0),
            receiver: ApId(1),
            obs: if net == 0 { &bg } else { &ht },
        };
        let client = |net: u32, bin: f64| ClientSample {
            network: NetworkId(net),
            ap: ApId(0),
            client: ClientId(0),
            bin_start_s: bin,
            assoc_requests: 1,
            data_pkts: 5,
        };
        Dataset {
            networks: vec![meta(0, EnvLabel::Indoor), meta(1, EnvLabel::Outdoor)],
            probes: [
                probe(0, 300.0),
                probe(0, 600.0),
                probe(1, 300.0),
                probe(1, 900.0),
            ]
            .into_iter()
            .collect(),
            clients: vec![client(0, 0.0), client(0, 600.0), client(1, 300.0)],
            probe_horizon_s: 1_200.0,
            client_horizon_s: 900.0,
        }
    }

    #[test]
    fn time_window_halves() {
        let ds = two_network_dataset();
        let first = ds.time_window(0.0, 600.0);
        assert_eq!(first.probes.len(), 2, "t=300 twice");
        assert_eq!(first.clients.len(), 2, "bins 0 and 300");
        assert_eq!(first.probe_horizon_s, 600.0);
        let second = ds.time_window(600.0, 1_200.0);
        assert_eq!(second.probes.len(), 2, "t=600 and t=900");
        assert_eq!(second.clients.len(), 1);
        // Windows partition the records.
        assert_eq!(first.probes.len() + second.probes.len(), ds.probes.len());
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn time_window_rejects_reversed() {
        two_network_dataset().time_window(10.0, 5.0);
    }

    #[test]
    fn env_filter() {
        let ds = two_network_dataset();
        let indoor = ds.only_env(EnvLabel::Indoor);
        assert_eq!(indoor.networks.len(), 1);
        assert!(indoor.probes.iter().all(|p| p.network == NetworkId(0)));
        assert!(indoor.clients.iter().all(|c| c.network == NetworkId(0)));
        // Meta lookup still works by id on the kept network.
        assert!(indoor.meta(NetworkId(0)).is_some());
    }

    #[test]
    fn phy_filter() {
        let ds = two_network_dataset();
        let ht = ds.only_phy(Phy::Ht);
        assert_eq!(ht.networks.len(), 1);
        assert_eq!(ht.networks[0].id, NetworkId(1));
        assert_eq!(ht.probes.len(), 2);
    }

    #[test]
    fn filters_compose() {
        let ds = two_network_dataset();
        let composed = ds.only_env(EnvLabel::Indoor).time_window(0.0, 400.0);
        assert_eq!(composed.probes.len(), 1);
        assert_eq!(composed.clients.len(), 1);
    }
}
