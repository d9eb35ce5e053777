//! The dataset container.

use mesh11_phy::Phy;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use crate::client::ClientSample;
use crate::ids::{ApId, EnvLabel, NetworkId};
use crate::probe::{Probe, ProbeTable};

/// Metadata of one network as carried in the dataset (a strict subset of
/// the topology spec — the analysis layer must not see simulator ground
/// truth such as AP coordinates).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkMeta {
    /// Campaign-unique id.
    pub id: NetworkId,
    /// Environment classification.
    pub env: EnvLabel,
    /// Number of APs.
    pub n_aps: usize,
    /// Radio families present.
    pub radios: Vec<Phy>,
    /// Human-readable location label.
    pub location: String,
}

/// The full dataset: metadata, probe sets, and client samples.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// Per-network metadata, indexed by `NetworkId.0`.
    pub networks: Vec<NetworkMeta>,
    /// Probe-set reports, in (network, time) order, with every set's
    /// observations in the table's one arena.
    pub probes: ProbeTable,
    /// Client aggregate records, in (network, time) order.
    pub clients: Vec<ClientSample>,
    /// Length of the probe trace (seconds); 24 h in the paper.
    pub probe_horizon_s: f64,
    /// Length of the client trace (seconds); 11 h in the paper.
    pub client_horizon_s: f64,
}

impl Dataset {
    /// Metadata of a network. `O(1)` when `networks` is the usual dense
    /// id-indexed vector; falls back to a scan for filtered datasets (see
    /// [`Dataset::filter_networks`]) whose kept set has gaps.
    pub fn meta(&self, id: NetworkId) -> Option<&NetworkMeta> {
        self.meta_position(id).map(|k| &self.networks[k])
    }

    /// Position of a network's metadata in `networks`, found as
    /// [`Dataset::meta`] finds it.
    pub(crate) fn meta_position(&self, id: NetworkId) -> Option<usize> {
        match self.networks.get(id.0 as usize) {
            Some(m) if m.id == id => Some(id.0 as usize),
            _ => self.networks.iter().position(|m| m.id == id),
        }
    }

    /// Probe sets of one PHY family (most analyses split b/g from n).
    pub fn probes_for_phy(&self, phy: Phy) -> impl Iterator<Item = Probe<'_>> {
        self.probes.iter().filter(move |p| p.phy == phy)
    }

    /// Probe sets of one network (all PHYs).
    pub fn probes_for_network(&self, id: NetworkId) -> impl Iterator<Item = Probe<'_>> {
        self.probes.iter().filter(move |p| p.network == id)
    }

    /// Networks with at least `n` APs (the §5 analyses use `n = 5`).
    pub fn networks_with_at_least(&self, n: usize) -> impl Iterator<Item = &NetworkMeta> {
        self.networks.iter().filter(move |m| m.n_aps >= n)
    }

    /// Networks of a given environment.
    pub fn networks_in_env(&self, env: EnvLabel) -> impl Iterator<Item = &NetworkMeta> {
        self.networks.iter().filter(move |m| m.env == env)
    }

    /// Client samples of one network.
    pub fn clients_for_network(&self, id: NetworkId) -> impl Iterator<Item = &ClientSample> {
        self.clients.iter().filter(move |c| c.network == id)
    }

    /// All directed links `(network, sender, receiver)` that ever produced a
    /// probe set, with their report counts — a cheap structural summary.
    pub fn link_report_counts(&self) -> BTreeMap<(NetworkId, ApId, ApId), usize> {
        let mut map = BTreeMap::new();
        for p in self.probes.rows() {
            *map.entry((p.network, p.sender, p.receiver)).or_insert(0) += 1;
        }
        map
    }

    /// Total AP count across networks.
    pub fn total_aps(&self) -> usize {
        self.networks.iter().map(|m| m.n_aps).sum()
    }

    /// Saves as pretty JSON (interchange format; see [`crate::codec`] for
    /// the compact binary form).
    pub fn save_json(&self, path: &Path) -> io::Result<()> {
        let file = std::fs::File::create(path)?;
        serde_json::to_writer(io::BufWriter::new(file), self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Loads from JSON.
    pub fn load_json(path: &Path) -> io::Result<Self> {
        let file = std::fs::File::open(path)?;
        serde_json::from_reader(io::BufReader::new(file))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Shifts every network id in the dataset — metadata, probe reports,
    /// and client samples — up by `by`. Multi-seed ensembles use this to
    /// tag each seed's replica networks into a disjoint id range (seed `k`
    /// of an `n`-network campaign occupies ids `k·n .. (k+1)·n`) so
    /// per-seed datasets can [`Dataset::merge`] into one ensemble dataset,
    /// or stream in ascending-id order through a shared chunked builder.
    pub fn offset_network_ids(&mut self, by: u32) {
        for m in &mut self.networks {
            m.id = NetworkId(m.id.0 + by);
        }
        for p in self.probes.rows_mut() {
            p.network = NetworkId(p.network.0 + by);
        }
        for c in &mut self.clients {
            c.network = NetworkId(c.network.0 + by);
        }
    }

    /// Merges another dataset (disjoint networks) into this one. Network ids
    /// must already be globally unique — the campaign runner guarantees it.
    ///
    /// # Index invalidation
    ///
    /// Merging appends to `probes`, so any [`crate::DatasetIndex`] built
    /// over either input is stale afterwards (a stale index is rejected by
    /// [`crate::DatasetView::new`]). The index holds no incremental state:
    /// rebuilding after the merge yields exactly the index of the merged
    /// dataset — merge-then-index equals index-of-merged.
    pub fn merge(&mut self, other: Dataset) {
        // Keep `networks` indexable by id: grow and place by id.
        for meta in other.networks {
            let idx = meta.id.0 as usize;
            if self.networks.len() <= idx {
                self.networks.resize(
                    idx + 1,
                    NetworkMeta {
                        id: NetworkId(u32::MAX),
                        env: EnvLabel::Mixed,
                        n_aps: 0,
                        radios: Vec::new(),
                        location: String::new(),
                    },
                );
            }
            self.networks[idx] = meta;
        }
        self.probes.append(other.probes);
        self.clients.extend(other.clients);
        self.probe_horizon_s = self.probe_horizon_s.max(other.probe_horizon_s);
        self.client_horizon_s = self.client_horizon_s.max(other.client_horizon_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::RateObs;
    use mesh11_phy::BitRate;

    fn tiny_dataset() -> Dataset {
        let meta = |i: u32, env, n| NetworkMeta {
            id: NetworkId(i),
            env,
            n_aps: n,
            radios: vec![Phy::Bg],
            location: "Testville".into(),
        };
        let obs = [RateObs {
            rate: BitRate::bg_mbps(1.0).unwrap(),
            loss: 0.1,
            snr_db: 20.0,
        }];
        let probe = |net: u32, s: u32, r: u32, t: f64| Probe {
            network: NetworkId(net),
            phy: Phy::Bg,
            time_s: t,
            sender: ApId(s),
            receiver: ApId(r),
            obs: &obs,
        };
        Dataset {
            networks: vec![meta(0, EnvLabel::Indoor, 3), meta(1, EnvLabel::Outdoor, 7)],
            probes: [
                probe(0, 0, 1, 300.0),
                probe(0, 0, 1, 600.0),
                probe(1, 2, 3, 300.0),
            ]
            .into_iter()
            .collect(),
            clients: vec![ClientSample {
                network: NetworkId(0),
                ap: ApId(0),
                client: crate::ids::ClientId(0),
                bin_start_s: 0.0,
                assoc_requests: 1,
                data_pkts: 5,
            }],
            probe_horizon_s: 900.0,
            client_horizon_s: 300.0,
        }
    }

    #[test]
    fn filters() {
        let d = tiny_dataset();
        assert_eq!(d.probes_for_phy(Phy::Bg).count(), 3);
        assert_eq!(d.probes_for_phy(Phy::Ht).count(), 0);
        assert_eq!(d.probes_for_network(NetworkId(0)).count(), 2);
        assert_eq!(d.networks_with_at_least(5).count(), 1);
        assert_eq!(d.networks_in_env(EnvLabel::Indoor).count(), 1);
        assert_eq!(d.clients_for_network(NetworkId(0)).count(), 1);
        assert_eq!(d.total_aps(), 10);
    }

    #[test]
    fn link_counts() {
        let d = tiny_dataset();
        let counts = d.link_report_counts();
        assert_eq!(counts[&(NetworkId(0), ApId(0), ApId(1))], 2);
        assert_eq!(counts[&(NetworkId(1), ApId(2), ApId(3))], 1);
    }

    #[test]
    fn meta_lookup() {
        let d = tiny_dataset();
        assert_eq!(d.meta(NetworkId(1)).unwrap().n_aps, 7);
        assert!(d.meta(NetworkId(9)).is_none());
    }

    #[test]
    fn json_round_trip() {
        let d = tiny_dataset();
        let dir = std::env::temp_dir().join("mesh11-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.json");
        d.save_json(&path).unwrap();
        let back = Dataset::load_json(&path).unwrap();
        assert_eq!(d, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn merge_combines() {
        let mut a = tiny_dataset();
        let mut b = tiny_dataset();
        // Shift b's network ids to be disjoint.
        b.offset_network_ids(2);
        a.merge(b);
        assert_eq!(a.networks.len(), 4);
        assert_eq!(a.probes.len(), 6);
        assert_eq!(a.meta(NetworkId(3)).unwrap().n_aps, 7);
    }

    #[test]
    fn offset_network_ids_retags_everything_and_nothing_else() {
        let orig = tiny_dataset();
        let mut shifted = orig.clone();
        shifted.offset_network_ids(5);
        assert_eq!(
            shifted.networks.iter().map(|m| m.id.0).collect::<Vec<_>>(),
            vec![5, 6]
        );
        assert!(shifted.probes.iter().all(|p| p.network.0 >= 5));
        assert!(shifted.clients.iter().all(|c| c.network.0 >= 5));
        // Only the tags moved: shifting back reproduces the original
        // byte for byte (payloads, times, and order untouched).
        shifted.offset_network_ids(0); // no-op
        let mut back = shifted.clone();
        for m in &mut back.networks {
            m.id = NetworkId(m.id.0 - 5);
        }
        for p in back.probes.rows_mut() {
            p.network = NetworkId(p.network.0 - 5);
        }
        for c in &mut back.clients {
            c.network = NetworkId(c.network.0 - 5);
        }
        assert_eq!(back, orig);
    }

    /// The documented invalidation contract: indexing after a merge gives
    /// exactly the index of the merged dataset, and a pre-merge index is
    /// rejected as stale.
    #[test]
    fn merge_then_index_equals_index_of_merged() {
        let mut a = tiny_dataset();
        let mut b = tiny_dataset();
        for m in &mut b.networks {
            m.id = NetworkId(m.id.0 + 2);
        }
        for p in b.probes.rows_mut() {
            p.network = NetworkId(p.network.0 + 2);
        }
        for c in &mut b.clients {
            c.network = NetworkId(c.network.0 + 2);
        }
        let stale = crate::DatasetIndex::build(&a);
        a.merge(b.clone());

        // Rebuild == index of an identical dataset assembled in one shot.
        let rebuilt = crate::DatasetIndex::build(&a);
        let mut oneshot = tiny_dataset();
        oneshot.networks.extend(b.networks);
        oneshot.probes.extend(&b.probes);
        oneshot.clients.extend(b.clients);
        assert_eq!(rebuilt, crate::DatasetIndex::build(&oneshot));
        assert_eq!(
            rebuilt.link_report_counts(),
            a.link_report_counts(),
            "rebuilt index must agree with the full scan"
        );

        // The pre-merge index no longer matches and must be refused.
        assert_ne!(stale, rebuilt);
        assert!(std::panic::catch_unwind(|| crate::DatasetView::new(&a, &stale)).is_err());
    }
}
