//! Dataset integrity validation.
//!
//! The analyses assume well-formed inputs (dense ids, probability-valued
//! losses, in-horizon timestamps, per-set rate/PHY consistency). Simulated
//! datasets satisfy these by construction; *imported* ones — converted from
//! a real deployment's logs, the use-case `mesh11 analyze` exists for —
//! should be checked first. `mesh11 inspect` runs this automatically.

use mesh11_phy::Phy;
use rayon::prelude::*;

use crate::dataset::{Dataset, NetworkMeta};
use crate::probe::{Probe, RateObs};

/// A single integrity violation, with enough context to locate it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// What is wrong.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// How many violations a [`LoadError::Invalid`] names.
const NAMED_VIOLATIONS: usize = 5;

/// Probe sets per run of the parallel probe check.
const VALIDATE_RUN: usize = 1 << 16;

/// Why a dataset cannot be analyzed: it could not be read or decoded, or
/// what it holds fails [`Dataset::validate`].
#[derive(Debug)]
pub enum LoadError {
    /// Reading or decoding failed.
    Io(std::io::Error),
    /// The dataset decoded, and these are its first integrity violations.
    Invalid(Vec<Violation>),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "{e}"),
            LoadError::Invalid(violations) => {
                f.write_str("invalid dataset: ")?;
                for (k, v) in violations.iter().enumerate() {
                    if k > 0 {
                        f.write_str("; ")?;
                    }
                    write!(f, "{v}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for LoadError {}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

impl Dataset {
    /// Checks structural integrity; returns every violation found (bounded
    /// at `limit` to keep reports readable on badly broken inputs).
    pub fn validate(&self, limit: usize) -> Vec<Violation> {
        self.validate_part(0, limit)
    }

    /// [`Dataset::validate`] of a part of a larger dataset whose first
    /// probe set is that dataset's probe `first_probe`: probe sets are
    /// named by their position in the whole.
    pub fn validate_part(&self, first_probe: usize, limit: usize) -> Vec<Violation> {
        let mut out = Vec::new();
        let push = |out: &mut Vec<Violation>, msg: String| {
            if out.len() < limit {
                out.push(Violation { message: msg });
            }
        };

        // Metadata sanity.
        for m in &self.networks {
            if m.n_aps == 0 {
                push(&mut out, format!("{}: zero APs", m.id));
            }
            if m.radios.is_empty() {
                push(&mut out, format!("{}: no radios", m.id));
            }
        }

        // Probe sets, in runs checked in parallel; each run keeps its first
        // violations, and the runs concatenate in row order.
        let runs: Vec<usize> = (0..self.probes.len().div_ceil(VALIDATE_RUN)).collect();
        let found: Vec<Vec<Violation>> = runs
            .par_iter()
            .map(|&r| {
                let mut out = Vec::new();
                let mut meta = None;
                let rows = r * VALIDATE_RUN..self.probes.len().min((r + 1) * VALIDATE_RUN);
                for k in rows {
                    let p = self.probes.get(k);
                    self.check_probe(first_probe + k, p, &mut meta, &mut |msg| {
                        push(&mut out, msg)
                    });
                }
                out
            })
            .collect();
        for v in found.into_iter().flatten() {
            push(&mut out, v.message);
        }

        // Client samples.
        for (i, c) in self.clients.iter().enumerate() {
            let Some(meta) = self.meta(c.network) else {
                push(
                    &mut out,
                    format!("client[{i}]: unknown network {}", c.network),
                );
                continue;
            };
            if c.ap.0 >= meta.n_aps as u32 {
                push(&mut out, format!("client[{i}]: AP {} out of range", c.ap));
            }
            if !(0.0..=self.client_horizon_s).contains(&c.bin_start_s) {
                push(
                    &mut out,
                    format!("client[{i}]: bin {} outside horizon", c.bin_start_s),
                );
            }
            if c.bin_start_s % crate::client::CLIENT_BIN_S != 0.0 {
                push(
                    &mut out,
                    format!("client[{i}]: bin start {} not bin-aligned", c.bin_start_s),
                );
            }
        }

        // PHY coverage: any probes for a PHY no network declares?
        for phy in [Phy::Bg, Phy::Ht] {
            let declared = self.networks.iter().any(|m| m.radios.contains(&phy));
            if !declared && self.probes_for_phy(phy).next().is_some() {
                push(&mut out, format!("probes exist for undeclared PHY {phy}"));
            }
        }

        out
    }

    /// Reports every violation of probe set `i` (`p`) through `push`.
    /// `meta` carries the previous set's network over, since sets come in
    /// network runs.
    fn check_probe<'d>(
        &'d self,
        i: usize,
        p: Probe<'_>,
        meta: &mut Option<&'d NetworkMeta>,
        push: &mut impl FnMut(String),
    ) {
        if meta.is_none_or(|m| m.id != p.network) {
            *meta = self.meta(p.network);
        }
        let Some(meta) = *meta else {
            push(format!("probe[{i}]: unknown network {}", p.network));
            return;
        };
        if !meta.radios.contains(&p.phy) {
            push(format!("probe[{i}]: {} has no {} radio", p.network, p.phy));
        }
        let n = meta.n_aps as u32;
        if p.sender.0 >= n || p.receiver.0 >= n {
            push(format!(
                "probe[{i}]: AP ids {}→{} out of range (n_aps {})",
                p.sender, p.receiver, n
            ));
        }
        if p.sender == p.receiver {
            push(format!("probe[{i}]: self link {}", p.sender));
        }
        if !(0.0..=self.probe_horizon_s).contains(&p.time_s) {
            push(format!("probe[{i}]: time {} outside horizon", p.time_s));
        }
        if p.obs.is_empty() {
            push(format!("probe[{i}]: no observations"));
        }
        let sound = |o: &RateObs| {
            (0.0..=1.0).contains(&o.loss) && o.snr_db.is_finite() && o.rate.phy() == p.phy
        };
        if p.obs.iter().all(sound) {
            return;
        }
        for o in p.obs {
            if !(0.0..=1.0).contains(&o.loss) || !o.loss.is_finite() {
                push(format!("probe[{i}]: loss {} not a probability", o.loss));
            }
            if !o.snr_db.is_finite() {
                push(format!("probe[{i}]: non-finite SNR"));
            }
            if o.rate.phy() != p.phy {
                push(format!(
                    "probe[{i}]: rate {} does not belong to {}",
                    o.rate, p.phy
                ));
            }
        }
    }

    /// `Ok` when [`Dataset::validate_part`] finds nothing, else the first
    /// violations as a [`LoadError::Invalid`].
    pub fn check_part(&self, first_probe: usize) -> Result<(), LoadError> {
        let violations = self.validate_part(first_probe, NAMED_VIOLATIONS);
        if violations.is_empty() {
            Ok(())
        } else {
            Err(LoadError::Invalid(violations))
        }
    }

    /// [`Dataset::check_part`] of a whole dataset.
    pub fn check(&self) -> Result<(), LoadError> {
        self.check_part(0)
    }

    /// True when [`Dataset::validate`] finds nothing.
    pub fn is_valid(&self) -> bool {
        self.validate(1).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::NetworkMeta;
    use crate::ids::{ApId, ClientId, EnvLabel, NetworkId};
    use crate::probe::{Probe, RateObs};
    use crate::ClientSample;
    use mesh11_phy::BitRate;

    fn valid_dataset() -> Dataset {
        Dataset {
            networks: vec![NetworkMeta {
                id: NetworkId(0),
                env: EnvLabel::Indoor,
                n_aps: 3,
                radios: vec![Phy::Bg],
                location: String::new(),
            }],
            probes: [Probe {
                network: NetworkId(0),
                phy: Phy::Bg,
                time_s: 300.0,
                sender: ApId(0),
                receiver: ApId(1),
                obs: &[RateObs {
                    rate: BitRate::bg_mbps(1.0).unwrap(),
                    loss: 0.25,
                    snr_db: 18.0,
                }],
            }]
            .into_iter()
            .collect(),
            clients: vec![ClientSample {
                network: NetworkId(0),
                ap: ApId(2),
                client: ClientId(0),
                bin_start_s: 600.0,
                assoc_requests: 1,
                data_pkts: 3,
            }],
            probe_horizon_s: 3_600.0,
            client_horizon_s: 3_600.0,
        }
    }

    #[test]
    fn valid_dataset_passes() {
        let ds = valid_dataset();
        assert!(ds.validate(100).is_empty(), "{:?}", ds.validate(100));
        assert!(ds.is_valid());
    }

    #[test]
    fn catches_bad_loss() {
        let mut ds = valid_dataset();
        ds.probes.obs_mut(0)[0].loss = 1.5;
        let v = ds.validate(100);
        assert!(
            v.iter().any(|v| v.message.contains("not a probability")),
            "{v:?}"
        );
        assert!(!ds.is_valid());
    }

    #[test]
    fn catches_out_of_range_ids() {
        let mut ds = valid_dataset();
        ds.probes.rows_mut()[0].receiver = ApId(9);
        assert!(ds
            .validate(100)
            .iter()
            .any(|v| v.message.contains("out of range")));

        let mut ds2 = valid_dataset();
        ds2.clients[0].ap = ApId(9);
        assert!(ds2
            .validate(100)
            .iter()
            .any(|v| v.message.contains("out of range")));
    }

    #[test]
    fn catches_unknown_network_and_self_link() {
        let mut ds = valid_dataset();
        ds.probes.rows_mut()[0].network = NetworkId(7);
        assert!(ds
            .validate(100)
            .iter()
            .any(|v| v.message.contains("unknown network")));

        let mut ds2 = valid_dataset();
        ds2.probes.rows_mut()[0].receiver = ds2.probes[0].sender;
        assert!(ds2
            .validate(100)
            .iter()
            .any(|v| v.message.contains("self link")));
    }

    #[test]
    fn catches_phy_mismatches() {
        // Rate family differs from the probe's PHY.
        let mut ds = valid_dataset();
        ds.probes.obs_mut(0)[0].rate = BitRate::ht_mcs(0, false).unwrap();
        assert!(ds
            .validate(100)
            .iter()
            .any(|v| v.message.contains("does not belong")));

        // Probe claims a radio the network doesn't have.
        let mut ds2 = valid_dataset();
        ds2.probes.rows_mut()[0].phy = Phy::Ht;
        let v = ds2.validate(100);
        assert!(
            v.iter().any(|v| v.message.contains("has no 802.11n radio")),
            "{v:?}"
        );
    }

    #[test]
    fn catches_horizon_and_alignment() {
        let mut ds = valid_dataset();
        ds.probes.rows_mut()[0].time_s = 999_999.0;
        assert!(ds
            .validate(100)
            .iter()
            .any(|v| v.message.contains("outside horizon")));

        let mut ds2 = valid_dataset();
        ds2.clients[0].bin_start_s = 601.0;
        assert!(ds2
            .validate(100)
            .iter()
            .any(|v| v.message.contains("bin-aligned")));
    }

    #[test]
    fn limit_bounds_output() {
        let mut ds = valid_dataset();
        // Make many violations.
        let bad = [RateObs {
            loss: 2.0,
            ..ds.probes.get(0).obs[0]
        }];
        let h = ds.probes[0].clone();
        for _ in 0..50 {
            ds.probes.push(h.with_obs(&bad));
        }
        assert_eq!(ds.validate(5).len(), 5);
    }
}
