//! Delivery-rate matrices.
//!
//! §5 and §6 of the paper operate not on individual probe sets but on the
//! per-(network, bit-rate) matrix of directed packet success rates. A
//! [`DeliveryMatrix`] is that matrix: `p[i][j]` is the average delivery
//! probability of broadcasts from AP `i` as heard by AP `j`, aggregated over
//! the whole trace. Pairs that never produced a probe set at the rate have
//! delivery 0 — exactly what the real infrastructure would report.

use mesh11_phy::BitRate;
use serde::{Deserialize, Serialize};

use crate::ids::{ApId, NetworkId};
use crate::probe::Probe;

/// Directed delivery probabilities for one (network, rate).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeliveryMatrix {
    /// The network.
    pub network: NetworkId,
    /// The bit rate the probes were sent at.
    pub rate: BitRate,
    n: usize,
    /// Row-major: `p[from * n + to]`.
    p: Vec<f64>,
}

impl DeliveryMatrix {
    /// An all-zero matrix.
    pub fn new_zero(network: NetworkId, rate: BitRate, n_aps: usize) -> Self {
        Self {
            network,
            rate,
            n: n_aps,
            p: vec![0.0; n_aps * n_aps],
        }
    }

    /// Builds the matrix by averaging probe-set deliveries over the trace.
    ///
    /// `probes` may contain reports for other networks or rates; they are
    /// filtered out, so passing `dataset.probes.iter()` works.
    pub fn from_probes<'a>(
        network: NetworkId,
        rate: BitRate,
        n_aps: usize,
        probes: impl IntoIterator<Item = Probe<'a>>,
    ) -> Self {
        let mut sum = vec![0.0f64; n_aps * n_aps];
        let mut cnt = vec![0u32; n_aps * n_aps];
        for ps in probes {
            if ps.network != network {
                continue;
            }
            let Some(obs) = ps.obs_for(rate) else {
                continue;
            };
            let idx = ps.sender.idx() * n_aps + ps.receiver.idx();
            sum[idx] += obs.delivery();
            cnt[idx] += 1;
        }
        let p = sum
            .iter()
            .zip(&cnt)
            .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
            .collect();
        Self {
            network,
            rate,
            n: n_aps,
            p,
        }
    }

    /// Assembles a matrix from an already-averaged row-major probability
    /// vector — the indexed single-pass kernels (`DatasetView::
    /// delivery_stack`) compute the averages themselves.
    pub(crate) fn from_parts(network: NetworkId, rate: BitRate, n_aps: usize, p: Vec<f64>) -> Self {
        debug_assert_eq!(p.len(), n_aps * n_aps);
        Self {
            network,
            rate,
            n: n_aps,
            p,
        }
    }

    /// Number of APs.
    pub fn n_aps(&self) -> usize {
        self.n
    }

    /// Delivery probability `from → to`. The diagonal is 0 by convention.
    pub fn get(&self, from: ApId, to: ApId) -> f64 {
        if from == to {
            return 0.0;
        }
        self.p[from.idx() * self.n + to.idx()]
    }

    /// Sets one directed entry (used by tests and synthetic topologies).
    pub fn set(&mut self, from: ApId, to: ApId, delivery: f64) {
        assert!(
            (0.0..=1.0).contains(&delivery),
            "delivery must be a probability"
        );
        assert_ne!(from, to, "no self links");
        self.p[from.idx() * self.n + to.idx()] = delivery;
    }

    /// Iterates over every ordered pair `(from, to, delivery)`, diagonal
    /// excluded.
    pub fn directed_pairs(&self) -> impl Iterator<Item = (ApId, ApId, f64)> + '_ {
        (0..self.n).flat_map(move |i| {
            (0..self.n)
                .filter(move |&j| i != j)
                .map(move |j| (ApId(i as u32), ApId(j as u32), self.p[i * self.n + j]))
        })
    }

    /// The mean of the two directions — the paper's "probes sent between
    /// them" hearing statistic for §6.
    pub fn symmetric_mean(&self, a: ApId, b: ApId) -> f64 {
        0.5 * (self.get(a, b) + self.get(b, a))
    }

    /// Forward/reverse delivery ratio for Fig 5.2, `None` when the reverse
    /// direction was never heard (the ratio is undefined, matching the
    /// paper's per-pair CDF which only includes measurable pairs).
    pub fn asymmetry_ratio(&self, a: ApId, b: ApId) -> Option<f64> {
        let fwd = self.get(a, b);
        let rev = self.get(b, a);
        (rev > 0.0).then(|| fwd / rev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{ProbeTable, RateObs};
    use mesh11_phy::Phy;

    fn r(mbps: f64) -> BitRate {
        BitRate::bg_mbps(mbps).unwrap()
    }

    /// One single-observation probe set per `(net, sender, receiver,
    /// rate, loss)` row.
    fn table(rows: &[(u32, u32, u32, BitRate, f64)]) -> ProbeTable {
        let mut t = ProbeTable::new();
        for &(net, s, rx, rate, loss) in rows {
            t.push(Probe {
                network: NetworkId(net),
                phy: Phy::Bg,
                time_s: 0.0,
                sender: ApId(s),
                receiver: ApId(rx),
                obs: &[RateObs {
                    rate,
                    loss,
                    snr_db: 15.0,
                }],
            });
        }
        t
    }

    #[test]
    fn averages_reports() {
        let probes = table(&[
            (0, 0, 1, r(1.0), 0.2),
            (0, 0, 1, r(1.0), 0.4),
            (0, 1, 0, r(1.0), 0.5),
        ]);
        let m = DeliveryMatrix::from_probes(NetworkId(0), r(1.0), 2, &probes);
        assert!((m.get(ApId(0), ApId(1)) - 0.7).abs() < 1e-12);
        assert!((m.get(ApId(1), ApId(0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn filters_other_networks_and_rates() {
        let probes = table(&[
            (1, 0, 1, r(1.0), 0.0), // wrong network
            (0, 0, 1, r(6.0), 0.0), // wrong rate
        ]);
        let m = DeliveryMatrix::from_probes(NetworkId(0), r(1.0), 2, &probes);
        assert_eq!(m.get(ApId(0), ApId(1)), 0.0);
    }

    #[test]
    fn unheard_pairs_are_zero() {
        let m = DeliveryMatrix::from_probes(NetworkId(0), r(1.0), 3, &ProbeTable::new());
        for (_, _, p) in m.directed_pairs() {
            assert_eq!(p, 0.0);
        }
        assert_eq!(m.directed_pairs().count(), 6);
    }

    #[test]
    fn diagonal_is_zero() {
        let mut m = DeliveryMatrix::new_zero(NetworkId(0), r(1.0), 2);
        m.set(ApId(0), ApId(1), 0.9);
        assert_eq!(m.get(ApId(0), ApId(0)), 0.0);
        assert_eq!(m.get(ApId(0), ApId(1)), 0.9);
    }

    #[test]
    fn symmetric_mean_and_asymmetry() {
        let mut m = DeliveryMatrix::new_zero(NetworkId(0), r(1.0), 2);
        m.set(ApId(0), ApId(1), 0.8);
        m.set(ApId(1), ApId(0), 0.4);
        assert!((m.symmetric_mean(ApId(0), ApId(1)) - 0.6).abs() < 1e-12);
        assert!((m.asymmetry_ratio(ApId(0), ApId(1)).unwrap() - 2.0).abs() < 1e-12);
        assert!((m.asymmetry_ratio(ApId(1), ApId(0)).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn asymmetry_undefined_when_silent() {
        let mut m = DeliveryMatrix::new_zero(NetworkId(0), r(1.0), 2);
        m.set(ApId(0), ApId(1), 0.8);
        assert_eq!(m.asymmetry_ratio(ApId(0), ApId(1)), None);
    }

    #[test]
    #[should_panic(expected = "no self links")]
    fn set_rejects_diagonal() {
        let mut m = DeliveryMatrix::new_zero(NetworkId(0), r(1.0), 2);
        m.set(ApId(0), ApId(0), 0.5);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn set_rejects_bad_probability() {
        let mut m = DeliveryMatrix::new_zero(NetworkId(0), r(1.0), 2);
        m.set(ApId(0), ApId(1), 1.5);
    }
}
