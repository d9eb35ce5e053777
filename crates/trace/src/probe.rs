//! Probe-set records (paper §3.1).
//!
//! Each AP broadcasts probes every 40 s at every probed bit rate; receivers
//! track per-(sender, rate) loss over an 800 s sliding window and report
//! every 300 s. One [`ProbeSet`] is one such report for one (receiver,
//! sender) pair: per rate, the windowed mean loss and the most recent SNR.

use mesh11_phy::{BitRate, Phy};
use serde::{Deserialize, Serialize};

use crate::ids::{ApId, NetworkId};

/// One rate's entry within a probe set: the paper's tuple
/// `(Sender, Bit rate, Mean loss rate, Most recent SNR)` minus the sender
/// (lifted to the probe set).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateObs {
    /// The probed transmit configuration.
    pub rate: BitRate,
    /// Mean loss rate over the 800 s window, in `[0, 1]`.
    pub loss: f64,
    /// SNR (dB) of the most recently received probe at this rate. `NaN`
    /// never appears: if no probe at this rate was ever received the rate
    /// simply has no entry.
    pub snr_db: f64,
}

impl RateObs {
    /// Delivery probability (`1 − loss`).
    pub fn delivery(&self) -> f64 {
        (1.0 - self.loss).clamp(0.0, 1.0)
    }

    /// Throughput in Mbit/s under the paper's definition (§3.1.2):
    /// bit rate × packet success rate.
    pub fn throughput_mbps(&self) -> f64 {
        self.rate.throughput_mbps(self.delivery())
    }
}

/// One probe-set report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbeSet {
    /// The network this report belongs to.
    pub network: NetworkId,
    /// The radio family the probes were sent on.
    pub phy: Phy,
    /// Report time (seconds since trace start).
    pub time_s: f64,
    /// The AP whose broadcasts are being measured.
    pub sender: ApId,
    /// The AP that received (and reports) the measurements.
    pub receiver: ApId,
    /// Per-rate observations; only rates with at least one reception appear.
    pub obs: Vec<RateObs>,
}

impl ProbeSet {
    /// The probe set's SNR: the median of the per-rate most-recent SNRs
    /// (paper §3.1.1 — robust because the within-set spread is small,
    /// Fig 3.1).
    pub fn snr_db(&self) -> f64 {
        self.with_snrs(|snrs| {
            // `mesh11_stats::median`'s sort, on a scratch copy that needs
            // no allocation: same comparator, same stable order, same bits.
            snrs.sort_by(|a, b| {
                a.partial_cmp(b)
                    .expect("non-finite value in quantile input")
            });
            mesh11_stats::quantile_sorted(snrs, 0.5)
        })
        .expect("probe sets always have ≥1 observation")
    }

    /// The probe set's SNR rounded to the integer dB the lookup tables key
    /// on.
    pub fn snr_key(&self) -> i64 {
        self.snr_db().round() as i64
    }

    /// `P_opt`: the rate maximizing `b · (1 − b_loss)` among this set's
    /// rates (paper §4.1). Ties break toward the lower rate, matching the
    /// conservative choice a real adapter makes.
    pub fn optimal(&self) -> RateObs {
        *self
            .obs
            .iter()
            .max_by(|a, b| {
                a.throughput_mbps()
                    .partial_cmp(&b.throughput_mbps())
                    .expect("throughputs are finite")
                    .then(b.rate.cmp(&a.rate))
            })
            .expect("probe sets always have ≥1 observation")
    }

    /// The observation for a specific rate, if probed and heard.
    pub fn obs_for(&self, rate: BitRate) -> Option<&RateObs> {
        self.obs.iter().find(|o| o.rate == rate)
    }

    /// Population standard deviation of the SNRs within the set — the
    /// per-probe-set statistic of Fig 3.1.
    pub fn snr_stddev(&self) -> f64 {
        self.with_snrs(|snrs| mesh11_stats::stddev_pop(snrs))
            .expect("probe sets always have ≥1 observation")
    }

    /// Runs `f` over a scratch copy of the per-rate SNRs, in `obs` order.
    /// The copy lives on the stack for every set a PHY can produce; only an
    /// oversized hand-built set spills to the heap.
    fn with_snrs<R>(&self, f: impl FnOnce(&mut [f64]) -> R) -> R {
        const STACK_OBS: usize = 64;
        let n = self.obs.len();
        if n <= STACK_OBS {
            let mut buf = [0.0f64; STACK_OBS];
            for (b, o) in buf.iter_mut().zip(&self.obs) {
                *b = o.snr_db;
            }
            f(&mut buf[..n])
        } else {
            f(&mut self.obs.iter().map(|o| o.snr_db).collect::<Vec<f64>>())
        }
    }

    /// The directed link this report describes, as `(sender, receiver)`.
    pub fn link(&self) -> (ApId, ApId) {
        (self.sender, self.receiver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate(mbps: f64) -> BitRate {
        BitRate::bg_mbps(mbps).unwrap()
    }

    fn set(obs: Vec<RateObs>) -> ProbeSet {
        ProbeSet {
            network: NetworkId(0),
            phy: Phy::Bg,
            time_s: 300.0,
            sender: ApId(1),
            receiver: ApId(2),
            obs,
        }
    }

    #[test]
    fn delivery_and_throughput() {
        let o = RateObs {
            rate: rate(24.0),
            loss: 0.25,
            snr_db: 20.0,
        };
        assert_eq!(o.delivery(), 0.75);
        assert_eq!(o.throughput_mbps(), 18.0);
    }

    #[test]
    fn delivery_clamps_noisy_loss() {
        let o = RateObs {
            rate: rate(1.0),
            loss: 1.2,
            snr_db: 1.0,
        };
        assert_eq!(o.delivery(), 0.0);
    }

    #[test]
    fn optimal_maximizes_throughput() {
        // 11 Mbit/s with no loss (11.0) beats 48 Mbit/s at 80% loss (9.6).
        let s = set(vec![
            RateObs {
                rate: rate(11.0),
                loss: 0.0,
                snr_db: 18.0,
            },
            RateObs {
                rate: rate(48.0),
                loss: 0.8,
                snr_db: 19.0,
            },
        ]);
        assert_eq!(s.optimal().rate, rate(11.0));
    }

    #[test]
    fn optimal_tie_breaks_low() {
        // 12 @ 50% = 6.0 and 6 @ 0% = 6.0: prefer the lower rate.
        let s = set(vec![
            RateObs {
                rate: rate(6.0),
                loss: 0.0,
                snr_db: 15.0,
            },
            RateObs {
                rate: rate(12.0),
                loss: 0.5,
                snr_db: 15.0,
            },
        ]);
        assert_eq!(s.optimal().rate, rate(6.0));
    }

    #[test]
    fn median_snr_of_set() {
        let s = set(vec![
            RateObs {
                rate: rate(1.0),
                loss: 0.0,
                snr_db: 10.0,
            },
            RateObs {
                rate: rate(6.0),
                loss: 0.0,
                snr_db: 14.0,
            },
            RateObs {
                rate: rate(11.0),
                loss: 0.0,
                snr_db: 30.0,
            },
        ]);
        assert_eq!(s.snr_db(), 14.0);
        assert_eq!(s.snr_key(), 14);
    }

    #[test]
    fn snr_key_rounds() {
        let s = set(vec![RateObs {
            rate: rate(1.0),
            loss: 0.0,
            snr_db: 17.6,
        }]);
        assert_eq!(s.snr_key(), 18);
    }

    #[test]
    fn scratch_statistics_match_the_allocating_ones() {
        // Even counts interpolate; 70 observations overflow the stack copy.
        for n in [1usize, 2, 5, 12, 64, 70] {
            let s = set((0..n)
                .map(|i| RateObs {
                    rate: rate(1.0),
                    loss: 0.0,
                    snr_db: ((i * 37) % 23) as f64 * 0.75 - 4.0,
                })
                .collect());
            let snrs: Vec<f64> = s.obs.iter().map(|o| o.snr_db).collect();
            let median = mesh11_stats::median(&snrs).unwrap();
            let sd = mesh11_stats::stddev_pop(&snrs).unwrap();
            assert_eq!(s.snr_db().to_bits(), median.to_bits(), "median of {n}");
            assert_eq!(s.snr_stddev().to_bits(), sd.to_bits(), "stddev of {n}");
        }
    }

    #[test]
    fn stddev_within_set() {
        let s = set(vec![
            RateObs {
                rate: rate(1.0),
                loss: 0.0,
                snr_db: 10.0,
            },
            RateObs {
                rate: rate(6.0),
                loss: 0.0,
                snr_db: 14.0,
            },
        ]);
        assert_eq!(s.snr_stddev(), 2.0);
    }

    #[test]
    fn obs_lookup() {
        let s = set(vec![RateObs {
            rate: rate(6.0),
            loss: 0.1,
            snr_db: 12.0,
        }]);
        assert!(s.obs_for(rate(6.0)).is_some());
        assert!(s.obs_for(rate(48.0)).is_none());
        assert_eq!(s.link(), (ApId(1), ApId(2)));
    }
}
