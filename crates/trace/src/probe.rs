//! Probe-set records (paper §3.1).
//!
//! Each AP broadcasts probes every 40 s at every probed bit rate; receivers
//! track per-(sender, rate) loss over an 800 s sliding window and report
//! every 300 s. One [`ProbeSet`] is one such report for one (receiver,
//! sender) pair: per rate, the windowed mean loss and the most recent SNR.

use std::ops::Range;

use mesh11_phy::{BitRate, Phy};
use serde::{Deserialize, Serialize, Value};

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

/// One stored probe-set report: the header of the paper's report plus the
/// range of its observations in the owning [`ProbeTable`]'s arena. Read a
/// whole set through [`ProbeTable::get`], which pairs the header with its
/// observations as a [`Probe`].
#[derive(Debug, Clone, PartialEq)]
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
    /// This set's observations: a range of the table's arena.
    pub(crate) obs: Range<u32>,
}

impl ProbeSet {
    /// This header paired with `obs`.
    pub fn with_obs<'a>(&self, obs: &'a [RateObs]) -> Probe<'a> {
        Probe {
            network: self.network,
            phy: self.phy,
            time_s: self.time_s,
            sender: self.sender,
            receiver: self.receiver,
            obs,
        }
    }
}

/// A borrowed probe set: the report header plus its per-rate observations
/// (only rates with at least one reception appear).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe<'a> {
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
    /// Per-rate observations.
    pub obs: &'a [RateObs],
}

impl<'a> Probe<'a> {
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
    pub fn obs_for(&self, rate: BitRate) -> Option<&'a RateObs> {
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
            for (b, o) in buf.iter_mut().zip(self.obs) {
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

    /// Why a decoder must refuse this record, if it must: every analysis
    /// takes the set's median SNR and optimal rate, and the per-link
    /// replays order a link's sets by report time, so a set needs a finite
    /// time, at least one observation, every loss and SNR finite, and
    /// every rate from its own PHY. The M11T and JSON decoders both apply
    /// this one check (a rate in no PHY table never decodes at all).
    pub(crate) fn record_error(&self) -> Option<String> {
        if !self.time_s.is_finite() {
            return Some(format!("has a non-finite report time ({})", self.time_s));
        }
        if self.obs.is_empty() {
            return Some("has no rate observations".into());
        }
        self.obs.iter().find_map(|o| {
            if o.rate.phy() != self.phy {
                Some(format!(
                    "has rate {} outside its PHY ({})",
                    o.rate, self.phy
                ))
            } else if !o.loss.is_finite() || !o.snr_db.is_finite() {
                Some(format!(
                    "has a non-finite observation (loss {}, snr {})",
                    o.loss, o.snr_db
                ))
            } else {
                None
            }
        })
    }
}

/// Probe sets stored flat: one header row per set, and every set's
/// observations in one shared arena, in set order. A dataset holds one
/// table; the simulator fills one per AP pair and merges them.
///
/// The arena is always the concatenation of the sets' observations in row
/// order, so two tables holding the same sets are equal field for field.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProbeTable {
    rows: Vec<ProbeSet>,
    /// Observations of every sealed set, then those pushed for the set
    /// being assembled (see [`ProbeTable::push_obs`]).
    obs: Vec<RateObs>,
}

impl ProbeTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table with room for `sets` probe sets holding `obs`
    /// observations in total.
    pub fn with_capacity(sets: usize, obs: usize) -> Self {
        Self {
            rows: Vec::with_capacity(sets),
            obs: Vec::with_capacity(obs),
        }
    }

    /// A table over rows a decoder filled in place: every row's `obs`
    /// range must follow the previous one's, and the last must end the
    /// arena.
    pub(crate) fn from_parts(rows: Vec<ProbeSet>, obs: Vec<RateObs>) -> Self {
        debug_assert!(rows
            .iter()
            .try_fold(0, |end, r| (r.obs.start == end).then_some(r.obs.end))
            .is_some_and(|end| end as usize == obs.len()));
        Self { rows, obs }
    }

    /// Number of probe sets.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table holds no probe set.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The header rows, in set order.
    pub fn rows(&self) -> &[ProbeSet] {
        &self.rows
    }

    /// The header rows, for in-place edits of headers (the observation
    /// ranges stay private to the table).
    pub(crate) fn rows_mut(&mut self) -> &mut [ProbeSet] {
        &mut self.rows
    }

    /// The observation arena of every sealed set, in set order.
    pub fn observations(&self) -> &[RateObs] {
        &self.obs[..self.sealed_obs()]
    }

    /// The probe set at position `i`.
    ///
    /// # Panics
    /// If `i` is out of bounds.
    pub fn get(&self, i: usize) -> Probe<'_> {
        row_probe(&self.rows[i], &self.obs)
    }

    /// The observations of the set at position `i`, for in-place edits.
    #[cfg(test)]
    pub(crate) fn obs_mut(&mut self, i: usize) -> &mut [RateObs] {
        let r = self.rows[i].obs.clone();
        &mut self.obs[r.start as usize..r.end as usize]
    }

    /// The probe sets, in order.
    pub fn iter(&self) -> Probes<'_> {
        Probes {
            rows: self.rows.iter(),
            obs: &self.obs,
        }
    }

    fn sealed_obs(&self) -> usize {
        self.rows.last().map_or(0, |r| r.obs.end as usize)
    }

    /// Reserves room for `sets` more probe sets and `obs` more
    /// observations.
    pub fn reserve(&mut self, sets: usize, obs: usize) {
        self.rows.reserve(sets);
        self.obs.reserve(obs);
    }

    /// Releases spare capacity. A table that is kept while its producer's
    /// thread allocates the next one gives the slack back for reuse.
    pub fn shrink_to_fit(&mut self) {
        self.rows.shrink_to_fit();
        self.obs.shrink_to_fit();
    }

    /// Appends a copy of one probe set.
    pub fn push(&mut self, p: Probe<'_>) {
        self.obs.extend_from_slice(p.obs);
        self.seal(p.network, p.phy, p.time_s, p.sender, p.receiver);
    }

    /// Appends one observation to the set being assembled; the set is
    /// closed by [`ProbeTable::seal`]. Producers write observations
    /// straight into the arena this way, with no per-set buffer.
    pub fn push_obs(&mut self, o: RateObs) {
        self.obs.push(o);
    }

    /// Closes the set being assembled under this header: every
    /// observation pushed since the previous set becomes its `obs`.
    ///
    /// # Panics
    /// If the arena outgrows `u32` positions.
    pub fn seal(
        &mut self,
        network: NetworkId,
        phy: Phy,
        time_s: f64,
        sender: ApId,
        receiver: ApId,
    ) {
        let start = self.sealed_obs() as u32;
        let end = u32::try_from(self.obs.len()).expect("observation arena exceeds u32 positions");
        self.rows.push(ProbeSet {
            network,
            phy,
            time_s,
            sender,
            receiver,
            obs: start..end,
        });
    }

    /// Moves every set of `other` to the end of this table.
    ///
    /// # Panics
    /// If this table has observations pushed but not sealed, or if the
    /// arena outgrows `u32` positions.
    pub fn append(&mut self, other: ProbeTable) {
        assert_eq!(
            self.obs.len(),
            self.sealed_obs(),
            "append between sets, not while one is open"
        );
        if self.rows.is_empty() {
            *self = other;
            return;
        }
        let base = u32::try_from(self.obs.len()).expect("observation arena exceeds u32 positions");
        u32::try_from(self.obs.len() + other.sealed_obs())
            .expect("observation arena exceeds u32 positions");
        self.obs.extend_from_slice(other.observations());
        self.rows.extend(other.rows.into_iter().map(|mut r| {
            r.obs = r.obs.start + base..r.obs.end + base;
            r
        }));
    }
}

/// Pairs a header row with its observations in `arena`.
fn row_probe<'a>(row: &ProbeSet, arena: &'a [RateObs]) -> Probe<'a> {
    row.with_obs(&arena[row.obs.start as usize..row.obs.end as usize])
}

impl std::ops::Index<usize> for ProbeTable {
    type Output = ProbeSet;

    /// The header row at position `i` (its observations: [`ProbeTable::get`]).
    fn index(&self, i: usize) -> &ProbeSet {
        &self.rows[i]
    }
}

impl<'a> Extend<Probe<'a>> for ProbeTable {
    fn extend<I: IntoIterator<Item = Probe<'a>>>(&mut self, iter: I) {
        for p in iter {
            self.push(p);
        }
    }
}

impl<'a> FromIterator<Probe<'a>> for ProbeTable {
    fn from_iter<I: IntoIterator<Item = Probe<'a>>>(iter: I) -> Self {
        let mut t = ProbeTable::new();
        t.extend(iter);
        t
    }
}

impl<'a> IntoIterator for &'a ProbeTable {
    type Item = Probe<'a>;
    type IntoIter = Probes<'a>;

    fn into_iter(self) -> Probes<'a> {
        self.iter()
    }
}

/// Iterator over a [`ProbeTable`]'s sets, in order.
#[derive(Debug, Clone)]
pub struct Probes<'a> {
    rows: std::slice::Iter<'a, ProbeSet>,
    obs: &'a [RateObs],
}

impl<'a> Iterator for Probes<'a> {
    type Item = Probe<'a>;

    fn next(&mut self) -> Option<Probe<'a>> {
        let obs = self.obs;
        self.rows.next().map(|r| row_probe(r, obs))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rows.size_hint()
    }
}

impl ExactSizeIterator for Probes<'_> {}

// The JSON shape of a table is an array of probe objects with the fields
// in declaration order — what `#[derive(Serialize)]` on a probe struct
// with an owned `obs` vector writes.
impl Serialize for Probe<'_> {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("network".into(), self.network.to_value()),
            ("phy".into(), self.phy.to_value()),
            ("time_s".into(), self.time_s.to_value()),
            ("sender".into(), self.sender.to_value()),
            ("receiver".into(), self.receiver.to_value()),
            ("obs".into(), self.obs.to_value()),
        ])
    }
}

impl Serialize for ProbeTable {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(|p| p.to_value()).collect())
    }
}

impl Deserialize for ProbeTable {
    /// Parses the array of probe objects, applying the same record check
    /// as the M11T decoder to every set.
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        use serde::__private::{as_object, field};
        let Value::Array(items) = v else {
            return Err(serde::Error::msg("expected array of probe sets"));
        };
        let mut t = ProbeTable::with_capacity(items.len(), 0);
        for (k, item) in items.iter().enumerate() {
            let fields = as_object(item, "ProbeSet")?;
            let Some((_, Value::Array(obs))) = fields.iter().find(|(key, _)| key == "obs") else {
                return Err(serde::Error::msg(format!(
                    "probe set {k}: missing or malformed field `obs`"
                )));
            };
            for o in obs {
                t.push_obs(RateObs::from_value(o)?);
            }
            t.seal(
                field(fields, "network", "ProbeSet")?,
                field(fields, "phy", "ProbeSet")?,
                field(fields, "time_s", "ProbeSet")?,
                field(fields, "sender", "ProbeSet")?,
                field(fields, "receiver", "ProbeSet")?,
            );
            if let Some(e) = t.get(k).record_error() {
                return Err(serde::Error::msg(format!("probe set {k} {e}")));
            }
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate(mbps: f64) -> BitRate {
        BitRate::bg_mbps(mbps).unwrap()
    }

    fn set(obs: &[RateObs]) -> Probe<'_> {
        Probe {
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
        let obs = [
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
        ];
        let s = set(&obs);
        assert_eq!(s.optimal().rate, rate(11.0));
    }

    #[test]
    fn optimal_tie_breaks_low() {
        // 12 @ 50% = 6.0 and 6 @ 0% = 6.0: prefer the lower rate.
        let obs = [
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
        ];
        let s = set(&obs);
        assert_eq!(s.optimal().rate, rate(6.0));
    }

    #[test]
    fn median_snr_of_set() {
        let obs = [
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
        ];
        let s = set(&obs);
        assert_eq!(s.snr_db(), 14.0);
        assert_eq!(s.snr_key(), 14);
    }

    #[test]
    fn snr_key_rounds() {
        let obs = [RateObs {
            rate: rate(1.0),
            loss: 0.0,
            snr_db: 17.6,
        }];
        let s = set(&obs);
        assert_eq!(s.snr_key(), 18);
    }

    #[test]
    fn scratch_statistics_match_the_allocating_ones() {
        // Even counts interpolate; 70 observations overflow the stack copy.
        for n in [1usize, 2, 5, 12, 64, 70] {
            let obs: Vec<RateObs> = (0..n)
                .map(|i| RateObs {
                    rate: rate(1.0),
                    loss: 0.0,
                    snr_db: ((i * 37) % 23) as f64 * 0.75 - 4.0,
                })
                .collect();
            let s = set(&obs);
            let snrs: Vec<f64> = s.obs.iter().map(|o| o.snr_db).collect();
            let median = mesh11_stats::median(&snrs).unwrap();
            let sd = mesh11_stats::stddev_pop(&snrs).unwrap();
            assert_eq!(s.snr_db().to_bits(), median.to_bits(), "median of {n}");
            assert_eq!(s.snr_stddev().to_bits(), sd.to_bits(), "stddev of {n}");
        }
    }

    #[test]
    fn stddev_within_set() {
        let obs = [
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
        ];
        let s = set(&obs);
        assert_eq!(s.snr_stddev(), 2.0);
    }

    #[test]
    fn obs_lookup() {
        let obs = [RateObs {
            rate: rate(6.0),
            loss: 0.1,
            snr_db: 12.0,
        }];
        let s = set(&obs);
        assert!(s.obs_for(rate(6.0)).is_some());
        assert!(s.obs_for(rate(48.0)).is_none());
        assert_eq!(s.link(), (ApId(1), ApId(2)));
    }

    /// A table of `n` sets; set `k` holds `k % 3 + 1` observations.
    fn table(n: usize) -> ProbeTable {
        let mut t = ProbeTable::new();
        for k in 0..n {
            for j in 0..k % 3 + 1 {
                t.push_obs(RateObs {
                    rate: rate([1.0, 6.0, 11.0][j]),
                    loss: 0.125 * j as f64,
                    snr_db: k as f64 + 0.5 * j as f64,
                });
            }
            t.seal(
                NetworkId(k as u32 / 4),
                Phy::Bg,
                300.0 * k as f64,
                ApId(0),
                ApId(1),
            );
        }
        t
    }

    #[test]
    fn sealed_sets_own_their_observation_runs() {
        let t = table(7);
        assert_eq!(t.len(), 7);
        assert_eq!(
            t.observations().len(),
            (0..7).map(|k| k % 3 + 1).sum::<usize>()
        );
        for (k, p) in t.iter().enumerate() {
            assert_eq!(p.obs.len(), k % 3 + 1);
            assert_eq!(p.obs[0].snr_db, k as f64);
            assert_eq!(p.time_s, 300.0 * k as f64);
            assert_eq!(t.get(k), p);
        }
        assert_eq!(t.iter().nth(3), Some(t.get(3)));
    }

    #[test]
    fn pushed_observations_join_the_next_sealed_set() {
        let mut t = table(2);
        let sealed = t.observations().len();
        t.push_obs(RateObs {
            rate: rate(1.0),
            loss: 0.0,
            snr_db: 1.0,
        });
        assert_eq!(t.observations().len(), sealed, "not a set until sealed");
        assert_eq!(t.len(), 2);
        t.seal(NetworkId(9), Phy::Bg, 0.0, ApId(1), ApId(0));
        assert_eq!(t.get(2).obs.len(), 1);
        assert_eq!(t.observations().len(), sealed + 1);
    }

    #[test]
    fn append_and_collect_rebuild_the_same_table() {
        let whole = table(9);
        let mut a: ProbeTable = whole.iter().take(4).collect();
        let b: ProbeTable = whole.iter().skip(4).collect();
        a.append(b);
        assert_eq!(a, whole);
        let mut empty = ProbeTable::new();
        empty.append(whole.clone());
        assert_eq!(empty, whole);
        let mut edited = whole.clone();
        edited.obs_mut(5)[0].loss = 0.75;
        edited.rows_mut()[5].receiver = ApId(3);
        assert_eq!(edited.get(5).obs[0].loss, 0.75);
        assert_eq!(edited.get(5).receiver, ApId(3));
        assert_eq!(edited.get(4), whole.get(4));
    }

    #[test]
    fn json_shape_is_one_object_per_set() {
        let t = table(2);
        let json = serde_json::to_string(&t).unwrap();
        assert!(
            json.starts_with(r#"[{"network":0,"phy":"Bg","time_s":0.0,"sender":0,"receiver":1,"obs":[{"rate":{"kbps":1000,"#),
            "{json}"
        );
        let back: ProbeTable = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    /// The JSON of a one-set table whose set holds `obs`, as text.
    fn one_set_json(phy: &str, obs: &str) -> String {
        format!(
            r#"[{{"network":0,"phy":"{phy}","time_s":300.0,"sender":0,"receiver":1,"obs":[{obs}]}}]"#
        )
    }

    const BG_1M: &str = r#"{"kbps":1000,"class":"Dsss","mcs":255,"short_gi":false}"#;

    fn json_error(phy: &str, obs: &str) -> String {
        serde_json::from_str::<ProbeTable>(&one_set_json(phy, obs))
            .expect_err("record must be refused")
            .to_string()
    }

    #[test]
    fn json_accepts_a_valid_record() {
        let obs = format!(r#"{{"rate":{BG_1M},"loss":0.25,"snr_db":12.0}}"#);
        let t: ProbeTable = serde_json::from_str(&one_set_json("Bg", &obs)).unwrap();
        assert_eq!(t.get(0).obs[0].rate, rate(1.0));
    }

    #[test]
    fn json_rejects_a_set_without_observations() {
        let e = json_error("Bg", "");
        assert!(e.contains("probe set 0 has no rate observations"), "{e}");
    }

    #[test]
    fn json_rejects_non_finite_loss() {
        let e = json_error(
            "Bg",
            &format!(r#"{{"rate":{BG_1M},"loss":null,"snr_db":12.0}}"#),
        );
        assert!(e.contains("non-finite"), "{e}");
    }

    #[test]
    fn json_rejects_non_finite_snr() {
        let e = json_error(
            "Bg",
            &format!(r#"{{"rate":{BG_1M},"loss":0.5,"snr_db":null}}"#),
        );
        assert!(e.contains("non-finite"), "{e}");
    }

    #[test]
    fn json_rejects_a_rate_of_the_other_phy() {
        let e = json_error(
            "Ht",
            &format!(r#"{{"rate":{BG_1M},"loss":0.5,"snr_db":12.0}}"#),
        );
        assert!(e.contains("outside its PHY"), "{e}");
    }

    #[test]
    fn json_rejects_a_rate_in_no_table() {
        let bogus = r#"{"kbps":7000,"class":"Ofdm","mcs":255,"short_gi":false}"#;
        let e = json_error(
            "Bg",
            &format!(r#"{{"rate":{bogus},"loss":0.5,"snr_db":12.0}}"#),
        );
        assert!(e.contains("is in no rate table"), "{e}");
    }
}
