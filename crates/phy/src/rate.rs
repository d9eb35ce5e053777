//! Bit-rate tables for 802.11b/g and 802.11n (20 MHz channel).
//!
//! A [`BitRate`] is a concrete transmit configuration: nominal data rate plus
//! enough modulation/coding identity to drive the error models and to
//! distinguish configurations that share a nominal rate (e.g. MCS6 short-GI
//! and MCS7 long-GI are both 65 Mbit/s).

use serde::{Deserialize, Serialize};
use std::fmt;

/// The two PHY families in the dataset.
///
/// 77 of the paper's networks are 802.11b/g, 31 are 802.11n (20 MHz), and two
/// run both radios (handled at the network level as two co-located radio
/// sets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Phy {
    /// 802.11b/g mixed mode.
    Bg,
    /// 802.11n, 20 MHz channel, up to two spatial streams.
    Ht,
}

impl Phy {
    /// The rates probed by the measurement infrastructure for this PHY.
    ///
    /// For b/g these are the paper's seven evaluated rates (54 Mbit/s was not
    /// probed frequently enough to analyze). For 802.11n, every MCS 0–15 with
    /// both guard intervals is probed — the "several dozen" configurations.
    pub fn probed_rates(self) -> &'static [BitRate] {
        match self {
            Phy::Bg => BG_PROBED,
            Phy::Ht => HT_ALL,
        }
    }

    /// All rates this PHY can transmit at.
    pub fn all_rates(self) -> &'static [BitRate] {
        match self {
            Phy::Bg => BG_ALL,
            Phy::Ht => HT_ALL,
        }
    }

    /// The most robust rate of the PHY — what management/broadcast frames
    /// and the b/g preamble effectively use.
    pub fn base_rate(self) -> BitRate {
        match self {
            Phy::Bg => BG_ALL[0],
            Phy::Ht => HT_ALL[0],
        }
    }
}

impl fmt::Display for Phy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phy::Bg => write!(f, "802.11b/g"),
            Phy::Ht => write!(f, "802.11n"),
        }
    }
}

/// Modulation/coding class of a rate — what selects the BER curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RateClass {
    /// 802.11b DSSS: DBPSK (1 Mbit/s) or DQPSK (2 Mbit/s).
    Dsss,
    /// 802.11b CCK: 5.5 or 11 Mbit/s.
    Cck,
    /// 802.11g OFDM: BPSK/QPSK/16-QAM/64-QAM with convolutional coding.
    Ofdm,
    /// 802.11n HT OFDM (MCS 0–15, 20 MHz).
    Ht,
}

/// A concrete transmit configuration.
///
/// Ordering is by nominal rate (kbps), breaking ties by MCS index so that the
/// rate list of a PHY is strictly ordered. Every value is an entry of
/// [`BG_ALL`] or [`HT_ALL`]: the constructors look rates up in those tables,
/// and deserialization refuses anything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct BitRate {
    /// Nominal data rate in kbit/s.
    kbps: u32,
    /// Modulation family.
    class: RateClass,
    /// MCS index for HT rates; `u8::MAX` for legacy rates (kept private).
    mcs: u8,
    /// Short guard interval (HT only).
    short_gi: bool,
}

impl BitRate {
    const LEGACY_MCS: u8 = u8::MAX;

    /// A legacy (b/g) rate.
    const fn legacy(kbps: u32, class: RateClass) -> Self {
        Self {
            kbps,
            class,
            mcs: Self::LEGACY_MCS,
            short_gi: false,
        }
    }

    /// An HT rate.
    const fn ht(kbps: u32, mcs: u8, short_gi: bool) -> Self {
        Self {
            kbps,
            class: RateClass::Ht,
            mcs,
            short_gi,
        }
    }

    /// Looks up a legacy b/g rate by nominal Mbit/s value (e.g. `11.0`).
    /// Returns `None` for values that are not 802.11b/g rates.
    pub fn bg_mbps(mbps: f64) -> Option<Self> {
        let kbps = (mbps * 1000.0).round() as u32;
        BG_ALL.iter().copied().find(|r| r.kbps == kbps)
    }

    /// Looks up an HT rate by MCS index and guard interval.
    pub fn ht_mcs(mcs: u8, short_gi: bool) -> Option<Self> {
        HT_ALL
            .iter()
            .copied()
            .find(|r| r.mcs == mcs && r.short_gi == short_gi)
    }

    /// Nominal rate in kbit/s.
    pub fn kbps(self) -> u32 {
        self.kbps
    }

    /// Nominal rate in Mbit/s.
    pub fn mbps(self) -> f64 {
        self.kbps as f64 / 1000.0
    }

    /// Modulation family.
    pub fn class(self) -> RateClass {
        self.class
    }

    /// MCS index for HT rates.
    pub fn mcs(self) -> Option<u8> {
        (self.mcs != Self::LEGACY_MCS).then_some(self.mcs)
    }

    /// Whether this is a short-guard-interval HT configuration.
    pub fn short_gi(self) -> bool {
        self.short_gi
    }

    /// True for DSSS/CCK (non-OFDM) rates — the rates the paper singles out
    /// in §6.1 as having better low-SNR reception.
    pub fn is_dsss_family(self) -> bool {
        matches!(self.class, RateClass::Dsss | RateClass::Cck)
    }

    /// The PHY this rate belongs to.
    #[inline]
    pub fn phy(self) -> Phy {
        if self.class == RateClass::Ht {
            Phy::Ht
        } else {
            Phy::Bg
        }
    }

    /// Dense index of this rate within its PHY's `all_rates()` list, in
    /// constant time: a table slot looked up by nominal rate (b/g) or by
    /// MCS and guard interval (HT). Lets analysis code use flat arrays
    /// instead of hash maps.
    // Inlined across crates: the codecs and the delivery stacks call it
    // once per observation.
    #[inline]
    pub fn index(self) -> usize {
        self.slot()
            .expect("every BitRate is an entry of its PHY table")
    }

    /// The table slot these field values map to. Exact for every rate the
    /// constructors and deserialization admit (each is a table entry).
    #[inline]
    fn slot(self) -> Option<usize> {
        let slot = if self.class == RateClass::Ht {
            *HT_SLOTS
                .get(usize::from(self.mcs))?
                .get(usize::from(self.short_gi))?
        } else {
            *BG_SLOTS.get((self.kbps / 500) as usize)?
        };
        Some(usize::from(slot))
    }

    /// [`BitRate::index`] when these field values are an entry of their
    /// PHY's table, `None` otherwise: the slot must hold this exact rate.
    fn checked_index(self) -> Option<usize> {
        self.slot()
            .filter(|&i| self.phy().all_rates().get(i) == Some(&self))
    }

    /// Throughput (Mbit/s) at a given delivery probability — the paper's
    /// definition of throughput (§3.1.2): bit rate × packet success rate.
    pub fn throughput_mbps(self, success: f64) -> f64 {
        debug_assert!((0.0..=1.0 + 1e-9).contains(&success));
        self.mbps() * success.clamp(0.0, 1.0)
    }
}

impl Deserialize for BitRate {
    /// Parses the serialized fields and accepts only a rate of one of the
    /// two PHY tables: a value in neither would break [`BitRate::index`]
    /// and every rate-indexed array downstream.
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        use serde::__private::{as_object, field};
        let f = as_object(v, "BitRate")?;
        let rate = BitRate {
            kbps: field(f, "kbps", "BitRate")?,
            class: field(f, "class", "BitRate")?,
            mcs: field(f, "mcs", "BitRate")?,
            short_gi: field(f, "short_gi", "BitRate")?,
        };
        match rate.checked_index() {
            Some(_) => Ok(rate),
            None => Err(serde::Error::msg(format!("{rate:?} is in no rate table"))),
        }
    }
}

impl PartialOrd for BitRate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BitRate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.kbps
            .cmp(&other.kbps)
            .then(self.mcs.cmp(&other.mcs))
            .then(self.short_gi.cmp(&other.short_gi))
    }
}

impl fmt::Display for BitRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.class == RateClass::Ht {
            write!(
                f,
                "MCS{}{}",
                self.mcs,
                if self.short_gi { "/SGI" } else { "" }
            )
        } else if self.kbps.is_multiple_of(1000) {
            write!(f, "{} Mbit/s", self.kbps / 1000)
        } else {
            write!(f, "{:.1} Mbit/s", self.mbps())
        }
    }
}

/// All 802.11b/g rates, ascending.
pub static BG_ALL: &[BitRate] = &BG_TABLE;

const BG_TABLE: [BitRate; 12] = [
    BitRate::legacy(1_000, RateClass::Dsss),
    BitRate::legacy(2_000, RateClass::Dsss),
    BitRate::legacy(5_500, RateClass::Cck),
    BitRate::legacy(6_000, RateClass::Ofdm),
    BitRate::legacy(9_000, RateClass::Ofdm),
    BitRate::legacy(11_000, RateClass::Cck),
    BitRate::legacy(12_000, RateClass::Ofdm),
    BitRate::legacy(18_000, RateClass::Ofdm),
    BitRate::legacy(24_000, RateClass::Ofdm),
    BitRate::legacy(36_000, RateClass::Ofdm),
    BitRate::legacy(48_000, RateClass::Ofdm),
    BitRate::legacy(54_000, RateClass::Ofdm),
];

/// The seven b/g rates the paper's probes cover: 1, 6, 11, 12, 24, 36,
/// 48 Mbit/s.
pub static BG_PROBED: &[BitRate] = &[
    BitRate::legacy(1_000, RateClass::Dsss),
    BitRate::legacy(6_000, RateClass::Ofdm),
    BitRate::legacy(11_000, RateClass::Cck),
    BitRate::legacy(12_000, RateClass::Ofdm),
    BitRate::legacy(24_000, RateClass::Ofdm),
    BitRate::legacy(36_000, RateClass::Ofdm),
    BitRate::legacy(48_000, RateClass::Ofdm),
];

/// All HT (802.11n, 20 MHz) configurations: MCS 0–15 × {long, short} GI,
/// ascending by nominal rate. 32 configurations.
pub static HT_ALL: &[BitRate] = &HT_TABLE;

const HT_TABLE: [BitRate; 32] = [
    BitRate::ht(6_500, 0, false),
    BitRate::ht(7_200, 0, true),
    BitRate::ht(13_000, 1, false),
    BitRate::ht(13_000, 8, false),
    BitRate::ht(14_400, 1, true),
    BitRate::ht(14_400, 8, true),
    BitRate::ht(19_500, 2, false),
    BitRate::ht(21_700, 2, true),
    BitRate::ht(26_000, 3, false),
    BitRate::ht(26_000, 9, false),
    BitRate::ht(28_900, 3, true),
    BitRate::ht(28_900, 9, true),
    BitRate::ht(39_000, 4, false),
    BitRate::ht(39_000, 10, false),
    BitRate::ht(43_300, 4, true),
    BitRate::ht(43_300, 10, true),
    BitRate::ht(52_000, 5, false),
    BitRate::ht(52_000, 11, false),
    BitRate::ht(57_800, 5, true),
    BitRate::ht(57_800, 11, true),
    BitRate::ht(58_500, 6, false),
    BitRate::ht(65_000, 6, true),
    BitRate::ht(65_000, 7, false),
    BitRate::ht(72_200, 7, true),
    BitRate::ht(78_000, 12, false),
    BitRate::ht(86_700, 12, true),
    BitRate::ht(104_000, 13, false),
    BitRate::ht(115_600, 13, true),
    BitRate::ht(117_000, 14, false),
    BitRate::ht(130_000, 14, true),
    BitRate::ht(130_000, 15, false),
    BitRate::ht(144_400, 15, true),
];

/// Position in `BG_TABLE` by `kbps / 500` (every b/g rate is a multiple
/// of 500 kbit/s); `u8::MAX` where no rate sits.
const BG_SLOTS: [u8; 109] = {
    let mut t = [u8::MAX; 109];
    let mut i = 0;
    while i < BG_TABLE.len() {
        t[(BG_TABLE[i].kbps / 500) as usize] = i as u8;
        i += 1;
    }
    t
};

/// Position in `HT_TABLE` by `[mcs][short_gi]`.
const HT_SLOTS: [[u8; 2]; 16] = {
    let mut t = [[u8::MAX; 2]; 16];
    let mut i = 0;
    while i < HT_TABLE.len() {
        t[HT_TABLE[i].mcs as usize][HT_TABLE[i].short_gi as usize] = i as u8;
        i += 1;
    }
    t
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bg_tables_have_expected_sizes() {
        assert_eq!(BG_ALL.len(), 12);
        assert_eq!(BG_PROBED.len(), 7);
        assert_eq!(HT_ALL.len(), 32);
    }

    #[test]
    fn probed_rates_match_paper() {
        let mbps: Vec<f64> = BG_PROBED.iter().map(|r| r.mbps()).collect();
        assert_eq!(mbps, vec![1.0, 6.0, 11.0, 12.0, 24.0, 36.0, 48.0]);
    }

    #[test]
    fn rates_are_strictly_ordered() {
        for table in [BG_ALL, BG_PROBED, HT_ALL] {
            for w in table.windows(2) {
                assert!(w[0] < w[1], "{} !< {}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn lookup_by_mbps() {
        assert_eq!(BitRate::bg_mbps(11.0).unwrap().class(), RateClass::Cck);
        assert_eq!(BitRate::bg_mbps(5.5).unwrap().kbps(), 5_500);
        assert_eq!(BitRate::bg_mbps(6.0).unwrap().class(), RateClass::Ofdm);
        assert!(BitRate::bg_mbps(7.0).is_none());
    }

    #[test]
    fn lookup_ht() {
        let m7 = BitRate::ht_mcs(7, false).unwrap();
        assert_eq!(m7.kbps(), 65_000);
        let m7s = BitRate::ht_mcs(7, true).unwrap();
        assert_eq!(m7s.kbps(), 72_200);
        assert!(BitRate::ht_mcs(16, false).is_none());
        // MCS6/SGI and MCS7/LGI share 65 Mbit/s but are distinct configs.
        let m6s = BitRate::ht_mcs(6, true).unwrap();
        assert_eq!(m6s.kbps(), m7.kbps());
        assert_ne!(m6s, m7);
    }

    #[test]
    fn index_round_trips() {
        for &r in BG_ALL.iter().chain(HT_ALL) {
            assert_eq!(r.phy().all_rates()[r.index()], r);
        }
    }

    #[test]
    fn index_agrees_with_table_position() {
        for table in [BG_ALL, HT_ALL] {
            for (i, &r) in table.iter().enumerate() {
                assert_eq!(r.index(), i, "{r}");
                assert_eq!(r.checked_index(), Some(i), "{r}");
            }
        }
    }

    #[test]
    fn only_table_rates_deserialize() {
        for &r in BG_ALL.iter().chain(HT_ALL) {
            assert_eq!(BitRate::from_value(&r.to_value()).unwrap(), r);
        }
        let bogus = BitRate::legacy(7_000, RateClass::Ofdm);
        assert!(BitRate::from_value(&bogus.to_value()).is_err());
    }

    #[test]
    fn checked_index_rejects_rates_in_no_table() {
        let off_table = [
            BitRate::legacy(7_000, RateClass::Ofdm),
            BitRate::legacy(7_500, RateClass::Ofdm),
            BitRate::legacy(1_000, RateClass::Ofdm), // wrong class for 1 Mbit/s
            BitRate::legacy(1_000_000, RateClass::Dsss),
            BitRate::ht(6_500, 16, false),
            BitRate::ht(6_500, 1, false), // MCS1 is 13 Mbit/s
            BitRate {
                mcs: 3,
                ..BitRate::legacy(1_000, RateClass::Dsss)
            },
        ];
        for r in off_table {
            assert_eq!(r.checked_index(), None, "{r:?}");
        }
    }

    #[test]
    fn phy_classification() {
        assert_eq!(BitRate::bg_mbps(1.0).unwrap().phy(), Phy::Bg);
        assert_eq!(BitRate::ht_mcs(0, false).unwrap().phy(), Phy::Ht);
        assert!(BitRate::bg_mbps(1.0).unwrap().is_dsss_family());
        assert!(BitRate::bg_mbps(11.0).unwrap().is_dsss_family());
        assert!(!BitRate::bg_mbps(6.0).unwrap().is_dsss_family());
    }

    #[test]
    fn mcs_accessor() {
        assert_eq!(BitRate::bg_mbps(1.0).unwrap().mcs(), None);
        assert_eq!(BitRate::ht_mcs(12, true).unwrap().mcs(), Some(12));
    }

    #[test]
    fn throughput_definition() {
        let r = BitRate::bg_mbps(48.0).unwrap();
        assert_eq!(r.throughput_mbps(0.5), 24.0);
        assert_eq!(r.throughput_mbps(0.0), 0.0);
        assert_eq!(r.throughput_mbps(1.0), 48.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(BitRate::bg_mbps(1.0).unwrap().to_string(), "1 Mbit/s");
        assert_eq!(BitRate::bg_mbps(5.5).unwrap().to_string(), "5.5 Mbit/s");
        assert_eq!(BitRate::ht_mcs(7, true).unwrap().to_string(), "MCS7/SGI");
        assert_eq!(Phy::Bg.to_string(), "802.11b/g");
    }

    #[test]
    fn base_rates() {
        assert_eq!(Phy::Bg.base_rate().mbps(), 1.0);
        assert_eq!(Phy::Ht.base_rate().mcs(), Some(0));
    }

    #[test]
    fn ht_has_both_gi_for_every_mcs() {
        for mcs in 0..16u8 {
            let lgi = BitRate::ht_mcs(mcs, false).unwrap();
            let sgi = BitRate::ht_mcs(mcs, true).unwrap();
            assert!(sgi.kbps() > lgi.kbps(), "SGI must be faster for MCS{mcs}");
            // SGI is a 10/9 speedup, within rounding of the standard tables.
            let ratio = sgi.kbps() as f64 / lgi.kbps() as f64;
            assert!((ratio - 10.0 / 9.0).abs() < 0.01, "MCS{mcs} ratio {ratio}");
        }
    }

    #[test]
    fn dual_stream_doubles_rate() {
        for mcs in 0..8u8 {
            let one = BitRate::ht_mcs(mcs, false).unwrap();
            let two = BitRate::ht_mcs(mcs + 8, false).unwrap();
            assert_eq!(two.kbps(), one.kbps() * 2, "MCS{} vs MCS{}", mcs, mcs + 8);
        }
    }
}
