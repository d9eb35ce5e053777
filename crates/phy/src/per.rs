//! Frame success probability and the calibrated PHY.
//!
//! Two layers:
//!
//! * [`PerModel`] — the *raw* physics: payload success `(1 − BER)^(8L)` and a
//!   preamble-detection stage (b/g frames carry a 1 Mbit/s DSSS preamble —
//!   §6.1 of the paper builds its hidden-terminal argument on this; HT frames
//!   carry an MCS0-robustness preamble).
//! * [`CalibratedPhy`] — the raw curves shifted per rate so that each rate's
//!   50%-success SNR (1500-byte payload) lands exactly on
//!   [`default_sensitivity_db`]. Modulation theory gives the waterfall
//!   *shape*; the sensitivity table gives its *position*, encoding the field
//!   orderings the paper observed (notably 11 Mbit/s CCK ahead of 6 Mbit/s
//!   OFDM).

use crate::ber::{ber, db_to_linear};
use crate::rate::{BitRate, Phy};
use serde::{Deserialize, Serialize};
use std::sync::{Mutex, OnceLock};

/// Probe/data frame size used throughout the toolkit (bytes).
///
/// Roofnet-style broadcast probes are full-size frames; the paper's
/// throughput definition (§3.1.2) is agnostic to the exact size as long as
/// it is held constant.
pub const DEFAULT_FRAME_BYTES: usize = 1500;

/// PLCP preamble + header, expressed as an equivalent payload length at the
/// base rate (192 µs long preamble at 1 Mbit/s ≈ 24 bytes).
const PREAMBLE_BYTES: usize = 24;

/// Raw (uncalibrated) frame-success model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerModel {
    /// Payload size in bytes.
    pub frame_bytes: usize,
    /// Whether reception requires detecting the base-rate preamble first.
    pub with_preamble: bool,
}

impl Default for PerModel {
    fn default() -> Self {
        Self {
            frame_bytes: DEFAULT_FRAME_BYTES,
            with_preamble: true,
        }
    }
}

impl PerModel {
    /// Payload-only success probability at `snr_db` for `rate`.
    pub fn payload_success(&self, rate: BitRate, snr_db: f64) -> f64 {
        success_for_len(rate, snr_db, self.frame_bytes)
    }

    /// Preamble detection probability at `snr_db` (uses the PHY's base rate
    /// over the short preamble length).
    pub fn preamble_success(&self, phy: Phy, snr_db: f64) -> f64 {
        success_for_len(phy.base_rate(), snr_db, PREAMBLE_BYTES)
    }

    /// Full frame success: preamble (if enabled) × payload.
    pub fn success(&self, rate: BitRate, snr_db: f64) -> f64 {
        let payload = self.payload_success(rate, snr_db);
        if self.with_preamble {
            self.preamble_success(rate.phy(), snr_db) * payload
        } else {
            payload
        }
    }
}

/// `(1 − BER(rate, snr))^(8·len)`.
fn success_for_len(rate: BitRate, snr_db: f64, len_bytes: usize) -> f64 {
    let b = ber(rate, db_to_linear(snr_db));
    (1.0 - b).powi((8 * len_bytes) as i32)
}

/// The documented sensitivity table: SNR (dB) at which a 1500-byte payload
/// succeeds 50% of the time, per rate.
///
/// Sources: Atheros AR5213/AR9280-era receive-sensitivity tables shifted to
/// an SNR axis (noise floor ≈ −95 dBm), adjusted so the *orderings* match
/// the paper's field observations: DSSS/CCK rates (1, 2, 5.5, 11 Mbit/s) are
/// more robust than their nominal-rate OFDM neighbours — the paper's §6.1
/// explanation for 11 Mbit/s showing *fewer* hidden triples than 6 Mbit/s.
/// HT dual-stream MCS pay ≈3.5 dB over single-stream; short-GI pays 0.5 dB
/// over long-GI at equal MCS.
pub fn default_sensitivity_db(rate: BitRate) -> f64 {
    if let Some(mcs) = rate.mcs() {
        let single = [5.0, 8.0, 11.0, 14.0, 18.0, 22.0, 24.0, 26.0][usize::from(mcs % 8)];
        let stream_penalty = if mcs >= 8 { 3.5 } else { 0.0 };
        let gi_penalty = if rate.short_gi() { 0.5 } else { 0.0 };
        return single + stream_penalty + gi_penalty;
    }
    match rate.kbps() {
        1_000 => 4.0,
        2_000 => 6.0,
        5_500 => 8.0,
        11_000 => 8.5,
        6_000 => 10.5,
        9_000 => 11.5,
        12_000 => 13.0,
        18_000 => 15.0,
        24_000 => 17.0,
        36_000 => 21.0,
        48_000 => 25.0,
        54_000 => 26.5,
        other => unreachable!("unknown legacy rate {other} kbps"),
    }
}

/// The calibrated PHY: raw waterfalls shifted so each rate's 1500-byte
/// payload 50% point sits exactly at its sensitivity target.
///
/// Construction bisects the (monotone) raw curve once per rate; queries are
/// then pure function evaluations. This is the object the channel/simulator
/// layers hold.
///
/// ```
/// use mesh11_phy::{BitRate, CalibratedPhy};
/// let phy = CalibratedPhy::new();
/// let r6 = BitRate::bg_mbps(6.0).unwrap();
/// // Exactly 50% payload success at the calibration point:
/// let s = phy.payload_success(r6, 10.5);
/// assert!((s - 0.5).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct CalibratedPhy {
    model: PerModel,
    /// `offset[phy][rate_index]`: subtract from the query SNR before the raw
    /// curve, i.e. `raw(snr − offset)` hits 0.5 at the sensitivity target.
    bg_offsets: Vec<f64>,
    ht_offsets: Vec<f64>,
}

impl Default for CalibratedPhy {
    fn default() -> Self {
        Self::new()
    }
}

impl CalibratedPhy {
    /// Calibrates against [`default_sensitivity_db`] with the default frame
    /// size and preamble model.
    pub fn new() -> Self {
        Self::with_model(PerModel::default(), default_sensitivity_db)
    }

    /// Calibrates with a custom frame model and sensitivity table.
    pub fn with_model(model: PerModel, sensitivity_db: impl Fn(BitRate) -> f64) -> Self {
        let calibrate = |rates: &[BitRate]| -> Vec<f64> {
            rates
                .iter()
                .map(|&r| {
                    let raw50 = bisect_snr50(r, model.frame_bytes);
                    sensitivity_db(r) - raw50
                })
                .collect()
        };
        Self {
            model,
            bg_offsets: calibrate(Phy::Bg.all_rates()),
            ht_offsets: calibrate(Phy::Ht.all_rates()),
        }
    }

    fn offset(&self, rate: BitRate) -> f64 {
        match rate.phy() {
            Phy::Bg => self.bg_offsets[rate.index()],
            Phy::Ht => self.ht_offsets[rate.index()],
        }
    }

    /// Payload-only success probability (what the calibration pins).
    pub fn payload_success(&self, rate: BitRate, snr_db: f64) -> f64 {
        self.model.payload_success(rate, snr_db - self.offset(rate))
    }

    /// Full frame success (preamble × payload when the model has preambles).
    pub fn success(&self, rate: BitRate, snr_db: f64) -> f64 {
        let payload = self.payload_success(rate, snr_db);
        if self.model.with_preamble {
            self.preamble_factor(rate.phy(), snr_db) * payload
        } else {
            payload
        }
    }

    /// The preamble-detection factor of [`CalibratedPhy::success`]. It
    /// depends only on the PHY (preambles go out at the base rate, with the
    /// base rate's calibration offset), so bulk tabulation evaluates it
    /// once per SNR instead of once per (rate, SNR).
    pub fn preamble_factor(&self, phy: Phy, snr_db: f64) -> f64 {
        let base = phy.base_rate();
        success_for_len(base, snr_db - self.offset(base), PREAMBLE_BYTES)
    }

    /// Expected throughput (Mbit/s) of `rate` at `snr_db` — the paper's
    /// throughput definition applied to the model.
    pub fn throughput_mbps(&self, rate: BitRate, snr_db: f64) -> f64 {
        rate.throughput_mbps(self.success(rate, snr_db))
    }

    /// The rate with the highest expected throughput at `snr_db`, among the
    /// PHY's probed rates.
    pub fn best_rate(&self, phy: Phy, snr_db: f64) -> BitRate {
        *phy.probed_rates()
            .iter()
            .max_by(|a, b| {
                self.throughput_mbps(**a, snr_db)
                    .partial_cmp(&self.throughput_mbps(**b, snr_db))
                    .expect("throughputs are finite")
            })
            .expect("rate tables are non-empty")
    }

    /// The calibrated 50%-payload-success SNR of a rate (equals the
    /// sensitivity table by construction; exposed for tests and reporting).
    pub fn sensitivity_db(&self, rate: BitRate) -> f64 {
        bisect_snr50(rate, self.model.frame_bytes) + self.offset(rate)
    }

    /// The frame model in use.
    pub fn model(&self) -> PerModel {
        self.model
    }
}

/// A precomputed SNR → success grid over every rate of both PHYs.
///
/// The simulator evaluates frame success hundreds of millions of times; the
/// coded-union-bound curve costs microseconds per call, so we sample it once
/// on a 0.25 dB grid and interpolate linearly. Max interpolation error is
/// far below the Bernoulli noise of any simulated estimate.
#[derive(Debug, Clone)]
pub struct SuccessTable {
    lo_db: f64,
    step_db: f64,
    /// `grid[phy][rate_index][snr_bin]`.
    bg: Vec<Vec<f64>>,
    ht: Vec<Vec<f64>>,
    /// [`RateRow::zero_floor_db`] and [`RateRow::max_dip`] of every row,
    /// `(floor, dip)[phy][rate_index]`, resolved once here so hoisting a
    /// row stays O(1).
    bg_floor: Vec<(f64, f64)>,
    ht_floor: Vec<(f64, f64)>,
}

impl SuccessTable {
    /// Grid lower bound (dB); success below is clamped to the edge value
    /// (≈0 for any real rate).
    pub const LO_DB: f64 = -30.0;
    /// Grid upper bound (dB); success above is clamped (≈1).
    pub const HI_DB: f64 = 70.0;
    /// Grid step (dB). 0.1 dB keeps interpolation error below 2e-3 even on
    /// the steepest (1 Mbit/s DSSS) waterfall.
    pub const STEP_DB: f64 = 0.1;

    /// Tabulates `phy.success` for every rate.
    pub fn new(phy: &CalibratedPhy) -> Self {
        let n = ((Self::HI_DB - Self::LO_DB) / Self::STEP_DB) as usize + 1;
        let snr_at = |i: usize| Self::LO_DB + i as f64 * Self::STEP_DB;
        let with_preamble = phy.model().with_preamble;
        let tabulate = |p: Phy, rates: &[BitRate]| -> Vec<Vec<f64>> {
            // The preamble factor of `phy.success` is shared by every rate
            // of a PHY; evaluating the base-rate curve once per bin (not
            // once per rate per bin) nearly halves construction while
            // producing bit-identical cells — same function, same inputs,
            // same `pre * payload` product.
            let pre: Vec<f64> = (0..n)
                .map(|i| {
                    if with_preamble {
                        phy.preamble_factor(p, snr_at(i))
                    } else {
                        1.0
                    }
                })
                .collect();
            rates
                .iter()
                .map(|&r| {
                    (0..n)
                        .map(|i| {
                            let payload = phy.payload_success(r, snr_at(i));
                            if with_preamble {
                                pre[i] * payload
                            } else {
                                payload
                            }
                        })
                        .collect()
                })
                .collect()
        };
        let bg = tabulate(Phy::Bg, Phy::Bg.all_rates());
        let ht = tabulate(Phy::Ht, Phy::Ht.all_rates());
        let floors = |grids: &[Vec<f64>]| -> Vec<(f64, f64)> {
            grids
                .iter()
                .map(|g| (zero_floor_db(g, Self::LO_DB, Self::STEP_DB), max_dip(g)))
                .collect()
        };
        Self {
            lo_db: Self::LO_DB,
            step_db: Self::STEP_DB,
            bg_floor: floors(&bg),
            ht_floor: floors(&ht),
            bg,
            ht,
        }
    }

    /// Interpolated frame success at `snr_db` for `rate`.
    pub fn success(&self, rate: BitRate, snr_db: f64) -> f64 {
        self.rate_row(rate).success(snr_db)
    }

    /// The single-rate row of the grid, with the PHY dispatch and row
    /// indexing already resolved. Tick loops that evaluate one rate many
    /// times (the probe engine evaluates each rate once per pair per 40 s
    /// tick) hoist the row lookup out of the loop and call
    /// [`RateRow::success`] on the slice directly.
    pub fn rate_row(&self, rate: BitRate) -> RateRow<'_> {
        let (grid, (zero_floor_db, max_dip)) = match rate.phy() {
            Phy::Bg => (&self.bg[rate.index()], self.bg_floor[rate.index()]),
            Phy::Ht => (&self.ht[rate.index()], self.ht_floor[rate.index()]),
        };
        RateRow {
            grid,
            lo_db: self.lo_db,
            step_db: self.step_db,
            zero_floor_db,
            max_dip,
        }
    }
}

/// How far below the last exactly-zero head cell a row's zero floor sits
/// (dB). It absorbs the rounding of the lookup's position arithmetic and of
/// any caller's SNR sum: those errors are ~1e-13 dB on this grid's range,
/// seven orders of magnitude below the margin.
const ZERO_FLOOR_MARGIN_DB: f64 = 1e-6;

/// Length of `grid`'s leading run of exactly-0.0 cells.
fn zero_head_len(grid: &[f64]) -> usize {
    grid.iter().take_while(|&&p| p == 0.0).count()
}

/// See [`RateRow::zero_floor_db`].
fn zero_floor_db(grid: &[f64], lo_db: f64, step_db: f64) -> f64 {
    match zero_head_len(grid) {
        0 => f64::NEG_INFINITY,
        head => lo_db + (head - 1) as f64 * step_db - ZERO_FLOOR_MARGIN_DB,
    }
}

/// See [`RateRow::max_dip`].
fn max_dip(grid: &[f64]) -> f64 {
    let mut peak = f64::NEG_INFINITY;
    let mut dip = 0.0f64;
    for &p in grid {
        peak = peak.max(p);
        dip = dip.max(peak - p);
    }
    dip
}

/// One rate's slice of a [`SuccessTable`]: the success grid plus the bin
/// parameters, resolved once so the per-frame query is a pure array walk.
/// Produces bit-identical results to [`SuccessTable::success`] (which now
/// delegates here).
#[derive(Debug, Clone, Copy)]
pub struct RateRow<'a> {
    grid: &'a [f64],
    lo_db: f64,
    step_db: f64,
    zero_floor_db: f64,
    max_dip: f64,
}

impl RateRow<'_> {
    /// The highest SNR (dB) at which this row's success is known to be
    /// exactly `0.0`: the grid point of the last cell of the leading
    /// exactly-zero run, minus a 1e-6 dB margin; `−∞` when `grid[0] != 0`.
    ///
    /// Exactness: at any `snr ≤ zero_floor_db` the lookup position
    /// `(snr − lo_db) / step_db` is at most `lo − 1e-5` (plus rounding far
    /// below that), where `lo` is the last zero cell. [`RateRow::success`]
    /// then either returns `grid[0] = 0.0` (position ≤ 0) or lerps two
    /// cells at or below `lo`, both `0.0`, so `0·(1−f) + 0·f = 0.0`.
    /// The probe engine relies on this to skip the fade of a lane that
    /// cannot be received.
    #[inline]
    pub fn zero_floor_db(&self) -> f64 {
        self.zero_floor_db
    }

    /// The largest fall of this row's grid from any cell to a later one:
    /// `0.0` for a non-decreasing row (every default-calibrated row is).
    ///
    /// [`RateRow::success`] lerps adjacent cells, so for `x ≥ y` it
    /// guarantees `success(x) ≥ success(y) − max_dip` up to lerp rounding
    /// (~1e-16). The probe engine widens its bound-first coin decision by
    /// this much, so a non-monotone row only sends more lanes down the
    /// exact path.
    #[inline]
    pub fn max_dip(&self) -> f64 {
        self.max_dip
    }

    /// Interpolated frame success at `snr_db`.
    #[inline]
    pub fn success(&self, snr_db: f64) -> f64 {
        let grid = self.grid;
        let pos = (snr_db - self.lo_db) / self.step_db;
        if pos <= 0.0 {
            return grid[0];
        }
        let max = (grid.len() - 1) as f64;
        if pos >= max {
            return grid[grid.len() - 1];
        }
        let i = pos as usize; // pos > 0, so the cast is the floor
        let frac = pos - i as f64;
        grid[i] * (1.0 - frac) + grid[i + 1] * frac
    }

    /// An owned, cache-compact copy of this row: see [`CompactRow`].
    pub fn compact(&self) -> CompactRow {
        let grid = self.grid;
        let n = grid.len();
        // Last index of the leading exactly-0.0 run (0 when the first cell
        // is already non-zero, so the head shortcut below never fires).
        let lo = zero_head_len(grid).saturating_sub(1);
        // First index of the trailing exactly-1.0 run (n-1 when the last
        // cell is not 1.0, so the tail shortcut never fires).
        let ones = grid.iter().rev().take_while(|&&p| p == 1.0).count();
        let hi = if ones > 1 { n - ones } else { n - 1 };
        CompactRow {
            band: grid[lo..=hi].to_vec(),
            lo,
            hi,
            max_pos: (n - 1) as f64,
            edge0: grid[0],
            edge1: grid[n - 1],
            lo_db: self.lo_db,
            step_db: self.step_db,
        }
    }
}

/// A cache-compact owned copy of one [`RateRow`]: the exactly-saturated
/// head (success 0.0) and tail (success 1.0) of the grid are collapsed to
/// constants and only the transition band is stored — ~1–2 KB per rate
/// instead of 8 KB, so a hot loop querying several rates stays L1-resident
/// and saturated queries touch no grid memory at all.
///
/// Bit-identical to [`RateRow::success`]: in a flat-0 region the lerp
/// `0·(1−f) + 0·f` is exactly `0.0`, and in a flat-1 region
/// `1·(1−f) + 1·f = fl(fl(1−f)+f)` is exactly `1.0` for every `f ∈ [0, 1)`
/// (for `f ≥ ½`, `1−f` is exact by Sterbenz; for `f < ½`, the rounding
/// error of `1−f` is below the half-ulp of 1, so the sum rounds back).
/// The property test below pins the equivalence cell-by-cell and on random
/// off-grid queries.
#[derive(Debug, Clone)]
pub struct CompactRow {
    /// `grid[lo..=hi]` of the full row.
    band: Vec<f64>,
    lo: usize,
    hi: usize,
    max_pos: f64,
    edge0: f64,
    edge1: f64,
    lo_db: f64,
    step_db: f64,
}

impl CompactRow {
    /// Interpolated frame success at `snr_db`; equals the source
    /// [`RateRow::success`] bit for bit.
    #[inline]
    pub fn success(&self, snr_db: f64) -> f64 {
        let pos = (snr_db - self.lo_db) / self.step_db;
        if pos <= 0.0 {
            return self.edge0;
        }
        if pos >= self.max_pos {
            return self.edge1;
        }
        let i = pos as usize; // pos > 0, so the cast is the floor
        if i < self.lo {
            return 0.0; // both lerp cells sit in the flat-0 head
        }
        if i >= self.hi {
            return 1.0; // both lerp cells sit in the flat-1 tail
        }
        let frac = pos - i as f64;
        self.band[i - self.lo] * (1.0 - frac) + self.band[i - self.lo + 1] * frac
    }
}

/// Process-wide [`SuccessTable`] registry for default-calibrated PHYs,
/// keyed by the frame model `(frame_bytes, with_preamble)`.
///
/// Table construction bisects and tabulates ~8000 coded-BER curves
/// (milliseconds); every campaign, client pass, and bench setup used to
/// rebuild an identical table. The registry builds each distinct model's
/// table once per process and hands out `&'static` references, so callers
/// can also share the borrow across threads without an `Arc`. The common
/// default model sits behind a dedicated `OnceLock` fast path; other models
/// go through a small mutexed list (a handful of entries at most — bench
/// ablations — so a linear scan beats a map).
pub fn shared_success_table(model: PerModel) -> &'static SuccessTable {
    static DEFAULT: OnceLock<SuccessTable> = OnceLock::new();
    static EXTRA: Mutex<Vec<(PerModel, &'static SuccessTable)>> = Mutex::new(Vec::new());
    if model == PerModel::default() {
        return DEFAULT.get_or_init(|| SuccessTable::new(&CalibratedPhy::new()));
    }
    let mut reg = EXTRA.lock().expect("success-table registry poisoned");
    if let Some(&(_, t)) = reg.iter().find(|(m, _)| *m == model) {
        return t;
    }
    let phy = CalibratedPhy::with_model(model, default_sensitivity_db);
    let t: &'static SuccessTable = Box::leak(Box::new(SuccessTable::new(&phy)));
    reg.push((model, t));
    t
}

/// SNR (dB) at which the *raw* payload success crosses 0.5, by bisection.
fn bisect_snr50(rate: BitRate, frame_bytes: usize) -> f64 {
    let f = |snr_db: f64| success_for_len(rate, snr_db, frame_bytes) - 0.5;
    let (mut lo, mut hi) = (-40.0, 60.0);
    debug_assert!(
        f(lo) < 0.0 && f(hi) > 0.0,
        "bracket must straddle 50% for {rate}"
    );
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if f(mid) < 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate::{BG_ALL, BG_PROBED, HT_ALL};
    use proptest::prelude::*;

    #[test]
    fn calibration_hits_targets_exactly() {
        let phy = CalibratedPhy::new();
        for &r in BG_ALL.iter().chain(HT_ALL) {
            let target = default_sensitivity_db(r);
            let got = phy.sensitivity_db(r);
            assert!(
                (got - target).abs() < 1e-6,
                "{r}: sensitivity {got} != target {target}"
            );
            let s = phy.payload_success(r, target);
            assert!((s - 0.5).abs() < 1e-6, "{r}: success {s} at target SNR");
        }
    }

    #[test]
    fn success_monotone_in_snr() {
        let phy = CalibratedPhy::new();
        for &r in BG_PROBED {
            let mut prev = 0.0;
            for snr10 in -100..500 {
                let s = phy.success(r, snr10 as f64 / 10.0);
                assert!(
                    s >= prev - 1e-9,
                    "{r}: non-monotone at {}",
                    snr10 as f64 / 10.0
                );
                assert!((0.0..=1.0).contains(&s));
                prev = s;
            }
        }
    }

    #[test]
    fn cck11_beats_ofdm6_at_low_snr() {
        // The paper's §6.1 field observation, encoded in the calibration.
        let phy = CalibratedPhy::new();
        let r11 = BitRate::bg_mbps(11.0).unwrap();
        let r6 = BitRate::bg_mbps(6.0).unwrap();
        for snr in [8.0, 9.0, 9.5] {
            assert!(
                phy.success(r11, snr) > phy.success(r6, snr),
                "11 Mbit/s should out-hear 6 Mbit/s at {snr} dB"
            );
        }
    }

    #[test]
    fn one_mbps_most_robust() {
        let phy = CalibratedPhy::new();
        let r1 = BitRate::bg_mbps(1.0).unwrap();
        for &r in &BG_PROBED[1..] {
            for snr in [2.0, 5.0, 8.0] {
                assert!(
                    phy.success(r1, snr) >= phy.success(r, snr) - 1e-9,
                    "1 Mbit/s must dominate {r} at {snr} dB"
                );
            }
        }
    }

    #[test]
    fn best_rate_tracks_snr() {
        let phy = CalibratedPhy::new();
        assert_eq!(phy.best_rate(Phy::Bg, 2.0).mbps(), 1.0);
        // Well above every sensitivity the top probed rate wins.
        assert_eq!(phy.best_rate(Phy::Bg, 45.0).mbps(), 48.0);
        // Monotone non-decreasing optimal throughput.
        let mut prev = 0.0;
        for snr in 0..45 {
            let best = phy.best_rate(Phy::Bg, snr as f64);
            let thr = phy.throughput_mbps(best, snr as f64);
            assert!(thr >= prev - 1e-9);
            prev = thr;
        }
    }

    #[test]
    fn ht_best_rate_spans_mcs() {
        let phy = CalibratedPhy::new();
        let low = phy.best_rate(Phy::Ht, 4.0);
        assert!(
            low.mcs().unwrap().is_multiple_of(8),
            "weak SNR should pick MCS0/8 family, got {low}"
        );
        let high = phy.best_rate(Phy::Ht, 45.0);
        assert_eq!(high.kbps(), 144_400, "strong SNR should pick MCS15/SGI");
    }

    #[test]
    fn preamble_caps_reception() {
        let phy = CalibratedPhy::new();
        let r48 = BitRate::bg_mbps(48.0).unwrap();
        // Full-frame success never exceeds payload-only success.
        for snr in 0..40 {
            let s_full = phy.success(r48, snr as f64);
            let s_pay = phy.payload_success(r48, snr as f64);
            assert!(s_full <= s_pay + 1e-12);
        }
    }

    #[test]
    fn preamble_is_cheap_at_payload_threshold() {
        // At each rate's own sensitivity point, the 1 Mbit/s preamble is
        // nearly free (it is far more robust than a 1500 B payload).
        let phy = CalibratedPhy::new();
        for &r in BG_PROBED {
            let t = default_sensitivity_db(r);
            let ratio = phy.success(r, t) / phy.payload_success(r, t);
            assert!(ratio > 0.95, "{r}: preamble cost too high ({ratio})");
        }
    }

    #[test]
    fn throughput_levels_off_near_30db_bg() {
        // Fig 4.5: the b/g envelope saturates around 30 dB.
        let phy = CalibratedPhy::new();
        let at30 = phy.throughput_mbps(phy.best_rate(Phy::Bg, 30.0), 30.0);
        let at50 = phy.throughput_mbps(phy.best_rate(Phy::Bg, 50.0), 50.0);
        assert!(at30 > 0.95 * at50, "b/g envelope should saturate by 30 dB");
    }

    #[test]
    fn raw_model_without_preamble() {
        let m = PerModel {
            frame_bytes: 100,
            with_preamble: false,
        };
        let r = BitRate::bg_mbps(1.0).unwrap();
        assert_eq!(m.success(r, 20.0), m.payload_success(r, 20.0));
        // Shorter frames succeed more often at equal SNR.
        let long = PerModel {
            frame_bytes: 1500,
            with_preamble: false,
        };
        assert!(m.payload_success(r, 2.0) >= long.payload_success(r, 2.0));
    }

    #[test]
    fn success_table_matches_direct_evaluation() {
        let phy = CalibratedPhy::new();
        let table = SuccessTable::new(&phy);
        for &r in BG_PROBED.iter().chain(&HT_ALL[..4]) {
            for snr10 in (-50..450).step_by(7) {
                let snr = snr10 as f64 / 10.0;
                let direct = phy.success(r, snr);
                let fast = table.success(r, snr);
                assert!(
                    (direct - fast).abs() < 5e-3,
                    "{r} @ {snr} dB: table {fast} vs direct {direct}"
                );
            }
        }
    }

    #[test]
    fn rate_row_is_bit_identical_to_table_lookup() {
        // The hoisted row must be the same computation, not merely close:
        // the simulator's coin flips compare RNG draws against these exact
        // values, so any ULP drift changes datasets.
        let phy = CalibratedPhy::new();
        let table = SuccessTable::new(&phy);
        for &r in BG_PROBED.iter().chain(HT_ALL) {
            let row = table.rate_row(r);
            for snr10 in -320..=720 {
                let snr = snr10 as f64 / 10.0 + 0.037;
                assert_eq!(row.success(snr), table.success(r, snr), "{r} @ {snr}");
            }
        }
    }

    #[test]
    fn zero_floor_is_exact_and_tight() {
        // The probe engine skips the fade of any lane whose effective SNR
        // stays at or below its row's zero floor, so success there must be
        // exactly 0.0 — and the floor must not waste lanes: one grid step
        // above it the row is already non-zero.
        let table = shared_success_table(PerModel::default());
        for &r in BG_ALL.iter().chain(HT_ALL) {
            let row = table.rate_row(r);
            let floor = row.zero_floor_db();
            if floor == f64::NEG_INFINITY {
                assert!(row.success(SuccessTable::LO_DB) > 0.0, "{r}: -inf floor");
                continue;
            }
            for snr in [floor, floor - 3.7, f64::NEG_INFINITY] {
                assert_eq!(row.success(snr).to_bits(), 0.0f64.to_bits(), "{r} @ {snr}");
            }
            let above = floor + SuccessTable::STEP_DB;
            assert!(row.success(above) > 0.0, "{r}: floor {floor} not tight");
        }
    }

    #[test]
    fn max_dip_is_zero_on_default_rows_and_sees_a_dip() {
        // The probe engine's coin margin adds `max_dip`; on the default
        // table it must cost nothing.
        let table = shared_success_table(PerModel::default());
        for &r in BG_ALL.iter().chain(HT_ALL) {
            assert_eq!(table.rate_row(r).max_dip(), 0.0, "{r}");
        }
        assert_eq!(max_dip(&[0.0, 0.2, 0.2, 1.0]), 0.0);
        // Two dips in a row: the margin must cover their sum, the fall
        // from the peak to the trough.
        let dip = max_dip(&[0.0, 0.5, 0.45, 0.4, 0.9, 0.85, 1.0]);
        assert!((dip - 0.1).abs() < 1e-12, "dip {dip}");
    }

    #[test]
    fn compact_row_is_bit_identical_to_rate_row() {
        // The compaction collapses the saturated head and tail to
        // constants; every query — on-grid, off-grid, out of range, and
        // straddling the band edges — must reproduce the full row bit for
        // bit, or the simulator's coin flips drift.
        let phy = CalibratedPhy::new();
        let table = SuccessTable::new(&phy);
        for &r in BG_PROBED.iter().chain(HT_ALL) {
            let row = table.rate_row(r);
            let compact = row.compact();
            for snr10 in -720..=1520 {
                let snr = snr10 as f64 / 20.0 + 0.0173;
                assert_eq!(
                    compact.success(snr).to_bits(),
                    row.success(snr).to_bits(),
                    "{r} @ {snr}"
                );
            }
        }
    }

    #[test]
    fn shared_success_table_matches_fresh_and_is_cached() {
        let fresh = SuccessTable::new(&CalibratedPhy::new());
        let shared = shared_success_table(PerModel::default());
        for &r in BG_PROBED.iter().chain(HT_ALL) {
            for snr10 in (-320..=720).step_by(13) {
                let snr = snr10 as f64 / 10.0 + 0.037;
                assert_eq!(
                    shared.success(r, snr).to_bits(),
                    fresh.success(r, snr).to_bits(),
                    "{r} @ {snr}"
                );
            }
        }
        // Same model → same allocation, both for the default fast path and
        // the registry list.
        assert!(std::ptr::eq(
            shared,
            shared_success_table(PerModel::default())
        ));
        let short = PerModel {
            frame_bytes: 256,
            with_preamble: true,
        };
        assert!(std::ptr::eq(
            shared_success_table(short),
            shared_success_table(short)
        ));
        assert!(!std::ptr::eq(shared, shared_success_table(short)));
    }

    #[test]
    fn compact_row_actually_compacts() {
        // Probed rates all have long saturated tails in the tabulated SNR
        // range; if the band is not much smaller than the grid, the
        // L1-residency argument for the client kernel is void.
        let phy = CalibratedPhy::new();
        let table = SuccessTable::new(&phy);
        let full = ((SuccessTable::HI_DB - SuccessTable::LO_DB) / SuccessTable::STEP_DB) as usize;
        for &r in BG_PROBED {
            let band = table.rate_row(r).compact().band.len();
            assert!(
                band * 2 < full,
                "{r}: band {band} of {full} bins — compaction did nothing"
            );
        }
    }

    #[test]
    fn success_table_clamps_out_of_range() {
        let phy = CalibratedPhy::new();
        let table = SuccessTable::new(&phy);
        let r = BG_PROBED[0];
        assert_eq!(
            table.success(r, -100.0),
            table.success(r, SuccessTable::LO_DB)
        );
        assert_eq!(
            table.success(r, 500.0),
            table.success(r, SuccessTable::HI_DB)
        );
    }

    proptest! {
        #[test]
        fn success_always_probability(rate_idx in 0usize..7, snr in -30.0f64..60.0) {
            let phy = CalibratedPhy::new();
            let s = phy.success(BG_PROBED[rate_idx], snr);
            prop_assert!((0.0..=1.0).contains(&s));
        }

        #[test]
        fn ht_success_always_probability(rate_idx in 0usize..32, snr in -30.0f64..60.0) {
            let phy = CalibratedPhy::new();
            let s = phy.success(HT_ALL[rate_idx], snr);
            prop_assert!((0.0..=1.0).contains(&s));
        }
    }
}
