//! Flat, allocation-free loss-window state for the probe engine hot path.
//!
//! The probe schedule is a fixed cadence: one probe per rate per
//! `probe_interval_s`, so a window never holds more than
//! `ceil(window_s / probe_interval_s)` outcomes (exactly 20 at the paper's
//! 800 s / 40 s constants). That turns the general sliding window
//! ([`crate::window::LossWindow`]'s `VecDeque` of `(time, bool)`) into a
//! bit-packed ring keyed on the *tick index*: slot `tick % slots` holds the
//! outcome of `tick`, two bitmask words per window (occupied / received),
//! and eviction is a single bit-clear as the ring advances. Loss queries
//! are popcounts.
//!
//! [`PairWindows`] packs every window of one estimator entity into one
//! contiguous SoA block of *lanes* × rates, so the per-tick state updates
//! touch a handful of adjacent words instead of chasing per-rate `VecDeque`
//! allocations. The probe engine ([`crate::probe_engine`]) uses two lanes
//! (the pair's directions); the client path
//! ([`crate::client_probes`]) uses one lane per AP of a client's network.
//! Lanes advance independently — a lane only ticks while its receiver
//! records (a live AP for the probe engine, a gate-passing AP for the
//! client path).
//!
//! Equivalence with the `VecDeque` reference: an outcome recorded at tick
//! `j` leaves the reference window at the first *recorded* tick `k` with
//! `(k - j) * interval_s >= window_s`, i.e. `k - j >= ceil(window_s /
//! interval_s)` — precisely when slot `j % slots` is reclaimed as the ring
//! advances past `j + slots`. Ticks skipped entirely (a dead receiver
//! records nothing, as in the engine) age out the same way on the next
//! advance. The property tests below pin this against the reference
//! implementation on arbitrary sparse tick sequences.

/// Live slots a fixed-cadence window needs: the number of ticks `j <= k`
/// with `(k - j) * interval_s < window_s`, i.e. `ceil(window_s /
/// interval_s)` (the reference implementation's cutoff is inclusive, so an
/// exact multiple of the window is already evicted).
pub fn probe_slots(window_s: f64, interval_s: f64) -> usize {
    ((window_s / interval_s).ceil() as usize).max(1)
}

/// The complete estimator state of one entity: `lanes` × all probed
/// rates, as flat arrays. A *lane* is whatever independent receiver stream
/// the caller keys on — the two directions of an AP pair
/// ([`PairWindows::new`]), or one per AP of a client's network
/// ([`PairWindows::with_lanes`]).
///
/// Layout: window `w = lane * n_rates + rate` owns `words` consecutive
/// `u64`s in `occ` (a probe was scheduled at that slot's tick) and `rcv`
/// (it was received), plus one `last_snr` entry. Lanes advance
/// independently (a lane only ticks while its receiver is recording), so
/// each carries its own cursor.
#[derive(Debug, Clone)]
pub struct PairWindows {
    n_rates: usize,
    slots: usize,
    /// `u64` words per window: `ceil(slots / 64)` (1 at paper constants).
    words: usize,
    last_tick: Vec<Option<u64>>,
    cur_slot: Vec<usize>,
    occ: Vec<u64>,
    rcv: Vec<u64>,
    last_snr: Vec<f64>,
}

impl PairWindows {
    /// State for `n_rates` windows per direction of one AP pair (two
    /// lanes), each `slots` ticks wide.
    pub fn new(n_rates: usize, slots: usize) -> Self {
        Self::with_lanes(2, n_rates, slots)
    }

    /// State for `lanes` independent lanes of `n_rates` windows each,
    /// every window `slots` ticks wide.
    pub fn with_lanes(lanes: usize, n_rates: usize, slots: usize) -> Self {
        assert!(slots >= 1, "a window must hold at least one tick");
        let words = slots.div_ceil(64);
        Self {
            n_rates,
            slots,
            words,
            last_tick: vec![None; lanes],
            cur_slot: vec![0; lanes],
            occ: vec![0; lanes * n_rates * words],
            rcv: vec![0; lanes * n_rates * words],
            last_snr: vec![f64::NAN; lanes * n_rates],
        }
    }

    /// Advances one lane's ring to `tick`, evicting every outcome that
    /// has aged out of the window. Call once per recorded tick, before the
    /// per-rate [`PairWindows::record`] calls; ticks must be strictly
    /// increasing per lane.
    pub fn advance(&mut self, dir: usize, tick: u64) {
        let base = dir * self.n_rates * self.words;
        let len = self.n_rates * self.words;
        if let Some(last) = self.last_tick[dir] {
            debug_assert!(tick > last, "ticks must be strictly increasing");
            if tick - last >= self.slots as u64 {
                // The whole ring predates the window; drop everything.
                self.occ[base..base + len].fill(0);
                self.rcv[base..base + len].fill(0);
            } else {
                for m in (last + 1)..=tick {
                    let slot = (m % self.slots as u64) as usize;
                    let (wi, mask) = (slot / 64, !(1u64 << (slot % 64)));
                    for ri in 0..self.n_rates {
                        let idx = base + ri * self.words + wi;
                        self.occ[idx] &= mask;
                        self.rcv[idx] &= mask;
                    }
                }
            }
        }
        self.last_tick[dir] = Some(tick);
        self.cur_slot[dir] = (tick % self.slots as u64) as usize;
    }

    /// Records the outcome of one scheduled probe at the tick the lane
    /// was last advanced to. A reception also latches `reported_db` as the
    /// rate's most recent SNR.
    #[inline]
    pub fn record(&mut self, dir: usize, rate: usize, received: bool, reported_db: f64) {
        self.record_outcome(dir, rate, received);
        if received {
            self.set_last_snr(dir, rate, reported_db);
        }
    }

    /// [`PairWindows::record`] without the SNR latch, for callers that
    /// compute a reception's SNR only when a report reads it and then set
    /// it with [`PairWindows::set_last_snr`].
    #[inline]
    pub fn record_outcome(&mut self, dir: usize, rate: usize, received: bool) {
        let slot = self.cur_slot[dir];
        let idx = (dir * self.n_rates + rate) * self.words + slot / 64;
        let bit = 1u64 << (slot % 64);
        self.occ[idx] |= bit;
        if received {
            self.rcv[idx] |= bit;
        }
    }

    /// Sets one window's most recent reported SNR.
    #[inline]
    pub fn set_last_snr(&mut self, dir: usize, rate: usize, reported_db: f64) {
        self.last_snr[dir * self.n_rates + rate] = reported_db;
    }

    /// Scheduled probes currently in one window.
    pub fn sent(&self, dir: usize, rate: usize) -> usize {
        self.word_count(&self.occ, dir, rate)
    }

    /// Receptions currently in one window.
    pub fn received(&self, dir: usize, rate: usize) -> usize {
        self.word_count(&self.rcv, dir, rate)
    }

    /// Windowed loss rate in `[0, 1]`; `None` before any probe.
    pub fn loss(&self, dir: usize, rate: usize) -> Option<f64> {
        let sent = self.sent(dir, rate);
        if sent == 0 {
            None
        } else {
            Some(1.0 - self.received(dir, rate) as f64 / sent as f64)
        }
    }

    /// The most recent reported SNR of one window (NaN before the first
    /// reception).
    pub fn last_snr(&self, dir: usize, rate: usize) -> f64 {
        self.last_snr[dir * self.n_rates + rate]
    }

    fn word_count(&self, masks: &[u64], dir: usize, rate: usize) -> usize {
        let w = dir * self.n_rates + rate;
        masks[w * self.words..(w + 1) * self.words]
            .iter()
            .map(|x| x.count_ones() as usize)
            .sum()
    }
}

/// A single tick-indexed ring window — [`PairWindows`] with one direction
/// and one rate, for benchmarks and the equivalence property tests.
#[derive(Debug, Clone)]
pub struct TickLossWindow {
    inner: PairWindows,
}

impl TickLossWindow {
    /// A window holding the last `slots` ticks.
    pub fn new(slots: usize) -> Self {
        Self {
            inner: PairWindows::new(1, slots),
        }
    }

    /// Records one probe outcome at `tick`; ticks must be strictly
    /// increasing.
    pub fn record(&mut self, tick: u64, received: bool) {
        self.inner.advance(0, tick);
        self.inner.record(0, 0, received, 0.0);
    }

    /// Probes currently in the window.
    pub fn sent(&self) -> usize {
        self.inner.sent(0, 0)
    }

    /// Receptions currently in the window.
    pub fn received(&self) -> usize {
        self.inner.received(0, 0)
    }

    /// Windowed loss rate in `[0, 1]`; `None` before any probe.
    pub fn loss(&self) -> Option<f64> {
        self.inner.loss(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::LossWindow;
    use proptest::prelude::*;

    #[test]
    fn slot_counts() {
        assert_eq!(probe_slots(800.0, 40.0), 20, "paper constants");
        assert_eq!(probe_slots(810.0, 40.0), 21, "partial slot stays live");
        assert_eq!(probe_slots(790.0, 40.0), 20);
        assert_eq!(probe_slots(40.0, 40.0), 1);
        assert_eq!(probe_slots(10.0, 40.0), 1, "never below one slot");
    }

    #[test]
    fn empty_window() {
        let w = TickLossWindow::new(20);
        assert_eq!(w.sent(), 0);
        assert_eq!(w.received(), 0);
        assert_eq!(w.loss(), None);
    }

    #[test]
    fn loss_fraction() {
        let mut w = TickLossWindow::new(20);
        w.record(1, true);
        w.record(2, false);
        w.record(3, false);
        w.record(4, true);
        assert_eq!(w.sent(), 4);
        assert_eq!(w.received(), 2);
        assert_eq!(w.loss(), Some(0.5));
    }

    #[test]
    fn old_probes_age_out() {
        let mut w = TickLossWindow::new(20);
        w.record(1, true);
        for k in 2..=21 {
            w.record(k, false);
        }
        // Tick 1 is 20 ticks old at tick 21 → evicted.
        assert_eq!(w.received(), 0);
        assert_eq!(w.sent(), 20);
        assert_eq!(w.loss(), Some(1.0));
    }

    #[test]
    fn long_gap_clears_everything() {
        let mut w = TickLossWindow::new(20);
        for k in 1..=10 {
            w.record(k, true);
        }
        w.record(1_000_000, false);
        assert_eq!(w.sent(), 1);
        assert_eq!(w.loss(), Some(1.0));
    }

    #[test]
    fn wide_windows_span_words() {
        // slots > 64 exercises the multi-word masks.
        let mut w = TickLossWindow::new(100);
        for k in 1..=300 {
            w.record(k, k % 2 == 0);
        }
        assert_eq!(w.sent(), 100);
        assert_eq!(w.received(), 50);
        assert_eq!(w.loss(), Some(0.5));
    }

    #[test]
    fn directions_advance_independently() {
        let mut p = PairWindows::new(2, 20);
        p.advance(0, 1);
        p.record(0, 0, true, 30.0);
        p.record(0, 1, false, 0.0);
        // Direction 1 never ticked; its windows stay empty.
        assert_eq!(p.sent(1, 0), 0);
        assert_eq!(p.sent(0, 0), 1);
        assert_eq!(p.received(0, 1), 0);
        assert!((p.last_snr(0, 0) - 30.0).abs() < 1e-12);
        assert!(p.last_snr(1, 0).is_nan());
    }

    #[test]
    fn extra_lanes_are_independent() {
        // The client path keys one lane per AP; lanes beyond the pair's
        // two must carry their own cursors and windows.
        let mut p = PairWindows::with_lanes(5, 3, 20);
        p.advance(4, 1);
        p.record(4, 2, true, 12.5);
        assert_eq!(p.sent(4, 2), 1);
        assert_eq!(p.received(4, 2), 1);
        assert!((p.last_snr(4, 2) - 12.5).abs() < 1e-12);
        for lane in 0..4 {
            for ri in 0..3 {
                assert_eq!(p.sent(lane, ri), 0, "lane {lane} rate {ri}");
            }
        }
        // A long gap on lane 4 clears only its own windows.
        p.advance(0, 1);
        p.record(0, 0, true, 5.0);
        p.advance(4, 1_000);
        assert_eq!(p.sent(4, 2), 0);
        assert_eq!(p.sent(0, 0), 1);
    }

    /// Drives the ring and the `VecDeque` reference over the same sparse
    /// tick sequence and checks every observable after every record.
    fn assert_matches_reference(
        window_s: f64,
        interval_s: f64,
        outcomes: &[(u64, bool)], // (gap from previous tick >= 1, received)
    ) {
        let mut reference = LossWindow::new(window_s);
        let mut ring = TickLossWindow::new(probe_slots(window_s, interval_s));
        let mut tick = 0u64;
        for &(gap, received) in outcomes {
            tick += gap;
            reference.record(tick as f64 * interval_s, received);
            ring.record(tick, received);
            assert_eq!(ring.sent(), reference.sent(), "sent at tick {tick}");
            assert_eq!(
                ring.received(),
                reference.received(),
                "received at tick {tick}"
            );
            assert_eq!(ring.loss(), reference.loss(), "loss at tick {tick}");
        }
    }

    proptest! {
        /// The ring matches the reference window on arbitrary outcome
        /// sequences, including sparse/irregular tick gaps that land
        /// entries exactly on prune boundaries, for window widths that
        /// divide the cadence evenly and ones that do not.
        #[test]
        fn ring_matches_vecdeque_reference(
            outcomes in proptest::collection::vec(
                (1u64..45, proptest::bool::ANY),
                1..200,
            ),
            window_i in 0usize..6,
        ) {
            let window_s = [40.0, 80.0, 790.0, 800.0, 810.0, 2_600.0][window_i];
            assert_matches_reference(window_s, 40.0, &outcomes);
        }
    }
}
