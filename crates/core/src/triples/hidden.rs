//! Relevant and hidden triple counting (§6.1, Fig 6.1).
//!
//! With per-node neighbour bitsets the count is word-parallel: for a centre
//! `B` and each neighbour `A` of `B`, the hidden partners are
//! `N(B) ∧ ¬N(A) ∧ {C > A}` — one AND-NOT-MASK-POPCOUNT sweep per (B, A).

use mesh11_phy::{BitRate, Phy};
use mesh11_trace::fold::{meta_units, Unit};
use mesh11_trace::{DatasetView, EnvLabel, FoldKernel, NetworkId, NetworkMeta};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::triples::hearing::{HearRule, HearingGraph};

/// Triple tallies of one network at one rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TripleCounts {
    /// Triples `(A, B, C)` where A and C both hear B.
    pub relevant: u64,
    /// Relevant triples where A and C do *not* hear each other.
    pub hidden: u64,
}

impl TripleCounts {
    /// Hidden / relevant; `None` when there are no relevant triples.
    pub fn fraction(&self) -> Option<f64> {
        (self.relevant > 0).then(|| self.hidden as f64 / self.relevant as f64)
    }
}

/// Counts relevant and hidden triples of a hearing graph.
pub fn count_triples(g: &HearingGraph) -> TripleCounts {
    let n = g.n_nodes();
    let words = n.div_ceil(64);
    let mut relevant = 0u64;
    let mut hidden = 0u64;
    for b in 0..n {
        let nb = g.neighbours(b);
        // Iterate neighbours A of B.
        for (wa, &word) in nb.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let a = wa * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let na = g.neighbours(a);
                // Partners C ∈ N(B), C > A; hidden additionally C ∉ N(A).
                for w in 0..words {
                    // Mask of indices strictly greater than a within word w.
                    let gt_mask: u64 = if w * 64 > a {
                        u64::MAX // whole word lies above a
                    } else if w * 64 + 63 <= a {
                        0 // whole word lies at or below a
                    } else {
                        // a lives in this word: keep the bits above it.
                        !0u64 << (a % 64 + 1)
                    };
                    // N(B) never contains B, so no self-exclusion needed.
                    let partners = nb[w] & gt_mask;
                    relevant += u64::from(partners.count_ones());
                    hidden += u64::from((partners & !na[w]).count_ones());
                }
            }
        }
    }
    TripleCounts { relevant, hidden }
}

/// The §6.1/§6.3 analysis: per (network, rate) hidden-triple fractions.
#[derive(Debug, Clone)]
pub struct TripleAnalysis {
    /// Threshold on the hearing statistic (paper: 0.10).
    pub threshold: f64,
    /// Hearing rule used.
    pub rule: HearRule,
    /// `(network, env, rate) → counts`.
    pub per_network: BTreeMap<(NetworkId, BitRate), (EnvLabel, TripleCounts)>,
}

impl TripleAnalysis {
    /// Runs the analysis on every network running `phy` in the dataset.
    pub fn run(view: DatasetView<'_>, phy: Phy, threshold: f64, rule: HearRule) -> Self {
        mesh11_trace::run_fold(
            view,
            &TripleKernel {
                phy,
                threshold,
                rule,
            },
        )
    }

    /// Fig 6.1's sample at one rate: each network's hidden fraction
    /// (networks with no relevant triples excluded), optionally restricted
    /// to one environment (§6.3).
    pub fn fractions(&self, rate: BitRate, env: Option<EnvLabel>) -> Vec<f64> {
        self.per_network
            .iter()
            .filter(|((_, r), _)| *r == rate)
            .filter(|(_, (e, _))| env.is_none_or(|want| *e == want))
            .filter_map(|(_, (_, c))| c.fraction())
            .collect()
    }

    /// Median hidden fraction at a rate (the §6.1 "about 15%" statistic).
    pub fn median_fraction(&self, rate: BitRate, env: Option<EnvLabel>) -> Option<f64> {
        mesh11_stats::median(&self.fractions(rate, env))
    }
}

/// One network's triple counts, one row per rate.
pub(crate) type TripleRows = Vec<((NetworkId, BitRate), (EnvLabel, TripleCounts))>;

/// The fold-style form of [`TripleAnalysis::run`]: the per-network map
/// keys are disjoint across the folded views, so the merged map does not
/// depend on how the networks are split into views. The keys are disjoint
/// across networks too, and the `BTreeMap` orders itself, so the merged
/// map is insertion-order independent.
#[derive(Debug, Clone, Copy)]
pub struct TripleKernel {
    /// PHY analyzed.
    pub phy: Phy,
    /// Threshold on the hearing statistic (paper: 0.10).
    pub threshold: f64,
    /// Hearing rule used.
    pub rule: HearRule,
}

impl FoldKernel for TripleKernel {
    type Partial = BTreeMap<(NetworkId, BitRate), (EnvLabel, TripleCounts)>;
    type Piece = TripleRows;
    type Output = TripleAnalysis;

    fn init(&self) -> Self::Partial {
        BTreeMap::new()
    }

    fn units<'a>(&'a self, view: DatasetView<'a>) -> Vec<Unit<'a, Self::Piece>> {
        let keep = |m: &NetworkMeta| m.radios.contains(&self.phy) && m.n_aps >= 3;
        meta_units(view, keep, move |meta| self.rows(view, meta))
    }

    fn merge(&self, per_network: &mut Self::Partial, rows: Self::Piece) {
        per_network.extend(rows);
    }

    fn finish(&self, per_network: Self::Partial) -> TripleAnalysis {
        TripleAnalysis {
            threshold: self.threshold,
            rule: self.rule,
            per_network,
        }
    }
}

impl TripleKernel {
    /// One network's counts, one row per rate.
    pub(crate) fn rows(&self, view: DatasetView<'_>, meta: &NetworkMeta) -> TripleRows {
        let phy = self.phy;
        view.delivery_stack(phy, meta.id)
            .iter()
            .map(|m| {
                let g = HearingGraph::build(m, self.threshold, self.rule);
                ((meta.id, m.rate), (meta.env, count_triples(&g)))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triples::hearing::HearingGraph;

    /// Brute-force reference counter.
    fn brute(g: &HearingGraph) -> TripleCounts {
        let n = g.n_nodes();
        let mut relevant = 0;
        let mut hidden = 0;
        for b in 0..n {
            for a in 0..n {
                for c in (a + 1)..n {
                    if a == b || c == b {
                        continue;
                    }
                    if g.hears(a, b) && g.hears(c, b) {
                        relevant += 1;
                        if !g.hears(a, c) {
                            hidden += 1;
                        }
                    }
                }
            }
        }
        TripleCounts { relevant, hidden }
    }

    #[test]
    fn classic_hidden_terminal() {
        // A — B — C, A and C out of range: 1 relevant, 1 hidden.
        let mut g = HearingGraph::empty(3);
        g.connect(0, 1);
        g.connect(1, 2);
        let c = count_triples(&g);
        assert_eq!(
            c,
            TripleCounts {
                relevant: 1,
                hidden: 1
            }
        );
        assert_eq!(c.fraction(), Some(1.0));
    }

    #[test]
    fn triangle_has_no_hidden() {
        let mut g = HearingGraph::empty(3);
        g.connect(0, 1);
        g.connect(1, 2);
        g.connect(0, 2);
        // Every node is the centre of one relevant triple; none hidden.
        let c = count_triples(&g);
        assert_eq!(
            c,
            TripleCounts {
                relevant: 3,
                hidden: 0
            }
        );
        assert_eq!(c.fraction(), Some(0.0));
    }

    #[test]
    fn empty_graph_fraction_none() {
        let g = HearingGraph::empty(4);
        let c = count_triples(&g);
        assert_eq!(c.relevant, 0);
        assert_eq!(c.fraction(), None);
    }

    #[test]
    fn star_center_counts() {
        // Star: centre 0 with 4 leaves, no leaf-leaf edges: C(4,2) = 6
        // relevant, all hidden.
        let mut g = HearingGraph::empty(5);
        for leaf in 1..5 {
            g.connect(0, leaf);
        }
        let c = count_triples(&g);
        assert_eq!(
            c,
            TripleCounts {
                relevant: 6,
                hidden: 6
            }
        );
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        for seed in 0..20 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.random_range(3..80);
            let mut g = HearingGraph::empty(n);
            for a in 0..n {
                for b in (a + 1)..n {
                    if rng.random::<f64>() < 0.25 {
                        g.connect(a, b);
                    }
                }
            }
            assert_eq!(count_triples(&g), brute(&g), "seed {seed} n {n}");
        }
    }

    #[test]
    fn word_boundary_graphs() {
        // Exercise nodes straddling the 64-bit word boundary.
        let mut g = HearingGraph::empty(130);
        g.connect(63, 64);
        g.connect(64, 65);
        g.connect(63, 129);
        assert_eq!(count_triples(&g), brute(&g));
    }
}
