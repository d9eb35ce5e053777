//! Campaign execution: one flat work list over every (network, radio, AP
//! pair), one dataset out.
//!
//! The unit of parallel work is a *pair simulation*, not a network: pair
//! timelines are fully independent (per-pair channel and coin streams), so
//! a campaign flattens into one global work list that keeps every thread
//! busy even when network sizes are skewed — the old network-granular
//! split serialized on the largest network. Per-pair probe streams come
//! back already ordered by `(time, phy, sender, receiver)` (a key that is
//! unique within a network), so assembling a network's probe table is an
//! exact k-way merge (the crate-private `merge` module) instead of a full
//! re-sort.

use mesh11_phy::{Phy, RateRow, SuccessTable};
use mesh11_topo::{Campaign, NetworkSpec};
use mesh11_trace::{Dataset, NetworkMeta, ProbeTable};
use rayon::prelude::*;

use crate::client_engine::simulate_clients;
use crate::config::SimConfig;
use crate::fault::CompiledFaults;
use crate::merge::{merge_report_order, merge_report_order_into};
use crate::probe_engine::{coin_base, discover_pairs, simulate_pair, PairSim};

/// Everything needed to simulate any pair of one network radio: the
/// discovered candidate pairs plus the radio-scoped immutable inputs.
struct RadioPlan {
    /// Index into `campaign.networks`.
    network: usize,
    phy: Phy,
    pairs: Vec<PairSim>,
    coin_base: u64,
    faults: CompiledFaults,
}

/// Aggregate counters of one campaign run, for timing reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CampaignRunStats {
    /// Candidate AP pairs simulated across all networks and radios.
    pub pairs_simulated: usize,
}

impl SimConfig {
    /// Simulates one network (all its radios, probes and clients) into a
    /// single-network dataset.
    pub fn run_network(&self, spec: &NetworkSpec) -> Dataset {
        let table = mesh11_phy::shared_success_table(mesh11_phy::PerModel::default());
        self.run_network_with_table(spec, table)
    }

    /// As [`SimConfig::run_network`] with a shared success table.
    pub fn run_network_with_table(&self, spec: &NetworkSpec, table: &SuccessTable) -> Dataset {
        let faults = self.faults.compile(spec.id);
        let mut streams: Vec<ProbeTable> = Vec::new();
        for &radio in &spec.radios {
            let rates = radio.probed_rates();
            let rows: Vec<RateRow<'_>> = rates.iter().map(|&r| table.rate_row(r)).collect();
            let pairs = discover_pairs(spec, radio, self);
            let base = coin_base(spec.seed, radio);
            streams.extend(
                pairs
                    .par_iter()
                    .map(|pair| {
                        simulate_pair(spec.id, radio, self, &rows, rates, pair, base, &faults)
                    })
                    .collect::<Vec<_>>(),
            );
        }
        let probes = merge_report_order(streams);
        let clients = simulate_clients(spec, self);
        Dataset {
            networks: vec![network_meta(spec)],
            probes,
            clients,
            probe_horizon_s: self.probe_horizon_s,
            client_horizon_s: self.client_horizon_s,
        }
    }

    /// Simulates every network of a campaign and merges the results in
    /// network-id order — bit-for-bit deterministic in the campaign seed
    /// regardless of thread scheduling.
    pub fn run_campaign(&self, campaign: &Campaign) -> Dataset {
        self.run_campaign_counted(campaign).0
    }

    /// As [`SimConfig::run_campaign`], also returning run counters.
    pub fn run_campaign_counted(&self, campaign: &Campaign) -> (Dataset, CampaignRunStats) {
        let table = mesh11_phy::shared_success_table(mesh11_phy::PerModel::default());
        self.run_campaign_counted_with_table(campaign, table)
    }

    /// As [`SimConfig::run_campaign_counted`] with a caller-provided
    /// success table, so one tabulation serves the whole run (the bench
    /// harness shares it with the client-probe pass).
    ///
    /// Three flat parallel passes, never nested: discovery per (network,
    /// radio), pair simulation over the global (network, radio, pair) work
    /// list, and client traces per network. Every pass's `collect`
    /// preserves input order, so assembly is deterministic.
    pub fn run_campaign_counted_with_table(
        &self,
        campaign: &Campaign,
        table: &SuccessTable,
    ) -> (Dataset, CampaignRunStats) {
        let refs: Vec<&NetworkSpec> = campaign.networks.iter().collect();
        let (mut outs, pair_counts) = self.run_spec_refs_with_table(&refs, table, 1, |_| 0);
        let stats = CampaignRunStats {
            pairs_simulated: pair_counts.iter().sum(),
        };
        (outs.pop().expect("one output dataset"), stats)
    }

    /// Runs several campaigns — in practice one per seed of a multi-seed
    /// ensemble — as **one** flat `(campaign, network, radio, pair)` work
    /// list through the same three-pass scheduler, then splits the parts
    /// back per campaign positionally.
    ///
    /// Every pair timeline is keyed only by its own spec's
    /// `(seed, phy, a, b)` (the batching tests pin this), so each returned
    /// dataset is byte-identical to running its campaign alone with
    /// [`SimConfig::run_campaign_counted_with_table`] — but the scheduler
    /// sees `N×` the work items, so the long tail of the largest network's
    /// pairs overlaps across seeds instead of serializing once per seed,
    /// and discovery, table, and thread-pool setup amortize across the
    /// ensemble.
    pub fn run_campaigns_counted_with_table(
        &self,
        campaigns: &[&Campaign],
        table: &SuccessTable,
    ) -> Vec<(Dataset, CampaignRunStats)> {
        let refs: Vec<&NetworkSpec> = campaigns.iter().flat_map(|c| c.networks.iter()).collect();
        let owner: Vec<usize> = campaigns
            .iter()
            .enumerate()
            .flat_map(|(k, c)| std::iter::repeat_n(k, c.networks.len()))
            .collect();
        let (outs, pair_counts) =
            self.run_spec_refs_with_table(&refs, table, campaigns.len(), |ni| owner[ni]);
        let mut stats = vec![CampaignRunStats::default(); campaigns.len()];
        for (ni, pairs) in pair_counts.into_iter().enumerate() {
            stats[owner[ni]].pairs_simulated += pairs;
        }
        outs.into_iter().zip(stats).collect()
    }

    /// Streams a campaign's per-network datasets into `sink`, in network-id
    /// order, simulating `batch_networks` consecutive networks at a time so
    /// only one batch's probes are ever materialized at once. Each emitted
    /// dataset is byte-identical to the corresponding slice of
    /// [`SimConfig::run_campaign_counted_with_table`]'s merged output —
    /// pair timelines are seeded per (network, radio, pair) and never see
    /// the batch composition.
    pub fn stream_campaign_with_table(
        &self,
        campaign: &Campaign,
        table: &SuccessTable,
        batch_networks: usize,
        mut sink: impl FnMut(Dataset),
    ) -> CampaignRunStats {
        let batch = batch_networks.max(1);
        let mut stats = CampaignRunStats::default();
        for specs in campaign.networks.chunks(batch) {
            let (parts, s) = self.run_specs_with_table(specs, table);
            stats.pairs_simulated += s.pairs_simulated;
            for part in parts {
                sink(part);
            }
        }
        stats
    }

    /// The shared three-pass scheduler over a run of network specs,
    /// returning one single-network dataset per spec (in input order).
    fn run_specs_with_table(
        &self,
        specs: &[NetworkSpec],
        table: &SuccessTable,
    ) -> (Vec<Dataset>, CampaignRunStats) {
        let refs: Vec<&NetworkSpec> = specs.iter().collect();
        let (parts, pair_counts) =
            self.run_spec_refs_with_table(&refs, table, specs.len(), |ni| ni);
        let stats = CampaignRunStats {
            pairs_simulated: pair_counts.iter().sum(),
        };
        (parts, stats)
    }

    /// The scheduler over network specs by reference — the multi-seed
    /// path concatenates several campaigns' spec lists without cloning
    /// specs. Network `ni` lands in output dataset `out_of(ni)` of
    /// `n_out`: each network's pair streams merge straight into its
    /// output's probe table, in spec order, so the observations are copied
    /// once. Returns the outputs and the per-spec candidate-pair counts,
    /// so callers can attribute work per campaign.
    fn run_spec_refs_with_table(
        &self,
        specs: &[&NetworkSpec],
        table: &SuccessTable,
        n_out: usize,
        out_of: impl Fn(usize) -> usize,
    ) -> (Vec<Dataset>, Vec<usize>) {
        let rows_bg: Vec<RateRow<'_>> = Phy::Bg
            .probed_rates()
            .iter()
            .map(|&r| table.rate_row(r))
            .collect();
        let rows_ht: Vec<RateRow<'_>> = Phy::Ht
            .probed_rates()
            .iter()
            .map(|&r| table.rate_row(r))
            .collect();

        // Pass 1: pair discovery, one job per network radio.
        let radio_jobs: Vec<(usize, Phy)> = specs
            .iter()
            .enumerate()
            .flat_map(|(ni, spec)| spec.radios.iter().map(move |&r| (ni, r)))
            .collect();
        let plans: Vec<RadioPlan> = radio_jobs
            .par_iter()
            .map(|&(network, phy)| {
                let spec = specs[network];
                RadioPlan {
                    network,
                    phy,
                    pairs: discover_pairs(spec, phy, self),
                    coin_base: coin_base(spec.seed, phy),
                    faults: self.faults.compile(spec.id),
                }
            })
            .collect();

        // Pass 2: the global pair scheduler. Work items are (plan, pair)
        // indices in plan-major order, so the result streams group by
        // network contiguously.
        let items: Vec<(usize, usize)> = plans
            .iter()
            .enumerate()
            .flat_map(|(pi, plan)| (0..plan.pairs.len()).map(move |qi| (pi, qi)))
            .collect();
        let mut pair_counts = vec![0usize; specs.len()];
        for plan in &plans {
            pair_counts[plan.network] += plan.pairs.len();
        }
        let streams: Vec<ProbeTable> = items
            .par_iter()
            .map(|&(pi, qi)| {
                let plan = &plans[pi];
                let spec = specs[plan.network];
                let rows = match plan.phy {
                    Phy::Bg => &rows_bg,
                    Phy::Ht => &rows_ht,
                };
                simulate_pair(
                    spec.id,
                    plan.phy,
                    self,
                    rows,
                    plan.phy.probed_rates(),
                    &plan.pairs[qi],
                    plan.coin_base,
                    &plan.faults,
                )
            })
            .collect();

        // Pass 3: client traces, one job per network.
        let client_parts: Vec<_> = specs
            .par_iter()
            .map(|&spec| simulate_clients(spec, self))
            .collect();

        // Assembly: slice the stream list back into per-network groups
        // (contiguous by construction) and merge each in report order.
        // Each output's table is allocated once, at its exact final size.
        let mut sizes = vec![(0usize, 0usize); n_out];
        for (&(pi, _), s) in items.iter().zip(&streams) {
            let size = &mut sizes[out_of(plans[pi].network)];
            size.0 += s.len();
            size.1 += s.observations().len();
        }
        let mut outs: Vec<Dataset> = sizes
            .into_iter()
            .map(|(sets, obs)| Dataset {
                probes: ProbeTable::with_capacity(sets, obs),
                probe_horizon_s: self.probe_horizon_s,
                client_horizon_s: self.client_horizon_s,
                ..Dataset::default()
            })
            .collect();
        let mut stream_iter = streams.into_iter();
        let mut plan_iter = plans.iter().peekable();
        for (ni, (&spec, clients)) in specs.iter().zip(client_parts).enumerate() {
            let mut net_streams: Vec<ProbeTable> = Vec::new();
            while let Some(plan) = plan_iter.peek() {
                if plan.network != ni {
                    break;
                }
                for _ in 0..plan.pairs.len() {
                    net_streams.push(stream_iter.next().expect("one stream per work item"));
                }
                plan_iter.next();
            }
            // Campaign network ids are dense and ascending, so pushing in
            // spec order keeps `networks` indexable by id.
            let out = &mut outs[out_of(ni)];
            out.networks.push(network_meta(spec));
            out.clients.extend(clients);
            merge_report_order_into(&mut out.probes, net_streams);
        }
        (outs, pair_counts)
    }
}

fn network_meta(spec: &NetworkSpec) -> NetworkMeta {
    NetworkMeta {
        id: spec.id,
        env: spec.env.label(),
        n_aps: spec.size(),
        radios: spec.radios.clone(),
        location: spec.geo.label.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh11_phy::{CalibratedPhy, Phy};
    use mesh11_topo::CampaignSpec;

    #[test]
    fn single_network_dataset_shape() {
        let campaign = CampaignSpec::small(21).generate();
        let spec = campaign
            .networks
            .iter()
            .find(|n| n.has_bg() && n.size() >= 4)
            .unwrap();
        let mut cfg = SimConfig::quick();
        cfg.probe_horizon_s = 1_200.0;
        cfg.client_horizon_s = 1_200.0;
        let ds = cfg.run_network(spec);
        assert_eq!(ds.networks.len(), 1);
        assert_eq!(ds.networks[0].n_aps, spec.size());
        assert!(!ds.probes.is_empty());
        assert!(ds
            .probes
            .rows()
            .windows(2)
            .all(|w| w[0].time_s <= w[1].time_s));
    }

    #[test]
    fn campaign_is_deterministic_and_ordered() {
        let campaign = CampaignSpec::scaled(33, 5).generate();
        let mut cfg = SimConfig::quick();
        cfg.probe_horizon_s = 1_200.0;
        cfg.client_horizon_s = 900.0;
        let a = cfg.run_campaign(&campaign);
        let b = cfg.run_campaign(&campaign);
        assert_eq!(a, b, "parallel runs must merge deterministically");
        assert_eq!(a.networks.len(), 5);
        // Network metadata is indexable by id.
        for (i, m) in a.networks.iter().enumerate() {
            assert_eq!(m.id.0 as usize, i);
        }
    }

    #[test]
    fn counted_run_matches_per_network_path_and_counts_pairs() {
        let campaign = CampaignSpec::scaled(17, 4).generate();
        let mut cfg = SimConfig::quick();
        cfg.probe_horizon_s = 1_200.0;
        cfg.client_horizon_s = 600.0;
        let (ds, stats) = cfg.run_campaign_counted(&campaign);
        assert!(stats.pairs_simulated > 0);

        // The global scheduler must produce exactly what the per-network
        // path produces, network by network.
        let phy = CalibratedPhy::new();
        let table = SuccessTable::new(&phy);
        let mut expected = Dataset {
            probe_horizon_s: cfg.probe_horizon_s,
            client_horizon_s: cfg.client_horizon_s,
            ..Dataset::default()
        };
        let mut pairs = 0;
        for spec in &campaign.networks {
            expected.merge(cfg.run_network_with_table(spec, &table));
            for &radio in &spec.radios {
                pairs += discover_pairs(spec, radio, &cfg).len();
            }
        }
        assert_eq!(ds, expected);
        assert_eq!(stats.pairs_simulated, pairs);
    }

    #[test]
    fn streaming_run_matches_one_shot_campaign() {
        // Batch composition must not leak into the per-network datasets:
        // pair timelines are seeded per (network, radio, pair), so a
        // 3-network batch stream reassembles to the exact one-shot merge.
        let campaign = CampaignSpec::scaled(29, 7).generate();
        let mut cfg = SimConfig::quick();
        cfg.probe_horizon_s = 1_200.0;
        cfg.client_horizon_s = 600.0;
        let phy = CalibratedPhy::new();
        let table = SuccessTable::new(&phy);
        let (expected, one_shot_stats) = cfg.run_campaign_counted_with_table(&campaign, &table);

        for batch in [1, 3, 100] {
            let mut merged = Dataset {
                probe_horizon_s: cfg.probe_horizon_s,
                client_horizon_s: cfg.client_horizon_s,
                ..Dataset::default()
            };
            let mut parts = 0usize;
            let stats = cfg.stream_campaign_with_table(&campaign, &table, batch, |part| {
                assert_eq!(part.networks.len(), 1, "one dataset per network");
                parts += 1;
                merged.merge(part);
            });
            assert_eq!(parts, campaign.networks.len());
            assert_eq!(merged, expected, "batch size {batch}");
            assert_eq!(stats.pairs_simulated, one_shot_stats.pairs_simulated);
        }
    }

    /// Fusing N campaigns into one flat work list must not perturb any
    /// campaign's output: batch sizes 1, 3, and N all reproduce the
    /// one-shot per-campaign datasets and pair counts exactly.
    #[test]
    fn fused_multi_campaign_matches_per_campaign_runs() {
        let campaigns: Vec<Campaign> = [(11u64, 3usize), (12, 5), (13, 4), (14, 2), (15, 3)]
            .iter()
            .map(|&(seed, n)| CampaignSpec::scaled(seed, n).generate())
            .collect();
        let mut cfg = SimConfig::quick();
        cfg.probe_horizon_s = 1_200.0;
        cfg.client_horizon_s = 600.0;
        let phy = CalibratedPhy::new();
        let table = SuccessTable::new(&phy);
        let solo: Vec<_> = campaigns
            .iter()
            .map(|c| cfg.run_campaign_counted_with_table(c, &table))
            .collect();
        for batch in [1usize, 3, 5] {
            let mut fused = Vec::new();
            for chunk in campaigns.chunks(batch) {
                let refs: Vec<&Campaign> = chunk.iter().collect();
                fused.extend(cfg.run_campaigns_counted_with_table(&refs, &table));
            }
            assert_eq!(fused.len(), solo.len());
            for (k, (got, want)) in fused.iter().zip(&solo).enumerate() {
                assert_eq!(got.1, want.1, "batch {batch}, campaign {k}: stats");
                assert_eq!(got.0, want.0, "batch {batch}, campaign {k}: dataset");
            }
        }
    }

    #[test]
    fn dual_radio_networks_emit_both_phys() {
        // Build a campaign big enough to include the dual-radio network.
        let campaign = CampaignSpec::scaled(7, 12).generate();
        let dual = campaign.networks.iter().find(|n| n.has_bg() && n.has_ht());
        let Some(dual) = dual else {
            // Composition may not include a dual network at this scale;
            // the paper-scale test below would cover it. Skip gracefully.
            return;
        };
        let mut cfg = SimConfig::quick();
        cfg.probe_horizon_s = 1_200.0;
        cfg.client_horizon_s = 600.0;
        let ds = cfg.run_network(dual);
        let bg = ds.probes_for_phy(Phy::Bg).count();
        let ht = ds.probes_for_phy(Phy::Ht).count();
        assert!(bg > 0 && ht > 0, "dual-radio network: bg={bg} ht={ht}");
    }
}
