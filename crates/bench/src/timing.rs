//! Per-phase wall-clock accounting for reproduction runs.
//!
//! `repro` prints this breakdown at the end of a run and writes it to
//! `<out>/bench_timings.json`, so thread-scaling claims are
//! machine-checkable instead of eyeballed from log lines.

use serde::Serialize;
use std::collections::BTreeMap;

/// Wall-clock breakdown of one `repro` run.
#[derive(Debug, Clone, Serialize)]
pub struct PhaseTimings {
    /// Scale the run used (`"quick"` / `"standard"` / `"paper"` /
    /// `"metro-<factor>"`).
    pub scale: String,
    /// Campaign seed (the base seed of a multi-seed run).
    pub seed: u64,
    /// Seeds the run covered (`--seeds`, consecutive from `seed`); 1 for
    /// single-seed runs.
    pub seeds: usize,
    /// Thread budget the run executed under (`--threads`, 0 = default).
    pub threads: usize,
    /// Threads rayon actually ran with — what thread-scaling claims are
    /// made against.
    pub effective_threads: usize,
    /// Campaign generation (topology, populations, specs).
    pub generate_s: f64,
    /// Probe + client simulation across all networks.
    pub simulate_s: f64,
    /// Candidate AP pairs the simulate phase ran — the work-item count of
    /// the global pair scheduler, giving `simulate_s` a denominator.
    pub pairs_simulated: usize,
    /// Amortized per-seed simulate cost, `simulate_s / seeds` — the number
    /// the multi-seed batching claim is made against (equals `simulate_s`
    /// for single-seed runs).
    pub simulate_s_per_seed: f64,
    /// Pairs simulated per seed, in seed order (singleton for single-seed
    /// runs). Multi-seed batching fuses the simulate pass, so per-seed
    /// wall-clock is unobservable; per-seed work is.
    pub per_seed_pairs: Vec<usize>,
    /// Per-seed analysis wall-clock (fused pass plus figures), in seed
    /// order (singleton for single-seed runs; the analyze phase stays
    /// per-seed even when the simulate phase is fused).
    pub per_seed_analyze_s: Vec<f64>,
    /// Mean per-seed analyze wall-clock — the analyze-phase counterpart of
    /// `simulate_s_per_seed` (equals `analyze_s` for single-seed runs).
    pub analyze_s_per_seed: f64,
    /// 95% Student-t half-width of `analyze_s_per_seed`; `None` for
    /// single-seed runs (a half-width needs ≥2 seeds).
    pub analyze_s_per_seed_ci95: Option<f64>,
    /// Probe reports the simulate phase produced.
    pub n_probes: usize,
    /// Simulation throughput: `n_probes / simulate_s`.
    pub reports_per_sec: f64,
    /// Peak resident-set size of the process (VmHWM), in MiB. `None` where
    /// the platform offers no cheap high-water mark (non-Linux).
    pub peak_rss_mb: Option<f64>,
    /// `"in-memory"` or `"chunked"` — how the probe table was stored.
    pub data_mode: String,
    /// Bytes written to the chunk spill file (0 when fully resident).
    pub spilled_bytes: u64,
    /// The downlink client-probe pass (sharded per client), run eagerly
    /// alongside simulation and cached for `ext-client`.
    pub client_probe_s: f64,
    /// Clients the client-probe pass simulated — the work-item count of
    /// its per-client scheduler, giving `client_probe_s` a denominator.
    pub clients_simulated: usize,
    /// All analysis, wall-clock: the build's fused pass, then the figures
    /// (which run concurrently, so less than the sum of `figures`). For a
    /// streamed run the fused pass is `stream_analyze_s`, most of which
    /// ran inside the simulate wall; how much of it overlapped is read off
    /// the two stream waits.
    pub analyze_s: f64,
    /// Analysis throughput: `n_probes / analyze_s` — the analyze-phase
    /// counterpart of `reports_per_sec`.
    pub analyze_probes_per_sec: f64,
    /// Analysis seconds of a single-seed run's streamed build: the index
    /// build, kernel fold and penalty scoring of every sealed part (inside
    /// the simulate wall) plus the finish. Chunk encode and spill are not
    /// in it. `None` for `--seeds` runs, which fold resident datasets.
    pub stream_analyze_s: Option<f64>,
    /// Seconds a streamed run's simulator spent blocked handing sealed
    /// parts to the fold. Near 0 when simulation and analysis overlap;
    /// the fold's whole share of `simulate_s` when they alternate (the
    /// two pools do not fit the cores side by side). `None` for `--seeds`
    /// runs.
    pub stream_send_wait_s: Option<f64>,
    /// Seconds a streamed run's fold consumer spent idle, waiting for the
    /// simulator's next part. `None` for `--seeds` runs.
    pub stream_recv_wait_s: Option<f64>,
    /// Chunk fetches served from a resident chunk. The chunk-store
    /// counters are `None` (JSON `null`) for in-memory runs, where a zero
    /// would be misleading rather than measured.
    pub chunk_hits: Option<u64>,
    /// Chunk fetches that decoded from the spill file.
    pub chunk_decodes: Option<u64>,
    /// Chunks evicted from the resident set.
    pub chunk_evictions: Option<u64>,
    /// High-water mark of bytes pinned live by chunk handles.
    pub peak_pinned_bytes: Option<u64>,
    /// Windows materialized (chunk-span decode + index build). Zero for a
    /// `repro` run: the chunked build folds the sealed parts instead.
    pub window_builds: Option<u64>,
    /// Windows the chunk store partitions the ensemble into.
    pub n_windows: Option<u64>,
    /// Times eviction ran over budget with every chunk pinned or
    /// contended (sustained growth = budget too small).
    pub over_budget_events: Option<u64>,
    /// Seconds spent decoding spill frames, summed across all threads.
    pub decode_s: Option<f64>,
    /// Uncompressed column bytes of every chunk ever spilled.
    pub spill_raw_bytes: Option<u64>,
    /// Bytes actually written to the spill file;
    /// `spill_encoded_bytes / spill_raw_bytes` is the codec-v2 ratio.
    pub spill_encoded_bytes: Option<u64>,
    /// End-to-end wall-clock, including table rendering and JSON output.
    pub total_s: f64,
    /// Per-experiment analyze seconds, keyed by experiment id. Each entry
    /// is that builder's own clock; entries overlap under parallelism.
    pub figures: BTreeMap<String, f64>,
}

/// The process's peak resident-set size in MiB, read from `VmHWM` in
/// `/proc/self/status`. `None` on platforms without procfs.
pub fn peak_rss_mb() -> Option<f64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line
            .trim_start_matches("VmHWM:")
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

impl PhaseTimings {
    /// Pretty JSON for `bench_timings.json`.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("PhaseTimings serializes")
    }

    /// The human-readable breakdown `repro` prints on stderr.
    pub fn render(&self) -> String {
        let mut s = format!(
            "# timings ({} threads): generate {:.2}s, simulate {:.2}s ({} pairs, {:.0} reports/s), client probes {:.2}s ({} clients), analyze {:.2}s (wall), total {:.2}s",
            self.effective_threads,
            self.generate_s,
            self.simulate_s,
            self.pairs_simulated,
            self.reports_per_sec,
            self.client_probe_s,
            self.clients_simulated,
            self.analyze_s,
            self.total_s
        );
        if self.seeds > 1 {
            s.push_str(&format!(
                "\n# multi-seed: {} seeds fused, simulate {:.2}s/seed amortized, analyze {:.2}s/seed{}",
                self.seeds,
                self.simulate_s_per_seed,
                self.analyze_s_per_seed,
                self.analyze_s_per_seed_ci95
                    .map(|h| format!(" (±{h:.2}s)"))
                    .unwrap_or_default()
            ));
        }
        if let Some(fold) = self.stream_analyze_s {
            s.push_str(&format!(
                "\n# streaming: analysis {fold:.2}s (part folds and scoring), simulator blocked on the fold {:.2}s, fold idle waiting for parts {:.2}s",
                self.stream_send_wait_s.unwrap_or(0.0),
                self.stream_recv_wait_s.unwrap_or(0.0)
            ));
        }
        if let Some(rss) = self.peak_rss_mb {
            s.push_str(&format!(
                "\n# memory: peak RSS {rss:.0} MiB ({}, {} spilled bytes)",
                self.data_mode, self.spilled_bytes
            ));
        }
        if self.data_mode == "chunked" {
            s.push_str(&format!(
                "\n# chunk store: {} hits / {} decodes / {} evictions, {} peak pinned bytes, {} window builds ({} windows)",
                self.chunk_hits.unwrap_or(0),
                self.chunk_decodes.unwrap_or(0),
                self.chunk_evictions.unwrap_or(0),
                self.peak_pinned_bytes.unwrap_or(0),
                self.window_builds.unwrap_or(0),
                self.n_windows.unwrap_or(0)
            ));
            if self.spill_raw_bytes.unwrap_or(0) > 0 {
                let raw = self.spill_raw_bytes.unwrap_or(0);
                let enc = self.spill_encoded_bytes.unwrap_or(0);
                s.push_str(&format!(
                    "\n# spill codec: {enc} / {raw} bytes ({:.2}x), decode {:.2}s, {} over-budget events",
                    enc as f64 / raw as f64,
                    self.decode_s.unwrap_or(0.0),
                    self.over_budget_events.unwrap_or(0)
                ));
            }
        }
        let mut slowest: Vec<(&String, &f64)> = self.figures.iter().collect();
        slowest.sort_by(|a, b| b.1.partial_cmp(a.1).expect("finite timings"));
        for (id, t) in slowest.iter().take(5) {
            s.push_str(&format!("\n#   slowest: {id} {t:.2}s"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_all_phases() {
        let t = PhaseTimings {
            scale: "Quick".into(),
            seed: 42,
            seeds: 2,
            threads: 0,
            effective_threads: 8,
            generate_s: 0.1,
            simulate_s: 2.0,
            pairs_simulated: 1234,
            simulate_s_per_seed: 1.0,
            per_seed_pairs: vec![617, 617],
            per_seed_analyze_s: vec![0.7, 0.8],
            analyze_s_per_seed: 0.75,
            analyze_s_per_seed_ci95: Some(0.12),
            n_probes: 50_000,
            reports_per_sec: 25_000.0,
            peak_rss_mb: Some(256.0),
            data_mode: "chunked".into(),
            spilled_bytes: 4096,
            client_probe_s: 0.4,
            clients_simulated: 321,
            analyze_s: 1.5,
            analyze_probes_per_sec: 33_333.3,
            stream_analyze_s: Some(0.9),
            stream_send_wait_s: Some(0.05),
            stream_recv_wait_s: Some(0.61),
            chunk_hits: Some(120),
            chunk_decodes: Some(40),
            chunk_evictions: Some(30),
            peak_pinned_bytes: Some(1 << 20),
            window_builds: Some(7),
            n_windows: Some(7),
            over_budget_events: Some(1),
            decode_s: Some(0.08),
            spill_raw_bytes: Some(10_000),
            spill_encoded_bytes: Some(5_500),
            total_s: 3.7,
            figures: BTreeMap::from([("fig4-1".to_string(), 0.25)]),
        };
        let json = t.to_json();
        for key in [
            "scale",
            "seed",
            "threads",
            "effective_threads",
            "generate_s",
            "simulate_s",
            "pairs_simulated",
            "seeds",
            "simulate_s_per_seed",
            "per_seed_pairs",
            "per_seed_analyze_s",
            "n_probes",
            "reports_per_sec",
            "peak_rss_mb",
            "data_mode",
            "spilled_bytes",
            "client_probe_s",
            "clients_simulated",
            "analyze_s",
            "analyze_probes_per_sec",
            "chunk_hits",
            "chunk_decodes",
            "chunk_evictions",
            "peak_pinned_bytes",
            "window_builds",
            "n_windows",
            "over_budget_events",
            "decode_s",
            "spill_raw_bytes",
            "spill_encoded_bytes",
            "analyze_s_per_seed",
            "analyze_s_per_seed_ci95",
            "stream_analyze_s",
            "stream_send_wait_s",
            "stream_recv_wait_s",
            "total_s",
            "figures",
            "fig4-1",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(t.render().contains("8 threads"));
        assert!(t.render().contains("2 seeds fused"));
        assert!(t.render().contains("1.00s/seed"));
        assert!(t.render().contains("analyze 0.75s/seed (±0.12s)"));
        assert!(t.render().contains("1234 pairs"));
        assert!(t.render().contains("321 clients"));
        assert!(t.render().contains("peak RSS 256 MiB"));
        assert!(t.render().contains("120 hits / 40 decodes / 30 evictions"));
        assert!(t.render().contains("5500 / 10000 bytes (0.55x)"));
        assert!(t.render().contains("7 window builds (7 windows)"));
        assert!(t.render().contains("decode 0.08s, 1 over-budget events"));
        for gone in ["window_hits", "window_evictions", "prefetch"] {
            assert!(!json.contains(gone), "{gone} still in {json}");
            assert!(!t.render().contains(gone), "{gone} still rendered");
        }
        assert!(t.render().contains(
            "# streaming: analysis 0.90s (part folds and scoring), simulator blocked on the fold 0.05s, fold idle waiting for parts 0.61s"
        ));
    }

    #[test]
    fn in_memory_counters_serialize_as_null() {
        let t = PhaseTimings {
            scale: "quick".into(),
            seed: 1,
            seeds: 1,
            threads: 0,
            effective_threads: 1,
            generate_s: 0.0,
            simulate_s: 1.0,
            pairs_simulated: 1,
            simulate_s_per_seed: 1.0,
            per_seed_pairs: vec![1],
            per_seed_analyze_s: vec![0.5],
            analyze_s_per_seed: 0.5,
            analyze_s_per_seed_ci95: None,
            n_probes: 1,
            reports_per_sec: 1.0,
            peak_rss_mb: None,
            data_mode: "in-memory".into(),
            spilled_bytes: 0,
            client_probe_s: 0.0,
            clients_simulated: 0,
            analyze_s: 0.5,
            analyze_probes_per_sec: 2.0,
            stream_analyze_s: None,
            stream_send_wait_s: None,
            stream_recv_wait_s: None,
            chunk_hits: None,
            chunk_decodes: None,
            chunk_evictions: None,
            peak_pinned_bytes: None,
            window_builds: None,
            n_windows: None,
            over_budget_events: None,
            decode_s: None,
            spill_raw_bytes: None,
            spill_encoded_bytes: None,
            total_s: 1.5,
            figures: BTreeMap::new(),
        };
        let json = t.to_json();
        // No fabricated zeros: the chunk counters must be null in-memory.
        assert!(
            json.contains("\"chunk_hits\": null") || json.contains("\"chunk_hits\":null"),
            "chunk_hits should be null, got {json}"
        );
        assert!(
            json.contains("\"window_builds\": null") || json.contains("\"window_builds\":null"),
            "window_builds should be null, got {json}"
        );
        for key in ["stream_send_wait_s", "stream_recv_wait_s"] {
            assert!(
                json.contains(&format!("\"{key}\": null")),
                "{key} should be null, got {json}"
            );
        }
        assert!(!t.render().contains("chunk store"));
        assert!(!t.render().contains("# streaming"));
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        // Touch some memory so the high-water mark is nonzero, then read it.
        let v = vec![0u8; 1 << 20];
        std::hint::black_box(&v);
        if cfg!(target_os = "linux") {
            let rss = peak_rss_mb().expect("procfs available on linux");
            assert!(rss > 1.0, "peak RSS {rss} MiB should exceed 1 MiB");
        }
    }
}
