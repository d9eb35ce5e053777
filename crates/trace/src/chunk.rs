//! Out-of-core probe storage: spill-able columnar chunks plus windowed
//! views, so metro-scale ensembles analyze under bounded memory.
//!
//! A [`ChunkedDataset`] holds network metadata, client samples, and the
//! horizons in memory (they are small), while the probe stream — the part
//! that scales with ensemble size — lives in fixed-capacity structure-of-
//! arrays [`ProbeChunk`]s managed by a [`ChunkStore`]. The store keeps at
//! most a configured number of chunks resident; beyond that, least-recently
//! used chunks are encoded to a compact spill file (the probe-record shape
//! of [`crate::codec`], written in columnar batches) and decoded back on
//! demand. When everything fits in the budget no file is ever created —
//! the in-memory fast path.
//!
//! ## Why windowed views are exact
//!
//! `Dataset::probes` is **network-major**: the campaign runner merges
//! per-network streams in network-id order, and within a network probes are
//! `(time, phy, sender, receiver)`-sorted. Every permutation a
//! [`DatasetIndex`] builds is a *stable* sort of that order on keys that
//! lead with (phy, network…), so for any PHY the global iteration order is
//! the concatenation, in network-id order, of each network's own iteration.
//! A *window* — a run of consecutive networks materialized as a mini
//! dataset with its own index — therefore reproduces the corresponding
//! segment of every global traversal exactly, including float-accumulation
//! order. Walking [`ChunkedDataset::window`] in index order therefore
//! concatenates to the whole-dataset walk (pinned by this module's
//! `source_views_are_equivalent` test).
//!
//! ## Concurrency
//!
//! The store has one reader: pass B replays it network by network through
//! [`ChunkedDataset::window_dataset`], in order, on the thread that built
//! it. So one mutex guards the slots, the LRU clock and the spill file,
//! and a read holds it through the `pread` and the decode. The store stays
//! `Sync`, so concurrent readers are still correct; they take turns.
//!
//! [`ChunkStore::chunk`] returns a [`ChunkHandle`] that shares the decoded
//! columns through an `Arc`. Eviction drops only the store's reference, so
//! it never waits on a reader and the store never runs over its budget: a
//! handle keeps its chunk's bytes alive until it drops.

use std::io;
#[cfg(not(unix))]
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::client::ClientSample;
use crate::codec::{
    checksum64, get_f64_col, get_u32_col, get_u8_col, get_varint, phy_from_tag, phy_tag,
    put_f64_col, put_u32_col, put_u8_col, put_varint,
};
use crate::dataset::{Dataset, NetworkMeta};
use crate::ids::{ApId, NetworkId};
use crate::index::{DatasetIndex, DatasetView};
use crate::probe::{Probe, ProbeTable, RateObs};

/// Sizing of a [`ChunkStore`] and its analysis windows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkConfig {
    /// Probes per chunk (the spill/readback granule).
    pub chunk_capacity: usize,
    /// Maximum chunks resident at once — the memory budget. At least 2
    /// (one being filled, one being read).
    pub resident_chunks: usize,
    /// Directory for the spill file; the system temp dir when `None`.
    pub spill_dir: Option<PathBuf>,
    /// Target probes per analysis window (a window always holds at least
    /// one whole network, so a single huge network may exceed it).
    pub window_probes: usize,
}

impl Default for ChunkConfig {
    fn default() -> Self {
        Self {
            chunk_capacity: 65_536,
            resident_chunks: 8,
            spill_dir: None,
            window_probes: 262_144,
        }
    }
}

impl ChunkConfig {
    /// A deliberately tiny configuration that forces many chunks and disk
    /// spill even on quick-scale data — for equivalence tests.
    pub fn tiny() -> Self {
        Self {
            chunk_capacity: 512,
            resident_chunks: 2,
            spill_dir: None,
            window_probes: 2_048,
        }
    }
}

/// Leading magic of a (v2) spill frame; [`ProbeChunk::decode`] rejects a
/// frame that does not open with it.
const MAGIC_V2: u32 = 0xC211_4D31;

/// One fixed-capacity structure-of-arrays batch of probe sets, in stream
/// (dataset) order.
#[derive(Debug, Clone)]
pub struct ProbeChunk {
    networks: Vec<u32>,
    phys: Vec<u8>,
    time_s: Vec<f64>,
    senders: Vec<u32>,
    receivers: Vec<u32>,
    /// Prefix offsets into the observation columns; length `len() + 1`.
    obs_off: Vec<u32>,
    obs_rate_idx: Vec<u8>,
    obs_loss: Vec<f64>,
    obs_snr: Vec<f64>,
}

/// An empty chunk. Not derived: the `obs_off` prefix table must start
/// with its leading 0 even on an empty chunk, or `push`/`encode` build a
/// table one entry short.
impl Default for ProbeChunk {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl ProbeChunk {
    /// An empty chunk with room for `n` probe sets.
    pub fn with_capacity(n: usize) -> Self {
        let mut c = Self {
            networks: Vec::with_capacity(n),
            phys: Vec::with_capacity(n),
            time_s: Vec::with_capacity(n),
            senders: Vec::with_capacity(n),
            receivers: Vec::with_capacity(n),
            obs_off: Vec::with_capacity(n + 1),
            obs_rate_idx: Vec::new(),
            obs_loss: Vec::new(),
            obs_snr: Vec::new(),
        };
        c.obs_off.push(0);
        c
    }

    /// Number of probe sets stored.
    pub fn len(&self) -> usize {
        self.networks.len()
    }

    /// Whether the chunk is empty.
    pub fn is_empty(&self) -> bool {
        self.networks.is_empty()
    }

    /// Appends one probe set.
    pub fn push(&mut self, p: Probe<'_>) {
        self.networks.push(p.network.0);
        self.phys.push(phy_tag(p.phy));
        self.time_s.push(p.time_s);
        self.senders.push(p.sender.0);
        self.receivers.push(p.receiver.0);
        for o in p.obs {
            self.obs_rate_idx.push(o.rate.index() as u8);
            self.obs_loss.push(o.loss);
            self.obs_snr.push(o.snr_db);
        }
        self.obs_off.push(self.obs_rate_idx.len() as u32);
    }

    /// Appends the probe sets at positions `sets` to `out` — an exact
    /// inverse of [`ProbeChunk::push`] (rates round-trip through their PHY
    /// table index, floats through their bits). The sets' observations
    /// are one contiguous run of the columns (the `obs_off` prefix table),
    /// copied into `out`'s arena in one pass.
    pub fn copy_into(&self, sets: std::ops::Range<usize>, out: &mut ProbeTable) {
        let obs = self.obs_off[sets.start] as usize..self.obs_off[sets.end] as usize;
        out.reserve(sets.len(), obs.len());
        for i in sets {
            let phy = phy_from_tag(self.phys[i]).expect("chunk stores valid phy tags");
            let rates = phy.all_rates();
            for k in self.obs_off[i] as usize..self.obs_off[i + 1] as usize {
                out.push_obs(RateObs {
                    rate: rates[self.obs_rate_idx[k] as usize],
                    loss: self.obs_loss[k],
                    snr_db: self.obs_snr[k],
                });
            }
            out.seal(
                NetworkId(self.networks[i]),
                phy,
                self.time_s[i],
                ApId(self.senders[i]),
                ApId(self.receivers[i]),
            );
        }
    }

    /// Approximate heap footprint of the decoded columns, for pinned-byte
    /// accounting.
    pub fn mem_bytes(&self) -> u64 {
        let n = self.len() as u64;
        let m = self.obs_rate_idx.len() as u64;
        // networks/senders/receivers u32, phys u8, time f64, obs_off u32,
        // obs_rate_idx u8, obs_loss/obs_snr f64.
        n * (4 + 4 + 4 + 1 + 8) + (n + 1) * 4 + m * (1 + 8 + 8)
    }

    /// The byte count of this chunk's columns stored raw (fixed-width
    /// little-endian, plus an 8-byte count header) — the uncompressed
    /// reference the spill ratio is measured against
    /// (`spill_encoded_bytes / spill_raw_bytes`).
    pub fn raw_len(&self) -> u64 {
        let n = self.len() as u64;
        let m = self.obs_rate_idx.len() as u64;
        8 + n * 21 + (n + 1) * 4 + m * 17
    }

    /// Encodes the chunk as a v2 frame:
    ///
    /// ```text
    /// magic     u32 le   MAGIC_V2
    /// checksum  u64 le   `codec::checksum64` over everything after this field
    /// n, m      varint   probe / observation counts
    /// 9 columns [tag u8][payload]   networks, phys, time_s, senders,
    ///                               receivers, obs_off, obs_rate_idx,
    ///                               obs_loss, obs_snr
    /// ```
    ///
    /// Each column independently picks the smallest of its candidate
    /// encodings (see `crate::codec`), so the frame adapts to the data:
    /// monotone times delta, id columns bit-pack, quantized loss values
    /// dictionary-encode, continuous SNR stays raw.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&MAGIC_V2.to_le_bytes());
        let cksum_at = buf.len();
        buf.extend_from_slice(&0u64.to_le_bytes());
        let body_at = buf.len();
        put_varint(buf, self.len() as u64);
        put_varint(buf, self.obs_rate_idx.len() as u64);
        put_u32_col(buf, &self.networks);
        put_u8_col(buf, &self.phys);
        put_f64_col(buf, &self.time_s);
        put_u32_col(buf, &self.senders);
        put_u32_col(buf, &self.receivers);
        put_u32_col(buf, &self.obs_off);
        put_u8_col(buf, &self.obs_rate_idx);
        put_f64_col(buf, &self.obs_loss);
        put_f64_col(buf, &self.obs_snr);
        let cksum = checksum64(&buf[body_at..]);
        buf[cksum_at..body_at].copy_from_slice(&cksum.to_le_bytes());
    }

    /// Decodes a frame [`ProbeChunk::encode`] wrote, rejecting a missing
    /// magic, truncation, trailing bytes, and any corruption the frame
    /// checksum catches (all as [`io::ErrorKind::InvalidData`]).
    pub fn decode(buf: &[u8]) -> io::Result<Self> {
        let err =
            |msg: &str| io::Error::new(io::ErrorKind::InvalidData, format!("v2 frame: {msg}"));
        if buf.len() < 12 {
            return Err(err("truncated header"));
        }
        if buf[..4] != MAGIC_V2.to_le_bytes() {
            return Err(err("bad magic"));
        }
        let stored = u64::from_le_bytes(buf[4..12].try_into().expect("12-byte header"));
        let body = &buf[12..];
        if checksum64(body) != stored {
            return Err(err("checksum mismatch (corrupt or torn frame)"));
        }
        let mut r = body;
        let n = usize::try_from(get_varint(&mut r)?).map_err(|_| err("probe count overflow"))?;
        let m = usize::try_from(get_varint(&mut r)?).map_err(|_| err("obs count overflow"))?;
        let mut c = Self::with_capacity(0);
        c.networks = get_u32_col(&mut r, n)?;
        c.phys = get_u8_col(&mut r, n)?;
        c.time_s = get_f64_col(&mut r, n)?;
        c.senders = get_u32_col(&mut r, n)?;
        c.receivers = get_u32_col(&mut r, n)?;
        c.obs_off = get_u32_col(&mut r, n + 1)?;
        c.obs_rate_idx = get_u8_col(&mut r, m)?;
        c.obs_loss = get_f64_col(&mut r, m)?;
        c.obs_snr = get_f64_col(&mut r, m)?;
        if !r.is_empty() {
            return Err(err("trailing bytes"));
        }
        if c.obs_off.first() != Some(&0) || c.obs_off.last() != Some(&(m as u32)) {
            return Err(err("obs_off prefix table malformed"));
        }
        Ok(c)
    }
}

/// One chunk slot: resident, on disk, or both.
#[derive(Debug)]
struct Slot {
    chunk: Option<Arc<ProbeChunk>>,
    /// `(offset, len)` of the encoded chunk in the spill file.
    disk: Option<(u64, u64)>,
    /// LRU tick of the last access (the store's clock).
    last_use: u64,
}

/// The spill file, created by the first eviction and removed when the
/// store drops.
#[derive(Debug, Default)]
struct SpillFile {
    file: Option<std::fs::File>,
    path: Option<PathBuf>,
    end_offset: u64,
    scratch: Vec<u8>,
}

impl SpillFile {
    /// Appends `chunk`'s encoded frame, opening the file in `dir` (the
    /// system temp dir when `None`) on first use. Returns the frame's
    /// `(offset, len)`.
    fn append(&mut self, dir: Option<&PathBuf>, chunk: &ProbeChunk) -> io::Result<(u64, u64)> {
        if self.file.is_none() {
            let dir = dir.cloned().unwrap_or_else(std::env::temp_dir);
            std::fs::create_dir_all(&dir)?;
            let path = dir.join(format!(
                "mesh11-chunks-{}-{}.spill",
                std::process::id(),
                SPILL_SERIAL.fetch_add(1, Ordering::Relaxed)
            ));
            self.file = Some(
                std::fs::OpenOptions::new()
                    .create_new(true)
                    .read(true)
                    .write(true)
                    .open(&path)?,
            );
            self.path = Some(path);
        }
        let file = self.file.as_ref().expect("opened above");
        self.scratch.clear();
        chunk.encode(&mut self.scratch);
        let off = self.end_offset;
        #[cfg(unix)]
        std::os::unix::fs::FileExt::write_all_at(file, &self.scratch, off)?;
        #[cfg(not(unix))]
        {
            let mut file = file;
            file.seek(SeekFrom::Start(off))?;
            file.write_all(&self.scratch)?;
        }
        let len = self.scratch.len() as u64;
        self.end_offset += len;
        Ok((off, len))
    }

    /// Reads back the frame at `(off, len)`.
    fn read(&self, off: u64, len: u64) -> io::Result<Vec<u8>> {
        let file = self
            .file
            .as_ref()
            .expect("spilled chunk without a spill file");
        let mut raw = vec![0u8; len as usize];
        #[cfg(unix)]
        std::os::unix::fs::FileExt::read_exact_at(file, &mut raw, off)?;
        #[cfg(not(unix))]
        {
            let mut file = file;
            file.seek(SeekFrom::Start(off))?;
            file.read_exact(&mut raw)?;
        }
        Ok(raw)
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        self.file = None;
        if let Some(p) = &self.path {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// Everything behind the store's one lock.
#[derive(Debug, Default)]
struct StoreState {
    slots: Vec<Slot>,
    /// The LRU clock: one tick per insert or read.
    clock: u64,
    resident: usize,
    file: SpillFile,
    stats: ChunkStoreStats,
}

impl StoreState {
    /// Next LRU tick.
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

/// Bytes held live by [`ChunkHandle`]s, now and at peak. Atomic, because
/// a handle drops without the store's lock.
#[derive(Debug, Default)]
struct Pins {
    live: AtomicU64,
    peak: AtomicU64,
}

/// A snapshot of the store's observability counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkStoreStats {
    /// `chunk()` calls served from a resident chunk.
    pub chunk_hits: u64,
    /// `chunk()` calls that had to decode from the spill file (misses).
    pub chunk_decodes: u64,
    /// Chunks evicted from the resident set.
    pub chunk_evictions: u64,
    /// High-water mark of bytes held live by [`ChunkHandle`]s.
    pub peak_pinned_bytes: u64,
    /// Always 0: windows are not memoized. `perfbench/layers` still reads
    /// it; it goes when the chunk store does.
    pub window_hits: u64,
    /// Windows materialized (chunk-span decode + index build).
    pub window_builds: u64,
    /// Always 0: the store reads no chunk ahead. `perfbench/layers` still
    /// reads it; it goes when the chunk store does.
    pub prefetch_hits: u64,
    /// Always 0, as [`ChunkStoreStats::prefetch_hits`].
    pub prefetch_wasted: u64,
    /// Always 0: eviction ignores live handles, so the store never runs
    /// over budget. `perfbench/layers` still reads it; it goes when the
    /// chunk store does.
    pub over_budget_events: u64,
    /// Nanoseconds spent decoding spill frames.
    pub decode_ns: u64,
    /// Uncompressed column bytes ([`ProbeChunk::raw_len`]) of every chunk
    /// ever spilled.
    pub spill_raw_bytes: u64,
    /// Bytes actually written to the spill file; the compression win is
    /// `spill_encoded_bytes / spill_raw_bytes`.
    pub spill_encoded_bytes: u64,
}

/// A decoded chunk. Dereferences to [`ProbeChunk`]. Eviction may drop the
/// store's copy while a handle is live; the handle keeps the columns alive
/// (and counted in [`ChunkStoreStats::peak_pinned_bytes`]) until it drops.
#[derive(Debug)]
pub struct ChunkHandle {
    chunk: Arc<ProbeChunk>,
    bytes: u64,
    pins: Arc<Pins>,
}

impl Deref for ChunkHandle {
    type Target = ProbeChunk;
    fn deref(&self) -> &ProbeChunk {
        &self.chunk
    }
}

impl Drop for ChunkHandle {
    fn drop(&mut self) {
        self.pins.live.fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

/// Distinguishes concurrently running stores' spill files.
static SPILL_SERIAL: AtomicU64 = AtomicU64::new(0);

/// A budget-bounded resident set of [`ProbeChunk`]s with LRU spill to a
/// single on-disk file. Each chunk is written at most once, when it is
/// first evicted; a read re-caches it within the budget.
#[derive(Debug)]
pub struct ChunkStore {
    budget: usize,
    spill_dir: Option<PathBuf>,
    state: Mutex<StoreState>,
    pins: Arc<Pins>,
}

impl ChunkStore {
    /// An empty store keeping at most `resident_chunks` chunks in memory
    /// (floor 2: one being filled, one being read).
    pub fn new(resident_chunks: usize, spill_dir: Option<PathBuf>) -> Self {
        Self {
            budget: resident_chunks.max(2),
            spill_dir,
            state: Mutex::new(StoreState::default()),
            pins: Arc::default(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, StoreState> {
        self.state.lock().expect("chunk store poisoned")
    }

    /// Seals a finished chunk into the store, evicting older chunks past
    /// the resident budget. Returns the chunk's index.
    pub fn insert(&self, chunk: ProbeChunk) -> io::Result<usize> {
        let mut st = self.lock();
        let last_use = st.tick();
        st.slots.push(Slot {
            chunk: Some(Arc::new(chunk)),
            disk: None,
            last_use,
        });
        st.resident += 1;
        self.evict_past_budget(&mut st)?;
        Ok(st.slots.len() - 1)
    }

    /// The chunk at `id`, loading it back from the spill file if evicted.
    ///
    /// # Panics
    /// On spill-file I/O errors: the file is process-local scratch, so a
    /// read failure means the environment lost it out from under us.
    pub fn chunk(&self, id: usize) -> ChunkHandle {
        self.try_chunk(id)
            .expect("chunk spill file unreadable (scratch file lost mid-run?)")
    }

    /// As [`ChunkStore::chunk`], surfacing I/O errors.
    pub fn try_chunk(&self, id: usize) -> io::Result<ChunkHandle> {
        let mut st = self.lock();
        let tick = st.tick();
        let slot = &mut st.slots[id];
        slot.last_use = tick;
        if let Some(c) = slot.chunk.clone() {
            st.stats.chunk_hits += 1;
            return Ok(self.handle(c));
        }
        let (off, len) = slot.disk.expect("chunk neither resident nor spilled");
        let raw = st.file.read(off, len)?;
        let t = Instant::now();
        let chunk = Arc::new(ProbeChunk::decode(&raw)?);
        st.stats.decode_ns += t.elapsed().as_nanos() as u64;
        st.stats.chunk_decodes += 1;
        st.slots[id].chunk = Some(Arc::clone(&chunk));
        st.resident += 1;
        // The chunk just read holds the newest tick, so it is never the
        // victim.
        self.evict_past_budget(&mut st)?;
        Ok(self.handle(chunk))
    }

    fn handle(&self, chunk: Arc<ProbeChunk>) -> ChunkHandle {
        let bytes = chunk.mem_bytes();
        let live = self.pins.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.pins.peak.fetch_max(live, Ordering::Relaxed);
        ChunkHandle {
            chunk,
            bytes,
            pins: Arc::clone(&self.pins),
        }
    }

    /// Evicts least-recently-used resident chunks until within budget,
    /// spilling any that have never been written.
    fn evict_past_budget(&self, st: &mut StoreState) -> io::Result<()> {
        while st.resident > self.budget {
            let victim = (st.slots.iter_mut())
                .filter(|s| s.chunk.is_some())
                .min_by_key(|s| s.last_use)
                .expect("over budget, so a chunk is resident");
            let chunk = victim.chunk.as_ref().expect("victim is resident");
            if victim.disk.is_none() {
                let (off, len) = st.file.append(self.spill_dir.as_ref(), chunk)?;
                st.stats.spill_raw_bytes += chunk.raw_len();
                st.stats.spill_encoded_bytes += len;
                victim.disk = Some((off, len));
            }
            victim.chunk = None;
            st.resident -= 1;
            st.stats.chunk_evictions += 1;
        }
        Ok(())
    }

    /// Number of chunks in the store (resident or spilled).
    pub fn n_chunks(&self) -> usize {
        self.lock().slots.len()
    }

    /// Number of chunks currently resident.
    pub fn resident_chunks(&self) -> usize {
        self.lock().resident
    }

    /// Total bytes ever written to the spill file (0 when everything fit
    /// in the resident budget — the in-memory fast path).
    pub fn spilled_bytes(&self) -> u64 {
        self.lock().stats.spill_encoded_bytes
    }

    /// A snapshot of the observability counters.
    pub fn stats(&self) -> ChunkStoreStats {
        ChunkStoreStats {
            peak_pinned_bytes: self.pins.peak.load(Ordering::Relaxed),
            ..self.lock().stats
        }
    }
}

/// Streams per-network datasets (in network-id order) into a
/// [`ChunkedDataset`].
pub struct ChunkedDatasetBuilder {
    cfg: ChunkConfig,
    shell: Dataset,
    net_probe_off: Vec<u64>,
    store: ChunkStore,
    current: ProbeChunk,
}

impl ChunkedDatasetBuilder {
    /// An empty builder, its store sized by `cfg`.
    pub fn new(cfg: ChunkConfig) -> Self {
        let store = ChunkStore::new(cfg.resident_chunks, cfg.spill_dir.clone());
        let current = ProbeChunk::with_capacity(cfg.chunk_capacity);
        Self {
            cfg,
            shell: Dataset::default(),
            net_probe_off: vec![0],
            store,
            current,
        }
    }

    /// Absorbs one or more networks' worth of dataset, in network-id order
    /// continuing the stream. Probes enter the chunk sequence; metadata and
    /// clients stay in the in-memory shell.
    ///
    /// `part.probes` must be network-major: one contiguous run per network,
    /// runs in `part.networks` order. A part that breaks this (interleaved
    /// networks, or a probe of a network the part does not list) is
    /// rejected with [`io::ErrorKind::InvalidInput`] before anything is
    /// absorbed, because its per-network offsets would point pass B at the
    /// wrong rows.
    pub fn add(&mut self, part: Dataset) -> io::Result<()> {
        let counts = network_runs(&part).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "part's probe sets are not contiguous runs of its networks, in order",
            )
        })?;
        for p in &part.probes {
            self.current.push(p);
            if self.current.len() >= self.cfg.chunk_capacity {
                let full = std::mem::replace(
                    &mut self.current,
                    ProbeChunk::with_capacity(self.cfg.chunk_capacity),
                );
                self.store.insert(full)?;
            }
        }
        let mut prev = self.shell.networks.last().map(|m| m.id);
        for (m, n) in part.networks.iter().zip(&counts) {
            assert!(
                prev.is_none_or(|prev| prev.0 < m.id.0),
                "networks must stream in ascending id order"
            );
            prev = Some(m.id);
            let last = *self.net_probe_off.last().expect("seeded with 0");
            self.net_probe_off.push(last + n);
        }
        self.shell.networks.extend(part.networks);
        self.shell.clients.extend(part.clients);
        self.shell.probe_horizon_s = self.shell.probe_horizon_s.max(part.probe_horizon_s);
        self.shell.client_horizon_s = self.shell.client_horizon_s.max(part.client_horizon_s);
        Ok(())
    }

    /// Seals the final chunk.
    pub fn finish(mut self) -> io::Result<ChunkedDataset> {
        if !self.current.is_empty() {
            let last = std::mem::take(&mut self.current);
            self.store.insert(last)?;
        }
        let windows = compute_windows(&self.net_probe_off, self.cfg.window_probes.max(1));
        Ok(ChunkedDataset {
            shell: self.shell,
            chunk_capacity: self.cfg.chunk_capacity,
            net_probe_off: self.net_probe_off,
            store: self.store,
            windows,
        })
    }
}

/// Each listed network's probe count, walking `part.probes` as one run per
/// network in `part.networks` order (a network may have an empty run).
/// `None` when a probe set falls outside that order: its network comes
/// later than a run already closed, or the part does not list it.
fn network_runs(part: &Dataset) -> Option<Vec<u64>> {
    let mut counts = vec![0u64; part.networks.len()];
    let mut k = 0;
    for p in part.probes.rows() {
        while part.networks.get(k)?.id != p.network {
            k += 1;
        }
        counts[k] += 1;
    }
    Some(counts)
}

/// Splits the network sequence into consecutive runs of ≈`window_probes`
/// probes each (always at least one whole network per window).
fn compute_windows(net_probe_off: &[u64], window_probes: usize) -> Vec<std::ops::Range<usize>> {
    let n = net_probe_off.len() - 1;
    let mut out = Vec::new();
    let mut start = 0;
    while start < n {
        let mut end = start + 1;
        while end < n && (net_probe_off[end + 1] - net_probe_off[start]) <= window_probes as u64 {
            end += 1;
        }
        out.push(start..end);
        start = end;
    }
    out
}

/// One materialized analysis window: a mini dataset of consecutive
/// networks plus its index.
pub struct WindowData {
    ds: Dataset,
    ix: DatasetIndex,
}

impl WindowData {
    /// The window's indexed view.
    pub fn view(&self) -> DatasetView<'_> {
        DatasetView::new(&self.ds, &self.ix)
    }

    /// The window's mini dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.ds
    }
}

/// An out-of-core dataset: in-memory metadata and clients, chunked probes.
pub struct ChunkedDataset {
    /// Metadata + clients + horizons; `probes` is empty.
    shell: Dataset,
    chunk_capacity: usize,
    /// Per-network prefix offsets into the global probe stream; length
    /// `networks + 1`.
    net_probe_off: Vec<u64>,
    store: ChunkStore,
    /// The analysis windows (consecutive-network ranges), fixed at build.
    windows: Vec<std::ops::Range<usize>>,
}

impl ChunkedDataset {
    /// Chunks an already-materialized dataset (tests and ad-hoc use; the
    /// metro path streams through [`ChunkedDatasetBuilder`] instead).
    pub fn from_dataset(ds: &Dataset, cfg: ChunkConfig) -> io::Result<Self> {
        let mut b = ChunkedDatasetBuilder::new(cfg);
        for m in &ds.networks {
            let part = Dataset {
                networks: vec![m.clone()],
                probes: ds.probes_for_network(m.id).collect(),
                clients: ds.clients_for_network(m.id).cloned().collect(),
                probe_horizon_s: ds.probe_horizon_s,
                client_horizon_s: ds.client_horizon_s,
            };
            b.add(part)?;
        }
        b.finish()
    }

    /// Per-network metadata, in id order.
    pub fn networks(&self) -> &[NetworkMeta] {
        &self.shell.networks
    }

    /// Client samples (kept fully in memory — they are driven by user
    /// behaviour, not by ensemble scale, and §7 needs them whole).
    pub fn clients(&self) -> &[ClientSample] {
        &self.shell.clients
    }

    /// The in-memory shell: metadata, clients, and horizons with an empty
    /// probe vector. Client-side analyses (§7) run on it directly.
    pub fn shell(&self) -> &Dataset {
        &self.shell
    }

    /// Total probe sets across all chunks.
    pub fn n_probes(&self) -> u64 {
        *self.net_probe_off.last().expect("seeded with 0")
    }

    /// Probe-trace horizon (seconds).
    pub fn probe_horizon_s(&self) -> f64 {
        self.shell.probe_horizon_s
    }

    /// Client-trace horizon (seconds).
    pub fn client_horizon_s(&self) -> f64 {
        self.shell.client_horizon_s
    }

    /// Total AP count across networks.
    pub fn total_aps(&self) -> usize {
        self.shell.total_aps()
    }

    /// Bytes written to the spill file (0 = everything stayed resident).
    pub fn spilled_bytes(&self) -> u64 {
        self.store.spilled_bytes()
    }

    /// Chunks currently resident.
    pub fn resident_chunks(&self) -> usize {
        self.store.resident_chunks()
    }

    /// The analysis windows: consecutive-network ranges (indices into
    /// [`ChunkedDataset::networks`]) sized to ≈`window_probes` probes each.
    /// Every network appears in exactly one window.
    pub fn windows(&self) -> Vec<std::ops::Range<usize>> {
        self.windows.clone()
    }

    /// Number of analysis windows.
    pub fn n_windows(&self) -> usize {
        self.windows.len()
    }

    /// Materializes window `w` with its own index. Each call builds it
    /// afresh (counted in `window_builds`). Walking the windows in index
    /// order concatenates to the whole-dataset walk (see the module doc).
    pub fn window(&self, w: usize) -> WindowData {
        let ds = self.window_dataset(self.windows[w].clone());
        let ix = DatasetIndex::build(&ds);
        self.store.lock().stats.window_builds += 1;
        WindowData { ds, ix }
    }

    /// The store's observability counters.
    pub fn stats(&self) -> ChunkStoreStats {
        self.store.stats()
    }

    /// Materializes one window of consecutive networks as a mini dataset:
    /// their metadata and their probes (reconstructed from the chunk
    /// sequence, in stream order), with no clients. Pass B replays the
    /// store through it one network at a time; not counted in
    /// `window_builds`.
    pub fn window_dataset(&self, nets: std::ops::Range<usize>) -> Dataset {
        let p0 = self.net_probe_off[nets.start] as usize;
        let p1 = self.net_probe_off[nets.end] as usize;
        let mut probes = ProbeTable::new();
        if p1 > p0 {
            let cap = self.chunk_capacity;
            for ci in (p0 / cap)..=((p1 - 1) / cap) {
                let chunk = self.store.chunk(ci);
                let lo = p0.saturating_sub(ci * cap);
                let hi = (p1 - ci * cap).min(chunk.len());
                chunk.copy_into(lo..hi, &mut probes);
            }
        }
        Dataset {
            networks: self.shell.networks[nets].to_vec(),
            probes,
            clients: Vec::new(),
            probe_horizon_s: self.shell.probe_horizon_s,
            client_horizon_s: self.shell.client_horizon_s,
        }
    }

    /// Drops the store, and with it the spill file, keeping the shell.
    pub fn into_shell(self) -> Dataset {
        self.shell
    }
}

impl std::fmt::Debug for ChunkedDataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkedDataset")
            .field("networks", &self.shell.networks.len())
            .field("n_probes", &self.n_probes())
            .field("chunks", &self.store.n_chunks())
            .field("resident", &self.store.resident_chunks())
            .field("spilled_bytes", &self.store.spilled_bytes())
            .finish()
    }
}

/// The probes a finished fused pass scores its penalties against (pass B
/// of `FusedRunner::finish` in `mesh11-bench`): one whole indexed view, or
/// a chunked dataset replayed one network at a time, each network a view
/// of its own.
pub enum ProbeSource<'a> {
    /// Every probe resident, as one indexed view.
    Whole(DatasetView<'a>),
    /// The out-of-core store.
    Chunked(&'a ChunkedDataset),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::EnvLabel;
    use mesh11_phy::{BitRate, Phy};

    /// Appends one two-rate b/g probe set to `out`.
    fn push_probe(out: &mut ProbeTable, net: u32, s: u32, r: u32, t: f64, loss: f64) {
        out.push(Probe {
            network: NetworkId(net),
            phy: Phy::Bg,
            time_s: t,
            sender: ApId(s),
            receiver: ApId(r),
            obs: &[
                RateObs {
                    rate: BitRate::bg_mbps(11.0).unwrap(),
                    loss,
                    snr_db: 18.5,
                },
                RateObs {
                    rate: BitRate::bg_mbps(1.0).unwrap(),
                    loss: loss * 0.5,
                    snr_db: 20.25,
                },
            ],
        });
    }

    /// Every probe set of a chunk, in order.
    fn all(c: &ProbeChunk) -> ProbeTable {
        let mut t = ProbeTable::new();
        c.copy_into(0..c.len(), &mut t);
        t
    }

    /// A dataset with enough probes to span several tiny chunks.
    fn big_dataset() -> Dataset {
        dataset(false)
    }

    /// `big_dataset` plus one HT probe set per report time in the odd
    /// networks, so windows carry both PHYs.
    fn two_phy_dataset() -> Dataset {
        dataset(true)
    }

    fn dataset(with_ht: bool) -> Dataset {
        let mut probes = ProbeTable::new();
        let mut networks = Vec::new();
        for net in 0..5u32 {
            let ht = with_ht && net % 2 == 1;
            networks.push(NetworkMeta {
                id: NetworkId(net),
                env: if net % 2 == 0 {
                    EnvLabel::Indoor
                } else {
                    EnvLabel::Outdoor
                },
                n_aps: 3,
                radios: if ht {
                    vec![Phy::Bg, Phy::Ht]
                } else {
                    vec![Phy::Bg]
                },
                location: format!("Net {net}"),
            });
            for t in 0..40 {
                let time_s = 300.0 * (t + 1) as f64;
                for (s, r) in [(0u32, 1u32), (1, 0), (0, 2)] {
                    push_probe(&mut probes, net, s, r, time_s, 0.1);
                }
                if ht {
                    probes.push(Probe {
                        network: NetworkId(net),
                        phy: Phy::Ht,
                        time_s,
                        sender: ApId(1),
                        receiver: ApId(2),
                        obs: &[RateObs {
                            rate: BitRate::ht_mcs(3, false).unwrap(),
                            loss: 0.3,
                            snr_db: 21.75,
                        }],
                    });
                }
            }
        }
        Dataset {
            networks,
            probes,
            clients: Vec::new(),
            probe_horizon_s: 12_000.0,
            client_horizon_s: 0.0,
        }
    }

    fn tiny_cfg() -> ChunkConfig {
        ChunkConfig {
            chunk_capacity: 16,
            window_probes: 50,
            ..ChunkConfig::tiny()
        }
    }

    #[test]
    fn chunk_round_trips_probes() {
        let ds = big_dataset();
        let mut c = ProbeChunk::with_capacity(ds.probes.len());
        for p in &ds.probes {
            c.push(p);
        }
        assert_eq!(c.len(), ds.probes.len());
        assert_eq!(all(&c), ds.probes);
        let mut raw = Vec::new();
        c.encode(&mut raw);
        let back = ProbeChunk::decode(&raw).unwrap();
        assert_eq!(all(&back), ds.probes);
    }

    #[test]
    fn v2_frame_is_smaller_than_raw_columns() {
        let ds = big_dataset();
        let mut c = ProbeChunk::with_capacity(ds.probes.len());
        for p in &ds.probes {
            c.push(p);
        }
        let mut v2 = Vec::new();
        c.encode(&mut v2);
        assert!(
            (v2.len() as f64) <= 0.7 * c.raw_len() as f64,
            "v2 {} vs raw {} bytes",
            v2.len(),
            c.raw_len()
        );
    }

    #[test]
    fn empty_and_single_probe_chunks_round_trip() {
        let mut one = ProbeTable::new();
        push_probe(&mut one, 7, 2, 3, 1234.5, 0.25);
        for n in [0usize, 1] {
            let mut c = ProbeChunk::with_capacity(n);
            if n == 1 {
                c.push(one.get(0));
            }
            let mut raw = Vec::new();
            c.encode(&mut raw);
            let back = ProbeChunk::decode(&raw).unwrap();
            assert_eq!(back.len(), n);
            assert_eq!(all(&back), all(&c));
        }
    }

    #[test]
    fn chunk_decode_rejects_truncation() {
        let mut one = ProbeTable::new();
        push_probe(&mut one, 0, 0, 1, 300.0, 0.2);
        let mut c = ProbeChunk::with_capacity(4);
        c.push(one.get(0));
        let mut raw = Vec::new();
        c.encode(&mut raw);
        for cut in 0..raw.len() {
            assert!(ProbeChunk::decode(&raw[..cut]).is_err(), "prefix {cut}");
        }
    }

    #[test]
    fn v2_decode_rejects_every_single_byte_flip() {
        let ds = big_dataset();
        let mut c = ProbeChunk::with_capacity(64);
        for p in ds.probes.iter().take(64) {
            c.push(p);
        }
        let mut raw = Vec::new();
        c.encode(&mut raw);
        assert!(ProbeChunk::decode(&raw).is_ok());
        for i in 0..raw.len() {
            let mut bad = raw.clone();
            bad[i] ^= 0x01;
            // A flip in the magic fails the magic check; a flip anywhere
            // else fails the checksum.
            let err = ProbeChunk::decode(&bad).expect_err("flipped frame accepted");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "flip at byte {i}");
        }
    }

    #[test]
    fn store_spills_and_reloads_losslessly() {
        let ds = big_dataset();
        let chunked = ChunkedDataset::from_dataset(&ds, tiny_cfg()).unwrap();
        assert_eq!(chunked.n_probes(), ds.probes.len() as u64);
        assert!(
            chunked.spilled_bytes() > 0,
            "600 probes over 16-probe chunks with budget 2 must spill"
        );
        assert!(chunked.resident_chunks() <= 2);
        // Reconstructed windows concatenate back to the exact probe stream.
        let mut got = ProbeTable::new();
        for w in chunked.windows() {
            got.append(chunked.window_dataset(w).probes);
        }
        assert_eq!(got, ds.probes);
        assert!(chunked.resident_chunks() <= 2, "reads stay within budget");
    }

    #[test]
    fn in_memory_fast_path_never_touches_disk() {
        let ds = big_dataset();
        let cfg = ChunkConfig {
            chunk_capacity: 1 << 16,
            resident_chunks: 8,
            ..ChunkConfig::default()
        };
        let chunked = ChunkedDataset::from_dataset(&ds, cfg).unwrap();
        assert_eq!(chunked.spilled_bytes(), 0, "fits in budget: no spill file");
        let mut got = ProbeTable::new();
        for w in chunked.windows() {
            got.append(chunked.window_dataset(w).probes);
        }
        assert_eq!(got, ds.probes);
    }

    #[test]
    fn windows_cover_every_network_once() {
        let ds = big_dataset();
        let chunked = ChunkedDataset::from_dataset(&ds, tiny_cfg()).unwrap();
        let ws = chunked.windows();
        assert!(ws.len() > 1, "tiny window budget must split the ensemble");
        let mut covered = Vec::new();
        for w in &ws {
            covered.extend(w.clone());
        }
        assert_eq!(covered, (0..ds.networks.len()).collect::<Vec<_>>());
    }

    #[test]
    fn builder_counts_network_runs_and_rejects_interleaved_parts() {
        let ds = big_dataset();
        let part = |nets: std::ops::Range<usize>, probes: ProbeTable| Dataset {
            networks: ds.networks[nets].to_vec(),
            probes,
            ..Dataset::default()
        };
        let rows = |ids: &[u32]| -> ProbeTable {
            ds.probes
                .iter()
                .filter(|p| ids.contains(&p.network.0))
                .collect()
        };
        let mut b = ChunkedDatasetBuilder::new(tiny_cfg());
        // Networks 0 and 1 in one part, network 1 listed with a probe of
        // network 0 after it: the run of network 0 was already closed.
        let mut interleaved = rows(&[0, 1]);
        interleaved.push(ds.probes.iter().next().expect("probes"));
        let err = b.add(part(0..2, interleaved)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // A probe of a network the part does not list.
        let err = b.add(part(0..1, rows(&[0, 1]))).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // The rejected parts left nothing behind: the network-major parts
        // below (network 3 listed with an empty run) build exactly the
        // dataset's per-network walk.
        b.add(part(0..2, rows(&[0, 1]))).unwrap();
        b.add(part(2..4, rows(&[2]))).unwrap();
        b.add(part(4..5, rows(&[4]))).unwrap();
        let chunked = b.finish().unwrap();
        assert_eq!(
            chunked.n_probes() as usize,
            ds.probes.len() - rows(&[3]).len()
        );
        // Network 3's empty run replays as nothing.
        for net in 0..5u32 {
            let walked = chunked
                .window_dataset(net as usize..net as usize + 1)
                .probes;
            let want = if net == 3 {
                ProbeTable::new()
            } else {
                rows(&[net])
            };
            assert_eq!(walked, want, "network {net}");
        }
    }

    #[test]
    fn source_views_are_equivalent() {
        let ds = big_dataset();
        let ix = DatasetIndex::build(&ds);
        let whole = DatasetView::new(&ds, &ix);
        let chunked = ChunkedDataset::from_dataset(&ds, tiny_cfg()).unwrap();
        assert!(chunked.n_windows() > 1);

        // The windowed per-PHY walk concatenates to the whole walk, and
        // each window's delivery matrices equal the whole view's.
        let rate = BitRate::bg_mbps(11.0).unwrap();
        let mut windowed = Vec::new();
        for (w, nets) in chunked.windows().into_iter().enumerate() {
            let win = chunked.window(w);
            let v = win.view();
            windowed.extend(v.probes_for_phy(Phy::Bg).map(|p| (p.network.0, p.time_s)));
            for m in &ds.networks[nets] {
                assert_eq!(
                    v.delivery_matrix(Phy::Bg, m.id, rate, m.n_aps),
                    whole.delivery_matrix(Phy::Bg, m.id, rate, m.n_aps),
                );
            }
        }
        let walk: Vec<(u32, f64)> = whole
            .probes_for_phy(Phy::Bg)
            .map(|p| (p.network.0, p.time_s))
            .collect();
        assert_eq!(windowed, walk);
    }

    /// A store of `n` single-probe chunks with the given budget.
    fn store_with_chunks(n: usize, budget: usize) -> ChunkStore {
        let store = ChunkStore::new(budget, None);
        for i in 0..n {
            let mut one = ProbeTable::new();
            push_probe(&mut one, i as u32, 0, 1, 300.0 * (i + 1) as f64, 0.1);
            let mut c = ProbeChunk::with_capacity(1);
            c.push(one.get(0));
            store.insert(c).unwrap();
        }
        store
    }

    #[test]
    fn concurrent_readers_round_trip_distinct_chunks() {
        let store = store_with_chunks(8, 2);
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let store = &store;
                scope.spawn(move || {
                    for round in 0..50 {
                        let id = (t * 3 + round * 7) % 8;
                        let h = store.chunk(id);
                        assert_eq!(all(&h)[0].network, NetworkId(id as u32));
                    }
                });
            }
        });
        let s = store.stats();
        assert!(s.chunk_decodes > 0, "budget 2 over 8 chunks must fault");
        assert!(s.peak_pinned_bytes > 0);
        assert_eq!(store.pins.live.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn window_walk_concatenates_to_the_dataset() {
        let ds = two_phy_dataset();
        let ix = DatasetIndex::build(&ds);
        let whole = DatasetView::new(&ds, &ix);
        let chunked = ChunkedDataset::from_dataset(&ds, tiny_cfg()).unwrap();
        let n = chunked.n_windows();
        assert!(n > 1);
        for walk in 1..=2u64 {
            let mut got = ProbeTable::new();
            let mut by_phy = [ProbeTable::new(), ProbeTable::new()];
            for w in 0..n {
                let win = chunked.window(w);
                got.extend(&win.dataset().probes);
                for (k, phy) in [Phy::Bg, Phy::Ht].into_iter().enumerate() {
                    win.view()
                        .probes_for_phy(phy)
                        .for_each(|p| by_phy[k].push(p));
                }
            }
            assert_eq!(got, ds.probes, "windows concatenate to the dataset");
            for (k, phy) in [Phy::Bg, Phy::Ht].into_iter().enumerate() {
                let want: ProbeTable = whole.probes_for_phy(phy).collect();
                assert!(!want.is_empty(), "{phy:?} has probes");
                assert_eq!(by_phy[k], want, "{phy:?} walk");
            }
            // No memo: every request is a fresh build.
            assert_eq!(chunked.stats().window_builds, walk * n as u64);
            assert_eq!(chunked.stats().window_hits, 0);
        }
    }

    #[test]
    fn spill_file_is_removed_on_drop() {
        let dir =
            std::env::temp_dir().join(format!("mesh11-chunk-drop-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = ChunkConfig {
            spill_dir: Some(dir.clone()),
            ..tiny_cfg()
        };
        let ds = big_dataset();
        let chunked = ChunkedDataset::from_dataset(&ds, cfg).unwrap();
        assert!(chunked.spilled_bytes() > 0);
        let files = || {
            std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().contains("chunks"))
                .count()
        };
        assert_eq!(files(), 1);
        drop(chunked);
        assert_eq!(files(), 0, "spill file cleaned up");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spill_accounts_raw_and_encoded_bytes() {
        let ds = big_dataset();
        let chunked = ChunkedDataset::from_dataset(&ds, tiny_cfg()).unwrap();
        let s = chunked.stats();
        assert!(s.spill_raw_bytes > 0, "tiny budget must spill");
        assert!(
            s.spill_encoded_bytes as f64 <= 0.7 * s.spill_raw_bytes as f64,
            "{} encoded vs {} raw",
            s.spill_encoded_bytes,
            s.spill_raw_bytes
        );
    }
}
