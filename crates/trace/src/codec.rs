//! Compact binary dataset codec: M11T version 2.
//!
//! JSON (see [`crate::dataset::Dataset::save_json`]) is the interchange
//! format; this codec is the fast path for large campaign exports — a probe
//! set costs ~25 bytes plus 17 per rate observation, roughly 10× smaller
//! than JSON and with no parsing ambiguity.
//!
//! A file is a run of checksummed sections and a trailing table of
//! contents (TOC), so a reader decodes only the sections it needs
//! ([`load_sections`]), probe sections in parallel, each into its own rows
//! of one preallocated [`ProbeTable`]; or streams them in parts of whole
//! networks ([`PartReader`]), so it never holds the whole table:
//!
//! ```text
//! header   magic u32 "M11T" (0x4D313154), version u16 2
//! meta     network count u32, networks, probe horizon f64, client horizon f64
//! probes   probe-set records of one network and one PHY, in row order;
//!          a section ends where the (network, PHY) run ends or before a
//!          record would take it past SECTION_CAP (4 MiB)
//! clients  client-sample records, also cut at SECTION_CAP
//! TOC      one 50-byte entry per section, in file order: kind u8,
//!          phy u8 (0xFF off probe sections), lowest network u32,
//!          highest network u32, offset u64, length u64, records u64,
//!          observations u64, checksum u64
//! trailer  section count u32, TOC checksum u64, magic u32
//!
//! network  id u32, env u8, n_aps u32, radio count u8, radio tags u8,
//!          location length u16, location bytes (UTF-8)
//! probe    network u32, phy u8, time f64, sender u32, receiver u32,
//!          n_obs u8, then n_obs × (rate index u8, loss f64, snr f64)
//! client   network u32, ap u32, client u32, bin start f64,
//!          assoc requests u32, data packets u32
//! ```
//!
//! Everything is little-endian. The sections are contiguous: the meta
//! section starts after the header, every section starts where the one
//! before it ends, and the last ends where the TOC begins. Every byte after
//! the header is therefore under a [`checksum64`]: a section's bytes under
//! its TOC entry's, the TOC and section count under the trailer's.
//! Concatenating the probe sections in file order gives the dataset's rows
//! in order.
//!
//! The reader checks the TOC before it reads a section, each section's
//! checksum before it parses it, and every record against its entry: the
//! network and PHY, the counts, and the record check every decoder applies
//! (`Probe::record_error`). Every failure is [`io::ErrorKind::InvalidData`]
//! naming where it was found: the header, the table of contents, or the
//! section by index and kind.

use bytes::{BufMut, Bytes, BytesMut};
use mesh11_phy::Phy;
use rayon::prelude::*;
use std::cell::RefCell;
use std::fmt;
use std::io;
use std::path::Path;

use crate::client::ClientSample;
use crate::dataset::{Dataset, NetworkMeta};
use crate::ids::{ApId, ClientId, EnvLabel, NetworkId};
use crate::probe::{Probe, ProbeSet, ProbeTable, RateObs};

const MAGIC: u32 = 0x4D31_3154;
const VERSION: u16 = 2;
const HEADER_LEN: usize = 6;
const ENTRY_LEN: usize = 50;
const TRAILER_LEN: usize = 16;
/// The PHY byte of a TOC entry that is not a probe section.
const NO_PHY: u8 = 0xFF;
/// Fixed part of a probe-set record; each observation adds `OBS_LEN`.
const PROBE_LEN: usize = 22;
const OBS_LEN: usize = 17;
const CLIENT_LEN: usize = 28;
/// Least bytes a network record takes (no radios, empty location).
const NETWORK_MIN_LEN: usize = 12;

/// Probe and client sections are cut before a record would take them past
/// this many bytes, so a reader's per-thread window stays this small and a
/// long (network, PHY) run still splits into parts to decode in parallel.
const SECTION_CAP: usize = 4 << 20;

pub(crate) fn phy_tag(phy: Phy) -> u8 {
    match phy {
        Phy::Bg => 0,
        Phy::Ht => 1,
    }
}

pub(crate) fn phy_from_tag(tag: u8) -> io::Result<Phy> {
    match tag {
        0 => Ok(Phy::Bg),
        1 => Ok(Phy::Ht),
        other => Err(bad(format!("unknown phy tag {other}"))),
    }
}

fn env_tag(env: EnvLabel) -> u8 {
    match env {
        EnvLabel::Indoor => 0,
        EnvLabel::Outdoor => 1,
        EnvLabel::Mixed => 2,
    }
}

fn env_from_tag(tag: u8) -> io::Result<EnvLabel> {
    match tag {
        0 => Ok(EnvLabel::Indoor),
        1 => Ok(EnvLabel::Outdoor),
        2 => Ok(EnvLabel::Mixed),
        other => Err(bad(format!("unknown env tag {other}"))),
    }
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// `err` with `place` in front of its message, kind kept.
fn at(place: impl fmt::Display, err: io::Error) -> io::Error {
    io::Error::new(err.kind(), format!("{place}: {err}"))
}

fn toc_err(msg: String) -> io::Error {
    bad(format!("table of contents: {msg}"))
}

/// What a section holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionKind {
    /// Network metadata and the two horizons.
    Meta,
    /// Probe-set records of one network and one PHY.
    Probes,
    /// Client-sample records.
    Clients,
}

impl SectionKind {
    fn tag(self) -> u8 {
        match self {
            SectionKind::Meta => 0,
            SectionKind::Probes => 1,
            SectionKind::Clients => 2,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(SectionKind::Meta),
            1 => Some(SectionKind::Probes),
            2 => Some(SectionKind::Clients),
            _ => None,
        }
    }

    /// The kind's name, as errors and `mesh11 inspect` print it.
    pub fn name(self) -> &'static str {
        match self {
            SectionKind::Meta => "meta",
            SectionKind::Probes => "probes",
            SectionKind::Clients => "clients",
        }
    }
}

/// One table-of-contents entry: where a section lies and what it holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TocEntry {
    /// What the section holds.
    pub kind: SectionKind,
    /// The PHY of every record of a probe section; `None` for the others.
    pub phy: Option<Phy>,
    /// The lowest and highest network id among the section's records
    /// (both the section's one network for a probe section; `(0, 0)` for
    /// an empty section).
    pub networks: (NetworkId, NetworkId),
    /// Byte offset of the section in the file.
    pub offset: u64,
    /// Length of the section in bytes.
    pub len: u64,
    /// Records held: networks, probe sets or client samples.
    pub records: u64,
    /// Rate observations held (probe sections only).
    pub obs: u64,
    /// [`checksum64`] of the section's bytes.
    pub checksum: u64,
}

impl TocEntry {
    fn put(&self, buf: &mut impl BufMut) {
        buf.put_u8(self.kind.tag());
        buf.put_u8(self.phy.map_or(NO_PHY, phy_tag));
        buf.put_u32_le(self.networks.0 .0);
        buf.put_u32_le(self.networks.1 .0);
        buf.put_u64_le(self.offset);
        buf.put_u64_le(self.len);
        buf.put_u64_le(self.records);
        buf.put_u64_le(self.obs);
        buf.put_u64_le(self.checksum);
    }

    /// Parses one entry and checks it on its own: a known kind, a PHY
    /// exactly on probe sections, one network per probe section, and a
    /// length the counts account for.
    fn parse(r: &[u8; ENTRY_LEN]) -> io::Result<Self> {
        let kind =
            SectionKind::from_tag(r[0]).ok_or_else(|| bad(format!("unknown kind {}", r[0])))?;
        let phy = match (kind, r[1]) {
            (SectionKind::Probes, tag) => Some(phy_from_tag(tag)?),
            (_, NO_PHY) => None,
            (_, tag) => return Err(bad(format!("phy tag {tag} on a {} section", kind.name()))),
        };
        let e = TocEntry {
            kind,
            phy,
            networks: (NetworkId(u32_at(r, 2)), NetworkId(u32_at(r, 6))),
            offset: u64_at(r, 10),
            len: u64_at(r, 18),
            records: u64_at(r, 26),
            obs: u64_at(r, 34),
            checksum: u64_at(r, 42),
        };
        if e.networks.0 > e.networks.1
            || (kind == SectionKind::Probes && e.networks.0 != e.networks.1)
        {
            return Err(bad(format!(
                "network range {}..={} on a {} section",
                e.networks.0 .0,
                e.networks.1 .0,
                kind.name()
            )));
        }
        let len_ok = match kind {
            SectionKind::Meta => {
                // The count, every network at its smallest, the horizons.
                let need = e
                    .records
                    .checked_mul(NETWORK_MIN_LEN as u64)
                    .and_then(|n| n.checked_add(20));
                e.obs == 0 && need.is_some_and(|need| need <= e.len)
            }
            SectionKind::Probes => {
                let need = e
                    .records
                    .checked_mul(PROBE_LEN as u64)
                    .zip(e.obs.checked_mul(OBS_LEN as u64))
                    .and_then(|(a, b)| a.checked_add(b));
                need == Some(e.len)
            }
            SectionKind::Clients => {
                e.obs == 0 && e.records.checked_mul(CLIENT_LEN as u64) == Some(e.len)
            }
        };
        if !len_ok {
            return Err(bad(format!(
                "{} bytes cannot hold {} records and {} observations of a {} section",
                e.len,
                e.records,
                e.obs,
                kind.name()
            )));
        }
        Ok(e)
    }

    /// The section's kind with its PHY and network, as errors name it.
    pub fn label(&self) -> String {
        match self.phy {
            Some(phy) => format!("{} {phy} {}", self.kind.name(), self.networks.0),
            None => self.kind.name().to_owned(),
        }
    }
}

/// Which sections a load decodes. The meta section (networks and
/// horizons) is always read; a section left out is neither read nor
/// checksummed, and its records are absent from the loaded dataset.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sections {
    /// Decode the client samples.
    pub clients: bool,
    /// Decode the probe sets of these PHYs.
    pub phys: Vec<Phy>,
}

impl Sections {
    /// Every section: a full load.
    pub fn all() -> Self {
        Sections {
            clients: true,
            phys: vec![Phy::Bg, Phy::Ht],
        }
    }

    /// Everything either selection reads.
    pub fn union(mut self, other: &Sections) -> Self {
        self.clients |= other.clients;
        for &phy in &other.phys {
            if !self.phys.contains(&phy) {
                self.phys.push(phy);
            }
        }
        self
    }
}

// ---------------------------------------------------------------------------
// Checksum
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// One step of a lane: FNV's xor-multiply on a whole word, then a rotate
/// so the high bits the multiply produces feed the next multiply. Each
/// step is a bijection of the lane, so changing any one word of the input
/// always changes the sum.
fn mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME).rotate_left(29)
}

/// The checksum of M11T sections and chunk spill frames: four FNV-style
/// xor-multiply lanes over little-endian u64 words (a zero-padded last
/// block, then the length), folded into one word. Not cryptographic: it
/// guards against truncation, bit rot and torn writes, not adversaries,
/// and runs at memory speed where byte-wise FNV-1a would double a load.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut lanes = [0, 1, 2, 3].map(|i| FNV_OFFSET ^ i);
    let mut block = |b: &[u8]| {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = mix(*lane, u64_at(b, 8 * i));
        }
    };
    let mut blocks = bytes.chunks_exact(32);
    for b in &mut blocks {
        block(b);
    }
    let rest = blocks.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; 32];
        last[..rest.len()].copy_from_slice(rest);
        block(&last);
    }
    let h = lanes.iter().fold(FNV_OFFSET, |h, &lane| mix(h, lane));
    let h = mix(h, bytes.len() as u64);
    (h ^ (h >> 32)).wrapping_mul(FNV_PRIME)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Appends one network-metadata record to a buffer.
fn put_network(buf: &mut impl BufMut, m: &NetworkMeta) {
    buf.put_u32_le(m.id.0);
    buf.put_u8(env_tag(m.env));
    buf.put_u32_le(m.n_aps as u32);
    buf.put_u8(m.radios.len() as u8);
    for &r in &m.radios {
        buf.put_u8(phy_tag(r));
    }
    let loc = m.location.as_bytes();
    buf.put_u16_le(loc.len() as u16);
    buf.put_slice(loc);
}

/// Appends one probe-set record to a buffer.
fn put_probe(buf: &mut impl BufMut, p: Probe<'_>) {
    buf.put_u32_le(p.network.0);
    buf.put_u8(phy_tag(p.phy));
    buf.put_f64_le(p.time_s);
    buf.put_u32_le(p.sender.0);
    buf.put_u32_le(p.receiver.0);
    buf.put_u8(p.obs.len() as u8);
    for o in p.obs {
        buf.put_u8(o.rate.index() as u8);
        buf.put_f64_le(o.loss);
        buf.put_f64_le(o.snr_db);
    }
}

/// Appends one client-sample record to a buffer.
fn put_client(buf: &mut impl BufMut, c: &ClientSample) {
    buf.put_u32_le(c.network.0);
    buf.put_u32_le(c.ap.0);
    buf.put_u32_le(c.client.0);
    buf.put_f64_le(c.bin_start_s);
    buf.put_u32_le(c.assoc_requests);
    buf.put_u32_le(c.data_pkts);
}

/// Writes sections through `w` one at a time, each summed whole before it
/// is written, and keeps their TOC entries.
struct SectionWriter<'w, W> {
    w: &'w mut W,
    /// The open section's bytes.
    buf: BytesMut,
    /// The open section's entry; its length and checksum are set when it
    /// ends.
    open: Option<TocEntry>,
    /// File offset of the open section.
    at: u64,
    toc: Vec<TocEntry>,
}

impl<'w, W: io::Write> SectionWriter<'w, W> {
    fn new(w: &'w mut W) -> io::Result<Self> {
        let mut head = [0u8; HEADER_LEN];
        head[..4].copy_from_slice(&MAGIC.to_le_bytes());
        head[4..].copy_from_slice(&VERSION.to_le_bytes());
        w.write_all(&head)?;
        Ok(SectionWriter {
            w,
            buf: BytesMut::new(),
            open: None,
            at: HEADER_LEN as u64,
            toc: Vec::new(),
        })
    }

    fn begin(&mut self, kind: SectionKind, phy: Option<Phy>) -> io::Result<()> {
        self.end()?;
        self.open = Some(TocEntry {
            kind,
            phy,
            networks: (NetworkId(0), NetworkId(0)),
            offset: self.at,
            len: 0,
            records: 0,
            obs: 0,
            checksum: 0,
        });
        Ok(())
    }

    /// Appends one record of `network` with `obs` observations to the open
    /// section.
    fn record(&mut self, network: NetworkId, obs: usize, put: impl FnOnce(&mut BytesMut)) {
        let e = self.open.as_mut().expect("a section is open");
        e.networks = match e.records {
            0 => (network, network),
            _ => (e.networks.0.min(network), e.networks.1.max(network)),
        };
        e.records += 1;
        e.obs += obs as u64;
        put(&mut self.buf);
    }

    fn end(&mut self) -> io::Result<()> {
        let Some(mut e) = self.open.take() else {
            return Ok(());
        };
        e.len = self.buf.len() as u64;
        e.checksum = checksum64(&self.buf);
        self.w.write_all(&self.buf)?;
        self.at += e.len;
        self.buf.clear();
        self.toc.push(e);
        Ok(())
    }

    /// Closes the last section and writes the TOC and trailer.
    fn finish(mut self) -> io::Result<()> {
        self.end()?;
        for e in &self.toc {
            e.put(&mut self.buf);
        }
        self.buf.put_u32_le(self.toc.len() as u32);
        let sum = checksum64(&self.buf);
        self.buf.put_u64_le(sum);
        self.buf.put_u32_le(MAGIC);
        self.w.write_all(&self.buf)
    }
}

/// Writes the binary form through `w` section by section, so peak memory
/// is one section (at most `SECTION_CAP` bytes past the meta section)
/// rather than the whole serialized dataset.
pub fn write_to<W: io::Write>(ds: &Dataset, w: &mut W) -> io::Result<()> {
    let mut out = SectionWriter::new(w)?;
    out.begin(SectionKind::Meta, None)?;
    out.buf.put_u32_le(ds.networks.len() as u32);
    for m in &ds.networks {
        out.record(m.id, 0, |b| put_network(b, m));
    }
    out.buf.put_f64_le(ds.probe_horizon_s);
    out.buf.put_f64_le(ds.client_horizon_s);

    for p in &ds.probes {
        let size = PROBE_LEN + OBS_LEN * p.obs.len();
        let same_run = out.open.as_ref().is_some_and(|e| {
            e.kind == SectionKind::Probes && e.phy == Some(p.phy) && e.networks.0 == p.network
        });
        if !same_run || out.buf.len() + size > SECTION_CAP {
            out.begin(SectionKind::Probes, Some(p.phy))?;
        }
        out.record(p.network, p.obs.len(), |b| put_probe(b, p));
    }

    out.begin(SectionKind::Clients, None)?;
    for c in &ds.clients {
        if out.buf.len() + CLIENT_LEN > SECTION_CAP {
            out.begin(SectionKind::Clients, None)?;
        }
        out.record(c.network, 0, |b| put_client(b, c));
    }
    out.finish()
}

/// Encodes a dataset to bytes (in-memory convenience; large exports should
/// prefer [`save`], which streams).
pub fn encode(ds: &Dataset) -> Bytes {
    let mut buf = Vec::with_capacity(64 + ds.probes.len() * 160 + ds.clients.len() * 32);
    write_to(ds, &mut buf).expect("Vec write cannot fail");
    Bytes::from(buf)
}

/// Writes the binary form to a file through a streaming writer — the full
/// serialized buffer is never materialized.
pub fn save(ds: &Dataset, path: &Path) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = io::BufWriter::new(file);
    write_to(ds, &mut w)?;
    io::Write::flush(&mut w)
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Bytes the decoder reads by position: a file, or memory.
trait Source: Sync {
    fn size(&self) -> u64;
    /// Fills `buf` from offset `off`; the caller keeps the range inside
    /// [`Source::size`].
    fn read_at(&self, buf: &mut [u8], off: u64) -> io::Result<()>;
}

impl Source for [u8] {
    fn size(&self) -> u64 {
        self.len() as u64
    }

    fn read_at(&self, buf: &mut [u8], off: u64) -> io::Result<()> {
        let from = usize::try_from(off).map_err(|_| bad("offset past the input".into()))?;
        let src = from
            .checked_add(buf.len())
            .and_then(|to| self.get(from..to))
            .ok_or_else(|| bad("range past the input".into()))?;
        buf.copy_from_slice(src);
        Ok(())
    }
}

#[cfg(test)]
impl Source for Bytes {
    fn size(&self) -> u64 {
        <[u8] as Source>::size(self)
    }

    fn read_at(&self, buf: &mut [u8], off: u64) -> io::Result<()> {
        <[u8] as Source>::read_at(self, buf, off)
    }
}

/// A file read by position, so decoding threads share it without a cursor.
struct FileSource {
    #[cfg(unix)]
    file: std::fs::File,
    /// No positioned read off unix: the shared cursor forces each
    /// seek+read under one lock.
    #[cfg(not(unix))]
    file: std::sync::Mutex<std::fs::File>,
    size: u64,
}

impl FileSource {
    fn open(path: &Path) -> io::Result<Self> {
        let file = std::fs::File::open(path)?;
        let size = file.metadata()?.len();
        Ok(FileSource {
            #[cfg(unix)]
            file,
            #[cfg(not(unix))]
            file: std::sync::Mutex::new(file),
            size,
        })
    }
}

impl Source for FileSource {
    fn size(&self) -> u64 {
        self.size
    }

    #[cfg(unix)]
    fn read_at(&self, buf: &mut [u8], off: u64) -> io::Result<()> {
        std::os::unix::fs::FileExt::read_exact_at(&self.file, buf, off)
    }

    #[cfg(not(unix))]
    fn read_at(&self, buf: &mut [u8], off: u64) -> io::Result<()> {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = self.file.lock().expect("dataset file lock poisoned");
        file.seek(SeekFrom::Start(off))?;
        file.read_exact(buf)
    }
}

fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("field inside its record"))
}

fn u64_at(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("field inside its record"))
}

fn f64_at(b: &[u8], at: usize) -> f64 {
    f64::from_le_bytes(b[at..at + 8].try_into().expect("field inside its record"))
}

/// Takes one fixed-size record off the front of `buf`: the single length
/// check every field read inside the record relies on.
fn record<const N: usize>(buf: &mut &[u8]) -> io::Result<[u8; N]> {
    let rec: [u8; N] = take(buf, N)?.try_into().expect("take returned N bytes");
    Ok(rec)
}

/// Reads and checks the header and the table of contents: the entries
/// parse, the meta section comes first and the client sections last, and
/// the sections tile the bytes between the header and the TOC exactly.
fn read_toc(src: &(impl Source + ?Sized)) -> io::Result<Vec<TocEntry>> {
    let size = src.size();
    let mut head = [0u8; HEADER_LEN];
    if size < HEADER_LEN as u64 {
        return Err(bad(format!("header: truncated ({size} bytes)")));
    }
    src.read_at(&mut head, 0).map_err(|e| at("header", e))?;
    if u32_at(&head, 0) != MAGIC {
        return Err(bad("header: bad magic (not an M11T file)".into()));
    }
    match u16::from_le_bytes([head[4], head[5]]) {
        VERSION => {}
        1 => {
            return Err(bad(
                "header: M11T version 1 is no longer read; re-run `mesh11 simulate` to write \
                 the file as version 2"
                    .into(),
            ))
        }
        v => return Err(bad(format!("header: unsupported M11T version {v}"))),
    }

    let body = size - HEADER_LEN as u64;
    if body < TRAILER_LEN as u64 {
        return Err(toc_err("missing (truncated file)".into()));
    }
    let mut trailer = [0u8; TRAILER_LEN];
    src.read_at(&mut trailer, size - TRAILER_LEN as u64)
        .map_err(|e| at("table of contents", e))?;
    if u32_at(&trailer, 12) != MAGIC {
        return Err(toc_err("no trailer (truncated or damaged file)".into()));
    }
    let n = u32_at(&trailer, 0) as u64;
    let toc_len = n * ENTRY_LEN as u64;
    if toc_len > body - TRAILER_LEN as u64 {
        return Err(toc_err(format!("{n} entries cannot fit in the file")));
    }
    let toc_at = size - TRAILER_LEN as u64 - toc_len;
    let mut raw = vec![0u8; toc_len as usize + 4];
    src.read_at(&mut raw, toc_at)
        .map_err(|e| at("table of contents", e))?;
    if checksum64(&raw) != u64_at(&trailer, 4) {
        return Err(toc_err("checksum mismatch".into()));
    }

    let mut toc = Vec::with_capacity(n as usize);
    let mut next = HEADER_LEN as u64;
    for (i, r) in raw[..toc_len as usize].chunks_exact(ENTRY_LEN).enumerate() {
        let e = TocEntry::parse(r.try_into().expect("chunks_exact(ENTRY_LEN)"))
            .map_err(|err| at(format_args!("table of contents: entry {i}"), err))?;
        let order_ok = match (toc.last().map(|p: &TocEntry| p.kind), e.kind) {
            (None, kind) => kind == SectionKind::Meta,
            (Some(_), SectionKind::Meta) => false,
            (Some(prev), SectionKind::Probes) => prev != SectionKind::Clients,
            (Some(_), SectionKind::Clients) => true,
        };
        if !order_ok {
            return Err(toc_err(format!(
                "entry {i}: a {} section out of order",
                e.kind.name()
            )));
        }
        if e.offset != next || e.len > toc_at - next {
            return Err(toc_err(format!(
                "entry {i}: {} bytes at {} do not start at {next} and end by {toc_at}",
                e.len, e.offset
            )));
        }
        next += e.len;
        toc.push(e);
    }
    if toc.is_empty() {
        return Err(toc_err("no meta section".into()));
    }
    if next != toc_at {
        return Err(toc_err(format!(
            "sections end at {next}, the table starts at {toc_at}"
        )));
    }
    Ok(toc)
}

thread_local! {
    /// This thread's read window: the bytes of the section it is decoding.
    static WINDOW: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Reads section `i` into this thread's window, checks its checksum and
/// parses it with `parse`. Any failure names the section.
fn with_section<T>(
    src: &(impl Source + ?Sized),
    i: usize,
    e: &TocEntry,
    parse: impl FnOnce(&[u8]) -> io::Result<T>,
) -> io::Result<T> {
    WINDOW
        .with_borrow_mut(|window| {
            let len = usize::try_from(e.len).map_err(|_| bad("longer than memory".into()))?;
            if window.len() < len {
                window.resize(len, 0);
            }
            let bytes = &mut window[..len];
            src.read_at(bytes, e.offset)?;
            if checksum64(bytes) != e.checksum {
                return Err(bad("checksum mismatch".into()));
            }
            parse(bytes)
        })
        .map_err(|err| at(format_args!("section {i} ({})", e.label()), err))
}

/// Whether `id` lies in the entry's network range.
fn in_range(e: &TocEntry, id: NetworkId) -> io::Result<()> {
    if id < e.networks.0 || id > e.networks.1 {
        return Err(bad(format!(
            "record of {id} outside the entry's networks {}..={}",
            e.networks.0, e.networks.1
        )));
    }
    Ok(())
}

/// Parses the meta section: networks, then the two horizons.
fn parse_meta(mut b: &[u8], e: &TocEntry) -> io::Result<(Vec<NetworkMeta>, f64, f64)> {
    let count = u64::from(u32_at(&record::<4>(&mut b)?, 0));
    if count != e.records {
        return Err(bad(format!(
            "holds {count} networks, its entry says {}",
            e.records
        )));
    }
    let mut networks = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let r = record::<10>(&mut b)?;
        let id = NetworkId(u32_at(&r, 0));
        in_range(e, id)?;
        let env = env_from_tag(r[4])?;
        let radios = take(&mut b, r[9] as usize)?
            .iter()
            .map(|&t| phy_from_tag(t))
            .collect::<io::Result<_>>()?;
        let loc_len = u16::from_le_bytes(record::<2>(&mut b)?) as usize;
        let location = std::str::from_utf8(take(&mut b, loc_len)?)
            .map(str::to_owned)
            .map_err(|err| bad(format!("bad utf8 location: {err}")))?;
        networks.push(NetworkMeta {
            id,
            env,
            n_aps: u32_at(&r, 5) as usize,
            radios,
            location,
        });
    }
    let r = record::<16>(&mut b)?;
    if !b.is_empty() {
        return Err(bad(format!("{} bytes after the horizons", b.len())));
    }
    Ok((networks, f64_at(&r, 0), f64_at(&r, 8)))
}

/// Parses one probe section into its own rows and observations of the
/// table being filled; `obs_base` is the arena position of `obs[0]`.
fn parse_probes(
    mut b: &[u8],
    e: &TocEntry,
    rows: &mut [ProbeSet],
    obs: &mut [RateObs],
    obs_base: u32,
) -> io::Result<()> {
    let (network, phy) = (e.networks.0, e.phy.expect("probe entries carry a phy"));
    let rates = phy.all_rates();
    let mut filled = 0usize;
    for (k, row) in rows.iter_mut().enumerate() {
        let r = record::<PROBE_LEN>(&mut b)?;
        let (rec_network, rec_phy) = (NetworkId(u32_at(&r, 0)), phy_from_tag(r[4])?);
        if rec_network != network || rec_phy != phy {
            return Err(bad(format!(
                "probe set {k} is {rec_network} {rec_phy}, its entry {network} {phy}"
            )));
        }
        let n = r[21] as usize;
        let payload = take(&mut b, n * OBS_LEN)?;
        let dst = obs
            .get_mut(filled..filled + n)
            .ok_or_else(|| bad(format!("more observations than its entry's {}", e.obs)))?;
        for (d, o) in dst.iter_mut().zip(payload.chunks_exact(OBS_LEN)) {
            let idx = o[0] as usize;
            let rate = *rates
                .get(idx)
                .ok_or_else(|| bad(format!("rate index {idx} out of range for {phy}")))?;
            *d = RateObs {
                rate,
                loss: f64_at(o, 1),
                snr_db: f64_at(o, 9),
            };
        }
        *row = ProbeSet {
            network,
            phy,
            time_s: f64_at(&r, 5),
            sender: ApId(u32_at(&r, 13)),
            receiver: ApId(u32_at(&r, 17)),
            obs: obs_base + filled as u32..obs_base + (filled + n) as u32,
        };
        if let Some(err) = row.with_obs(dst).record_error() {
            return Err(bad(format!("probe set {k} {err}")));
        }
        filled += n;
    }
    if filled != obs.len() {
        return Err(bad(format!(
            "holds {filled} observations, its entry says {}",
            e.obs
        )));
    }
    Ok(())
}

/// Parses one client section onto the end of `out`.
fn parse_clients(b: &[u8], e: &TocEntry, out: &mut Vec<ClientSample>) -> io::Result<()> {
    for r in b.chunks_exact(CLIENT_LEN) {
        let c = ClientSample {
            network: NetworkId(u32_at(r, 0)),
            ap: ApId(u32_at(r, 4)),
            client: ClientId(u32_at(r, 8)),
            bin_start_s: f64_at(r, 12),
            assoc_requests: u32_at(r, 20),
            data_pkts: u32_at(r, 24),
        };
        in_range(e, c.network)?;
        out.push(c);
    }
    Ok(())
}

/// One selected probe section and the slices of the table it fills.
struct ProbeJob<'a> {
    index: usize,
    entry: &'a TocEntry,
    rows: &'a mut [ProbeSet],
    obs: &'a mut [RateObs],
    obs_base: u32,
    result: io::Result<()>,
}

/// The probe sections `sel` picks, with their indices in the TOC, in file
/// order.
fn picked_probes<'t>(toc: &'t [TocEntry], sel: &Sections) -> Vec<(usize, &'t TocEntry)> {
    toc.iter()
        .enumerate()
        .filter(|(_, e)| e.phy.is_some_and(|p| sel.phys.contains(&p)))
        .collect()
}

/// Decodes the `picked` probe sections into one table, allocated once
/// from the TOC counts. Sections decode in parallel, each into its own
/// disjoint rows and observations; the first failure in file order wins.
fn read_probes(
    src: &(impl Source + ?Sized),
    picked: &[(usize, &TocEntry)],
) -> io::Result<ProbeTable> {
    // The TOC tiles the file, so these sums are bounded by its size.
    let n_rows: u64 = picked.iter().map(|(_, e)| e.records).sum();
    let n_obs: u64 = picked.iter().map(|(_, e)| e.obs).sum();
    if u32::try_from(n_obs).is_err() {
        return Err(toc_err(format!(
            "{n_obs} observations exceed the table's u32 positions"
        )));
    }
    // Safe code fills the table with placeholders before the sections
    // overwrite them. That first touch of every page is about half a full
    // load, so with a second thread the rows and the arena each get one.
    let blank = ProbeSet {
        network: NetworkId(0),
        phy: Phy::Bg,
        time_s: 0.0,
        sender: ApId(0),
        receiver: ApId(0),
        obs: 0..0,
    };
    let new_rows = || vec![blank; n_rows as usize];
    let new_obs = || {
        let blank = RateObs {
            rate: Phy::Bg.base_rate(),
            loss: 0.0,
            snr_db: 0.0,
        };
        vec![blank; n_obs as usize]
    };
    let (mut rows, mut obs) = if rayon::current_num_threads() > 1 {
        std::thread::scope(|s| {
            let rows = s.spawn(new_rows);
            let obs = new_obs();
            (rows.join().expect("row allocation panicked"), obs)
        })
    } else {
        (new_rows(), new_obs())
    };
    let mut jobs = Vec::with_capacity(picked.len());
    let (mut rows_left, mut obs_left) = (&mut rows[..], &mut obs[..]);
    let mut obs_base = 0u32;
    for &(index, entry) in picked {
        let (r, rest) = std::mem::take(&mut rows_left).split_at_mut(entry.records as usize);
        rows_left = rest;
        let (o, rest) = std::mem::take(&mut obs_left).split_at_mut(entry.obs as usize);
        obs_left = rest;
        jobs.push(ProbeJob {
            index,
            entry,
            rows: r,
            obs: o,
            obs_base,
            result: Ok(()),
        });
        obs_base += entry.obs as u32;
    }
    jobs.par_iter_mut().for_each(|job| {
        let ProbeJob {
            index,
            entry,
            rows,
            obs,
            obs_base,
            result,
        } = job;
        *result = with_section(src, *index, entry, |b| {
            parse_probes(b, entry, rows, obs, *obs_base)
        });
    });
    jobs.into_iter().try_for_each(|job| job.result)?;
    Ok(ProbeTable::from_parts(rows, obs))
}

/// Decodes the sections `sel` picks (and the meta section) from `src`.
fn read(src: &(impl Source + ?Sized), sel: &Sections) -> io::Result<Dataset> {
    let toc = read_toc(src)?;
    let (networks, probe_horizon_s, client_horizon_s) =
        with_section(src, 0, &toc[0], |b| parse_meta(b, &toc[0]))?;
    let probes = read_probes(src, &picked_probes(&toc, sel))?;
    let clients = read_clients(src, &toc, sel)?;
    Ok(Dataset {
        networks,
        probes,
        clients,
        probe_horizon_s,
        client_horizon_s,
    })
}

/// Decodes the client sections when `sel` picks them; empty otherwise.
fn read_clients(
    src: &(impl Source + ?Sized),
    toc: &[TocEntry],
    sel: &Sections,
) -> io::Result<Vec<ClientSample>> {
    let mut clients = Vec::new();
    if sel.clients {
        let picked = toc
            .iter()
            .enumerate()
            .filter(|(_, e)| e.kind == SectionKind::Clients);
        clients.reserve(picked.clone().map(|(_, e)| e.records as usize).sum());
        for (i, e) in picked {
            with_section(src, i, e, |b| parse_clients(b, e, &mut clients))?;
        }
    }
    Ok(clients)
}

/// Decodes a whole dataset from bytes.
pub fn decode(buf: Bytes) -> io::Result<Dataset> {
    read(&buf[..], &Sections::all())
}

/// The table of contents of an encoded dataset, after the header and TOC
/// checks (no section is read).
pub fn toc(buf: &[u8]) -> io::Result<Vec<TocEntry>> {
    read_toc(buf)
}

/// The table of contents of a dataset file (see [`toc`]).
pub fn load_toc(path: &Path) -> io::Result<Vec<TocEntry>> {
    read_toc(&FileSource::open(path)?)
}

/// Reads a whole dataset file: every section, every checksum.
pub fn load(path: &Path) -> io::Result<Dataset> {
    load_sections(path, Sections::all())
}

/// Reads the meta section of a dataset file and the sections `sections`
/// picks, through positional reads and one section-sized window per
/// decoding thread; the file is never in memory whole. Probe sets of PHYs
/// left out, and the client samples when left out, are absent from the
/// result.
pub fn load_sections(path: &Path, sections: Sections) -> io::Result<Dataset> {
    read(&FileSource::open(path)?, &sections)
}

// ---------------------------------------------------------------------------
// Part reader
// ---------------------------------------------------------------------------

/// The byte budget a [`PartReader`] cuts its parts at: four full sections.
/// A part takes whole networks until the next one would take its probe
/// sections past this many file bytes; only a network larger than the
/// budget makes a larger part, on its own.
pub const PART_BUDGET: usize = 4 * SECTION_CAP;

/// One part of a streamed read: whole consecutive networks, with their
/// metadata and their selected probe sets in file order.
#[derive(Debug, Clone, PartialEq)]
pub struct Part {
    /// The part's networks and probe sets, with the file's horizons and no
    /// client samples (those are in the shell).
    pub dataset: Dataset,
    /// Where the part's first probe set lies among the rows a whole
    /// [`load_sections`] of the same selection returns.
    pub first_probe: usize,
}

/// Which networks and probe sections one part holds.
struct PartPlan {
    /// Indices into the meta section's networks.
    networks: std::ops::Range<usize>,
    /// Indices into the picked probe sections.
    sections: std::ops::Range<usize>,
    first_probe: usize,
}

/// Cuts the networks, in meta-section order, into parts of whole
/// consecutive networks with their `picked` sections, each part closed
/// before a network would take its section bytes past `budget`. Always at
/// least one part. Parts need the networks in id order and each network's
/// sections together in that order, as the writer lays them out; a file
/// laid out otherwise is one part, so it reads as a whole load reads it.
fn plan_parts(networks: &[NetworkMeta], picked: &[&TocEntry], budget: usize) -> Vec<PartPlan> {
    let whole = || {
        vec![PartPlan {
            networks: 0..networks.len(),
            sections: 0..picked.len(),
            first_probe: 0,
        }]
    };
    if networks.windows(2).any(|w| w[0].id >= w[1].id) {
        return whole();
    }
    let mut plans = Vec::new();
    let mut part = PartPlan {
        networks: 0..0,
        sections: 0..0,
        first_probe: 0,
    };
    let (mut bytes, mut rows, mut s) = (0u64, 0usize, 0usize);
    for (n, m) in networks.iter().enumerate() {
        let (first, mut net_bytes, mut net_rows) = (s, 0u64, 0usize);
        while let Some(e) = picked.get(s).filter(|e| e.networks.0 == m.id) {
            net_bytes += e.len;
            net_rows += e.records as usize;
            s += 1;
        }
        if bytes > 0 && bytes + net_bytes > budget as u64 {
            let next = PartPlan {
                networks: n..n,
                sections: first..first,
                first_probe: rows,
            };
            plans.push(std::mem::replace(&mut part, next));
            bytes = 0;
        }
        part.networks.end = n + 1;
        part.sections.end = s;
        bytes += net_bytes;
        rows += net_rows;
    }
    if s < picked.len() {
        // A section out of network order, or of a network the meta
        // section does not list.
        return whole();
    }
    plans.push(part);
    plans
}

/// A dataset file read one group of networks at a time, so a reader never
/// holds the whole probe table. [`PartReader::open`] runs the same TOC
/// checks as [`load_sections`] and returns the shell: the networks, the
/// horizons, and the client samples when selected. [`PartReader::parts`]
/// then decodes the selected probe sections part by part, with the same
/// checksum and record checks, and its errors name sections by their index
/// in the whole file. The parts' rows, concatenated, are the rows a whole
/// load returns; the walk can be repeated.
pub struct PartReader {
    src: Box<dyn Source + Send>,
    toc: Vec<TocEntry>,
    /// TOC indices of the selected probe sections, in file order.
    picked: Vec<usize>,
    networks: Vec<NetworkMeta>,
    probe_horizon_s: f64,
    client_horizon_s: f64,
    plans: Vec<PartPlan>,
}

impl PartReader {
    /// Opens a dataset file for the sections `sections` picks, with parts
    /// cut at `budget` bytes ([`PART_BUDGET`] in production); returns the
    /// shell and the reader.
    pub fn open(path: &Path, sections: &Sections, budget: usize) -> io::Result<(Dataset, Self)> {
        Self::new(Box::new(FileSource::open(path)?), sections, budget)
    }

    fn new(
        src: Box<dyn Source + Send>,
        sel: &Sections,
        budget: usize,
    ) -> io::Result<(Dataset, Self)> {
        let toc = read_toc(&*src)?;
        let (networks, probe_horizon_s, client_horizon_s) =
            with_section(&*src, 0, &toc[0], |b| parse_meta(b, &toc[0]))?;
        let clients = read_clients(&*src, &toc, sel)?;
        let (picked, entries): (Vec<usize>, Vec<&TocEntry>) =
            picked_probes(&toc, sel).into_iter().unzip();
        let plans = plan_parts(&networks, &entries, budget);
        let shell = Dataset {
            networks: networks.clone(),
            probes: ProbeTable::new(),
            clients,
            probe_horizon_s,
            client_horizon_s,
        };
        let reader = PartReader {
            src,
            toc,
            picked,
            networks,
            probe_horizon_s,
            client_horizon_s,
            plans,
        };
        Ok((shell, reader))
    }

    /// How many parts the walk yields (at least one).
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Always false: a reader yields at least one part.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Decodes part `k`.
    pub fn part(&self, k: usize) -> io::Result<Part> {
        let plan = &self.plans[k];
        let picked: Vec<(usize, &TocEntry)> = self.picked[plan.sections.clone()]
            .iter()
            .map(|&i| (i, &self.toc[i]))
            .collect();
        Ok(Part {
            dataset: Dataset {
                networks: self.networks[plan.networks.clone()].to_vec(),
                probes: read_probes(&*self.src, &picked)?,
                clients: Vec::new(),
                probe_horizon_s: self.probe_horizon_s,
                client_horizon_s: self.client_horizon_s,
            },
            first_probe: plan.first_probe,
        })
    }

    /// Decodes the parts in order, one per step.
    pub fn parts(&self) -> impl Iterator<Item = io::Result<Part>> + '_ {
        (0..self.len()).map(|k| self.part(k))
    }
}

// ---------------------------------------------------------------------------
// Spill codec v2 column primitives (used by the chunk spill frames in
// `crate::chunk`)
// ---------------------------------------------------------------------------
//
// Each column is written as `[tag u8][payload]`, so the decoder needs no
// out-of-band schema and one frame can mix encodings as the data dictates:
//
//   COL_RAW    fixed-width little-endian values
//   COL_DELTA  first value as a varint, then zigzag varints of successive
//              deltas (f64 columns delta their IEEE bit patterns) — wins on
//              monotone columns: report times, `obs_off` prefix tables
//   COL_PACK   `min` + bit width + LSB-first packed `value - min` — wins on
//              small-domain integer columns: network/AP ids, phy/rate tags
//   COL_DICT   sorted value dictionary + bit-packed indices — wins on
//              quantized f64 columns (windowed loss is `k/n` over ≤ ~20
//              probes); continuous columns (SNR) fall back to COL_RAW
//
// Encoders compute every candidate's exact size and keep the smallest, so
// the choice is deterministic per column and invisible to the decoder.

pub(crate) const COL_RAW: u8 = 0;
pub(crate) const COL_DELTA: u8 = 1;
pub(crate) const COL_PACK: u8 = 2;
pub(crate) const COL_DICT: u8 = 3;

/// Dictionary candidates stop growing past this many distinct values: the
/// scan cost stops paying for itself and RAW/DELTA win on size anyway.
const DICT_MAX: usize = 1024;

/// Appends `v` as an LEB128 varint (7 bits per byte, high bit = more).
pub(crate) fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Encoded size of `v` as a varint, without writing it.
pub(crate) fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

/// Reads one varint, advancing `buf`. Rejects truncation and anything that
/// overflows a `u64`.
pub(crate) fn get_varint(buf: &mut &[u8]) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some((&b, rest)) = buf.split_first() else {
            return Err(bad("truncated varint".into()));
        };
        *buf = rest;
        if shift == 63 && b > 1 {
            return Err(bad("varint overflows u64".into()));
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(bad("varint too long".into()));
        }
    }
}

/// Maps a signed delta onto an unsigned varint-friendly value (small
/// magnitudes of either sign stay small).
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Bits needed to represent `v` (0 for 0).
fn bits_for(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Packs `width`-bit residuals LSB-first into whole bytes.
fn pack_bits(buf: &mut Vec<u8>, residuals: impl Iterator<Item = u64>, width: usize) {
    if width == 0 {
        return;
    }
    let mut acc = 0u64;
    let mut nbits = 0;
    for r in residuals {
        acc |= r << nbits;
        nbits += width;
        while nbits >= 8 {
            buf.push((acc & 0xFF) as u8);
            acc >>= 8;
            nbits -= 8;
        }
    }
    if nbits > 0 {
        buf.push((acc & 0xFF) as u8);
    }
}

/// Unpacks `n` `width`-bit values LSB-first from `bytes` (length already
/// validated by the caller).
fn unpack_bits(bytes: &[u8], n: usize, width: usize) -> Vec<u64> {
    let mask = if width == 0 { 0 } else { (1u64 << width) - 1 };
    let mut acc = 0u64;
    let mut nbits = 0;
    let mut it = bytes.iter();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        while nbits < width {
            acc |= u64::from(*it.next().expect("caller validated length")) << nbits;
            nbits += 8;
        }
        out.push(acc & mask);
        acc >>= width;
        nbits -= width;
    }
    out
}

/// Takes `n` bytes off the front of `buf`, or errors on truncation.
fn take<'a>(buf: &mut &'a [u8], n: usize) -> io::Result<&'a [u8]> {
    if buf.len() < n {
        return Err(bad(format!(
            "truncated: need {n} bytes, have {}",
            buf.len()
        )));
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

/// Appends a u32 column as `[tag][payload]`, keeping the smallest of RAW,
/// DELTA, and PACK.
pub(crate) fn put_u32_col(buf: &mut Vec<u8>, vals: &[u32]) {
    let raw = 4 * vals.len();
    let mut best = (COL_RAW, raw);
    if let (Some(&min), Some(&max)) = (vals.iter().min(), vals.iter().max()) {
        let width = bits_for(u64::from(max - min));
        let pack = 5 + (vals.len() * width).div_ceil(8);
        let mut delta = varint_len(u64::from(vals[0]));
        for w in vals.windows(2) {
            delta += varint_len(zigzag(i64::from(w[1]) - i64::from(w[0])));
        }
        if delta < best.1 {
            best = (COL_DELTA, delta);
        }
        if pack < best.1 {
            best = (COL_PACK, pack);
        }
    }
    buf.push(best.0);
    match best.0 {
        COL_DELTA => {
            put_varint(buf, u64::from(vals[0]));
            for w in vals.windows(2) {
                put_varint(buf, zigzag(i64::from(w[1]) - i64::from(w[0])));
            }
        }
        COL_PACK => {
            let min = *vals.iter().min().expect("non-empty");
            let max = *vals.iter().max().expect("non-empty");
            let width = bits_for(u64::from(max - min));
            buf.extend_from_slice(&min.to_le_bytes());
            buf.push(width as u8);
            pack_bits(buf, vals.iter().map(|&v| u64::from(v - min)), width);
        }
        _ => {
            for &v in vals {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
}

/// Reads a u32 column of `n` values written by [`put_u32_col`].
pub(crate) fn get_u32_col(buf: &mut &[u8], n: usize) -> io::Result<Vec<u32>> {
    let tag = take(buf, 1)?[0];
    match tag {
        COL_RAW => {
            let raw = take(buf, 4 * n)?;
            Ok(raw
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("chunks_exact(4)")))
                .collect())
        }
        COL_DELTA => {
            let mut out = Vec::with_capacity(n);
            if n > 0 {
                let first = u32::try_from(get_varint(buf)?)
                    .map_err(|_| bad("u32 delta column: first value out of range".into()))?;
                out.push(first);
                let mut prev = i64::from(first);
                for _ in 1..n {
                    let d = unzigzag(get_varint(buf)?);
                    let v = prev
                        .checked_add(d)
                        .and_then(|v| u32::try_from(v).ok())
                        .ok_or_else(|| bad("u32 delta column: value out of range".into()))?;
                    out.push(v);
                    prev = i64::from(v);
                }
            }
            Ok(out)
        }
        COL_PACK => {
            let head = take(buf, 5)?;
            let min = u32::from_le_bytes(head[..4].try_into().expect("5-byte head"));
            let width = head[4] as usize;
            if width > 32 {
                return Err(bad(format!("u32 pack column: width {width} > 32")));
            }
            let packed = take(buf, (n * width).div_ceil(8))?;
            unpack_bits(packed, n, width)
                .into_iter()
                .map(|r| {
                    u32::try_from(r)
                        .ok()
                        .and_then(|r| min.checked_add(r))
                        .ok_or_else(|| bad("u32 pack column: value overflows".into()))
                })
                .collect()
        }
        other => Err(bad(format!("unknown u32 column tag {other}"))),
    }
}

/// Appends a u8 column as `[tag][payload]`, keeping the smaller of RAW and
/// PACK.
pub(crate) fn put_u8_col(buf: &mut Vec<u8>, vals: &[u8]) {
    let raw = vals.len();
    if let (Some(&min), Some(&max)) = (vals.iter().min(), vals.iter().max()) {
        let width = bits_for(u64::from(max - min));
        let pack = 2 + (vals.len() * width).div_ceil(8);
        if pack < raw {
            buf.push(COL_PACK);
            buf.push(min);
            buf.push(width as u8);
            pack_bits(buf, vals.iter().map(|&v| u64::from(v - min)), width);
            return;
        }
    }
    buf.push(COL_RAW);
    buf.extend_from_slice(vals);
}

/// Reads a u8 column of `n` values written by [`put_u8_col`].
pub(crate) fn get_u8_col(buf: &mut &[u8], n: usize) -> io::Result<Vec<u8>> {
    let tag = take(buf, 1)?[0];
    match tag {
        COL_RAW => Ok(take(buf, n)?.to_vec()),
        COL_PACK => {
            let head = take(buf, 2)?;
            let (min, width) = (head[0], head[1] as usize);
            if width > 8 {
                return Err(bad(format!("u8 pack column: width {width} > 8")));
            }
            let packed = take(buf, (n * width).div_ceil(8))?;
            unpack_bits(packed, n, width)
                .into_iter()
                .map(|r| {
                    u8::try_from(r)
                        .ok()
                        .and_then(|r| min.checked_add(r))
                        .ok_or_else(|| bad("u8 pack column: value overflows".into()))
                })
                .collect()
        }
        other => Err(bad(format!("unknown u8 column tag {other}"))),
    }
}

/// Appends an f64 column as `[tag][payload]`, keeping the smallest of RAW,
/// DELTA (over IEEE bit patterns — exact for every value including NaN),
/// and DICT (sorted bit-pattern dictionary + packed indices — wins on
/// quantized columns like windowed loss).
pub(crate) fn put_f64_col(buf: &mut Vec<u8>, vals: &[f64]) {
    let raw = 8 * vals.len();
    let mut best = (COL_RAW, raw);
    let mut dict: Option<Vec<u64>> = None;
    if !vals.is_empty() {
        let mut delta = varint_len(vals[0].to_bits());
        for w in vals.windows(2) {
            delta += varint_len(zigzag(w[1].to_bits().wrapping_sub(w[0].to_bits()) as i64));
        }
        if delta < best.1 {
            best = (COL_DELTA, delta);
        }
        let mut set = std::collections::BTreeSet::new();
        for &v in vals {
            set.insert(v.to_bits());
            if set.len() > DICT_MAX {
                break;
            }
        }
        if set.len() <= DICT_MAX {
            let d: Vec<u64> = set.into_iter().collect();
            let width = bits_for(d.len() as u64 - 1);
            let size =
                varint_len(d.len() as u64) + 8 * d.len() + 1 + (vals.len() * width).div_ceil(8);
            if size < best.1 {
                best = (COL_DICT, size);
                dict = Some(d);
            }
        }
    }
    buf.push(best.0);
    match best.0 {
        COL_DELTA => {
            put_varint(buf, vals[0].to_bits());
            for w in vals.windows(2) {
                put_varint(
                    buf,
                    zigzag(w[1].to_bits().wrapping_sub(w[0].to_bits()) as i64),
                );
            }
        }
        COL_DICT => {
            let d = dict.expect("dict candidate won");
            let width = bits_for(d.len() as u64 - 1);
            put_varint(buf, d.len() as u64);
            for &bits in &d {
                buf.extend_from_slice(&bits.to_le_bytes());
            }
            buf.push(width as u8);
            let idx_of = |v: f64| d.binary_search(&v.to_bits()).expect("value in dict") as u64;
            pack_bits(buf, vals.iter().map(|&v| idx_of(v)), width);
        }
        _ => {
            for &v in vals {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
}

/// Reads an f64 column of `n` values written by [`put_f64_col`].
pub(crate) fn get_f64_col(buf: &mut &[u8], n: usize) -> io::Result<Vec<f64>> {
    let tag = take(buf, 1)?[0];
    match tag {
        COL_RAW => {
            let raw = take(buf, 8 * n)?;
            Ok(raw
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
                .collect())
        }
        COL_DELTA => {
            let mut out = Vec::with_capacity(n);
            if n > 0 {
                let mut prev = get_varint(buf)?;
                out.push(f64::from_bits(prev));
                for _ in 1..n {
                    let d = unzigzag(get_varint(buf)?);
                    prev = prev.wrapping_add(d as u64);
                    out.push(f64::from_bits(prev));
                }
            }
            Ok(out)
        }
        COL_DICT => {
            let d = get_varint(buf)? as usize;
            if d == 0 || d > DICT_MAX {
                return Err(bad(format!("f64 dict column: implausible dict size {d}")));
            }
            let dict_bytes = take(buf, 8 * d)?;
            let dict: Vec<f64> = dict_bytes
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
                .collect();
            let width = take(buf, 1)?[0] as usize;
            if width > 32 {
                return Err(bad(format!("f64 dict column: width {width} > 32")));
            }
            let packed = take(buf, (n * width).div_ceil(8))?;
            unpack_bits(packed, n, width)
                .into_iter()
                .map(|i| {
                    dict.get(i as usize)
                        .copied()
                        .ok_or_else(|| bad(format!("f64 dict column: index {i} out of range")))
                })
                .collect()
        }
        other => Err(bad(format!("unknown f64 column tag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh11_phy::BitRate;

    fn sample_dataset() -> Dataset {
        sample_with(
            Phy::Bg,
            &[
                RateObs {
                    rate: BitRate::bg_mbps(1.0).unwrap(),
                    loss: 0.05,
                    snr_db: 22.5,
                },
                RateObs {
                    rate: BitRate::bg_mbps(48.0).unwrap(),
                    loss: 0.9,
                    snr_db: 21.75,
                },
            ],
        )
    }

    /// The sample dataset with its one probe set on `phy` holding `obs`.
    fn sample_with(phy: Phy, obs: &[RateObs]) -> Dataset {
        Dataset {
            networks: vec![NetworkMeta {
                id: NetworkId(0),
                env: EnvLabel::Outdoor,
                n_aps: 2,
                radios: vec![Phy::Bg, Phy::Ht],
                location: "Nairobi, Kenya".into(),
            }],
            probes: [Probe {
                network: NetworkId(0),
                phy,
                time_s: 300.0,
                sender: ApId(0),
                receiver: ApId(1),
                obs,
            }]
            .into_iter()
            .collect(),
            clients: vec![ClientSample {
                network: NetworkId(0),
                ap: ApId(1),
                client: ClientId(3),
                bin_start_s: 900.0,
                assoc_requests: 2,
                data_pkts: 117,
            }],
            probe_horizon_s: 86_400.0,
            client_horizon_s: 39_600.0,
        }
    }

    /// Two networks, each with b/g and HT runs: five sections besides the
    /// meta and client ones would be one per (network, PHY) run.
    fn mixed_dataset() -> Dataset {
        let mut ds = sample_dataset();
        ds.networks.push(NetworkMeta {
            id: NetworkId(1),
            env: EnvLabel::Indoor,
            n_aps: 3,
            radios: vec![Phy::Bg],
            location: "Lima, Peru".into(),
        });
        let bg = [RateObs {
            rate: BitRate::bg_mbps(11.0).unwrap(),
            loss: 0.25,
            snr_db: 17.0,
        }];
        let ht = [RateObs {
            rate: BitRate::ht_mcs(3, false).unwrap(),
            loss: 0.5,
            snr_db: 19.5,
        }];
        let mut probes = ProbeTable::new();
        for (net, phy, obs, n) in [
            (0, Phy::Bg, &bg, 3),
            (0, Phy::Ht, &ht, 2),
            (1, Phy::Bg, &bg, 4),
        ] {
            for k in 0..n {
                probes.push(Probe {
                    network: NetworkId(net),
                    phy,
                    time_s: 300.0 * f64::from(k),
                    sender: ApId(k % 2),
                    receiver: ApId(1 - k % 2),
                    obs,
                });
            }
        }
        ds.probes = probes;
        ds.clients.push(ClientSample {
            network: NetworkId(1),
            ..ds.clients[0]
        });
        ds
    }

    /// Recomputes every section checksum and the TOC checksum of `raw`, so
    /// a test can plant a record or entry the checksums would otherwise
    /// catch and reach the check behind them.
    fn reseal(raw: &mut [u8]) {
        let len = raw.len();
        let n = u32_at(raw, len - TRAILER_LEN) as usize;
        let toc_at = len - TRAILER_LEN - n * ENTRY_LEN;
        for i in 0..n {
            let e = toc_at + i * ENTRY_LEN;
            let (off, sec_len) = (u64_at(raw, e + 10) as usize, u64_at(raw, e + 18) as usize);
            let sum = checksum64(&raw[off..off + sec_len]);
            raw[e + 42..e + 50].copy_from_slice(&sum.to_le_bytes());
        }
        let sum = checksum64(&raw[toc_at..len - TRAILER_LEN + 4]);
        raw[len - 12..len - 4].copy_from_slice(&sum.to_le_bytes());
    }

    /// Byte offset of TOC entry `i` in `raw`.
    fn entry_at(raw: &[u8], i: usize) -> usize {
        let n = u32_at(raw, raw.len() - TRAILER_LEN) as usize;
        raw.len() - TRAILER_LEN - (n - i) * ENTRY_LEN
    }

    fn invalid(raw: Vec<u8>, sel: Sections) -> String {
        let err = read(&raw[..], &sel).expect_err("must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        err.to_string()
    }

    #[test]
    fn round_trip() {
        let ds = sample_dataset();
        let back = decode(encode(&ds)).unwrap();
        assert_eq!(ds, back);
        let ds = mixed_dataset();
        assert_eq!(decode(encode(&ds)).unwrap(), ds);
        assert_eq!(
            decode(encode(&Dataset::default())).unwrap(),
            Dataset::default()
        );
    }

    #[test]
    fn round_trip_ht_rates() {
        let ds = sample_with(
            Phy::Ht,
            &[RateObs {
                rate: BitRate::ht_mcs(15, true).unwrap(),
                loss: 0.3,
                snr_db: 28.0,
            }],
        );
        let back = decode(encode(&ds)).unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    fn one_section_per_network_and_phy_run() {
        let ds = mixed_dataset();
        let toc = toc(&encode(&ds)).unwrap();
        let shape: Vec<(SectionKind, Option<Phy>, u32, u64)> = toc
            .iter()
            .map(|e| (e.kind, e.phy, e.networks.0 .0, e.records))
            .collect();
        assert_eq!(
            shape,
            [
                (SectionKind::Meta, None, 0, 2),
                (SectionKind::Probes, Some(Phy::Bg), 0, 3),
                (SectionKind::Probes, Some(Phy::Ht), 0, 2),
                (SectionKind::Probes, Some(Phy::Bg), 1, 4),
                (SectionKind::Clients, None, 0, 2),
            ]
        );
        assert_eq!(toc[0].networks, (NetworkId(0), NetworkId(1)));
        assert_eq!(toc[4].networks, (NetworkId(0), NetworkId(1)));
        assert_eq!(toc[2].obs, 2);
    }

    #[test]
    fn long_runs_are_cut_at_the_section_cap() {
        // One (network, PHY) run of ~6.4 MB, and enough clients for two
        // client sections.
        let obs: Vec<RateObs> = Phy::Bg
            .all_rates()
            .iter()
            .map(|&rate| RateObs {
                rate,
                loss: 0.125,
                snr_db: 20.0,
            })
            .collect();
        let mut ds = sample_dataset();
        ds.probes = (0..26_000)
            .map(|k| Probe {
                network: NetworkId(0),
                phy: Phy::Bg,
                time_s: f64::from(k),
                sender: ApId(0),
                receiver: ApId(1),
                obs: &obs,
            })
            .collect();
        ds.clients = (0..160_000u32)
            .map(|k| ClientSample {
                bin_start_s: f64::from(k),
                ..ds.clients[0]
            })
            .collect();
        let bytes = encode(&ds);
        let toc = toc(&bytes).unwrap();
        let count = |kind| toc.iter().filter(|e| e.kind == kind).count();
        assert_eq!(count(SectionKind::Probes), 2);
        assert_eq!(count(SectionKind::Clients), 2);
        assert!(toc.iter().all(|e| e.len <= SECTION_CAP as u64));
        assert_eq!(decode(bytes).unwrap(), ds);
    }

    #[test]
    fn selective_reads_skip_what_they_leave_out() {
        let ds = mixed_dataset();
        let raw = encode(&ds).to_vec();
        let bg = read(
            &raw[..],
            &Sections {
                clients: false,
                phys: vec![Phy::Bg],
            },
        )
        .unwrap();
        assert_eq!(bg.networks, ds.networks);
        assert_eq!(bg.probe_horizon_s, ds.probe_horizon_s);
        assert!(bg.clients.is_empty());
        let want: ProbeTable = ds.probes_for_phy(Phy::Bg).collect();
        assert_eq!(bg.probes, want);

        // A section left out is not even checksummed.
        let mut damaged = raw.clone();
        let ht = toc(&raw).unwrap()[2].clone();
        damaged[ht.offset as usize] ^= 0x10;
        let meta_only = read(&damaged[..], &Sections::default()).unwrap();
        assert_eq!(meta_only.networks, ds.networks);
        assert!(meta_only.probes.is_empty() && meta_only.clients.is_empty());
        let e = invalid(damaged, Sections::all());
        assert!(
            e.contains("section 2 (probes 802.11n net000): checksum mismatch"),
            "{e}"
        );
    }

    #[test]
    fn a_record_of_another_phy_is_refused_not_taken() {
        // Relabel the HT section as b/g: its records disagree with the
        // entry, and a b/g-only load must say so rather than take them.
        let mut raw = encode(&mixed_dataset()).to_vec();
        let e = entry_at(&raw, 2);
        raw[e + 1] = phy_tag(Phy::Bg);
        reseal(&mut raw);
        let sel = Sections {
            clients: false,
            phys: vec![Phy::Bg],
        };
        let err = invalid(raw, sel);
        assert!(
            err.contains("section 2 (probes 802.11b/g net000): probe set 0 is net000 802.11n"),
            "{err}"
        );
    }

    #[test]
    fn a_record_of_another_network_is_refused() {
        let mut raw = encode(&mixed_dataset()).to_vec();
        let e = entry_at(&raw, 3);
        raw[e + 2..e + 10].copy_from_slice(&[0; 8]);
        reseal(&mut raw);
        let err = invalid(raw, Sections::all());
        assert!(err.contains("section 3 ("), "{err}");
        assert!(
            err.contains("is net001 802.11b/g, its entry net000"),
            "{err}"
        );
    }

    #[test]
    fn sections_must_tile_the_file() {
        let raw = encode(&mixed_dataset()).to_vec();
        // Overlap: section 2 starts one byte early.
        let mut overlap = raw.clone();
        let e = entry_at(&raw, 2);
        let off = u64_at(&raw, e + 10) - 1;
        overlap[e + 10..e + 18].copy_from_slice(&off.to_le_bytes());
        reseal(&mut overlap);
        let err = invalid(overlap, Sections::all());
        assert!(err.starts_with("table of contents: entry 2: "), "{err}");
        // Order: an (empty) probe section after the client section.
        let meta_only = encode(&Dataset {
            networks: mixed_dataset().networks,
            ..Dataset::default()
        });
        let meta = toc(&meta_only).unwrap().swap_remove(0);
        let end = meta.offset + meta.len;
        let mut order = meta_only[..end as usize].to_vec();
        let empty = |kind, phy| TocEntry {
            kind,
            phy,
            networks: (NetworkId(0), NetworkId(0)),
            offset: end,
            len: 0,
            records: 0,
            obs: 0,
            checksum: 0,
        };
        for e in [
            meta,
            empty(SectionKind::Clients, None),
            empty(SectionKind::Probes, Some(Phy::Bg)),
        ] {
            e.put(&mut order);
        }
        order.put_u32_le(3);
        order.put_u64_le(0);
        order.put_u32_le(MAGIC);
        reseal(&mut order);
        let err = invalid(order, Sections::all());
        assert!(
            err.contains("entry 2: a probes section out of order"),
            "{err}"
        );
        // Counts the length cannot hold.
        let mut counts = raw;
        let e = entry_at(&counts, 3);
        let recs = u64_at(&counts, e + 26) + 1;
        counts[e + 26..e + 34].copy_from_slice(&recs.to_le_bytes());
        reseal(&mut counts);
        let err = invalid(counts, Sections::all());
        assert!(err.contains("entry 3: "), "{err}");
        assert!(err.contains("cannot hold"), "{err}");
    }

    #[test]
    fn rejects_bad_magic() {
        let mut raw = encode(&sample_dataset()).to_vec();
        raw[..4].copy_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        let err = invalid(raw, Sections::all());
        assert!(err.starts_with("header: bad magic"), "{err}");
    }

    #[test]
    fn rejects_version_1_with_a_way_out() {
        // A v1 file: header, then count-prefixed networks, horizons, probes
        // and clients.
        let mut b = BytesMut::new();
        b.put_u32_le(MAGIC);
        b.put_u16_le(1);
        b.put_u32_le(0);
        b.put_f64_le(86_400.0);
        b.put_f64_le(39_600.0);
        b.put_u64_le(0);
        b.put_u64_le(0);
        let err = decode(b.freeze()).expect_err("v1 file");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("version 1"), "{msg}");
        assert!(msg.contains("re-run `mesh11 simulate`"), "{msg}");

        let mut raw = encode(&sample_dataset()).to_vec();
        raw[4..6].copy_from_slice(&99u16.to_le_bytes());
        let err = invalid(raw, Sections::all());
        assert!(err.contains("unsupported M11T version 99"), "{err}");
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let full = encode(&mixed_dataset());
        // Every proper prefix must fail cleanly, never panic, and say the
        // header or table of contents is missing.
        for cut in 0..full.len() {
            let err = decode(full.slice(0..cut)).expect_err("prefix decoded");
            let msg = err.to_string();
            assert!(
                msg.starts_with("header: ") || msg.starts_with("table of contents: "),
                "prefix of {cut}: {msg}"
            );
        }
    }

    /// Where byte `i` of an encoded file lies, as the decoder names it.
    fn place_of(raw: &[u8], i: usize) -> String {
        if i < HEADER_LEN {
            return "header: ".into();
        }
        toc(raw)
            .unwrap()
            .iter()
            .enumerate()
            .find(|(_, e)| (e.offset..e.offset + e.len).contains(&(i as u64)))
            .map_or("table of contents: ".into(), |(k, e)| {
                format!("section {k} ({}): ", e.label())
            })
    }

    #[test]
    fn every_flipped_byte_is_an_error_naming_its_place() {
        let full = encode(&mixed_dataset()).to_vec();
        for i in 0..full.len() {
            for x in [0x01, 0x80, 0xFF] {
                let mut raw = full.clone();
                raw[i] ^= x;
                let want = place_of(&full, i);
                let err = invalid(raw, Sections::all());
                assert!(err.starts_with(&want), "byte {i} ^ {x:#x}: {err}");
            }
        }
    }

    #[test]
    fn rejects_probe_set_without_observations() {
        let err = invalid(encode(&sample_with(Phy::Bg, &[])).to_vec(), Sections::all());
        assert!(
            err.contains("probe set 0 has no rate observations"),
            "{err}"
        );
    }

    #[test]
    fn rejects_non_finite_loss() {
        for loss in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut ds = sample_dataset();
            ds.probes.obs_mut(0)[1].loss = loss;
            let err = invalid(encode(&ds).to_vec(), Sections::all());
            assert!(err.contains("non-finite"), "{err}");
        }
    }

    #[test]
    fn rejects_non_finite_snr() {
        for snr_db in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut ds = sample_dataset();
            ds.probes.obs_mut(0)[0].snr_db = snr_db;
            let err = invalid(encode(&ds).to_vec(), Sections::all());
            assert!(err.contains("non-finite"), "{err}");
        }
    }

    #[test]
    fn rejects_non_finite_report_time() {
        // Plant the time in an otherwise valid file and reseal it, so the
        // record check, not a checksum, is what refuses it.
        for time_s in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut raw = encode(&sample_dataset()).to_vec();
            let probes = toc(&raw).unwrap()[1].clone();
            let at = probes.offset as usize + 5;
            raw[at..at + 8].copy_from_slice(&time_s.to_le_bytes());
            reseal(&mut raw);
            let err = invalid(raw, Sections::all());
            let want = format!(
                "section 1 ({}): probe set 0 has a non-finite report time",
                probes.label()
            );
            assert!(err.starts_with(&want), "{err}");
        }
    }

    #[test]
    fn rejects_rate_outside_the_sets_phy() {
        // Index 20 exists in the HT table only.
        let mut raw = encode(&sample_dataset()).to_vec();
        let probes = toc(&raw).unwrap()[1].clone();
        raw[probes.offset as usize + PROBE_LEN] = 20;
        reseal(&mut raw);
        let err = invalid(raw, Sections::all());
        assert!(err.contains("out of range"), "{err}");
    }

    /// Every selection, streamed at any budget, yields a shell and parts of
    /// whole consecutive networks whose rows concatenate to a whole
    /// load's; a damaged section fails the part holding it with the error
    /// a whole load gives, naming the section by its index in the file.
    #[test]
    fn parts_concatenate_to_a_whole_load() {
        let ds = mixed_dataset();
        let raw = encode(&ds);
        let phys = [vec![], vec![Phy::Bg], vec![Phy::Ht], vec![Phy::Bg, Phy::Ht]];
        for (clients, phys) in [false, true]
            .into_iter()
            .flat_map(|c| phys.clone().map(|p| (c, p)))
        {
            let sel = Sections { clients, phys };
            let whole = read(&raw[..], &sel).unwrap();
            for budget in [1, 200, PART_BUDGET] {
                let (shell, reader) = PartReader::new(Box::new(raw.clone()), &sel, budget).unwrap();
                let want_shell = Dataset {
                    probes: ProbeTable::new(),
                    ..whole.clone()
                };
                assert_eq!(shell, want_shell, "{sel:?} at {budget}");
                let parts: Vec<Part> = reader.parts().map(Result::unwrap).collect();
                let (mut networks, mut rows) = (Vec::new(), ProbeTable::new());
                for part in &parts {
                    assert_eq!(part.first_probe, rows.len(), "{sel:?} at {budget}");
                    assert!(part.dataset.clients.is_empty());
                    for p in part.dataset.probes.iter() {
                        assert!(part.dataset.meta(p.network).is_some(), "a whole network");
                        rows.push(p);
                    }
                    networks.extend(part.dataset.networks.iter().cloned());
                }
                assert_eq!(networks, ds.networks, "{sel:?} at {budget}");
                assert_eq!(rows, whole.probes, "{sel:?} at {budget}");
                if budget == 1 && sel.phys.contains(&Phy::Bg) {
                    assert_eq!(parts.len(), 2, "one network a part");
                }
            }
        }
        for damaged in [2, 3] {
            let mut bad = raw.to_vec();
            let e = toc(&bad).unwrap()[damaged].clone();
            bad[(e.offset + e.len / 2) as usize] ^= 0x10;
            let want = invalid(bad.clone(), Sections::all());
            assert!(
                want.starts_with(&format!(
                    "section {damaged} ({}): checksum mismatch",
                    e.label()
                )),
                "{want}"
            );
            let (_, reader) =
                PartReader::new(Box::new(Bytes::from(bad)), &Sections::all(), 1).unwrap();
            let got = reader.parts().find_map(Result::err).expect("a part fails");
            assert_eq!(got.kind(), io::ErrorKind::InvalidData);
            assert_eq!(got.to_string(), want);
        }
    }

    /// A file whose probe sections are not in network order streams as
    /// one part, so it reads as a whole load reads it.
    #[test]
    fn out_of_order_networks_stream_as_one_part() {
        let mut ds = mixed_dataset();
        let probes: Vec<Probe<'_>> = ds.probes.iter().collect();
        let mut swapped: Vec<Probe<'_>> = probes[5..].to_vec();
        swapped.extend_from_slice(&probes[..5]);
        ds.probes = swapped.into_iter().collect();
        let raw = encode(&ds);
        let (_, reader) = PartReader::new(Box::new(raw.clone()), &Sections::all(), 1).unwrap();
        assert_eq!(reader.len(), 1);
        let part = reader.part(0).unwrap();
        assert_eq!(
            part.dataset.probes,
            read(&raw[..], &Sections::all()).unwrap().probes
        );
        assert_eq!(part.dataset.networks, ds.networks);
    }

    #[test]
    fn file_round_trip_and_selective_load() {
        let ds = mixed_dataset();
        let dir = std::env::temp_dir().join("mesh11-codec-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("ds-{}.m11t", std::process::id()));
        save(&ds, &path).unwrap();
        assert_eq!(load(&path).unwrap(), ds);
        assert_eq!(load_toc(&path).unwrap(), toc(&encode(&ds)).unwrap());
        let ht = load_sections(
            &path,
            Sections {
                clients: true,
                phys: vec![Phy::Ht],
            },
        )
        .unwrap();
        assert_eq!(ht.clients, ds.clients);
        assert_eq!(
            ht.probes,
            ds.probes_for_phy(Phy::Ht).collect::<ProbeTable>()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sections_union() {
        let bg = Sections {
            clients: false,
            phys: vec![Phy::Bg],
        };
        let both = bg.clone().union(&Sections {
            clients: true,
            phys: vec![Phy::Ht, Phy::Bg],
        });
        assert_eq!(both, Sections::all());
        assert_eq!(Sections::default().union(&bg), bg);
    }

    #[test]
    fn binary_much_smaller_than_json() {
        // Several sections, so the table of contents is paid for too.
        let ds = mixed_dataset();
        let bin = encode(&ds).len();
        let json = serde_json::to_vec(&ds).unwrap().len();
        assert!(bin * 2 < json, "binary {bin} vs json {json}");
    }

    #[test]
    fn checksum_sees_every_bit_and_the_length() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 37 % 251) as u8).collect();
        let whole = checksum64(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut d = data.clone();
                d[i] ^= 1 << bit;
                assert_ne!(checksum64(&d), whole, "byte {i} bit {bit}");
            }
        }
        // Zero padding does not hide length.
        assert_ne!(checksum64(&[]), checksum64(&[0]));
        assert_ne!(checksum64(&[0; 31]), checksum64(&[0; 32]));
    }

    // -- spill codec v2 column primitives --

    use proptest::prelude::*;

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v));
            let mut r = buf.as_slice();
            assert_eq!(get_varint(&mut r).unwrap(), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            let mut r = &buf[..cut];
            assert!(get_varint(&mut r).is_err(), "prefix {cut}");
        }
        // 11 continuation bytes: more than a u64 can hold.
        let long = [0x80u8; 11];
        assert!(get_varint(&mut &long[..]).is_err());
        // 10th byte with payload bits above bit 63.
        let over = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02];
        assert!(get_varint(&mut &over[..]).is_err());
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 42, -42] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn small_domain_u32_column_bit_packs() {
        let vals: Vec<u32> = (0..4096).map(|i| 1000 + (i % 7)).collect();
        let mut buf = Vec::new();
        put_u32_col(&mut buf, &vals);
        assert_eq!(buf[0], COL_PACK);
        // 3-bit residuals: ~0.375 bytes per value instead of 4.
        assert!(buf.len() < vals.len(), "packed {} bytes", buf.len());
        let mut r = buf.as_slice();
        assert_eq!(get_u32_col(&mut r, vals.len()).unwrap(), vals);
        assert!(r.is_empty());
    }

    #[test]
    fn monotone_u32_column_deltas() {
        // A prefix table with small increments: delta varints win.
        let mut vals = vec![0u32];
        for i in 0..2000u32 {
            vals.push(vals.last().unwrap() + 8 + (i % 5));
        }
        let mut buf = Vec::new();
        put_u32_col(&mut buf, &vals);
        assert_eq!(buf[0], COL_DELTA);
        assert!(buf.len() < 2 * vals.len(), "delta {} bytes", buf.len());
        let mut r = buf.as_slice();
        assert_eq!(get_u32_col(&mut r, vals.len()).unwrap(), vals);
    }

    #[test]
    fn quantized_f64_column_uses_dictionary() {
        // Windowed loss shape: k/20 fractions, few distinct values.
        let vals: Vec<f64> = (0..8192).map(|i| (i % 21) as f64 / 20.0).collect();
        let mut buf = Vec::new();
        put_f64_col(&mut buf, &vals);
        assert_eq!(buf[0], COL_DICT);
        assert!(
            buf.len() < vals.len(),
            "dict column {} bytes for {} values",
            buf.len(),
            vals.len()
        );
        let mut r = buf.as_slice();
        let back = get_f64_col(&mut r, vals.len()).unwrap();
        assert!(back
            .iter()
            .zip(&vals)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn continuous_f64_column_stays_raw() {
        // Pseudo-continuous values (distinct mantissas): RAW must win.
        let vals: Vec<f64> = (0..2048)
            .map(|i| (i as f64).sin() * 40.0 + 1e-9 * i as f64)
            .collect();
        let mut buf = Vec::new();
        put_f64_col(&mut buf, &vals);
        assert_eq!(buf[0], COL_RAW);
        assert_eq!(buf.len(), 1 + 8 * vals.len());
    }

    proptest! {
        #[test]
        fn prop_u32_col_round_trips(vals in proptest::collection::vec(0u32..=u32::MAX, 0..300)) {
            let mut buf = Vec::new();
            put_u32_col(&mut buf, &vals);
            let mut r = buf.as_slice();
            prop_assert_eq!(get_u32_col(&mut r, vals.len()).unwrap(), vals);
            prop_assert!(r.is_empty(), "column over-reads or under-writes");
        }

        #[test]
        fn prop_u8_col_round_trips(vals in proptest::collection::vec(0u8..=u8::MAX, 0..300)) {
            let mut buf = Vec::new();
            put_u8_col(&mut buf, &vals);
            let mut r = buf.as_slice();
            prop_assert_eq!(get_u8_col(&mut r, vals.len()).unwrap(), vals);
            prop_assert!(r.is_empty());
        }

        #[test]
        fn prop_f64_col_round_trips_bits(bits in proptest::collection::vec(0u64..=u64::MAX, 0..300)) {
            // Arbitrary bit patterns: NaNs, infinities, subnormals — the
            // column must round-trip every one exactly.
            let vals: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
            let mut buf = Vec::new();
            put_f64_col(&mut buf, &vals);
            let mut r = buf.as_slice();
            let back = get_f64_col(&mut r, vals.len()).unwrap();
            prop_assert!(r.is_empty());
            prop_assert_eq!(back.len(), vals.len());
            for (a, b) in back.iter().zip(&vals) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        #[test]
        fn prop_monotone_f64_col_round_trips(
            start in -1.0e6f64..1.0e6,
            steps in proptest::collection::vec(0.0f64..400.0, 0..300),
        ) {
            // The report-time shape: non-decreasing ramps (DELTA territory).
            let mut t = start;
            let mut vals = vec![t];
            for s in steps {
                t += s;
                vals.push(t);
            }
            let mut buf = Vec::new();
            put_f64_col(&mut buf, &vals);
            let mut r = buf.as_slice();
            let back = get_f64_col(&mut r, vals.len()).unwrap();
            for (a, b) in back.iter().zip(&vals) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        #[test]
        fn prop_column_truncation_rejected(vals in proptest::collection::vec(0u32..=u32::MAX, 1..100)) {
            let mut buf = Vec::new();
            put_u32_col(&mut buf, &vals);
            for cut in 0..buf.len() {
                let mut r = &buf[..cut];
                prop_assert!(get_u32_col(&mut r, vals.len()).is_err(), "prefix {} decoded", cut);
            }
        }
    }
}
