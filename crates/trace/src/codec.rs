//! Compact binary dataset codec.
//!
//! JSON (see [`crate::dataset::Dataset::save_json`]) is the interchange
//! format; this codec is the fast path for large campaign exports — a probe
//! set costs ~25 bytes plus 17 per rate observation, roughly 10× smaller
//! than JSON and with no parsing ambiguity. The writer streams through
//! [`bytes`]' `BufMut`. The reader parses a borrowed slice, or a file
//! through a small window, with one length check per fixed-size record,
//! and rejects records the analyses cannot take (a probe set without
//! observations, a non-finite loss or SNR).
//!
//! Format (little-endian):
//!
//! ```text
//! magic  u32  "M11T" (0x4D313154)
//! ver    u16  1
//! networks, horizons, probes, clients — count-prefixed records
//! probe  network u32, phy u8, time f64, sender u32, receiver u32,
//!        n_obs u8, then n_obs × (rate index u8, loss f64, snr f64)
//! ```

use bytes::{BufMut, Bytes, BytesMut};
use mesh11_phy::Phy;
use std::io;

use crate::client::ClientSample;
use crate::dataset::{Dataset, NetworkMeta};
use crate::ids::{ApId, ClientId, EnvLabel, NetworkId};
use crate::probe::{Probe, ProbeTable, RateObs};

const MAGIC: u32 = 0x4D31_3154;
const VERSION: u16 = 1;

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

/// Writes the binary form through `w` record by record, so peak memory is
/// one record's scratch buffer rather than the whole serialized dataset
/// (the old `encode`-then-write path doubled a large dataset's RSS).
pub fn write_to<W: io::Write>(ds: &Dataset, w: &mut W) -> io::Result<()> {
    let mut scratch = BytesMut::with_capacity(4096);
    scratch.put_u32_le(MAGIC);
    scratch.put_u16_le(VERSION);

    scratch.put_u32_le(ds.networks.len() as u32);
    for m in &ds.networks {
        put_network(&mut scratch, m);
        if scratch.len() >= 64 * 1024 {
            w.write_all(&scratch)?;
            scratch.clear();
        }
    }

    scratch.put_f64_le(ds.probe_horizon_s);
    scratch.put_f64_le(ds.client_horizon_s);

    scratch.put_u64_le(ds.probes.len() as u64);
    for p in &ds.probes {
        put_probe(&mut scratch, p);
        if scratch.len() >= 64 * 1024 {
            w.write_all(&scratch)?;
            scratch.clear();
        }
    }

    scratch.put_u64_le(ds.clients.len() as u64);
    for c in &ds.clients {
        put_client(&mut scratch, c);
        if scratch.len() >= 64 * 1024 {
            w.write_all(&scratch)?;
            scratch.clear();
        }
    }
    w.write_all(&scratch)
}

/// Encodes a dataset to bytes (in-memory convenience; large exports should
/// prefer [`save`], which streams).
pub fn encode(ds: &Dataset) -> Bytes {
    let mut buf = Vec::with_capacity(64 + ds.probes.len() * 160 + ds.clients.len() * 32);
    write_to(ds, &mut buf).expect("Vec write cannot fail");
    Bytes::from(buf)
}

/// The decoder's input: a reader behind a reusable window. Records are
/// parsed from borrowed slices of the window, and a large file never sits
/// in memory whole next to the dataset decoded from it.
struct Input<R> {
    src: R,
    buf: Vec<u8>,
    /// Unread bytes are `buf[pos..end]`.
    pos: usize,
    end: usize,
    /// Unread bytes left in the whole input.
    left: u64,
}

impl<R: io::Read> Input<R> {
    /// Window size: far above the largest record (a network's location
    /// string, ≤ 64 KiB), small enough to stay in cache.
    const WINDOW: usize = 256 * 1024;

    fn new(src: R, len: u64) -> Self {
        Self {
            src,
            buf: vec![0; Self::WINDOW],
            pos: 0,
            end: 0,
            left: len,
        }
    }

    /// The next `n` unread bytes, fewer only where the input ends first.
    fn peek(&mut self, n: usize) -> io::Result<&[u8]> {
        if self.end - self.pos < n {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
            if self.buf.len() < n {
                self.buf.resize(n, 0);
            }
            while self.end < n {
                match self.src.read(&mut self.buf[self.end..]) {
                    Ok(0) => break,
                    Ok(k) => self.end += k,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(&self.buf[self.pos..self.end.min(self.pos + n)])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
        self.left = self.left.saturating_sub(n as u64);
    }

    /// Takes one fixed-size record: the single length check every field
    /// read inside the record relies on.
    fn record<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let bytes = self.peek(N)?;
        let rec: [u8; N] = bytes.try_into().map_err(|_| truncated(N, bytes.len()))?;
        self.consume(N);
        Ok(rec)
    }

    /// Takes a variable-length payload of `n` bytes and parses it with `f`.
    fn payload<T>(&mut self, n: usize, f: impl FnOnce(&[u8]) -> io::Result<T>) -> io::Result<T> {
        let bytes = self.peek(n)?;
        if bytes.len() < n {
            return Err(truncated(n, bytes.len()));
        }
        let out = f(bytes)?;
        self.consume(n);
        Ok(out)
    }

    /// Never trust a count for allocation: a count whose records (each at
    /// least `min_len` bytes) cannot fit in the unread input is corrupt
    /// and must not drive `with_capacity` into an abort.
    fn plausible(&self, count: u64, min_len: u64, what: &str) -> io::Result<usize> {
        if count > self.left / min_len {
            return Err(bad(format!("implausible {what} count {count}")));
        }
        Ok(count as usize)
    }
}

fn truncated(need: usize, have: usize) -> io::Error {
    bad(format!("truncated: need {need} bytes, have {have}"))
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

/// Decodes a dataset from bytes.
pub fn decode(buf: Bytes) -> io::Result<Dataset> {
    parse(Input::new(&buf[..], buf.len() as u64))
}

/// Parses the whole format. Each fixed-size record costs one length check;
/// every record is validated before it is kept, so a dataset that decodes
/// cannot panic the analyses: a probe set has at least one observation,
/// and every loss and SNR is finite.
fn parse(mut input: Input<impl io::Read>) -> io::Result<Dataset> {
    let head = input.record::<6>()?;
    if u32_at(&head, 0) != MAGIC {
        return Err(bad("bad magic".into()));
    }
    let ver = u16::from_le_bytes([head[4], head[5]]);
    if ver != VERSION {
        return Err(bad(format!("unsupported version {ver}")));
    }

    let count = u32_at(&input.record::<4>()?, 0);
    let n_networks = input.plausible(u64::from(count), 10, "network")?;
    let mut networks = Vec::with_capacity(n_networks);
    for _ in 0..n_networks {
        let r = input.record::<10>()?;
        let env = env_from_tag(r[4])?;
        let radios = input.payload(r[9] as usize, |b| {
            b.iter().map(|&t| phy_from_tag(t)).collect()
        })?;
        let loc_len = u16::from_le_bytes(input.record::<2>()?) as usize;
        let location = input.payload(loc_len, |b| {
            std::str::from_utf8(b)
                .map(str::to_owned)
                .map_err(|e| bad(format!("bad utf8 location: {e}")))
        })?;
        networks.push(NetworkMeta {
            id: NetworkId(u32_at(&r, 0)),
            env,
            n_aps: u32_at(&r, 5) as usize,
            radios,
            location,
        });
    }

    let r = input.record::<24>()?;
    let probe_horizon_s = f64_at(&r, 0);
    let client_horizon_s = f64_at(&r, 8);
    let n_probes = input.plausible(u64_at(&r, 16), 22, "probe")?;
    // Observations go straight into the table's one arena. Its capacity
    // comes from the bytes left, never from the header count: every
    // observation costs 17 bytes, so a corrupt count cannot reserve more
    // than the input could fill.
    let mut probes = ProbeTable::with_capacity(
        n_probes,
        (input.left.saturating_sub(n_probes as u64 * 22) / 17) as usize,
    );
    for k in 0..n_probes {
        let r = input.record::<22>()?;
        let phy = phy_from_tag(r[4])?;
        let n_obs = r[21] as usize;
        input.payload(n_obs * 17, |b| {
            let rates = phy.all_rates();
            for o in b.chunks_exact(17) {
                let idx = o[0] as usize;
                let rate = *rates
                    .get(idx)
                    .ok_or_else(|| bad(format!("rate index {idx} out of range for {phy}")))?;
                probes.push_obs(RateObs {
                    rate,
                    loss: f64_at(o, 1),
                    snr_db: f64_at(o, 9),
                });
            }
            Ok(())
        })?;
        probes.seal(
            NetworkId(u32_at(&r, 0)),
            phy,
            f64_at(&r, 5),
            ApId(u32_at(&r, 13)),
            ApId(u32_at(&r, 17)),
        );
        if let Some(e) = probes.get(k).record_error() {
            return Err(bad(format!("probe set {k} {e}")));
        }
    }

    let count = u64_at(&input.record::<8>()?, 0);
    let n_clients = input.plausible(count, 28, "client")?;
    let mut clients = Vec::with_capacity(n_clients);
    for _ in 0..n_clients {
        let r = input.record::<28>()?;
        clients.push(ClientSample {
            network: NetworkId(u32_at(&r, 0)),
            ap: ApId(u32_at(&r, 4)),
            client: ClientId(u32_at(&r, 8)),
            bin_start_s: f64_at(&r, 12),
            assoc_requests: u32_at(&r, 20),
            data_pkts: u32_at(&r, 24),
        });
    }

    Ok(Dataset {
        networks,
        probes,
        clients,
        probe_horizon_s,
        client_horizon_s,
    })
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

/// FNV-1a 64-bit hash — the spill-frame checksum. Not cryptographic; it
/// guards scratch-file integrity (truncation, bit rot, torn writes), not
/// adversaries.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
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
            "truncated column: need {n}, have {}",
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

/// Writes the binary form to a file through a streaming writer — the full
/// serialized buffer is never materialized.
pub fn save(ds: &Dataset, path: &std::path::Path) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = io::BufWriter::new(file);
    write_to(ds, &mut w)?;
    io::Write::flush(&mut w)
}

/// Reads the binary form from a file, streaming it through a small window
/// (same checks as [`decode`]).
pub fn load(path: &std::path::Path) -> io::Result<Dataset> {
    let file = std::fs::File::open(path)?;
    let len = file.metadata()?.len();
    parse(Input::new(file, len))
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

    #[test]
    fn round_trip() {
        let ds = sample_dataset();
        let bytes = encode(&ds);
        let back = decode(bytes).unwrap();
        assert_eq!(ds, back);
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
    fn rejects_bad_magic() {
        let mut b = BytesMut::new();
        b.put_u32_le(0xDEAD_BEEF);
        b.put_u16_le(VERSION);
        assert!(decode(b.freeze()).is_err());
    }

    #[test]
    fn rejects_bad_version() {
        let mut b = BytesMut::new();
        b.put_u32_le(MAGIC);
        b.put_u16_le(99);
        assert!(decode(b.freeze()).is_err());
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let full = encode(&sample_dataset());
        // Every proper prefix must fail cleanly, never panic.
        for cut in 0..full.len() {
            let prefix = full.slice(0..cut);
            assert!(decode(prefix).is_err(), "prefix of {cut} bytes decoded");
        }
    }

    #[test]
    fn rejects_bad_rate_index() {
        let ds = sample_with(Phy::Bg, &sample_dataset().probes.get(0).obs[..1]);
        let mut raw = BytesMut::from(&encode(&ds)[..]);
        // Find the rate-index byte and corrupt it. It sits right after the
        // probe header; rather than hand-computing, corrupt every byte and
        // require no panics (errors are fine, silent corruption of the rate
        // table is what the explicit bounds check prevents).
        for i in 0..raw.len() {
            let orig = raw[i];
            raw[i] = 0xFF;
            let _ = decode(Bytes::copy_from_slice(&raw)); // must not panic
            raw[i] = orig;
        }
    }

    fn assert_invalid(ds: &Dataset, what: &str) {
        let err = decode(encode(ds)).expect_err(what);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
    }

    #[test]
    fn rejects_probe_set_without_observations() {
        let ds = sample_with(Phy::Bg, &[]);
        assert_invalid(&ds, "zero-observation probe set");
    }

    #[test]
    fn rejects_non_finite_loss() {
        for loss in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut ds = sample_dataset();
            ds.probes.obs_mut(0)[1].loss = loss;
            assert_invalid(&ds, "non-finite loss");
        }
    }

    #[test]
    fn rejects_non_finite_snr() {
        for snr_db in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut ds = sample_dataset();
            ds.probes.obs_mut(0)[0].snr_db = snr_db;
            assert_invalid(&ds, "non-finite snr");
        }
    }

    #[test]
    fn rejects_rate_outside_the_sets_phy() {
        // Index 20 exists in the HT table only.
        let mut raw = encode(&sample_dataset()).to_vec();
        let probe_obs = raw.len() - 8 - 28 - 2 * 17;
        raw[probe_obs] = 20;
        let err = decode(Bytes::from(raw)).expect_err("b/g set with an HT rate index");
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn implausible_probe_count_is_an_error_not_an_abort() {
        // A header claiming 2^40 probe sets must be refused before any
        // allocation is sized from it.
        let mut b = BytesMut::new();
        b.put_u32_le(MAGIC);
        b.put_u16_le(VERSION);
        b.put_u32_le(0); // no networks
        b.put_f64_le(86_400.0);
        b.put_f64_le(39_600.0);
        b.put_u64_le(1 << 40);
        b.put_slice(&[0u8; 64]);
        let err = decode(b.freeze()).expect_err("2^40 probe sets in 64 bytes");
        assert!(err.to_string().contains("implausible probe count"), "{err}");
    }

    /// A reader that hands out at most 7 bytes per call and interrupts
    /// every other call: records straddle every refill boundary.
    struct Trickle<'a> {
        data: &'a [u8],
        calls: usize,
    }

    impl io::Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(2) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let n = out.len().min(7).min(self.data.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    fn parse_trickled(bytes: &[u8]) -> io::Result<Dataset> {
        let src = Trickle {
            data: bytes,
            calls: 0,
        };
        parse(Input::new(src, bytes.len() as u64))
    }

    #[test]
    fn windowed_reader_matches_slice_decode() {
        let mut ds = sample_dataset();
        let (head, obs) = (ds.probes[0].clone(), ds.probes.get(0).obs.to_vec());
        ds.probes = (0..50)
            .map(|i| Probe {
                time_s: head.time_s + f64::from(i),
                ..head.with_obs(&obs)
            })
            .collect();
        let full = encode(&ds);
        assert_eq!(parse_trickled(&full).unwrap(), ds);
        for cut in (0..full.len()).step_by(5) {
            assert!(parse_trickled(&full[..cut]).is_err(), "prefix {cut}");
        }
    }

    #[test]
    fn file_round_trip() {
        let ds = sample_dataset();
        let dir = std::env::temp_dir().join("mesh11-codec-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.m11t");
        save(&ds, &path).unwrap();
        assert_eq!(load(&path).unwrap(), ds);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_much_smaller_than_json() {
        let ds = sample_dataset();
        let bin = encode(&ds).len();
        let json = serde_json::to_vec(&ds).unwrap().len();
        assert!(bin * 2 < json, "binary {bin} vs json {json}");
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
