//! Compressed, spillable storage backing the model checker's reachable
//! closure.
//!
//! Three structures, all std-only:
//!
//! * [`ConfigStore`] — append-only store of count vectors, each kept as one
//!   sparse *key*: the vector's present states as `(gap, count)` varint
//!   pairs, with a per-vector byte offset so every key is directly
//!   addressable. A configuration of `n` agents has at most `n` present
//!   states, so a key is at most `2n` varints (a few bytes) however large the
//!   state space `k` is. The encoding is canonical, so two vectors are equal
//!   exactly when their keys are byte-equal — interning hashes and compares
//!   keys without decoding anything.
//! * [`HashIndex`] — open-addressing map from a key's hash to its dense id,
//!   confirming candidate hits through a caller-supplied equality test
//!   (byte equality of keys). This replaces `HashMap<Box<[u32]>, u32>`,
//!   whose boxed keys dominated the old explorer's memory.
//! * [`EdgeStore`] — CSR successor lists that transparently spill to a
//!   self-deleting temp file once the resident estimate passes
//!   `max_resident_bytes`. Offsets stay resident (8 bytes/state); edge
//!   records are 12 bytes on disk. [`EdgeStore::ordered`] materializes a
//!   sweep-ordered copy so each pass of the solve is one sequential scan.

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Resident bytes charged per CSR edge (a `(u32, u64)` with padding).
pub(crate) const EDGE_MEM_BYTES: usize = 16;

/// Bytes per edge record on disk: `u32` target + `u64` weight, little-endian.
const EDGE_DISK_BYTES: usize = 12;

fn write_varint(bytes: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        bytes.push(v as u8 | 0x80);
        v >>= 7;
    }
    bytes.push(v as u8);
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> u32 {
    let mut v = 0u32;
    let mut shift = 0;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= u32::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// Appends the canonical sparse key of `counts` to `key`: for every nonzero
/// coordinate in index order, the gap since the previous present index and
/// the count, both as LEB128 varints.
fn encode_key(counts: &[u32], key: &mut Vec<u8>) {
    let mut next = 0;
    for (i, &c) in counts.iter().enumerate() {
        if c != 0 {
            write_varint(key, (i - next) as u32);
            write_varint(key, c);
            next = i + 1;
        }
    }
}

/// A 64-bit hash of a key's bytes: eight bytes per multiply-rotate round,
/// then a Murmur-style avalanche so the low bits (used as the table index)
/// are well mixed.
fn hash_key(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ key.len() as u64;
    let mut chunks = key.chunks_exact(8);
    for chunk in &mut chunks {
        let w = u64::from_le_bytes(chunk.try_into().unwrap());
        h = (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
    }
    let mut tail = 0u64;
    for (i, &b) in chunks.remainder().iter().enumerate() {
        tail |= u64::from(b) << (8 * i);
    }
    h = (h ^ tail).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Append-only store of `k`-length count vectors as sparse, directly
/// addressable keys (see the module docs), addressed by dense id in
/// insertion order.
///
/// Interning goes through a reused *probe* key: [`ConfigStore::probe`]
/// encodes a vector once and returns the key's hash,
/// [`ConfigStore::find_probe`] confirms [`HashIndex`] hits by byte equality
/// with stored keys, and [`ConfigStore::push_probe`] appends the probe on a
/// miss.
pub(crate) struct ConfigStore {
    k: usize,
    /// Concatenated keys; key `id` is `bytes[offsets[id]..offsets[id + 1]]`.
    bytes: Vec<u8>,
    /// Byte offset of every key, plus the end of the last; starts `[0]`.
    offsets: Vec<u64>,
    /// The key most recently encoded by [`ConfigStore::probe`].
    probe: Vec<u8>,
}

impl ConfigStore {
    pub(crate) fn new(k: usize) -> Self {
        ConfigStore { k, bytes: Vec::new(), offsets: vec![0], probe: Vec::new() }
    }

    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The stored key of vector `id`.
    fn key(&self, id: u32) -> &[u8] {
        let id = id as usize;
        &self.bytes[self.offsets[id] as usize..self.offsets[id + 1] as usize]
    }

    /// Encodes `counts` (length `k`) as the probe key, returning its hash.
    pub(crate) fn probe(&mut self, counts: &[u32]) -> u64 {
        debug_assert_eq!(counts.len(), self.k);
        self.probe.clear();
        encode_key(counts, &mut self.probe);
        hash_key(&self.probe)
    }

    /// The id whose stored key equals the probe key, looked up in `index`
    /// under the probe's `hash`.
    pub(crate) fn find_probe(&self, index: &HashIndex, hash: u64) -> Option<u32> {
        index.lookup(hash, |id| self.key(id) == self.probe.as_slice())
    }

    /// Appends the probe key as the next vector, returning its id.
    pub(crate) fn push_probe(&mut self) -> u32 {
        let id = self.len() as u32;
        self.bytes.extend_from_slice(&self.probe);
        self.offsets.push(self.bytes.len() as u64);
        id
    }

    /// Appends a vector, returning its id.
    #[cfg(test)]
    pub(crate) fn push(&mut self, counts: &[u32]) -> u32 {
        self.probe(counts);
        self.push_probe()
    }

    /// Decodes vector `id` into `out` (length `k`): zero-fills, then
    /// scatters the key's `(gap, count)` pairs.
    pub(crate) fn get(&self, id: u32, out: &mut [u32]) {
        debug_assert!((id as usize) < self.len());
        debug_assert_eq!(out.len(), self.k);
        out.fill(0);
        let key = self.key(id);
        let (mut pos, mut next) = (0, 0);
        while pos < key.len() {
            let i = next + read_varint(key, &mut pos) as usize;
            out[i] = read_varint(key, &mut pos);
            next = i + 1;
        }
    }
}

const EMPTY: u32 = u32::MAX;

/// Open-addressing (linear probing) index from key hash to dense id.
/// Collisions are confirmed by the caller through the `eq` callback, which
/// compares the stored key with that id against the probe.
pub(crate) struct HashIndex {
    /// `(hash, id)` slots; `id == EMPTY` marks a free slot. Power-of-two
    /// length.
    slots: Vec<(u64, u32)>,
    len: usize,
}

impl HashIndex {
    pub(crate) fn new() -> Self {
        HashIndex { slots: vec![(0, EMPTY); 1024], len: 0 }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Looks up the id whose stored vector equals the probe (same hash and
    /// `eq(id)` true), or `None`.
    pub(crate) fn lookup(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let (h, id) = self.slots[i];
            if id == EMPTY {
                return None;
            }
            if h == hash && eq(id) {
                return Some(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts a `(hash, id)` pair the caller knows is absent.
    pub(crate) fn insert(&mut self, hash: u64, id: u32) {
        if (self.len + 1) * 10 >= self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        while self.slots[i].1 != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = (hash, id);
        self.len += 1;
    }

    fn grow(&mut self) {
        let doubled = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![(0, EMPTY); doubled]);
        let mask = self.slots.len() - 1;
        for (h, id) in old {
            if id == EMPTY {
                continue;
            }
            let mut i = h as usize & mask;
            while self.slots[i].1 != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = (h, id);
        }
    }
}

static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_path(dir: Option<&Path>, tag: &str) -> PathBuf {
    let dir = dir.map(Path::to_path_buf).unwrap_or_else(std::env::temp_dir);
    let c = SPILL_COUNTER.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("ppsim-mcheck-{}-{c}-{tag}.spill", std::process::id()))
}

/// A temp file deleted on drop.
pub(super) struct TempFile {
    path: PathBuf,
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

struct SpillFile {
    temp: TempFile,
    /// Present while the store is still being appended to; dropped (and
    /// flushed) by [`EdgeStore::seal`].
    writer: Option<BufWriter<File>>,
}

fn encode_edge(buf: &mut [u8], t: u32, w: u64) {
    buf[..4].copy_from_slice(&t.to_le_bytes());
    buf[4..12].copy_from_slice(&w.to_le_bytes());
}

fn decode_edges(bytes: &[u8], out: &mut Vec<(u32, u64)>) {
    out.clear();
    for rec in bytes.chunks_exact(EDGE_DISK_BYTES) {
        let t = u32::from_le_bytes(rec[..4].try_into().unwrap());
        let w = u64::from_le_bytes(rec[4..12].try_into().unwrap());
        out.push((t, w));
    }
}

/// CSR successor lists with transparent spill-to-disk: per-state
/// `(target, weight)` edge lists appended in state order. The offset table
/// always stays resident; edges move to a self-deleting temp file when their
/// resident footprint would exceed the configured bound.
pub(crate) struct EdgeStore {
    /// `offsets[s]..offsets[s + 1]` index state `s`'s edges; starts `[0]`.
    offsets: Vec<u64>,
    resident: Vec<(u32, u64)>,
    spill: Option<SpillFile>,
    max_resident_bytes: usize,
    spill_dir: Option<PathBuf>,
}

impl EdgeStore {
    pub(crate) fn new(max_resident_bytes: usize, spill_dir: Option<PathBuf>) -> Self {
        EdgeStore {
            offsets: vec![0],
            resident: Vec::new(),
            spill: None,
            max_resident_bytes,
            spill_dir,
        }
    }

    pub(crate) fn num_states(&self) -> usize {
        self.offsets.len() - 1
    }

    pub(crate) fn edge_count(&self) -> u64 {
        *self.offsets.last().unwrap()
    }

    pub(crate) fn is_spilled(&self) -> bool {
        self.spill.is_some()
    }

    /// Bytes written to the spill file: `edge_count * EDGE_DISK_BYTES` once
    /// spilled, zero while fully resident. Feeds the `mcheck.spill_bytes`
    /// telemetry counter.
    pub(crate) fn spilled_bytes(&self) -> u64 {
        if self.is_spilled() {
            self.edge_count() * EDGE_DISK_BYTES as u64
        } else {
            0
        }
    }

    fn degree(&self, s: usize) -> usize {
        (self.offsets[s + 1] - self.offsets[s]) as usize
    }

    /// Appends the edge list of the next state (state ids are assigned in
    /// call order), spilling first if the resident estimate would pass the
    /// bound.
    pub(crate) fn push_state(&mut self, edges: &[(u32, u64)]) -> io::Result<()> {
        if self.spill.is_none()
            && (self.resident.len() + edges.len()) * EDGE_MEM_BYTES > self.max_resident_bytes
        {
            self.activate_spill()?;
        }
        match &mut self.spill {
            Some(sp) => {
                let writer = sp.writer.as_mut().expect("pushing into a sealed edge store");
                let mut rec = [0u8; EDGE_DISK_BYTES];
                for &(t, w) in edges {
                    encode_edge(&mut rec, t, w);
                    writer.write_all(&rec)?;
                }
            }
            None => self.resident.extend_from_slice(edges),
        }
        let next = *self.offsets.last().unwrap() + edges.len() as u64;
        self.offsets.push(next);
        Ok(())
    }

    fn activate_spill(&mut self) -> io::Result<()> {
        let path = temp_path(self.spill_dir.as_deref(), "edges");
        let file = OpenOptions::new().create_new(true).read(true).write(true).open(&path)?;
        let temp = TempFile { path };
        let mut writer = BufWriter::new(file);
        let mut rec = [0u8; EDGE_DISK_BYTES];
        for &(t, w) in &self.resident {
            encode_edge(&mut rec, t, w);
            writer.write_all(&rec)?;
        }
        self.resident = Vec::new();
        self.spill = Some(SpillFile { temp, writer: Some(writer) });
        Ok(())
    }

    /// Flushes and closes the spill writer; must be called once after the
    /// last `push_state` and before any read.
    pub(crate) fn seal(&mut self) -> io::Result<()> {
        if let Some(sp) = &mut self.spill {
            if let Some(mut w) = sp.writer.take() {
                w.flush()?;
            }
        }
        Ok(())
    }

    /// The resident edge slice of a state; only valid while un-spilled.
    pub(crate) fn edges_resident(&self, s: usize) -> &[(u32, u64)] {
        debug_assert!(!self.is_spilled());
        &self.resident[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }

    /// Scans every state's edge list in state order — a slice walk when
    /// resident, one sequential file read when spilled.
    pub(crate) fn for_each_state(&self, mut f: impl FnMut(u32, &[(u32, u64)])) -> io::Result<()> {
        match &self.spill {
            None => {
                for s in 0..self.num_states() {
                    f(s as u32, self.edges_resident(s));
                }
            }
            Some(sp) => {
                debug_assert!(sp.writer.is_none(), "seal the store before scanning");
                let mut reader = BufReader::with_capacity(1 << 20, File::open(&sp.temp.path)?);
                let mut bytes: Vec<u8> = Vec::new();
                let mut edges: Vec<(u32, u64)> = Vec::new();
                for s in 0..self.num_states() {
                    let deg = self.degree(s);
                    bytes.resize(deg * EDGE_DISK_BYTES, 0);
                    reader.read_exact(&mut bytes)?;
                    decode_edges(&bytes, &mut edges);
                    f(s as u32, &edges);
                }
            }
        }
        Ok(())
    }

    /// Prepares repeated sweeps that visit states in `order`: free for a
    /// resident store, a one-time permuted temp-file copy (seek-read per
    /// state, sequential thereafter) when spilled.
    pub(crate) fn ordered<'a>(&'a self, order: &'a [u32]) -> io::Result<OrderedSweep<'a>> {
        let Some(sp) = &self.spill else {
            return Ok(OrderedSweep::Resident { store: self, order });
        };
        debug_assert!(sp.writer.is_none(), "seal the store before sweeping");
        let mut src = File::open(&sp.temp.path)?;
        let out_path = temp_path(self.spill_dir.as_deref(), "sweep");
        let out_file =
            OpenOptions::new().create_new(true).read(true).write(true).open(&out_path)?;
        let temp = TempFile { path: out_path };
        let mut writer = BufWriter::with_capacity(1 << 20, out_file);
        let mut bytes: Vec<u8> = Vec::new();
        for &s in order {
            let deg = self.degree(s as usize);
            bytes.resize(deg * EDGE_DISK_BYTES, 0);
            src.seek(SeekFrom::Start(self.offsets[s as usize] * EDGE_DISK_BYTES as u64))?;
            src.read_exact(&mut bytes)?;
            writer.write_all(&bytes)?;
        }
        writer.flush()?;
        drop(writer);
        Ok(OrderedSweep::Spilled { store: self, order, temp })
    }
}

/// Repeated in-order sweeps over an [`EdgeStore`]; see [`EdgeStore::ordered`].
pub(crate) enum OrderedSweep<'a> {
    Resident { store: &'a EdgeStore, order: &'a [u32] },
    Spilled { store: &'a EdgeStore, order: &'a [u32], temp: TempFile },
}

impl OrderedSweep<'_> {
    /// One sweep: calls `f(state, edges)` for every state in order.
    pub(crate) fn sweep(&self, mut f: impl FnMut(u32, &[(u32, u64)])) -> io::Result<()> {
        match self {
            OrderedSweep::Resident { store, order } => {
                for &s in *order {
                    f(s, store.edges_resident(s as usize));
                }
            }
            OrderedSweep::Spilled { store, order, temp } => {
                let mut reader = BufReader::with_capacity(1 << 20, File::open(&temp.path)?);
                let mut bytes: Vec<u8> = Vec::new();
                let mut edges: Vec<(u32, u64)> = Vec::new();
                for &s in *order {
                    let deg = store.degree(s as usize);
                    bytes.resize(deg * EDGE_DISK_BYTES, 0);
                    reader.read_exact(&mut bytes)?;
                    decode_edges(&bytes, &mut edges);
                    f(s, &edges);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    /// Bytes of the longest `u32` varint.
    const MAX_VARINT: usize = 5;

    /// A `k`-length vector drawn from `seed` (SplitMix64), mixing the cases
    /// the encoding distinguishes: mostly zeros, one-byte counts, multi-byte
    /// counts (≥ 128) and full-width words.
    fn vector_from(seed: u64, k: usize) -> Vec<u32> {
        let mut x = seed;
        (0..k)
            .map(|_| {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                match z % 8 {
                    0..=3 => 0,
                    4 | 5 => (z >> 8) as u32 % 128,
                    6 => 128 + (z >> 8) as u32 % 100_000,
                    _ => (z >> 32) as u32,
                }
            })
            .collect()
    }

    /// Random vectors plus the edge cases: all-zero, leading and trailing
    /// zeros around a lone nonzero, and all-nonzero multi-byte counts.
    fn vectors(seeds: &[u64], k: usize) -> Vec<Vec<u32>> {
        let mut vs: Vec<Vec<u32>> = seeds.iter().map(|&s| vector_from(s, k)).collect();
        vs.push(vec![0; k]);
        let mut lone = vec![0; k];
        lone[k / 2] = 300;
        vs.push(lone);
        let mut last = vec![0; k];
        last[k - 1] = 1;
        vs.push(last);
        vs.push((0..k as u32).map(|i| 128 + i * 1000).collect());
        vs
    }

    fn present(v: &[u32]) -> usize {
        v.iter().filter(|&&c| c != 0).count()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn get_inverts_push_in_random_access_order(
            k in 1usize..=64,
            seeds in proptest::collection::vec(any::<u64>(), 1..40),
            stride in 1usize..97,
        ) {
            let vs = vectors(&seeds, k);
            let mut store = ConfigStore::new(k);
            for (i, v) in vs.iter().enumerate() {
                prop_assert_eq!(store.push(v), i as u32);
            }
            prop_assert_eq!(store.len(), vs.len());
            let mut out = vec![u32::MAX; k];
            // Visit every id once in a scrambled order (stride walk mod a
            // prime larger than any length generated here).
            let mut visited = 0;
            for step in 0..101usize {
                let i = step * stride % 101;
                if i < vs.len() {
                    store.get(i as u32, &mut out);
                    prop_assert_eq!(&out, &vs[i], "vector {} roundtrips", i);
                    visited += 1;
                }
            }
            prop_assert_eq!(visited, vs.len());
        }

        #[test]
        fn keys_are_equal_exactly_when_vectors_are(
            k in 1usize..=64,
            seeds in proptest::collection::vec(0u64..6, 2..24),
        ) {
            // Few distinct seeds, so many pairs repeat.
            let vs = vectors(&seeds, k);
            let mut store = ConfigStore::new(k);
            for v in &vs {
                store.push(v);
            }
            for (a, va) in vs.iter().enumerate() {
                for (b, vb) in vs.iter().enumerate() {
                    prop_assert_eq!(
                        store.key(a as u32) == store.key(b as u32),
                        va == vb,
                        "vectors {} and {}",
                        a,
                        b
                    );
                }
            }
        }

        #[test]
        fn keys_are_sparse(
            k in 1usize..=64,
            seeds in proptest::collection::vec(any::<u64>(), 1..24),
        ) {
            let vs = vectors(&seeds, k);
            let mut store = ConfigStore::new(k);
            for (i, v) in vs.iter().enumerate() {
                store.push(v);
                let key = store.key(i as u32);
                prop_assert!(key.len() <= 2 * present(v) * MAX_VARINT);
                if v.iter().all(|&c| c < 128) {
                    // One byte per count, and per gap (gaps are below k ≤ 64).
                    prop_assert_eq!(key.len(), 2 * present(v));
                }
            }
        }
    }

    #[test]
    fn config_store_roundtrips_edge_cases() {
        // The fixed edge cases at the smallest and largest tested widths.
        for k in [1, 64] {
            let vs = vectors(&[1, 2, 3], k);
            let mut store = ConfigStore::new(k);
            for v in &vs {
                store.push(v);
            }
            let mut out = vec![7u32; k];
            for (i, v) in vs.iter().enumerate().rev() {
                store.get(i as u32, &mut out);
                assert_eq!(&out, v, "k = {k}, vector {i} roundtrips");
            }
            // The all-zero vector is the empty key.
            let zero = vs.iter().position(|v| v.iter().all(|&c| c == 0)).unwrap();
            assert!(store.key(zero as u32).is_empty());
        }
    }

    #[test]
    fn hash_index_distinguishes_collisions_by_content() {
        let mut store = ConfigStore::new(3);
        let mut index = HashIndex::new();
        let vs: Vec<[u32; 3]> = (0..500).map(|i| [i, 2 * i + 1, i % 7]).collect();
        for v in &vs {
            let h = store.probe(v);
            assert!(store.find_probe(&index, h).is_none());
            let id = store.push_probe();
            index.insert(h, id);
        }
        for (i, v) in vs.iter().enumerate() {
            let h = store.probe(v);
            assert_eq!(store.find_probe(&index, h), Some(i as u32));
        }
        assert_eq!(index.len(), vs.len());
    }

    #[test]
    fn forced_equal_hashes_resolve_by_key_bytes() {
        // Every vector filed under one hash: one probe chain, resolved only
        // by comparing stored keys with the probe key.
        const H: u64 = 0x5eed;
        let mut store = ConfigStore::new(4);
        let mut index = HashIndex::new();
        let vs: Vec<[u32; 4]> = (0..200).map(|i| [i % 3, 0, i / 3, 130 * (i % 2)]).collect();
        for v in &vs {
            store.probe(v);
            assert!(store.find_probe(&index, H).is_none());
            index.insert(H, store.push_probe());
        }
        for (i, v) in vs.iter().enumerate() {
            store.probe(v);
            assert_eq!(store.find_probe(&index, H), Some(i as u32));
        }
        store.probe(&[9, 9, 9, 9]);
        assert_eq!(store.find_probe(&index, H), None);
    }

    #[test]
    fn edge_store_spills_and_reads_back_identically() {
        let per_state: Vec<Vec<(u32, u64)>> =
            (0u32..40).map(|s| (0..s % 5).map(|t| (t, (s * 10 + t) as u64)).collect()).collect();
        // Resident reference.
        let mut resident = EdgeStore::new(usize::MAX, None);
        // Tiny budget: spills after a handful of edges.
        let mut spilled = EdgeStore::new(4 * EDGE_MEM_BYTES, None);
        for edges in &per_state {
            resident.push_state(edges).unwrap();
            spilled.push_state(edges).unwrap();
        }
        resident.seal().unwrap();
        spilled.seal().unwrap();
        assert!(!resident.is_spilled());
        assert!(spilled.is_spilled());
        assert_eq!(resident.edge_count(), spilled.edge_count());

        let mut got: Vec<Vec<(u32, u64)>> = Vec::new();
        spilled
            .for_each_state(|s, edges| {
                assert_eq!(s as usize, got.len());
                got.push(edges.to_vec());
            })
            .unwrap();
        assert_eq!(got, per_state);

        // Ordered sweeps agree with the resident store under a shuffled order.
        let order: Vec<u32> = (0..40u32).rev().collect();
        let ordered = spilled.ordered(&order).unwrap();
        let mut got_ordered: Vec<(u32, Vec<(u32, u64)>)> = Vec::new();
        ordered.sweep(|s, edges| got_ordered.push((s, edges.to_vec()))).unwrap();
        // Sweeps are repeatable.
        let mut again: Vec<(u32, Vec<(u32, u64)>)> = Vec::new();
        ordered.sweep(|s, edges| again.push((s, edges.to_vec()))).unwrap();
        assert_eq!(got_ordered, again);
        for (s, edges) in &got_ordered {
            assert_eq!(edges, &per_state[*s as usize]);
        }
    }

    #[test]
    fn spill_files_are_deleted_on_drop() {
        let dir = std::env::temp_dir();
        let before: Vec<_> = spill_files_in(&dir);
        {
            let mut store = EdgeStore::new(0, None);
            store.push_state(&[(0, 1), (1, 2)]).unwrap();
            store.seal().unwrap();
            assert!(store.is_spilled());
            assert!(spill_files_in(&dir).len() > before.len());
        }
        assert_eq!(spill_files_in(&dir).len(), before.len());
    }

    fn spill_files_in(dir: &Path) -> Vec<PathBuf> {
        let pid = std::process::id().to_string();
        fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|f| f.to_str())
                    .is_some_and(|f| f.starts_with(&format!("ppsim-mcheck-{pid}-")))
            })
            .collect()
    }
}
