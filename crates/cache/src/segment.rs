//! The on-disk record format and the in-memory index over it.
//!
//! A cache directory holds one append-only log of records,
//! [`LOG`] (`records.seg`), which every handle of every process appends
//! to through a descriptor opened with `O_APPEND`. A record is one
//! `write`: a 48-byte header, then the body bytes. The kernel serializes
//! appends to one file, so records of concurrent writers never
//! interleave, and a process allocates no file however many records it
//! stores.
//!
//! | bytes  | field                                                   |
//! |--------|---------------------------------------------------------|
//! | 0..4   | magic `ff 61 70 78` (`0xff` never occurs in UTF-8 text)  |
//! | 4      | kind: 1 = put (a blob), 2 = touch (a use of a blob), 3 = drop (an eviction) |
//! | 5..8   | zero                                                    |
//! | 8..24  | the key (`hi`, then `lo`, little-endian)                 |
//! | 24..32 | stamp: nanoseconds since the Unix epoch, strictly rising within a process; a drop carries the stamp of the put it evicts |
//! | 32..36 | body length (little-endian; 0 for a touch or a drop)    |
//! | 36..44 | checksum of the body                                    |
//! | 44..48 | checksum of bytes 0..44                                 |
//!
//! The newest put of a key (by stamp) is its live record, unless a drop
//! names that put; a key's recency is the newest stamp of its puts and
//! touches. The [`Store`] indexes records by streaming the log, so bodies
//! stay on disk until a lookup reads one. A scan verifies every record's
//! checksums and skips a torn or corrupt one up to the next valid header,
//! so one bad record never hides the records after it.
//!
//! Touches, drops and superseded puts are dead weight. A write that
//! leaves more dead bytes than live ones (and at least
//! [`COMPACT_FLOOR`]) compacts the log (see [`Store::bloated`]), so its
//! length, and the cost of a handle's first scan, stay within twice the
//! live records plus that floor.

use crate::{CacheKey, RecordKind};
use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

/// The file name of the record log inside a cache directory.
pub(crate) const LOG: &str = "records.seg";

/// Every header starts with these bytes.
const MAGIC: [u8; 4] = [0xFF, b'a', b'p', b'x'];

/// Bytes in a record header.
pub(crate) const HEADER_LEN: usize = 48;

/// Bytes a scan reads from disk at a time.
const WINDOW: usize = 32 << 10;

/// Dead bytes the log may hold however small its live records are, so a
/// small cache is not rewritten every few hits.
pub(crate) const COMPACT_FLOOR: u64 = 1 << 20;

/// What a record says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// A blob: the body is the value's pretty JSON plus a newline.
    Put = 1,
    /// A use of the key's blob, for LRU recency; no body.
    Touch = 2,
    /// The eviction of the key's put whose stamp the record carries; no
    /// body.
    Drop = 3,
}

/// One record header.
#[derive(Debug, Clone, Copy)]
struct Header {
    kind: Kind,
    key: CacheKey,
    stamp: u64,
    len: u32,
    check: u64,
}

/// The record checksum: a multiply–xorshift hash over 8-byte words. A
/// change to any one word always changes the result, since every step
/// is a bijection of the state.
fn checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = K ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("chunks_exact yields 8 bytes"));
        h = (h ^ word).wrapping_mul(K);
        h ^= h >> 32;
    }
    for &byte in words.remainder() {
        h = (h ^ u64::from(byte)).wrapping_mul(K);
        h ^= h >> 32;
    }
    h
}

impl Header {
    fn encode(&self) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        h[..4].copy_from_slice(&MAGIC);
        h[4] = self.kind as u8;
        h[8..16].copy_from_slice(&self.key.hi.to_le_bytes());
        h[16..24].copy_from_slice(&self.key.lo.to_le_bytes());
        h[24..32].copy_from_slice(&self.stamp.to_le_bytes());
        h[32..36].copy_from_slice(&self.len.to_le_bytes());
        h[36..44].copy_from_slice(&self.check.to_le_bytes());
        let own = checksum(&h[..44]) as u32;
        h[44..].copy_from_slice(&own.to_le_bytes());
        h
    }

    /// The header at the start of `h`, or `None` when those bytes are
    /// not an intact header.
    fn decode(h: &[u8]) -> Option<Header> {
        let field = |range: std::ops::Range<usize>| -> u64 {
            h[range]
                .iter()
                .rev()
                .fold(0, |acc, &b| acc << 8 | u64::from(b))
        };
        if h.len() < HEADER_LEN || h[..4] != MAGIC || h[5..8] != [0, 0, 0] {
            return None;
        }
        if field(44..48) != u64::from(checksum(&h[..44]) as u32) {
            return None;
        }
        let kind = match h[4] {
            1 => Kind::Put,
            2 => Kind::Touch,
            3 => Kind::Drop,
            _ => return None,
        };
        Some(Header {
            kind,
            key: CacheKey {
                hi: field(8..16),
                lo: field(16..24),
            },
            stamp: field(24..32),
            len: field(32..36) as u32,
            check: field(36..44),
        })
    }
}

/// A fresh stamp: the wall clock in nanoseconds, raised where needed so
/// stamps strictly rise within the process.
fn next_stamp() -> u64 {
    static LAST: AtomicU64 = AtomicU64::new(0);
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    let prev = LAST
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |prev| {
            Some(now.max(prev + 1))
        })
        .expect("the update closure always returns Some");
    now.max(prev + 1)
}

/// One whole record, ready to be appended in a single `write`.
fn encode_record(kind: Kind, key: CacheKey, stamp: u64, body: &[u8]) -> Option<Vec<u8>> {
    let header = Header {
        kind,
        key,
        stamp,
        len: u32::try_from(body.len()).ok()?,
        check: checksum(body),
    };
    let mut record = Vec::with_capacity(HEADER_LEN + body.len());
    record.extend_from_slice(&header.encode());
    record.extend_from_slice(body);
    Some(record)
}

#[cfg(unix)]
fn read_at(file: &File, buf: &mut [u8], pos: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, pos)
}

#[cfg(windows)]
fn read_at(file: &File, mut buf: &mut [u8], mut pos: u64) -> std::io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        match file.seek_read(buf, pos)? {
            0 => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            n => {
                buf = &mut buf[n..];
                pos += n as u64;
            }
        }
    }
    Ok(())
}

/// Whether the file behind `meta` has been unlinked: a `gc` replaced the
/// log or a `clear` removed it while a handle still held it open.
#[cfg(unix)]
fn unlinked(meta: &std::fs::Metadata) -> bool {
    std::os::unix::fs::MetadataExt::nlink(meta) == 0
}

#[cfg(not(unix))]
fn unlinked(_meta: &std::fs::Metadata) -> bool {
    false
}

/// Where a key's live blob sits in the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Loc {
    /// Offset of the body in the log.
    offset: u64,
    len: u32,
    check: u64,
    stamp: u64,
}

impl Loc {
    /// The body's size in bytes.
    pub(crate) fn len(&self) -> u64 {
        u64::from(self.len)
    }
}

/// Reads and verifies the body at `loc`; `None` when it is unreadable or
/// fails its checksum.
pub(crate) fn read_body(file: &File, loc: &Loc) -> Option<Vec<u8>> {
    read_verified(file, loc.offset, loc.len, loc.check)
}

fn read_verified(file: &File, offset: u64, len: u32, check: u64) -> Option<Vec<u8>> {
    let mut body = vec![0u8; len as usize];
    read_at(file, &mut body, offset).ok()?;
    (checksum(&body) == check).then_some(body)
}

/// Positioned reads of the log through a window buffer.
struct Reader<'a> {
    file: &'a File,
    end: u64,
    buf: Vec<u8>,
    start: u64,
}

impl Reader<'_> {
    /// `len` bytes at `pos`, or `None` past `end` or on a read error.
    fn bytes(&mut self, pos: u64, len: usize) -> Option<&[u8]> {
        let stop = pos
            .checked_add(len as u64)
            .filter(|&stop| stop <= self.end)?;
        if pos < self.start || stop > self.start + self.buf.len() as u64 {
            let want = usize::try_from(self.end - pos).map_or(WINDOW, |rest| rest.min(WINDOW));
            self.buf.resize(want.max(len), 0);
            if read_at(self.file, &mut self.buf, pos).is_err() {
                self.buf.clear();
                return None;
            }
            self.start = pos;
        }
        let at = (pos - self.start) as usize;
        Some(&self.buf[at..at + len])
    }

    fn header(&mut self, pos: u64) -> Option<Header> {
        self.bytes(pos, HEADER_LEN).and_then(Header::decode)
    }

    fn body_ok(&mut self, pos: u64, header: &Header) -> bool {
        self.bytes(pos, header.len as usize)
            .is_some_and(|body| checksum(body) == header.check)
    }

    /// The first intact header at or after `pos`.
    fn next_header(&mut self, mut pos: u64) -> Option<u64> {
        while pos + HEADER_LEN as u64 <= self.end {
            if self.header(pos).is_some() {
                return Some(pos);
            }
            pos += 1;
        }
        None
    }
}

/// Streams the records of `file` between `from` and `end`, calling
/// `each` with every intact one and its body offset. Returns the offset
/// to resume from: the end of the last record, or the start of bytes
/// that may still become a record.
///
/// A record is intact when its header and its body pass their checksums.
/// A torn or corrupt record is skipped up to the next intact header; one
/// with no intact header after it may still be being written, so the
/// next scan resumes there.
fn scan(file: &File, from: u64, end: u64, mut each: impl FnMut(&Header, u64)) -> u64 {
    let mut reader = Reader {
        file,
        end,
        buf: Vec::new(),
        start: 0,
    };
    let mut pos = from;
    while pos + HEADER_LEN as u64 <= end {
        let resync = match reader.header(pos) {
            Some(header) => {
                let body = pos + HEADER_LEN as u64;
                let next = body + u64::from(header.len);
                if next <= end && reader.body_ok(body, &header) {
                    each(&header, body);
                    pos = next;
                    continue;
                }
                body
            }
            None => pos + 1,
        };
        match reader.next_header(resync) {
            Some(later) => pos = later,
            None => break,
        }
    }
    pos
}

/// One handle's index over a cache directory's log.
#[derive(Debug, Default)]
pub(crate) struct Store {
    loaded: bool,
    /// The log, once it exists; opened for reading and appending.
    file: Option<Arc<File>>,
    /// Where the next scan resumes.
    scanned: u64,
    /// The log's length at the last scan; an unchanged length needs none.
    seen_len: u64,
    /// The live blob of every key.
    index: HashMap<CacheKey, Loc>,
    /// The newest stamp of every key: its records', or a later in-process
    /// hit's.
    recency: HashMap<CacheKey, u64>,
    /// Total body bytes of the live blobs.
    live_bytes: u64,
    /// Keys this handle has written a touch record for.
    touched: HashSet<CacheKey>,
}

impl Store {
    /// Live blobs and their total bytes.
    pub(crate) fn size(&self) -> (u64, u64) {
        (self.index.len() as u64, self.live_bytes)
    }

    /// Whether the log holds more dead bytes (touches, drops, superseded
    /// and corrupt records) than live ones, and at least
    /// [`COMPACT_FLOOR`]: time to compact.
    pub(crate) fn bloated(&self) -> bool {
        let live = self.live_bytes + HEADER_LEN as u64 * self.index.len() as u64;
        self.seen_len.saturating_sub(live) > live.max(COMPACT_FLOOR)
    }

    /// The live blob of `key`: the log and the blob's location in it.
    pub(crate) fn get(&self, key: &CacheKey) -> Option<(Arc<File>, Loc)> {
        let loc = self.index.get(key)?;
        Some((Arc::clone(self.file.as_ref()?), *loc))
    }

    /// Every live blob, least recently used first (ties by key).
    pub(crate) fn by_recency(&self) -> Vec<(CacheKey, Loc)> {
        let mut live: Vec<(u64, CacheKey, Loc)> = self
            .index
            .iter()
            .map(|(key, loc)| (self.recency.get(key).copied().unwrap_or(0), *key, *loc))
            .collect();
        live.sort_unstable_by_key(|&(recency, key, _)| (recency, key));
        live.into_iter().map(|(_, key, loc)| (key, loc)).collect()
    }

    /// Brings the index up to date with `dir`: reads the log from where
    /// the last scan stopped, when it grew. One `fstat` when nothing
    /// changed. A log that was replaced or removed (a `gc` or `clear`
    /// elsewhere) is reopened and indexed from scratch.
    pub(crate) fn refresh(&mut self, dir: &Path) {
        if self.loaded {
            let meta = self.file.as_ref().map(|file| file.metadata());
            match meta {
                Some(Ok(meta)) if !unlinked(&meta) => {
                    if meta.len() != self.seen_len {
                        self.scan_to(meta.len());
                    }
                    return;
                }
                // no log yet: a cheap failed open until one appears
                None => {}
                Some(_) => self.reset(),
            }
        }
        self.loaded = true;
        let path = dir.join(LOG);
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&path)
            .or_else(|_| File::open(&path));
        if let Ok(file) = file {
            let len = file.metadata().map_or(0, |m| m.len());
            self.file = Some(Arc::new(file));
            self.scan_to(len);
        }
    }

    /// Loads the index on first use.
    pub(crate) fn ensure_loaded(&mut self, dir: &Path) {
        if !self.loaded {
            self.refresh(dir);
        }
    }

    /// Forgets everything known about the log.
    fn reset(&mut self) {
        *self = Store {
            touched: std::mem::take(&mut self.touched),
            loaded: true,
            ..Store::default()
        };
    }

    /// Indexes the log from where the last scan stopped up to `len`.
    fn scan_to(&mut self, len: u64) {
        let Some(file) = self.file.clone() else {
            return;
        };
        if len < self.scanned {
            // the log shrank (truncated by hand): index it afresh
            self.reset();
            self.file = Some(Arc::clone(&file));
        }
        self.scanned = scan(&file, self.scanned, len, |header, body| {
            self.apply(header, body);
        });
        self.seen_len = len;
    }

    /// Indexes one record whose body starts at `body`.
    fn apply(&mut self, header: &Header, body: u64) {
        if header.kind == Kind::Drop {
            if let Some(loc) = self.index.get(&header.key).copied() {
                if loc.stamp == header.stamp {
                    self.index.remove(&header.key);
                    self.live_bytes -= loc.len();
                }
            }
            return;
        }
        let recency = self.recency.entry(header.key).or_insert(0);
        *recency = (*recency).max(header.stamp);
        if header.kind != Kind::Put {
            return;
        }
        let loc = Loc {
            offset: body,
            len: header.len,
            check: header.check,
            stamp: header.stamp,
        };
        match self.index.get_mut(&header.key) {
            Some(old) if old.stamp > loc.stamp => {}
            Some(old) => {
                self.live_bytes = self.live_bytes - old.len() + loc.len();
                *old = loc;
            }
            None => {
                self.live_bytes += loc.len();
                self.index.insert(header.key, loc);
            }
        }
    }

    /// Forgets `key`'s blob at `loc`, which failed to read or verify, so
    /// it counts as absent until a put replaces it.
    pub(crate) fn forget(&mut self, key: &CacheKey, loc: &Loc) {
        if self.index.get(key) == Some(loc) {
            self.index.remove(key);
            self.live_bytes -= loc.len();
        }
    }

    /// Records a hit on `key`: the first hit per key writes a touch
    /// record, later ones only move the in-memory recency. Returns
    /// whether a record was written.
    pub(crate) fn touch(&mut self, dir: &Path, key: CacheKey) -> bool {
        let wrote = self.touched.insert(key) && self.append(dir, Kind::Touch, key, &[]);
        if !wrote {
            self.recency.insert(key, next_stamp());
        }
        wrote
    }

    /// Appends one record, freshly stamped, to the log, and indexes it.
    /// Returns whether it landed.
    pub(crate) fn append(&mut self, dir: &Path, kind: Kind, key: CacheKey, body: &[u8]) -> bool {
        encode_record(kind, key, next_stamp(), body).is_some_and(|record| self.write(dir, &record))
    }

    /// Evicts `victims` by appending one drop record each, in one write.
    /// Returns how many of them the index no longer holds.
    pub(crate) fn evict(&mut self, dir: &Path, victims: &[(CacheKey, Loc)]) -> u64 {
        let records: Vec<u8> = victims
            .iter()
            .filter_map(|(key, loc)| encode_record(Kind::Drop, *key, loc.stamp, &[]))
            .flatten()
            .collect();
        if !records.is_empty() {
            self.write(dir, &records);
        }
        victims
            .iter()
            .filter(|(key, loc)| self.index.get(key) != Some(loc))
            .count() as u64
    }

    /// Appends `records` to the log in one write, creating the log when
    /// there is none, then indexes everything up to the new end, other
    /// handles' records included. Returns whether the records landed.
    ///
    /// After the write the log's link count is checked: zero means a
    /// `gc` replaced the log or a `clear` removed it, and the records may
    /// have gone with it, so they are written again into the current
    /// log. A `gc` reads the old log's tail once more after replacing
    /// it, so every write is either in that tail or seen as unlinked
    /// here.
    fn write(&mut self, dir: &Path, records: &[u8]) -> bool {
        for _ in 0..2 {
            if self.file.is_none() {
                let created = std::fs::create_dir_all(dir).and_then(|()| {
                    OpenOptions::new()
                        .read(true)
                        .append(true)
                        .create(true)
                        .open(dir.join(LOG))
                });
                let Ok(file) = created else {
                    return false;
                };
                self.reset();
                self.file = Some(Arc::new(file));
            }
            let file = Arc::clone(self.file.as_ref().expect("opened above"));
            let Ok(meta) = (&*file).write_all(records).and_then(|()| file.metadata()) else {
                return false;
            };
            if unlinked(&meta) {
                self.file = None;
                continue;
            }
            if meta.len() < self.scanned + records.len() as u64 {
                // the log shrank (truncated by hand): index it afresh
                self.reset();
                self.file = Some(file);
            }
            self.scan_to(meta.len());
            return true;
        }
        false
    }

    /// Deletes the log and every loose blob of the old file-per-blob
    /// layout, then forgets them. Returns the live blobs removed.
    pub(crate) fn clear(&mut self, dir: &Path) -> usize {
        self.refresh(dir);
        let removed = self.index.len();
        std::fs::remove_file(dir.join(LOG)).ok();
        remove_loose_blobs(dir);
        self.reset();
        removed
    }

    /// Rewrites `survivors` (least recently used first) into a fresh log,
    /// each stamped with its recency, and renames it over the old one.
    /// Records other handles appended since the last scan are carried
    /// over from the old log's tail after the rename. Returns the blobs
    /// and bytes rewritten; a survivor whose body no longer verifies is
    /// dropped. When the fresh log cannot be written, the old one stays.
    pub(crate) fn compact(&mut self, dir: &Path, survivors: &[(CacheKey, Loc)]) -> (u64, u64) {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let Some(old) = self.file.clone() else {
            return (0, 0);
        };
        let tmp = dir.join(format!(
            "{LOG}.tmp.{}.{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let Ok(fresh) = OpenOptions::new()
            .read(true)
            .append(true)
            .create_new(true)
            .open(&tmp)
        else {
            return self.size();
        };
        let mut out = std::io::BufWriter::new(&fresh);
        let (mut blobs, mut bytes) = (0, 0);
        let mut wrote = true;
        for (key, loc) in survivors {
            let Some(body) = read_body(&old, loc) else {
                continue;
            };
            let stamp = self.recency.get(key).copied().unwrap_or(loc.stamp);
            let Some(record) = encode_record(Kind::Put, *key, stamp, &body) else {
                continue;
            };
            wrote &= out.write_all(&record).is_ok();
            blobs += 1;
            bytes += loc.len();
        }
        wrote &= out.flush().is_ok();
        drop(out);
        if !wrote || std::fs::rename(&tmp, dir.join(LOG)).is_err() {
            // a partial compaction must not replace the only copies
            std::fs::remove_file(&tmp).ok();
            return self.size();
        }
        let end = old.metadata().map_or(0, |m| m.len());
        let mut late = Vec::new();
        scan(&old, self.scanned, end, |header, body| {
            late.push((*header, body));
        });
        for (header, at) in late {
            let record = read_verified(&old, at, header.len, header.check)
                .and_then(|body| encode_record(header.kind, header.key, header.stamp, &body));
            if let Some(record) = record {
                (&fresh).write_all(&record).ok();
            }
        }
        self.reset();
        let len = fresh.metadata().map_or(0, |m| m.len());
        self.file = Some(Arc::new(fresh));
        self.scan_to(len);
        (blobs, bytes)
    }
}

/// Deletes the `<key>.json` blobs of the old file-per-blob layout, which
/// this store never reads.
pub(crate) fn remove_loose_blobs(dir: &Path) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        if crate::classify(&entry.path()) == RecordKind::Blob {
            std::fs::remove_file(entry.path()).ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> CacheKey {
        CacheKey { hi: n, lo: !n }
    }

    #[test]
    fn headers_round_trip_and_reject_any_flipped_byte() {
        let record = encode_record(Kind::Put, key(7), 42, b"{\"a\": 1}\n").unwrap();
        let header = Header::decode(&record).unwrap();
        assert_eq!(
            (header.kind, header.key, header.stamp, header.len),
            (Kind::Put, key(7), 42, 9)
        );
        assert_eq!(header.check, checksum(b"{\"a\": 1}\n"));
        for i in 0..HEADER_LEN {
            let mut bad = record.clone();
            bad[i] ^= 0x10;
            assert!(Header::decode(&bad).is_none(), "flipped byte {i} decoded");
        }
    }

    #[test]
    fn checksums_see_every_word_and_the_length() {
        let body = b"0123456789abcdefghij".to_vec();
        let base = checksum(&body);
        for i in 0..body.len() {
            let mut bad = body.clone();
            bad[i] ^= 1;
            assert_ne!(checksum(&bad), base, "flipped byte {i}");
        }
        assert_ne!(checksum(&body[..19]), base);
        assert_ne!(checksum(&[]), checksum(&[0]));
    }

    #[test]
    fn stamps_strictly_rise() {
        let a = next_stamp();
        let b = next_stamp();
        assert!(b > a);
    }

    #[test]
    fn a_drop_evicts_only_the_put_it_names() {
        let mut store = Store::default();
        let put = |stamp| encode_record(Kind::Put, key(1), stamp, b"1\n").unwrap();
        let drop = |stamp| encode_record(Kind::Drop, key(1), stamp, &[]).unwrap();
        for (record, live) in [
            (put(10), true),
            (drop(9), true),
            (drop(10), false),
            (put(20), true),
            (drop(10), true),
        ] {
            let header = Header::decode(&record).unwrap();
            store.apply(&header, HEADER_LEN as u64);
            assert_eq!(store.index.contains_key(&key(1)), live);
        }
        assert_eq!(store.size(), (1, 2));
    }
}
