//! Write-ahead redo log with segment rotation, fuzzy checkpoints and
//! ARIES-lite recovery.
//!
//! The buffer in `asb-core` is a write-back cache: a buffered write
//! (`write_buffered`) only marks a frame dirty, and the store write happens
//! at eviction or flush. Between those two moments a crash silently loses
//! the update — unless the update was first made durable in a [`Wal`].
//! The protocol (*WAL-before-write-back*) is:
//!
//! 1. every logical page write appends a full-page **image record** to the
//!    log *before* the buffer applies it, and
//! 2. a page's store write-back may only happen after its image record —
//!    trivially satisfied because the append happens at write time.
//!
//! After a crash, [`Wal::recover_into`] replays image records onto the
//! surviving store, which both restores committed-but-unwritten updates and
//! repairs torn store writes (the full image overwrites the damaged page).
//!
//! # Record format
//!
//! The log is a byte stream of length-prefixed, checksummed records:
//!
//! ```text
//! [u32 len][u64 sum][payload]
//! ```
//!
//! all integers little-endian; `len` is the payload length and `sum` is
//! [`page_checksum`]`(payload)` — the log frames and the pages share one
//! checksum kernel. The payload starts with a one-byte kind tag:
//!
//! * `1` — **image**: `lsn:u64, page_id:u64, page_checksum:u64,
//!   type_tag:u8, level:u8, entry_count:u32, area:f64, margin:f64,
//!   overlap:f64, has_mbr:u8 [, x0:f64, y0:f64, x1:f64, y1:f64],
//!   data_len:u32, data bytes` — a full page image (metadata + payload +
//!   the page's own checksum, so a recovered page is bit-identical).
//! * `2` — **checkpoint**: `lsn:u64, redo_from:u64` — a fuzzy checkpoint
//!   (see below).
//!
//! A record whose length prefix overruns the log, or whose payload fails
//! the frame checksum, is a **torn tail**: the process died mid-append.
//! Recovery discards it and everything after it — a half-written record
//! was never committed, and nothing behind a damaged frame can be trusted
//! to start on a frame boundary.
//!
//! # Segments
//!
//! Records append to the *active* segment; once it exceeds
//! [`WalConfig::segment_bytes`] it is sealed and a new segment opens
//! (records never straddle segments). Sealed segments wholly below the
//! pruning threshold are dropped by [`Wal::prune_before`], bounding both
//! log size and redo work.
//!
//! # Fuzzy checkpoints
//!
//! A checkpoint does **not** flush the buffer. It records `redo_from` =
//! the minimum `rec_lsn` over the buffer's dirty frames (the LSN of the
//! oldest image record whose page has not yet reached the store), or the
//! next LSN if nothing is dirty. Recovery scans to the *last complete*
//! checkpoint and redoes every image record with `lsn >= redo_from`:
//! everything older is already durable in the store. The invariant that
//! makes this sound: a page's store write happens only while the process
//! is alive, so any write-back that could be torn postdates the last
//! checkpoint — and at that checkpoint the page was still dirty, keeping
//! its `rec_lsn` inside the redo window.

use std::sync::Arc;

use crate::sync::Mutex;
use bytes::Bytes;

use crate::crash::{CrashClock, CrashOp, WriteFate};
use crate::page::{page_checksum, Page, PageId, PageMeta, PageType};
use crate::store::PageStore;
use crate::{Result, StorageError};
use asb_geom::{Rect, SpatialStats};

/// Log sequence number: the position of a record in the write-ahead log.
/// LSNs are dense and increase by one per appended record (images and
/// checkpoints alike).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lsn(pub u64);

impl std::fmt::Display for Lsn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// A [`Wal`] shared between a buffer (or the shards of a pool) and its
/// owner; `asb-core` attaches this handle to `BufferManager`.
pub type SharedWal = Arc<Mutex<Wal>>;

/// Configuration of a [`Wal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    /// Size threshold (bytes) past which the active segment is sealed and
    /// a new one opened. A record larger than this gets its own segment.
    pub segment_bytes: usize,
}

impl Default for WalConfig {
    /// 64 KiB segments: a few dozen full-page image records each.
    fn default() -> Self {
        WalConfig {
            segment_bytes: 64 * 1024,
        }
    }
}

/// Counters of a [`Wal`]'s lifetime activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Image records appended.
    pub image_appends: u64,
    /// Checkpoint records appended.
    pub checkpoint_appends: u64,
    /// Segments sealed (rotated away from).
    pub segments_sealed: u64,
    /// Segments dropped by pruning.
    pub segments_pruned: u64,
    /// Total record bytes appended (complete records only).
    pub bytes_appended: u64,
}

/// A decoded log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A full page image appended before the buffer applied the write.
    Image {
        /// The record's log sequence number.
        lsn: Lsn,
        /// The page image (id, metadata, payload, original checksum).
        page: Page,
    },
    /// A fuzzy checkpoint bounding redo work.
    Checkpoint {
        /// The record's log sequence number.
        lsn: Lsn,
        /// Redo must start at this LSN (minimum dirty `rec_lsn` at
        /// checkpoint time).
        redo_from: Lsn,
    },
}

impl WalRecord {
    /// The record's LSN.
    pub fn lsn(&self) -> Lsn {
        match self {
            WalRecord::Image { lsn, .. } | WalRecord::Checkpoint { lsn, .. } => *lsn,
        }
    }
}

/// What recovery found and did; returned by [`Wal::recover_into`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Complete records decoded from the surviving log.
    pub records_scanned: u64,
    /// Image records whose page was rewritten to the store.
    pub images_redone: u64,
    /// Image records skipped because they predate the redo window.
    pub images_skipped: u64,
    /// LSN of the last complete checkpoint, if any survived.
    pub checkpoint_lsn: Option<Lsn>,
    /// First LSN of the redo window (`redo_from` of the last checkpoint,
    /// or the oldest surviving record when no checkpoint survived).
    pub redo_from: Option<Lsn>,
    /// Whether a torn (truncated or checksum-failing) tail was discarded.
    pub torn_tail_dropped: bool,
    /// Bytes discarded with the torn tail.
    pub torn_tail_bytes: u64,
}

struct Segment {
    /// LSN of the first record in this segment.
    first_lsn: Lsn,
    bytes: Vec<u8>,
}

/// The write-ahead log. See the module docs for format and semantics.
pub struct Wal {
    config: WalConfig,
    segments: Vec<Segment>,
    next_lsn: u64,
    last_checkpoint: Option<Lsn>,
    stats: WalStats,
    clock: Option<Arc<CrashClock>>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("segments", &self.segments.len())
            .field("next_lsn", &self.next_lsn)
            .field("last_checkpoint", &self.last_checkpoint)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Wal {
    /// An empty log.
    pub fn new(config: WalConfig) -> Self {
        Wal {
            config,
            segments: vec![Segment {
                first_lsn: Lsn(0),
                bytes: Vec::new(),
            }],
            next_lsn: 0,
            last_checkpoint: None,
            stats: WalStats::default(),
            clock: None,
        }
    }

    /// An empty log whose appends draw crash decisions from `clock`
    /// (shared with a [`CrashableStore`](crate::CrashableStore), so store
    /// writes and log appends form one global durable-event sequence).
    pub fn with_clock(config: WalConfig, clock: Arc<CrashClock>) -> Self {
        Wal {
            clock: Some(clock),
            ..Wal::new(config)
        }
    }

    /// Convenience: a fresh log wrapped for sharing with a buffer.
    pub fn shared(config: WalConfig) -> SharedWal {
        Arc::new(Mutex::new(Wal::new(config)))
    }

    /// Convenience: [`Wal::with_clock`] wrapped for sharing with a buffer.
    pub fn shared_with_clock(config: WalConfig, clock: Arc<CrashClock>) -> SharedWal {
        Arc::new(Mutex::new(Wal::with_clock(config, clock)))
    }

    /// The LSN the next appended record will receive.
    pub fn next_lsn(&self) -> Lsn {
        Lsn(self.next_lsn)
    }

    /// LSN of the last appended checkpoint record, if any.
    pub fn last_checkpoint(&self) -> Option<Lsn> {
        self.last_checkpoint
    }

    /// Lifetime activity counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Number of segments currently held (≥ 1; the last is active).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Total bytes currently held across all segments.
    pub fn len_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.bytes.len()).sum()
    }

    /// The log as one contiguous byte stream (segments concatenated in
    /// order) — what a diagnostic artifact dump writes out.
    pub fn dump_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len_bytes());
        for s in &self.segments {
            out.extend_from_slice(&s.bytes);
        }
        out
    }

    /// Appends a full-page image record, returning its LSN.
    ///
    /// With a crash clock attached this claims a durable-event index; a
    /// scheduled kill either drops the append entirely
    /// ([`CrashMode::Clean`](crate::CrashMode::Clean)) or leaves a
    /// truncated partial record
    /// ([`CrashMode::Torn`](crate::CrashMode::Torn)) before failing with
    /// [`StorageError::Crashed`].
    pub fn append_image(&mut self, page: &Page) -> Result<Lsn> {
        let lsn = Lsn(self.next_lsn);
        let payload = encode_image(lsn, page);
        let fate = match &self.clock {
            Some(clock) => clock.observe(CrashOp::WalAppend {
                page: Some(page.id),
            })?,
            None => WriteFate::Intact,
        };
        self.append_frame(&payload, fate)?;
        self.stats.image_appends += 1;
        Ok(lsn)
    }

    /// Appends a fuzzy-checkpoint record, returning its LSN. `redo_from`
    /// is the minimum dirty `rec_lsn` of the buffer (or
    /// [`next_lsn`](Wal::next_lsn) when nothing is dirty).
    pub fn append_checkpoint(&mut self, redo_from: Lsn) -> Result<Lsn> {
        let lsn = Lsn(self.next_lsn);
        let payload = encode_checkpoint(lsn, redo_from);
        let fate = match &self.clock {
            Some(clock) => clock.observe(CrashOp::WalAppend { page: None })?,
            None => WriteFate::Intact,
        };
        self.append_frame(&payload, fate)?;
        self.stats.checkpoint_appends += 1;
        self.last_checkpoint = Some(lsn);
        Ok(lsn)
    }

    /// Appends the framed record and advances the LSN; a torn fate leaves
    /// a truncated partial record and reports the crash.
    fn append_frame(&mut self, payload: &[u8], fate: WriteFate) -> Result<()> {
        let mut frame = Vec::with_capacity(12 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&page_checksum(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        let lsn = Lsn(self.next_lsn);
        // invariant: `segments` is non-empty from construction onward —
        // `Wal::new` seeds the first segment and sealing only ever pushes.
        #[allow(clippy::expect_used)]
        let active = (self.segments.last()).expect("a WAL always has an active segment");
        if !active.bytes.is_empty() && active.bytes.len() + frame.len() > self.config.segment_bytes
        {
            self.stats.segments_sealed += 1;
            self.segments.push(Segment {
                first_lsn: lsn,
                bytes: Vec::new(),
            });
        }
        // invariant: still non-empty — the branch above can only have pushed.
        #[allow(clippy::expect_used)]
        let active = self.segments.last_mut().expect("active segment");
        match fate {
            WriteFate::Intact => {
                active.bytes.extend_from_slice(&frame);
                self.next_lsn += 1;
                self.stats.bytes_appended += frame.len() as u64;
                Ok(())
            }
            WriteFate::Torn => {
                // The process dies mid-append: only a prefix of the frame
                // reaches durable state. Cut inside the payload so the
                // damage is checksum-detectable (a cut inside the length
                // prefix is detected as a truncated header instead).
                let cut = 12 + payload.len() / 2;
                active.bytes.extend_from_slice(&frame[..cut]);
                Err(StorageError::Crashed)
            }
        }
    }

    /// Drops sealed segments that lie entirely below `lsn` **and** below
    /// the last checkpoint record (which recovery must still find).
    /// Returns the number of segments dropped.
    pub fn prune_before(&mut self, lsn: Lsn) -> usize {
        let threshold = match self.last_checkpoint {
            Some(ckpt) => Lsn(lsn.0.min(ckpt.0)),
            None => return 0,
        };
        let mut dropped = 0;
        while self.segments.len() >= 2 && self.segments[1].first_lsn <= threshold {
            self.segments.remove(0);
            dropped += 1;
        }
        self.stats.segments_pruned += dropped as u64;
        dropped
    }

    /// Decodes every complete record in the log, in order, plus the number
    /// of torn-tail bytes discarded (zero for a cleanly ended log).
    ///
    /// A record that is truncated or fails its checksum ends the scan:
    /// it — and anything after it — was never durably committed.
    pub fn scan(&self) -> (Vec<WalRecord>, u64) {
        scan_frames(&self.dump_bytes())
    }

    /// ARIES-lite recovery: scans the surviving log, discards a torn tail,
    /// finds the last complete checkpoint and rewrites every image record
    /// with `lsn >= redo_from` onto `store`.
    ///
    /// Idempotent: recovering twice yields the same store state (redo
    /// rewrites full page images).
    pub fn recover_into<S: PageStore>(&self, store: &mut S) -> Result<RecoveryReport> {
        let (records, torn_bytes) = self.scan();
        let mut report = RecoveryReport {
            records_scanned: records.len() as u64,
            torn_tail_dropped: torn_bytes > 0,
            torn_tail_bytes: torn_bytes,
            ..RecoveryReport::default()
        };
        let mut redo_from = records.first().map(|r| r.lsn());
        for rec in &records {
            if let WalRecord::Checkpoint {
                lsn,
                redo_from: from,
            } = rec
            {
                report.checkpoint_lsn = Some(*lsn);
                redo_from = Some(*from);
            }
        }
        report.redo_from = redo_from;
        let Some(redo_from) = redo_from else {
            return Ok(report); // empty log: nothing to redo
        };
        for rec in &records {
            if let WalRecord::Image { lsn, page } = rec {
                if *lsn >= redo_from {
                    store.write(page.clone())?;
                    report.images_redone += 1;
                } else {
                    report.images_skipped += 1;
                }
            }
        }
        Ok(report)
    }
}

/// The frame scan behind [`Wal::scan`], over the raw log bytes: total on
/// arbitrary input — it stops at the first frame it cannot vouch for and
/// never indexes past what it has length-checked.
fn scan_frames(bytes: &[u8]) -> (Vec<WalRecord>, u64) {
    let mut records = Vec::new();
    let mut off = 0usize;
    while off < bytes.len() {
        let rest = bytes.len() - off;
        if rest < 12 {
            return (records, rest as u64);
        }
        let (Some(len), Some(sum)) = (
            le_u32(&bytes[off..off + 4]),
            le_u64(&bytes[off + 4..off + 12]),
        ) else {
            return (records, rest as u64);
        };
        let len = len as usize;
        if rest - 12 < len {
            return (records, rest as u64);
        }
        let payload = &bytes[off + 12..off + 12 + len];
        if page_checksum(payload) != sum {
            return (records, rest as u64);
        }
        match decode_record(payload) {
            Some(rec) => records.push(rec),
            // Checksum-valid but undecodable: not a torn tail but a
            // format error; stop scanning and drop the rest the same
            // way (recovery must never replay garbage).
            None => return (records, rest as u64),
        }
        off += 12 + len;
    }
    (records, 0)
}

/// Little-endian decode of exactly 4 bytes; `None` on any other length.
fn le_u32(bytes: &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(bytes.try_into().ok()?))
}

/// Little-endian decode of exactly 8 bytes; `None` on any other length.
fn le_u64(bytes: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.try_into().ok()?))
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn encode_image(lsn: Lsn, page: &Page) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + page.payload.len());
    out.push(1u8);
    put_u64(&mut out, lsn.0);
    put_u64(&mut out, page.id.raw());
    put_u64(&mut out, page.checksum());
    out.push(page.meta.page_type.tag());
    out.push(page.meta.level);
    put_u32(&mut out, page.meta.stats.entry_count);
    put_f64(&mut out, page.meta.stats.entry_area_sum);
    put_f64(&mut out, page.meta.stats.entry_margin_sum);
    put_f64(&mut out, page.meta.stats.entry_overlap);
    match page.meta.stats.mbr {
        Some(mbr) => {
            out.push(1u8);
            put_f64(&mut out, mbr.min.x);
            put_f64(&mut out, mbr.min.y);
            put_f64(&mut out, mbr.max.x);
            put_f64(&mut out, mbr.max.y);
        }
        None => out.push(0u8),
    }
    put_u32(&mut out, page.payload.len() as u32);
    out.extend_from_slice(&page.payload);
    out
}

fn encode_checkpoint(lsn: Lsn, redo_from: Lsn) -> Vec<u8> {
    let mut out = Vec::with_capacity(17);
    out.push(2u8);
    put_u64(&mut out, lsn.0);
    put_u64(&mut out, redo_from.0);
    out
}

/// Cursor over a record payload; every getter returns `None` on underrun.
struct Reader<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.off.checked_add(n)?;
        let s = self.bytes.get(self.off..end)?;
        self.off = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
}

fn decode_record(payload: &[u8]) -> Option<WalRecord> {
    let mut r = Reader {
        bytes: payload,
        off: 0,
    };
    match r.u8()? {
        1 => {
            let lsn = Lsn(r.u64()?);
            let id = PageId::new(r.u64()?);
            let checksum = r.u64()?;
            let page_type = PageType::from_tag(r.u8()?)?;
            let level = r.u8()?;
            let entry_count = r.u32()?;
            let entry_area_sum = r.f64()?;
            let entry_margin_sum = r.f64()?;
            let entry_overlap = r.f64()?;
            let mbr = match r.u8()? {
                0 => None,
                1 => Some(Rect::new(r.f64()?, r.f64()?, r.f64()?, r.f64()?)),
                _ => return None,
            };
            let data_len = r.u32()? as usize;
            let data = r.take(data_len)?;
            if r.off != payload.len() {
                return None; // trailing garbage inside a framed record
            }
            let meta = PageMeta {
                page_type,
                level,
                stats: SpatialStats {
                    mbr,
                    entry_count,
                    entry_area_sum,
                    entry_margin_sum,
                    entry_overlap,
                },
            };
            let page = Page::with_checksum(id, meta, Bytes::from(data.to_vec()), checksum).ok()?;
            Some(WalRecord::Image { lsn, page })
        }
        2 => {
            let lsn = Lsn(r.u64()?);
            let redo_from = Lsn(r.u64()?);
            if r.off != payload.len() {
                return None;
            }
            Some(WalRecord::Checkpoint { lsn, redo_from })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::{CrashMode, CrashPlan, CrashableStore};
    use crate::disk::meta;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    use crate::disk::{disk_with_pages, page};

    #[test]
    fn image_record_roundtrips_bit_for_bit() {
        let stats = SpatialStats::from_rects(&[Rect::new(0.0, 0.0, 3.0, 4.0)]);
        let p = Page::new(
            PageId::new(9),
            PageMeta::directory(3, stats),
            Bytes::from_static(b"payload bytes"),
        )
        .unwrap();
        let mut wal = Wal::new(WalConfig::default());
        let lsn = wal.append_image(&p).unwrap();
        assert_eq!(lsn, Lsn(0));
        let (records, torn) = wal.scan();
        assert_eq!(torn, 0);
        assert_eq!(records, vec![WalRecord::Image { lsn, page: p }]);
    }

    #[test]
    fn checkpoint_record_roundtrips() {
        let mut wal = Wal::new(WalConfig::default());
        let (_, ids) = disk_with_pages(1);
        wal.append_image(&page(ids[0], 1)).unwrap();
        let lsn = wal.append_checkpoint(Lsn(0)).unwrap();
        assert_eq!(lsn, Lsn(1));
        assert_eq!(wal.last_checkpoint(), Some(Lsn(1)));
        let (records, _) = wal.scan();
        assert_eq!(
            records[1],
            WalRecord::Checkpoint {
                lsn,
                redo_from: Lsn(0)
            }
        );
    }

    #[test]
    fn segments_rotate_and_prune_keeps_the_last_checkpoint() {
        let mut wal = Wal::new(WalConfig { segment_bytes: 128 });
        let (_, ids) = disk_with_pages(1);
        for i in 0..10 {
            wal.append_image(&page(ids[0], i)).unwrap();
        }
        assert!(wal.segment_count() > 1, "small segments must rotate");
        // No checkpoint yet: nothing may be pruned.
        assert_eq!(wal.prune_before(Lsn(10)), 0);
        let ckpt = wal.append_checkpoint(Lsn(8)).unwrap();
        let before = wal.segment_count();
        let dropped = wal.prune_before(Lsn(8));
        assert!(dropped > 0, "old sealed segments must drop");
        assert_eq!(wal.segment_count(), before - dropped);
        // The checkpoint (and the redo window) survive pruning.
        let (records, _) = wal.scan();
        assert!(records
            .iter()
            .any(|r| matches!(r, WalRecord::Checkpoint { lsn, .. } if *lsn == ckpt)));
        assert!(records
            .iter()
            .any(|r| matches!(r, WalRecord::Image { lsn, .. } if *lsn == Lsn(8))));
    }

    #[test]
    fn recovery_replays_committed_images() {
        let (mut disk, ids) = disk_with_pages(2);
        let mut wal = Wal::new(WalConfig::default());
        wal.append_image(&page(ids[0], 0xaa)).unwrap();
        wal.append_image(&page(ids[1], 0xbb)).unwrap();
        wal.append_image(&page(ids[0], 0xcc)).unwrap(); // later image wins
        let report = wal.recover_into(&mut disk).unwrap();
        assert_eq!(report.records_scanned, 3);
        assert_eq!(report.images_redone, 3);
        assert!(!report.torn_tail_dropped);
        assert_eq!(disk.peek(ids[0]).unwrap().payload.as_ref(), &[0xcc; 16]);
        assert_eq!(disk.peek(ids[1]).unwrap().payload.as_ref(), &[0xbb; 16]);
    }

    #[test]
    fn recovery_redoes_only_from_the_last_checkpoint_window() {
        let (mut disk, ids) = disk_with_pages(2);
        let mut wal = Wal::new(WalConfig::default());
        wal.append_image(&page(ids[0], 1)).unwrap(); // L0: already durable
        wal.append_checkpoint(Lsn(1)).unwrap(); // L1: redo starts at L1
        wal.append_image(&page(ids[1], 2)).unwrap(); // L2: inside window
        let report = wal.recover_into(&mut disk).unwrap();
        assert_eq!(report.checkpoint_lsn, Some(Lsn(1)));
        assert_eq!(report.redo_from, Some(Lsn(1)));
        assert_eq!(report.images_redone, 1);
        assert_eq!(report.images_skipped, 1);
        // The skipped page keeps its (already durable) disk image.
        assert_eq!(disk.peek(ids[0]).unwrap().payload.as_ref(), &[0u8; 16]);
        assert_eq!(disk.peek(ids[1]).unwrap().payload.as_ref(), &[2u8; 16]);
    }

    #[test]
    fn torn_tail_is_detected_and_discarded() {
        let (mut disk, ids) = disk_with_pages(1);
        let clock = CrashClock::with_plan(CrashPlan {
            kill_at: 1,
            mode: CrashMode::Torn,
        });
        let mut wal = Wal::with_clock(WalConfig::default(), clock);
        wal.append_image(&page(ids[0], 0x11)).unwrap();
        assert_eq!(
            wal.append_image(&page(ids[0], 0x22)),
            Err(StorageError::Crashed)
        );
        let (records, torn) = wal.scan();
        assert_eq!(records.len(), 1, "the torn record must not decode");
        assert!(torn > 0);
        let report = wal.recover_into(&mut disk).unwrap();
        assert!(report.torn_tail_dropped);
        assert_eq!(report.images_redone, 1);
        assert_eq!(
            disk.peek(ids[0]).unwrap().payload.as_ref(),
            &[0x11; 16],
            "only the committed image may be replayed"
        );
    }

    #[test]
    fn clean_kill_leaves_no_partial_record() {
        let (_, ids) = disk_with_pages(1);
        let clock = CrashClock::with_plan(CrashPlan {
            kill_at: 0,
            mode: CrashMode::Clean,
        });
        let mut wal = Wal::with_clock(WalConfig::default(), clock.clone());
        assert_eq!(
            wal.append_image(&page(ids[0], 1)),
            Err(StorageError::Crashed)
        );
        assert_eq!(wal.len_bytes(), 0);
        assert!(clock.is_dead());
        // Dead process: later appends also fail, durably appending nothing.
        assert_eq!(wal.append_checkpoint(Lsn(0)), Err(StorageError::Crashed));
        assert_eq!(wal.len_bytes(), 0);
    }

    #[test]
    fn recovery_repairs_a_torn_store_write() {
        let (disk, ids) = disk_with_pages(1);
        // Shared clock: WAL append is event 0, store write is event 1.
        let clock = CrashClock::with_plan(CrashPlan {
            kill_at: 1,
            mode: CrashMode::Torn,
        });
        let mut wal = Wal::with_clock(WalConfig::default(), clock.clone());
        let mut store = CrashableStore::new(disk, clock);
        let p = page(ids[0], 0x5a);
        wal.append_image(&p).unwrap(); // WAL-before-write-back
        assert_eq!(store.write(p), Err(StorageError::Crashed));
        let mut disk = store.into_inner();
        assert!(!disk.peek(ids[0]).unwrap().verify_checksum(), "torn page");
        let report = wal.recover_into(&mut disk).unwrap();
        assert_eq!(report.images_redone, 1);
        let healed = disk.peek(ids[0]).unwrap();
        assert!(healed.verify_checksum());
        assert_eq!(healed.payload.as_ref(), &[0x5a; 16]);
    }

    #[test]
    fn recovery_is_idempotent() {
        let (mut disk, ids) = disk_with_pages(2);
        let mut wal = Wal::new(WalConfig::default());
        wal.append_image(&page(ids[0], 7)).unwrap();
        wal.append_checkpoint(Lsn(0)).unwrap();
        wal.append_image(&page(ids[1], 8)).unwrap();
        let a = wal.recover_into(&mut disk).unwrap();
        let snapshot: Vec<_> = ids
            .iter()
            .map(|&id| disk.peek(id).unwrap().clone())
            .collect();
        let b = wal.recover_into(&mut disk).unwrap();
        assert_eq!(a, b);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(disk.peek(id).unwrap(), &snapshot[i]);
        }
    }

    #[test]
    fn empty_log_recovers_to_a_no_op() {
        let (mut disk, ids) = disk_with_pages(1);
        let wal = Wal::new(WalConfig::default());
        let report = wal.recover_into(&mut disk).unwrap();
        assert_eq!(report, RecoveryReport::default());
        assert_eq!(disk.peek(ids[0]).unwrap().payload.as_ref(), &[0u8; 16]);
    }

    #[test]
    fn stats_count_appends_rotations_and_prunes() {
        let mut wal = Wal::new(WalConfig { segment_bytes: 96 });
        let (_, ids) = disk_with_pages(1);
        for i in 0..6 {
            wal.append_image(&page(ids[0], i)).unwrap();
        }
        wal.append_checkpoint(Lsn(6)).unwrap();
        wal.prune_before(Lsn(6));
        let s = wal.stats();
        assert_eq!(s.image_appends, 6);
        assert_eq!(s.checkpoint_appends, 1);
        assert!(s.segments_sealed >= 1);
        assert!(s.segments_pruned >= 1);
        assert!(s.bytes_appended as usize >= wal.len_bytes());
    }

    /// A log holding exactly `bytes`, as if read back after a crash.
    fn wal_over(bytes: Vec<u8>) -> Wal {
        Wal {
            segments: vec![Segment {
                first_lsn: Lsn(0),
                bytes,
            }],
            ..Wal::new(WalConfig::default())
        }
    }

    fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.gen_range(0..=u8::MAX)).collect()
    }

    /// Hostile input, part one: the scan is total on arbitrary bytes and
    /// vouches for none of them. Half the cases open with a length prefix
    /// that fits, so the checksum and decode branches are reached too.
    #[test]
    fn scan_of_arbitrary_bytes_never_panics_and_recovers_nothing() {
        let mut rng = StdRng::seed_from_u64(0x5ca9);
        for case in 0..2_000 {
            let len = rng.gen_range(0..=300usize);
            let mut bytes = random_bytes(&mut rng, len);
            if case % 2 == 0 && bytes.len() >= 12 {
                let fits = rng.gen_range(0..=bytes.len() - 12) as u32;
                bytes[..4].copy_from_slice(&fits.to_le_bytes());
            }
            let (records, torn) = scan_frames(&bytes);
            assert!(records.is_empty(), "case {case}: garbage decoded");
            assert_eq!(torn, bytes.len() as u64, "case {case}");
            let (mut disk, ids) = disk_with_pages(1);
            let report = wal_over(bytes).recover_into(&mut disk).unwrap();
            assert_eq!(report.images_redone, 0, "case {case}");
            assert_eq!(disk.peek(ids[0]).unwrap().payload.as_ref(), &[0u8; 16]);
        }
    }

    /// Hostile input, part two: a valid log of 1–40 image and checkpoint
    /// records, damaged by 1–8 byte flips and a truncation. The scan must
    /// return exactly the records in front of the first damaged frame —
    /// never a damaged record, never one from behind the damage — and
    /// recovery must leave the store as replaying that prefix alone does.
    #[test]
    fn damaged_logs_recover_exactly_the_undamaged_prefix() {
        let mut rng = StdRng::seed_from_u64(0x0da4_a6ed);
        for case in 0..400 {
            let (_, ids) = disk_with_pages(4);
            let mut wal = Wal::new(WalConfig::default());
            let mut frame_ends = Vec::new();
            for _ in 0..rng.gen_range(1..=40usize) {
                if rng.gen_bool(0.2) {
                    let redo_from = Lsn(rng.gen_range(0..=wal.next_lsn().0));
                    wal.append_checkpoint(redo_from).unwrap();
                } else {
                    let id = ids[rng.gen_range(0..ids.len())];
                    let len = rng.gen_range(0..=64usize);
                    let payload = Bytes::from(random_bytes(&mut rng, len));
                    let image = Page::new(id, meta(), payload).unwrap();
                    wal.append_image(&image).unwrap();
                }
                frame_ends.push(wal.len_bytes());
            }
            let (appended, torn) = wal.scan();
            assert_eq!((appended.len(), torn), (frame_ends.len(), 0));

            let clean = wal.dump_bytes();
            let mut damaged = clean.clone();
            for _ in 0..rng.gen_range(1..=8usize) {
                let at = rng.gen_range(0..damaged.len());
                damaged[at] ^= rng.gen_range(1..=u8::MAX);
            }
            damaged.truncate(rng.gen_range(0..=damaged.len()));
            // The first frame that is cut short or differs in any byte.
            let intact = frame_ends
                .iter()
                .zip(std::iter::once(&0).chain(&frame_ends))
                .take_while(|&(&end, &start)| {
                    end <= damaged.len() && damaged[start..end] == clean[start..end]
                })
                .count();

            let (records, torn) = scan_frames(&damaged);
            assert_eq!(records, appended[..intact], "case {case}");
            let survived = intact.checked_sub(1).map_or(0, |last| frame_ends[last]);
            assert_eq!(torn, (damaged.len() - survived) as u64, "case {case}");

            let (mut recovered, _) = disk_with_pages(4);
            let (mut expected, _) = disk_with_pages(4);
            let report = wal_over(damaged).recover_into(&mut recovered).unwrap();
            wal_over(clean[..survived].to_vec())
                .recover_into(&mut expected)
                .unwrap();
            assert_eq!(report.records_scanned, intact as u64, "case {case}");
            for &id in &ids {
                assert_eq!(recovered.peek(id).unwrap(), expected.peek(id).unwrap());
            }
        }
    }
}
