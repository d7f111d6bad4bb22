use asb_geom::SpatialStats;
use bytes::Bytes;
use serde::Serialize;

/// Size of a page in bytes.
///
/// 2048 bytes reproduce the paper's R\*-tree fan-outs exactly: with an
/// [`PAGE_HEADER_SIZE`] = 8 byte header, 40-byte directory entries
/// (4 × f64 MBR + u64 child id) give ⌊2040 / 40⌋ = **51** entries per
/// directory page and 48-byte data entries (MBR + u64 object id + u64
/// object-page pointer) give ⌊2040 / 48⌋ = **42** entries per data page —
/// the paper's "maximum number of entries per directory page and per data
/// page is 51 and 42".
pub const PAGE_SIZE: usize = 2048;

/// Bytes reserved for the on-page header (type tag, level, entry count).
pub const PAGE_HEADER_SIZE: usize = 8;

/// Identifier of a page on the simulated disk.
///
/// Ids are dense and allocated by the [`DiskManager`](crate::DiskManager);
/// consecutive ids model physically adjacent pages, which is what the
/// sequential-I/O detection in [`IoStats`](crate::IoStats) keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct PageId(u64);

impl PageId {
    /// Creates a page id from its raw index.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        PageId(raw)
    }

    /// The raw index.
    #[inline]
    pub const fn raw(&self) -> u64 {
        self.0
    }

    /// Whether `other` is the page physically following `self`.
    #[inline]
    pub fn is_successor_of(&self, other: &PageId) -> bool {
        self.0 == other.0.wrapping_add(1)
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// The three page categories the paper distinguishes (Section 2.1, Fig. 1):
/// directory pages and data pages of the spatial access method, plus object
/// pages storing the exact object representations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum PageType {
    /// Inner page of the spatial access method.
    Directory,
    /// Leaf page of the spatial access method.
    Data,
    /// Page holding exact spatial-object representations.
    Object,
}

impl PageType {
    /// Base ordering used by the type-based LRU (LRU-T): object pages are
    /// dropped first, then data pages, directory pages last.
    #[inline]
    pub fn type_rank(&self) -> u8 {
        match self {
            PageType::Object => 0,
            PageType::Data => 1,
            PageType::Directory => 2,
        }
    }

    /// Encodes the type as a byte tag (for on-page headers).
    #[inline]
    pub fn tag(&self) -> u8 {
        match self {
            PageType::Directory => 1,
            PageType::Data => 2,
            PageType::Object => 3,
        }
    }

    /// Decodes a byte tag written by [`PageType::tag`].
    #[inline]
    pub fn from_tag(tag: u8) -> Option<PageType> {
        match tag {
            1 => Some(PageType::Directory),
            2 => Some(PageType::Data),
            3 => Some(PageType::Object),
            _ => None,
        }
    }
}

/// Metadata travelling with every page.
///
/// The replacement policies in `asb-core` are driven exclusively by this
/// struct — they never parse page payloads. The index layer fills it in
/// whenever it (re)writes a page:
///
/// * `page_type` / `level` feed LRU-T and LRU-P (priority = level; object
///   pages have priority 0, leaves 1, the root the highest),
/// * `stats` feeds the five spatial criteria of Section 2.3.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PageMeta {
    /// Category of the page.
    pub page_type: PageType,
    /// Level in the index: object pages 0, data (leaf) pages 1, directory
    /// pages 2 and up; the root has the highest level.
    pub level: u8,
    /// Precomputed spatial criteria over the page's entries.
    pub stats: SpatialStats,
}

impl PageMeta {
    /// Metadata for an object page (level 0, no entry statistics required by
    /// the experiments, but they may be supplied).
    pub fn object(stats: SpatialStats) -> Self {
        PageMeta {
            page_type: PageType::Object,
            level: 0,
            stats,
        }
    }

    /// Metadata for a data (leaf) page of the index.
    pub fn data(stats: SpatialStats) -> Self {
        PageMeta {
            page_type: PageType::Data,
            level: 1,
            stats,
        }
    }

    /// Metadata for a directory page at `level >= 2`.
    pub fn directory(level: u8, stats: SpatialStats) -> Self {
        debug_assert!(level >= 2, "directory pages live at level 2 and above");
        PageMeta {
            page_type: PageType::Directory,
            level,
            stats,
        }
    }

    /// The LRU-P priority of the page: "the object page may have the
    /// priority 0 whereas the priority of a page in an index depends on its
    /// height in the corresponding tree. The root has the highest priority."
    #[inline]
    pub fn priority(&self) -> u8 {
        match self.page_type {
            PageType::Object => 0,
            _ => self.level,
        }
    }
}

/// Odd 64-bit multipliers of the checksum kernel (the xxHash64 primes).
/// Only oddness matters for the guarantees: multiplying by an odd constant
/// is a bijection of `u64`.
const MUL_STATE: u64 = 0x9E37_79B1_85EB_CA87;
const MUL_WORD: u64 = 0xC2B2_AE3D_27D4_EB4F;
const MUL_FINISH: u64 = 0x1656_67B1_9E37_79F9;

/// Initial values of the four block lanes, and of the accumulator the
/// payload length is folded into.
const LANE_SEEDS: [u64; 4] = [
    MUL_STATE.wrapping_add(MUL_WORD),
    MUL_WORD,
    0,
    MUL_STATE.wrapping_neg(),
];
const LENGTH_SEED: u64 = MUL_FINISH;

/// One multiply–rotate–multiply step: absorbs `word` into `state`.
///
/// For a fixed `word` it is a bijection of `state` (add a constant, rotate,
/// multiply by an odd number), and for a fixed `state` it is injective in
/// `word` (multiply by an odd number, then the same three bijections).
/// Every guarantee of [`page_checksum`] is a chain of those two facts.
#[inline(always)]
fn absorb(state: u64, word: u64) -> u64 {
    state
        .wrapping_add(word.wrapping_mul(MUL_WORD))
        .rotate_left(31)
        .wrapping_mul(MUL_STATE)
}

/// The little-endian `u64` of up to eight bytes, zero-padded at the top.
#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// Bijective finisher (xor-shifts and odd multiplies): spreads a
/// difference anywhere in the accumulator over all 64 output bits.
#[inline(always)]
fn avalanche(mut sum: u64) -> u64 {
    sum ^= sum >> 33;
    sum = sum.wrapping_mul(MUL_WORD);
    sum ^= sum >> 29;
    sum = sum.wrapping_mul(MUL_FINISH);
    sum ^ (sum >> 32)
}

/// The per-page checksum: a word-parallel 64-bit hash of a payload.
///
/// The payload is read as little-endian `u64` words. Each full 32-byte
/// block feeds its four words to four *independent* lanes through
/// `absorb`, so four multiply chains are in flight at once — this is what
/// makes the check affordable on every buffer hit. The payload length, the
/// four lanes and the fewer-than-32 remaining bytes (whole words, then one
/// zero-padded tail word) are then absorbed *sequentially* into one
/// accumulator, and a bijective `avalanche` finishes.
///
/// **Guarantee.** At a fixed length, any change confined to one aligned
/// 8-byte word — a superset of "any single byte" — changes the sum with
/// certainty: the damaged word's `absorb` is injective in the word, and
/// every later step (the rest of its lane, the sequential fold, the
/// finisher) is a bijection of the state it is applied to. Wider damage,
/// truncation and zero-extension are caught with probability 1 − 2⁻⁶⁴.
///
/// Dependency-free, safe Rust, and the same value on every platform. This
/// is an error-*detection* code for in-memory rot, torn writes and damaged
/// log frames, not a cryptographic digest.
pub fn page_checksum(payload: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let mut blocks = payload.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = absorb(*lane, le_word(word));
        }
    }
    let mut sum = absorb(LENGTH_SEED, payload.len() as u64);
    for lane in lanes {
        sum = absorb(sum, lane);
    }
    for word in blocks.remainder().chunks(8) {
        sum = absorb(sum, le_word(word));
    }
    avalanche(sum)
}

/// A page: identifier, metadata, payload and a payload checksum.
///
/// The payload is a [`Bytes`] value, so cloning a page (for handing copies
/// out of the buffer) is O(1) and allocation-free. The checksum
/// ([`page_checksum`]) is computed once in [`Page::new`] and travels with
/// every clone; a copy whose payload was damaged in flight (or in a buffer
/// frame) no longer satisfies [`Page::verify_checksum`], which is how the
/// buffer detects corruption — on every fetch from the store and on every
/// buffer hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Page {
    /// The page's identity on disk.
    pub id: PageId,
    /// Metadata driving replacement decisions.
    pub meta: PageMeta,
    /// Serialized content, at most [`PAGE_SIZE`] bytes.
    pub payload: Bytes,
    /// [`page_checksum`] of the payload at construction time.
    checksum: u64,
}

impl Page {
    /// Creates a page, validating the payload size.
    pub fn new(id: PageId, meta: PageMeta, payload: Bytes) -> crate::Result<Self> {
        let checksum = page_checksum(&payload);
        Page::with_checksum(id, meta, payload, checksum)
    }

    /// Creates a page with an explicit checksum instead of computing one.
    ///
    /// This exists for layers that *transport* pages rather than create
    /// them: deserializers carrying a stored checksum forward, and the crash
    /// store's torn writes, which keep the original checksum so the damage
    /// stays detectable downstream.
    pub fn with_checksum(
        id: PageId,
        meta: PageMeta,
        payload: Bytes,
        checksum: u64,
    ) -> crate::Result<Self> {
        if payload.len() > PAGE_SIZE {
            return Err(crate::StorageError::PageOverflow {
                id,
                len: payload.len(),
            });
        }
        Ok(Page {
            id,
            meta,
            payload,
            checksum,
        })
    }

    /// The checksum recorded when the page was created.
    #[inline]
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Whether the payload still matches the recorded checksum.
    #[inline]
    pub fn verify_checksum(&self) -> bool {
        page_checksum(&self.payload) == self.checksum
    }

    /// A copy whose payload is damaged while the recorded checksum is kept:
    /// the first byte flipped, or one byte where the payload was empty. The
    /// damage is silent, and [`Page::verify_checksum`] detects it.
    pub fn damaged(&self) -> Page {
        let mut payload = self.payload.to_vec();
        match payload.first_mut() {
            Some(byte) => *byte ^= 0xff,
            None => payload.push(0xee),
        }
        Page {
            id: self.id,
            meta: self.meta,
            payload: Bytes::from(payload),
            checksum: self.checksum,
        }
    }

    /// Maximum number of fixed-size entries a page payload can hold after
    /// the header.
    #[inline]
    pub const fn capacity_for(entry_size: usize) -> usize {
        (PAGE_SIZE - PAGE_HEADER_SIZE) / entry_size
    }
}

/// How a bulk load fills pages: splits `len` elements into chunks of
/// roughly `target` while keeping every chunk within `[min, max]` where
/// arithmetically possible (a single chunk below `min` remains only for
/// `len < min`, the root-only case).
pub fn even_chunks(len: usize, target: usize, min: usize, max: usize) -> Vec<usize> {
    debug_assert!(len > 0 && min <= target && target <= max);
    let mut k = len.div_ceil(target);
    if len >= min {
        k = k.min(len / min); // floor(len/k) >= min
    }
    k = k.max(len.div_ceil(max)).max(1); // ceil(len/k) <= max
    let base = len / k;
    let extra = len % k;
    (0..k).map(|i| base + usize::from(i < extra)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asb_geom::{Rect, SpatialCriterion};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn paper_fanouts_are_reproduced() {
        // Directory entry: 4 f64 coordinates + u64 child id = 40 bytes.
        assert_eq!(Page::capacity_for(40), 51);
        // Data entry: MBR + object id + object-page pointer = 48 bytes.
        assert_eq!(Page::capacity_for(48), 42);
    }

    #[test]
    fn even_chunks_respect_bounds() {
        for len in 1..500usize {
            let sizes = even_chunks(len, 44, 31, 63);
            assert_eq!(sizes.iter().sum::<usize>(), len);
            for &s in &sizes {
                assert!(s <= 63, "len={len}: chunk {s} too big");
                if len >= 31 {
                    assert!(s >= 31, "len={len}: chunk {s} too small");
                }
            }
        }
    }

    #[test]
    fn page_rejects_oversized_payload() {
        let meta = PageMeta::data(SpatialStats::EMPTY);
        let big = Bytes::from(vec![0u8; PAGE_SIZE + 1]);
        let err = Page::new(PageId::new(0), meta, big).unwrap_err();
        assert!(
            matches!(err, crate::StorageError::PageOverflow { len, .. } if len == PAGE_SIZE + 1)
        );
    }

    #[test]
    fn page_accepts_full_payload() {
        let meta = PageMeta::data(SpatialStats::EMPTY);
        let full = Bytes::from(vec![0u8; PAGE_SIZE]);
        assert!(Page::new(PageId::new(0), meta, full).is_ok());
    }

    #[test]
    fn type_rank_orders_object_data_directory() {
        assert!(PageType::Object.type_rank() < PageType::Data.type_rank());
        assert!(PageType::Data.type_rank() < PageType::Directory.type_rank());
    }

    #[test]
    fn type_tag_roundtrip() {
        for t in [PageType::Directory, PageType::Data, PageType::Object] {
            assert_eq!(PageType::from_tag(t.tag()), Some(t));
        }
        assert_eq!(PageType::from_tag(0), None);
        assert_eq!(PageType::from_tag(99), None);
    }

    #[test]
    fn priority_follows_tree_level() {
        let leaf = PageMeta::data(SpatialStats::EMPTY);
        let dir = PageMeta::directory(3, SpatialStats::EMPTY);
        let obj = PageMeta::object(SpatialStats::EMPTY);
        assert_eq!(obj.priority(), 0);
        assert_eq!(leaf.priority(), 1);
        assert_eq!(dir.priority(), 3);
    }

    #[test]
    fn meta_carries_spatial_stats() {
        let stats = SpatialStats::from_rects(&[Rect::new(0.0, 0.0, 2.0, 2.0)]);
        let meta = PageMeta::data(stats);
        assert_eq!(meta.stats.criterion(SpatialCriterion::Area), 4.0);
    }

    #[test]
    fn page_id_successor() {
        let a = PageId::new(5);
        let b = PageId::new(6);
        assert!(b.is_successor_of(&a));
        assert!(!a.is_successor_of(&b));
        assert!(!a.is_successor_of(&a));
    }

    /// The byte-serial FNV-1a this kernel replaced: one dependent
    /// xor/multiply per byte. Kept as the throughput reference only.
    fn fnv1a(payload: &[u8]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &byte in payload {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash
    }

    /// `page_checksum` one word at a time: word `i` of the blocked prefix
    /// goes to lane `i % 4`, everything after it is folded in order.
    fn scalar_reference(payload: &[u8]) -> u64 {
        let blocked_words = payload.len() / 32 * 4;
        let mut lanes = LANE_SEEDS;
        let mut rest = Vec::new();
        for (i, chunk) in payload.chunks(8).enumerate() {
            if i < blocked_words {
                lanes[i % 4] = absorb(lanes[i % 4], le_word(chunk));
            } else {
                rest.push(le_word(chunk));
            }
        }
        let seeded = absorb(LENGTH_SEED, payload.len() as u64);
        avalanche(lanes.into_iter().chain(rest).fold(seeded, absorb))
    }

    /// A fixed, non-repeating byte pattern (period 256 × 251).
    fn pattern(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i % 256) as u8 ^ ((i % 251) as u8).wrapping_mul(167))
            .collect()
    }

    fn random_payload(rng: &mut StdRng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.gen_range(0..=u8::MAX)).collect()
    }

    /// The format pin: `page_checksum(pattern(len))` at every lane, word
    /// and tail boundary. A change to any constant, to the lane order, the
    /// length fold, the tail padding or the finisher moves at least one.
    const KNOWN_ANSWERS: [(usize, u64); 13] = [
        (0, 0x0e7e_8cae_a4fe_636f),
        (1, 0x195f_3fd0_e6ca_5167),
        (7, 0xa685_33a1_f376_85f6),
        (8, 0xfe25_b3c6_930d_0933),
        (9, 0xb750_d361_1947_c1ee),
        (31, 0x8256_5352_c8cb_6243),
        (32, 0x86dd_ebb6_0c03_e0e6),
        (33, 0x9d1f_81b5_1ba4_fd74),
        (63, 0x1621_4e9d_6e5c_8d77),
        (64, 0xcbc4_eebd_abb3_03a3),
        (2040, 0x52a6_8ced_09be_779a),
        (2047, 0x60f2_dbab_cc49_e19f),
        (2048, 0x1feb_f360_0330_b092),
    ];

    #[test]
    fn checksum_known_answers_pin_the_format() {
        for (len, expected) in KNOWN_ANSWERS {
            let got = page_checksum(&pattern(len));
            assert_eq!(got, expected, "length {len}: got {got:#018x}");
        }
    }

    #[test]
    fn unrolled_kernel_equals_the_scalar_reference_at_every_boundary() {
        let bytes = pattern(PAGE_SIZE);
        for len in (0..=96).chain(2000..=PAGE_SIZE) {
            assert_eq!(
                page_checksum(&bytes[..len]),
                scalar_reference(&bytes[..len]),
                "length {len}"
            );
        }
    }

    /// Exhaustive: every one of the 16 384 (resp. 16 376) single-bit flips
    /// of a full page, and of a page one byte short of full (so the last
    /// word is a zero-padded 7-byte tail), changes the sum.
    #[test]
    fn every_single_bit_flip_changes_the_checksum() {
        for len in [PAGE_SIZE, PAGE_SIZE - 1] {
            let mut bytes = pattern(len);
            let clean = page_checksum(&bytes);
            for bit in 0..len * 8 {
                bytes[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(page_checksum(&bytes), clean, "length {len}, bit {bit}");
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    /// The one-word guarantee: any rewrite confined to one aligned 8-byte
    /// word (the last one possibly partial) changes the sum.
    #[test]
    fn any_rewrite_of_one_aligned_word_changes_the_checksum() {
        let mut rng = StdRng::seed_from_u64(0x00c0_ffee);
        for case in 0..512 {
            let len = rng.gen_range(1..=PAGE_SIZE);
            let mut bytes = random_payload(&mut rng, len);
            let clean = page_checksum(&bytes);
            let start = rng.gen_range(0..len) / 8 * 8;
            let word = start..(start + 8).min(len);
            let before = bytes[word.clone()].to_vec();
            while bytes[word.clone()] == before[..] {
                let fresh = random_payload(&mut rng, word.len());
                bytes[word.clone()].copy_from_slice(&fresh);
            }
            assert_ne!(page_checksum(&bytes), clean, "case {case}: {len} @ {start}");
        }
    }

    /// The length is folded in: every strict prefix of a payload, and
    /// every zero-extension of it, sums differently — including the cases
    /// where the dropped or added bytes are all zero, which the zero-padded
    /// tail word alone could not tell apart.
    #[test]
    fn prefixes_and_zero_extensions_change_the_checksum() {
        let mut rng = StdRng::seed_from_u64(0x7e57_1e47);
        for case in 0..64 {
            let len = rng.gen_range(0..=96usize);
            let mut bytes = random_payload(&mut rng, len);
            // Half the cases end in zeros, the adversarial input here.
            if case % 2 == 0 {
                let zeros = rng.gen_range(0..=len.min(40));
                bytes[len - zeros..].fill(0);
            }
            let full = page_checksum(&bytes);
            for cut in 0..len {
                assert_ne!(
                    page_checksum(&bytes[..cut]),
                    full,
                    "case {case}: {cut}/{len}"
                );
            }
            for extra in 1..=40 {
                bytes.push(0);
                assert_ne!(page_checksum(&bytes), full, "case {case}: {len}+{extra}");
            }
        }
    }

    /// The kernel's round on a single accumulator: what a full page costs
    /// once the four chains are serialised into one.
    fn one_lane(payload: &[u8]) -> u64 {
        payload
            .chunks_exact(8)
            .fold(LENGTH_SEED, |sum, word| absorb(sum, le_word(word)))
    }

    /// Throughput tripwire (release mode, run by CI with `--ignored`): the
    /// kernel must stay word-parallel. Two ratios on one machine, no
    /// absolute time: ≥ 4× the byte-serial FNV-1a (as written: ≈ 16×), which
    /// an edit back to byte-at-a-time work fails; and ≥ 1.5× its own round
    /// on one accumulator (as written: ≈ 2.2×), which an edit that chains
    /// the lanes fails — that one still beats FNV-1a 7×, eight bytes a step.
    #[test]
    #[ignore = "timing: run in release mode"]
    fn checksum_is_word_parallel() {
        use std::hint::black_box;
        use std::time::Instant;
        let page = pattern(PAGE_SIZE);
        let median_batch = |sum: fn(&[u8]) -> u64| {
            let mut batches: Vec<_> = (0..31)
                .map(|_| {
                    #[allow(clippy::disallowed_methods)] // a timing test measures time
                    let start = Instant::now();
                    for _ in 0..200 {
                        black_box(sum(black_box(&page)));
                    }
                    start.elapsed()
                })
                .collect();
            batches.sort_unstable();
            batches[15].as_secs_f64()
        };
        let kernel = median_batch(page_checksum);
        for (name, reference, floor) in [
            ("the byte-serial FNV-1a", fnv1a as fn(&[u8]) -> u64, 4.0),
            ("its own round on one accumulator", one_lane, 1.5),
        ] {
            let ratio = median_batch(reference) / kernel;
            assert!(
                ratio >= floor,
                "page_checksum is only {ratio:.1}x {name} (need >= {floor}x)"
            );
        }
    }

    #[test]
    fn checksum_is_deterministic_and_payload_sensitive() {
        assert_eq!(page_checksum(b"abc"), page_checksum(b"abc"));
        assert_ne!(page_checksum(b"abc"), page_checksum(b"abd"));
    }

    #[test]
    fn fresh_pages_verify() {
        let meta = PageMeta::data(SpatialStats::EMPTY);
        let p = Page::new(PageId::new(3), meta, Bytes::from_static(b"payload")).unwrap();
        assert!(p.verify_checksum());
        assert_eq!(p.checksum(), page_checksum(b"payload"));
        assert!(p.clone().verify_checksum());
    }

    #[test]
    fn preserved_checksum_exposes_tampered_payload() {
        let meta = PageMeta::data(SpatialStats::EMPTY);
        let p = Page::new(PageId::new(3), meta, Bytes::from_static(b"payload")).unwrap();
        let tampered =
            Page::with_checksum(p.id, p.meta, Bytes::from_static(b"grabled"), p.checksum())
                .unwrap();
        assert!(!tampered.verify_checksum());
        // An honestly rebuilt page verifies again.
        let rebuilt = Page::new(p.id, p.meta, Bytes::from_static(b"grabled")).unwrap();
        assert!(rebuilt.verify_checksum());
        for len in [0, 7, PAGE_SIZE] {
            let p = Page::new(PageId::new(3), meta, Bytes::from(vec![1u8; len])).unwrap();
            let damaged = p.damaged();
            assert!(!damaged.verify_checksum(), "{len} bytes");
            assert_eq!(damaged.checksum(), p.checksum());
            assert_eq!(damaged.payload.len(), len.max(1));
        }
    }

    #[test]
    fn with_checksum_still_rejects_oversized_payload() {
        let meta = PageMeta::data(SpatialStats::EMPTY);
        let big = Bytes::from(vec![0u8; PAGE_SIZE + 1]);
        assert!(Page::with_checksum(PageId::new(0), meta, big, 0).is_err());
    }

    #[test]
    fn page_clone_is_cheap_and_equal() {
        let meta = PageMeta::data(SpatialStats::EMPTY);
        let p = Page::new(PageId::new(1), meta, Bytes::from_static(b"abc")).unwrap();
        let q = p.clone();
        assert_eq!(p, q);
    }
}
