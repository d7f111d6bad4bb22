//! # asb-core — buffer manager and page-replacement policies
//!
//! This crate is the reproduction of the *contribution* of Brinkhoff's
//! EDBT 2002 paper: a buffer manager with pluggable page-replacement
//! policies, including the paper's new **spatial** policies and the
//! self-tuning **adaptable spatial buffer (ASB)**.
//!
//! ## Policies
//!
//! | [`PolicyKind`] | Paper section | Idea |
//! |---|---|---|
//! | [`Lru`](PolicyKind::Lru) | baseline | evict the least-recently-used page |
//! | [`Fifo`](PolicyKind::Fifo), [`Clock`](PolicyKind::Clock), [`Random`](PolicyKind::Random) | — | classic baselines for sanity checks |
//! | [`LruT`](PolicyKind::LruT) | §2.1 | evict object pages first, then data, then directory pages; LRU within a category |
//! | [`LruP`](PolicyKind::LruP) | §2.1 | generalization: evict the lowest-priority page (priority = level in the tree); LRU within a priority |
//! | [`LruK`](PolicyKind::LruK) | §2.2 | evict the page with the oldest K-th most recent *uncorrelated* reference (O'Neil et al.); history is retained for evicted pages |
//! | [`Spatial`](PolicyKind::Spatial) | §2.3 | evict the page with the smallest spatial criterion (A, EA, M, EM or EO); LRU breaks ties |
//! | [`Slru`](PolicyKind::Slru) | §4.1 | LRU proposes a candidate set (a fixed fraction of the buffer), the spatial criterion picks the victim from it |
//! | [`Asb`](PolicyKind::Asb) | §4.2 | SLRU plus a FIFO *overflow buffer* (20 % of the buffer) whose hits self-tune the candidate-set size |
//! | [`Arena`](PolicyKind::Arena) | extension | multiplicative-weights mixer over an expert roster; per-expert ghost caches count counterfactual misses, the weight leader owns eviction |
//!
//! Every policy implements the one trait [`ReplacementPolicy`] — four
//! event callbacks plus `select_victim` — and is named from outside only by
//! its [`PolicyKind`]. The paper defines its policies by reduction, and so
//! does the code; three shared mechanisms carry all of them:
//!
//! * one ordered page table (`order::LinkedOrder<K, V>`): recency/FIFO
//!   order and the per-page value (a reference bit, a criterion) behind a
//!   single hash lookup;
//! * one candidate scan (`spatial_victim`): the smallest criterion among
//!   the first `c` evictable pages in LRU order. `c` fixed is SLRU, `c`
//!   unbounded is the pure spatial policy (§4.1), `c` self-tuned is ASB's
//!   main part (§4.2);
//! * one class-ordered LRU: LRU-T and LRU-P differ only in the function
//!   that maps a page's metadata to its class (§2.1).
//!
//! ## Architecture
//!
//! [`BufferManager`] owns the page table and statistics and delegates every
//! ordering decision to a [`ReplacementPolicy`]. It does not talk to a disk
//! itself; [`BufferManager::fetch`] composes it with any
//! [`PageStore`](asb_storage::PageStore), and [`PageFile`] holds a store
//! with an optional buffer in front of it, so index structures are
//! oblivious to buffering. Buffered reads hand out RAII [`PageReadGuard`]s —
//! the guard pins the frame until dropped — and `PageFile::read` lends the
//! page to a closure; neither returns a raw `Page` by value.
//! Writes come in write-through and write-back (buffered) flavours; with a
//! write-ahead log attached, buffered writes are crash-durable and dirty
//! evictions perform write-backs.
//!
//! ## Concurrency
//!
//! One thread-safe pool, [`ShardedBuffer`], wraps the same `BufferManager`
//! machinery behind the [`BufferPool`] trait. The pool is striped over
//! independently locked shards (deterministic page-id hashing), the store
//! sits behind a reader-writer lock and is only read-locked on misses.
//! Each read holds its shard's lock from probe to admission, so readers
//! that ask for the same cold page at once cost one physical read: the
//! first counts the miss, the rest find the page resident and hit. Every
//! counted miss is one store read. With one shard it is the coarse pool;
//! with many, reads in different shards proceed in parallel. Only a
//! single-threaded replay is count-exact: it reproduces the sequential
//! buffer's counts bit for bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod guard;
mod manager;
mod order;
mod policies;
mod policy;
mod pool;
pub mod sharded;
pub mod sync;

pub use guard::{PageReadGuard, PageWriteGuard};
pub use manager::{BufferManager, BufferStats, PageFile, StoreIo};
pub use policies::{ArenaParams, ArenaState, AsbParams, ExpertState, Roster};
pub use policy::{PolicyKind, ReplacementPolicy};
pub use pool::{BufferPool, FetchOutcome, PageFetchResult};
pub use sharded::ShardedBuffer;

// Re-exported for convenience: the criterion enum lives in asb-geom because
// pages carry precomputed criterion inputs.
pub use asb_geom::SpatialCriterion;
