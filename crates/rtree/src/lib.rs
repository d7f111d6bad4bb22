//! # asb-rtree — a disk-based R\*-tree over paged storage
//!
//! The spatial access method the EDBT 2002 evaluation runs on: an R\*-tree
//! (Beckmann/Kriegel/Schneider/Seeger, SIGMOD 1990) whose nodes are
//! serialized into the fixed-size pages of `asb-storage` and whose every
//! node access is a page request — optionally routed through a buffer from
//! `asb-core`, which is how the paper measures replacement policies.
//!
//! Features:
//!
//! * **Insertion** with the R\* heuristics: overlap-minimizing
//!   ChooseSubtree at the leaf-parent level, margin-driven split-axis
//!   selection, and *forced reinsertion* on first overflow per level.
//! * **Deletion** with tree condensation (underfull nodes dissolve and
//!   their entries reinsert).
//! * **Queries**: point, window, and k-nearest-neighbour, each tagged with
//!   a fresh [`QueryId`](asb_storage::QueryId) so LRU-K can detect
//!   correlated references. All of them are one resumable traversal,
//!   [`Search`], which [`RTree`] runs to completion a page at a time and
//!   a serving front end can run in batched slices. A search is fed
//!   [`NodeView`]s, which read entries in place on the buffered page;
//!   only the write path and [`spatial_join`] decode owned [`Node`]s.
//! * **STR bulk loading** (sort-tile-recursive) with a configurable fill
//!   factor — the paper's trees are ~69 % full, which the defaults match.
//! * **Spatial join** between two trees (synchronized traversal), used by
//!   the future-work experiments.
//! * [`RTree::validate`] checks all structural invariants and is exercised
//!   by the property-based tests.
//!
//! The page layout reproduces the paper's fan-outs (51 directory / 42 data
//! entries per 2 KiB page); see [`RTreeConfig`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod join;
mod node;
mod search;
mod split;
mod tree;

pub use config::RTreeConfig;
pub use join::spatial_join;
pub use node::{DirEntry, LeafEntry, Node, NodeKind, NodeView, ViewEntries};
pub use search::Search;
pub use tree::{RTree, RTreeItem, TreeSnapshot, TreeStats};
