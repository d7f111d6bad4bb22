//! # asb-zbtree — a B⁺-tree over z-order values
//!
//! The EDBT 2002 paper's third example of pages with spatial entries:
//! "The same holds for z-values stored in a B-tree" (Orenstein/Manola's
//! PROBE). This crate implements a disk-based B⁺-tree whose keys are the
//! **Z-order (Morton) values** of point locations, over the same paged
//! storage and buffer stack as the R\*-tree and the quadtree.
//!
//! Design notes:
//!
//! * Keys are `(z, object_id)` pairs, so duplicate locations are legal.
//! * Leaf entries carry the point coordinates; the entry "MBR" used for
//!   the spatial replacement criteria is the entry's **z-cell** at the
//!   quantization grid's resolution — the quadtree cell the z-value
//!   addresses, exactly the paper's reading of what a B-tree entry's
//!   rectangle is.
//! * Directory (inner) pages additionally store the MBR of each child
//!   subtree. A plain z-value B-tree would leave the spatial criteria with
//!   no signal on inner pages; the annotation (updated conservatively on
//!   inserts) makes `spatialCrit(p)` well defined for every page type.
//! * Window queries decompose the window into z-intervals (recursive
//!   quadrant decomposition with a split-depth budget), scan the leaf level
//!   across those intervals via the leaf chaining pointers, and filter
//!   candidates exactly. Semantics are **point-in-window** (the tree
//!   indexes object centers), the natural semantics for a point index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod node;
mod ranges;
mod tree;

pub use node::{Key, ZLeafEntry};
pub use ranges::z_ranges;
pub use tree::{ZBTree, ZBTreeStats};
