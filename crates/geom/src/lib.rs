//! # asb-geom — geometry substrate
//!
//! Two-dimensional geometry primitives used throughout the `asb` workspace:
//!
//! * [`Point`] and [`Rect`] (axis-aligned minimum bounding rectangles, MBRs)
//!   with the algebra the R\*-tree and the spatial replacement policies need:
//!   area, margin, union, intersection, enlargement.
//! * [`SpatialStats`], the precomputed per-page spatial criteria of
//!   Brinkhoff's EDBT 2002 paper (page area/margin, entry-area and
//!   entry-margin sums, pairwise entry overlap). Pages carry these so the
//!   buffer manager can apply a spatial replacement criterion without
//!   knowing how index pages are encoded.
//! * The Z-order curve ([`curve::z_order`]) behind `asb-zbtree`'s keys:
//!   the "z-values in a B-tree" example of page entries the paper mentions.
//!
//! All coordinates are `f64`. The library never panics on degenerate
//! rectangles (zero width/height are legal MBRs of points and horizontal or
//! vertical lines); constructors normalize corner ordering instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod curve;
mod item;
mod point;
mod query;
mod rect;
mod stats;

pub use item::SpatialItem;
pub use point::Point;
pub use query::Query;
pub use rect::Rect;
pub use stats::{SpatialCriterion, SpatialStats};

/// Anything that can report a minimum bounding rectangle.
///
/// Implemented by [`Point`], [`Rect`] and by index entries in `asb-rtree`.
pub trait HasMbr {
    /// The minimum bounding rectangle of `self`.
    fn mbr(&self) -> Rect;
}

impl HasMbr for Point {
    fn mbr(&self) -> Rect {
        Rect::from_point(*self)
    }
}

impl HasMbr for Rect {
    fn mbr(&self) -> Rect {
        *self
    }
}

/// Computes the MBR of a non-empty sequence of MBR-bearing items.
///
/// Returns `None` for an empty iterator.
pub fn mbr_of<I, T>(items: I) -> Option<Rect>
where
    I: IntoIterator<Item = T>,
    T: HasMbr,
{
    let mut it = items.into_iter();
    let first = it.next()?.mbr();
    Some(it.fold(first, |acc, item| acc.union(&item.mbr())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mbr_of_empty_is_none() {
        let rects: [Rect; 0] = [];
        assert!(mbr_of(rects).is_none());
    }

    #[test]
    fn mbr_of_points_spans_all() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(2.0, 3.0),
            Point::new(-1.0, 1.0),
        ];
        let m = mbr_of(pts).unwrap();
        assert_eq!(m, Rect::new(-1.0, 0.0, 2.0, 3.0));
    }

    #[test]
    fn mbr_of_single_rect_is_identity() {
        let r = Rect::new(1.0, 2.0, 3.0, 4.0);
        assert_eq!(mbr_of([r]).unwrap(), r);
    }
}
