use crate::{Point, Rect};
use serde::Serialize;

/// A spatial query, as issued by the paper's query sets.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum Query {
    /// Point query: report all objects whose MBR contains the point.
    Point(Point),
    /// Window query: report all objects whose MBR intersects the window.
    Window(Rect),
}

impl Query {
    /// Whether an object MBR matches this query.
    #[inline]
    pub fn matches(&self, mbr: &Rect) -> bool {
        match self {
            Query::Point(p) => mbr.contains_point(p),
            Query::Window(w) => mbr.intersects(w),
        }
    }

    /// The query's own region as a (possibly degenerate) rectangle.
    #[inline]
    pub fn region(&self) -> Rect {
        match self {
            Query::Point(p) => Rect::from_point(*p),
            Query::Window(w) => *w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_query_matches_containing_mbrs() {
        let q = Query::Point(Point::new(1.0, 1.0));
        assert!(q.matches(&Rect::new(0.0, 0.0, 2.0, 2.0)));
        assert!(q.matches(&Rect::new(1.0, 1.0, 2.0, 2.0))); // boundary
        assert!(!q.matches(&Rect::new(2.0, 2.0, 3.0, 3.0)));
    }

    #[test]
    fn window_query_matches_intersecting_mbrs() {
        let q = Query::Window(Rect::new(0.0, 0.0, 1.0, 1.0));
        assert!(q.matches(&Rect::new(0.5, 0.5, 2.0, 2.0)));
        assert!(q.matches(&Rect::new(1.0, 0.0, 2.0, 1.0))); // touching
        assert!(!q.matches(&Rect::new(1.1, 0.0, 2.0, 1.0)));
    }

    #[test]
    fn region_of_point_is_degenerate() {
        let q = Query::Point(Point::new(3.0, 4.0));
        assert_eq!(q.region(), Rect::new(3.0, 4.0, 3.0, 4.0));
        let w = Rect::new(0.0, 0.0, 1.0, 2.0);
        assert_eq!(Query::Window(w).region(), w);
    }
}
