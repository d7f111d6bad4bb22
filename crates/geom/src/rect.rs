use crate::Point;
use serde::Serialize;

/// An axis-aligned rectangle — the *minimum bounding rectangle (MBR)* of the
/// EDBT 2002 paper.
///
/// Invariant: `min.x <= max.x && min.y <= max.y`. Constructors normalize the
/// corner ordering, so a `Rect` obtained through the public API always
/// satisfies it. Degenerate rectangles (zero width and/or height) are legal;
/// they are the MBRs of points and axis-parallel segments.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from two opposite corners given coordinate-wise.
    ///
    /// The corners may be given in any order; they are normalized.
    #[inline]
    pub fn new(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        Rect {
            min: Point::new(x0.min(x1), y0.min(y1)),
            max: Point::new(x0.max(x1), y0.max(y1)),
        }
    }

    /// Creates a rectangle from two corner points (any order).
    #[inline]
    pub fn from_corners(a: Point, b: Point) -> Self {
        Rect {
            min: a.min(&b),
            max: a.max(&b),
        }
    }

    /// The degenerate rectangle covering exactly one point.
    #[inline]
    pub fn from_point(p: Point) -> Self {
        Rect { min: p, max: p }
    }

    /// Creates the axis-aligned square of side `2 * half` centered on `c`.
    #[inline]
    pub fn centered_square(c: Point, half: f64) -> Self {
        debug_assert!(half >= 0.0);
        Rect::new(c.x - half, c.y - half, c.x + half, c.y + half)
    }

    /// Creates a rectangle centered on `c` with the given width and height.
    #[inline]
    pub fn centered(c: Point, width: f64, height: f64) -> Self {
        debug_assert!(width >= 0.0 && height >= 0.0);
        Rect::new(
            c.x - width / 2.0,
            c.y - height / 2.0,
            c.x + width / 2.0,
            c.y + height / 2.0,
        )
    }

    /// Width (x-extension) of the rectangle.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height (y-extension) of the rectangle.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area of the rectangle. Zero for degenerate rectangles.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Margin (perimeter) of the rectangle: `2 * (width + height)`.
    ///
    /// This is criterion (O3) of the R\*-tree design and the basis of the
    /// paper's spatial replacement criteria M and EM.
    #[inline]
    pub fn margin(&self) -> f64 {
        2.0 * (self.width() + self.height())
    }

    /// Center point of the rectangle.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(
            (self.min.x + self.max.x) / 2.0,
            (self.min.y + self.max.y) / 2.0,
        )
    }

    /// Returns `true` if `self` and `other` share at least one point
    /// (closed-rectangle semantics: touching boundaries intersect).
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// Returns `true` if `p` lies inside or on the boundary of `self`.
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        self.min.x <= p.x && p.x <= self.max.x && self.min.y <= p.y && p.y <= self.max.y
    }

    /// Returns `true` if `other` lies fully inside `self` (boundaries may
    /// touch).
    #[inline]
    pub fn contains(&self, other: &Rect) -> bool {
        self.min.x <= other.min.x
            && self.min.y <= other.min.y
            && other.max.x <= self.max.x
            && other.max.y <= self.max.y
    }

    /// The smallest rectangle covering both `self` and `other`.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min: self.min.min(&other.min),
            max: self.max.max(&other.max),
        }
    }

    /// The intersection of `self` and `other`, or `None` if they are
    /// disjoint.
    #[inline]
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect {
            min: self.min.max(&other.min),
            max: self.max.min(&other.max),
        })
    }

    /// Area of the intersection of `self` and `other` (zero if disjoint or
    /// if the intersection is degenerate).
    ///
    /// This is the `area(mbr(e) ∩ mbr(f))` term of the paper's EO criterion
    /// and of the R\*-tree overlap computations.
    #[inline]
    pub fn overlap_area(&self, other: &Rect) -> f64 {
        let w = self.max.x.min(other.max.x) - self.min.x.max(other.min.x);
        if w <= 0.0 {
            return 0.0;
        }
        let h = self.max.y.min(other.max.y) - self.min.y.max(other.min.y);
        if h <= 0.0 {
            return 0.0;
        }
        w * h
    }

    /// Area increase required to include `other`:
    /// `area(self ∪ other) - area(self)`.
    ///
    /// The R\*-tree ChooseSubtree step minimizes this quantity.
    #[inline]
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Minimum distance from `p` to the rectangle (zero if `p` is inside).
    #[inline]
    pub fn min_dist(&self, p: &Point) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        (dx * dx + dy * dy).sqrt()
    }

    /// Mirrors the rectangle horizontally inside `[lo, hi]` on the x-axis
    /// (see [`Point::flip_x`]); used by the *independent* query sets.
    #[inline]
    pub fn flip_x(&self, lo: f64, hi: f64) -> Rect {
        Rect::from_corners(self.min.flip_x(lo, hi), self.max.flip_x(lo, hi))
    }

    /// Clamps the rectangle into `bounds`, returning `None` if they are
    /// disjoint.
    #[inline]
    pub fn clamp_to(&self, bounds: &Rect) -> Option<Rect> {
        self.intersection(bounds)
    }

    /// Returns `true` if all four coordinates are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.min.is_finite() && self.max.is_finite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(x0, y0, x1, y1)
    }

    #[test]
    fn new_normalizes_corner_order() {
        let a = r(3.0, 4.0, 1.0, 2.0);
        assert_eq!(a, r(1.0, 2.0, 3.0, 4.0));
        assert!(a.min.x <= a.max.x && a.min.y <= a.max.y);
    }

    #[test]
    fn area_and_margin() {
        let a = r(0.0, 0.0, 3.0, 2.0);
        assert_eq!(a.area(), 6.0);
        assert_eq!(a.margin(), 10.0);
    }

    #[test]
    fn degenerate_rect_has_zero_area_but_margin() {
        let seg = r(0.0, 0.0, 5.0, 0.0);
        assert_eq!(seg.area(), 0.0);
        assert_eq!(seg.margin(), 10.0);
        let pt = Rect::from_point(Point::new(1.0, 1.0));
        assert_eq!(pt.area(), 0.0);
        assert_eq!(pt.margin(), 0.0);
    }

    #[test]
    fn intersects_including_touching() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        assert!(a.intersects(&r(1.0, 1.0, 3.0, 3.0)));
        assert!(a.intersects(&r(2.0, 0.0, 4.0, 2.0))); // shared edge
        assert!(a.intersects(&r(2.0, 2.0, 3.0, 3.0))); // shared corner
        assert!(!a.intersects(&r(2.1, 0.0, 3.0, 2.0)));
        assert!(!a.intersects(&r(0.0, 2.1, 2.0, 3.0)));
    }

    #[test]
    fn containment() {
        let outer = r(0.0, 0.0, 10.0, 10.0);
        let inner = r(2.0, 2.0, 3.0, 3.0);
        assert!(outer.contains(&inner));
        assert!(!inner.contains(&outer));
        assert!(outer.contains(&outer));
        assert!(outer.contains_point(&Point::new(0.0, 0.0)));
        assert!(outer.contains_point(&Point::new(10.0, 10.0)));
        assert!(!outer.contains_point(&Point::new(10.0, 10.1)));
    }

    #[test]
    fn union_covers_both() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(2.0, -1.0, 3.0, 0.5);
        let u = a.union(&b);
        assert!(u.contains(&a));
        assert!(u.contains(&b));
        assert_eq!(u, r(0.0, -1.0, 3.0, 1.0));
    }

    #[test]
    fn intersection_of_overlapping() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(1.0, 1.0, 3.0, 3.0);
        assert_eq!(a.intersection(&b), Some(r(1.0, 1.0, 2.0, 2.0)));
        assert_eq!(a.overlap_area(&b), 1.0);
    }

    #[test]
    fn intersection_of_disjoint_is_none() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(5.0, 5.0, 6.0, 6.0);
        assert_eq!(a.intersection(&b), None);
        assert_eq!(a.overlap_area(&b), 0.0);
    }

    #[test]
    fn touching_rects_have_zero_overlap_area() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(1.0, 0.0, 2.0, 1.0);
        assert!(a.intersects(&b));
        assert_eq!(a.overlap_area(&b), 0.0);
    }

    #[test]
    fn enlargement_zero_when_contained() {
        let a = r(0.0, 0.0, 4.0, 4.0);
        let b = r(1.0, 1.0, 2.0, 2.0);
        assert_eq!(a.enlargement(&b), 0.0);
        assert!(b.enlargement(&a) > 0.0);
    }

    #[test]
    fn min_dist_inside_is_zero() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        assert_eq!(a.min_dist(&Point::new(1.0, 1.0)), 0.0);
        assert_eq!(a.min_dist(&Point::new(5.0, 2.0)), 3.0);
        assert_eq!(a.min_dist(&Point::new(5.0, 6.0)), 5.0);
    }

    #[test]
    fn flip_x_is_involutive() {
        let a = r(1.0, 2.0, 3.0, 4.0);
        let f = a.flip_x(0.0, 10.0);
        assert_eq!(f, r(7.0, 2.0, 9.0, 4.0));
        assert_eq!(f.flip_x(0.0, 10.0), a);
    }

    #[test]
    fn centered_constructors() {
        let c = Point::new(5.0, 5.0);
        assert_eq!(Rect::centered_square(c, 1.0), r(4.0, 4.0, 6.0, 6.0));
        assert_eq!(Rect::centered(c, 2.0, 4.0), r(4.0, 3.0, 6.0, 7.0));
    }
}
