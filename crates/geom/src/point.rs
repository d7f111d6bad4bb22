use serde::Serialize;

/// A point in the two-dimensional Euclidean plane.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Point {
    /// x-coordinate.
    pub x: f64,
    /// y-coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point::new(0.0, 0.0);

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other` (avoids the `sqrt` when only
    /// comparisons are needed).
    #[inline]
    pub fn distance_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Component-wise minimum of two points.
    #[inline]
    pub fn min(&self, other: &Point) -> Point {
        Point::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum of two points.
    #[inline]
    pub fn max(&self, other: &Point) -> Point {
        Point::new(self.x.max(other.x), self.y.max(other.y))
    }

    /// Mirrors the point horizontally inside `[lo, hi]` on the x-axis.
    ///
    /// Used by the paper's *independent* query distribution, which flips the
    /// x-coordinates of the query objects so that the query and data
    /// distributions become independent of each other.
    #[inline]
    pub fn flip_x(&self, lo: f64, hi: f64) -> Point {
        Point::new(hi - (self.x - lo), self.y)
    }

    /// Returns `true` if both coordinates are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance_sq(&b), 25.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(-1.5, 2.0);
        let b = Point::new(4.0, -0.5);
        assert_eq!(a.distance(&b), b.distance(&a));
    }

    #[test]
    fn min_max_componentwise() {
        let a = Point::new(1.0, 4.0);
        let b = Point::new(2.0, 3.0);
        assert_eq!(a.min(&b), Point::new(1.0, 3.0));
        assert_eq!(a.max(&b), Point::new(2.0, 4.0));
    }

    #[test]
    fn flip_x_mirrors_within_range() {
        let p = Point::new(2.0, 5.0);
        let flipped = p.flip_x(0.0, 10.0);
        assert_eq!(flipped, Point::new(8.0, 5.0));
        // Flipping twice is the identity.
        assert_eq!(flipped.flip_x(0.0, 10.0), p);
    }

    #[test]
    fn from_tuple() {
        let p: Point = (1.0, 2.0).into();
        assert_eq!(p, Point::new(1.0, 2.0));
    }
}
