//! The Z-order (Morton) curve: [`z_order`] interleaves a pair of `u32`
//! grid coordinates into a `u64` key and [`z_order_inverse`] takes it
//! apart again. These are the "z-values stored in a B-tree" of
//! Orenstein/Manola that the paper cites as one source of page entries.
//! [`CurveGrid`] maps continuous points onto the grid.

use crate::{Point, Rect};

/// Number of bits per dimension used by the curve encodings.
pub const CURVE_BITS: u32 = 32;

/// Interleaves the bits of `x` and `y` into a Z-order (Morton) key.
///
/// Bit `i` of `x` lands on bit `2i` of the result, bit `i` of `y` on bit
/// `2i + 1`, so keys sort by the classic N-shaped Z curve.
#[inline]
pub fn z_order(x: u32, y: u32) -> u64 {
    spread(x) | (spread(y) << 1)
}

/// Inverse of [`z_order`].
#[inline]
pub fn z_order_inverse(key: u64) -> (u32, u32) {
    (compact(key), compact(key >> 1))
}

/// Spreads the 32 bits of `v` onto the even bit positions of a `u64`.
#[inline]
fn spread(v: u32) -> u64 {
    let mut v = v as u64;
    v = (v | (v << 16)) & 0x0000_FFFF_0000_FFFF;
    v = (v | (v << 8)) & 0x00FF_00FF_00FF_00FF;
    v = (v | (v << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    v = (v | (v << 2)) & 0x3333_3333_3333_3333;
    v = (v | (v << 1)) & 0x5555_5555_5555_5555;
    v
}

/// Gathers the even bit positions of `v` back into 32 bits.
#[inline]
fn compact(v: u64) -> u32 {
    let mut v = v & 0x5555_5555_5555_5555;
    v = (v | (v >> 1)) & 0x3333_3333_3333_3333;
    v = (v | (v >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    v = (v | (v >> 4)) & 0x00FF_00FF_00FF_00FF;
    v = (v | (v >> 8)) & 0x0000_FFFF_0000_FFFF;
    v = (v | (v >> 16)) & 0x0000_0000_FFFF_FFFF;
    v as u32
}

/// A uniform grid over a bounding rectangle, quantizing continuous points to
/// curve coordinates.
#[derive(Debug, Clone, Copy)]
pub struct CurveGrid {
    bounds: Rect,
    /// Grid resolution per dimension (cells = `1 << bits`).
    bits: u32,
}

impl CurveGrid {
    /// Creates a grid of `1 << bits` cells per dimension over `bounds`.
    ///
    /// # Panics
    /// Panics if `bits == 0 || bits > 32` or if `bounds` is degenerate in
    /// either dimension.
    pub fn new(bounds: Rect, bits: u32) -> Self {
        assert!((1..=32).contains(&bits), "bits must be in 1..=32");
        assert!(
            bounds.width() > 0.0 && bounds.height() > 0.0,
            "grid bounds must have positive extent"
        );
        CurveGrid { bounds, bits }
    }

    /// The grid bounds.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Shift that scales grid coordinates up to [`CURVE_BITS`] resolution
    /// (the resolution of [`CurveGrid::z_key`]).
    pub fn shift(&self) -> u32 {
        CURVE_BITS - self.bits
    }

    /// Quantizes a point to grid coordinates, clamping to the bounds.
    pub fn quantize(&self, p: &Point) -> (u32, u32) {
        let cells = (1u64 << self.bits) as f64;
        let fx = ((p.x - self.bounds.min.x) / self.bounds.width()).clamp(0.0, 1.0);
        let fy = ((p.y - self.bounds.min.y) / self.bounds.height()).clamp(0.0, 1.0);
        let qx = ((fx * cells) as u64).min((1u64 << self.bits) - 1) as u32;
        let qy = ((fy * cells) as u64).min((1u64 << self.bits) - 1) as u32;
        (qx, qy)
    }

    /// Z-order key of a point.
    pub fn z_key(&self, p: &Point) -> u64 {
        let (x, y) = self.quantize(p);
        z_order(x << self.shift(), y << self.shift())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z_order_small_values() {
        assert_eq!(z_order(0, 0), 0);
        assert_eq!(z_order(1, 0), 1);
        assert_eq!(z_order(0, 1), 2);
        assert_eq!(z_order(1, 1), 3);
        assert_eq!(z_order(2, 0), 4);
        assert_eq!(z_order(3, 3), 15);
    }

    #[test]
    fn z_order_roundtrip() {
        for &(x, y) in &[
            (0u32, 0u32),
            (1, 2),
            (123, 456),
            (u32::MAX, 0),
            (u32::MAX, u32::MAX),
        ] {
            assert_eq!(z_order_inverse(z_order(x, y)), (x, y));
        }
    }

    #[test]
    fn grid_quantize_corners() {
        let g = CurveGrid::new(Rect::new(0.0, 0.0, 10.0, 10.0), 8);
        assert_eq!(g.quantize(&Point::new(0.0, 0.0)), (0, 0));
        assert_eq!(g.quantize(&Point::new(10.0, 10.0)), (255, 255));
        // Out-of-bounds points clamp.
        assert_eq!(g.quantize(&Point::new(-5.0, 20.0)), (0, 255));
    }

    #[test]
    fn grid_keys_are_monotone_in_locality() {
        let g = CurveGrid::new(Rect::new(0.0, 0.0, 1.0, 1.0), 16);
        let a = g.z_key(&Point::new(0.1, 0.1));
        let b = g.z_key(&Point::new(0.100001, 0.1));
        let c = g.z_key(&Point::new(0.9, 0.9));
        // Nearby points have much closer keys than distant ones.
        assert!(a.abs_diff(b) < a.abs_diff(c));
    }

    #[test]
    #[should_panic(expected = "bits")]
    fn grid_rejects_zero_bits() {
        let _ = CurveGrid::new(Rect::new(0.0, 0.0, 1.0, 1.0), 0);
    }
}
