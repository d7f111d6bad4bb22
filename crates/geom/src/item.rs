use crate::{HasMbr, Rect};
use serde::Serialize;

/// A spatial object reduced to what an index needs: an id and an MBR.
///
/// Datasets (`asb-workload`) produce these and the R\*-tree
/// (`asb-rtree`) indexes them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SpatialItem {
    /// Application-level identifier reported by queries.
    pub id: u64,
    /// Minimum bounding rectangle of the object.
    pub mbr: Rect,
}

impl SpatialItem {
    /// Creates an item.
    pub fn new(id: u64, mbr: Rect) -> Self {
        SpatialItem { id, mbr }
    }
}

impl HasMbr for SpatialItem {
    fn mbr(&self) -> Rect {
        self.mbr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_reports_its_mbr() {
        let r = Rect::new(0.0, 0.0, 1.0, 2.0);
        assert_eq!(SpatialItem::new(7, r).mbr(), r);
    }
}
