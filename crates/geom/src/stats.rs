use crate::{mbr_of, Rect};
use serde::Serialize;

/// Precomputed spatial criteria of a page, as defined in Section 2.3 of the
/// EDBT 2002 paper.
///
/// A page `p` in a spatial database contains entries `e ∈ p`, each with an
/// MBR (spatial objects on object pages, rectangles on R-tree data and
/// directory pages, quadtree cells, z-value ranges, …). The five spatial
/// page-replacement algorithms are driven by one scalar per page:
///
/// | Variant | `spatialCrit(p)` |
/// |---------|------------------|
/// | A  | `area(mbr(p))` — area of the MBR of all entries |
/// | EA | `Σ_e area(mbr(e))` — entry areas (not normalized, so it also rewards storage utilization, criterion O4) |
/// | M  | `margin(mbr(p))` |
/// | EM | `Σ_e margin(mbr(e))` |
/// | EO | `Σ_{e≠f} area(mbr(e) ∩ mbr(f)) / 2` — pairwise entry overlap |
///
/// The struct is computed once when a page is (re)written and travels with
/// the page, so the buffer manager can evaluate any criterion in O(1) —
/// matching the paper's remark that area and margin cost "only a small
/// overhead when a new page is loaded into the buffer" and that storing the
/// overlap on the page "may be worthwhile".
///
/// ```
/// use asb_geom::{Rect, SpatialCriterion, SpatialStats};
///
/// let stats = SpatialStats::from_rects(&[
///     Rect::new(0.0, 0.0, 2.0, 2.0),
///     Rect::new(1.0, 1.0, 3.0, 3.0),
/// ]);
/// assert_eq!(stats.criterion(SpatialCriterion::Area), 9.0); // 3x3 page MBR
/// assert_eq!(stats.criterion(SpatialCriterion::EntryArea), 8.0);
/// assert_eq!(stats.criterion(SpatialCriterion::EntryOverlap), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SpatialStats {
    /// MBR of all entries of the page (`None` for an empty page).
    pub mbr: Option<Rect>,
    /// Number of entries the statistics were computed over.
    pub entry_count: u32,
    /// `Σ_e area(mbr(e))`.
    pub entry_area_sum: f64,
    /// `Σ_e margin(mbr(e))`.
    pub entry_margin_sum: f64,
    /// `Σ_{e≠f} area(mbr(e) ∩ mbr(f)) / 2` over unordered pairs.
    pub entry_overlap: f64,
}

/// The spatial page-replacement criterion selecting which per-page scalar
/// drives eviction (Section 2.3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum SpatialCriterion {
    /// Maximize the area of the page MBR (variant **A**).
    Area,
    /// Maximize the sum of the entry areas (variant **EA**).
    EntryArea,
    /// Maximize the margin of the page MBR (variant **M**).
    Margin,
    /// Maximize the sum of the entry margins (variant **EM**).
    EntryMargin,
    /// Maximize the pairwise overlap between entries (variant **EO**).
    EntryOverlap,
}

impl SpatialCriterion {
    /// All five criteria, in the paper's order.
    pub const ALL: [SpatialCriterion; 5] = [
        SpatialCriterion::Area,
        SpatialCriterion::EntryArea,
        SpatialCriterion::Margin,
        SpatialCriterion::EntryMargin,
        SpatialCriterion::EntryOverlap,
    ];

    /// Short name used in the paper's figures ("A", "EA", "M", "EM", "EO").
    pub fn short_name(&self) -> &'static str {
        match self {
            SpatialCriterion::Area => "A",
            SpatialCriterion::EntryArea => "EA",
            SpatialCriterion::Margin => "M",
            SpatialCriterion::EntryMargin => "EM",
            SpatialCriterion::EntryOverlap => "EO",
        }
    }
}

impl std::fmt::Display for SpatialCriterion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

impl SpatialStats {
    /// Statistics of a page with no entries. Every criterion evaluates to
    /// zero, so empty pages are always the first eviction victims — the
    /// desired behaviour.
    pub const EMPTY: SpatialStats = SpatialStats {
        mbr: None,
        entry_count: 0,
        entry_area_sum: 0.0,
        entry_margin_sum: 0.0,
        entry_overlap: 0.0,
    };

    /// Computes the statistics over the entry MBRs of a page.
    ///
    /// Runs in O(n²) for the pairwise overlap term; n is bounded by the page
    /// fan-out (51 in the paper's setup), so this is cheap and done once per
    /// page write.
    pub fn from_rects(entries: &[Rect]) -> Self {
        let mbr = mbr_of(entries.iter().copied());
        let mut area_sum = 0.0;
        let mut margin_sum = 0.0;
        for e in entries {
            area_sum += e.area();
            margin_sum += e.margin();
        }
        let mut overlap = 0.0;
        for (i, e) in entries.iter().enumerate() {
            for f in &entries[i + 1..] {
                overlap += e.overlap_area(f);
            }
        }
        // The paper's formula sums over ordered pairs and divides by two,
        // which equals the sum over unordered pairs computed above.
        SpatialStats {
            mbr,
            entry_count: entries.len() as u32,
            entry_area_sum: area_sum,
            entry_margin_sum: margin_sum,
            entry_overlap: overlap,
        }
    }

    /// Evaluates `spatialCrit(p)` for the chosen criterion.
    ///
    /// Larger values mean the page should stay in the buffer longer; the
    /// buffered page with the **smallest** value is the eviction candidate.
    #[inline]
    pub fn criterion(&self, which: SpatialCriterion) -> f64 {
        match which {
            SpatialCriterion::Area => self.mbr.map_or(0.0, |m| m.area()),
            SpatialCriterion::EntryArea => self.entry_area_sum,
            SpatialCriterion::Margin => self.mbr.map_or(0.0, |m| m.margin()),
            SpatialCriterion::EntryMargin => self.entry_margin_sum,
            SpatialCriterion::EntryOverlap => self.entry_overlap,
        }
    }
}

impl Default for SpatialStats {
    fn default() -> Self {
        SpatialStats::EMPTY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rect;

    fn r(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::new(x0, y0, x1, y1)
    }

    #[test]
    fn empty_page_stats_are_zero() {
        let s = SpatialStats::from_rects(&[]);
        assert_eq!(s, SpatialStats::EMPTY);
        for c in SpatialCriterion::ALL {
            assert_eq!(s.criterion(c), 0.0);
        }
    }

    #[test]
    fn single_entry_page() {
        let s = SpatialStats::from_rects(&[r(0.0, 0.0, 2.0, 3.0)]);
        assert_eq!(s.entry_count, 1);
        assert_eq!(s.criterion(SpatialCriterion::Area), 6.0);
        assert_eq!(s.criterion(SpatialCriterion::EntryArea), 6.0);
        assert_eq!(s.criterion(SpatialCriterion::Margin), 10.0);
        assert_eq!(s.criterion(SpatialCriterion::EntryMargin), 10.0);
        assert_eq!(s.criterion(SpatialCriterion::EntryOverlap), 0.0);
    }

    #[test]
    fn page_mbr_spans_entries() {
        let s = SpatialStats::from_rects(&[r(0.0, 0.0, 1.0, 1.0), r(4.0, 4.0, 5.0, 6.0)]);
        assert_eq!(s.mbr.unwrap(), r(0.0, 0.0, 5.0, 6.0));
        assert_eq!(s.criterion(SpatialCriterion::Area), 30.0);
        // Entry sums are not normalized by count (criterion O4).
        assert_eq!(s.criterion(SpatialCriterion::EntryArea), 1.0 + 2.0);
    }

    #[test]
    fn overlap_counts_each_unordered_pair_once() {
        // Three identical unit squares: 3 unordered pairs, each overlap 1.
        let sq = r(0.0, 0.0, 1.0, 1.0);
        let s = SpatialStats::from_rects(&[sq, sq, sq]);
        assert_eq!(s.criterion(SpatialCriterion::EntryOverlap), 3.0);
    }

    #[test]
    fn overlap_zero_for_disjoint_entries() {
        let s = SpatialStats::from_rects(&[r(0.0, 0.0, 1.0, 1.0), r(2.0, 2.0, 3.0, 3.0)]);
        assert_eq!(s.criterion(SpatialCriterion::EntryOverlap), 0.0);
    }

    #[test]
    fn a_equals_ea_for_complete_disjoint_partition() {
        // Directory pages of SAMs partitioning the space completely and
        // without overlap: A and EA coincide (paper, Section 2.3).
        let s = SpatialStats::from_rects(&[r(0.0, 0.0, 1.0, 2.0), r(1.0, 0.0, 2.0, 2.0)]);
        assert_eq!(
            s.criterion(SpatialCriterion::Area),
            s.criterion(SpatialCriterion::EntryArea)
        );
    }

    #[test]
    fn short_names_match_paper() {
        let names: Vec<_> = SpatialCriterion::ALL
            .iter()
            .map(|c| c.short_name())
            .collect();
        assert_eq!(names, ["A", "EA", "M", "EM", "EO"]);
    }
}
