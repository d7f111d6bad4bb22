//! The R\*-tree heuristics: ChooseSubtree scoring, the margin-driven split,
//! and the forced-reinsertion ordering (Beckmann et al., SIGMOD 1990).

use crate::node::DirEntry;
use asb_geom::{mbr_of, HasMbr, Rect};

/// Outcome of splitting an overfull entry list into two groups.
#[derive(Debug)]
pub(crate) struct SplitResult<E> {
    pub first: Vec<E>,
    pub second: Vec<E>,
}

/// R\* split: choose the split axis by the minimum sum of margins over all
/// candidate distributions, then the distribution with minimal overlap
/// between the two groups (ties: minimal total area).
///
/// `min_fill` is the R\*-tree's `m`; candidate distributions put
/// `k ∈ [m, len − m]` entries into the first group, taken from the entry
/// list sorted by lower and by upper MBR boundary along the axis.
pub(crate) fn rstar_split<E: HasMbr + Clone>(entries: Vec<E>, min_fill: usize) -> SplitResult<E> {
    let len = entries.len();
    debug_assert!(len >= 2 * min_fill, "split requires at least 2m entries");

    // For each axis, evaluate both sort orders and accumulate the margin sum.
    let mut best_axis: Option<(f64, Vec<E>)> = None; // (margin_sum, sorted entries)
    for axis in 0..2usize {
        for by_upper in [false, true] {
            let mut sorted = entries.clone();
            sort_along(&mut sorted, axis, by_upper);
            let margin_sum: f64 = distributions(len, min_fill)
                .map(|k| {
                    let (a, b) = group_bbs(&sorted, k);
                    a.margin() + b.margin()
                })
                .sum();
            match &best_axis {
                Some((best, _)) if *best <= margin_sum => {}
                _ => best_axis = Some((margin_sum, sorted)),
            }
        }
    }
    let (_, sorted) = best_axis.expect("at least one axis evaluated");

    // Along the chosen ordering, pick the distribution minimizing overlap,
    // ties broken by total area.
    let mut best: Option<(usize, f64, f64)> = None; // (k, overlap, area)
    for k in distributions(len, min_fill) {
        let (a, b) = group_bbs(&sorted, k);
        let overlap = a.overlap_area(&b);
        let area = a.area() + b.area();
        let better = match best {
            None => true,
            Some((_, bo, ba)) => overlap < bo || (overlap == bo && area < ba),
        };
        if better {
            best = Some((k, overlap, area));
        }
    }
    let (k, _, _) = best.expect("at least one distribution evaluated");
    let mut first = sorted;
    let second = first.split_off(k);
    SplitResult { first, second }
}

fn distributions(len: usize, min_fill: usize) -> impl Iterator<Item = usize> {
    min_fill..=(len - min_fill)
}

fn group_bbs<E: HasMbr>(sorted: &[E], k: usize) -> (Rect, Rect) {
    let a = mbr_of(sorted[..k].iter().map(|e| e.mbr())).expect("non-empty group");
    let b = mbr_of(sorted[k..].iter().map(|e| e.mbr())).expect("non-empty group");
    (a, b)
}

fn sort_along<E: HasMbr>(entries: &mut [E], axis: usize, by_upper: bool) {
    entries.sort_by(|l, r| {
        let (lm, rm) = (l.mbr(), r.mbr());
        let key = |m: &Rect| -> (f64, f64) {
            let (lo, hi) = if axis == 0 {
                (m.min.x, m.max.x)
            } else {
                (m.min.y, m.max.y)
            };
            if by_upper {
                (hi, lo)
            } else {
                (lo, hi)
            }
        };
        key(&lm).partial_cmp(&key(&rm)).expect("finite coordinates")
    });
}

/// ChooseSubtree for directory nodes whose children are leaves: pick the
/// entry whose MBR needs the least **overlap enlargement** to include
/// `rect`; ties by least area enlargement, then least area.
///
/// Two kinds of term are left out of the overlap sum because their value is
/// known to be `+0`: the term of a sibling disjoint from `e ∪ rect` (`0 − 0`,
/// since `e` lies inside `e ∪ rect`), and every term of an entry of finite
/// area that already covers `rect` (`x − x` with `x ≤ area(e)` finite). A
/// sum that starts at `+0` and only ever adds terms `≥ +0` is unchanged,
/// bit for bit, by dropping `+0`s, so the chosen child is the full pair
/// loop's for all finite coordinates. (Huge finite coordinates can
/// overflow an area to ∞, and then `x − x` is NaN: such an entry gets the
/// full loop.) The tree refuses non-finite coordinates at `insert`, bulk
/// load and the write path's decode.
pub(crate) fn choose_least_overlap(entries: &[DirEntry], rect: &Rect) -> usize {
    let mut best = 0usize;
    let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for (i, e) in entries.iter().enumerate() {
        let enlarged = e.mbr.union(rect);
        let area = e.mbr.area();
        let mut overlap_delta = 0.0;
        if enlarged != e.mbr || !area.is_finite() {
            for (j, f) in entries.iter().enumerate() {
                if i != j && enlarged.intersects(&f.mbr) {
                    overlap_delta += enlarged.overlap_area(&f.mbr) - e.mbr.overlap_area(&f.mbr);
                }
            }
        }
        let key = (overlap_delta, e.mbr.enlargement(rect), area);
        if key < best_key {
            best_key = key;
            best = i;
        }
    }
    best
}

/// ChooseSubtree for higher directory levels: least **area enlargement**,
/// ties by least area.
pub(crate) fn choose_least_enlargement(entries: &[DirEntry], rect: &Rect) -> usize {
    let mut best = 0usize;
    let mut best_key = (f64::INFINITY, f64::INFINITY);
    for (i, e) in entries.iter().enumerate() {
        let key = (e.mbr.enlargement(rect), e.mbr.area());
        if key < best_key {
            best_key = key;
            best = i;
        }
    }
    best
}

/// Forced reinsertion: removes the `count` entries whose centers lie
/// farthest from the node MBR's center and returns them ordered **closest
/// first** (the R\* paper's "close reinsert").
pub(crate) fn take_reinsert_victims<E: HasMbr>(entries: &mut Vec<E>, count: usize) -> Vec<E> {
    debug_assert!(count < entries.len());
    let center = mbr_of(entries.iter().map(|e| e.mbr()))
        .expect("non-empty node")
        .center();
    // Sort ascending by distance; the tail holds the far entries.
    entries.sort_by(|a, b| {
        let da = a.mbr().center().distance_sq(&center);
        let db = b.mbr().center().distance_sq(&center);
        da.partial_cmp(&db).expect("finite coordinates")
    });
    // split_off keeps ascending order: victims come back closest-first.
    entries.split_off(entries.len() - count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asb_geom::Point;
    use asb_storage::PageId;

    #[derive(Clone, Debug)]
    struct Tagged(Rect, #[allow(dead_code)] u64);

    impl HasMbr for Tagged {
        fn mbr(&self) -> Rect {
            self.0
        }
    }

    fn unit(x: f64, y: f64) -> Tagged {
        Tagged(Rect::new(x, y, x + 1.0, y + 1.0), (x * 100.0 + y) as u64)
    }

    #[test]
    fn split_separates_two_clusters() {
        // Two clearly separated clusters of 4 along x.
        let mut entries = Vec::new();
        for i in 0..4 {
            entries.push(unit(i as f64 * 0.1, 0.0));
            entries.push(unit(100.0 + i as f64 * 0.1, 0.0));
        }
        let result = rstar_split(entries, 2);
        let (a, b) = (
            mbr_of(result.first.iter().map(|e| e.mbr())).unwrap(),
            mbr_of(result.second.iter().map(|e| e.mbr())).unwrap(),
        );
        assert_eq!(a.overlap_area(&b), 0.0, "clusters must not be mixed");
        assert_eq!(result.first.len(), 4);
        assert_eq!(result.second.len(), 4);
    }

    #[test]
    fn split_respects_min_fill() {
        let entries: Vec<_> = (0..9).map(|i| unit(i as f64 * 3.0, 0.0)).collect();
        let m = 3;
        let result = rstar_split(entries, m);
        assert!(result.first.len() >= m && result.second.len() >= m);
        assert_eq!(result.first.len() + result.second.len(), 9);
    }

    #[test]
    fn split_picks_the_discriminating_axis() {
        // Entries spread along y, overlapping in x: a good split uses y.
        let entries: Vec<_> = (0..8).map(|i| unit(0.0, i as f64 * 5.0)).collect();
        let result = rstar_split(entries, 2);
        let (a, b) = (
            mbr_of(result.first.iter().map(|e| e.mbr())).unwrap(),
            mbr_of(result.second.iter().map(|e| e.mbr())).unwrap(),
        );
        assert_eq!(a.overlap_area(&b), 0.0);
        // Groups are separated in y, not x.
        assert!(a.max.y <= b.min.y || b.max.y <= a.min.y);
    }

    fn dir(r: Rect, id: u64) -> DirEntry {
        DirEntry {
            mbr: r,
            child: PageId::new(id),
        }
    }

    #[test]
    fn least_enlargement_prefers_containing_entry() {
        let entries = vec![
            dir(Rect::new(0.0, 0.0, 10.0, 10.0), 1),
            dir(Rect::new(20.0, 20.0, 21.0, 21.0), 2),
        ];
        let target = Rect::new(1.0, 1.0, 2.0, 2.0);
        assert_eq!(choose_least_enlargement(&entries, &target), 0);
    }

    #[test]
    fn least_enlargement_breaks_ties_by_area() {
        // Both contain the rect (zero enlargement); the smaller wins.
        let entries = vec![
            dir(Rect::new(0.0, 0.0, 100.0, 100.0), 1),
            dir(Rect::new(0.0, 0.0, 10.0, 10.0), 2),
        ];
        let target = Rect::new(1.0, 1.0, 2.0, 2.0);
        assert_eq!(choose_least_enlargement(&entries, &target), 1);
    }

    #[test]
    fn least_overlap_avoids_creating_overlap() {
        // Entry 0 could include the rect with little area growth but would
        // start overlapping entry 1; entry 2 is free-standing.
        let entries = vec![
            dir(Rect::new(0.0, 0.0, 4.0, 4.0), 1),
            dir(Rect::new(4.5, 0.0, 8.0, 4.0), 2),
            dir(Rect::new(0.0, 10.0, 5.0, 14.0), 3),
        ];
        let target = Rect::new(4.4, 11.0, 5.4, 12.0);
        // Including into 0 or 1 would grow them toward each other; entry 2
        // absorbs the rect with zero overlap delta.
        assert_eq!(choose_least_overlap(&entries, &target), 2);
    }

    /// ChooseSubtree's overlap step as first written: every ordered pair.
    fn least_overlap_brute_force(entries: &[DirEntry], rect: &Rect) -> usize {
        let mut best = 0usize;
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for (i, e) in entries.iter().enumerate() {
            let enlarged = e.mbr.union(rect);
            let mut overlap_delta = 0.0;
            for (j, f) in entries.iter().enumerate() {
                if i == j {
                    continue;
                }
                overlap_delta += enlarged.overlap_area(&f.mbr) - e.mbr.overlap_area(&f.mbr);
            }
            let key = (overlap_delta, e.mbr.enlargement(rect), e.mbr.area());
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }

    /// On a coarse grid (so that nested, touching, equal and degenerate
    /// rectangles are common), on a fine one, and on a huge one whose
    /// areas overflow to ∞, with 1 to 51 entries.
    #[test]
    fn least_overlap_picks_the_brute_force_child() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for case in 0..6000 {
            let cells = [8.0, 1e6, 1e300][case % 3];
            let mut rect = || {
                let (x, y) = (rng.gen_range(0.0..cells), rng.gen_range(0.0..cells));
                let (w, h) = (
                    rng.gen_range(0.0..cells / 3.0),
                    rng.gen_range(0.0..cells / 3.0),
                );
                let snap = |v: f64| if cells < 10.0 { v.floor() } else { v };
                Rect::new(snap(x), snap(y), snap(x + w), snap(y + h))
            };
            let entries: Vec<DirEntry> = (0..1 + (case / 3) % 51)
                .map(|i| dir(rect(), i as u64))
                .collect();
            let target = rect();
            assert_eq!(
                choose_least_overlap(&entries, &target),
                least_overlap_brute_force(&entries, &target),
                "case {case}"
            );
        }
    }

    #[test]
    fn reinsert_victims_are_the_farthest() {
        let mut entries = vec![
            unit(0.0, 0.0),
            unit(1.0, 0.0),
            unit(0.0, 1.0),
            unit(1.0, 1.0),
            unit(100.0, 100.0), // outlier
        ];
        let victims = take_reinsert_victims(&mut entries, 1);
        assert_eq!(victims.len(), 1);
        assert_eq!(victims[0].mbr().min, Point::new(100.0, 100.0));
        assert_eq!(entries.len(), 4);
    }

    #[test]
    fn reinsert_victims_come_back_closest_first() {
        let mut entries = vec![
            unit(0.0, 0.0),
            unit(0.2, 0.0),
            unit(10.0, 0.0),
            unit(50.0, 0.0),
        ];
        let victims = take_reinsert_victims(&mut entries, 2);
        let d0 = victims[0].mbr().center().x;
        let d1 = victims[1].mbr().center().x;
        assert!(d0 < d1, "closest victim must be reinserted first");
    }
}
