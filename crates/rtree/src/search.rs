//! The one R\*-tree query traversal, as a resumable state machine.
//!
//! A [`Search`] never touches a page store. It names the pages it needs
//! next ([`Search::wants`]), is handed the decoded nodes
//! ([`Search::feed`]) and repeats until it wants nothing. Who fetches the
//! pages, and how many at a time, is the driver's business:
//! [`RTree`](crate::RTree) asks for one page, reads it through its buffer
//! and feeds it, so the page-reference string of a query is the sequence
//! of `wants(1)` answers; a serving front end asks for a slice per round
//! and fetches the slices of many searches as one batch.
//!
//! An asked page the driver could not deliver prunes that page's subtree:
//! the search keeps going, its answer is a subset of the exact one, and
//! [`Search::pruned`] says so.

use crate::node::{Node, NodeKind};
use asb_geom::{Point, Query, Rect};
use asb_storage::PageId;
use std::collections::BinaryHeap;

/// A best-first candidate: a node page to expand or an object to emit.
#[derive(PartialEq)]
struct Candidate {
    dist: f64,
    /// `Ok`: a node page to expand; `Err`: an object id to emit.
    target: Result<PageId, u64>,
}

impl Eq for Candidate {}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we need the minimum.
        other
            .dist
            .partial_cmp(&self.dist)
            .expect("finite distances")
    }
}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

enum State {
    /// Depth-first point/window scan. The asked slice is the top `asked`
    /// entries of `stack`.
    Window {
        query: Query,
        stack: Vec<PageId>,
        asked: usize,
        results: Vec<u64>,
        /// Non-zero object-page pointers of the matches, in match order.
        object_pages: Vec<u64>,
    },
    /// Best-first k-NN: the candidate heap plus the neighbours emitted so
    /// far. Between calls, while neighbours are missing, the heap's top is
    /// a node page.
    Nearest {
        point: Point,
        k: usize,
        heap: BinaryHeap<Candidate>,
        best: Vec<(u64, f64)>,
    },
    /// Window-restricted self-join over a queue of node pairs.
    Join {
        region: Rect,
        pairs: Vec<(PageId, PageId)>,
        asked: Vec<PageId>,
        count: u64,
    },
}

/// One in-flight point, window, k-NN or window-restricted self-join query
/// over an R\*-tree. It names the pages it needs ([`Search::wants`]), is
/// fed their decoded nodes ([`Search::feed`]), and is done once it wants
/// nothing more.
pub struct Search {
    state: State,
    pruned: bool,
}

impl Search {
    /// A point or window query from `root`: all objects matching `query`.
    pub fn window(root: PageId, query: Query) -> Search {
        Search::start(State::Window {
            query,
            stack: vec![root],
            asked: 0,
            results: Vec::new(),
            object_pages: Vec::new(),
        })
    }

    /// The `k` objects nearest to `point` by MBR distance, best-first
    /// (`k == 0` is done before it wants a page).
    pub fn nearest(root: PageId, point: Point, k: usize) -> Search {
        let mut heap = BinaryHeap::new();
        heap.push(Candidate {
            dist: 0.0,
            target: Ok(root),
        });
        Search::start(State::Nearest {
            point,
            k,
            heap,
            best: Vec::new(),
        })
    }

    /// The number of unordered pairs of distinct objects that intersect
    /// `region` and each other.
    pub fn join(root: PageId, region: Rect) -> Search {
        Search::start(State::Join {
            region,
            pairs: vec![(root, root)],
            asked: Vec::new(),
            count: 0,
        })
    }

    fn start(state: State) -> Search {
        Search {
            state,
            pruned: false,
        }
    }

    /// The distinct pages the search needs next, at most `limit` of them
    /// (at least one); empty exactly when the search is done. A window
    /// scan asks for the top `limit` entries of its depth-first stack, a
    /// k-NN search for its single best node, a join for the pages of its
    /// first `limit / 2` pairs.
    pub fn wants(&mut self, limit: usize) -> &[PageId] {
        let limit = limit.max(1);
        match &mut self.state {
            State::Window { stack, asked, .. } => {
                *asked = limit.min(stack.len());
                &stack[stack.len() - *asked..]
            }
            State::Nearest { k, heap, best, .. } => match heap.peek() {
                Some(Candidate {
                    target: Ok(page), ..
                }) if best.len() < *k => std::slice::from_ref(page),
                _ => &[],
            },
            State::Join { pairs, asked, .. } => {
                asked.clear();
                for &(a, b) in pairs.iter().take((limit / 2).max(1)) {
                    for id in [a, b] {
                        if !asked.contains(&id) {
                            asked.push(id);
                        }
                    }
                }
                asked
            }
        }
    }

    /// Consumes the pages of the last [`wants`](Search::wants) call:
    /// `delivered` maps each to its node, or to `None` when the page could
    /// not be had — its subtree is then skipped and the search is marked
    /// [`pruned`](Search::pruned).
    pub fn feed<'n>(&mut self, mut delivered: impl FnMut(PageId) -> Option<&'n Node>) {
        match &mut self.state {
            State::Window {
                query,
                stack,
                asked,
                results,
                object_pages,
            } => {
                let region = query.region();
                let base = stack.len() - *asked;
                // Top first; children land above the asked slice, which
                // is then cut out from under them.
                for i in (base..base + *asked).rev() {
                    match delivered(stack[i]).map(|node| &node.kind) {
                        None => self.pruned = true,
                        Some(NodeKind::Dir(entries)) => {
                            for e in entries {
                                if e.mbr.intersects(&region) {
                                    stack.push(e.child);
                                }
                            }
                        }
                        Some(NodeKind::Leaf(entries)) => {
                            for e in entries {
                                if query.matches(&e.mbr) {
                                    results.push(e.object_id);
                                    if e.object_page != 0 {
                                        object_pages.push(e.object_page);
                                    }
                                }
                            }
                        }
                    }
                }
                stack.drain(base..base + *asked);
                *asked = 0;
            }
            State::Nearest {
                point,
                k,
                heap,
                best,
            } => {
                if best.len() >= *k {
                    return;
                }
                let Some(Candidate {
                    target: Ok(page), ..
                }) = heap.pop()
                else {
                    return;
                };
                // Pushed one by one: the heap's order among equidistant
                // candidates is part of the answer.
                match delivered(page).map(|node| &node.kind) {
                    // The best candidate's page is unreachable: abandon
                    // that subtree, stay best-first over the rest.
                    None => self.pruned = true,
                    Some(NodeKind::Dir(entries)) => {
                        for e in entries {
                            heap.push(Candidate {
                                dist: e.mbr.min_dist(point),
                                target: Ok(e.child),
                            });
                        }
                    }
                    Some(NodeKind::Leaf(entries)) => {
                        for e in entries {
                            heap.push(Candidate {
                                dist: e.mbr.min_dist(point),
                                target: Err(e.object_id),
                            });
                        }
                    }
                }
                // Leading objects need no page access: emit them.
                while best.len() < *k {
                    match heap.peek() {
                        Some(&Candidate {
                            dist,
                            target: Err(object),
                        }) => {
                            heap.pop();
                            best.push((object, dist));
                        }
                        _ => break,
                    }
                }
            }
            State::Join {
                region,
                pairs,
                asked,
                count,
            } => {
                let take = pairs
                    .iter()
                    .take_while(|(a, b)| asked.contains(a) && asked.contains(b))
                    .count();
                asked.clear();
                // The taken pairs leave the front of the queue only after
                // their children joined its back (no second pair list).
                for p in 0..take {
                    let (a, b) = pairs[p];
                    let (Some(na), Some(nb)) = (delivered(a), delivered(b)) else {
                        self.pruned = true;
                        continue;
                    };
                    match (&na.kind, &nb.kind) {
                        (NodeKind::Dir(ea), NodeKind::Dir(eb)) => {
                            for (i, x) in ea.iter().enumerate() {
                                if !x.mbr.intersects(region) {
                                    continue;
                                }
                                let j0 = if a == b { i } else { 0 };
                                for y in &eb[j0..] {
                                    if y.mbr.intersects(region) && x.mbr.intersects(&y.mbr) {
                                        let (lo, hi) = if x.child.raw() <= y.child.raw() {
                                            (x.child, y.child)
                                        } else {
                                            (y.child, x.child)
                                        };
                                        pairs.push((lo, hi));
                                    }
                                }
                            }
                        }
                        (NodeKind::Leaf(ea), NodeKind::Leaf(eb)) => {
                            for (i, x) in ea.iter().enumerate() {
                                if !x.mbr.intersects(region) {
                                    continue;
                                }
                                let j0 = if a == b { i + 1 } else { 0 };
                                for y in &eb[j0..] {
                                    if y.mbr.intersects(region) && x.mbr.intersects(&y.mbr) {
                                        *count += 1;
                                    }
                                }
                            }
                        }
                        // An R*-tree is balanced, so synchronized descent
                        // only ever pairs equal levels.
                        _ => unreachable!("join pairs stay level-synchronized"),
                    }
                }
                pairs.drain(..take);
            }
        }
    }

    /// Whether the search wants no more pages.
    pub fn done(&self) -> bool {
        match &self.state {
            State::Window { stack, .. } => stack.is_empty(),
            State::Nearest { k, heap, best, .. } => best.len() >= *k || heap.is_empty(),
            State::Join { pairs, .. } => pairs.is_empty(),
        }
    }

    /// Whether any asked page went undelivered, making the answer a
    /// subset of the exact one (join: a lower bound on the pair count).
    pub fn pruned(&self) -> bool {
        self.pruned
    }

    /// Takes the non-zero object-page pointers of a window scan's matches
    /// so far, in match order (empty for the other kinds).
    pub fn take_object_pages(&mut self) -> Vec<u64> {
        match &mut self.state {
            State::Window { object_pages, .. } => std::mem::take(object_pages),
            _ => Vec::new(),
        }
    }

    /// The k-NN answer so far as `(object id, distance)` pairs by
    /// ascending distance (empty for the other kinds).
    pub fn into_neighbors(self) -> Vec<(u64, f64)> {
        match self.state {
            State::Nearest { best, .. } => best,
            _ => Vec::new(),
        }
    }

    /// The answer so far as object ids: a window scan's matches in visit
    /// order, a k-NN search's neighbours by ascending distance, a join's
    /// single pair count.
    pub fn into_results(self) -> Vec<u64> {
        match self.state {
            State::Window { results, .. } => results,
            State::Nearest { best, .. } => best.into_iter().map(|(id, _)| id).collect(),
            State::Join { count, .. } => vec![count],
        }
    }
}
