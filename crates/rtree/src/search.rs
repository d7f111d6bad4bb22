//! The one R\*-tree query traversal, as a resumable state machine.
//!
//! A [`Search`] never touches a page store. It names the pages it needs
//! next ([`Search::wants`]), is handed a [`NodeView`] of each
//! ([`Search::feed`]) and repeats until it wants nothing. Who fetches the
//! pages, and how many at a time, is the driver's business:
//! [`RTree`](crate::RTree) asks for one page and feeds a view of the
//! buffered frame while it is pinned, so the page-reference string of a
//! query is the sequence of `wants(1)` answers; a serving front end asks
//! for a slice per round and fetches the slices of many searches as one
//! batch.
//!
//! An asked page the driver could not deliver prunes that page's subtree:
//! the search keeps going, its answer is a subset of the exact one, and
//! [`Search::pruned`] says so. So does a node that is not exactly one
//! level below the node that named it: a forged page cannot loop a search.

use crate::node::NodeView;
use crate::node::ViewEntries::{Dir, Leaf};
use asb_geom::{Point, Query, Rect};
use asb_storage::PageId;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::Range;

/// The expected level of a root, whose level nothing names.
const ANY_LEVEL: u8 = 0;

/// A best-first candidate: a node page to expand or an object to emit.
#[derive(PartialEq)]
struct Candidate {
    dist: f64,
    /// `Ok`: a node page to expand, with its expected level; `Err`: an
    /// object id to emit.
    target: Result<(PageId, u8), u64>,
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
    /// entries of `stack`; `levels` holds each entry's expected level.
    Window {
        query: Query,
        stack: Vec<PageId>,
        levels: Vec<u8>,
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
    /// Window-restricted self-join over a FIFO of node pairs, each with
    /// the expected level of both its nodes. `nodes` and `kept` hold the
    /// round's asked nodes, each read once per round: per page of `asked`,
    /// its level and the range of `kept` holding its entries that meet
    /// `region`, as `(mbr, child)` in entry order (a leaf entry's child is
    /// its own node's page; `None`: undelivered).
    Join {
        region: Rect,
        pairs: VecDeque<(PageId, PageId, u8)>,
        asked: Vec<PageId>,
        nodes: Vec<Option<(u8, Range<usize>)>>,
        kept: Vec<(Rect, PageId)>,
        count: u64,
    },
}

/// One in-flight point, window, k-NN or window-restricted self-join query
/// over an R\*-tree. It names the pages it needs ([`Search::wants`]), is
/// fed views of their nodes ([`Search::feed`]), and is done once it wants
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
            levels: vec![ANY_LEVEL],
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
            target: Ok((root, ANY_LEVEL)),
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
            pairs: VecDeque::from([(root, root, ANY_LEVEL)]),
            asked: Vec::new(),
            nodes: Vec::new(),
            kept: Vec::new(),
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
                    target: Ok((page, _)),
                    ..
                }) if best.len() < *k => std::slice::from_ref(page),
                _ => &[],
            },
            State::Join { pairs, asked, .. } => {
                asked.clear();
                for &(a, b, _) in pairs.iter().take((limit / 2).max(1)) {
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
    /// `delivered` maps each to a view of its node, or to `None` when the
    /// page could not be had — its subtree is then skipped and the search
    /// is marked [`pruned`](Search::pruned). So is a node that is not one
    /// level below the node that named it. `delivered` is called once per
    /// asked page.
    pub fn feed<'n>(&mut self, mut delivered: impl FnMut(PageId) -> Option<NodeView<'n>>) {
        let mut delivered = |id, level| {
            delivered(id).filter(|v: &NodeView| level == ANY_LEVEL || v.level() == level)
        };
        match &mut self.state {
            State::Window {
                query,
                stack,
                levels,
                asked,
                results,
                object_pages,
            } => {
                let region = query.region();
                let base = stack.len() - *asked;
                // Top first; children land above the asked slice, which
                // is then cut out from under them.
                for i in (base..base + *asked).rev() {
                    match delivered(stack[i], levels[i]).map(|v| (v.level(), v.entries())) {
                        None => self.pruned = true,
                        Some((level, Dir(entries))) => {
                            for e in entries {
                                if e.mbr.intersects(&region) {
                                    stack.push(e.child);
                                    levels.push(level - 1);
                                }
                            }
                        }
                        Some((_, Leaf(entries))) => {
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
                levels.drain(base..base + *asked);
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
                    target: Ok((page, level)),
                    ..
                }) = heap.pop()
                else {
                    return;
                };
                // Pushed one by one: the heap's order among equidistant
                // candidates is part of the answer.
                match delivered(page, level).map(|v| (v.level(), v.entries())) {
                    // The best candidate's page is unreachable: abandon
                    // that subtree, stay best-first over the rest.
                    None => self.pruned = true,
                    Some((level, Dir(entries))) => {
                        for e in entries {
                            heap.push(Candidate {
                                dist: e.mbr.min_dist(point),
                                target: Ok((e.child, level - 1)),
                            });
                        }
                    }
                    Some((_, Leaf(entries))) => {
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
                nodes,
                kept,
                count,
            } => {
                let take = pairs
                    .iter()
                    .take_while(|(a, b, _)| asked.contains(a) && asked.contains(b))
                    .count();
                // Each asked node is read once, keeping only the entries
                // that meet the region, in entry order.
                nodes.clear();
                kept.clear();
                let meets = |e: &(Rect, PageId)| e.0.intersects(region);
                for &id in asked.iter() {
                    nodes.push(delivered(id, ANY_LEVEL).map(|v| {
                        let start = kept.len();
                        match v.entries() {
                            Dir(es) => kept.extend(es.map(|e| (e.mbr, e.child)).filter(meets)),
                            Leaf(es) => kept.extend(es.map(|e| (e.mbr, id)).filter(meets)),
                        }
                        (v.level(), start..kept.len())
                    }));
                }
                // The taken pairs leave the front of the queue only after
                // their children joined its back (no second pair list).
                for p in 0..take {
                    let (a, b, level) = pairs[p];
                    let node = |id| {
                        let fed = nodes[asked.iter().position(|&q| q == id)?].clone();
                        fed.filter(|(l, _)| level == ANY_LEVEL || *l == level)
                    };
                    // Both nodes sit at `level`, or the pair is the root's
                    // self-pair: one node, one level.
                    let (Some((level, xs)), Some((_, ys))) = (node(a), node(b)) else {
                        self.pruned = true;
                        continue;
                    };
                    // A self-pair meets each unordered pair once: from
                    // `x` itself in a directory, past it in a leaf.
                    let (leaf, skip) = (level == 1, usize::from(level == 1));
                    for i in xs {
                        let (x, xc) = kept[i];
                        let from = if a == b { i + skip } else { ys.start };
                        let meets = kept[from..ys.end].iter().filter(|y| x.intersects(&y.0));
                        if leaf {
                            *count += meets.count() as u64;
                        } else {
                            pairs.extend(meets.map(|&(_, y)| (xc.min(y), xc.max(y), level - 1)));
                        }
                    }
                }
                pairs.drain(..take);
                asked.clear();
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
