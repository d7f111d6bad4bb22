//! Multi-session serving request streams: the workload behind `asb-serve`.
//!
//! A serving front end does not see raw page accesses — it sees *requests*:
//! a map client panning and zooming issues viewport window queries, a
//! search box issues k-nearest-neighbour lookups around the viewport
//! centre, and an analytical overlay ("show conflicting permits here")
//! issues window-restricted spatial self-joins. [`session_requests`] turns
//! the pan/zoom/jump trajectory of [`session`](crate::session) into such a
//! request stream: every step keeps the trajectory's viewport (so the page
//! locality that separates replacement policies is preserved) and a seeded
//! draw picks which request kind the step issues.

use crate::dataset::Dataset;
use crate::trajectory::{session, SessionSpec};
use asb_geom::{Point, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// One request a simulated session submits to the serving front end.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Request {
    /// All objects intersecting the viewport window.
    Window(Rect),
    /// The `k` objects nearest to a point (viewport centre).
    Nearest(Point, usize),
    /// Count of intersecting object pairs within the window (a
    /// window-restricted spatial self-join).
    Join(Rect),
}

impl Request {
    /// Short label for logs and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Window(_) => "window",
            Request::Nearest(..) => "nearest",
            Request::Join(_) => "join",
        }
    }
}

/// Relative weights of the request kinds a session issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct RequestMix {
    /// Weight of viewport window queries.
    pub window: u32,
    /// Weight of k-nearest-neighbour lookups.
    pub nearest: u32,
    /// Weight of window-restricted spatial self-joins.
    pub join: u32,
}

impl RequestMix {
    /// The default interactive-browsing mix: mostly viewport windows,
    /// some nearest-neighbour searches, occasional join overlays.
    pub fn browsing() -> Self {
        RequestMix {
            window: 6,
            nearest: 3,
            join: 1,
        }
    }

    fn total(&self) -> u32 {
        self.window + self.nearest + self.join
    }

    /// Validates that at least one kind has weight.
    pub fn validate(&self) -> Result<(), String> {
        if self.total() == 0 {
            return Err("request mix needs at least one non-zero weight".into());
        }
        Ok(())
    }
}

impl Default for RequestMix {
    fn default() -> Self {
        RequestMix::browsing()
    }
}

/// Generates a deterministic request stream of `steps` requests for one
/// session: the viewport trajectory of [`session`](crate::session) with
/// each step's request kind drawn from `mix`.
///
/// Nearest-neighbour requests search around the viewport centre with
/// `k ∈ [4, 16]`; join requests shrink the viewport to half its size (the
/// overlay pane). Two calls with equal inputs return equal streams.
///
/// # Panics
/// Panics if `spec` or `mix` is invalid or the dataset has no places.
pub fn session_requests(
    dataset: &Dataset,
    spec: SessionSpec,
    mix: RequestMix,
    steps: usize,
    seed: u64,
) -> Vec<Request> {
    mix.validate().expect("valid request mix");
    let windows = session(dataset, spec, steps, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E55_1095);
    windows
        .into_iter()
        .map(|q| {
            let viewport = q.region();
            let draw = rng.gen_range(0..mix.total());
            if draw < mix.window {
                Request::Window(viewport)
            } else if draw < mix.window + mix.nearest {
                let k = rng.gen_range(4..=16usize);
                Request::Nearest(viewport.center(), k)
            } else {
                let half = (viewport.width() / 4.0).max(f64::MIN_POSITIVE);
                Request::Join(Rect::centered_square(viewport.center(), half))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetKind, Scale};

    fn dataset() -> Dataset {
        Dataset::generate(DatasetKind::Mainland, Scale::Tiny, 42)
    }

    #[test]
    fn request_streams_are_deterministic() {
        let d = dataset();
        let mix = RequestMix::browsing();
        let a = session_requests(&d, SessionSpec::default(), mix, 300, 9);
        let b = session_requests(&d, SessionSpec::default(), mix, 300, 9);
        assert_eq!(a, b);
        assert_ne!(
            a,
            session_requests(&d, SessionSpec::default(), mix, 300, 10)
        );
        assert_eq!(a.len(), 300);
    }

    #[test]
    fn browsing_mix_produces_every_kind() {
        let d = dataset();
        let reqs = session_requests(&d, SessionSpec::default(), RequestMix::browsing(), 500, 3);
        for kind in ["window", "nearest", "join"] {
            assert!(
                reqs.iter().any(|r| r.kind() == kind),
                "mix should produce {kind} requests"
            );
        }
    }

    #[test]
    fn windows_only_mix_matches_the_raw_trajectory() {
        let d = dataset();
        let spec = SessionSpec::default();
        let windows_only = RequestMix {
            window: 1,
            nearest: 0,
            join: 0,
        };
        let reqs = session_requests(&d, spec, windows_only, 100, 5);
        let windows = session(&d, spec, 100, 5);
        for (r, q) in reqs.iter().zip(&windows) {
            assert_eq!(*r, Request::Window(q.region()));
        }
    }

    #[test]
    fn empty_mix_is_rejected() {
        let mix = RequestMix {
            window: 0,
            nearest: 0,
            join: 0,
        };
        assert!(mix.validate().is_err());
    }
}
