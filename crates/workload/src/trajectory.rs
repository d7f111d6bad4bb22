//! Interactive map-session trajectories: the access pattern the paper's
//! introduction motivates ("spatial applications have become more
//! sophisticated").
//!
//! A session is a sequence of viewport windows produced by a user panning,
//! zooming and occasionally jumping to a searched place. Adjacent viewports
//! overlap strongly (high page locality); jumps reset locality — exactly
//! the mix that separates replacement policies.

use crate::dataset::Dataset;
use asb_geom::{Point, Query, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Parameters of a [`session`] trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SessionSpec {
    /// Probability per step of jumping to a random place (search).
    pub jump_probability: f64,
    /// Probability per step of zooming in or out one notch.
    pub zoom_probability: f64,
    /// Initial viewport half-width, as a fraction of the data space.
    pub initial_half: f64,
    /// Smallest permitted viewport half-width.
    pub min_half: f64,
    /// Largest permitted viewport half-width.
    pub max_half: f64,
    /// Pan step relative to the viewport size.
    pub pan_step: f64,
}

impl Default for SessionSpec {
    fn default() -> Self {
        SessionSpec {
            jump_probability: 0.08,
            zoom_probability: 0.17,
            initial_half: 0.02,
            min_half: 0.005,
            max_half: 0.08,
            pan_step: 0.8,
        }
    }
}

impl SessionSpec {
    /// Validates the parameters.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.jump_probability)
            || !(0.0..=1.0).contains(&self.zoom_probability)
        {
            return Err("probabilities must be in [0, 1]".into());
        }
        if self.jump_probability + self.zoom_probability > 1.0 {
            return Err("jump + zoom probability must not exceed 1".into());
        }
        if !(self.min_half > 0.0
            && self.min_half <= self.initial_half
            && self.initial_half <= self.max_half)
        {
            return Err("half-width bounds must satisfy 0 < min <= initial <= max".into());
        }
        Ok(())
    }
}

/// Generates a deterministic pan/zoom/jump session of `steps` viewport
/// queries against `dataset`.
///
/// # Panics
/// Panics if `spec` is invalid (see [`SessionSpec::validate`]) or the
/// dataset has no places to jump to.
pub fn session(dataset: &Dataset, spec: SessionSpec, steps: usize, seed: u64) -> Vec<Query> {
    spec.validate().expect("valid session spec");
    let places = dataset.places();
    assert!(!places.is_empty(), "sessions need places to jump to");
    let bounds = dataset.bounds();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x007A_11E7);
    let mut center = places[0].location;
    let mut half = spec.initial_half;
    let mut out = Vec::with_capacity(steps);
    for _ in 0..steps {
        let action: f64 = rng.gen();
        if action < spec.jump_probability {
            center = places[rng.gen_range(0..places.len())].location;
        } else if action < spec.jump_probability + spec.zoom_probability {
            half = (half * if rng.gen::<bool>() { 0.5 } else { 2.0 })
                .clamp(spec.min_half, spec.max_half);
        } else {
            center = Point::new(
                (center.x + (rng.gen::<f64>() - 0.5) * half * 2.0 * spec.pan_step)
                    .clamp(bounds.min.x, bounds.max.x),
                (center.y + (rng.gen::<f64>() - 0.5) * half * 2.0 * spec.pan_step)
                    .clamp(bounds.min.y, bounds.max.y),
            );
        }
        out.push(Query::Window(Rect::centered_square(center, half)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetKind, Scale};

    fn dataset() -> Dataset {
        Dataset::generate(DatasetKind::Mainland, Scale::Tiny, 42)
    }

    #[test]
    fn sessions_are_deterministic() {
        let d = dataset();
        let a = session(&d, SessionSpec::default(), 200, 1);
        let b = session(&d, SessionSpec::default(), 200, 1);
        assert_eq!(a, b);
        assert_ne!(a, session(&d, SessionSpec::default(), 200, 2));
        assert_eq!(a.len(), 200);
    }

    #[test]
    fn viewports_respect_size_bounds() {
        let d = dataset();
        let spec = SessionSpec::default();
        for q in session(&d, spec, 500, 7) {
            let Query::Window(w) = q else {
                panic!("sessions emit windows")
            };
            let half = w.width() / 2.0;
            assert!(half >= spec.min_half - 1e-12 && half <= spec.max_half + 1e-12);
        }
    }

    #[test]
    fn adjacent_viewports_mostly_overlap() {
        let d = dataset();
        let queries = session(&d, SessionSpec::default(), 400, 5);
        let mut overlapping = 0usize;
        for w in queries.windows(2) {
            let (Query::Window(a), Query::Window(b)) = (&w[0], &w[1]) else {
                panic!()
            };
            if a.intersects(b) {
                overlapping += 1;
            }
        }
        let frac = overlapping as f64 / (queries.len() - 1) as f64;
        assert!(
            frac > 0.7,
            "pan/zoom sessions should have high locality ({frac:.2})"
        );
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let spec = SessionSpec {
            jump_probability: 0.9,
            zoom_probability: 0.5,
            ..SessionSpec::default()
        };
        assert!(spec.validate().is_err());
        let spec = SessionSpec {
            min_half: 0.5,
            ..SessionSpec::default()
        };
        assert!(spec.validate().is_err());
    }
}
