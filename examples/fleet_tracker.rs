//! A fleet tracker on the z-order B⁺-tree: thousands of vehicles move
//! continuously (delete + re-insert of their point location), while
//! dispatchers run region queries — the paper's future-work item 3
//! ("management of moving spatial objects in spatiotemporal database
//! systems") on the third access method.
//!
//! ```text
//! cargo run --release --example fleet_tracker
//! ```

use asb::buffer::{BufferManager, PolicyKind, SpatialCriterion};
use asb::geom::{Point, Rect};
use asb::storage::DiskManager;
use asb::zbtree::ZBTree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FLEET: usize = 5_000;
const ROUNDS: usize = 300;
const MOVERS_PER_ROUND: usize = 40;

fn main() {
    let bounds = Rect::new(0.0, 0.0, 1.0, 1.0);
    let mut rng = StdRng::seed_from_u64(7);

    // Initial fleet positions: a few depots plus road-like scatter.
    let depots = [
        Point::new(0.2, 0.3),
        Point::new(0.7, 0.6),
        Point::new(0.45, 0.8),
    ];
    let positions: Vec<Point> = (0..FLEET)
        .map(|i| {
            let d = depots[i % depots.len()];
            Point::new(
                (d.x + (rng.gen::<f64>() - 0.5) * 0.2).clamp(0.0, 1.0),
                (d.y + (rng.gen::<f64>() - 0.5) * 0.2).clamp(0.0, 1.0),
            )
        })
        .collect();
    let velocities: Vec<(f64, f64)> = (0..FLEET)
        .map(|_| {
            (
                (rng.gen::<f64>() - 0.5) * 0.01,
                (rng.gen::<f64>() - 0.5) * 0.01,
            )
        })
        .collect();

    println!(
        "fleet of {FLEET} vehicles, {ROUNDS} rounds, {MOVERS_PER_ROUND} moves + 1 dispatch query per round\n"
    );
    println!(
        "{:<8} {:>12} {:>10} {:>14}",
        "policy", "disk reads", "hit ratio", "sim I/O [ms]"
    );

    for policy in [
        PolicyKind::Lru,
        PolicyKind::LruK { k: 2 },
        PolicyKind::Spatial(SpatialCriterion::Area),
        PolicyKind::Asb,
    ] {
        // Fresh tree and identical movement replay per policy.
        let pairs: Vec<(u64, Point)> = positions
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u64, *p))
            .collect();
        let mut tree = ZBTree::bulk_load(DiskManager::new(), bounds, &pairs).expect("bulk load");
        let buffer = (tree.page_count() / 25).max(8); // 4% buffer
        tree.set_buffer(BufferManager::with_policy(policy, buffer));
        tree.store_mut().reset_stats();

        let mut pos = positions.clone();
        let mut replay = StdRng::seed_from_u64(99);
        for round in 0..ROUNDS {
            for k in 0..MOVERS_PER_ROUND {
                let v = (round * 97 + k * 131) % FLEET;
                let old = pos[v];
                let (dx, dy) = velocities[v];
                let new = Point::new((old.x + dx).rem_euclid(1.0), (old.y + dy).rem_euclid(1.0));
                tree.delete(v as u64, &old).expect("delete");
                tree.insert(v as u64, new).expect("insert");
                pos[v] = new;
            }
            // Dispatcher: who is near this incident?
            let c = Point::new(replay.gen(), replay.gen());
            let region = Rect::centered_square(c, 0.04);
            tree.window_query(region).expect("query");
        }

        let io = tree.store().stats();
        let buf = tree.take_buffer().expect("buffer attached");
        println!(
            "{:<8} {:>12} {:>9.1}% {:>14.0}",
            policy.label(),
            io.reads,
            buf.stats().hit_ratio() * 100.0,
            io.simulated_ms
        );
    }

    println!(
        "\nEvery policy replayed the identical movement + query stream;\n\
         differences are purely down to what each buffer chose to keep."
    );
}
