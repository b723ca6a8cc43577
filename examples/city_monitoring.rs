//! Live city monitoring: standing queries and rolling heat maps.
//!
//! Models an operations-centre workload: a geo-fence alert on trucks
//! entering the downtown core, plus a crowd-density heat map refreshed
//! every 10 simulated seconds, over a live stream from 2 000 entities.
//!
//! ```text
//! cargo run --example city_monitoring --release
//! ```

use std::time::Duration as StdDuration;

use stcam::{Cluster, ClusterConfig, Predicate};
use stcam_camnet::{CameraNetwork, DetectionModel, SensorSim};
use stcam_geo::{BBox, Duration, GridSpec, Point, TimeInterval, Timestamp};
use stcam_world::{EntityClass, MobilityModel, Placement, World, WorldConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 4 km × 4 km city with a busy downtown hotspot.
    let extent = BBox::new(Point::new(0.0, 0.0), Point::new(4000.0, 4000.0));
    let downtown = Point::new(2000.0, 2000.0);
    let world_config = WorldConfig {
        extent,
        road_spacing: 250.0,
        class_counts: [800, 200, 800, 200],
        mobility: MobilityModel::Trip,
        placement: Placement::Hotspot {
            centers: vec![downtown],
            sigma: 500.0,
            fraction: 0.6,
        },
        record_interval: Duration::from_secs(1),
        churn_per_minute: 0.0,
        seed: 2024,
    };
    let mut world = World::new(world_config);
    let cameras = CameraNetwork::deploy_clustered(world.roads(), 200, 5, &[downtown], 500.0, 8.0);
    let mut sensors = SensorSim::new(cameras, DetectionModel::default(), 9);

    let cluster = Cluster::launch(ClusterConfig::new(extent, 8))?;

    // Standing query: any truck inside the downtown core.
    let core = BBox::around(downtown, 600.0);
    let truck_alert = cluster.coordinator().register_continuous(Predicate {
        region: core,
        class: Some(EntityClass::Truck),
    })?;
    println!("registered geo-fence {truck_alert}: trucks in the downtown core\n");

    let buckets = GridSpec::covering(extent, 500.0);
    let mut alerts_total = 0usize;

    for epoch in 0..6 {
        // Stream 10 seconds of city time.
        let until = Timestamp::from_secs((epoch + 1) * 10);
        while world.now() < until {
            cluster.ingest(sensors.observe(&world))?;
            world.step(Duration::from_millis(500));
        }
        cluster.flush()?;

        // Drain geo-fence alerts.
        let notifications = cluster.poll_notifications(StdDuration::from_millis(200));
        let alerts: usize = notifications
            .iter()
            .filter(|n| n.query == truck_alert)
            .map(|n| n.matches.len())
            .sum();
        alerts_total += alerts;

        // Rolling density heat map for the last 10 seconds.
        let window = TimeInterval::new(until.saturating_sub(Duration::from_secs(10)), until);
        let counts = cluster.heatmap(&buckets, window)?;
        println!("t = {until}: {alerts} truck sightings in the core; density map:");
        render(&buckets, &counts);
        println!();
    }

    println!("total truck alerts over 60 s: {alerts_total}");
    let stats = cluster.stats()?;
    println!(
        "stored observations: {} (imbalance {:.2})",
        stats.total_primary(),
        stats.imbalance()
    );
    cluster.shutdown();
    Ok(())
}

/// Renders a count grid as ASCII shades.
fn render(buckets: &GridSpec, counts: &[u64]) {
    let max = counts.iter().copied().max().unwrap_or(0).max(1);
    let shades = [' ', '.', ':', '+', '*', '#'];
    for row in (0..buckets.rows()).rev() {
        let mut line = String::from("  ");
        for col in 0..buckets.cols() {
            let count = counts[row as usize * buckets.cols() as usize + col as usize];
            let shade = (count * (shades.len() as u64 - 1)).div_ceil(max) as usize;
            line.push(shades[shade.min(shades.len() - 1)]);
        }
        println!("{line}");
    }
}
