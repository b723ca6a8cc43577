//! Operations drill: worker failures under live ingest.
//!
//! Streams detections into a replicated cluster, kills workers one at a
//! time while the stream keeps flowing, triggers recovery, and audits
//! data completeness after each failure.
//!
//! ```text
//! cargo run --example failover_drill --release
//! ```

use std::time::Instant;

use stcam::{Cluster, ClusterConfig};
use stcam_camnet::{CameraNetwork, DetectionModel, SensorSim};
use stcam_geo::{Duration, TimeInterval, Timestamp};
use stcam_net::NodeId;
use stcam_world::{World, WorldConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut world = World::new(WorldConfig::small_town().with_seed(5));
    let cameras = CameraNetwork::deploy_on_roads(world.roads(), 80, 6);
    let mut sensors = SensorSim::new(cameras, DetectionModel::default(), 7);

    let cluster = Cluster::launch(ClusterConfig::new(world.extent(), 8).with_replication(2))?;
    println!("8 workers, replication factor 2\n");

    let mut sent_total = 0usize;
    let mut stream = |world: &mut World, cluster: &Cluster, secs: u64| -> usize {
        let until = world.now() + Duration::from_secs(secs);
        let mut sent = 0;
        while world.now() < until {
            let frame = sensors.observe(world);
            sent += frame.len();
            cluster.ingest(frame).expect("ingest");
            world.step(Duration::from_millis(500));
        }
        cluster.flush().expect("flush");
        sent
    };

    let audit = |cluster: &Cluster, expected: usize, label: &str| {
        let window = TimeInterval::new(Timestamp::ZERO, Timestamp::from_secs(1_000_000));
        let held = cluster
            .range_query(cluster.config().extent.inflated(500.0), window)
            .expect("audit query")
            .len();
        let loss = expected.saturating_sub(held);
        println!(
            "  audit {label}: {held}/{expected} observations present ({loss} lost, {:.3}%)",
            loss as f64 * 100.0 / expected.max(1) as f64
        );
        held
    };

    // Baseline period.
    sent_total += stream(&mut world, &cluster, 20);
    println!("after 20 s of ingest:");
    audit(&cluster, sent_total, "pre-failure");

    for (round, victim) in [NodeId(3), NodeId(4), NodeId(7)].into_iter().enumerate() {
        println!("\n--- drill round {}: killing {victim} ---", round + 1);
        cluster.fabric().crash(victim);
        let t0 = Instant::now();
        let failed = cluster.coordinator().check_and_recover();
        let recovery = t0.elapsed();
        println!("  detected + recovered {failed:?} in {recovery:.2?}");
        audit(&cluster, sent_total, "post-recovery");

        // Traffic keeps flowing to the survivors.
        sent_total += stream(&mut world, &cluster, 10);
        audit(&cluster, sent_total, "post-ingest");

        let stats = cluster.stats()?;
        println!(
            "  survivors: {} workers, imbalance {:.2}",
            stats.workers.len(),
            stats.imbalance()
        );
    }

    let net = cluster.fabric_stats();
    println!(
        "\nnetwork totals: {} msgs, {:.1} MiB, {} dropped",
        net.total_msgs,
        net.total_bytes as f64 / (1024.0 * 1024.0),
        net.total_dropped
    );
    cluster.shutdown();
    Ok(())
}
