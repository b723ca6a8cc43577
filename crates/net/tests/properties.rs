//! Property-based tests for the fabric: conservation of message
//! accounting, latency model sanity, and delivery correctness under
//! random traffic patterns.

use std::time::Duration;

use proptest::prelude::*;
use stcam_net::{Fabric, LinkModel, NodeId};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn latency_is_nonnegative_and_monotone_in_size(
        base_us in 0u64..5_000,
        bandwidth in 1e3..1e12f64,
        jitter_us in 0u64..2_000,
        small in 0usize..10_000,
        extra in 0usize..10_000,
        u in 0.0..1.0f64,
    ) {
        let link = LinkModel {
            base_latency: Duration::from_micros(base_us),
            bandwidth_bytes_per_sec: bandwidth,
            jitter: Duration::from_micros(jitter_us),
            drop_probability: 0.0,
        };
        let a = link.latency_for(small, u);
        let b = link.latency_for(small + extra, u);
        prop_assert!(b >= a, "larger message was faster: {a:?} vs {b:?}");
    }

    #[test]
    fn every_sent_message_is_delivered_or_dropped(
        n_nodes in 2u32..8,
        sends in prop::collection::vec((0u32..8, 0u32..8, 0usize..200), 1..100),
    ) {
        let fabric = Fabric::new(LinkModel::instant());
        let endpoints: Vec<_> = (0..n_nodes).map(|i| fabric.register(NodeId(i))).collect();
        let mut expected_per_node = vec![0usize; n_nodes as usize];
        let mut sent = 0usize;
        for (from, to, len) in sends {
            let from = from % n_nodes;
            let to = to % n_nodes;
            endpoints[from as usize]
                .call_start(NodeId(to), &vec![0u8; len])
                .expect("send");
            expected_per_node[to as usize] += 1;
            sent += 1;
        }
        // Drain every inbox.
        let mut received = 0usize;
        for (i, endpoint) in endpoints.iter().enumerate() {
            let mut got = 0;
            while endpoint.recv_timeout(Duration::from_millis(200)).is_some() {
                got += 1;
            }
            prop_assert_eq!(got, expected_per_node[i], "node {} inbox", i);
            received += got;
        }
        let stats = fabric.stats();
        prop_assert_eq!(stats.total_msgs as usize, sent);
        prop_assert_eq!(stats.total_dropped, 0);
        prop_assert_eq!(received, sent);
        // Per-node accounting sums to the totals.
        let sent_sum: u64 = stats.per_node.values().map(|s| s.msgs_sent).sum();
        let recv_sum: u64 = stats.per_node.values().map(|s| s.msgs_received).sum();
        prop_assert_eq!(sent_sum as usize, sent);
        prop_assert_eq!(recv_sum as usize, received);
    }

    #[test]
    fn lossy_fabric_conserves_messages(
        drop_p in 0.0..1.0f64,
        n in 10usize..300,
        seed in any::<u64>(),
    ) {
        let fabric = Fabric::with_seed(LinkModel::instant().with_drop_probability(drop_p), seed);
        let a = fabric.register(NodeId(0));
        let b = fabric.register(NodeId(1));
        for _ in 0..n {
            a.call_start(NodeId(1), &[1, 2, 3]).expect("send");
        }
        let mut received = 0usize;
        while b.recv_timeout(Duration::from_millis(150)).is_some() {
            received += 1;
        }
        let stats = fabric.stats();
        // Conservation: sent = delivered + dropped, exactly.
        prop_assert_eq!(stats.total_msgs as usize, n);
        prop_assert_eq!(stats.total_dropped as usize + received, n);
    }

    #[test]
    fn per_link_fifo_holds_for_any_jitter(
        jitter_us in 0u64..500,
        n in 2usize..100,
    ) {
        let link = LinkModel {
            base_latency: Duration::from_micros(100),
            bandwidth_bytes_per_sec: f64::INFINITY,
            jitter: Duration::from_micros(jitter_us),
            drop_probability: 0.0,
        };
        let fabric = Fabric::new(link);
        let a = fabric.register(NodeId(0));
        let b = fabric.register(NodeId(1));
        for i in 0..n as u32 {
            a.call_start(NodeId(1), &i.to_le_bytes()).expect("send");
        }
        let mut last = None;
        for _ in 0..n {
            let env = b.recv_timeout(Duration::from_secs(2)).expect("delivery");
            let v = u32::from_le_bytes(env.payload.as_slice().try_into().expect("4 bytes"));
            if let Some(prev) = last {
                prop_assert!(v > prev, "reordered: {} after {}", v, prev);
            }
            last = Some(v);
        }
    }
}
