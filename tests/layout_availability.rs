//! Cross-crate check of the gear layout's availability guarantee: with only
//! gear 0 powered, every object stays readable and no forced spin-up ever
//! happens — and the guarantee demonstrably fails for the random layout.

use gm_sim::time::SimTime;
use gm_storage::{Cluster, ClusterSpec, IoRequest, LayoutKind, ObjectId};
use proptest::prelude::*;

fn gated_cluster(layout: LayoutKind, seed: u64) -> Cluster {
    let mut spec = ClusterSpec::small();
    spec.layout = layout;
    spec.layout_seed = seed;
    let mut c = Cluster::new(spec);
    c.set_active_gears(1, SimTime::ZERO);
    c
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    #[test]
    fn gear_layout_never_forces_spinups(seed in 0u64..10_000, objects in proptest::collection::vec(0u64..1_000, 1..64)) {
        let mut c = gated_cluster(LayoutKind::Gear, seed);
        for (i, obj) in objects.iter().enumerate() {
            let req = IoRequest::read(SimTime::from_secs(i as u64), ObjectId(*obj), 64 << 10);
            let served = c.serve_request(&req);
            prop_assert!(served.latency.as_secs_f64() < 5.0,
                "no spin-up stall expected, got {:?}", served.latency);
        }
        prop_assert_eq!(c.total_forced_spinups(), 0);
    }

    #[test]
    fn every_object_has_a_gear0_replica(seed in 0u64..10_000) {
        let mut spec = ClusterSpec::small();
        spec.layout = LayoutKind::Gear;
        spec.layout_seed = seed;
        let c = Cluster::new(spec);
        let topo = *c.topology();
        for obj in 0..c.layout().object_count() {
            let replicas = c.layout().replicas_of(obj);
            prop_assert!(replicas.iter().any(|&d| topo.gear_of_disk(d) == 0),
                "object {} lacks a gear-0 replica: {:?}", obj, replicas);
        }
    }
}

#[test]
fn random_layout_violates_the_guarantee() {
    let mut c = gated_cluster(LayoutKind::Random, 3);
    for i in 0..500 {
        let req = IoRequest::read(SimTime::from_secs(i), ObjectId(i % 1_000), 64 << 10);
        c.serve_request(&req);
    }
    assert!(c.total_forced_spinups() > 0, "random placement must orphan some objects from gear 0");
}

#[test]
fn chained_layout_also_orphans_under_gating() {
    let mut c = gated_cluster(LayoutKind::Chained, 3);
    for i in 0..500 {
        let req = IoRequest::read(SimTime::from_secs(i), ObjectId(i % 1_000), 64 << 10);
        c.serve_request(&req);
    }
    assert!(c.total_forced_spinups() > 0, "chained declustering has no gear structure");
}
