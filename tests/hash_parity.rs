//! Pinned protocol bytes at the paper's puzzle difficulty.
//!
//! Small fixed-seed runs at difficulty 8 (the paper default) with PoP
//! targets qualifying, a departed node and a compacted disk chain. The
//! expected hex strings and counters were recorded before the engine's
//! hashing and target-choice hot paths were reworked; any change to a
//! nonce, a header digest, a target draw or a PoP outcome shows up here.

use tldag::core::config::ProtocolConfig;
use tldag::core::network::TldagNetwork;
use tldag::core::store::BackendFactory;
use tldag::core::workload::VerificationWorkload;
use tldag::sim::engine::{GenerationSchedule, Sharding};
use tldag::sim::topology::{Topology, TopologyConfig};
use tldag::sim::{DetRng, NodeId};
use tldag::storage::{ShardedDiskFactory, StorageOptions};

const NODES: usize = 12;

fn build(seed: u64, factory: Option<Box<dyn BackendFactory>>) -> TldagNetwork {
    let mut rng = DetRng::seed_from(seed);
    let topo = Topology::random_connected(&TopologyConfig::small(NODES), &mut rng);
    let cfg = ProtocolConfig::paper_default().with_gamma(2);
    assert_eq!(cfg.difficulty_bits, 8, "pinned at the paper's difficulty");
    let schedule = GenerationSchedule::uniform(topo.len());
    match factory {
        None => TldagNetwork::new(cfg, topo, schedule, seed),
        Some(f) => TldagNetwork::with_factory(cfg, topo, schedule, seed, f),
    }
}

/// The public sequential chooser's picks for every validator, as text.
fn chosen_targets(net: &mut TldagNetwork) -> String {
    (0..NODES as u32)
        .map(|v| match net.choose_target(NodeId(v)) {
            Some(id) => id.to_string(),
            None => "-".to_string(),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn random_past_run_with_departure_is_pinned() {
    let mut net = build(4_2017, None);
    net.set_sharding(Sharding::threads(2));
    net.set_verification_workload(VerificationWorkload::RandomPast { min_age_slots: 4 });
    net.run_slots(8);
    net.node_leaves(NodeId(5));
    net.run_slots(6);

    let (attempts, successes) = net.pop_counters();
    assert!(attempts > 0, "PoP targets must qualify");
    assert_eq!((attempts, successes), PINNED_RANDOM_PAST_POP);
    assert_eq!(net.network_digest().to_string(), PINNED_RANDOM_PAST_DIGEST);
    assert_eq!(chosen_targets(&mut net), PINNED_RANDOM_PAST_TARGETS);
}

#[test]
fn first_era_run_on_pruned_disk_chains_is_pinned() {
    let dir = std::env::temp_dir().join(format!("tldag-hash-parity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let factory = ShardedDiskFactory::new(&dir, 2, NODES).with_options(StorageOptions {
        segment_bytes: 2 * 1024,
        flush_buffer_bytes: 512,
        retain_disk_bytes: Some(24 * 1024),
        ..StorageOptions::default()
    });
    let mut net = build(7_3301, Some(Box::new(factory)));
    net.set_sharding(Sharding::threads(2));
    net.set_verification_workload(VerificationWorkload::FirstEra { era_slots: 10 });
    net.run_slots(16);
    net.sync_storage().unwrap();

    let pruned = (0..NODES as u32)
        .filter(|&v| net.node(NodeId(v)).pruned_floor() > 0)
        .count();
    assert!(pruned > 0, "the budget must compact some chain prefix");
    let (attempts, _) = net.pop_counters();
    assert!(attempts > 0, "PoP targets must qualify");
    assert_eq!(net.pop_counters(), PINNED_FIRST_ERA_POP);
    assert_eq!(net.network_digest().to_string(), PINNED_FIRST_ERA_DIGEST);
    assert_eq!(chosen_targets(&mut net), PINNED_FIRST_ERA_TARGETS);
    drop(net);
    let _ = std::fs::remove_dir_all(&dir);
}

const PINNED_RANDOM_PAST_POP: (u64, u64) = (114, 114);
const PINNED_RANDOM_PAST_DIGEST: &str =
    "cb6b9eb5530ec80e8f93c59799221d8b3e5ff8f10f45c52189e8faa8173c9a1e";
const PINNED_RANDOM_PAST_TARGETS: &str =
    "n7#9 n8#1 n9#5 n10#3 n8#6 n1#0 n1#4 n8#6 n3#10 n2#9 n9#3 n10#4";
const PINNED_FIRST_ERA_POP: (u64, u64) = (192, 132);
const PINNED_FIRST_ERA_DIGEST: &str =
    "d640729bf233efd0e956d2be9f57cc3858d3bd3e2d8be825c2ccdab81e84a485";
const PINNED_FIRST_ERA_TARGETS: &str =
    "n5#9 n0#8 n4#7 n4#8 n3#7 n7#9 n5#6 n6#7 n6#7 n4#6 n11#6 n7#8";
