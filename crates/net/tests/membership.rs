//! Membership churn edges over real sockets: liveness eviction of a
//! silently dead peer, a dynamic (unscheduled) join racing the slot
//! boundaries of a running cluster, and re-join of a previously evicted
//! id at the addressing layer. Loss injection uses fixed
//! [`FaultyTransport`] seeds, so every run exercises the same datagram
//! fates.

use std::net::SocketAddr;
use std::time::Duration;
use tldag_net::harness::loopback_addrs;
use tldag_net::runtime::NodeOutcome;
use tldag_net::{FaultSpec, NetNode, NetNodeConfig, PeerTable};
use tldag_sim::NodeId;

fn founder_config(
    id: u32,
    addrs: &[SocketAddr],
    founders: usize,
    seed: u64,
    slots: u64,
) -> NetNodeConfig {
    let mut config = NetNodeConfig::new(NodeId(id), addrs[id as usize], seed, founders, slots);
    config.peers = (0..founders)
        .filter(|&j| j != id as usize)
        .map(|j| (NodeId(j as u32), addrs[j]))
        .collect();
    config.linger = Duration::from_millis(2500);
    config
}

fn run_nodes(configs: Vec<NetNodeConfig>) -> Vec<NodeOutcome> {
    let handles: Vec<std::thread::JoinHandle<NodeOutcome>> = configs
        .into_iter()
        .map(|config| {
            std::thread::spawn(move || {
                NetNode::new(config)
                    .expect("node construction")
                    .run()
                    .expect("node run")
            })
        })
        .collect();
    let mut outcomes: Vec<NodeOutcome> = handles
        .into_iter()
        .map(|h| h.join().expect("node thread panicked"))
        .collect();
    outcomes.sort_by_key(|o| o.run.node.0);
    outcomes
}

#[test]
fn silent_peer_is_evicted_and_the_cluster_finishes() {
    // Node 2 believes the run is 3 slots long and then goes quiet without
    // any leave announcement — a silent death from the others' viewpoint.
    // Nodes 0 and 1 expect 9 slots; without eviction they would burn a
    // full slot_timeout per remaining slot. With eviction they cut node 2
    // loose at the first blocked barrier and finish.
    let addrs = loopback_addrs(3).expect("loopback probe sockets");
    let mut configs: Vec<NetNodeConfig> = (0..3u32)
        .map(|id| {
            let mut c = founder_config(id, &addrs, 3, 90_701, 9);
            c.evict_after = Some(Duration::from_millis(600));
            c.slot_timeout = Duration::from_secs(30);
            c
        })
        .collect();
    configs[2].slots = 3;
    configs[2].evict_after = None;
    configs[2].linger = Duration::from_millis(200);

    let outcomes = run_nodes(configs);
    assert_eq!(outcomes[2].run.chain_len, 3, "the dying node ran 3 slots");
    for survivor in &outcomes[..2] {
        assert_eq!(
            survivor.run.chain_len, 9,
            "survivors must complete the full run past the eviction"
        );
    }
    let evictions: u64 = outcomes.iter().map(|o| o.stats.evictions).sum();
    assert!(
        evictions >= 1,
        "at least one survivor must evict the silent peer (got {evictions})"
    );
    assert!(
        outcomes
            .iter()
            .any(|o| o.stats.evictions > 0 && o.run.degraded),
        "an evicting node must report its run degraded — the chain \
diverged from the reference schedule"
    );
}

#[test]
fn dynamic_join_races_slot_boundaries_under_loss() {
    // An *unscheduled* join: the founders know nothing in advance; the
    // joiner negotiates its slot from the handshake (bootstrap slot + 4)
    // and its announcement must land before the cluster crosses that
    // boundary. PoP lockstep paces the founders, and fixed fault seeds
    // drop a deterministic subset of the handshake/announce datagrams, so
    // the race is exercised reproducibly.
    let addrs = loopback_addrs(4).expect("loopback probe sockets");
    let seed = 77_412;
    let slots = 12;
    let mut configs: Vec<NetNodeConfig> = (0..3u32)
        .map(|id| {
            let mut c = founder_config(id, &addrs, 3, seed, slots);
            c.pop = true;
            c.fault = Some(FaultSpec::degraded(0.10));
            c.slot_timeout = Duration::from_secs(20);
            c.hello_timeout = Duration::from_secs(20);
            c
        })
        .collect();
    let mut joiner = NetNodeConfig::new(NodeId(3), addrs[3], seed, 3, slots);
    joiner.pop = true;
    joiner.join = Some(addrs[0]);
    joiner.fault = Some(FaultSpec::degraded(0.10));
    joiner.slot_timeout = Duration::from_secs(20);
    joiner.hello_timeout = Duration::from_secs(20);
    joiner.linger = Duration::from_millis(2500);
    configs.push(joiner);

    let outcomes = run_nodes(configs);
    let joiner = &outcomes[3];
    assert!(
        joiner.run.catch_up_ms > 0,
        "the joiner must measure its catch-up latency"
    );
    assert!(
        (1..slots).contains(&joiner.run.slots),
        "the joiner must execute a proper suffix of the run (got {})",
        joiner.run.slots
    );
    assert_eq!(
        joiner.run.chain_len, joiner.run.slots,
        "one block per executed slot"
    );
    for o in &outcomes {
        assert!(
            !o.run.degraded,
            "node {} timed out a barrier — the join lost the race",
            o.run.node
        );
    }
    // The joiner took part in the verification workload once old enough
    // blocks existed.
    assert!(
        joiner.run.pop_attempts > 0,
        "the joiner must run PoP verifications after joining"
    );
}

#[test]
fn evicted_id_can_rejoin_at_the_addressing_layer() {
    // The PeerTable half of re-join: forget must clear liveness so the
    // fresh incarnation is not instantly re-evicted on stale silence.
    let a: SocketAddr = "127.0.0.1:9401".parse().unwrap();
    let b: SocketAddr = "127.0.0.1:9402".parse().unwrap();
    let table = PeerTable::new([(NodeId(1), a)]);
    table.mark_heard(NodeId(1));
    std::thread::sleep(Duration::from_millis(10));
    assert!(table.gone_quiet(NodeId(1), Duration::from_millis(1)));
    table.forget(NodeId(1));
    // Re-join on a new port: addressable again, not "gone quiet".
    assert!(table.insert(NodeId(1), b));
    assert_eq!(table.addr(NodeId(1)), Some(b));
    assert!(
        !table.gone_quiet(NodeId(1), Duration::from_millis(1)),
        "a re-joined id must start from a clean liveness slate"
    );
}
