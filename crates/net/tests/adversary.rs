//! Byzantine behaviors over real loopback sockets: an equivocator and a
//! digest liar are detected from conflicting `SlotDigest` gossip (pull
//! recovery re-converges the honest barriers), and a membership flapper is
//! evicted without stalling the honest slot loop. Honest nodes must keep
//! byte-identical chain digests with an in-memory engine run under the
//! identical [`Behavior`] placement — the honest-subset parity contract.

use std::net::SocketAddr;
use std::time::{Duration, Instant};
use tldag_core::attack::Behavior;
use tldag_core::network::TldagNetwork;
use tldag_core::workload::VerificationWorkload;
use tldag_net::harness::{loopback_addrs, replay_reference_schedule};
use tldag_net::runtime::{deployment_protocol_config, deployment_topology, NodeOutcome};
use tldag_net::{AdversaryPlacement, NetNode, NetNodeConfig};
use tldag_obs::http_get;
use tldag_sim::engine::GenerationSchedule;
use tldag_sim::NodeId;

/// Binds-and-releases a loopback TCP port (for a metrics listener).
fn discover_tcp_port() -> SocketAddr {
    std::net::TcpListener::bind("127.0.0.1:0")
        .expect("bind tcp probe")
        .local_addr()
        .expect("tcp probe addr")
}

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

/// The in-memory engine run the wire cluster must agree with: same
/// topology, same workload, same adversary placement (applied through
/// [`replay_reference_schedule`], exactly as `tldag cluster` does).
fn engine_reference(
    seed: u64,
    nodes: usize,
    slots: u64,
    pop: bool,
    placements: &[AdversaryPlacement],
) -> TldagNetwork {
    let topology = deployment_topology(seed, nodes, 300.0);
    let cfg = deployment_protocol_config(3);
    let schedule = GenerationSchedule::uniform(topology.len());
    let mut reference = TldagNetwork::new(cfg, topology, schedule, seed);
    reference.set_verification_workload(if pop {
        VerificationWorkload::RandomPast {
            min_age_slots: nodes as u64,
        }
    } else {
        VerificationWorkload::Disabled
    });
    replay_reference_schedule(&mut reference, &[], placements, nodes, seed, slots);
    reference
}

/// Honest chains must match the engine reference block for block; the
/// adversary's canonical chain is out of scope for the verdict.
fn assert_honest_parity(outcomes: &[NodeOutcome], reference: &TldagNetwork, honest: &[u32]) {
    for &id in honest {
        assert_eq!(
            outcomes[id as usize].run.chain_digest,
            reference.chain_digest(NodeId(id)),
            "honest node n{id} diverged from the engine reference"
        );
    }
}

#[test]
fn equivocator_is_detected_and_honest_parity_holds() {
    // Node 3 mines a second, genuinely signed block per slot from slot 2
    // on and gossips both digests. Honest receivers must notice the
    // conflicting pair, discard it, re-pull the canonical digest, and
    // finish with chains identical to the engine reference — including
    // the PoP verification counters, which the equivocation must not
    // perturb (the adversary's canonical chain stays conformant).
    let seed = 41_007;
    let slots = 9;
    let addrs = loopback_addrs(4).expect("loopback probe sockets");
    let placements = [AdversaryPlacement {
        node: NodeId(3),
        behavior: Behavior::Equivocate,
        slot: 2,
    }];
    let configs: Vec<NetNodeConfig> = (0..4u32)
        .map(|id| {
            let mut c = founder_config(id, &addrs, 4, seed, slots);
            c.pop = true;
            c.slot_timeout = Duration::from_secs(20);
            if id == 3 {
                c.behavior = Behavior::Equivocate;
                c.behavior_from = 2;
            }
            c
        })
        .collect();

    let outcomes = run_nodes(configs);
    let reference = engine_reference(seed, 4, slots, true, &placements);

    assert_honest_parity(&outcomes, &reference, &[0, 1, 2]);
    let conflicts: u64 = outcomes.iter().map(|o| o.stats.digest_conflicts).sum();
    let pulls: u64 = outcomes.iter().map(|o| o.stats.conflict_pulls).sum();
    assert!(
        conflicts >= 1 && pulls >= 1,
        "honest nodes must detect the equivocation and re-pull \
(conflicts {conflicts}, pulls {pulls})"
    );
    for o in &outcomes {
        assert!(
            !o.run.degraded,
            "node {} timed out a barrier — pull recovery failed",
            o.run.node
        );
    }
    let wire_attempts: u64 = outcomes.iter().map(|o| o.run.pop_attempts).sum();
    let wire_successes: u64 = outcomes.iter().map(|o| o.run.pop_successes).sum();
    let (ref_attempts, ref_successes) = reference.pop_counters();
    assert!(wire_attempts > 0, "the workload must run PoP verifications");
    assert_eq!(
        (wire_attempts, wire_successes),
        (ref_attempts, ref_successes),
        "PoP counters must match the engine under the same placement"
    );
}

#[test]
fn digest_liar_is_named_in_the_journal() {
    // Node 3 gossips corrupted digests for its own slots from slot 2 on.
    // Honest nodes must (a) re-pull and converge, (b) keep honest parity,
    // and (c) name the liar in their live journal — scraped over HTTP
    // *while the cluster runs*, the same evidence `tldag status` and the
    // forensics path consume. PoP mode, so digest gossip fans out to
    // every generator: node 0 observes the conflicting pair no matter
    // where the liar sits in the radio topology.
    let seed = 52_118;
    let slots = 8;
    let addrs = loopback_addrs(4).expect("loopback probe sockets");
    let metrics_addr = discover_tcp_port();
    let placements = [AdversaryPlacement {
        node: NodeId(3),
        behavior: Behavior::DigestLie,
        slot: 2,
    }];
    let configs: Vec<NetNodeConfig> = (0..4u32)
        .map(|id| {
            let mut c = founder_config(id, &addrs, 4, seed, slots);
            c.pop = true;
            c.slot_timeout = Duration::from_secs(20);
            // Stretch the serving tail so the scraper below reliably
            // observes a live listener even if it starts polling late.
            c.linger = Duration::from_millis(4000);
            if id == 0 {
                c.metrics_addr = Some(metrics_addr);
            }
            if id == 3 {
                c.behavior = Behavior::DigestLie;
                c.behavior_from = 2;
            }
            c
        })
        .collect();

    // Spawn by hand: the journal must be scraped mid-run (the HTTP
    // listener dies with the node thread).
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

    let deadline = Instant::now() + Duration::from_secs(30);
    let mut journal = String::new();
    let mut named = false;
    while Instant::now() < deadline && !named {
        if let Ok(text) = http_get(metrics_addr, "/journal", Duration::from_secs(1)) {
            named = text.contains("conflicting digests from n3")
                && text.contains("peer flagged as adversarial");
            journal = text;
        }
        if !named {
            std::thread::sleep(Duration::from_millis(100));
        }
    }

    let mut outcomes: Vec<NodeOutcome> = handles
        .into_iter()
        .map(|h| h.join().expect("node thread panicked"))
        .collect();
    outcomes.sort_by_key(|o| o.run.node.0);

    assert!(
        named,
        "node 0's journal must name n3 as adversarial; last scrape:\n{journal}"
    );
    let reference = engine_reference(seed, 4, slots, true, &placements);
    assert_honest_parity(&outcomes, &reference, &[0, 1, 2]);
    let pulls: u64 = outcomes.iter().map(|o| o.stats.conflict_pulls).sum();
    assert!(pulls >= 1, "the lie must trigger DigestReq pull recovery");
    for o in &outcomes {
        assert!(!o.run.degraded, "node {} timed out a barrier", o.run.node);
    }
}

/// A flapper goes dark mid-run, is evicted by liveness, then spams rejoin
/// announcements the honest roster must refuse. The honest nodes finish
/// every slot; the flapper's chain stops where it went dark. No parity is
/// asserted — the flapper forks from the reference by construction (the
/// engine has no liveness eviction), which is exactly why the cluster
/// verdict scopes to the honest subset.
fn flapper_run(seed: u64, window: u64, pop: bool) {
    let slots = 9;
    let addrs = loopback_addrs(4).expect("loopback probe sockets");
    let configs: Vec<NetNodeConfig> = (0..4u32)
        .map(|id| {
            let mut c = founder_config(id, &addrs, 4, seed, slots);
            c.pop = pop;
            c.window = window;
            if id == 3 {
                c.behavior = Behavior::Flapper;
                c.behavior_from = 3;
                // Bounds the rejoin-spam phase (2x slot_timeout), and is
                // still generous for the three honest slots it executes.
                // Wide enough that eviction news + at least one refused
                // rejoin land even on a loaded CI runner.
                c.slot_timeout = Duration::from_secs(6);
                c.linger = Duration::from_millis(200);
            } else {
                c.evict_after = Some(Duration::from_millis(600));
                c.slot_timeout = Duration::from_secs(30);
            }
            c
        })
        .collect();

    let outcomes = run_nodes(configs);
    for honest in &outcomes[..3] {
        assert_eq!(
            honest.run.chain_len, slots,
            "honest node {} must finish every slot past the eviction",
            honest.run.node
        );
    }
    assert!(
        outcomes[3].run.chain_len < slots,
        "the flapper went dark and must not have a full chain (len {})",
        outcomes[3].run.chain_len
    );
    let evictions: u64 = outcomes.iter().map(|o| o.stats.evictions).sum();
    assert!(
        evictions >= 1,
        "an honest node must evict the dark flapper (got {evictions})"
    );
    let rejections: u64 = outcomes.iter().map(|o| o.stats.flap_rejections).sum();
    assert!(
        rejections >= 1,
        "rejoin spam from an evicted id must be refused (got {rejections})"
    );
}

#[test]
fn flapper_is_evicted_without_stalling_lockstep() {
    flapper_run(63_229, 1, false);
}

#[test]
fn flapper_is_evicted_without_stalling_the_pipelined_window() {
    flapper_run(63_230, 4, true);
}
