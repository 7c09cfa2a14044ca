//! `fig15_adversary`: honest reliability as the adversary fraction grows.
//!
//! The paper's security argument (Sec. IV-D) is that Proof-of-Path keeps
//! working while a minority of nodes misbehave: equivocators minting
//! conflicting slot blocks, digest liars poisoning the gossip plane, and
//! parasites re-advertising abandoned side-chain parents. This experiment
//! runs a full in-process wire cluster of [`NetNode`] runtimes over real
//! loopback UDP, placing `k` Byzantine nodes (cycling equivocate /
//! digest-lie / parasite, on the highest ids — node 0 stays honest,
//! matching the `--adversary` CLI convention) and sweeping `k` from zero
//! up to the ⌊n/3⌋ tolerance bound. Per level it reports
//!
//! * **honest PoP completion** — verifications issued by *honest* nodes
//!   that reached consensus despite the adversaries (the headline the
//!   regression gate holds at ≥ 95% for fractions ≤ 1/3),
//! * **honest digest parity** — every honest node's chain digest must be
//!   byte-identical to an in-memory engine run under the *same*
//!   [`Behavior`] placement (the honest-subset parity contract), and
//! * **detection evidence** — conflicting-digest observations and the
//!   `DigestReq` pull recoveries they triggered.

use crate::Scale;
use std::time::Instant;
use tldag_core::attack::Behavior;
use tldag_core::network::TldagNetwork;
use tldag_core::workload::VerificationWorkload;
use tldag_net::harness::{loopback_addrs, replay_reference_schedule};
use tldag_net::runtime::{deployment_protocol_config, deployment_topology, NodeOutcome};
use tldag_net::{AdversaryPlacement, NetNode, NetNodeConfig, NetStats};
use tldag_sim::engine::GenerationSchedule;
use tldag_sim::NodeId;

/// The behavior mix, cycled over the adversary slots of a level: the
/// three gossip-plane attacks (conflicting second histories, corrupted
/// digests, parasite side-chain advertisements). These are the kinds the
/// conflict-detection + pull-recovery defense fully neutralizes, so the
/// sweep measures the defense, not the attack: honest completion must
/// stay at 100% while the detection counters climb. Service-withholding
/// (`selfish`) is exercised separately — by the CI adversary smoke and
/// `crates/net/tests/adversary.rs` — because a silent chain makes some
/// proof paths unsatisfiable by construction and the paper's headline
/// there is detection + blacklisting, not completion.
const KINDS: [Behavior; 3] = [
    Behavior::Equivocate,
    Behavior::DigestLie,
    Behavior::Parasite,
];

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct AdversaryConfig {
    /// Founding nodes (no churn in this sweep — the adversaries are the
    /// variable under test).
    pub founders: usize,
    /// Protocol horizon in slots.
    pub slots: u64,
    /// Consensus parameter γ.
    pub gamma: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Slot from which every placed adversary switches on (honest until
    /// then, so the cluster always bootstraps cleanly).
    pub from_slot: u64,
    /// Adversary counts to sweep, each ≤ ⌊founders/3⌋.
    pub levels: Vec<usize>,
}

impl AdversaryConfig {
    /// Sweep sized for `scale`.
    pub fn at_scale(scale: Scale) -> Self {
        match scale {
            Scale::Paper => AdversaryConfig {
                founders: 9,
                slots: 16,
                gamma: 3,
                seed: 42,
                from_slot: 2,
                levels: vec![0, 1, 2, 3],
            },
            Scale::Quick => AdversaryConfig {
                founders: 4,
                slots: 10,
                gamma: 3,
                seed: 42,
                from_slot: 2,
                levels: vec![0, 1],
            },
        }
    }

    /// The placement for one level: `k` adversaries on the highest ids,
    /// walking down, kinds cycling through `KINDS`. Deterministic, so
    /// the wire cluster and the engine reference see the identical cast.
    pub fn placements(&self, adversaries: usize) -> Vec<AdversaryPlacement> {
        assert!(
            adversaries < self.founders,
            "at least one honest node must remain"
        );
        (0..adversaries)
            .map(|i| AdversaryPlacement {
                node: NodeId((self.founders - 1 - i) as u32),
                behavior: KINDS[i % KINDS.len()],
                slot: self.from_slot,
            })
            .collect()
    }
}

/// Measurements at one adversary level.
#[derive(Clone, Debug)]
pub struct AdversaryPoint {
    /// Byzantine nodes in the cluster.
    pub adversaries: usize,
    /// `adversaries / founders`.
    pub fraction: f64,
    /// The cast, e.g. `"n5:selfish n4:equivocate"` (empty at level 0).
    pub behaviors: String,
    /// PoP runs attempted by honest nodes.
    pub honest_attempts: u64,
    /// Honest PoP runs that reached consensus.
    pub honest_successes: u64,
    /// PoP runs attempted / completed across the *whole* cluster.
    pub total_pop: (u64, u64),
    /// The engine reference's (attempts, successes) under the same cast.
    pub reference_pop: (u64, u64),
    /// Every honest node's chain digest matched the engine reference.
    pub honest_parity: bool,
    /// Conflicting `SlotDigest` pairs honest nodes observed.
    pub digest_conflicts: u64,
    /// `DigestReq` pulls issued to resolve conflicts.
    pub conflict_pulls: u64,
    /// Nodes that proceeded past a timed-out barrier.
    pub degraded_nodes: u64,
    /// Wall-clock for the whole cluster run, ms.
    pub wall_ms: f64,
    /// Transport counters merged across every node's report.
    pub net: NetStats,
}

impl AdversaryPoint {
    /// Fraction of honest PoP runs that reached consensus.
    pub fn honest_completion(&self) -> f64 {
        if self.honest_attempts == 0 {
            0.0
        } else {
            self.honest_successes as f64 / self.honest_attempts as f64
        }
    }
}

/// The sweep output.
#[derive(Clone, Debug)]
pub struct AdversaryData {
    /// One point per adversary level, in sweep order.
    pub points: Vec<AdversaryPoint>,
}

/// The engine reference for one cast: same seed, same topology, the
/// placement applied through the same helper `tldag cluster` uses.
fn reference_run(config: &AdversaryConfig, placements: &[AdversaryPlacement]) -> TldagNetwork {
    let topology = deployment_topology(config.seed, config.founders, 300.0);
    let cfg = deployment_protocol_config(config.gamma);
    let schedule = GenerationSchedule::uniform(topology.len());
    let mut net = TldagNetwork::new(cfg, topology, schedule, config.seed);
    net.set_verification_workload(VerificationWorkload::RandomPast {
        min_age_slots: config.founders as u64,
    });
    replay_reference_schedule(
        &mut net,
        &[],
        placements,
        config.founders,
        config.seed,
        config.slots,
    );
    net
}

/// Runs one in-process wire cluster with the given cast and returns the
/// per-node outcomes in id order.
fn wire_run(config: &AdversaryConfig, placements: &[AdversaryPlacement]) -> Vec<NodeOutcome> {
    let addrs = loopback_addrs(config.founders).expect("loopback probe sockets");
    let handles: Vec<std::thread::JoinHandle<NodeOutcome>> = (0..config.founders)
        .map(|i| {
            let id = NodeId(i as u32);
            let mut node_config =
                NetNodeConfig::new(id, addrs[i], config.seed, config.founders, config.slots);
            node_config.gamma = config.gamma;
            // PoP mode: digest gossip fans out to every generator, so
            // detection does not depend on where an adversary happens to
            // sit in the radio topology.
            node_config.pop = true;
            node_config.peers = (0..config.founders)
                .filter(|&j| j != i)
                .map(|j| (NodeId(j as u32), addrs[j]))
                .collect();
            if let Some(p) = placements.iter().find(|p| p.node == id) {
                node_config.behavior = p.behavior;
                node_config.behavior_from = p.slot;
            }
            // A selfish node never answers, so requests aimed at it must
            // burn their full retry schedule; keep that schedule short so
            // the failure is cheap and the slot budget generous so the
            // barrier never degrades while it burns.
            node_config.endpoint.request_timeout = std::time::Duration::from_millis(40);
            node_config.endpoint.max_retries = 8;
            node_config.endpoint.max_backoff = std::time::Duration::from_millis(300);
            node_config.slot_timeout = std::time::Duration::from_secs(20);
            node_config.hello_timeout = std::time::Duration::from_secs(20);
            node_config.linger = std::time::Duration::from_millis(2500);
            std::thread::spawn(move || {
                NetNode::new(node_config)
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

/// Runs the sweep.
pub fn run(config: &AdversaryConfig) -> AdversaryData {
    let mut points = Vec::with_capacity(config.levels.len());
    for &adversaries in &config.levels {
        let placements = config.placements(adversaries);
        let reference = reference_run(config, &placements);

        let started = Instant::now();
        let outcomes = wire_run(config, &placements);
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;

        let is_adversary = |id: u32| placements.iter().any(|p| p.node.0 == id);
        let honest: Vec<&NodeOutcome> = outcomes
            .iter()
            .filter(|o| !is_adversary(o.run.node.0))
            .collect();
        let honest_parity = honest
            .iter()
            .all(|o| o.run.chain_digest == reference.chain_digest(o.run.node));
        points.push(AdversaryPoint {
            adversaries,
            fraction: adversaries as f64 / config.founders as f64,
            behaviors: placements
                .iter()
                .map(|p| format!("{}:{}", p.node, p.behavior))
                .collect::<Vec<_>>()
                .join(" "),
            honest_attempts: honest.iter().map(|o| o.run.pop_attempts).sum(),
            honest_successes: honest.iter().map(|o| o.run.pop_successes).sum(),
            total_pop: (
                outcomes.iter().map(|o| o.run.pop_attempts).sum(),
                outcomes.iter().map(|o| o.run.pop_successes).sum(),
            ),
            reference_pop: reference.pop_counters(),
            honest_parity,
            digest_conflicts: outcomes.iter().map(|o| o.stats.digest_conflicts).sum(),
            conflict_pulls: outcomes.iter().map(|o| o.stats.conflict_pulls).sum(),
            degraded_nodes: outcomes.iter().filter(|o| o.run.degraded).count() as u64,
            wall_ms,
            net: outcomes.iter().fold(NetStats::default(), |mut acc, o| {
                acc.merge(&o.stats);
                acc
            }),
        });
    }
    AdversaryData { points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minority_cast_keeps_honest_parity_and_detection_fires() {
        let config = AdversaryConfig {
            founders: 4,
            slots: 9,
            gamma: 3,
            seed: 19,
            from_slot: 2,
            levels: vec![1],
        };
        let data = run(&config);
        let p = &data.points[0];
        assert_eq!(p.behaviors, "n3:equivocate");
        assert!(
            p.honest_parity,
            "honest chains must match the engine reference"
        );
        assert_eq!(
            p.total_pop, p.reference_pop,
            "cluster PoP counters must match the engine under the same cast"
        );
        assert!(
            p.honest_attempts > 0,
            "the workload must run honest PoP verifications"
        );
        assert!(
            (p.honest_completion() - 1.0).abs() < f64::EPSILON,
            "gossip-plane attacks must not cost honest completion \
(got {})",
            p.honest_completion()
        );
        assert!(
            p.digest_conflicts >= 1 && p.conflict_pulls >= 1,
            "detection must fire (conflicts {}, pulls {})",
            p.digest_conflicts,
            p.conflict_pulls
        );
        assert_eq!(p.degraded_nodes, 0, "no barrier may time out");
    }
}
