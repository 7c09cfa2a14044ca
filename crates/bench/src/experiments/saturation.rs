//! `fig13_saturation`: the epoch-window pipeline's throughput headroom.
//!
//! The lockstep runtime (window = 1) ends every slot in a digest/done
//! barrier, so slot time is dominated by coordination, not work — the
//! bound DLedger (arXiv:1902.09031) removes by committing asynchronously
//! with lazy interest-based sync. This experiment measures exactly that
//! gap on loopback: for each pipeline window `W` an in-process cluster of
//! [`NetNode`] runtimes executes the same seeded schedule with PoP
//! verification on, and reports
//!
//! * **blocks/s** — cluster-wide generation throughput over the slot
//!   loop's critical path (the slowest node's `slot_loop_ms`, which
//!   excludes bootstrap and linger),
//! * **PoP/s** — verification throughput on the same denominator,
//! * **p50/p99 slot latency** — per-slot generation-to-verified latency
//!   from the merged node telemetry histograms (in pipelined mode this is
//!   true pipeline depth: a slot verifies several generations later), and
//! * **digest + PoP parity** — every window must still reproduce the
//!   in-memory engine byte-for-byte; the pipeline buys speed, not drift.
//!
//! The headline is `speedup`: blocks/s at window `W` relative to the
//! lockstep baseline of the same sweep.

use crate::Scale;
use std::time::{Duration, Instant};
use tldag_core::network::TldagNetwork;
use tldag_core::workload::VerificationWorkload;
use tldag_net::harness::{loopback_addrs, replay_reference_schedule};
use tldag_net::runtime::{
    deployment_protocol_config, deployment_topology, network_digest_of, NodeOutcome,
};
use tldag_net::{NetNode, NetNodeConfig};
use tldag_sim::engine::GenerationSchedule;
use tldag_sim::NodeId;

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct SaturationConfig {
    /// Nodes (= UDP endpoints, all founders).
    pub nodes: usize,
    /// Protocol horizon in slots.
    pub slots: u64,
    /// Consensus parameter γ.
    pub gamma: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Pipeline windows to sweep; include 1 for the lockstep baseline.
    pub windows: Vec<u64>,
}

impl SaturationConfig {
    /// Sweep sized for `scale`.
    pub fn at_scale(scale: Scale) -> Self {
        match scale {
            Scale::Paper => SaturationConfig {
                nodes: 5,
                slots: 48,
                gamma: 3,
                seed: 42,
                windows: vec![1, 2, 4, 8],
            },
            Scale::Quick => SaturationConfig {
                nodes: 4,
                slots: 30,
                gamma: 3,
                seed: 42,
                windows: vec![1, 4],
            },
        }
    }
}

/// Measurements at one window size.
#[derive(Clone, Copy, Debug)]
pub struct SaturationPoint {
    /// The pipeline window (1 = lockstep baseline).
    pub window: u64,
    /// Blocks generated across the cluster (nodes × slots).
    pub blocks: u64,
    /// PoP verifications attempted across the cluster.
    pub pop_attempts: u64,
    /// PoP verifications that reached consensus.
    pub pop_successes: u64,
    /// The reference engine's (attempts, successes) on the same seed.
    pub reference_pop: (u64, u64),
    /// Whether the cluster reproduced the engine's `network_digest`.
    pub parity: bool,
    /// Nodes that proceeded past a timed-out barrier.
    pub degraded_nodes: u64,
    /// Slot-loop critical path: the slowest node's `slot_loop_ms`.
    pub slot_loop_ms: u64,
    /// Wall-clock for the whole cluster run (bootstrap + linger included).
    pub wall_ms: f64,
    /// Cluster generation throughput over the slot-loop critical path.
    pub blocks_per_s: f64,
    /// Cluster verification throughput on the same denominator.
    pub pops_per_s: f64,
    /// Median generation-to-verified slot latency, ms (merged histograms).
    pub p50_slot_ms: f64,
    /// 99th-percentile slot latency, ms.
    pub p99_slot_ms: f64,
    /// Request retransmissions across every endpoint.
    pub retries: u64,
    /// Datagrams sent across every endpoint.
    pub datagrams: u64,
    /// blocks/s relative to this sweep's window-1 point (1.0 when this
    /// *is* the baseline; 0.0 when the sweep has no baseline).
    pub speedup: f64,
}

/// The sweep output.
#[derive(Clone, Debug)]
pub struct SaturationData {
    /// One point per window, in sweep order.
    pub points: Vec<SaturationPoint>,
}

impl SaturationData {
    /// The best speedup any pipelined window achieved over lockstep.
    pub fn best_speedup(&self) -> f64 {
        self.points
            .iter()
            .filter(|p| p.window > 1)
            .map(|p| p.speedup)
            .fold(0.0, f64::max)
    }
}

/// The engine reference: same seed, same workload, replayed through the
/// same helper the cluster harness uses. Window-independent — the whole
/// point of the pipeline is that the ledger it converges to is identical.
fn reference_run(config: &SaturationConfig) -> TldagNetwork {
    let topology = deployment_topology(config.seed, config.nodes, 300.0);
    let cfg = deployment_protocol_config(config.gamma);
    let schedule = GenerationSchedule::uniform(topology.len());
    let mut net = TldagNetwork::new(cfg, topology, schedule, config.seed);
    net.set_verification_workload(VerificationWorkload::RandomPast {
        min_age_slots: config.nodes as u64,
    });
    replay_reference_schedule(&mut net, &[], &[], config.nodes, config.seed, config.slots);
    net
}

/// Runs one in-process cluster at the given window and returns per-node
/// outcomes (id order) plus each node's slot-latency histogram snapshot.
type NodeResult = (NodeOutcome, tldag_net::telemetry::HistogramSnapshot);

fn wire_run(config: &SaturationConfig, window: u64) -> Vec<NodeResult> {
    let addrs = loopback_addrs(config.nodes).expect("loopback probe sockets");
    let handles: Vec<std::thread::JoinHandle<NodeResult>> = (0..config.nodes)
        .map(|i| {
            let id = NodeId(i as u32);
            let mut node_config =
                NetNodeConfig::new(id, addrs[i], config.seed, config.nodes, config.slots);
            node_config.gamma = config.gamma;
            node_config.pop = true;
            node_config.window = window;
            node_config.linger = Duration::from_millis(600);
            node_config.peers = (0..config.nodes)
                .filter(|&j| j != i)
                .map(|j| (NodeId(j as u32), addrs[j]))
                .collect();
            std::thread::spawn(move || {
                let node = NetNode::new(node_config).expect("node construction");
                let telemetry = node.telemetry();
                let outcome = node.run().expect("node run");
                (outcome, telemetry.slot_latency.snapshot())
            })
        })
        .collect();
    let mut results: Vec<NodeResult> = handles
        .into_iter()
        .map(|h| h.join().expect("node thread panicked"))
        .collect();
    results.sort_by_key(|(o, _)| o.run.node.0);
    results
}

/// Runs the sweep.
pub fn run(config: &SaturationConfig) -> SaturationData {
    let reference = reference_run(config);
    let reference_digest = reference.network_digest();
    let reference_pop = reference.pop_counters();

    let mut points: Vec<SaturationPoint> = Vec::with_capacity(config.windows.len());
    for &window in &config.windows {
        let started = Instant::now();
        let results = wire_run(config, window);
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;

        let wire_digest = network_digest_of(
            &results
                .iter()
                .map(|(o, _)| o.run.chain_digest)
                .collect::<Vec<_>>(),
        );
        let mut latency = results[0].1;
        for (_, snap) in &results[1..] {
            latency.merge(snap);
        }
        let blocks: u64 = results.iter().map(|(o, _)| o.run.chain_len).sum();
        let pop_successes: u64 = results.iter().map(|(o, _)| o.run.pop_successes).sum();
        // The cluster is only as fast as its slowest slot loop.
        let slot_loop_ms = results
            .iter()
            .map(|(o, _)| o.run.slot_loop_ms)
            .max()
            .unwrap_or(1);
        let secs = slot_loop_ms as f64 / 1e3;
        points.push(SaturationPoint {
            window,
            blocks,
            pop_attempts: results.iter().map(|(o, _)| o.run.pop_attempts).sum(),
            pop_successes,
            reference_pop,
            parity: wire_digest == reference_digest,
            degraded_nodes: results.iter().filter(|(o, _)| o.run.degraded).count() as u64,
            slot_loop_ms,
            wall_ms,
            blocks_per_s: blocks as f64 / secs,
            pops_per_s: pop_successes as f64 / secs,
            p50_slot_ms: latency.p50() as f64 / 1e3,
            p99_slot_ms: latency.p99() as f64 / 1e3,
            retries: results.iter().map(|(o, _)| o.stats.request_retries).sum(),
            datagrams: results.iter().map(|(o, _)| o.stats.datagrams_sent).sum(),
            speedup: 0.0,
        });
    }
    let baseline = points
        .iter()
        .find(|p| p.window == 1)
        .map(|p| p.blocks_per_s);
    for p in &mut points {
        p.speedup = match baseline {
            Some(base) if base > 0.0 => p.blocks_per_s / base,
            _ => 0.0,
        };
    }
    SaturationData { points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_window_outruns_lockstep_at_parity() {
        let config = SaturationConfig {
            nodes: 3,
            slots: 12,
            gamma: 2,
            seed: 11,
            windows: vec![1, 4],
        };
        let data = run(&config);
        assert_eq!(data.points.len(), 2);
        for p in &data.points {
            assert!(p.parity, "window {} must keep digest parity", p.window);
            assert_eq!(
                (p.pop_attempts, p.pop_successes),
                p.reference_pop,
                "window {} must match the engine's PoP counters",
                p.window
            );
            assert_eq!(p.degraded_nodes, 0, "no barrier may time out on loopback");
            assert_eq!(p.blocks, 3 * 12, "every node generates once per slot");
            assert!(p.blocks_per_s > 0.0);
        }
        // The pipeline's whole claim: removing the per-slot barrier from
        // the hot path beats lockstep even at this tiny scale. Debug-mode
        // hashing inflates the verify work both modes share, so the floor
        // here is deliberately loose — the release bin demonstrates the
        // ≥5× headline.
        assert!(
            data.best_speedup() >= 1.3,
            "window 4 must clearly outrun lockstep, got {:.2}×",
            data.best_speedup()
        );
    }
}
