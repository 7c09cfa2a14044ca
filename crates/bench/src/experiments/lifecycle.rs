//! `fig14_lifecycle`: end-to-end block latency from causal lifecycle
//! traces.
//!
//! The span store gives each block a wall-clock timeline across every
//! node — generated at the origin, received/verified at the remotes,
//! committed when each node closes the slot. This experiment measures the
//! distribution of **generate → committed-everywhere** latency (the
//! instant the *last* node of a full quorum committed the block) on an
//! in-process loopback cluster, under the lockstep runtime (`W = 1`) and
//! the pipelined runtime (`W = 8`).
//!
//! The interesting comparison: pipelining raises *throughput* (fig13) by
//! taking the barrier off the hot path, but an individual block's
//! commit-everywhere latency grows with pipeline depth — a slot closes
//! only when the verify worker catches up to it. This panel quantifies
//! that trade with p50/p99 quantiles over all fully-traced blocks, and
//! verifies on the way that tracing itself never perturbs the protocol
//! (digest parity against the reference engine must hold with the span
//! store enabled).

use crate::Scale;
use std::sync::Arc;
use std::time::Duration;
use tldag_core::network::TldagNetwork;
use tldag_core::workload::VerificationWorkload;
use tldag_net::harness::{loopback_addrs, replay_reference_schedule};
use tldag_net::runtime::{
    deployment_protocol_config, deployment_topology, network_digest_of, NodeOutcome,
};
use tldag_net::telemetry::NodeTelemetry;
use tldag_net::{NetNode, NetNodeConfig};
use tldag_obs::{build_timelines, SpanEvent};
use tldag_sim::engine::GenerationSchedule;
use tldag_sim::NodeId;

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct LifecycleConfig {
    /// Nodes (= UDP endpoints, all founders).
    pub nodes: usize,
    /// Protocol horizon in slots.
    pub slots: u64,
    /// Consensus parameter γ.
    pub gamma: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Pipeline windows to sweep; 1 = lockstep.
    pub windows: Vec<u64>,
}

impl LifecycleConfig {
    /// Sweep sized for `scale`.
    pub fn at_scale(scale: Scale) -> Self {
        match scale {
            Scale::Paper => LifecycleConfig {
                nodes: 4,
                slots: 40,
                gamma: 3,
                seed: 42,
                windows: vec![1, 8],
            },
            Scale::Quick => LifecycleConfig {
                nodes: 3,
                slots: 18,
                gamma: 2,
                seed: 42,
                windows: vec![1, 8],
            },
        }
    }
}

/// Lifecycle-latency measurements at one window size.
#[derive(Clone, Copy, Debug)]
pub struct LifecyclePoint {
    /// The pipeline window (1 = lockstep).
    pub window: u64,
    /// Block timelines assembled from the merged span stores.
    pub timelines: u64,
    /// Timelines with spans from every node of the cluster.
    pub fully_stitched: u64,
    /// Timelines with a full-quorum committed-everywhere instant.
    pub committed: u64,
    /// Spans recorded across every node.
    pub spans: u64,
    /// Spans lost to ring eviction or contention across every node.
    pub dropped: u64,
    /// Median generate → committed-everywhere latency, µs.
    pub p50_us: u64,
    /// 99th-percentile generate → committed-everywhere latency, µs.
    pub p99_us: u64,
    /// Worst generate → committed-everywhere latency, µs.
    pub max_us: u64,
    /// Whether the traced cluster still reproduced the reference digest.
    pub parity: bool,
    /// PoP (attempts, successes) summed over the wire nodes.
    pub wire_pop: (u64, u64),
}

/// The sweep output.
#[derive(Clone, Debug)]
pub struct LifecycleData {
    /// One point per window, in sweep order.
    pub points: Vec<LifecyclePoint>,
    /// The reference engine's PoP counters (window-independent).
    pub reference_pop: (u64, u64),
}

fn reference_run(config: &LifecycleConfig) -> TldagNetwork {
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

/// One traced in-process cluster run: per-node outcomes plus the
/// telemetry handles whose span stores outlive the runtimes.
fn wire_run(config: &LifecycleConfig, window: u64) -> Vec<(NodeOutcome, Arc<NodeTelemetry>)> {
    let addrs = loopback_addrs(config.nodes).expect("loopback probe sockets");
    let handles: Vec<std::thread::JoinHandle<(NodeOutcome, Arc<NodeTelemetry>)>> = (0..config
        .nodes)
        .map(|i| {
            let id = NodeId(i as u32);
            let mut node_config =
                NetNodeConfig::new(id, addrs[i], config.seed, config.nodes, config.slots);
            node_config.gamma = config.gamma;
            node_config.pop = true;
            node_config.window = window;
            node_config.trace = true;
            node_config.linger = Duration::from_millis(600);
            node_config.peers = (0..config.nodes)
                .filter(|&j| j != i)
                .map(|j| (NodeId(j as u32), addrs[j]))
                .collect();
            std::thread::spawn(move || {
                let node = NetNode::new(node_config).expect("node construction");
                let telemetry = node.telemetry();
                let outcome = node.run().expect("node run");
                (outcome, telemetry)
            })
        })
        .collect();
    let mut results: Vec<(NodeOutcome, Arc<NodeTelemetry>)> = handles
        .into_iter()
        .map(|h| h.join().expect("node thread panicked"))
        .collect();
    results.sort_by_key(|(o, _)| o.run.node.0);
    results
}

/// `q`-quantile of an unsorted latency sample (nearest-rank).
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs the sweep.
pub fn run(config: &LifecycleConfig) -> LifecycleData {
    let reference = reference_run(config);
    let reference_digest = reference.network_digest();
    let reference_pop = reference.pop_counters();

    let mut points = Vec::with_capacity(config.windows.len());
    for &window in &config.windows {
        let results = wire_run(config, window);

        let wire_digest = network_digest_of(
            &results
                .iter()
                .map(|(o, _)| o.run.chain_digest)
                .collect::<Vec<_>>(),
        );
        let wire_pop = results.iter().fold((0, 0), |(a, s), (o, _)| {
            (a + o.run.pop_attempts, s + o.run.pop_successes)
        });

        // Merge every node's span store into one cross-node event set —
        // the same stitching `/trace` does per node, but cluster-wide.
        let merged: Vec<SpanEvent> = results
            .iter()
            .flat_map(|(_, t)| t.spans.snapshot())
            .collect();
        let spans = results.iter().map(|(_, t)| t.spans.recorded()).sum();
        let dropped = results
            .iter()
            .map(|(_, t)| t.spans.dropped() + t.spans.evicted())
            .sum();

        let timelines = build_timelines(&merged);
        let mut latencies: Vec<u64> = Vec::with_capacity(timelines.len());
        let mut fully_stitched = 0u64;
        for timeline in &timelines {
            if timeline.node_count() == config.nodes {
                fully_stitched += 1;
            }
            if let (Some(generated), Some(committed)) = (
                timeline.generated_at(),
                timeline.committed_everywhere(config.nodes),
            ) {
                latencies.push(committed.saturating_sub(generated));
            }
        }
        latencies.sort_unstable();

        points.push(LifecyclePoint {
            window,
            timelines: timelines.len() as u64,
            fully_stitched,
            committed: latencies.len() as u64,
            spans,
            dropped,
            p50_us: quantile(&latencies, 0.50),
            p99_us: quantile(&latencies, 0.99),
            max_us: latencies.last().copied().unwrap_or(0),
            parity: wire_digest == reference_digest,
            wire_pop,
        });
    }
    LifecycleData {
        points,
        reference_pop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_cluster_yields_quorum_committed_timelines_at_parity() {
        let config = LifecycleConfig {
            nodes: 3,
            slots: 10,
            gamma: 2,
            seed: 7,
            windows: vec![1],
        };
        let data = run(&config);
        assert_eq!(data.points.len(), 1);
        let p = &data.points[0];
        assert!(p.parity, "tracing must not perturb the protocol");
        assert_eq!(
            p.wire_pop, data.reference_pop,
            "traced cluster must match the engine's PoP counters"
        );
        assert_eq!(
            p.timelines,
            3 * 10,
            "every generated block must have a timeline"
        );
        assert!(
            p.committed >= p.timelines / 2,
            "most blocks must reach committed-everywhere, got {}/{}",
            p.committed,
            p.timelines
        );
        assert!(p.fully_stitched > 0, "cross-node stitching must happen");
        assert!(p.p50_us > 0, "commit-everywhere latency cannot be zero");
        assert!(p.p99_us >= p.p50_us);
        assert_eq!(p.dropped, 0, "this scale must fit the span ring");
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let sorted = [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(quantile(&sorted, 0.50), 50);
        assert_eq!(quantile(&sorted, 0.99), 100);
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(quantile(&[7], 0.99), 7);
    }
}
