//! `fig12_churn`: dynamic membership over a *real* (lossy) socket path.
//!
//! The paper's Sec. VII names nodes joining and leaving mid-run as the
//! IoT deployment's normal operating condition; DAG-ledger work aimed at
//! the same setting (DLedger, Cullen et al.) treats churn as the default,
//! not a fault. This experiment measures the wire runtime's membership
//! control plane under both churn *and* injected datagram loss: for each
//! churn level (number of scheduled late joins + graceful leaves) a full
//! in-process cluster of [`NetNode`] runtimes executes the schedule over
//! fault-injecting transports ([`tldag_net::FaultyTransport`]), with PoP
//! verification on, and reports
//!
//! * **PoP completion** — verifications that reached consensus over the
//!   lossy wire, against the in-memory engine's count on the identical
//!   schedule (the reactive protocol's headline),
//! * **catch-up latency** — wall-clock from a joiner's first `JoinReq`
//!   to being announced and slot-ready (the membership plane's cost), and
//! * **digest parity** — whether the wire cluster still reproduced the
//!   engine's `network_digest` byte-for-byte through the churn.

use crate::Scale;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tldag_core::network::TldagNetwork;
use tldag_core::workload::VerificationWorkload;
use tldag_net::harness::{loopback_addrs, replay_reference_schedule};
use tldag_net::membership::{validate_churn, ChurnEvent};
use tldag_net::runtime::{
    deployment_protocol_config, deployment_topology, network_digest_of, NodeOutcome,
};
use tldag_net::telemetry::{scrape_metrics, StatusRow};
use tldag_net::{FaultSpec, NetNode, NetNodeConfig, NetStats};
use tldag_sim::engine::GenerationSchedule;
use tldag_sim::NodeId;

/// One churn level of the sweep: how many late joins and graceful leaves
/// the schedule contains.
#[derive(Clone, Copy, Debug)]
pub struct ChurnLevel {
    /// Late joiners (spawned mid-run, bootstrapped via the handshake).
    pub joins: usize,
    /// Graceful leavers (founders departing before the horizon).
    pub leaves: usize,
}

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// Founding nodes.
    pub founders: usize,
    /// Protocol horizon in slots.
    pub slots: u64,
    /// Consensus parameter γ.
    pub gamma: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Injected datagram drop probability (duplication/reordering scaled
    /// off it, see [`FaultSpec::degraded`]).
    pub loss: f64,
    /// Churn levels to sweep.
    pub levels: Vec<ChurnLevel>,
}

impl ChurnConfig {
    /// Sweep sized for `scale`.
    pub fn at_scale(scale: Scale) -> Self {
        match scale {
            Scale::Paper => ChurnConfig {
                founders: 6,
                slots: 16,
                gamma: 3,
                seed: 42,
                loss: 0.05,
                levels: vec![
                    ChurnLevel {
                        joins: 0,
                        leaves: 0,
                    },
                    ChurnLevel {
                        joins: 1,
                        leaves: 0,
                    },
                    ChurnLevel {
                        joins: 1,
                        leaves: 1,
                    },
                    ChurnLevel {
                        joins: 2,
                        leaves: 2,
                    },
                    ChurnLevel {
                        joins: 3,
                        leaves: 3,
                    },
                ],
            },
            Scale::Quick => ChurnConfig {
                founders: 4,
                slots: 10,
                gamma: 3,
                seed: 42,
                loss: 0.05,
                levels: vec![
                    ChurnLevel {
                        joins: 0,
                        leaves: 0,
                    },
                    ChurnLevel {
                        joins: 1,
                        leaves: 1,
                    },
                    ChurnLevel {
                        joins: 2,
                        leaves: 1,
                    },
                ],
            },
        }
    }

    /// The deterministic schedule for one churn level: joins spread from
    /// slot 2 on (consecutive ids past the founders), leaves walking back
    /// from two slots before the horizon (sparing founder 0, the
    /// bootstrap).
    pub fn schedule(&self, level: ChurnLevel) -> Vec<ChurnEvent> {
        let mut events = Vec::new();
        for j in 0..level.joins {
            events.push(ChurnEvent::Join {
                id: NodeId((self.founders + j) as u32),
                slot: 2 + j as u64,
            });
        }
        for l in 0..level.leaves {
            events.push(ChurnEvent::Leave {
                id: NodeId(1 + l as u32),
                slot: self.slots - 2 - l as u64,
            });
        }
        events.sort_by_key(|e| (e.slot(), matches!(e, ChurnEvent::Join { .. }), e.id().0));
        events
    }
}

/// One mid-run telemetry sample: the cluster's aggregated state as seen
/// by scraping every live node's `/metrics` endpoint while slots advance.
#[derive(Clone, Copy, Debug)]
pub struct ChurnSample {
    /// Highest slot any scraped node was executing.
    pub slot: u64,
    /// Nodes that answered the scrape.
    pub nodes: u64,
    /// Blocks across all answering chains.
    pub chain_total: u64,
    /// PoP verifications attempted so far (sum).
    pub pop_attempts: u64,
    /// PoP verifications completed so far (sum).
    pub pop_successes: u64,
    /// Request retransmissions so far (sum).
    pub retries: u64,
}

/// Measurements at one churn level.
#[derive(Clone, Debug)]
pub struct ChurnPoint {
    /// Late joins in the schedule.
    pub joins: usize,
    /// Graceful leaves in the schedule.
    pub leaves: usize,
    /// PoP runs attempted across the wire cluster.
    pub pop_attempts: u64,
    /// PoP runs that reached consensus.
    pub pop_successes: u64,
    /// The reference engine's (attempts, successes) on the same schedule.
    pub reference_pop: (u64, u64),
    /// Mean joiner catch-up latency (handshake → announced), ms.
    pub mean_catch_up_ms: f64,
    /// Worst joiner catch-up latency, ms.
    pub max_catch_up_ms: f64,
    /// Whether the wire `network_digest` matched the engine's.
    pub parity: bool,
    /// Nodes that proceeded past a timed-out barrier.
    pub degraded_nodes: u64,
    /// Request retransmissions across every endpoint.
    pub retries: u64,
    /// Datagrams sent across every endpoint.
    pub datagrams: u64,
    /// Wall-clock for the whole cluster run, ms.
    pub wall_ms: f64,
    /// Transport counters merged across every node's report.
    pub net: NetStats,
    /// Mid-run telemetry time series, oldest first (scraped from the live
    /// nodes' metrics endpoints while the cluster ran).
    pub samples: Vec<ChurnSample>,
}

impl ChurnPoint {
    /// Fraction of PoP runs that reached consensus.
    pub fn completion(&self) -> f64 {
        if self.pop_attempts == 0 {
            0.0
        } else {
            self.pop_successes as f64 / self.pop_attempts as f64
        }
    }
}

/// The sweep output.
#[derive(Clone, Debug)]
pub struct ChurnData {
    /// One point per churn level, in sweep order.
    pub points: Vec<ChurnPoint>,
}

/// The engine reference for one schedule: same seed, same membership,
/// replayed through the same helper the cluster harness uses — one
/// definition of the reference, no drift between the two parity checks.
fn reference_run(config: &ChurnConfig, events: &[ChurnEvent]) -> TldagNetwork {
    let topology = deployment_topology(config.seed, config.founders, 300.0);
    let cfg = deployment_protocol_config(config.gamma);
    let schedule = GenerationSchedule::uniform(topology.len());
    let mut net = TldagNetwork::new(cfg, topology, schedule, config.seed);
    net.set_verification_workload(VerificationWorkload::RandomPast {
        min_age_slots: config.founders as u64,
    });
    replay_reference_schedule(
        &mut net,
        events,
        &[],
        config.founders,
        config.seed,
        config.slots,
    );
    net
}

/// Discovers `n` distinct loopback TCP ports for the metrics listeners
/// (bound together then released, like [`loopback_addrs`]).
fn discover_tcp_ports(n: usize) -> Vec<std::net::SocketAddr> {
    let listeners: Vec<std::net::TcpListener> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("bind metrics probe"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("metrics probe addr"))
        .collect()
}

/// Runs one in-process wire cluster over lossy transports and returns the
/// per-node outcomes in id order, plus the mid-run telemetry samples a
/// scraper thread collected from the nodes' metrics endpoints while the
/// cluster ran.
fn wire_run(config: &ChurnConfig, events: &[ChurnEvent]) -> (Vec<NodeOutcome>, Vec<ChurnSample>) {
    let joins = events
        .iter()
        .filter(|e| matches!(e, ChurnEvent::Join { .. }))
        .count();
    let total = config.founders + joins;
    let addrs = loopback_addrs(total).expect("loopback probe sockets");
    let metrics_addrs = discover_tcp_ports(total);

    let handles: Vec<std::thread::JoinHandle<NodeOutcome>> = (0..total)
        .map(|i| {
            let id = NodeId(i as u32);
            let mut node_config =
                NetNodeConfig::new(id, addrs[i], config.seed, config.founders, config.slots);
            node_config.gamma = config.gamma;
            node_config.pop = true;
            node_config.churn = events.to_vec();
            // The runtime derives each node's fault stream from (seed, id),
            // so the loss pattern is deterministic yet uncorrelated across
            // nodes; the protocol seed stays shared for parity.
            node_config.fault = Some(FaultSpec::degraded(config.loss));
            node_config.endpoint.request_timeout = std::time::Duration::from_millis(40);
            node_config.endpoint.max_retries = 8;
            node_config.endpoint.max_backoff = std::time::Duration::from_millis(300);
            node_config.slot_timeout = std::time::Duration::from_secs(20);
            node_config.hello_timeout = std::time::Duration::from_secs(20);
            node_config.linger = std::time::Duration::from_millis(2500);
            node_config.metrics_addr = Some(metrics_addrs[i]);
            if i >= config.founders {
                node_config.join = Some(addrs[0]);
            } else {
                node_config.peers = (0..config.founders)
                    .filter(|&j| j != i)
                    .map(|j| (NodeId(j as u32), addrs[j]))
                    .collect();
            }
            std::thread::spawn(move || {
                NetNode::new(node_config)
                    .expect("node construction")
                    .run()
                    .expect("node run")
            })
        })
        .collect();
    // Scrape the live cluster while it runs: the same path `tldag status`
    // takes, reduced to one aggregated sample per sweep.
    let stop = Arc::new(AtomicBool::new(false));
    let samples: Arc<Mutex<Vec<ChurnSample>>> = Arc::new(Mutex::new(Vec::new()));
    let sampler = {
        let stop = Arc::clone(&stop);
        let samples = Arc::clone(&samples);
        let targets = metrics_addrs.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(120));
                let rows: Vec<StatusRow> = targets
                    .iter()
                    .filter_map(|addr| {
                        scrape_metrics(*addr, Duration::from_millis(300))
                            .ok()
                            .map(|s| StatusRow::from_samples(addr.to_string(), &s))
                    })
                    .collect();
                if !rows.is_empty() {
                    samples.lock().expect("samples poisoned").push(ChurnSample {
                        slot: rows.iter().map(|r| r.slot).max().unwrap_or(0),
                        nodes: rows.len() as u64,
                        chain_total: rows.iter().map(|r| r.chain_len).sum(),
                        pop_attempts: rows.iter().map(|r| r.pop_attempts).sum(),
                        pop_successes: rows.iter().map(|r| r.pop_successes).sum(),
                        retries: rows.iter().map(|r| r.request_retries).sum(),
                    });
                }
            }
        })
    };
    let mut outcomes: Vec<NodeOutcome> = handles
        .into_iter()
        .map(|h| h.join().expect("node thread panicked"))
        .collect();
    stop.store(true, Ordering::Relaxed);
    sampler.join().expect("sampler thread panicked");
    outcomes.sort_by_key(|o| o.run.node.0);
    let samples = samples.lock().expect("samples poisoned").clone();
    (outcomes, samples)
}

/// Runs the sweep.
pub fn run(config: &ChurnConfig) -> ChurnData {
    let mut points = Vec::with_capacity(config.levels.len());
    for &level in &config.levels {
        let events = config.schedule(level);
        validate_churn(&events, config.founders, config.slots).expect("generated schedule");
        let reference = reference_run(config, &events);

        let started = Instant::now();
        let (outcomes, samples) = wire_run(config, &events);
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;

        let wire_digest = network_digest_of(
            &outcomes
                .iter()
                .map(|o| o.run.chain_digest)
                .collect::<Vec<_>>(),
        );
        let catch_ups: Vec<f64> = outcomes
            .iter()
            .filter(|o| o.run.catch_up_ms > 0)
            .map(|o| o.run.catch_up_ms as f64)
            .collect();
        let mean_catch_up = if catch_ups.is_empty() {
            0.0
        } else {
            catch_ups.iter().sum::<f64>() / catch_ups.len() as f64
        };
        points.push(ChurnPoint {
            joins: level.joins,
            leaves: level.leaves,
            pop_attempts: outcomes.iter().map(|o| o.run.pop_attempts).sum(),
            pop_successes: outcomes.iter().map(|o| o.run.pop_successes).sum(),
            reference_pop: reference.pop_counters(),
            mean_catch_up_ms: mean_catch_up,
            max_catch_up_ms: catch_ups.iter().cloned().fold(0.0, f64::max),
            parity: wire_digest == reference.network_digest(),
            degraded_nodes: outcomes.iter().filter(|o| o.run.degraded).count() as u64,
            retries: outcomes.iter().map(|o| o.stats.request_retries).sum(),
            datagrams: outcomes.iter().map(|o| o.stats.datagrams_sent).sum(),
            wall_ms,
            net: outcomes.iter().fold(NetStats::default(), |mut acc, o| {
                acc.merge(&o.stats);
                acc
            }),
            samples,
        });
    }
    ChurnData { points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_under_loss_keeps_parity_and_completes_pop() {
        let config = ChurnConfig {
            founders: 4,
            slots: 9,
            gamma: 2,
            seed: 13,
            loss: 0.08,
            levels: vec![ChurnLevel {
                joins: 1,
                leaves: 1,
            }],
        };
        let data = run(&config);
        let p = &data.points[0];
        assert!(p.parity, "churn + loss must not break digest parity");
        assert_eq!(
            (p.pop_attempts, p.pop_successes),
            p.reference_pop,
            "wire PoP counters must match the engine through churn"
        );
        assert!(
            p.mean_catch_up_ms > 0.0,
            "the joiner's catch-up latency must be measured"
        );
        assert_eq!(p.degraded_nodes, 0, "no barrier may time out at this loss");
    }
}
