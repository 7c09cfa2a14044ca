//! The `wire-lockstep` workload: four in-process `NetNode`s on loopback
//! UDP, PoP on, window 1, memory storage, γ = 3, no injected loss or delay.
//!
//! The benchmark times the cluster from outside: a monitor thread polls each
//! node's telemetry and turns every increment of a histogram's exact
//! `count`/`sum_micros` pair into one sample (one slot, or one PoP run), so
//! no figure depends on the histograms' bucket resolution. Every pass is
//! checked against an in-memory engine replay of the same seed.

use crate::engine::{protocol_tx_bits, sampled_blocks};
use crate::inputs::{seed_matching, Seeds};
use crate::layers;
use crate::report::{peak_rss_mib, Report};
use crate::stats::{mean_of, median, median_of_passes, quantile, tail_quantile};
use crate::Ctx;
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tldag_core::network::TldagNetwork;
use tldag_core::workload::VerificationWorkload;
use tldag_net::envelope::DEFAULT_MTU;
use tldag_net::harness::replay_reference_schedule;
use tldag_net::runtime::{
    deployment_protocol_config, deployment_topology, network_digest_of, NodeOutcome,
};
use tldag_net::telemetry::NodeTelemetry;
use tldag_net::{NetNode, NetNodeConfig, NetStats};
use tldag_obs::{build_timelines, EventKind, LatencyHistogram, Phase, SpanEvent};
use tldag_sim::engine::GenerationSchedule;
use tldag_sim::NodeId;

const NODES: usize = 4;
const SIDE_M: f64 = 300.0;
const GAMMA: usize = 3;
/// Slots of one measured pass.
const SLOTS: u64 = 600;
/// Slots of a set-up-only cluster (no block reaches PoP age).
const SETUP_SLOTS: u64 = 2;
/// Set-up-only clusters started before the measured ones, so `setup_s` is
/// a median over several.
const EXTRA_SETUPS: usize = 4;
/// Fewest measured passes per run (after the warm-up pass), whatever
/// `--seconds` says.
const MIN_PASSES: usize = 3;
/// How long a node keeps serving after its last slot.
const LINGER: Duration = Duration::from_millis(300);
/// Bind attempts before a run gives up on finding free ports.
const MAX_PORT_PICKS: usize = 5;
/// Blocks the traced run replays through the crypto layer and the codec.
const TRACE_SAMPLE: usize = 300;

/// One cluster run as the monitor saw it.
struct ClusterRun {
    setup_s: f64,
    outcomes: Vec<NodeOutcome>,
    telemetry: Vec<Arc<NodeTelemetry>>,
    slot_ms: Vec<f64>,
    pop_ms: Vec<f64>,
    /// The slowest node's slot-loop time: the sum of its slot latencies.
    loop_s: f64,
    port_repicks: u64,
}

/// Turns new observations of `hist` since `last` into samples: exact when
/// one observation arrived between polls, their mean when several did.
fn drain(hist: &LatencyHistogram, last: &mut (u64, u64), out: &mut Vec<f64>) {
    let snap = hist.snapshot();
    let count = snap.count.saturating_sub(last.0);
    if count == 0 {
        return;
    }
    let sum = snap.sum_micros.saturating_sub(last.1);
    for _ in 0..count {
        out.push(sum as f64 / count as f64 / 1e3);
    }
    *last = (snap.count, snap.sum_micros);
}

fn node_config(
    i: usize,
    addrs: &[SocketAddr],
    seed: u64,
    slots: u64,
    trace: bool,
) -> NetNodeConfig {
    let mut config = NetNodeConfig::new(NodeId(i as u32), addrs[i], seed, NODES, slots);
    config.side_m = SIDE_M;
    config.gamma = GAMMA;
    config.pop = true;
    config.window = 1;
    config.linger = LINGER;
    config.trace = trace;
    config.peers = (0..NODES)
        .filter(|&j| j != i)
        .map(|j| (NodeId(j as u32), addrs[j]))
        .collect();
    config
}

/// Binds the cluster's sockets. `NetNode` binds its own socket, so the
/// ports come from probe sockets held until the moment each node binds;
/// a port taken in between fails that bind, and the whole cluster is
/// re-picked (and the re-pick counted) before anything is measured.
fn bind_cluster(seed: u64, slots: u64, trace: bool) -> Result<(Vec<NetNode>, u64), String> {
    for picks in 0..MAX_PORT_PICKS {
        let mut probes: Vec<Option<UdpSocket>> = (0..NODES)
            .map(|_| UdpSocket::bind("127.0.0.1:0").map(Some))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("cannot bind a loopback probe socket: {e}"))?;
        let addrs: Vec<SocketAddr> = probes
            .iter()
            .map(|p| p.as_ref().expect("probe").local_addr())
            .collect::<Result<_, _>>()
            .map_err(|e| format!("probe socket has no address: {e}"))?;
        let mut nodes = Vec::with_capacity(NODES);
        for (i, probe) in probes.iter_mut().enumerate() {
            drop(probe.take());
            match NetNode::new(node_config(i, &addrs, seed, slots, trace)) {
                Ok(node) => nodes.push(node),
                Err(e) => {
                    eprintln!("perfbench: {e}; re-picking the cluster's ports");
                    break;
                }
            }
        }
        if nodes.len() == NODES {
            return Ok((nodes, picks as u64));
        }
    }
    Err(format!(
        "no free loopback ports after {MAX_PORT_PICKS} attempts"
    ))
}

fn run_cluster(seed: u64, slots: u64, trace: bool) -> Result<ClusterRun, String> {
    let started = Instant::now();
    let (nodes, port_repicks) = bind_cluster(seed, slots, trace)?;
    let telemetry: Vec<Arc<NodeTelemetry>> = nodes.iter().map(NetNode::telemetry).collect();
    let handles: Vec<_> = nodes
        .into_iter()
        .map(|node| std::thread::spawn(move || node.run()))
        .collect();

    let mut loop_started: Vec<Option<Instant>> = vec![None; NODES];
    let mut last_slot = [(0u64, 0u64); NODES];
    let mut last_pop = [(0u64, 0u64); NODES];
    let (mut slot_ms, mut pop_ms) = (Vec::new(), Vec::new());
    loop {
        let finished = handles.iter().all(|h| h.is_finished());
        for (i, t) in telemetry.iter().enumerate() {
            if loop_started[i].is_none()
                && t.journal
                    .events()
                    .iter()
                    .any(|e| e.kind == EventKind::SlotStart)
            {
                loop_started[i] = Some(Instant::now());
            }
            drain(&t.slot_latency, &mut last_slot[i], &mut slot_ms);
            drain(&t.pop_rtt, &mut last_pop[i], &mut pop_ms);
        }
        if finished {
            break;
        }
        // Fine polling while the bootstrap is timed; afterwards every 2 ms,
        // well inside one slot, so each poll sees at most one new slot and
        // one new PoP run per node without crowding the nodes' threads.
        let bootstrapping = loop_started.iter().any(Option::is_none);
        std::thread::sleep(Duration::from_micros(if bootstrapping {
            100
        } else {
            2000
        }));
    }
    let mut outcomes = Vec::with_capacity(NODES);
    for (i, handle) in handles.into_iter().enumerate() {
        let outcome = handle
            .join()
            .map_err(|_| format!("node {i} panicked"))?
            .map_err(|e| format!("node {i} failed: {e}"))?;
        outcomes.push(outcome);
    }
    let setup_end = loop_started
        .iter()
        .map(|t| t.ok_or("a node never started its slot loop"))
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .max()
        .expect("nodes");
    let loop_s = telemetry
        .iter()
        .map(|t| t.slot_latency.snapshot().sum_micros)
        .max()
        .unwrap_or(0) as f64
        / 1e6;
    Ok(ClusterRun {
        setup_s: (setup_end - started).as_secs_f64(),
        outcomes,
        telemetry,
        slot_ms,
        pop_ms,
        loop_s,
        port_repicks,
    })
}

/// The in-memory engine on the same seed and schedule — what every pass
/// must reproduce byte for byte.
fn reference(seed: u64) -> TldagNetwork {
    let topology = deployment_topology(seed, NODES, SIDE_M);
    let schedule = GenerationSchedule::uniform(NODES);
    let mut net = TldagNetwork::new(deployment_protocol_config(GAMMA), topology, schedule, seed);
    net.set_verification_workload(VerificationWorkload::RandomPast {
        min_age_slots: NODES as u64,
    });
    replay_reference_schedule(&mut net, &[], &[], NODES, seed, SLOTS);
    net
}

/// The deployment seed (topology and protocol alike) for `--seed`: the
/// first candidate whose four nodes are all in radio range of each other,
/// so every seed runs the same complete graph.
fn deployment_seed(seed: u64) -> u64 {
    seed_matching(Seeds::from_seed(seed).topology, |s| {
        deployment_topology(s, NODES, SIDE_M).edge_count() == NODES * (NODES - 1) / 2
    })
}

/// Runs the wire workload and fills `report`.
pub fn run(ctx: &Ctx, report: &mut Report) {
    let seed = deployment_seed(ctx.seed);
    let reference = reference(seed);
    let reference_digest = reference.network_digest();
    let reference_pop = reference.pop_counters();

    let mut setup_s = Vec::new();
    let mut port_repicks = 0;
    for _ in 0..EXTRA_SETUPS {
        match run_cluster(seed, SETUP_SLOTS, false) {
            Ok(run) => {
                setup_s.push(run.setup_s);
                port_repicks += run.port_repicks;
            }
            Err(e) => report.check(false, || format!("set-up cluster failed: {e}")),
        }
    }
    let mut passes: Vec<ClusterRun> = Vec::new();
    let mut measured_s = 0.0;
    // The first pass warms the heap and caches: it is checked like every
    // other pass but not measured.
    while passes.len() < 1 + MIN_PASSES || measured_s < ctx.seconds {
        match run_cluster(seed, SLOTS, ctx.trace) {
            Ok(run) => {
                if !passes.is_empty() {
                    measured_s += run.loop_s;
                }
                setup_s.push(run.setup_s);
                port_repicks += run.port_repicks;
                passes.push(run);
            }
            Err(e) => {
                report.check(false, || format!("cluster run failed: {e}"));
                break;
            }
        }
    }

    // --- Correctness gates, per pass.
    for run in &passes {
        let digests: Vec<_> = run.outcomes.iter().map(|o| o.run.chain_digest).collect();
        report.check(network_digest_of(&digests) == reference_digest, || {
            "wire network digest differs from the engine replay".to_string()
        });
        let pop = run.outcomes.iter().fold((0, 0), |(a, s), o| {
            (a + o.run.pop_attempts, s + o.run.pop_successes)
        });
        report.check(pop == reference_pop, || {
            format!("wire PoP counters {pop:?} differ from the engine replay {reference_pop:?}")
        });
        let degraded = run.outcomes.iter().filter(|o| o.run.degraded).count();
        report.check(degraded == 0, || format!("{degraded} nodes ran degraded"));
        for o in &run.outcomes {
            report.check(o.run.chain_len == SLOTS, || {
                format!(
                    "node {} holds {} blocks after {SLOTS} slots",
                    o.run.node, o.run.chain_len
                )
            });
        }
    }
    if passes.len() < 2 {
        return;
    }

    // --- End-to-end metrics over the measured passes. Throughputs and tail
    // latencies are taken per pass and the median pass is reported;
    // medians pool every sample.
    let passes = &passes[1..];
    let slot_ms: Vec<f64> = passes
        .iter()
        .flat_map(|r| r.slot_ms.iter().copied())
        .collect();
    let pop_ms: Vec<f64> = passes
        .iter()
        .flat_map(|r| r.pop_ms.iter().copied())
        .collect();
    let blocks: u64 = passes
        .iter()
        .flat_map(|r| r.outcomes.iter().map(|o| o.run.chain_len))
        .sum();
    let blocks_per_s = median_of_passes(passes, |r| {
        r.outcomes.iter().map(|o| o.run.chain_len).sum::<u64>() as f64 / r.loop_s
    });
    let slot_p50 = median(&slot_ms).unwrap_or(0.0);
    let verify_p50 = quantile(&pop_ms, 0.5).unwrap_or(0.0);
    report.set("blocks_per_s", blocks_per_s);
    report.set("slot_ms_p50", slot_p50);
    report.set("pop.verify_ms_p50", verify_p50);
    report.set(
        "pop.verify_ms_p99",
        median_of_passes(passes, |r| {
            tail_quantile(&r.pop_ms, 0.99).unwrap_or(f64::NAN)
        }),
    );
    report.set(
        "pop_success_ratio",
        reference_pop.1 as f64 / reference_pop.0.max(1) as f64,
    );
    // The paper's logical per-node costs, read from the replay the gates
    // proved identical to the wire run.
    report.set(
        "comm_mb_per_node",
        protocol_tx_bits(&reference) as f64 / 1e6 / NODES as f64,
    );
    report.set("storage_mb_per_node", reference.mean_storage_mb());
    report.set("setup_s", median(&setup_s).unwrap_or(0.0));

    if ctx.trace {
        per_layer(ctx, &reference, passes, blocks, port_repicks, report);
        report.set("run.slot_samples", slot_ms.len() as f64);
        report.set("run.verify_samples", pop_ms.len() as f64);
        report.set("traced.blocks_per_s", blocks_per_s);
        report.set("traced.slot_ms_p50", slot_p50);
    }
    report.set("peak_rss_mb", peak_rss_mib());
}

fn per_layer(
    ctx: &Ctx,
    reference: &TldagNetwork,
    passes: &[ClusterRun],
    blocks: u64,
    port_repicks: u64,
    report: &mut Report,
) {
    let seeds = Seeds::from_seed(ctx.seed);
    let started = Instant::now();
    std::hint::black_box(deployment_topology(
        deployment_seed(ctx.seed),
        NODES,
        SIDE_M,
    ));
    report.set("sim.topology_ms", started.elapsed().as_secs_f64() * 1e3);

    // Crypto and codec: the run's own blocks (the replay's chains, which
    // the gates proved identical to the wire's).
    let sample = sampled_blocks(reference, seeds.sample, TRACE_SAMPLE);
    layers::crypto_replay(reference.config(), &sample, report);
    layers::codec_timing(&sample, DEFAULT_MTU, report);
    layers::zero(report, "engine.");
    layers::zero(report, "storage.");

    // Transport counters over every node of every pass.
    let mut stats = NetStats::default();
    for o in passes.iter().flat_map(|r| r.outcomes.iter()) {
        let s = &o.stats;
        stats.bytes_sent += s.bytes_sent;
        stats.datagrams_sent += s.datagrams_sent;
        stats.datagrams_received += s.datagrams_received;
        stats.request_retries += s.request_retries;
        stats.replies_unmatched += s.replies_unmatched;
        stats.recv_wakeups += s.recv_wakeups;
        stats.idle_wakeups += s.idle_wakeups;
        stats.send_batches += s.send_batches;
    }
    let per_pass = passes.len() as f64;
    let b = blocks.max(1) as f64;
    report.set("net.bytes_per_block", stats.bytes_sent as f64 / b);
    report.set("net.datagrams_per_block", stats.datagrams_sent as f64 / b);
    report.set(
        "net.request_retries",
        stats.request_retries as f64 / per_pass,
    );
    report.set(
        "net.replies_unmatched",
        stats.replies_unmatched as f64 / per_pass,
    );
    report.set(
        "net.recv_wakeups_per_datagram",
        stats.recv_wakeups as f64 / stats.datagrams_received.max(1) as f64,
    );
    report.set("net.idle_wakeups", stats.idle_wakeups as f64 / per_pass);
    report.set(
        "net.send_batch_fill",
        stats.datagrams_sent as f64 / stats.send_batches.max(1) as f64,
    );
    report.set("net.port_repicks", port_repicks as f64);

    // Slot phases and PoP run time: exact sums over counts.
    let telemetry = passes.iter().flat_map(|r| r.telemetry.iter());
    let (mut phase, mut pop, mut attempts) = ([(0u64, 0u64); 3], (0u64, 0u64), 0u64);
    let mut pop_metrics = tldag_core::PopMetrics::default();
    for t in telemetry.clone() {
        for (k, p) in [Phase::Generate, Phase::Exchange, Phase::Verify]
            .into_iter()
            .enumerate()
        {
            let snap = t.phases.phase(p).snapshot();
            phase[k].0 += snap.sum_micros;
            phase[k].1 += snap.count;
        }
        let snap = t.pop_rtt.snapshot();
        pop.0 += snap.sum_micros;
        pop.1 += snap.count;
        pop_metrics.merge(&t.pop());
        attempts += t.pop_attempts.load(std::sync::atomic::Ordering::Relaxed);
    }
    for (k, name) in [
        "net.generate_ms_per_slot",
        "net.exchange_ms_per_slot",
        "net.verify_ms_per_slot",
    ]
    .into_iter()
    .enumerate()
    {
        report.set(name, mean_of(phase[k].0 as f64, phase[k].1) / 1e3);
    }
    report.set("net.pop_rtt_ms_mean", mean_of(pop.0 as f64, pop.1) / 1e3);

    // PoP protocol work per in-loop verification.
    report.set(
        "pop.verifies_per_s",
        median_of_passes(passes, |r| {
            r.pop_ms.len() as f64 / (r.pop_ms.iter().sum::<f64>() / 1e3)
        }),
    );
    let per = |v: u64| mean_of(v as f64, attempts);
    report.set("pop.messages_per_verify", per(pop_metrics.total_messages()));
    report.set(
        "pop.kbits_per_verify",
        per(pop_metrics.total_bits().bits()) / 1e3,
    );
    report.set("pop.req_child_per_verify", per(pop_metrics.req_child_sent));
    report.set(
        "pop.tps_extensions_per_verify",
        per(pop_metrics.tps_extensions),
    );
    report.set("pop.rollbacks_per_verify", per(pop_metrics.rollbacks));
    report.set("pop.timeouts_per_verify", per(pop_metrics.timeouts));
    report.set("pop.offenses_per_verify", per(pop_metrics.offenses));
    // The gates hold every in-loop PoP to the replay's outcome; on this
    // honest cluster none fails, so there is no failed-run latency.
    report.set("pop.failed_verify_ms_mean", 0.0);

    // Generate → committed-everywhere, from the lifecycle spans.
    let mut lifecycle_ms = Vec::new();
    for run in passes {
        let spans: Vec<SpanEvent> = run
            .telemetry
            .iter()
            .flat_map(|t| t.spans.snapshot())
            .collect();
        for timeline in build_timelines(&spans) {
            if let (Some(generated), Some(committed)) = (
                timeline.generated_at(),
                timeline.committed_everywhere(NODES),
            ) {
                lifecycle_ms.push(committed.saturating_sub(generated) as f64 / 1e3);
            }
        }
    }
    report.set(
        "net.lifecycle_ms_p50",
        quantile(&lifecycle_ms, 0.5).unwrap_or(f64::NAN),
    );
    report.set(
        "net.lifecycle_ms_p99",
        tail_quantile(&lifecycle_ms, 0.99).unwrap_or(f64::NAN),
    );
}
