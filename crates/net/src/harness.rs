//! The multi-process deployment harness behind `tldag cluster`.
//!
//! Spawns `N` real node processes (`tldag node ...`), each with its own UDP
//! socket on localhost, acts as the report controller, and — once every
//! node reported — replays the identical experiment on the in-memory
//! [`TldagNetwork`] engine and compares `network_digest`s. Digest parity
//! proves the wire path (envelope codec, fragmentation, gossip barrier,
//! pull-based loss recovery) reproduces the simulator's protocol execution
//! byte-for-byte on a shared seed.
//!
//! With a churn schedule (`--churn join:4@3,leave:1@6`) the harness also
//! spawns the late joiners — provisioned with nothing but a bootstrap
//! address, so the join handshake and membership gossip genuinely carry
//! the roster — and replays the same `node_joins` / `node_leaves`
//! schedule on the reference engine, asserting parity *through* the
//! membership changes.
//!
//! Orphan safety: every spawned child carries a watchdog deadline (it
//! exits on its own once the harness must have given up on it), children
//! are killed explicitly on every failure path, and the child guard kills
//! whatever is left on drop — a failed run can never strand UDP listeners
//! that would wedge a rerun on the same ports.

use crate::control::{Control, RunReport};
use crate::endpoint::{Endpoint, EndpointConfig, Inbound};
use crate::forensics::{diagnose, timelines_for_slot, DivergenceReport};
use crate::membership::{format_churn_spec, join_site, validate_churn, ChurnEvent, Roster};
use crate::metrics::NetStats;
use crate::peer::format_peer_list;
use crate::runtime::{
    deployment_protocol_config, deployment_range_m, deployment_topology, network_digest_of,
};
use crate::telemetry::{scrape_metrics, StatusRow};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, UdpSocket};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tldag_core::attack::Behavior;
use tldag_core::network::TldagNetwork;
use tldag_core::workload::VerificationWorkload;
use tldag_crypto::Digest;
use tldag_obs::http_get;
use tldag_sim::engine::GenerationSchedule;
use tldag_sim::NodeId;

/// One scheduled wire adversary: `node` switches from honest operation to
/// `behavior` at the start of `slot` (and stays adversarial for the rest
/// of the run).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdversaryPlacement {
    /// The founder that turns adversarial.
    pub node: NodeId,
    /// What it does once active.
    pub behavior: Behavior,
    /// The activation slot (`0` = adversarial from the first slot).
    pub slot: u64,
}

/// Parses a `tldag cluster --adversary` schedule — comma-separated
/// `kind:count[@slot]` groups, e.g. `selfish:2,equivocate:1@4` — and
/// resolves it to concrete [`AdversaryPlacement`]s.
///
/// Placement is deterministic so the wire run and the engine reference
/// agree without exchanging anything: adversaries occupy the *highest*
/// founder ids, assigned in spec order, and node 0 (the default bootstrap
/// for late joiners) is never scheduled.
///
/// # Errors
///
/// Unknown kinds (including the parameterised engine-only `sybil` /
/// `flooder`), `honest`, zero counts, malformed counts/slots, and
/// schedules that need more than `founders - 1` adversaries.
pub fn parse_adversary_spec(
    spec: &str,
    founders: usize,
) -> Result<Vec<AdversaryPlacement>, String> {
    let spec = spec.trim();
    if spec.is_empty() {
        return Ok(Vec::new());
    }
    let mut next = founders;
    let mut placements = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        let (head, slot) = match part.split_once('@') {
            Some((head, raw)) => (
                head,
                raw.trim()
                    .parse::<u64>()
                    .map_err(|_| format!("invalid adversary activation slot in `{part}`"))?,
            ),
            None => (part, 0),
        };
        let (kind, count) = match head.split_once(':') {
            Some((kind, raw)) => (
                kind.trim(),
                raw.trim()
                    .parse::<usize>()
                    .map_err(|_| format!("invalid adversary count in `{part}`"))?,
            ),
            None => (head.trim(), 1),
        };
        let behavior = Behavior::parse_kind(kind)
            .ok_or_else(|| format!("unknown adversary kind `{kind}` in `{part}`"))?;
        if behavior == Behavior::Honest {
            return Err("`honest` is not an adversary kind".into());
        }
        if count == 0 {
            return Err(format!("adversary count must be positive in `{part}`"));
        }
        for _ in 0..count {
            if next <= 1 {
                return Err(format!(
                    "adversary schedule `{spec}` needs more nodes than the {founders} \
founders allow (node 0 is never an adversary)"
                ));
            }
            next -= 1;
            placements.push(AdversaryPlacement {
                node: NodeId(next as u32),
                behavior,
                slot,
            });
        }
    }
    Ok(placements)
}

/// Renders placements for logs: `n7 selfish@0, n6 equivocate@4`.
pub fn format_adversary_schedule(placements: &[AdversaryPlacement]) -> String {
    placements
        .iter()
        .map(|p| format!("n{} {}@{}", p.node.0, p.behavior, p.slot))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Configuration of one cluster run.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// The `tldag` binary to spawn node processes from.
    pub exe: PathBuf,
    /// Number of founding nodes (= processes at start).
    pub nodes: usize,
    /// Slots each founder executes.
    pub slots: u64,
    /// Shared experiment seed.
    pub seed: u64,
    /// Deployment area side in meters.
    pub side_m: f64,
    /// Consensus parameter γ.
    pub gamma: usize,
    /// Whether nodes run the PoP verification workload over the wire.
    pub pop: bool,
    /// Epoch window `W` passed to every node (`1` = slot lockstep;
    /// `W ≥ 2` enables the pipelined runtime, PoP mode only).
    pub window: u64,
    /// Socket batch size passed to every node (datagrams per
    /// `sendmmsg`/`recvmmsg` wakeup).
    pub batch: Option<usize>,
    /// Per-datagram drop probability injected at every node's transport
    /// (deterministic per node seed); `0.0` means a clean transport.
    pub drop: f64,
    /// When set, node `i` stores its chain on disk under `root/node-i`.
    pub storage_root: Option<PathBuf>,
    /// First UDP port; node `i` listens on `base_port + i`. When `None`,
    /// free ports are discovered by probing.
    pub base_port: Option<u16>,
    /// How long the controller waits for all reports.
    pub report_timeout: Duration,
    /// Scheduled membership changes: late joins (spawned as extra
    /// processes bootstrapped via the join handshake) and graceful leaves.
    pub churn: Vec<ChurnEvent>,
    /// Scheduled wire adversaries (see [`parse_adversary_spec`]). Each
    /// placement is passed to its node process as `--behavior` and applied
    /// to the reference engine at the same slot boundary, so the
    /// honest-subset parity verdict compares like with like.
    pub adversaries: Vec<AdversaryPlacement>,
    /// When set, every node evicts a barrier-blocking peer that has gone
    /// silent for this long (`tldag node --evict-after`). Required for
    /// runs that must *exclude* a silent adversary instead of waiting out
    /// every barrier on it.
    pub evict_after: Option<Duration>,
    /// When true, every node serves `GET /metrics` + `GET /journal` on a
    /// discovered localhost TCP port, and the harness records the
    /// endpoints in [`ClusterOutcome::metrics_addrs`].
    pub metrics: bool,
    /// With [`ClusterConfig::metrics`] set, scrape every node this often
    /// while waiting for reports and keep the aggregated
    /// [`StatusRow`] snapshots as a mid-run time series
    /// ([`ClusterOutcome::status_series`]). `None` disables sampling.
    pub sample_every: Option<Duration>,
    /// When true, every node records causal block-lifecycle spans
    /// (`--trace`); combined with [`ClusterConfig::metrics`] the harness
    /// scrapes each node's `/trace` endpoint after the reports arrive and
    /// keeps the snapshots ([`ClusterOutcome::trace_snapshots`]). Tracing
    /// never changes protocol byte content.
    pub trace: bool,
}

impl ClusterConfig {
    /// A cluster of `nodes` × `slots` with deployment defaults.
    pub fn new(exe: PathBuf, nodes: usize, slots: u64, seed: u64) -> Self {
        ClusterConfig {
            exe,
            nodes,
            slots,
            seed,
            side_m: 300.0,
            gamma: 3,
            pop: false,
            window: 1,
            batch: None,
            drop: 0.0,
            storage_root: None,
            base_port: None,
            report_timeout: Duration::from_secs(60),
            churn: Vec::new(),
            adversaries: Vec::new(),
            evict_after: None,
            metrics: false,
            sample_every: None,
            trace: false,
        }
    }

    /// Total processes the run spawns: founders plus scheduled joiners.
    pub fn total_processes(&self) -> usize {
        self.nodes
            + self
                .churn
                .iter()
                .filter(|e| matches!(e, ChurnEvent::Join { .. }))
                .count()
    }

    /// Node ids with no scheduled adversary placement, in id order — the
    /// subset the honest-parity verdict is computed over.
    pub fn honest_ids(&self) -> Vec<NodeId> {
        (0..self.total_processes() as u32)
            .map(NodeId)
            .filter(|id| !self.adversaries.iter().any(|p| p.node == *id))
            .collect()
    }
}

/// The outcome of a cluster run, including the parity verdict.
#[derive(Clone, Debug)]
pub struct ClusterOutcome {
    /// Per-node end-of-run reports, in node order (founders then joiners).
    pub reports: Vec<RunReport>,
    /// Network digest assembled from the wire nodes' chain digests.
    pub wire_digest: Digest,
    /// Network digest of the in-memory reference run on the same seed and
    /// membership schedule.
    pub reference_digest: Digest,
    /// Per-node chain digests of the reference run, for mismatch diagnosis.
    pub reference_chains: Vec<Digest>,
    /// The adversary placements the run was configured with (empty for an
    /// all-honest run).
    pub adversaries: Vec<AdversaryPlacement>,
    /// Network digest over only the honest nodes' wire chains — the
    /// verdict subset when adversaries are scheduled (a flapping adversary
    /// legitimately forks its *own* chain from the reference by going
    /// dark, so full parity is not the right bar).
    pub honest_wire_digest: Digest,
    /// The same honest-subset digest computed from the reference engine
    /// with the identical behavior placements applied.
    pub honest_reference_digest: Digest,
    /// PoP (attempts, successes) summed over the wire nodes.
    pub wire_pop: (u64, u64),
    /// PoP (attempts, successes) of the reference engine.
    pub reference_pop: (u64, u64),
    /// Transport counters merged across every node's report.
    pub net: NetStats,
    /// The `/metrics` endpoints the nodes served, in node order (empty
    /// unless [`ClusterConfig::metrics`] was set).
    pub metrics_addrs: Vec<SocketAddr>,
    /// Mid-run scrape snapshots (one `Vec<StatusRow>` per sample, a row
    /// per node that answered), oldest first. Populated only with
    /// [`ClusterConfig::metrics`] + [`ClusterConfig::sample_every`].
    pub status_series: Vec<Vec<StatusRow>>,
    /// One `/trace` JSON snapshot per answering node, taken after every
    /// report arrived but before the cluster was released. Populated only
    /// with [`ClusterConfig::trace`] + [`ClusterConfig::metrics`].
    pub trace_snapshots: Vec<String>,
    /// The slot-by-slot divergence diagnosis, present only when digest
    /// parity failed and the harness could pull per-slot evidence from
    /// the still-live nodes.
    pub forensics: Option<DivergenceReport>,
}

impl ClusterOutcome {
    /// Whether the wire cluster reproduced the reference digest exactly.
    pub fn parity(&self) -> bool {
        self.wire_digest == self.reference_digest
    }

    /// Whether the honest subset reproduced the reference: the verdict for
    /// adversarial runs. Identical to [`Self::parity`] when no adversaries
    /// were scheduled.
    pub fn honest_parity(&self) -> bool {
        self.honest_wire_digest == self.honest_reference_digest
    }

    /// Whether any node proceeded past a timed-out barrier.
    pub fn degraded(&self) -> bool {
        self.reports.iter().any(|r| r.degraded)
    }
}

/// Kills every child on drop, so no path out of the harness leaks
/// processes.
struct ChildGuard {
    children: Vec<(NodeId, Child)>,
}

impl ChildGuard {
    /// Reaps children that exited on their own; returns the failures.
    fn harvest_failures(&mut self) -> Vec<String> {
        let mut failures = Vec::new();
        for (id, child) in &mut self.children {
            if let Ok(Some(status)) = child.try_wait() {
                if !status.success() {
                    failures.push(format!("node {} exited early: {status}", id.0));
                }
            }
        }
        failures
    }

    /// Kills and reaps every child immediately. Called explicitly on every
    /// failure path (and again from `Drop`, idempotently) so a failed run
    /// releases its UDP ports before the error is even reported.
    fn kill_all(&mut self) {
        for (_, child) in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Waits for clean exits up to `deadline`, then kills stragglers.
    fn shutdown(&mut self, deadline: Instant) {
        loop {
            let all_done = self
                .children
                .iter_mut()
                .all(|(_, c)| matches!(c.try_wait(), Ok(Some(_))));
            if all_done || Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        self.kill_all();
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        self.kill_all();
    }
}

/// Finds `n` bindable localhost TCP ports (for the metrics listeners).
///
/// Same release-then-rebind race as [`loopback_addrs`]; the harness's
/// single retry on an early child exit absorbs a stolen port.
fn discover_tcp_ports(n: usize) -> Result<Vec<u16>, String> {
    let mut sockets = Vec::with_capacity(n);
    let mut ports = Vec::with_capacity(n);
    for _ in 0..n {
        let socket = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| format!("cannot discover a free metrics port: {e}"))?;
        ports.push(
            socket
                .local_addr()
                .map_err(|e| format!("cannot read discovered metrics port: {e}"))?
                .port(),
        );
        sockets.push(socket);
    }
    Ok(ports)
}

/// Finds `n` distinct bindable loopback UDP addresses, one per node of an
/// in-process or multi-process cluster.
///
/// Each probe socket is held until every address is read, so no two
/// probes collide; all are released on return, and another process can
/// take a port before its node binds it (the caller's bind then fails).
///
/// # Errors
///
/// A probe socket that cannot be bound or report its address.
pub fn loopback_addrs(n: usize) -> Result<Vec<SocketAddr>, String> {
    let probes = (0..n)
        .map(|_| UdpSocket::bind("127.0.0.1:0"))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("cannot discover a free port: {e}"))?;
    probes
        .iter()
        .map(UdpSocket::local_addr)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("cannot read discovered port: {e}"))
}

/// Replays a membership schedule on a reference engine and runs it for
/// `slots` slots: the **same** leaves-before-joins slot-boundary
/// application and derived `join_site` placement every `NetNode` uses, so
/// any consumer comparing a wire run against the engine (`run_cluster`,
/// `fig12_churn`) computes the identical reference — one definition, no
/// drift.
///
/// `adversaries` are applied with [`TldagNetwork::set_behavior`] at the
/// same slot boundary the wire node activates its `--behavior`, so the
/// engine's malicious-node handling (validator exclusion, silent
/// responders, offense-driven blacklisting) runs against the identical
/// placement.
///
/// # Panics
///
/// Panics when a join's id is not the engine's next topology index (the
/// schedule should have been checked with
/// [`crate::membership::validate_churn`] first).
pub fn replay_reference_schedule(
    reference: &mut TldagNetwork,
    churn: &[ChurnEvent],
    adversaries: &[AdversaryPlacement],
    founders: usize,
    seed: u64,
    slots: u64,
) {
    // The full-schedule roster: what every wire process knows from its
    // `--churn` spec, and therefore what `join_site` must be computed
    // against for the placements to agree.
    let mut roster = Roster::founders(founders);
    for event in churn {
        match *event {
            ChurnEvent::Join { id, slot } => {
                roster.learn_join(id, None, slot);
            }
            ChurnEvent::Leave { id, slot } => {
                roster.learn_leave(id, slot);
            }
        }
    }
    // Canonical application order regardless of how the caller built the
    // schedule: by slot, leaves before joins, ids ascending.
    let mut events = churn.to_vec();
    events.sort_by_key(|e| (e.slot(), matches!(e, ChurnEvent::Join { .. }), e.id().0));
    let mut next_event = 0usize;
    for slot in 0..slots {
        for placement in adversaries.iter().filter(|p| p.slot == slot) {
            reference.set_behavior(placement.node, placement.behavior);
        }
        while next_event < events.len() && events[next_event].slot() == slot {
            match events[next_event] {
                ChurnEvent::Leave { id, .. } => reference.node_leaves(id),
                ChurnEvent::Join { id, slot } => {
                    let site = join_site(
                        reference.topology(),
                        &roster,
                        seed,
                        slot,
                        id,
                        deployment_range_m(),
                    );
                    let assigned = reference.node_joins(site, deployment_range_m(), 1);
                    assert_eq!(assigned, id, "churn join ids are consecutive");
                }
            }
            next_event += 1;
        }
        reference.step();
    }
}

/// Replays the cluster's experiment — including its membership schedule —
/// on the in-memory engine, returning the reference network after
/// `config.slots` slots.
fn reference_run(config: &ClusterConfig) -> TldagNetwork {
    let topology = deployment_topology(config.seed, config.nodes, config.side_m);
    let cfg = deployment_protocol_config(config.gamma);
    let schedule = GenerationSchedule::uniform(topology.len());
    let mut reference = TldagNetwork::new(cfg, topology, schedule, config.seed);
    reference.set_verification_workload(if config.pop {
        VerificationWorkload::RandomPast {
            min_age_slots: config.nodes as u64,
        }
    } else {
        VerificationWorkload::Disabled
    });
    replay_reference_schedule(
        &mut reference,
        &config.churn,
        &config.adversaries,
        config.nodes,
        config.seed,
        config.slots,
    );
    reference
}

/// Runs a full cluster: spawn, collect, compare. Node processes are always
/// reaped, whatever path is taken.
///
/// # Errors
///
/// An invalid churn schedule, spawn failures, early child exits, and
/// report-collection timeouts.
pub fn run_cluster(config: &ClusterConfig) -> Result<ClusterOutcome, String> {
    validate_churn(&config.churn, config.nodes, config.slots)?;
    if config.window > 1 && !config.pop {
        return Err("--window needs --pop".into());
    }
    // A pipelined verify worker holds the blacklist for the whole run, so
    // its generation folds gossip past bans the engine applies: that ban
    // lag breaks honest-subset parity under adversaries (first divergent
    // slot 7 for `--nodes 5 --slots 12 --seed 17 --adversary selfish:1`).
    if config.window > 1 && !config.adversaries.is_empty() {
        return Err(format!(
            "--window {} with --adversary is refused: a pipelined node applies PoP \
bans late (the ban lag), so honest parity would not hold; use --window 1",
            config.window
        ));
    }
    for p in &config.adversaries {
        if p.node.0 as usize >= config.nodes {
            return Err(format!(
                "adversary placement on n{} is outside the {} founders",
                p.node.0, config.nodes
            ));
        }
        if p.slot >= config.slots {
            return Err(format!(
                "adversary n{} activates at slot {} but the run has only {} slots",
                p.node.0, p.slot, config.slots
            ));
        }
    }
    match run_cluster_attempt(config) {
        // Probed ports are necessarily released before the child processes
        // bind them, so a concurrent bind on the same host can steal one in
        // that window and the victim exits at startup. Fresh ports and one
        // retry absorb the race (impossible with an explicit --base-port,
        // where retrying would collide identically).
        Err(e) if config.base_port.is_none() && e.contains("exited early") => {
            run_cluster_attempt(config)
        }
        outcome => outcome,
    }
}

fn run_cluster_attempt(config: &ClusterConfig) -> Result<ClusterOutcome, String> {
    if config.nodes == 0 {
        return Err("--nodes must be positive".into());
    }
    let total = config.total_processes();
    let addrs: Vec<SocketAddr> = match config.base_port {
        Some(base) => {
            let last = u64::from(base) + total as u64 - 1;
            if last > u64::from(u16::MAX) {
                return Err(format!(
                    "--base-port {base} + {total} nodes exceeds port 65535"
                ));
            }
            (0..total as u16)
                .map(|i| SocketAddr::from(([127, 0, 0, 1], base + i)))
                .collect()
        }
        None => loopback_addrs(total)?,
    };
    let metrics_addrs: Vec<SocketAddr> = if config.metrics {
        discover_tcp_ports(total)?
            .iter()
            .map(|p| format!("127.0.0.1:{p}").parse().expect("addr"))
            .collect()
    } else {
        Vec::new()
    };
    // Announced *before* the children spawn (stdout is line-buffered), so
    // an observer tailing the harness can scrape the live endpoints
    // mid-run instead of guessing at ports.
    if !metrics_addrs.is_empty() {
        // Best effort: a closed stdout must not abort the cluster run.
        let _ = writeln!(
            std::io::stdout(),
            "metrics endpoints: {}",
            metrics_addrs
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" ")
        );
    }

    // --- The controller endpoint: collect reports, ack each.
    let controller = Arc::new(
        Endpoint::bind(
            NodeId(u32::MAX),
            "127.0.0.1:0".parse().expect("addr"),
            EndpointConfig::default(),
        )
        .map_err(|e| format!("cannot bind controller socket: {e}"))?,
    );
    let controller_addr = controller
        .local_addr()
        .map_err(|e| format!("controller address: {e}"))?;
    let reports: Arc<Mutex<HashMap<NodeId, RunReport>>> = Arc::new(Mutex::new(HashMap::new()));
    // Per-slot digests answered to the controller's forensic DigestReq
    // pulls, keyed by (node, slot).
    let pulled: Arc<Mutex<BTreeMap<(u32, u64), Digest>>> = Arc::new(Mutex::new(BTreeMap::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let collector = {
        let controller = Arc::clone(&controller);
        let reports = Arc::clone(&reports);
        let pulled = Arc::clone(&pulled);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut handler = |inbound: Inbound| match inbound {
                Inbound::Control {
                    src,
                    msg: Control::Report(report),
                    ..
                } => {
                    reports
                        .lock()
                        .expect("reports poisoned")
                        .insert(report.node, report);
                    let _ = controller.send_control(src, &Control::ReportAck);
                }
                Inbound::Control {
                    from,
                    msg: Control::SlotDigest { slot, digest },
                    ..
                } => {
                    pulled
                        .lock()
                        .expect("pulled digests poisoned")
                        .insert((from.0, slot), digest);
                }
                _ => {}
            };
            controller.run_receiver(&stop, &mut handler);
        })
    };
    // Joins every failure path through one teardown: children killed
    // first (ports released), then the collector thread.
    let fail = |guard: &mut ChildGuard, msg: String| -> String {
        guard.kill_all();
        stop.store(true, Ordering::Relaxed);
        msg
    };

    // Children may not outlive the harness even if it is SIGKILLed (no
    // destructors run then): a generous watchdog inside each node covers
    // the whole report window plus the shutdown grace.
    let child_deadline = config.report_timeout + Duration::from_secs(30);
    let churn_spec = format_churn_spec(&config.churn);

    // --- Spawn one real process per member: founders first, then the
    // scheduled joiners (provisioned with only a bootstrap address — the
    // join handshake transfers the roster).
    let mut guard = ChildGuard {
        children: Vec::with_capacity(total),
    };
    for i in 0..total {
        let id = NodeId(i as u32);
        let is_joiner = i >= config.nodes;
        let mut cmd = Command::new(&config.exe);
        cmd.arg("node")
            .arg("--id")
            .arg(i.to_string())
            .arg("--listen")
            .arg(addrs[i].to_string())
            .arg("--controller")
            .arg(controller_addr.to_string())
            .arg("--seed")
            .arg(config.seed.to_string())
            .arg("--nodes")
            .arg(config.nodes.to_string())
            .arg("--side")
            .arg(config.side_m.to_string())
            .arg("--gamma")
            .arg(config.gamma.to_string())
            .arg("--slots")
            .arg(config.slots.to_string())
            .arg("--deadline")
            .arg(child_deadline.as_secs().to_string())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        if is_joiner {
            // Bootstrap via a founder that is still a member at the join
            // slot (a departed bootstrap keeps serving, but a live one
            // answers faster).
            let join_slot = config
                .churn
                .iter()
                .find_map(|e| match *e {
                    ChurnEvent::Join { id: j, slot } if j == id => Some(slot),
                    _ => None,
                })
                .expect("joiner ids come from the churn spec");
            let bootstrap = (0..config.nodes)
                .find(|&f| {
                    !config.churn.iter().any(|e| {
                        matches!(*e, ChurnEvent::Leave { id: l, slot }
                            if l == NodeId(f as u32) && slot <= join_slot)
                    })
                })
                .unwrap_or(0);
            cmd.arg("--join").arg(addrs[bootstrap].to_string());
        } else {
            let peers: Vec<(NodeId, SocketAddr)> = (0..config.nodes)
                .filter(|&j| j != i)
                .map(|j| (NodeId(j as u32), addrs[j]))
                .collect();
            cmd.arg("--peers").arg(format_peer_list(&peers));
        }
        if !churn_spec.is_empty() {
            cmd.arg("--churn").arg(&churn_spec);
        }
        if let Some(p) = config.adversaries.iter().find(|p| p.node == id) {
            cmd.arg("--behavior")
                .arg(format!("{}@{}", p.behavior, p.slot));
        }
        if let Some(evict_after) = config.evict_after {
            cmd.arg("--evict-after")
                .arg(evict_after.as_secs_f64().to_string());
        }
        if config.pop {
            cmd.arg("--pop");
        }
        if config.window > 1 {
            cmd.arg("--window").arg(config.window.to_string());
        }
        if let Some(batch) = config.batch {
            cmd.arg("--batch").arg(batch.to_string());
        }
        if config.drop > 0.0 {
            cmd.arg("--drop").arg(config.drop.to_string());
        }
        if config.trace {
            cmd.arg("--trace");
        }
        if let Some(addr) = metrics_addrs.get(i) {
            cmd.arg("--metrics-addr").arg(addr.to_string());
        }
        if let Some(root) = &config.storage_root {
            cmd.arg("--storage")
                .arg("disk")
                .arg("--storage-dir")
                .arg(root.join(format!("node-{i}")));
        }
        let child = match cmd.spawn() {
            Ok(child) => child,
            Err(e) => {
                let msg = fail(
                    &mut guard,
                    format!("cannot spawn node {i} from {}: {e}", config.exe.display()),
                );
                let _ = collector.join();
                return Err(msg);
            }
        };
        guard.children.push((id, child));
    }

    // --- Collect all reports (or fail with whatever went wrong), scraping
    // the live metrics endpoints on the way when sampling is on.
    let deadline = Instant::now() + config.report_timeout;
    let mut status_series: Vec<Vec<StatusRow>> = Vec::new();
    let mut next_sample = config.sample_every.map(|every| Instant::now() + every);
    let collected = loop {
        if let (Some(at), Some(every)) = (next_sample, config.sample_every) {
            if Instant::now() >= at {
                next_sample = Some(Instant::now() + every);
                let rows: Vec<StatusRow> = metrics_addrs
                    .iter()
                    .filter_map(|addr| {
                        // A node that already shut down (or is still
                        // binding) simply misses this sample.
                        scrape_metrics(*addr, Duration::from_millis(500))
                            .ok()
                            .map(|samples| StatusRow::from_samples(addr.to_string(), &samples))
                    })
                    .collect();
                if !rows.is_empty() {
                    status_series.push(rows);
                }
            }
        }
        let have = reports.lock().expect("reports poisoned").len();
        if have == total {
            break reports.lock().expect("reports poisoned").clone();
        }
        let failures = guard.harvest_failures();
        if !failures.is_empty() {
            let msg = fail(&mut guard, failures.join("; "));
            let _ = collector.join();
            return Err(msg);
        }
        if Instant::now() > deadline {
            let msg = fail(
                &mut guard,
                format!(
                    "cluster timed out: {have}/{total} reports within {:?}",
                    config.report_timeout
                ),
            );
            let _ = collector.join();
            return Err(msg);
        }
        std::thread::sleep(Duration::from_millis(30));
    };

    // --- The in-memory reference on the same seed and churn schedule,
    // computed *before* the cluster is released: a parity failure then
    // still has every node alive and serving DigestReq pulls.
    let reference = reference_run(config);

    let mut ordered = Vec::with_capacity(total);
    for i in 0..total {
        let id = NodeId(i as u32);
        match collected.get(&id) {
            Some(report) => ordered.push(*report),
            None => {
                let msg = fail(&mut guard, format!("missing report from node {i}"));
                let _ = collector.join();
                return Err(msg);
            }
        }
    }
    let wire_digest =
        network_digest_of(&ordered.iter().map(|r| r.chain_digest).collect::<Vec<_>>());
    let reference_chains: Vec<Digest> = (0..total)
        .map(|i| reference.chain_digest(NodeId(i as u32)))
        .collect();
    let reference_digest = reference.network_digest();
    // The honest-subset digests: the verdict pair for adversarial runs
    // (equal to the full pair when no adversaries are scheduled).
    let honest_ids = config.honest_ids();
    let honest_wire_digest = network_digest_of(
        &honest_ids
            .iter()
            .map(|id| ordered[id.0 as usize].chain_digest)
            .collect::<Vec<_>>(),
    );
    let honest_reference_digest = network_digest_of(
        &honest_ids
            .iter()
            .map(|id| reference_chains[id.0 as usize])
            .collect::<Vec<_>>(),
    );

    // --- Trace snapshots while the nodes still serve `/trace`.
    let trace_snapshots: Vec<String> = if config.trace {
        metrics_addrs
            .iter()
            .filter_map(|addr| http_get(*addr, "/trace", Duration::from_secs(1)).ok())
            .collect()
    } else {
        Vec::new()
    };

    // --- Divergence forensics: on a parity failure, pull the suspect
    // nodes' recent per-slot digests over the live control plane and
    // diff them against the reference before anything shuts down. For
    // adversarial runs the verdict (and hence the trigger) is the honest
    // subset: a flapper's own dark chain is an expected fork, not a bug.
    let verdict_failed = if config.adversaries.is_empty() {
        wire_digest != reference_digest
    } else {
        honest_wire_digest != honest_reference_digest
    };
    let forensics = if verdict_failed {
        Some(run_forensics(
            config,
            &controller,
            &addrs,
            &ordered,
            &reference,
            &reference_chains,
            &pulled,
            &trace_snapshots,
        ))
    } else {
        None
    };

    // --- Release the cluster and reap the processes.
    for addr in &addrs {
        for _ in 0..3 {
            let _ = controller.send_control(*addr, &Control::Shutdown);
        }
    }
    guard.shutdown(Instant::now() + Duration::from_secs(5));
    stop.store(true, Ordering::Relaxed);
    collector.join().map_err(|_| "collector thread panicked")?;

    let wire_pop = ordered.iter().fold((0, 0), |(a, s), r| {
        (a + r.pop_attempts, s + r.pop_successes)
    });
    let mut net = NetStats::default();
    for report in &ordered {
        net.merge(&report.net);
    }
    Ok(ClusterOutcome {
        wire_digest,
        reference_digest,
        reference_chains,
        adversaries: config.adversaries.clone(),
        honest_wire_digest,
        honest_reference_digest,
        wire_pop,
        reference_pop: reference.pop_counters(),
        net,
        metrics_addrs,
        status_series,
        trace_snapshots,
        forensics,
        reports: ordered,
    })
}

/// Pulls per-slot digests from every chain-level suspect over the live
/// [`Control::DigestReq`] path and diffs them against the reference
/// engine's blocks. Best-effort: silence is reported, never fatal.
#[allow(clippy::too_many_arguments)]
fn run_forensics(
    config: &ClusterConfig,
    controller: &Endpoint,
    addrs: &[SocketAddr],
    reports: &[RunReport],
    reference: &TldagNetwork,
    reference_chains: &[Digest],
    pulled: &Arc<Mutex<BTreeMap<(u32, u64), Digest>>>,
    trace_snapshots: &[String],
) -> DivergenceReport {
    let suspects: Vec<u32> = reports
        .iter()
        .enumerate()
        .filter(|(i, r)| r.chain_digest != reference_chains[*i])
        .map(|(i, _)| i as u32)
        .collect();
    // Nodes retain the last 64 slots of own-digest history for pulls.
    let window = config.slots.saturating_sub(64)..config.slots;

    for _round in 0..4 {
        let missing: Vec<(u32, u64)> = {
            let have = pulled.lock().expect("pulled digests poisoned");
            suspects
                .iter()
                .flat_map(|&node| window.clone().map(move |slot| (node, slot)))
                .filter(|key| !have.contains_key(key))
                .collect()
        };
        if missing.is_empty() {
            break;
        }
        for &(node, slot) in &missing {
            if let Some(addr) = addrs.get(node as usize) {
                let _ = controller.send_control(*addr, &Control::DigestReq { slot });
            }
        }
        std::thread::sleep(Duration::from_millis(150));
    }

    // The reference engine's per-slot block digests for the same nodes.
    let mut ref_digests: BTreeMap<(u32, u64), Digest> = BTreeMap::new();
    for &node in &suspects {
        for block in reference.node(NodeId(node)).store().iter() {
            ref_digests.insert((node, block.header.time), block.header.digest());
        }
    }

    let wire = pulled.lock().expect("pulled digests poisoned").clone();
    let mut report = diagnose(&wire, &ref_digests, &suspects, window);
    if let Some(slot) = report.first_divergent_slot {
        report.timelines = trace_snapshots
            .iter()
            .flat_map(|snapshot| timelines_for_slot(snapshot, slot))
            .collect();
    }
    report
}
