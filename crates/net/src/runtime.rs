//! The peer runtime: a full 2LDAG node over a real UDP socket.
//!
//! [`NetNode`] is the deployment form of one `LedgerNode`: an [`Endpoint`]
//! plus an inbound dispatcher thread that serves the Sec. IV-C responder
//! role (`REQ_CHILD` / `FetchBlock`, with the cooperative `Nack` /
//! `PrunedNack` answers), and a slot loop that generates blocks, gossips
//! slot-tagged digests, and optionally runs the PoP verification workload
//! as a validator — over the wire, with timeout/retry loss recovery.
//!
//! ## Digest parity with the in-memory engine
//!
//! The slotted protocol is synchronous: a block generated at slot `t`
//! references the freshest digest each neighbor broadcast at `t-1`. The
//! runtime reproduces that over an asynchronous datagram network with a
//! **digest barrier**: before generating at slot `t`, the node waits until
//! it holds a [`Control::SlotDigest`] for slot `t-1` from every neighbor,
//! pulling stragglers with [`Control::DigestReq`] (loss recovery on the
//! gossip path). All per-node randomness comes from the engine's
//! `(seed, slot, node)` derived streams, so a cluster of `NetNode`s on a
//! shared seed produces **byte-identical chains** to `TldagNetwork` on the
//! same seed — `tldag cluster` asserts exactly that.
//!
//! ## Dynamic membership
//!
//! The runtime executes the engine's `node_joins` / `node_leaves`
//! semantics over the wire (see [`crate::membership`]):
//!
//! * **Join**: a `--join` process handshakes with any bootstrap peer
//!   ([`Control::JoinReq`] → [`Control::JoinAck`] + roster transfer),
//!   announces itself ([`Control::JoinAnnounce`], re-gossiped by every
//!   peer that learns something new), and starts generating at its join
//!   slot with an empty chain — its state catch-up rides the existing
//!   pull-based `DigestReq` recovery path, so a joiner needs no bulk
//!   transfer to participate.
//! * **Leave**: a node whose schedule ends at slot `m` generates its last
//!   block at `m - 1`, broadcasts [`Control::Leave`], and keeps *serving*
//!   until the run winds down (its historical blocks stay fetchable,
//!   matching the engine's "blocks stay referenced" semantics while the
//!   process is alive; once it exits, PoP reports `BlockUnavailable`,
//!   also matching).
//! * **Eviction**: a peer that blocks a barrier and has gone silent
//!   longer than the configured eviction window is treated as having left
//!   at the blocked slot; the eviction is gossiped so the cluster
//!   converges. Evictions always mark the run degraded — the reference
//!   engine did not schedule them.
//!
//! Membership deltas apply at **slot boundaries**, leaves before joins —
//! the canonical order every process (and the reference engine replay in
//! the harness) uses, which keeps the digest barrier correct when the
//! roster changes mid-run.

use crate::control::{Control, RunReport, WireMember};
use crate::endpoint::{Endpoint, EndpointConfig, Inbound};
use crate::envelope::TraceContext;
use crate::membership::{join_site, ChurnEvent, Roster};
use crate::metrics::NetStats;
use crate::peer::PeerTable;
use crate::telemetry::{render_metrics, MetricsView, NodeTelemetry, JOURNAL_CAPACITY};
use crate::transport::{FaultSpec, FaultyTransport, UdpTransport};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::io::Write;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};
use tldag_core::attack::Behavior;
use tldag_core::blacklist::Blacklist;
use tldag_core::block::{BlockBody, BlockId, DataBlock, DigestEntry};
use tldag_core::codec::WireMessage;
use tldag_core::config::ProtocolConfig;
use tldag_core::error::TldagError;
use tldag_core::network::{derived_rng, stream};
use tldag_core::node::{BlockFetch, ChildServe, LedgerNode};
use tldag_core::pop::messages::{ChildReply, FetchResponse, PopTransport};
use tldag_core::pop::validator::{PopReport, Validator};
use tldag_core::store::{BackendFactory, BlockBackend, BlockStore, TrustCache};
use tldag_core::workload::sensor_payload;
use tldag_crypto::sha256::sha256;
use tldag_crypto::{Digest, KeyPair};
use tldag_obs::{
    trace_json, unix_micros, EventKind, HttpServer, Phase, Routes, SpanEvent, SpanKind, SpanStore,
    DEFAULT_SPAN_CAPACITY,
};
use tldag_sim::topology::{Topology, TopologyConfig};
use tldag_sim::{Bits, DetRng, NodeId};
use tldag_storage::{DiskFactory, StorageOptions};

/// Where a deployed node keeps its chain `S_i`.
#[derive(Clone, Debug)]
pub enum StorageMode {
    /// In-memory (volatile) chain.
    Memory,
    /// Durable segmented block log under the given directory.
    Disk(PathBuf),
}

/// Configuration of one deployed node.
#[derive(Clone, Debug)]
pub struct NetNodeConfig {
    /// This node's id within the deployment topology.
    pub id: NodeId,
    /// Address to bind the UDP socket on.
    pub listen: SocketAddr,
    /// Static bootstrap peer list (every founder of the deployment; empty
    /// for a `--join` process, which learns peers from the handshake).
    pub peers: Vec<(NodeId, SocketAddr)>,
    /// Harness controller to report to, if any.
    pub controller: Option<SocketAddr>,
    /// Shared experiment seed; also determines the topology.
    pub seed: u64,
    /// Founding nodes in the deployment (initial topology size).
    pub nodes: usize,
    /// Deployment area side in meters (topology parameter).
    pub side_m: f64,
    /// Consensus path-length parameter γ.
    pub gamma: usize,
    /// Protocol horizon: founders execute slots `0..slots`.
    pub slots: u64,
    /// Whether to run the PoP verification workload as a validator.
    pub pop: bool,
    /// Epoch window `W`: how many slots generation may run ahead of the
    /// roster-wide completion low-watermark. `1` is the classic lockstep
    /// (each slot fully verified everywhere before the next generation);
    /// `W ≥ 2` pipelines generation against a background verify worker
    /// and requires `pop` (without verification the slot loop's only
    /// cross-node dependency is the neighbor digest, which no window can
    /// relax). Every process of a deployment must use the same value.
    pub window: u64,
    /// Chain storage backend.
    pub storage: StorageMode,
    /// Transport tuning.
    pub endpoint: EndpointConfig,
    /// Give-up deadline for the per-slot digest barrier.
    pub slot_timeout: Duration,
    /// Give-up deadline for the startup hello exchange / join handshake.
    pub hello_timeout: Duration,
    /// How long a controller-less node keeps serving after its last slot.
    pub linger: Duration,
    /// Scheduled churn shared by every process of the deployment
    /// (`--churn`); drives deterministic membership for parity runs.
    pub churn: Vec<ChurnEvent>,
    /// Bootstrap peer for a dynamic join: when set, this node is a late
    /// joiner and `peers` may be empty.
    pub join: Option<SocketAddr>,
    /// The joiner's first generation slot. `None` on a `--join` node
    /// means "pick from the handshake" (bootstrap's slot plus a margin).
    pub join_slot: Option<u64>,
    /// Stop generating at this slot (the node's graceful leave). Defaults
    /// to this node's scheduled leave in `churn`, if any.
    pub leave_at: Option<u64>,
    /// Evict a barrier-blocking peer after this much silence. `None`
    /// disables liveness eviction (the default for parity runs).
    pub evict_after: Option<Duration>,
    /// Datagram fault injection on this node's transport (experiments).
    pub fault: Option<FaultSpec>,
    /// Hard wall-clock cap on the whole process: a watchdog thread exits
    /// the process (code 124) once it passes, so a wedged or orphaned
    /// node can never outlive its harness. `None` disables.
    pub deadline: Option<Duration>,
    /// Serve `GET /metrics` (Prometheus text) and `GET /journal` (JSONL)
    /// on this address while the node runs. `None` disables the listener;
    /// telemetry is recorded either way.
    pub metrics_addr: Option<SocketAddr>,
    /// Record block-lifecycle spans (generated → gossiped-out → received →
    /// verified → committed) and stamp digest gossip with a wire-level
    /// trace context, served from `GET /trace`. Tracing never changes the
    /// protocol bytes' *content* — an untraced peer decodes stamped frames
    /// identically — and a tracing-off run puts exactly the v1 bytes on
    /// the wire.
    pub trace: bool,
    /// How this node behaves once `behavior_from` is reached. Anything but
    /// [`Behavior::Honest`] makes the process a wire adversary: silent
    /// kinds stop serving, gossip attackers push conflicting digests, and
    /// the flapper goes dark until evicted, then spams rejoins. The
    /// adversary's *canonical* chain stays protocol-conformant (the engine
    /// generates for malicious nodes too), which is what keeps honest-node
    /// parity with a reference engine run under the same placement.
    pub behavior: Behavior,
    /// First slot the behaviour activates at (honest before that).
    pub behavior_from: u64,
}

impl NetNodeConfig {
    /// A config with deployment-shaped defaults; `peers` and addresses must
    /// still be filled in.
    pub fn new(id: NodeId, listen: SocketAddr, seed: u64, nodes: usize, slots: u64) -> Self {
        NetNodeConfig {
            id,
            listen,
            peers: Vec::new(),
            controller: None,
            seed,
            nodes,
            side_m: 300.0,
            gamma: 3,
            slots,
            pop: false,
            window: 1,
            storage: StorageMode::Memory,
            endpoint: EndpointConfig::default(),
            slot_timeout: Duration::from_secs(10),
            hello_timeout: Duration::from_secs(10),
            linger: Duration::from_millis(1500),
            churn: Vec::new(),
            join: None,
            join_slot: None,
            leave_at: None,
            evict_after: None,
            fault: None,
            deadline: None,
            metrics_addr: None,
            trace: false,
            behavior: Behavior::Honest,
            behavior_from: 0,
        }
    }
}

/// End-of-run summary of one [`NetNode`].
#[derive(Clone, Copy, Debug)]
pub struct NodeOutcome {
    /// The protocol-level summary (also what is reported to the harness).
    pub run: RunReport,
    /// Transport counters.
    pub stats: NetStats,
}

/// The protocol configuration every deployment component derives from the
/// CLI-visible knobs — one definition shared by `tldag run`, `tldag node`,
/// `tldag cluster`, and the in-memory reference engine, so parity checks
/// compare like with like.
pub fn deployment_protocol_config(gamma: usize) -> ProtocolConfig {
    ProtocolConfig::paper_default()
        .with_body_bits(8 * 1024)
        .with_gamma(gamma)
        .with_difficulty(6)
}

/// The deployment topology for `(seed, nodes, side_m)` — identical to the
/// simulator CLI's placement, so node processes and the reference engine
/// agree on `G(V, E)` without exchanging it.
pub fn deployment_topology(seed: u64, nodes: usize, side_m: f64) -> Topology {
    let cfg = TopologyConfig {
        nodes,
        side_m,
        ..TopologyConfig::paper_default()
    };
    Topology::random_connected(&cfg, &mut DetRng::seed_from(seed))
}

/// The deployment radio range in meters (the paper's default) — the
/// parameter joins use to wire the newcomer's radio links.
pub fn deployment_range_m() -> f64 {
    TopologyConfig::paper_default().range_m
}

/// `sha256` over a chain's header digests in sequence order — the same
/// quantity as `TldagNetwork::chain_digest`, computable node-locally.
pub fn chain_digest_of(store: &dyn BlockBackend) -> Digest {
    let mut bytes = Vec::new();
    for block in store.iter() {
        bytes.extend_from_slice(block.header_digest().as_bytes());
    }
    sha256(&bytes)
}

/// Combines per-node chain digests (in node order) into the network digest —
/// the same quantity as `TldagNetwork::network_digest`.
pub fn network_digest_of(chain_digests: &[Digest]) -> Digest {
    let mut bytes = Vec::with_capacity(chain_digests.len() * 32);
    for d in chain_digests {
        bytes.extend_from_slice(d.as_bytes());
    }
    sha256(&bytes)
}

/// First 8 bytes (big-endian) of a header digest — the block identity key
/// every lifecycle span and wire trace context carries.
pub fn digest_prefix(digest: &Digest) -> u64 {
    let mut p = [0u8; 8];
    p.copy_from_slice(&digest.as_bytes()[..8]);
    u64::from_be_bytes(p)
}

/// Records one lifecycle span on this node's trace ring. A no-op (modulo
/// the drop counter) when tracing is off.
fn record_span(shared: &Shared, node: u32, slot: u64, origin: u32, prefix: u64, kind: SpanKind) {
    if shared.telemetry.spans.is_enabled() {
        shared.telemetry.spans.record(SpanEvent {
            slot,
            origin,
            prefix,
            node,
            kind,
            ts_micros: unix_micros(),
        });
    }
}

/// Serves one inbound protocol request against a node's state, returning
/// the reply to send (or `None` when the node stays silent / the message is
/// not a request). Mirrors the simulator's responder semantics exactly:
/// cooperative `Nack` for a definitive miss, `PrunedNack` with the pruned
/// floor for a retention miss, and — unlike the simulator, where silence
/// models absence — an explicit `Nack` for an unavailable block, so honest
/// requesters fail fast instead of burning their retry budget.
pub fn serve_wire_request(node: &LedgerNode, msg: &WireMessage) -> Option<WireMessage> {
    // A plain `ReqChild` is a child request with no horizon.
    let (target, horizon) = match msg {
        WireMessage::ReqChild { target, .. } => (target, u64::MAX),
        WireMessage::ReqChildAt {
            target, horizon, ..
        } => (target, *horizon),
        WireMessage::FetchBlock { id, .. } => {
            return Some(match node.serve_block(*id) {
                BlockFetch::Served(block) => WireMessage::Block(Box::new(block)),
                BlockFetch::Pruned { retained_from } => WireMessage::PrunedNack {
                    from: node.id(),
                    retained_from,
                },
                BlockFetch::Unavailable => WireMessage::Nack { from: node.id() },
            })
        }
        _ => return None,
    };
    node.serve_child_request_within(target, horizon)
        .map(|serve| match serve {
            ChildServe::Found(block_id, header) => WireMessage::RpyChild(ChildReply {
                claimed_owner: node.id(),
                block_id,
                header,
            }),
            ChildServe::NoChild => WireMessage::Nack { from: node.id() },
            ChildServe::Pruned => WireMessage::PrunedNack {
                from: node.id(),
                retained_from: node.pruned_floor(),
            },
        })
}

/// [`PopTransport`] over a real socket: each exchange is an
/// [`Endpoint::request`] with retry/backoff, so datagram loss surfaces to
/// the validator as a timeout only after the retry budget is spent.
pub struct NetPopTransport<'a> {
    /// The validator's endpoint.
    pub endpoint: &'a Endpoint,
    /// Peer addressing.
    pub peers: &'a PeerTable,
    /// Every child request carries this horizon, so a responder that has
    /// run ahead answers from its store *as of that slot*: the slot under
    /// verification, or `u64::MAX` when the chains are static.
    pub horizon: u64,
    /// When set, every block fetched during the PoP walk is stamped with a
    /// [`SpanKind::Verified`] span on this ring (`None` = tracing off).
    pub spans: Option<&'a SpanStore>,
}

impl PopTransport for NetPopTransport<'_> {
    fn fetch_block(
        &mut self,
        validator: NodeId,
        owner: NodeId,
        id: BlockId,
    ) -> Option<FetchResponse> {
        let addr = self.peers.addr(owner)?;
        let msg = WireMessage::FetchBlock {
            from: validator,
            id,
        };
        match self.endpoint.request(addr, &msg)? {
            (_, WireMessage::Block(block)) => {
                if let Some(spans) = self.spans {
                    spans.record(SpanEvent {
                        slot: block.header.time,
                        origin: block.id.owner.0,
                        prefix: digest_prefix(&block.header_digest()),
                        node: self.endpoint.id().0,
                        kind: SpanKind::Verified,
                        ts_micros: unix_micros(),
                    });
                }
                Some(FetchResponse::Block(block))
            }
            (_, WireMessage::PrunedNack { retained_from, .. }) => {
                Some(FetchResponse::Pruned { retained_from })
            }
            // An explicit Nack means "not available"; like silence, but
            // without waiting out the retries.
            _ => None,
        }
    }

    fn request_child(
        &mut self,
        validator: NodeId,
        responder: NodeId,
        target: Digest,
    ) -> Option<tldag_core::pop::messages::ChildResponse> {
        use tldag_core::pop::messages::ChildResponse;
        let addr = self.peers.addr(responder)?;
        let msg = WireMessage::ReqChildAt {
            from: validator,
            target,
            horizon: self.horizon,
        };
        match self.endpoint.request(addr, &msg)? {
            (_, WireMessage::RpyChild(reply)) => Some(ChildResponse::Found(reply)),
            (_, WireMessage::Nack { .. }) => Some(ChildResponse::NoChild),
            (_, WireMessage::PrunedNack { .. }) => Some(ChildResponse::Pruned),
            _ => None,
        }
    }
}

/// Draws `validator`'s verification target at `slot` the way the in-memory
/// engine's `choose_target` does, closed-form from the deployment
/// invariants (uniform schedule): a member that joined at slot `j` holds
/// blocks with sequence `t - j` and generation time `t` for every `t` it
/// generated in, and departed members are skipped entirely.
///
/// The engine's candidate list is every qualifying block in owner order,
/// then sequence order; each live owner contributes a run of
/// `horizon - j + 1` blocks. So one `rng.index` over the total, mapped to
/// `(owner, seq)` by walking the per-owner counts, picks the same block in
/// O(members) instead of materialising all O(members × slots) candidates.
/// Draws exactly one `rng.index` when a candidate exists and leaves `rng`
/// untouched otherwise.
pub fn wire_pop_target(
    roster: &Roster,
    validator: NodeId,
    slot: u64,
    min_age: u64,
    rng: &mut DetRng,
) -> Option<BlockId> {
    let horizon = slot.checked_sub(min_age)?; // latest qualifying generation time
    let counts: Vec<(NodeId, usize)> = (0..roster.total_ids())
        .map(NodeId)
        .filter(|&owner| owner != validator && !roster.departed_by(owner, slot))
        .filter_map(|owner| {
            let join = roster.member(owner)?.join_slot;
            (join <= horizon).then(|| (owner, (horizon - join + 1) as usize))
        })
        .collect();
    let total: usize = counts.iter().map(|&(_, count)| count).sum();
    if total == 0 {
        return None;
    }
    let mut pick = rng.index(total);
    for (owner, count) in counts {
        if pick < count {
            return Some(BlockId::new(owner, pick as u32));
        }
        pick -= count;
    }
    unreachable!("pick < total")
}

/// Shared state between the slot loop and the inbound dispatcher thread.
struct Shared {
    node: RwLock<LedgerNode>,
    /// The deployment graph, mutated at slot boundaries as membership
    /// changes apply (joins add radio links, leaves cut them).
    topology: RwLock<Topology>,
    /// The membership view (who generates at which slot, and where).
    roster: Mutex<Roster>,
    /// Slot-tagged digests heard per peer (pruned as slots complete).
    digests: Mutex<HashMap<NodeId, BTreeMap<u64, Digest>>>,
    /// Own digest per recent slot, serving [`Control::DigestReq`] pulls
    /// (pruned past the deepest lag any live barrier can exhibit).
    own_digests: Mutex<BTreeMap<u64, Digest>>,
    /// Peers that acknowledged our hello (founders) or join announcement
    /// (joiners).
    hello_acks: Mutex<HashSet<NodeId>>,
    /// Highest slot each peer is known to have *completed* (generation and
    /// verification) — from [`Control::SlotDone`] directly, or inferred
    /// from a [`Control::SlotDigest`] (generating slot `t` implies `t-1`
    /// completed everywhere). Drives the PoP-mode phase lockstep.
    done: Mutex<HashMap<NodeId, u64>>,
    /// The join handshake's ack, once received: responder, its current
    /// slot, and how many roster entries to expect.
    join_ack: Mutex<Option<(NodeId, u64, u32)>>,
    /// Ids received via [`Control::RosterEntry`] (handshake completion).
    transfer_seen: Mutex<HashSet<NodeId>>,
    /// The slot the loop currently executes (served to join handshakes).
    current_slot: AtomicU64,
    /// The configured epoch window (1 = lockstep); the dispatcher needs
    /// it to infer completion watermarks from digests.
    window: u64,
    /// Our own verify watermark: every slot below it has been through
    /// the verify step (inline in lockstep and non-PoP runs, on the
    /// verify worker in pipelined mode).
    verified_through: AtomicU64,
    /// The progress signal: bumped whenever shared protocol state changes
    /// (any control message, digest heard, done watermark raised,
    /// membership delta, own slot verified), so the hello barrier and the
    /// pipelined waits park instead of polling.
    progress: Progress,
    /// Start times (the `SlotStart` event) of slots not yet committed,
    /// consumed by the slot's verify step for the slot-latency sample.
    slot_started: Mutex<HashMap<u64, Instant>>,
    /// One half of a pipelined run stopped early: the other must wind
    /// down instead of waiting out its timeouts slot by slot.
    pipeline_abort: AtomicBool,
    /// Controller asked us to exit.
    shutdown: AtomicBool,
    /// Controller acknowledged our report.
    report_acked: AtomicBool,
    /// Histograms + journal, shared with the dispatcher, the metrics
    /// listener, and (via [`NetNode::telemetry`]) in-process harnesses.
    telemetry: Arc<NodeTelemetry>,
    /// Traced block identities heard per slot — `(origin, prefix)` from
    /// inbound digest gossip's trace contexts — consumed at the slot's
    /// local commit point to stamp every known block of the slot with a
    /// [`SpanKind::Committed`] span. Empty when tracing is off.
    trace_keys: Mutex<BTreeMap<u64, Vec<(u32, u64)>>>,
    /// The resolved metrics listener address (meaningful with port 0),
    /// reported back in the [`RunReport`].
    metrics_resolved: Mutex<Option<SocketAddr>>,
    /// Peers flagged as adversarial from wire evidence — conflicting
    /// `SlotDigest` pairs or rejected rejoin flaps — exported as the
    /// `tldag_adversaries_detected` gauge and named in the journal.
    suspects: Mutex<HashSet<NodeId>>,
    /// The PoP blacklist's banned-peer count, sampled after every PoP run
    /// (the blacklist itself travels with whoever holds the trust state)
    /// and exported as the `tldag_blacklist_banned` gauge.
    blacklist_banned: AtomicU64,
    /// Dark-mode flag for the flapping adversary: while set, the
    /// dispatcher neither serves requests nor acks control traffic, so
    /// honest peers see the silence their eviction logic keys on.
    muted: AtomicBool,
}

/// What the slot loop hands back to the epilogue.
#[derive(Default)]
struct SlotLoopOutcome {
    degraded: bool,
    pop_attempts: u64,
    pop_successes: u64,
}

/// The generation step's state across slots.
struct Generation {
    /// Membership events already folded into the local topology; the
    /// founders' initial graph counts as applied.
    applied_joins: HashSet<NodeId>,
    applied_leaves: HashSet<NodeId>,
    /// The configured adversarial behaviour has been switched on.
    behavior_applied: bool,
    /// A barrier, gate or drain timed out.
    degraded: bool,
}

/// A node's PoP trust state (`H_i` and the blacklist), taken out of the
/// ledger node for a validator to hold.
type TrustState = (TrustCache, Blacklist);

/// A deployed 2LDAG node: endpoint + dispatcher + slot loop.
pub struct NetNode {
    config: NetNodeConfig,
    cfg: ProtocolConfig,
    endpoint: Arc<Endpoint>,
    peers: Arc<PeerTable>,
    shared: Arc<Shared>,
}

impl NetNode {
    /// Binds the node's socket and provisions its storage backend.
    ///
    /// # Errors
    ///
    /// Bind failures, storage errors when reopening a disk backend, and
    /// inconsistent membership configuration.
    pub fn new(mut config: NetNodeConfig) -> Result<Self, String> {
        if !(1..=32).contains(&config.window) {
            return Err(format!("--window {} out of range (1..=32)", config.window));
        }
        if config.window > 1 && !config.pop {
            return Err(format!(
                "--window needs --pop: a window of {} pipelines generation against PoP \
verification, and without --pop there is none",
                config.window
            ));
        }
        let cfg = deployment_protocol_config(config.gamma);
        let topology = deployment_topology(config.seed, config.nodes, config.side_m);
        let is_joiner = config.join.is_some();

        // Resolve this node's scheduled join/leave from the churn spec.
        for event in &config.churn {
            match *event {
                ChurnEvent::Join { id, slot } if id == config.id => {
                    config.join_slot.get_or_insert(slot);
                }
                ChurnEvent::Leave { id, slot } if id == config.id => {
                    config.leave_at.get_or_insert(slot);
                }
                _ => {}
            }
        }

        if is_joiner {
            if config.id.index() < config.nodes {
                return Err(format!(
                    "--join is for late joiners: --id {} names a founder of the \
{}-node deployment",
                    config.id, config.nodes
                ));
            }
        } else {
            if config.id.index() >= topology.len() {
                return Err(format!(
                    "--id {} out of range for a {}-node deployment (late joiners \
need --join)",
                    config.id,
                    topology.len()
                ));
            }
            // Fail fast on an incomplete peer list: the derived topology names
            // every founder, and a missing address would otherwise surface as
            // slot-long barrier timeouts instead of a startup error.
            let missing: Vec<u32> = topology
                .node_ids()
                .filter(|&n| n != config.id && config.peers.iter().all(|(p, _)| *p != n))
                .map(|n| n.0)
                .collect();
            if !missing.is_empty() {
                return Err(format!(
                    "--peers is missing addresses for nodes {missing:?} of the \
{}-node deployment",
                    topology.len()
                ));
            }
        }

        let backend: Box<dyn BlockBackend> = match &config.storage {
            StorageMode::Memory => Box::new(BlockStore::new()),
            StorageMode::Disk(dir) => {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("cannot use storage dir {}: {e}", dir.display()))?;
                DiskFactory::new(dir.clone(), StorageOptions::default()).create(config.id)
            }
        };
        // A joiner's neighbor set is wired when its join applies at the
        // join-slot boundary; founders take theirs from the topology.
        let neighbors = if is_joiner {
            Vec::new()
        } else {
            topology.neighbors(config.id).to_vec()
        };
        let node = LedgerNode::with_backend(config.id, neighbors, &cfg, backend);

        let endpoint = match config.fault {
            None => Endpoint::bind(config.id, config.listen, config.endpoint)
                .map_err(|e| format!("cannot bind {}: {e}", config.listen))?,
            Some(spec) => {
                let udp = UdpTransport::bind(config.listen)
                    .map_err(|e| format!("cannot bind {}: {e}", config.listen))?;
                let rng =
                    DetRng::seed_from(config.seed ^ 0x000f_a017 ^ (u64::from(config.id.0) << 40));
                let faults = Arc::new(FaultyTransport::new(udp, spec, rng));
                Endpoint::with_transport(config.id, Box::new(faults), config.endpoint)
            }
        };
        let self_addr = endpoint
            .local_addr()
            .map_err(|e| format!("cannot read bound address: {e}"))?;
        let peers = PeerTable::new(config.peers.iter().copied());

        // The roster starts from the founders plus every scheduled event;
        // dynamic joins/leaves merge in as their announcements arrive.
        let mut roster = Roster::founders(config.nodes);
        for (id, addr) in &config.peers {
            roster.set_addr(*id, *addr);
        }
        for event in &config.churn {
            match *event {
                ChurnEvent::Join { id, slot } => {
                    roster.learn_join(id, None, slot);
                }
                ChurnEvent::Leave { id, slot } => {
                    roster.learn_leave(id, slot);
                }
            }
        }
        if let Some(slot) = config.join_slot {
            roster.learn_join(config.id, Some(self_addr), slot);
        }
        roster.set_addr(config.id, self_addr);

        Ok(NetNode {
            cfg,
            endpoint: Arc::new(endpoint),
            peers: Arc::new(peers),
            shared: Arc::new(Shared {
                node: RwLock::new(node),
                topology: RwLock::new(topology),
                roster: Mutex::new(roster),
                digests: Mutex::new(HashMap::new()),
                own_digests: Mutex::new(BTreeMap::new()),
                hello_acks: Mutex::new(HashSet::new()),
                done: Mutex::new(HashMap::new()),
                join_ack: Mutex::new(None),
                transfer_seen: Mutex::new(HashSet::new()),
                current_slot: AtomicU64::new(0),
                window: config.window,
                verified_through: AtomicU64::new(0),
                progress: Progress::default(),
                slot_started: Mutex::new(HashMap::new()),
                pipeline_abort: AtomicBool::new(false),
                shutdown: AtomicBool::new(false),
                report_acked: AtomicBool::new(false),
                telemetry: Arc::new(NodeTelemetry::with_span_capacity(
                    JOURNAL_CAPACITY,
                    if config.trace {
                        DEFAULT_SPAN_CAPACITY
                    } else {
                        0
                    },
                )),
                trace_keys: Mutex::new(BTreeMap::new()),
                metrics_resolved: Mutex::new(None),
                suspects: Mutex::new(HashSet::new()),
                blacklist_banned: AtomicU64::new(0),
                muted: AtomicBool::new(false),
            }),
            config,
        })
    }

    /// The bound socket address (useful with an ephemeral `--listen` port).
    ///
    /// # Errors
    ///
    /// Propagates the socket's failure to report its address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.endpoint.local_addr()
    }

    /// Shared handle to the node's telemetry (histograms + journal). The
    /// handle stays valid while `run` consumes the node, so in-process
    /// harnesses can read end-of-run latency distributions.
    pub fn telemetry(&self) -> Arc<NodeTelemetry> {
        Arc::clone(&self.shared.telemetry)
    }

    /// Runs the node to completion: bootstrap (hello exchange for
    /// founders, join handshake for `--join` nodes), the slot loop of
    /// generate → gossip → (optional) PoP, then report/linger. Returns
    /// the final summary.
    ///
    /// # Errors
    ///
    /// Startup failures (peers never came up, handshake never answered)
    /// and storage failures; barrier timeouts are *not* errors — they
    /// mark the run `degraded` instead.
    pub fn run(self) -> Result<NodeOutcome, String> {
        // Watchdog: whatever happens to the slot loop or the harness, this
        // process cannot outlive its deadline — no orphaned UDP listeners.
        if let Some(deadline) = self.config.deadline {
            let cutoff = Instant::now() + deadline;
            std::thread::spawn(move || loop {
                if Instant::now() >= cutoff {
                    eprintln!("tldag node: watchdog deadline passed, exiting");
                    std::process::exit(124);
                }
                std::thread::sleep(Duration::from_millis(200));
            });
        }
        let stop = Arc::new(AtomicBool::new(false));
        // Metrics listener: serves scrapes for the node's whole lifetime
        // (slot loop, report, linger), so `tldag status` sees mid-run and
        // end-of-run state alike.
        let metrics_server = match self.config.metrics_addr {
            Some(addr) => {
                let endpoint = Arc::clone(&self.endpoint);
                let shared = Arc::clone(&self.shared);
                let node_id = self.config.id;
                let routes: Arc<Routes> = Arc::new(move |path: &str| match path {
                    "/metrics" => Some((
                        "text/plain; version=0.0.4".to_string(),
                        render_metrics(&collect_view(node_id, &endpoint, &shared)),
                    )),
                    "/journal" => Some((
                        "application/jsonl".to_string(),
                        shared.telemetry.journal.to_jsonl(),
                    )),
                    "/trace" => Some((
                        "application/json".to_string(),
                        trace_json(
                            node_id.0,
                            &shared.telemetry.spans.snapshot(),
                            shared.telemetry.spans.dropped(),
                            shared.telemetry.spans.evicted(),
                        ),
                    )),
                    _ => None,
                });
                let server = HttpServer::spawn(addr, routes)
                    .map_err(|e| format!("cannot bind metrics listener {addr}: {e}"))?;
                // With port 0 the kernel picks the port; the resolved
                // address on stdout (and in the RunReport) is the only way
                // a harness can find the listener.
                let resolved = server.addr();
                // Best effort: a closed stdout must not take the node down.
                let _ = writeln!(std::io::stdout(), "metrics listening on {resolved}");
                *self
                    .shared
                    .metrics_resolved
                    .lock()
                    .expect("metrics addr poisoned") = Some(resolved);
                Some(server)
            }
            None => None,
        };
        let receiver = {
            let endpoint = Arc::clone(&self.endpoint);
            let shared = Arc::clone(&self.shared);
            let peers = Arc::clone(&self.peers);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut handler = |inbound: Inbound| dispatch(&endpoint, &shared, &peers, inbound);
                endpoint.run_receiver(&stop, &mut handler);
            })
        };

        let outcome = self.drive();
        stop.store(true, Ordering::Relaxed);
        receiver.join().map_err(|_| "receiver thread panicked")?;
        if let Some(server) = metrics_server {
            server.shutdown();
        }
        outcome
    }

    /// The slot loop, separated so `run` can always tear the receiver down.
    fn drive(&self) -> Result<NodeOutcome, String> {
        let mut catch_up_ms = 0u64;
        let start_slot = match self.config.join {
            Some(bootstrap) => {
                let started = Instant::now();
                let slot = self.join_handshake(bootstrap)?;
                catch_up_ms = started.elapsed().as_millis() as u64;
                slot
            }
            None => {
                self.hello_barrier()?;
                0
            }
        };
        let end_slot = self
            .config
            .leave_at
            .unwrap_or(self.config.slots)
            .min(self.config.slots);
        if start_slot >= end_slot {
            return Err(format!(
                "nothing to execute: join slot {start_slot} is not before end slot {end_slot}"
            ));
        }

        let loop_started = Instant::now();
        let outcome = self.slot_loop(start_slot, end_slot)?;
        let slot_loop_ms = (loop_started.elapsed().as_millis() as u64).max(1);
        self.wind_down(start_slot, end_slot, catch_up_ms, slot_loop_ms, outcome)
    }

    /// Runs every slot through [`Self::generate_slot`] and
    /// [`Self::verify_slot`], with one of two drivers:
    ///
    /// * `W = 1` (and every non-PoP run): both steps run inline on this
    ///   thread, so each slot is verified everywhere before the next one
    ///   is generated;
    /// * `W > 1`: this thread generates up to `W` slots ahead while a
    ///   scoped worker verifies slots strictly in order, holding the
    ///   node's trust state for the whole run.
    fn slot_loop(&self, start_slot: u64, end_slot: u64) -> Result<SlotLoopOutcome, String> {
        // The paper's workload default.
        let min_age = self.config.nodes as u64;
        // Slots before our first are nobody's to verify: a joiner's drain
        // and window gates measure from its own start.
        self.shared
            .verified_through
            .store(start_slot, Ordering::Relaxed);
        let mut gen = Generation {
            applied_joins: (0..self.config.nodes as u32).map(NodeId).collect(),
            applied_leaves: HashSet::new(),
            behavior_applied: false,
            degraded: false,
        };
        let generate = |gen: &mut Generation,
                        mut inline: Option<&mut SlotLoopOutcome>|
         -> Result<(), String> {
            for slot in start_slot..end_slot {
                let retries_before = self.endpoint.stats().request_retries;
                if !self.generate_slot(slot, start_slot, gen)? {
                    break;
                }
                if let Some(outcome) = inline.as_deref_mut() {
                    self.verify_slot(slot, min_age, outcome, None);
                }
                let retries = self.endpoint.stats().request_retries - retries_before;
                if retries > 0 {
                    self.shared.telemetry.journal.record(
                        slot,
                        EventKind::Retry,
                        format!("{retries} request retransmissions"),
                    );
                }
            }
            Ok(())
        };
        if self.config.window == 1 {
            let mut outcome = SlotLoopOutcome::default();
            generate(&mut gen, Some(&mut outcome))?;
            outcome.degraded |= gen.degraded;
            return Ok(outcome);
        }

        // Taken before the worker starts, so every generate-time fold of
        // the run sees the same (empty) blacklist.
        let trust = self.take_trust();
        let (generated, verified) = std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                let mut trust = trust;
                let mut outcome = SlotLoopOutcome::default();
                for slot in start_slot..end_slot {
                    // Our own slot-`slot` block must exist before the PoP
                    // scans.
                    if self.shared.pipeline_abort.load(Ordering::Relaxed)
                        || !self.wait_own_generated(slot)
                    {
                        outcome.degraded = true;
                        break;
                    }
                    self.verify_slot(slot, min_age, &mut outcome, Some(&mut trust));
                }
                if outcome.degraded {
                    // Free the generation half from its window-gate waits.
                    self.abort_pipeline();
                }
                (outcome, trust)
            });
            let generated = generate(&mut gen, None);
            if generated.is_err() {
                // The worker must not wait out its timeouts slot by slot
                // for blocks that will never be generated.
                self.abort_pipeline();
            }
            (generated, worker.join())
        });
        let (mut outcome, trust) = verified.map_err(|_| "verify worker panicked".to_string())?;
        self.restore_trust(trust);
        generated?;
        outcome.degraded |= gen.degraded;
        Ok(outcome)
    }

    /// One slot's generation step, shared by both drivers: membership
    /// (after draining the pipeline to the boundary), the digest barrier
    /// and window gate, the block with its commit, and the digest gossip.
    /// Returns `Ok(false)` when the node turned flapper and went dark
    /// instead, which ends the driver's loop.
    fn generate_slot(
        &self,
        slot: u64,
        start_slot: u64,
        gen: &mut Generation,
    ) -> Result<bool, String> {
        let id = self.config.id;
        let window = self.config.window;
        let telemetry = &self.shared.telemetry;
        self.shared.current_slot.store(slot, Ordering::Relaxed);
        telemetry
            .journal
            .record(slot, EventKind::SlotStart, format!("slot {slot} begins"));
        self.shared
            .slot_started
            .lock()
            .expect("slot started poisoned")
            .insert(slot, Instant::now());
        if !gen.behavior_applied && self.adversary_active(slot) {
            gen.behavior_applied = true;
            if self.config.behavior == Behavior::Flapper {
                // A verify worker must not wait out timeouts for slots the
                // flapper will never generate.
                self.abort_pipeline();
                self.flap_phase(slot);
                return Ok(false);
            }
            self.activate_behavior(slot);
        }
        self.apply_membership(slot, gen);
        let neighbors: Vec<NodeId> = self
            .shared
            .topology
            .read()
            .expect("topology poisoned")
            .neighbors(id)
            .to_vec();

        // --- Digest barrier: our slot-t block embeds the slot-(t-1) digest
        // of every neighbor that generated then. The barrier waits are the
        // wire's cross-shard exchange.
        let exchange_started = Instant::now();
        if slot > start_slot && !self.digest_barrier(&neighbors, slot - 1) {
            gen.degraded = true;
            self.journal_timeout(slot, format!("digest barrier for slot {}", slot - 1));
        }
        // --- Window gate (PoP mode only): generation runs at most `window`
        // slots ahead of the cluster's completion low-watermark and of our
        // own verification. At W = 1 this is lockstep, the engine's phase
        // order: every peer verified slot t-1 before anyone generates t.
        if self.config.pop && slot >= start_slot + window {
            let floor = slot - window;
            if !self.done_barrier(floor) {
                gen.degraded = true;
                self.journal_timeout(slot, format!("done barrier for slot {floor}"));
            }
            if !self.wait_verified_through(floor + 1) {
                gen.degraded = true;
                self.journal_timeout(slot, format!("own verification of slot {floor}"));
            }
        }
        telemetry
            .phases
            .record(Phase::Exchange, exchange_started.elapsed());

        // --- Apply gossip and generate, mirroring the engine's phases.
        let generate_started = Instant::now();
        let (digest, equivocation) = {
            let mut node = self.shared.node.write().expect("node lock poisoned");
            node.begin_slot();
            if slot > start_slot && !self.folds_before_pop() {
                let mut buffered = self.shared.digests.lock().expect("digests poisoned");
                for &nb in &neighbors {
                    let latest = buffered
                        .get(&nb)
                        .and_then(|per_slot| per_slot.range(..slot).next_back())
                        .map(|(_, &d)| d);
                    if let Some(d) = latest {
                        node.receive_digest(nb, d);
                    }
                }
                // Applied digests are spent. A verify worker still reads
                // digest *presence* up to `window` slots back, so the
                // buffer keeps that many and stays O(lag), not O(slots).
                for per_slot in buffered.values_mut() {
                    *per_slot = per_slot.split_off(&slot.saturating_sub(window));
                }
            }
            let mut rng = derived_rng(self.config.seed, stream::GENERATE, slot, id);
            let payload = sensor_payload(&mut rng, id, slot);
            let (block, digest) = node
                .generate_block(&self.cfg, slot, payload)
                .map_err(|e| format!("generation failed at slot {slot}: {e}"))?;
            telemetry
                .phases
                .record(Phase::Generate, generate_started.elapsed());
            telemetry.journal.record(
                slot,
                EventKind::Generate,
                format!("generated block #{}", node.chain_len() - 1),
            );
            // PerSlot durability: the engine's slot-boundary commit point.
            let sync_started = Instant::now();
            node.store_mut()
                .sync()
                .map_err(|e| format!("sync failed at slot {slot}: {e}"))?;
            let synced = sync_started.elapsed();
            telemetry.fsync.record(synced);
            telemetry.phases.record(Phase::Commit, synced);
            let equivocation = (gen.behavior_applied
                && self.config.behavior == Behavior::Equivocate)
                .then(|| (block.id, block.header.digests.clone()));
            (digest, equivocation)
        };
        let gossip_started = Instant::now();
        {
            let mut own = self
                .shared
                .own_digests
                .lock()
                .expect("own digests poisoned");
            own.insert(slot, digest);
            // Peers can lag at most one window, but a late joiner's
            // catch-up pull may reach further back; 64 slots of 32-byte
            // history is cheap insurance.
            *own = own.split_off(&slot.saturating_sub(64));
        }
        let prefix = digest_prefix(&digest);
        record_span(&self.shared, id.0, slot, id.0, prefix, SpanKind::Generated);
        // A verify worker may be parked on this very digest.
        self.shared.progress.notify();
        // PoP walks the whole DAG, so in PoP mode every generating peer
        // needs the digest; without PoP only neighbors consume it.
        let gossip_targets: Vec<(NodeId, SocketAddr)> = if self.config.pop {
            self.generator_addrs(slot)
        } else {
            neighbors
                .iter()
                .filter_map(|&nb| self.peers.addr(nb).map(|a| (nb, a)))
                .collect()
        };
        let trace_ctx = self.gossip_trace_ctx(slot, prefix);
        for (_, addr) in &gossip_targets {
            let _ = self.endpoint.send_control_traced(
                *addr,
                &Control::SlotDigest { slot, digest },
                trace_ctx,
            );
        }
        if !gossip_targets.is_empty() {
            record_span(
                &self.shared,
                id.0,
                slot,
                id.0,
                prefix,
                SpanKind::GossipedOut,
            );
        }
        if gen.behavior_applied {
            self.adversary_gossip(slot, digest, equivocation, &gossip_targets);
        }
        telemetry
            .phases
            .record(Phase::Gossip, gossip_started.elapsed());
        Ok(true)
    }

    /// One slot's verify step, shared by both drivers. In PoP mode: wait
    /// for every generator's slot digest, fold this slot's gossip (W = 1
    /// only, see [`Self::folds_before_pop`]), run one PoP as validator and
    /// announce [`Control::SlotDone`]. Then the slot's local commit point:
    /// committed spans, the verify watermark, and the slot-latency sample
    /// (from the slot's `SlotStart` event to here). `trust` is the trust
    /// state a verify worker holds for the whole run; `None` takes the
    /// node's own around the PoP.
    fn verify_slot(
        &self,
        slot: u64,
        min_age: u64,
        outcome: &mut SlotLoopOutcome,
        trust: Option<&mut TrustState>,
    ) {
        let id = self.config.id;
        let telemetry = &self.shared.telemetry;
        if self.config.pop {
            let verify_started = Instant::now();
            // The engine's verify phase starts after *all* generation in
            // the slot: wait until every generating peer announced its
            // slot-t digest, proving its chain holds its blocks through t.
            let all_generators: Vec<NodeId> = {
                let roster = self.shared.roster.lock().expect("roster poisoned");
                roster
                    .generators_at(slot)
                    .into_iter()
                    .filter(|&p| p != id)
                    .collect()
            };
            if !self.digest_barrier(&all_generators, slot) {
                outcome.degraded = true;
            }
            if self.folds_before_pop() && !self.fold_slot_digests(slot) {
                outcome.degraded = true;
            }
            // The engine never makes a malicious node a validator (its
            // verify phase filters them out), so an active adversary
            // skips the PoP identically — no target drawn — or the PoP
            // counters would diverge from the reference run.
            let target = if self.adversary_active(slot) {
                None
            } else {
                let roster = self.shared.roster.lock().expect("roster poisoned");
                let mut target_rng = derived_rng(self.config.seed, stream::TARGET, slot, id);
                wire_pop_target(&roster, id, slot, min_age, &mut target_rng)
            };
            if let Some(target) = target {
                outcome.pop_attempts += 1;
                telemetry.pop_attempts.fetch_add(1, Ordering::Relaxed);
                let pop_started = Instant::now();
                let report = self.run_pop(slot, target, trust);
                telemetry.pop_rtt.record(pop_started.elapsed());
                telemetry.merge_pop(&report.metrics);
                if report.is_success() {
                    outcome.pop_successes += 1;
                    telemetry.pop_successes.fetch_add(1, Ordering::Relaxed);
                }
                telemetry.journal.record(
                    slot,
                    EventKind::Pop,
                    format!(
                        "verified {target}: {} ({} distinct, {} msgs)",
                        if report.is_success() { "ok" } else { "failed" },
                        report.distinct_nodes,
                        report.metrics.total_messages(),
                    ),
                );
                if report.metrics.timeouts > 0 {
                    telemetry.journal.record(
                        slot,
                        EventKind::Timeout,
                        format!("{} PoP requests timed out", report.metrics.timeouts),
                    );
                }
                if report.metrics.pruned_misses > 0 {
                    telemetry.journal.record(
                        slot,
                        EventKind::Pruned,
                        format!("{} pruned misses during PoP", report.metrics.pruned_misses),
                    );
                }
            }
            // Announce slot completion whether or not a target qualified:
            // peers gate their window on it.
            for (_, addr) in self.generator_addrs(slot) {
                let _ = self
                    .endpoint
                    .send_control(addr, &Control::SlotDone { slot });
            }
            telemetry
                .phases
                .record(Phase::Verify, verify_started.elapsed());
        }
        self.record_slot_committed(slot);
        self.shared
            .verified_through
            .store(slot + 1, Ordering::Relaxed);
        self.shared.progress.notify();
        let started = self
            .shared
            .slot_started
            .lock()
            .expect("slot started poisoned")
            .remove(&slot);
        if let Some(started) = started {
            telemetry.slot_latency.record(started.elapsed());
        }
    }

    /// Where this run folds neighbor digests into `A_i`: `true` in the
    /// verify step right before the PoP (lockstep PoP runs), `false` in
    /// the generate step (non-PoP and pipelined runs).
    ///
    /// In lockstep the order is load-bearing for parity under
    /// ban-inducing adversaries: the engine's slot is gossip-then-verify,
    /// a folded digest earns blacklist service (parole) credit and the PoP
    /// records offenses, so folding one phase later would land each ban a
    /// slot early against the reference. A pipelined run cannot fold
    /// there — generation is up to `W` slots ahead of verification — and
    /// its worker holds the blacklist, so its folds see an empty one and
    /// bans never gate digests: the ban lag that keeps
    /// [`crate::harness::run_cluster`] from combining `W > 1` with
    /// adversaries.
    fn folds_before_pop(&self) -> bool {
        self.config.pop && self.config.window == 1
    }

    /// The verify-time fold: applies every neighbor's slot-`slot` digest
    /// to `A_i`, re-pulling one whose entry a conflict discard emptied,
    /// then prunes the buffer to this slot. Returns `false` when a
    /// neighbor's digest could not be had.
    fn fold_slot_digests(&self, slot: u64) -> bool {
        let fold_started = Instant::now();
        let neighbors: Vec<NodeId> = self
            .shared
            .topology
            .read()
            .expect("topology poisoned")
            .neighbors(self.config.id)
            .to_vec();
        let mut complete = true;
        let mut folded: Vec<(NodeId, Digest)> = Vec::new();
        for nb in neighbors {
            let expected = {
                let roster = self.shared.roster.lock().expect("roster poisoned");
                roster.generates_at(nb, slot)
            };
            if !expected {
                continue;
            }
            let mut entry = None;
            for attempt in 0..2 {
                entry = self
                    .shared
                    .digests
                    .lock()
                    .expect("digests poisoned")
                    .get(&nb)
                    .and_then(|per_slot| per_slot.get(&slot))
                    .copied();
                if entry.is_some() || attempt > 0 {
                    break;
                }
                // A conflict discard can empty the entry between the
                // barrier and this read; the re-barrier pulls the
                // canonical digest back from the peer directly.
                if !self.digest_barrier(std::slice::from_ref(&nb), slot) {
                    break;
                }
            }
            match entry {
                Some(d) => folded.push((nb, d)),
                None => {
                    complete = false;
                    self.journal_timeout(slot, format!("slot-{slot} digest fold from {nb}"));
                }
            }
        }
        {
            let mut node = self.shared.node.write().expect("node lock poisoned");
            for (nb, d) in folded {
                node.receive_digest(nb, d);
            }
        }
        {
            // Applied entries are spent; this slot's stay buffered one more
            // slot as conflict bait for late fakes, older ones are pruned
            // so the buffer stays O(lag).
            let mut buffered = self.shared.digests.lock().expect("digests poisoned");
            for per_slot in buffered.values_mut() {
                *per_slot = per_slot.split_off(&slot);
            }
        }
        self.shared
            .telemetry
            .phases
            .record(Phase::Gossip, fold_started.elapsed());
        complete
    }

    /// Journals that a wait for `what` timed out at `slot`.
    fn journal_timeout(&self, slot: u64, what: String) {
        self.shared
            .telemetry
            .journal
            .record(slot, EventKind::Timeout, format!("{what} timed out"));
    }

    /// Stops a pipelined run's other half: every wait returns at once.
    fn abort_pipeline(&self) {
        self.shared.pipeline_abort.store(true, Ordering::Relaxed);
        self.shared.progress.notify();
    }

    /// Takes the node's PoP trust state out for a validator to hold.
    fn take_trust(&self) -> TrustState {
        let mut node = self.shared.node.write().expect("node lock poisoned");
        (node.take_trust_cache(), node.take_blacklist(&self.cfg))
    }

    /// Hands trust state taken with [`Self::take_trust`] back to the node.
    fn restore_trust(&self, (trust_cache, blacklist): TrustState) {
        let mut node = self.shared.node.write().expect("node lock poisoned");
        node.restore_trust_cache(trust_cache);
        node.restore_blacklist(blacklist);
    }

    /// Membership events effective at or before `slot` that the local
    /// topology has not folded in yet: `(leaves, joins)`.
    fn pending_membership(&self, slot: u64, gen: &Generation) -> (Vec<NodeId>, Vec<NodeId>) {
        let roster = self.shared.roster.lock().expect("roster poisoned");
        let leaves = roster
            .entries()
            .filter(|(p, m)| {
                m.leave_slot.is_some_and(|l| l <= slot) && !gen.applied_leaves.contains(p)
            })
            .map(|(p, _)| p)
            .collect();
        let joins = roster
            .entries()
            .filter(|(p, m)| m.join_slot <= slot && !gen.applied_joins.contains(p))
            .map(|(p, _)| p)
            .collect();
        (leaves, joins)
    }

    /// One barrier wait quantum, after the caller took the progress
    /// snapshot `seen` and then found its predicate false. The pipeline
    /// parks on the progress signal, so a blocked loop burns no syscall
    /// churn and wakes the moment the dispatcher hears news — including
    /// news that arrived after the predicate check. Lockstep still sleeps
    /// 5 ms quanta, which bound its throughput: parking it the same way
    /// sped it up roughly ninefold but pushed the `wire-lockstep`
    /// benchmark's `peak_rss_mb` past its bound (the benchmark keeps every
    /// pass's samples, and a faster loop fits more passes into a run), so
    /// the switch waits for a benchmark that bounds what a pass retains.
    fn barrier_pause(&self, seen: u64) {
        if self.config.window > 1 {
            self.shared
                .progress
                .wait_since(seen, Duration::from_millis(25));
        } else {
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Waits until our own slot-`slot` block has been generated. Returns
    /// `false` on timeout or pipeline abort.
    fn wait_own_generated(&self, slot: u64) -> bool {
        let deadline = Instant::now() + self.config.slot_timeout;
        loop {
            let seen = self.shared.progress.snapshot();
            if self
                .shared
                .own_digests
                .lock()
                .expect("own digests poisoned")
                .contains_key(&slot)
            {
                return true;
            }
            if self.shared.pipeline_abort.load(Ordering::Relaxed) || Instant::now() > deadline {
                return false;
            }
            self.barrier_pause(seen);
        }
    }

    /// The trace context stamped onto this node's outbound digest gossip
    /// for its slot-`slot` block, or `None` when tracing is off (the frame
    /// then carries exactly the v1 bytes).
    fn gossip_trace_ctx(&self, slot: u64, prefix: u64) -> Option<TraceContext> {
        self.shared
            .telemetry
            .spans
            .is_enabled()
            .then(|| TraceContext {
                origin: self.config.id.0,
                slot,
                prefix,
                ts_micros: unix_micros(),
            })
    }

    /// Stamps a [`SpanKind::Committed`] span on every block of `slot` this
    /// node can identify — its own block plus each traced digest heard —
    /// and prunes the per-slot key buffer up to `slot`. Called at the
    /// slot's local commit point (the verify watermark raise).
    fn record_slot_committed(&self, slot: u64) {
        if !self.shared.telemetry.spans.is_enabled() {
            return;
        }
        let me = self.config.id.0;
        let own = self
            .shared
            .own_digests
            .lock()
            .expect("own digests poisoned")
            .get(&slot)
            .copied();
        if let Some(digest) = own {
            record_span(
                &self.shared,
                me,
                slot,
                me,
                digest_prefix(&digest),
                SpanKind::Committed,
            );
        }
        let heard = {
            let mut keys = self.shared.trace_keys.lock().expect("trace keys poisoned");
            let heard = keys.remove(&slot).unwrap_or_default();
            // Keys below the committed slot can never be consumed anymore.
            *keys = keys.split_off(&slot);
            heard
        };
        for (origin, prefix) in heard {
            record_span(&self.shared, me, slot, origin, prefix, SpanKind::Committed);
        }
    }

    /// Waits until the local verify watermark reaches `target`. Returns
    /// `false` on timeout or pipeline abort.
    fn wait_verified_through(&self, target: u64) -> bool {
        let deadline = Instant::now() + self.config.slot_timeout;
        loop {
            let seen = self.shared.progress.snapshot();
            if self.shared.verified_through.load(Ordering::Relaxed) >= target {
                return true;
            }
            if self.shared.pipeline_abort.load(Ordering::Relaxed) || Instant::now() > deadline {
                return false;
            }
            self.barrier_pause(seen);
        }
    }

    /// Leave announcement + report/linger, shared by both slot loops.
    fn wind_down(
        &self,
        start_slot: u64,
        end_slot: u64,
        catch_up_ms: u64,
        slot_loop_ms: u64,
        outcome: SlotLoopOutcome,
    ) -> Result<NodeOutcome, String> {
        let id = self.config.id;
        let telemetry = &self.shared.telemetry;
        let SlotLoopOutcome {
            mut degraded,
            pop_attempts,
            pop_successes,
        } = outcome;

        // --- Graceful leave: announce the departure so peers drop us from
        // their rosters (and re-gossip the delta for lost copies).
        if end_slot < self.config.slots {
            telemetry.journal.record(
                end_slot,
                EventKind::Membership,
                format!("{id} announcing graceful leave at slot {end_slot}"),
            );
            for _ in 0..3 {
                for (_, addr) in self.generator_addrs(end_slot) {
                    let _ = self.endpoint.send_control(
                        addr,
                        &Control::Leave {
                            node: id,
                            slot: end_slot,
                        },
                    );
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }

        // --- Epilogue: flush, summarise, report, linger.
        // An eviction means we cut a scheduled member loose — the chain
        // necessarily diverged from the reference engine, so the report
        // must say so even though no barrier timed out.
        if self.endpoint.stats().evictions > 0 {
            degraded = true;
        }
        let (chain_len, chain_digest) = {
            let mut node = self.shared.node.write().expect("node lock poisoned");
            node.store_mut()
                .sync()
                .map_err(|e| format!("final sync failed: {e}"))?;
            (node.chain_len() as u64, chain_digest_of(node.store()))
        };
        let run = RunReport {
            node: id,
            slots: end_slot - start_slot,
            chain_len,
            chain_digest,
            pop_attempts,
            pop_successes,
            catch_up_ms,
            slot_loop_ms,
            degraded,
            net: self.endpoint.stats(),
            metrics_addr: *self
                .shared
                .metrics_resolved
                .lock()
                .expect("metrics addr poisoned"),
        };
        self.epilogue(&run);
        Ok(NodeOutcome {
            run,
            stats: self.endpoint.stats(),
        })
    }

    /// All generating members at `slot` (other than us) whose address is
    /// known — the gossip/lockstep fan-out set.
    fn generator_addrs(&self, slot: u64) -> Vec<(NodeId, SocketAddr)> {
        self.shared
            .roster
            .lock()
            .expect("roster poisoned")
            .peer_addrs_at(slot, self.config.id)
    }

    /// Whether this node's configured adversarial behaviour is active at
    /// `slot` (honest nodes are never active).
    fn adversary_active(&self, slot: u64) -> bool {
        self.config.behavior.is_malicious() && slot >= self.config.behavior_from
    }

    /// Applies the configured behaviour to the ledger node (so the serve
    /// paths — silence, corrupt replies, corrupt bodies — take effect) and
    /// journals the turn. Not used for the flapper, which goes dark via
    /// [`Shared::muted`] instead.
    fn activate_behavior(&self, slot: u64) {
        self.shared
            .node
            .write()
            .expect("node lock poisoned")
            .set_behavior(self.config.behavior);
        self.shared.telemetry.journal.record(
            slot,
            EventKind::Penalty,
            format!(
                "{} turns {} at slot {slot}",
                self.config.id, self.config.behavior
            ),
        );
    }

    /// The adversary's extra push-path traffic for `slot`, sent right after
    /// the canonical gossip: a second, genuinely mined block's digest for
    /// the same slot (equivocation), a corrupted digest for the same slot
    /// (digest lie), or a conflicting re-advertisement of the previous
    /// slot's block (parasite side-chain, Cullen et al. arXiv:1904.00996).
    /// The canonical chain is untouched — `DigestReq` pulls still serve it
    /// — which is what lets honest receivers converge after discarding the
    /// conflicting pair.
    fn adversary_gossip(
        &self,
        slot: u64,
        canonical: Digest,
        equivocation: Option<(BlockId, Vec<DigestEntry>)>,
        targets: &[(NodeId, SocketAddr)],
    ) {
        let id = self.config.id;
        let fake: Option<(u64, Digest)> = match self.config.behavior {
            Behavior::Equivocate => equivocation.map(|(block_id, digests)| {
                // A real second block for the slot: same identity and
                // parents, different body, freshly mined and signed — two
                // distinct histories offered to the same neighbors.
                let mut rng = derived_rng(self.config.seed, stream::GENERATE, slot, id);
                let mut payload = sensor_payload(&mut rng, id, slot);
                payload.push(0xEB);
                let alt = DataBlock::create(
                    &self.cfg,
                    block_id,
                    slot,
                    digests,
                    BlockBody::new(payload, self.cfg.body_bits),
                    &KeyPair::from_seed(u64::from(id.0)),
                );
                (slot, alt.header_digest())
            }),
            Behavior::DigestLie => Some((slot, canonical.corrupted())),
            Behavior::Parasite => {
                // Re-advertise a conflicting digest for the previous slot:
                // an abandoned side-chain parent honest nodes must not
                // reference.
                let prev = self
                    .shared
                    .own_digests
                    .lock()
                    .expect("own digests poisoned")
                    .get(&slot.wrapping_sub(1))
                    .copied();
                prev.map(|d| (slot - 1, d.corrupted()))
            }
            _ => None,
        };
        let Some((fake_slot, fake_digest)) = fake else {
            return;
        };
        for (_, addr) in targets {
            let _ = self.endpoint.send_control(
                *addr,
                &Control::SlotDigest {
                    slot: fake_slot,
                    digest: fake_digest,
                },
            );
        }
        self.shared.telemetry.journal.record(
            slot,
            EventKind::Penalty,
            format!(
                "{id} gossiped a conflicting digest for slot {fake_slot} ({})",
                self.config.behavior
            ),
        );
    }

    /// The flapper attack: go dark (stop generating, serving, and acking)
    /// until the cluster evicts us, then spam `JoinAnnounce` rejoin
    /// attempts that honest peers refuse (`flap_rejections`). Bounded by
    /// twice the slot timeout so the process still reports and exits.
    fn flap_phase(&self, from_slot: u64) {
        let id = self.config.id;
        self.shared.muted.store(true, Ordering::Relaxed);
        self.shared.telemetry.journal.record(
            from_slot,
            EventKind::Penalty,
            format!("{id} flapping: going dark at slot {from_slot}"),
        );
        let targets = self.generator_addrs(from_slot);
        let deadline = Instant::now() + self.config.slot_timeout * 2;
        let mut rejoins = 0u32;
        while Instant::now() < deadline && !self.shared.shutdown.load(Ordering::Relaxed) {
            let evicted = {
                let roster = self.shared.roster.lock().expect("roster poisoned");
                roster.member(id).is_some_and(|m| m.leave_slot.is_some())
            };
            if evicted && rejoins < 40 {
                // Rejoin churn: announce a join a little past wherever the
                // cluster is, without ever contributing blocks.
                let slot = self
                    .shared
                    .current_slot
                    .load(Ordering::Relaxed)
                    .max(from_slot)
                    + 2;
                if let Ok(addr) = self.endpoint.local_addr() {
                    let announce = Control::JoinAnnounce { id, slot, addr };
                    for (_, peer) in &targets {
                        let _ = self.endpoint.send_control(*peer, &announce);
                    }
                    rejoins += 1;
                    if rejoins == 1 {
                        self.shared.telemetry.journal.record(
                            slot,
                            EventKind::Penalty,
                            format!("{id} evicted; spamming rejoin announcements"),
                        );
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        // The attack is over; unmute so the epilogue's report/ack exchange
        // with the controller works normally.
        self.shared.muted.store(false, Ordering::Relaxed);
    }

    /// Applies membership events effective at or before `slot` to the
    /// local topology and ledger neighbors: leaves first (cut links, drop
    /// the departed peer's digest from `A_i`), then joins ascending (wire
    /// the newcomer's radio links at its deterministic join site) — the
    /// canonical order shared with the harness's reference replay.
    ///
    /// A verify worker reads the topology and neighbor set, so when an
    /// event is pending the pipeline first drains to the boundary: every
    /// slot before the change is verified under the graph it was
    /// generated under. (In lockstep the drain is already complete.)
    fn apply_membership(&self, slot: u64, gen: &mut Generation) {
        let me = self.config.id;
        let (leaves, joins) = self.pending_membership(slot, gen);
        if leaves.is_empty() && joins.is_empty() {
            return;
        }
        if !self.wait_verified_through(slot) {
            gen.degraded = true;
            self.journal_timeout(
                slot,
                format!("pipeline drain before membership at slot {slot}"),
            );
        }
        let (pending_leaves, pending_joins) = self.pending_membership(slot, gen);
        let mut topology = self.shared.topology.write().expect("topology poisoned");
        let mut node = self.shared.node.write().expect("node lock poisoned");
        for peer in pending_leaves {
            self.shared.telemetry.journal.record(
                slot,
                EventKind::Membership,
                format!("{peer} left; links cut at slot {slot}"),
            );
            gen.applied_leaves.insert(peer);
            if peer.index() < topology.len() {
                topology.isolate_node(peer);
            }
            // Dropping the neighbor also drops its last digest from `A_i`,
            // so our next block no longer references the departed node —
            // the engine's `node_leaves` semantics.
            node.remove_neighbor(peer);
        }
        for peer in pending_joins {
            // Joins must land at consecutive topology indices (the engine's
            // `add_node` contract). A gap means we heard about a later join
            // before an earlier one — leave it pending for a later boundary.
            if peer.index() != topology.len() {
                continue;
            }
            let site = {
                let roster = self.shared.roster.lock().expect("roster poisoned");
                let join_slot = roster.member(peer).map_or(slot, |m| m.join_slot);
                join_site(
                    &topology,
                    &roster,
                    self.config.seed,
                    join_slot,
                    peer,
                    deployment_range_m(),
                )
            };
            let assigned = topology.add_node(site, deployment_range_m());
            debug_assert_eq!(assigned, peer, "join ids are consecutive");
            self.shared.telemetry.journal.record(
                slot,
                EventKind::Membership,
                format!("{peer} joined; links wired at slot {slot}"),
            );
            gen.applied_joins.insert(peer);
            if peer == me {
                for nb in topology.neighbors(me).to_vec() {
                    node.add_neighbor(nb);
                }
            } else if me.index() < topology.len() && topology.are_neighbors(me, peer) {
                // (A joiner applying an *earlier* join is not in the graph
                // itself yet; its own join below wires every link at once.)
                node.add_neighbor(peer);
            }
        }
    }

    /// The join handshake: ask the bootstrap peer for the roster, merge
    /// it, resolve our join slot, and announce ourselves to every member
    /// until acknowledged. Returns our first generation slot.
    fn join_handshake(&self, bootstrap: SocketAddr) -> Result<u64, String> {
        let me = self.config.id;
        let deadline = Instant::now() + self.config.hello_timeout;

        // Phase 1: pull the roster (re-requesting refreshes lost entries).
        let responder_slot = loop {
            let ack = *self.shared.join_ack.lock().expect("join ack poisoned");
            if let Some((_, slot, members)) = ack {
                let seen = self
                    .shared
                    .transfer_seen
                    .lock()
                    .expect("transfer seen poisoned")
                    .len() as u32;
                if seen >= members {
                    break slot;
                }
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "join handshake with {bootstrap} timed out (no roster)"
                ));
            }
            let _ = self
                .endpoint
                .send_control(bootstrap, &Control::JoinReq { from: me });
            std::thread::sleep(Duration::from_millis(60));
        };

        // Phase 2: resolve the join slot. A scheduled joiner brings it in
        // its config; a dynamic one starts a safety margin past the
        // responder's progress so its announcement can outrun the cluster
        // (which may be generating up to `window` slots past the
        // responder's verified slot).
        let join_slot = match self.config.join_slot {
            Some(slot) => slot,
            None => responder_slot + 3 + self.config.window,
        };
        let self_addr = self
            .endpoint
            .local_addr()
            .map_err(|e| format!("cannot read bound address: {e}"))?;
        {
            let mut roster = self.shared.roster.lock().expect("roster poisoned");
            roster.learn_join(me, Some(self_addr), join_slot);
        }

        // Phase 3: announce until every live member acked (or deadline).
        let announce = Control::JoinAnnounce {
            id: me,
            slot: join_slot,
            addr: self_addr,
        };
        loop {
            let targets = self.generator_addrs(join_slot);
            let missing: Vec<(NodeId, SocketAddr)> = {
                let acks = self.shared.hello_acks.lock().expect("hello acks poisoned");
                targets
                    .into_iter()
                    .filter(|(p, _)| !acks.contains(p))
                    .collect()
            };
            if missing.is_empty() {
                return Ok(join_slot);
            }
            if Instant::now() > deadline {
                // Gossip can still converge the roster; the barrier pulls
                // recover the rest. Proceed rather than abort.
                return Ok(join_slot);
            }
            for (_, addr) in &missing {
                let _ = self.endpoint.send_control(*addr, &announce);
            }
            std::thread::sleep(Duration::from_millis(60));
        }
    }

    /// Sends hellos until every founder peer acked (sockets are up) or the
    /// deadline passes. Missing peers are re-sent a hello every 50 ms;
    /// between sends the barrier parks on the progress signal, which the
    /// dispatcher bumps on every control message, so the last `HelloAck`
    /// releases it at once.
    fn hello_barrier(&self) -> Result<(), String> {
        const RESEND: Duration = Duration::from_millis(50);
        let deadline = Instant::now() + self.config.hello_timeout;
        let all: Vec<NodeId> = self.peers.ids();
        let mut next_send = Instant::now();
        loop {
            let seen = self.shared.progress.snapshot();
            let missing: Vec<NodeId> = {
                let acks = self.shared.hello_acks.lock().expect("hello acks poisoned");
                all.iter().filter(|p| !acks.contains(p)).copied().collect()
            };
            if missing.is_empty() {
                return Ok(());
            }
            let now = Instant::now();
            if now > deadline {
                return Err(format!(
                    "peers never came up: {:?}",
                    missing.iter().map(|p| p.0).collect::<Vec<_>>()
                ));
            }
            if now >= next_send {
                for peer in &missing {
                    if let Some(addr) = self.peers.addr(*peer) {
                        let _ = self.endpoint.send_control(
                            addr,
                            &Control::Hello {
                                from: self.config.id,
                            },
                        );
                    }
                }
                next_send = now + RESEND;
            }
            self.shared
                .progress
                .wait_since(seen, next_send.saturating_duration_since(now));
        }
    }

    /// Waits until every node of `from` that generated at `slot` (per the
    /// live roster — eviction shrinks the set mid-wait) announced its
    /// digest for `slot`, pulling stragglers with [`Control::DigestReq`].
    /// Returns `false` on timeout.
    fn digest_barrier(&self, from: &[NodeId], slot: u64) -> bool {
        let deadline = Instant::now() + self.config.slot_timeout;
        let mut next_pull = Instant::now() + Duration::from_millis(120);
        loop {
            let seen = self.shared.progress.snapshot();
            let missing: Vec<NodeId> = {
                let buffered = self.shared.digests.lock().expect("digests poisoned");
                let roster = self.shared.roster.lock().expect("roster poisoned");
                from.iter()
                    .filter(|nb| roster.generates_at(**nb, slot))
                    .filter(|nb| {
                        !buffered
                            .get(nb)
                            .is_some_and(|per_slot| per_slot.contains_key(&slot))
                    })
                    .copied()
                    .collect()
            };
            if missing.is_empty() {
                return true;
            }
            let now = Instant::now();
            if now > deadline || self.shared.pipeline_abort.load(Ordering::Relaxed) {
                return false;
            }
            self.maybe_evict(&missing, slot);
            if now >= next_pull {
                for nb in &missing {
                    if let Some(addr) = self.peers.addr(*nb) {
                        let _ = self
                            .endpoint
                            .send_control(addr, &Control::DigestReq { slot });
                    }
                }
                next_pull = now + Duration::from_millis(120);
            }
            self.barrier_pause(seen);
        }
    }

    /// Waits until every peer that generated `slot` completed it
    /// (generation *and* its PoP). While blocked, re-broadcasts our own
    /// [`Control::SlotDone`] for `slot` (if we completed it) and pulls the
    /// blockers' slot+W digests — a peer's digest for `slot + W` proves it
    /// completed `slot` (the window gate), which is how a late joiner with
    /// no own progress at `slot` catches up without deadlocking. Returns
    /// `false` on timeout.
    fn done_barrier(&self, slot: u64) -> bool {
        let deadline = Instant::now() + self.config.slot_timeout;
        let mut next_push = Instant::now() + Duration::from_millis(120);
        loop {
            let seen = self.shared.progress.snapshot();
            // Read fresh each pass: in pipelined mode the verify worker
            // can complete `slot` mid-wait.
            let executed_slot = self.shared.verified_through.load(Ordering::Relaxed) > slot;
            let blocked: Vec<(NodeId, SocketAddr)> = {
                let done = self.shared.done.lock().expect("done poisoned");
                self.generator_addrs(slot)
                    .into_iter()
                    .filter(|(p, _)| done.get(p).is_none_or(|&s| s < slot))
                    .collect()
            };
            if blocked.is_empty() {
                return true;
            }
            let now = Instant::now();
            if now > deadline || self.shared.pipeline_abort.load(Ordering::Relaxed) {
                return false;
            }
            let ids: Vec<NodeId> = blocked.iter().map(|(p, _)| *p).collect();
            self.maybe_evict(&ids, slot);
            if now >= next_push {
                for (_, addr) in &blocked {
                    if executed_slot {
                        // If our SlotDone was lost, the peers are the ones
                        // blocked — on us — and the mutual re-broadcast
                        // releases everyone.
                        let _ = self
                            .endpoint
                            .send_control(*addr, &Control::SlotDone { slot });
                    }
                    let _ = self.endpoint.send_control(
                        *addr,
                        &Control::DigestReq {
                            slot: slot + self.shared.window,
                        },
                    );
                }
                next_push = now + Duration::from_millis(120);
            }
            self.barrier_pause(seen);
        }
    }

    /// Evicts any of `blocking` that was heard from once but has been
    /// silent beyond the configured window: records the departure at
    /// `slot` in the roster (so barriers stop waiting), forgets the
    /// address, and gossips the eviction so the cluster converges.
    fn maybe_evict(&self, blocking: &[NodeId], slot: u64) {
        let Some(window) = self.config.evict_after else {
            return;
        };
        for &peer in blocking {
            if !self.peers.gone_quiet(peer, window) {
                continue;
            }
            let evicted = self
                .shared
                .roster
                .lock()
                .expect("roster poisoned")
                .evict(peer, slot);
            if !evicted {
                continue;
            }
            self.endpoint.metrics().bump_evictions();
            self.shared.telemetry.journal.record(
                slot,
                EventKind::Membership,
                format!("evicted silent peer {peer} at slot {slot}"),
            );
            self.peers.forget(peer);
            // Tell the evictee too: `generator_addrs` no longer lists it,
            // and when every honest node evicts inside the same quiet
            // window the `news` re-gossip guard fires nowhere, so without
            // a direct send the verdict never reaches the peer it names
            // (a flapper waits on exactly that signal to start rejoining).
            let mut targets = self.generator_addrs(slot);
            let evictee_addr = self
                .shared
                .roster
                .lock()
                .expect("roster poisoned")
                .member(peer)
                .and_then(|m| m.addr);
            if let Some(addr) = evictee_addr {
                targets.push((peer, addr));
            }
            for (_, addr) in targets {
                let _ = self
                    .endpoint
                    .send_control(addr, &Control::Leave { node: peer, slot });
            }
        }
    }

    /// One PoP verification of `target` over the wire, with the engine's
    /// derived randomness for this `(slot, validator)`, always
    /// horizon-capped at `slot`: every child lookup, the validator's own
    /// and the wire's, sees only blocks generated by `slot`. That makes a
    /// pipelined walk identical to a lockstep one while generation keeps
    /// appending, and is a no-op in lockstep, where nobody is past `slot`.
    /// `trust` is the trust state a verify worker holds; `None` takes the
    /// node's own for the duration of the walk.
    fn run_pop(&self, slot: u64, target: BlockId, trust: Option<&mut TrustState>) -> PopReport {
        let Some((trust_cache, blacklist)) = trust else {
            let mut trust = self.take_trust();
            let report = self.run_pop(slot, target, Some(&mut trust));
            self.restore_trust(trust);
            return report;
        };
        // Read locks: the dispatcher keeps serving peers' requests
        // concurrently, so symmetric cross-verification cannot deadlock;
        // the topology is only written at slot boundaries (with the
        // pipeline drained to the boundary first).
        let topology = self.shared.topology.read().expect("topology poisoned");
        let mut pop_rng = derived_rng(self.config.seed, stream::POP, slot, self.config.id);
        let mut transport = NetPopTransport {
            endpoint: &self.endpoint,
            peers: &self.peers,
            horizon: slot,
            spans: self
                .shared
                .telemetry
                .spans
                .is_enabled()
                .then_some(&self.shared.telemetry.spans),
        };
        let store = LiveStore {
            node: &self.shared.node,
        };
        let report = Validator::new(
            &self.cfg,
            &topology,
            self.config.id,
            &store,
            trust_cache,
            blacklist,
            &mut pop_rng,
        )
        .with_horizon(slot)
        .run(target, &mut transport);
        self.shared
            .blacklist_banned
            .store(blacklist.banned_count() as u64, Ordering::Relaxed);
        report
    }

    /// Reports to the controller (until acked) or lingers serving peers,
    /// then honours a shutdown request or the linger deadline.
    fn epilogue(&self, run: &RunReport) {
        match self.config.controller {
            Some(controller) => {
                let deadline = Instant::now() + self.config.slot_timeout;
                while !self.shared.report_acked.load(Ordering::Relaxed) && Instant::now() < deadline
                {
                    let _ = self
                        .endpoint
                        .send_control(controller, &Control::Report(*run));
                    std::thread::sleep(Duration::from_millis(100));
                }
                // Keep serving until the controller releases the cluster (it
                // does so only after *every* node reported) or we time out.
                let release = Instant::now() + self.config.slot_timeout;
                while !self.shared.shutdown.load(Ordering::Relaxed) && Instant::now() < release {
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
            None => {
                // No controller: serve for the linger window so slower peers
                // can still finish their barriers against us.
                let release = Instant::now() + self.config.linger;
                while !self.shared.shutdown.load(Ordering::Relaxed) && Instant::now() < release {
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
    }
}

/// The inbound dispatcher: serves protocol requests against the node state
/// and folds control traffic into the shared runtime state.
fn dispatch(endpoint: &Endpoint, shared: &Shared, peers: &PeerTable, inbound: Inbound) {
    if shared.muted.load(Ordering::Relaxed) {
        // A flapping adversary is dark: it serves nothing and acks nothing,
        // but still folds the state it needs to run the attack — its own
        // eviction (gossiped as a leave) and the controller's release.
        if let Inbound::Control { msg, .. } = inbound {
            match msg {
                Control::Leave { node: leaver, slot } => {
                    shared
                        .roster
                        .lock()
                        .expect("roster poisoned")
                        .learn_leave(leaver, slot);
                }
                Control::Shutdown => shared.shutdown.store(true, Ordering::Relaxed),
                Control::ReportAck => shared.report_acked.store(true, Ordering::Relaxed),
                _ => {}
            }
        }
        return;
    }
    match inbound {
        Inbound::Wire {
            from,
            src,
            seq,
            msg,
            trace: _,
        } => {
            if peers.addr(from).is_some() {
                peers.mark_heard(from);
            }
            let reply = {
                let node = shared.node.read().expect("node lock poisoned");
                serve_wire_request(&node, &msg)
            };
            if let Some(reply) = reply {
                let _ = endpoint.send_reply(src, seq, &reply);
            }
        }
        Inbound::Control {
            from,
            src,
            msg,
            trace,
        } => {
            // Organic address learning: any authenticated control envelope
            // from a roster member we cannot address yet fills the gap (a
            // scheduled joiner whose announcement we missed, say).
            if peers.addr(from).is_none() && from != endpoint.id() {
                let known = {
                    let mut roster = shared.roster.lock().expect("roster poisoned");
                    if roster.member(from).is_some() {
                        roster.set_addr(from, src);
                        true
                    } else {
                        false
                    }
                };
                if known {
                    peers.insert(from, src);
                }
            }
            if peers.addr(from).is_some() {
                peers.mark_heard(from);
            }
            match msg {
                Control::Hello { from: peer } => {
                    let _ = endpoint.send_control(
                        src,
                        &Control::HelloAck {
                            from: endpoint.id(),
                        },
                    );
                    // Symmetric bootstrap: hearing a hello proves the peer is
                    // up just as well as an ack does.
                    shared
                        .hello_acks
                        .lock()
                        .expect("hello acks poisoned")
                        .insert(peer);
                }
                Control::HelloAck { from: peer } => {
                    shared
                        .hello_acks
                        .lock()
                        .expect("hello acks poisoned")
                        .insert(peer);
                }
                Control::SlotDigest { slot, digest } => {
                    // A trace context riding the gossip stitches the remote
                    // block into this node's timeline: materialize the
                    // origin's gossip-out instant (its clock, carried in
                    // the context), record the receive, and remember the
                    // identity for the commit stamp.
                    if let Some(ctx) = trace {
                        if shared.telemetry.spans.is_enabled() {
                            shared.telemetry.spans.record(SpanEvent {
                                slot: ctx.slot,
                                origin: ctx.origin,
                                prefix: ctx.prefix,
                                node: ctx.origin,
                                kind: SpanKind::GossipedOut,
                                ts_micros: ctx.ts_micros,
                            });
                            record_span(
                                shared,
                                endpoint.id().0,
                                ctx.slot,
                                ctx.origin,
                                ctx.prefix,
                                SpanKind::Received,
                            );
                            let mut keys = shared.trace_keys.lock().expect("trace keys poisoned");
                            let entry = keys.entry(ctx.slot).or_default();
                            if !entry.contains(&(ctx.origin, ctx.prefix)) {
                                entry.push((ctx.origin, ctx.prefix));
                            }
                        }
                    }
                    let conflict = {
                        let mut digests = shared.digests.lock().expect("digests poisoned");
                        let per_slot = digests.entry(from).or_default();
                        match per_slot.get(&slot) {
                            // Two distinct digests for one (peer, slot):
                            // equivocation, a digest lie, or a parasite
                            // re-advertisement. We cannot tell which copy
                            // is canonical, so discard the stored one and
                            // re-pull the slot from the peer directly —
                            // `DigestReq` answers come from its canonical
                            // chain, so the barrier re-converges on truth.
                            Some(stored) if *stored != digest => {
                                per_slot.remove(&slot);
                                true
                            }
                            Some(_) => false,
                            None => {
                                per_slot.insert(slot, digest);
                                false
                            }
                        }
                    };
                    if conflict {
                        endpoint.metrics().bump_digest_conflicts();
                        endpoint.metrics().bump_conflict_pulls();
                        let _ = endpoint.send_control(src, &Control::DigestReq { slot });
                        let newly = shared
                            .suspects
                            .lock()
                            .expect("suspects poisoned")
                            .insert(from);
                        shared.telemetry.journal.record(
                            slot,
                            EventKind::Penalty,
                            if newly {
                                format!(
                                    "conflicting digests from {from} at slot {slot}: \
peer flagged as adversarial"
                                )
                            } else {
                                format!("conflicting digests from {from} at slot {slot}")
                            },
                        );
                    }
                    // Generating slot t requires having passed the window
                    // gate for t — completion through t-W — so a digest
                    // doubles as a (possibly lost) SlotDone(t-W). W = 1 is
                    // the classic lockstep inference: the loop stays live
                    // even when the explicit announcement was dropped.
                    if slot >= shared.window {
                        mark_done(shared, from, slot - shared.window);
                    }
                }
                Control::SlotDone { slot } => mark_done(shared, from, slot),
                Control::DigestReq { slot } => {
                    let own = shared.own_digests.lock().expect("own digests poisoned");
                    if let Some(&digest) = own.get(&slot) {
                        // Re-sent digests carry the same trace context as
                        // the original gossip, so a pulled straggler still
                        // stitches into the requester's timeline.
                        let ctx = shared.telemetry.spans.is_enabled().then(|| TraceContext {
                            origin: endpoint.id().0,
                            slot,
                            prefix: digest_prefix(&digest),
                            ts_micros: unix_micros(),
                        });
                        let _ = endpoint.send_control_traced(
                            src,
                            &Control::SlotDigest { slot, digest },
                            ctx,
                        );
                    }
                }
                Control::JoinReq { .. } => {
                    endpoint.metrics().bump_joins_served();
                    let entries: Vec<WireMember> = {
                        let roster = shared.roster.lock().expect("roster poisoned");
                        roster
                            .entries()
                            .map(|(id, m)| WireMember {
                                id,
                                join_slot: m.join_slot,
                                leave_slot: m.leave_slot,
                                evicted: m.evicted,
                                addr: m.addr,
                            })
                            .collect()
                    };
                    let _ = endpoint.send_control(
                        src,
                        &Control::JoinAck {
                            from: endpoint.id(),
                            slot: shared.current_slot.load(Ordering::Relaxed),
                            members: entries.len() as u32,
                        },
                    );
                    for entry in entries {
                        let _ = endpoint.send_control(src, &Control::RosterEntry(entry));
                    }
                }
                Control::JoinAck {
                    from: responder,
                    slot,
                    members,
                } => {
                    let mut ack = shared.join_ack.lock().expect("join ack poisoned");
                    ack.get_or_insert((responder, slot, members));
                }
                Control::RosterEntry(m) => {
                    {
                        let mut roster = shared.roster.lock().expect("roster poisoned");
                        roster.learn_join(m.id, m.addr, m.join_slot);
                        if let Some(leave) = m.leave_slot {
                            if m.evicted {
                                roster.evict(m.id, leave);
                            } else {
                                roster.learn_leave(m.id, leave);
                            }
                        }
                    }
                    if let Some(addr) = m.addr {
                        if m.id != endpoint.id() {
                            peers.insert(m.id, addr);
                        }
                    }
                    shared
                        .transfer_seen
                        .lock()
                        .expect("transfer seen poisoned")
                        .insert(m.id);
                }
                Control::JoinAnnounce { id, slot, addr } => {
                    // A rejoin attempt from a peer that already departed
                    // this run is membership flapping — the attack, not
                    // recovery. Refuse to learn or ack it, so the flapper
                    // never re-enters a barrier set. (An evicted id can
                    // still come back as a fresh process in a later run.)
                    let flapping = {
                        let roster = shared.roster.lock().expect("roster poisoned");
                        roster.member(id).is_some_and(|m| m.leave_slot.is_some())
                    };
                    if flapping {
                        endpoint.metrics().bump_flap_rejections();
                        let newly = shared
                            .suspects
                            .lock()
                            .expect("suspects poisoned")
                            .insert(id);
                        if newly {
                            shared.telemetry.journal.record(
                                slot,
                                EventKind::Penalty,
                                format!(
                                    "rejected rejoin of departed peer {id}: membership flapping"
                                ),
                            );
                        }
                    } else {
                        let news = shared.roster.lock().expect("roster poisoned").learn_join(
                            id,
                            Some(addr),
                            slot,
                        );
                        if id != endpoint.id() {
                            peers.insert(id, addr);
                        }
                        // Always ack: the joiner retries its announcement
                        // until every member confirmed receipt.
                        let _ = endpoint.send_control(
                            src,
                            &Control::HelloAck {
                                from: endpoint.id(),
                            },
                        );
                        if news {
                            endpoint.metrics().bump_membership_gossip();
                            shared.telemetry.journal.record(
                                slot,
                                EventKind::Membership,
                                format!("learned join of {id} at slot {slot}"),
                            );
                            gossip_delta(
                                endpoint,
                                shared,
                                src,
                                &Control::JoinAnnounce { id, slot, addr },
                            );
                        }
                    }
                }
                Control::Leave { node: leaver, slot } => {
                    let news = shared
                        .roster
                        .lock()
                        .expect("roster poisoned")
                        .learn_leave(leaver, slot);
                    // A leave at m implies the leaver completed m-1 — keeps
                    // the lockstep live even when its SlotDone was lost and
                    // the process is already gone.
                    if slot > 0 {
                        mark_done(shared, leaver, slot - 1);
                    }
                    if news {
                        endpoint.metrics().bump_membership_gossip();
                        shared.telemetry.journal.record(
                            slot,
                            EventKind::Membership,
                            format!("learned leave of {leaver} at slot {slot}"),
                        );
                        gossip_delta(
                            endpoint,
                            shared,
                            src,
                            &Control::Leave { node: leaver, slot },
                        );
                    }
                }
                Control::Shutdown => shared.shutdown.store(true, Ordering::Relaxed),
                Control::ReportAck => shared.report_acked.store(true, Ordering::Relaxed),
                Control::Report(_) => {} // only the harness controller consumes these
            }
            // Any control message may have been the news a pipelined wait
            // is parked on.
            shared.progress.notify();
        }
    }
}

/// A version counter plus condvar: the runtime's progress signal.
///
/// A wait takes a [`Progress::snapshot`] *before* checking its predicate
/// and parks with [`Progress::wait_since`]. A notify that lands between
/// the check and the park has already moved the version, so the wait
/// returns at once instead of sleeping out its timeout.
#[derive(Default)]
struct Progress {
    version: Mutex<u64>,
    changed: Condvar,
}

impl Progress {
    /// The current version, to be taken before a wait checks its predicate.
    fn snapshot(&self) -> u64 {
        *self.version.lock().expect("progress poisoned")
    }

    /// Bumps the version and wakes every wait parked on it.
    fn notify(&self) {
        let mut version = self.version.lock().expect("progress poisoned");
        *version = version.wrapping_add(1);
        self.changed.notify_all();
    }

    /// Parks while the version still equals `seen`, for at most `timeout`.
    fn wait_since(&self, seen: u64, timeout: Duration) {
        let version = self.version.lock().expect("progress poisoned");
        let _ = self
            .changed
            .wait_timeout_while(version, timeout, |version| *version == seen)
            .expect("progress poisoned");
    }
}

/// Forwards a freshly learned membership delta to every addressable
/// member except the one it came from — one re-gossip hop per node per
/// delta (the `news` guard in the caller), enough for any single lost
/// datagram to be healed by whichever peer did hear it.
fn gossip_delta(endpoint: &Endpoint, shared: &Shared, learned_from: SocketAddr, msg: &Control) {
    let targets: Vec<SocketAddr> = {
        let roster = shared.roster.lock().expect("roster poisoned");
        roster
            .entries()
            .filter(|(id, m)| *id != endpoint.id() && m.addr.is_some_and(|a| a != learned_from))
            .filter_map(|(_, m)| m.addr)
            .collect()
    };
    for addr in targets {
        let _ = endpoint.send_control(addr, msg);
    }
}

/// Assembles a [`MetricsView`] from the node's live state — called by the
/// metrics listener per scrape, under short read locks so a scrape never
/// stalls the slot loop beyond a lock handoff.
fn collect_view(node_id: NodeId, endpoint: &Endpoint, shared: &Shared) -> MetricsView {
    let (chain_len, durable_len, pruned_floor, fsync_count, segment_count) = {
        let node = shared.node.read().expect("node lock poisoned");
        let store = node.store();
        (
            node.chain_len() as u64,
            store.durable_len() as u64,
            u64::from(store.pruned_floor()),
            store.fsync_count(),
            store.segment_count(),
        )
    };
    let (roster_members, roster_departed) = {
        let roster = shared.roster.lock().expect("roster poisoned");
        (
            roster.entries().count() as u64,
            roster
                .entries()
                .filter(|(_, m)| m.leave_slot.is_some())
                .count() as u64,
        )
    };
    let current = shared.current_slot.load(Ordering::Relaxed);
    let verified = shared.verified_through.load(Ordering::Relaxed);
    // Occupancy: slots in flight between generation and verification (the
    // lockstep loop reads 1 mid-slot, the pipeline up to `window`).
    let window_occupancy = (current + 1).saturating_sub(verified);
    // Lag: how far the slowest generating peer's completion watermark
    // trails our current slot. Locks taken sequentially, never nested.
    let watermark_lag = {
        let generators: Vec<NodeId> = {
            let roster = shared.roster.lock().expect("roster poisoned");
            roster
                .generators_at(current)
                .into_iter()
                .filter(|&p| p != node_id)
                .collect()
        };
        let done = shared.done.lock().expect("done poisoned");
        generators
            .iter()
            .map(|p| done.get(p).copied().unwrap_or(0))
            .min()
            .map_or(0, |low| current.saturating_sub(low))
    };
    let telemetry = &shared.telemetry;
    MetricsView {
        node: node_id,
        slot: current,
        window: shared.window,
        window_occupancy,
        watermark_lag,
        net: endpoint.stats(),
        pop: telemetry.pop(),
        pop_attempts: telemetry.pop_attempts.load(Ordering::Relaxed),
        pop_successes: telemetry.pop_successes.load(Ordering::Relaxed),
        chain_len,
        durable_len,
        pruned_floor,
        fsync_count,
        segment_count,
        roster_members,
        roster_departed,
        blacklist_banned: shared.blacklist_banned.load(Ordering::Relaxed),
        adversaries_detected: shared.suspects.lock().expect("suspects poisoned").len() as u64,
        journal_len: telemetry.journal.len() as u64,
        journal_dropped: telemetry.journal.dropped(),
        trace_spans: telemetry.spans.recorded(),
        trace_dropped: telemetry.spans.dropped(),
        trace_evicted: telemetry.spans.evicted(),
        phases: telemetry.phases.snapshot(),
        pop_rtt: telemetry.pop_rtt.snapshot(),
        request_rtt: endpoint.request_rtt().snapshot(),
        retry_backoff: endpoint.retry_backoff().snapshot(),
        fsync: telemetry.fsync.snapshot(),
        slot_latency: telemetry.slot_latency.snapshot(),
        batch_fill: endpoint.batch_fill().snapshot(),
    }
}

/// [`BlockBackend`] view over the live node for the validator: every call
/// takes a fresh read lock, so a PoP never holds the node lock across its
/// network I/O (which would stall a generation step's writes for a whole
/// round-trip). Horizon capping makes the walk insensitive to blocks
/// appended between calls — every lookup the validator performs is
/// filtered to `header.time <= horizon`, and the store below an
/// already-generated slot never changes.
struct LiveStore<'a> {
    node: &'a RwLock<LedgerNode>,
}

impl LiveStore<'_> {
    fn with<T>(&self, f: impl FnOnce(&dyn BlockBackend) -> T) -> T {
        let node = self.node.read().expect("node lock poisoned");
        f(node.store())
    }
}

impl fmt::Debug for LiveStore<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("LiveStore")
    }
}

impl BlockBackend for LiveStore<'_> {
    fn append(&mut self, _block: DataBlock) -> Result<(), TldagError> {
        unreachable!("the validator never appends")
    }
    fn len(&self) -> usize {
        self.with(|s| s.len())
    }
    fn get(&self, seq: u32) -> Option<DataBlock> {
        self.with(|s| s.get(seq))
    }
    fn by_header_digest(&self, digest: &Digest) -> Option<DataBlock> {
        self.with(|s| s.by_header_digest(digest))
    }
    fn oldest_child_of(&self, target: &Digest) -> Option<DataBlock> {
        self.with(|s| s.oldest_child_of(target))
    }
    fn children_of(&self, target: &Digest) -> Vec<DataBlock> {
        self.with(|s| s.children_of(target))
    }
    fn iter(&self) -> Box<dyn Iterator<Item = DataBlock> + '_> {
        let blocks: Vec<DataBlock> = self.with(|s| s.iter().collect());
        Box::new(blocks.into_iter())
    }
    fn logical_bits(&self, cfg: &ProtocolConfig) -> Bits {
        self.with(|s| s.logical_bits(cfg))
    }
    fn resident_bytes(&self) -> usize {
        self.with(|s| s.resident_bytes())
    }
    fn pruned_floor(&self) -> u32 {
        self.with(|s| s.pruned_floor())
    }
}

/// Raises `peer`'s highest-completed-slot watermark (monotonic).
fn mark_done(shared: &Shared, peer: NodeId, slot: u64) {
    let mut done = shared.done.lock().expect("done poisoned");
    let entry = done.entry(peer).or_insert(slot);
    if *entry < slot {
        *entry = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_without_pop_is_rejected() {
        let listen = "127.0.0.1:0".parse().expect("addr");
        let mut config = NetNodeConfig::new(NodeId(0), listen, 1, 1, 4);
        config.window = 4;
        let Err(err) = NetNode::new(config.clone()) else {
            panic!("W > 1 needs PoP")
        };
        assert!(err.contains("--window needs --pop"), "{err}");
        config.pop = true;
        assert!(NetNode::new(config).is_ok(), "W = 4 with PoP is valid");
    }

    #[test]
    fn progress_bump_after_snapshot_wakes_at_once() {
        let progress = Progress::default();
        let seen = progress.snapshot();
        // The notify lands between the snapshot (taken before the wait's
        // predicate check) and the park: the wait must not sleep it out.
        progress.notify();
        let started = Instant::now();
        progress.wait_since(seen, Duration::from_secs(5));
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn progress_wait_wakes_on_a_later_notify() {
        let progress = Arc::new(Progress::default());
        let seen = progress.snapshot();
        let notifier = {
            let progress = Arc::clone(&progress);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                progress.notify();
            })
        };
        let started = Instant::now();
        progress.wait_since(seen, Duration::from_secs(5));
        assert!(started.elapsed() < Duration::from_secs(1));
        notifier.join().expect("notifier panicked");
    }

    #[test]
    fn progress_wait_times_out_without_news() {
        let progress = Progress::default();
        let started = Instant::now();
        progress.wait_since(progress.snapshot(), Duration::from_millis(20));
        assert!(started.elapsed() >= Duration::from_millis(20));
    }

    /// The full enumeration the closed-form draw replaced: every block the
    /// engine's scan would list at `slot`, owners ascending, sequences
    /// ascending.
    fn enumerated_candidates(
        roster: &Roster,
        validator: NodeId,
        slot: u64,
        min_age: u64,
    ) -> Vec<BlockId> {
        let mut out = Vec::new();
        if slot < min_age {
            return out;
        }
        let horizon = slot - min_age;
        for owner in (0..roster.total_ids()).map(NodeId) {
            if owner == validator || roster.departed_by(owner, slot) {
                continue;
            }
            let Some(member) = roster.member(owner) else {
                continue;
            };
            let mut t = member.join_slot;
            while t <= horizon {
                out.push(BlockId::new(owner, (t - member.join_slot) as u32));
                t += 1;
            }
        }
        out
    }

    #[test]
    fn closed_form_target_matches_enumeration() {
        let mut roster = Roster::founders(6);
        roster.learn_leave(NodeId(2), 5); // departs mid-run
        roster.learn_leave(NodeId(4), 30); // leave announced for later
        roster.learn_join(NodeId(6), None, 4); // late joiners
        roster.learn_join(NodeId(7), None, 11);
        roster.learn_join(NodeId(9), None, 8); // id 8 never joined
        roster.evict(NodeId(6), 12);
        roster.learn_join(NodeId(6), None, 14); // evicted, then back
        let mut draws = 0;
        for seed in 0..4u64 {
            for min_age in [0u64, 1, 3, 8] {
                for slot in 0..24u64 {
                    for validator in (0..11).map(NodeId) {
                        let candidates = enumerated_candidates(&roster, validator, slot, min_age);
                        let mut expect_rng = derived_rng(seed, stream::TARGET, slot, validator);
                        let expect = expect_rng.choose(&candidates).copied();
                        let mut rng = derived_rng(seed, stream::TARGET, slot, validator);
                        let got = wire_pop_target(&roster, validator, slot, min_age, &mut rng);
                        let at = format!("seed {seed} min_age {min_age} slot {slot} {validator}");
                        assert_eq!(got, expect, "{at}");
                        assert_eq!(rng.next_u64(), expect_rng.next_u64(), "rng state at {at}");
                        draws += usize::from(expect.is_some());
                    }
                }
            }
        }
        assert!(draws > 1000, "the roster must offer candidates");
    }
}
