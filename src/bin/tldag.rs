//! `tldag` — command-line driver for the 2LDAG simulator.
//!
//! ```text
//! tldag topology [--nodes N] [--side M] [--seed S]
//! tldag run      [--nodes N] [--slots T] [--gamma G] [--malicious M]
//!                [--seed S] [--trace] [--threads W]
//!                [--sync-policy per-append|per-slot|grouped:N]
//!                [--storage memory|disk|disk-sharded] [--storage-dir PATH]
//!                [--retain-bytes B] [--persist-trust-cache]
//! tldag verify   --owner K [--seq Q] [--validator V]
//!                [--nodes N] [--slots T] [--gamma G] [--seed S]
//!                [--threads W] [--sync-policy P]
//!                [--storage memory|disk|disk-sharded] [--storage-dir PATH]
//!                [--retain-bytes B] [--persist-trust-cache]
//! tldag node     --id I --listen ADDR --peers 0@A,1@B,... [--slots T]
//!                [--seed S] [--nodes N] [--side M] [--gamma G] [--pop]
//!                [--window W] [--batch K] [--drop P] [--trace]
//!                [--controller ADDR] [--storage memory|disk]
//!                [--storage-dir PATH] [--join ADDR] [--join-slot K]
//!                [--leave-at M] [--churn SPEC] [--evict-after SECS]
//!                [--deadline SECS] [--metrics-addr ADDR]
//!                [--behavior KIND[@SLOT]]
//! tldag cluster  [--nodes N] [--slots T] [--seed S] [--side M] [--gamma G]
//!                [--pop] [--window W] [--batch K] [--drop P] [--trace]
//!                [--storage memory|disk] [--storage-dir PATH]
//!                [--base-port P] [--timeout SECS] [--churn SPEC]
//!                [--metrics] [--status-every SECS]
//!                [--adversary SPEC] [--evict-after SECS]
//! tldag status   --targets ADDR,ADDR,... [--json] [--timeout SECS]
//! tldag explore  <ADDR | --segments DIR> [--listen ADDR] [--duration SECS]
//! ```

use std::collections::HashMap;
use std::fmt;
use std::io::{self, Write};
use std::process::ExitCode;
use tldag::core::attack::Behavior;
use tldag::core::block::BlockId;
use tldag::core::network::TldagNetwork;
use tldag::core::store::SyncPolicy;
use tldag::core::workload::VerificationWorkload;
use tldag::sim::bus::TrafficClass;
use tldag::sim::engine::GenerationSchedule;
use tldag::sim::engine::Sharding;
use tldag::sim::fault::{FaultPlan, MaliciousPlacement};
use tldag::sim::topology::{Topology, TopologyConfig};
use tldag::sim::trace::Trace;
use tldag::sim::{DetRng, NodeId};
use tldag::storage::{DiskFactory, ShardedDiskFactory, StorageOptions};

/// `println!` that survives a closed stdout (see [`emit`]).
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `print!` that survives a closed stdout (see [`emit`]).
macro_rules! out_raw {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

/// Writes to stdout. `println!` panics when the reader has gone away
/// (`tldag topology | head`); a closed pipe instead ends the process with
/// status 0, the way line-oriented Unix tools stop when nobody listens. Any
/// other stdout failure is reported and exits with status 1.
fn emit(args: fmt::Arguments<'_>) {
    if let Err(e) = io::stdout().write_fmt(args) {
        if e.kind() == io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

const USAGE: &str = "\
tldag — 2LDAG / Proof-of-Path simulator

USAGE:
    tldag topology [--nodes N] [--side METERS] [--seed S]
        Print the deployment produced by the paper's placement rule.

    tldag run [--nodes N] [--slots T] [--gamma G] [--malicious M]
              [--seed S] [--trace] [--threads W] [--sync-policy P]
              [--storage memory|disk|disk-sharded] [--storage-dir P]
              [--retain-bytes B] [--persist-trust-cache]
        Run a slotted simulation with the paper's verification workload
        and print storage/communication/PoP summaries.

    tldag verify --owner K [--seq Q] [--validator V]
                 [--nodes N] [--slots T] [--gamma G] [--seed S]
                 [--threads W] [--sync-policy P]
                 [--storage memory|disk|disk-sharded] [--storage-dir P]
                 [--retain-bytes B] [--persist-trust-cache]
        Run a simulation, then verify block K#Q from node V via
        Proof-of-Path and print the proof path.

    tldag node --id I --listen ADDR --peers 0@A,2@B,... [--slots T]
               [--seed S] [--nodes N] [--side M] [--gamma G] [--pop]
               [--window W] [--batch K] [--drop P] [--trace]
               [--controller ADDR] [--storage memory|disk] [--storage-dir P]
               [--join ADDR] [--join-slot K] [--leave-at M]
               [--churn SPEC] [--evict-after SECS] [--deadline SECS]
               [--metrics-addr ADDR] [--behavior KIND[@SLOT]]
        Run ONE real 2LDAG node over UDP: generate blocks, gossip
        slot-tagged digests with pull-based loss recovery, serve
        REQ_CHILD/FetchBlock, and (with --pop) verify blocks over the
        wire. The topology is derived from (--seed, --nodes, --side),
        so every process agrees on G(V,E) without exchanging it.
        Dynamic membership: --join ADDR bootstraps a late joiner off any
        live member (handshake transfers the roster; --join-slot pins the
        first generation slot, otherwise it is negotiated); --leave-at M
        makes the node generate its last block at M-1, announce its
        departure, and wind down; --churn SPEC shares a deterministic
        membership schedule (join:ID@SLOT,leave:ID@SLOT,...) across the
        deployment; --evict-after SECS evicts a barrier-blocking peer
        that has gone silent; --deadline SECS hard-caps the process
        lifetime (watchdog against orphaned listeners). --metrics-addr
        serves live telemetry over HTTP while the node runs: GET /metrics
        is a Prometheus-style text exposition (phase-latency histograms,
        transport/PoP counters, storage gauges, roster state), GET
        /journal dumps the node's bounded event journal as JSONL.
        Pipelining: --window W (W in 1..=32, default 1; W > 1 needs
        --pop) lets generation run up to W slots ahead of the cluster's
        completion low-watermark while a background worker verifies
        slots in order (horizon-capped child requests keep PoP answers
        byte-identical to the W=1 lockstep); --batch K sets the socket send/recv batch
        (datagrams per sendmmsg/recvmmsg wakeup); --drop P injects a
        deterministic per-datagram drop probability for loss testing.
        --behavior KIND[@SLOT] turns the node into a wire adversary from
        SLOT (default 0) on: selfish/unresponsive refuse to serve,
        corrupt-reply/corrupt-store tamper with answers, equivocate mints
        a second conflicting block per slot, digest-lie gossips corrupted
        SlotDigests, parasite re-advertises conflicting digests for stale
        slots, flapper goes dark until evicted then spams rejoins. The
        adversary's canonical chain stays protocol-conformant, so honest
        peers converge by pulling the slot directly.
        --trace records causal block-lifecycle spans (generated →
        gossiped-out → received → verified → committed) in a bounded
        lock-free span store and serves them as cross-node-stitchable
        timelines at GET /trace (needs --metrics-addr). Tracing never
        changes protocol byte content: a traced run's chain digests are
        identical to an untraced run's on the same seed.

    tldag cluster [--nodes N] [--slots T] [--seed S] [--side M]
                  [--gamma G] [--pop] [--window W] [--batch K] [--drop P]
                  [--trace] [--storage memory|disk] [--storage-dir P]
                  [--base-port P] [--timeout SECS]
                  [--churn SPEC] [--metrics] [--status-every SECS]
                  [--adversary SPEC] [--evict-after SECS]
        Spawn N real `tldag node` processes on localhost UDP ports, run
        T slots, collect their reports, and verify network_digest parity
        against the in-memory engine on the same seed. With --churn, also
        spawn the scheduled late joiners (bootstrapped via the join
        handshake, not a provisioned peer list) and replay the identical
        node_joins/node_leaves schedule on the reference engine — parity
        is asserted through the membership changes. Exits non-zero on a
        parity failure — and on one, pulls the suspect nodes' recent
        per-slot digests over the still-live control plane and prints a
        divergence forensics report: first divergent slot, the differing
        block digests, and (with --trace) the offending blocks' lifecycle
        timelines. --metrics gives every node a localhost telemetry
        endpoint (announced as `metrics endpoints: ...` before the nodes
        spawn); with --status-every SECS the harness also scrapes all
        of them periodically and prints the mid-run time series. --trace
        turns on block-lifecycle tracing at every node.
        --adversary SPEC schedules wire adversaries: comma-separated
        kind:count[@slot] groups (e.g. `selfish:2,equivocate:1@4`; kinds
        as in `tldag node --behavior`), placed deterministically on the
        highest founder ids (never node 0) and applied to the reference
        engine at the same slot boundary. The verdict then becomes
        honest-subset digest parity — honest nodes must reproduce the
        engine exactly *despite* the attack, and the detection counters
        (digest conflicts, conflict pulls, flap rejections, evictions)
        are printed. A flapper adversary's own chain is expected to fork
        (it goes dark mid-run); pass --evict-after SECS so honest nodes
        evict it instead of waiting out every barrier. --adversary is
        refused with --window W > 1: a pipelined node applies PoP bans
        late (the ban lag), so honest parity would not hold.

    tldag status --targets ADDR,ADDR,... [--json] [--timeout SECS]
        Scrape the /metrics endpoint of every listed node of a live
        cluster and render one aggregated status table (slot, chain
        length, PoP counters, request retries/timeouts, and p50/p99
        latencies re-estimated from the scraped histogram buckets), plus
        a TOTAL row summed over the raw samples. --json prints the same
        aggregation as machine-readable JSON. Targets that do not answer
        within --timeout (default 2s) are reported on stderr and skipped.

    tldag explore <ADDR | --segments DIR> [--listen ADDR] [--duration SECS]
        Serve a browsable JSON view of a deployment's DAG at GET /dag,
        GET /slot/<t>, and GET /block/<o>-<q>. With a node's metrics
        ADDR, proxies that live node's /metrics + /trace into a causal
        view (block ids are origin-slot). With --segments DIR, opens the
        durable block logs a cluster run left behind (a node dir or a
        cluster root of node-<i> subdirs) and serves the full structural
        DAG with resolved cross-chain digest edges (block ids are
        owner-seq). --listen picks the serving address (default
        127.0.0.1:0, printed on startup); --duration exits after SECS
        (default: serve until killed).

Storage backends: `memory` (default) keeps every chain in RAM; `disk` puts
each node's chain in a durable segmented block log under --storage-dir
(default: a fresh directory under the system temp dir) with crash recovery
and bounded resident memory; `disk-sharded` group-commits all nodes of a
shard into one multiplexed log (one fsync per shard per sync point, shard
count = --threads).

--threads W shards the slot loop across W worker threads. Results are
byte-identical for every thread count under a fixed seed.

--sync-policy picks the durability cadence: `per-append` (fsync every
block), `per-slot` (fsync at each slot boundary; default), or `grouped:N`
(fsync every N slots).

--retain-bytes B caps each log's disk usage (per node for `disk`, per
shard for `disk-sharded`): segment rolls compact the oldest sealed
segments away and PoP answers requests for pruned blocks with a graceful
miss. --persist-trust-cache saves each node's verified-header cache H_i
at every commit point, so a restarted node resumes TPS warm. Both need a
disk backend.

Defaults: --nodes 16, --side 300, --slots 40, --gamma 3, --malicious 0,
          --seq 0, --validator 0, --seed 42, --storage memory,
          --threads 1, --sync-policy per-slot, no retention budget.
";

struct Args {
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut flags = HashMap::new();
        let mut switches = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let arg = &argv[i];
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument `{arg}`"));
            };
            if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                flags.insert(name.to_string(), argv[i + 1].clone());
                i += 2;
            } else {
                switches.push(name.to_string());
                i += 1;
            }
        }
        Ok(Args { flags, switches })
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value for --{name}: `{raw}`")),
        }
    }

    fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let raw = self
            .flags
            .get(name)
            .ok_or_else(|| format!("missing required flag --{name}"))?;
        raw.parse()
            .map_err(|_| format!("invalid value for --{name}: `{raw}`"))
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

fn build_topology(args: &Args) -> Result<(Topology, u64), String> {
    let nodes: usize = args.get("nodes", 16)?;
    let side: f64 = args.get("side", 300.0)?;
    let seed: u64 = args.get("seed", 42)?;
    if nodes == 0 {
        return Err("--nodes must be positive".into());
    }
    let cfg = TopologyConfig {
        nodes,
        side_m: side,
        ..TopologyConfig::paper_default()
    };
    Ok((
        Topology::random_connected(&cfg, &mut DetRng::seed_from(seed)),
        seed,
    ))
}

fn build_network(args: &Args) -> Result<TldagNetwork, String> {
    let (topology, seed) = build_topology(args)?;
    let gamma: usize = args.get("gamma", 3)?;
    let malicious: usize = args.get("malicious", 0)?;
    if malicious >= topology.len() {
        return Err("--malicious must be below --nodes".into());
    }
    // The same definition `tldag node`/`tldag cluster` use, so simulator
    // runs and wire deployments execute one protocol.
    let cfg = tldag::net::runtime::deployment_protocol_config(gamma);
    let schedule = GenerationSchedule::uniform(topology.len());
    let threads: usize = args.get("threads", 1)?;
    if threads == 0 {
        return Err("--threads must be positive".into());
    }
    let sync_policy: SyncPolicy = args.get("sync-policy", SyncPolicy::PerSlot)?;
    let storage: String = args.get("storage", "memory".to_string())?;
    let retain_bytes: Option<u64> = match args.flags.get("retain-bytes") {
        None => None,
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| format!("invalid value for --retain-bytes: `{raw}`"))?,
        ),
    };
    let persist_trust = args.switch("persist-trust-cache");
    if storage == "memory" && (retain_bytes.is_some() || persist_trust) {
        return Err(
            "--retain-bytes / --persist-trust-cache need a disk backend \
(--storage disk|disk-sharded)"
                .into(),
        );
    }
    let opts = {
        let mut opts = StorageOptions::default().with_retain_disk_bytes(retain_bytes);
        if let Some(budget) = retain_bytes {
            // Compaction drops whole sealed segments at roll time, so the
            // budget only bites when segments are much smaller than it.
            opts.segment_bytes = (budget / 8).clamp(4 * 1024, opts.segment_bytes);
        }
        opts
    };
    let storage_dir = |args: &Args| -> Result<String, String> {
        let default_dir = std::env::temp_dir()
            .join(format!("tldag-run-{}", std::process::id()))
            .display()
            .to_string();
        let dir: String = args.get("storage-dir", default_dir)?;
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot use --storage-dir {dir}: {e}"))?;
        Ok(dir)
    };
    let retention_note = match retain_bytes {
        Some(b) => format!(", retain {b} B"),
        None => String::new(),
    };
    let mut net = match storage.as_str() {
        "memory" => TldagNetwork::new(cfg, topology.clone(), schedule, seed),
        "disk" => {
            let dir = storage_dir(args)?;
            out!("storage backend: disk ({dir}{retention_note})");
            let factory = DiskFactory::new(dir, opts);
            TldagNetwork::with_factory(cfg, topology.clone(), schedule, seed, Box::new(factory))
        }
        "disk-sharded" => {
            let dir = storage_dir(args)?;
            out!("storage backend: disk-sharded ({dir}, {threads} shard logs{retention_note})");
            let factory = ShardedDiskFactory::new(dir, threads, topology.len()).with_options(opts);
            TldagNetwork::with_factory(cfg, topology.clone(), schedule, seed, Box::new(factory))
        }
        other => {
            return Err(format!(
                "invalid value for --storage: `{other}` (memory|disk|disk-sharded)"
            ))
        }
    };
    net.set_sharding(Sharding::threads(threads));
    net.set_sync_policy(sync_policy);
    net.set_persist_trust_cache(persist_trust);
    net.set_verification_workload(VerificationWorkload::RandomPast {
        min_age_slots: topology.len() as u64,
    });
    if malicious > 0 {
        let plan = FaultPlan::select(
            &topology,
            malicious,
            MaliciousPlacement::Uniform,
            &mut DetRng::seed_from(seed ^ 0xbad),
        );
        net.apply_fault_plan(&plan, Behavior::Unresponsive);
        out!(
            "malicious (unresponsive): {:?}",
            plan.malicious_ids()
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
        );
    }
    Ok(net)
}

fn cmd_topology(args: &Args) -> Result<(), String> {
    let (topo, seed) = build_topology(args)?;
    out!(
        "{} nodes, seed {seed}: {} links, mean degree {:.1}, diameter {:?}",
        topo.len(),
        topo.edge_count(),
        topo.mean_degree(),
        topo.diameter()
    );
    for id in topo.node_ids() {
        let p = topo.position(id);
        let neighbors: Vec<String> = topo.neighbors(id).iter().map(ToString::to_string).collect();
        out!(
            "  {id:>4}  ({:>7.1}, {:>7.1})  deg {:>2}  -> {}",
            p.x,
            p.y,
            topo.degree(id),
            neighbors.join(" ")
        );
    }
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let slots: u64 = args.get("slots", 40)?;
    let mut net = build_network(args)?;
    if args.switch("trace") {
        net.set_trace(Trace::bounded(40));
    }
    net.try_run_slots(slots)
        .map_err(|e| format!("simulation stopped: {e}"))?;
    // Clean shutdown: flush slots staged since the last Grouped(n) boundary.
    net.sync_storage()
        .map_err(|e| format!("final storage flush failed: {e}"))?;

    let (attempts, successes) = net.pop_counters();
    out!("\nafter {slots} slots:");
    out!(
        "  engine              : {} thread(s), sync policy {}",
        net.sharding().threads,
        net.sync_policy()
    );
    out!("  blocks network-wide : {}", net.total_blocks());
    out!("  mean node storage   : {:.3} MB", net.mean_storage_mb());
    let resident: usize = net
        .topology()
        .node_ids()
        .map(|id| net.node(id).store().resident_bytes())
        .sum();
    out!(
        "  resident block mem  : {:.1} KiB total across nodes",
        resident as f64 / 1024.0
    );
    let max_floor = net
        .topology()
        .node_ids()
        .map(|id| net.node(id).pruned_floor())
        .max()
        .unwrap_or(0);
    if max_floor > 0 {
        out!(
            "  retention           : deepest pruned floor at seq {max_floor} \
(older blocks answer PoP with a graceful miss)"
        );
    }
    if net.persists_trust_cache() {
        let cached: usize = net
            .topology()
            .node_ids()
            .map(|id| net.node(id).trust_cache().len())
            .sum();
        out!("  trust caches        : persisted at commit points ({cached} headers total)");
    }
    let acc = net.accounting();
    out!(
        "  mean node comm (tx) : {:.4} Mb DAG-construction, {:.4} Mb consensus",
        acc.mean_node_tx(TrafficClass::DagConstruction)
            .as_megabits(),
        acc.mean_node_tx(TrafficClass::Consensus).as_megabits()
    );
    out!(
        "  PoP verifications   : {successes}/{attempts} succeeded ({:.1}%)",
        if attempts == 0 {
            0.0
        } else {
            100.0 * successes as f64 / attempts as f64
        }
    );
    let phases: Vec<String> = net
        .phase_timings()
        .snapshot()
        .iter()
        .map(|(phase, hist)| format!("{} {:.2}", phase.name(), hist.mean_micros() / 1e3))
        .collect();
    out!("  phase ms/slot (mean): {}", phases.join(", "));
    if args.switch("trace") {
        out!("\nlast events:\n{}", net.trace().render());
    }
    Ok(())
}

fn cmd_verify(args: &Args) -> Result<(), String> {
    let slots: u64 = args.get("slots", 40)?;
    let owner: u32 = args.required("owner")?;
    let seq: u32 = args.get("seq", 0)?;
    let validator: u32 = args.get("validator", 0)?;
    let mut net = build_network(args)?;
    net.set_verification_workload(VerificationWorkload::Disabled);
    net.try_run_slots(slots)
        .map_err(|e| format!("simulation stopped: {e}"))?;
    net.sync_storage()
        .map_err(|e| format!("final storage flush failed: {e}"))?;

    if owner as usize >= net.topology().len() {
        return Err("--owner out of range".into());
    }
    let target = BlockId::new(NodeId(owner), seq);
    if net.node(NodeId(owner)).store().get(seq).is_none() {
        return Err(format!("{target} does not exist (chain too short)"));
    }
    out!(
        "verifying {target} from n{validator} (γ = {}, threshold {})",
        net.config().gamma,
        net.config().consensus_threshold()
    );
    let report = net.run_pop(NodeId(validator), target, false);
    match &report.outcome {
        Ok(()) => {
            out!(
                "CONSENSUS: {} distinct nodes vouch, {} messages, {} on the air",
                report.distinct_nodes,
                report.metrics.total_messages(),
                report.metrics.total_bits()
            );
            out!("proof path:");
            for step in &report.path {
                out!("  {} (block {})", step.owner, step.block_id);
            }
            Ok(())
        }
        Err(e) => Err(format!("verification failed: {e}")),
    }
}

fn cmd_node(args: &Args) -> Result<(), String> {
    let id: u32 = args.required("id")?;
    let listen: std::net::SocketAddr = args.required("listen")?;
    let peers = tldag::net::peer::parse_peer_list(&args.get("peers", String::new())?)?;
    let seed: u64 = args.get("seed", 42)?;
    let nodes: usize = args.get("nodes", peers.len() + 1)?;
    let slots: u64 = args.get("slots", 8)?;
    let mut config = tldag::net::NetNodeConfig::new(NodeId(id), listen, seed, nodes, slots);
    config.peers = peers;
    config.side_m = args.get("side", 300.0)?;
    config.gamma = args.get("gamma", 3)?;
    config.pop = args.switch("pop");
    config.window = args.get("window", 1)?;
    config.trace = args.switch("trace");
    config.endpoint.batch = args.get("batch", config.endpoint.batch)?;
    let drop_rate: f64 = args.get("drop", 0.0)?;
    if !(0.0..1.0).contains(&drop_rate) {
        return Err(format!(
            "invalid value for --drop: `{drop_rate}` (0.0..1.0)"
        ));
    }
    if drop_rate > 0.0 {
        config.fault = Some(tldag::net::FaultSpec {
            drop: drop_rate,
            duplicate: 0.0,
            reorder: 0.0,
        });
    }
    config.controller = match args.flags.get("controller") {
        None => None,
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| format!("invalid value for --controller: `{raw}`"))?,
        ),
    };
    config.join = match args.flags.get("join") {
        None => None,
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| format!("invalid value for --join: `{raw}`"))?,
        ),
    };
    config.join_slot = match args.flags.get("join-slot") {
        None => None,
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| format!("invalid value for --join-slot: `{raw}`"))?,
        ),
    };
    config.leave_at = match args.flags.get("leave-at") {
        None => None,
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| format!("invalid value for --leave-at: `{raw}`"))?,
        ),
    };
    config.churn = tldag::net::parse_churn_spec(&args.get("churn", String::new())?)?;
    config.evict_after = match args.flags.get("evict-after") {
        None => None,
        Some(raw) => {
            let secs: f64 = raw
                .parse()
                .map_err(|_| format!("invalid value for --evict-after: `{raw}`"))?;
            Some(std::time::Duration::from_secs_f64(secs))
        }
    };
    config.deadline = match args.flags.get("deadline") {
        None => None,
        Some(raw) => {
            let secs: u64 = raw
                .parse()
                .map_err(|_| format!("invalid value for --deadline: `{raw}`"))?;
            Some(std::time::Duration::from_secs(secs))
        }
    };
    config.metrics_addr = match args.flags.get("metrics-addr") {
        None => None,
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| format!("invalid value for --metrics-addr: `{raw}`"))?,
        ),
    };
    if let Some(raw) = args.flags.get("behavior") {
        let (kind, from) = match raw.split_once('@') {
            Some((kind, slot)) => (
                kind,
                slot.parse::<u64>()
                    .map_err(|_| format!("invalid value for --behavior: `{raw}`"))?,
            ),
            None => (raw.as_str(), 0),
        };
        config.behavior = Behavior::parse_kind(kind).ok_or_else(|| {
            format!("invalid value for --behavior: `{raw}` (expected KIND[@SLOT])")
        })?;
        config.behavior_from = from;
    }
    let storage: String = args.get("storage", "memory".to_string())?;
    config.storage = match storage.as_str() {
        "memory" => tldag::net::StorageMode::Memory,
        "disk" => {
            let default_dir = std::env::temp_dir()
                .join(format!("tldag-node-{id}-{}", std::process::id()))
                .display()
                .to_string();
            let dir: String = args.get("storage-dir", default_dir)?;
            tldag::net::StorageMode::Disk(dir.into())
        }
        other => {
            return Err(format!(
                "invalid value for --storage: `{other}` (memory|disk)"
            ))
        }
    };
    let outcome = tldag::net::NetNode::new(config)?
        .run()
        .map_err(|e| format!("node failed: {e}"))?;
    let run = outcome.run;
    out!(
        "node {}: {} slots, chain {} blocks, chain digest {}",
        run.node,
        run.slots,
        run.chain_len,
        run.chain_digest
    );
    if run.catch_up_ms > 0 {
        out!("  join    : caught up in {} ms", run.catch_up_ms);
    }
    out!(
        "  PoP     : {}/{} verified over the wire",
        run.pop_successes,
        run.pop_attempts
    );
    let s = outcome.stats;
    out!(
        "  wire    : {} datagrams out / {} in, {} retries, {} timeouts",
        s.datagrams_sent,
        s.datagrams_received,
        s.request_retries,
        s.request_timeouts
    );
    out!(
        "  dropped : {} crc, {} malformed, {} unknown-tag, {} codec",
        s.crc_drops,
        s.malformed_drops,
        s.unknown_tag_drops,
        s.codec_error_drops
    );
    if run.degraded {
        return Err("run degraded: a digest barrier timed out".into());
    }
    Ok(())
}

fn cmd_cluster(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let nodes: usize = args.get("nodes", 3)?;
    let slots: u64 = args.get("slots", 6)?;
    let seed: u64 = args.get("seed", 42)?;
    let mut config = tldag::net::ClusterConfig::new(exe, nodes, slots, seed);
    config.side_m = args.get("side", 300.0)?;
    config.gamma = args.get("gamma", 3)?;
    config.pop = args.switch("pop");
    config.window = args.get("window", 1)?;
    config.batch = match args.flags.get("batch") {
        None => None,
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| format!("invalid value for --batch: `{raw}`"))?,
        ),
    };
    config.drop = args.get("drop", 0.0)?;
    if !(0.0..1.0).contains(&config.drop) {
        return Err(format!(
            "invalid value for --drop: `{}` (0.0..1.0)",
            config.drop
        ));
    }
    config.base_port = match args.flags.get("base-port") {
        None => None,
        Some(raw) => Some(
            raw.parse()
                .map_err(|_| format!("invalid value for --base-port: `{raw}`"))?,
        ),
    };
    config.report_timeout = std::time::Duration::from_secs(args.get("timeout", 60)?);
    config.churn = tldag::net::parse_churn_spec(&args.get("churn", String::new())?)?;
    config.adversaries =
        tldag::net::parse_adversary_spec(&args.get("adversary", String::new())?, nodes)?;
    config.evict_after = match args.flags.get("evict-after") {
        None => None,
        Some(raw) => {
            let secs: f64 = raw
                .parse()
                .map_err(|_| format!("invalid value for --evict-after: `{raw}`"))?;
            Some(std::time::Duration::from_secs_f64(secs))
        }
    };
    config.trace = args.switch("trace");
    config.metrics = args.switch("metrics") || args.flags.contains_key("status-every");
    config.sample_every = match args.flags.get("status-every") {
        None => None,
        Some(raw) => {
            let secs: f64 = raw
                .parse()
                .map_err(|_| format!("invalid value for --status-every: `{raw}`"))?;
            Some(std::time::Duration::from_secs_f64(secs))
        }
    };
    let storage: String = args.get("storage", "memory".to_string())?;
    config.storage_root = match storage.as_str() {
        "memory" => None,
        "disk" => {
            let default_dir = std::env::temp_dir()
                .join(format!("tldag-cluster-{}", std::process::id()))
                .display()
                .to_string();
            Some(args.get("storage-dir", default_dir)?.into())
        }
        other => {
            return Err(format!(
                "invalid value for --storage: `{other}` (memory|disk)"
            ))
        }
    };

    out!(
        "cluster: {} node processes × {slots} slots (seed {seed}{}{}{})",
        config.total_processes(),
        if config.pop { ", PoP on" } else { "" },
        if config.churn.is_empty() {
            String::new()
        } else {
            format!(
                ", churn {}",
                tldag::net::membership::format_churn_spec(&config.churn)
            )
        },
        match &config.storage_root {
            Some(root) => format!(", disk under {}", root.display()),
            None => String::new(),
        }
    );
    if !config.adversaries.is_empty() {
        out!(
            "adversaries: {}",
            tldag::net::format_adversary_schedule(&config.adversaries)
        );
    }
    let outcome = tldag::net::run_cluster(&config)?;
    for report in &outcome.reports {
        out!(
            "  node {:>3}: {} blocks, digest {}, PoP {}/{}{}",
            report.node.0,
            report.chain_len,
            report.chain_digest,
            report.pop_successes,
            report.pop_attempts,
            if report.degraded { "  [DEGRADED]" } else { "" }
        );
    }
    if !outcome.status_series.is_empty() {
        out!(
            "  mid-run status ({} samples):",
            outcome.status_series.len()
        );
        for rows in &outcome.status_series {
            out!(
                "    slot {:>4}: {} nodes answered, chain Σ{}, PoP {}/{}, {} retries",
                rows.iter().map(|r| r.slot).max().unwrap_or(0),
                rows.len(),
                rows.iter().map(|r| r.chain_len).sum::<u64>(),
                rows.iter().map(|r| r.pop_successes).sum::<u64>(),
                rows.iter().map(|r| r.pop_attempts).sum::<u64>(),
                rows.iter().map(|r| r.request_retries).sum::<u64>(),
            );
        }
    }
    out!("  wire network digest      : {}", outcome.wire_digest);
    out!("  reference network digest : {}", outcome.reference_digest);
    let n = &outcome.net;
    out!(
        "  wire totals              : {} datagrams out / {} in, {} retries, {} timeouts",
        n.datagrams_sent,
        n.datagrams_received,
        n.request_retries,
        n.request_timeouts
    );
    if !outcome.metrics_addrs.is_empty() {
        out!(
            "  metrics endpoints        : {}",
            outcome
                .metrics_addrs
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    if config.pop {
        out!(
            "  PoP wire {}/{} vs reference {}/{}",
            outcome.wire_pop.1,
            outcome.wire_pop.0,
            outcome.reference_pop.1,
            outcome.reference_pop.0
        );
    }
    let adversarial = !outcome.adversaries.is_empty();
    if adversarial {
        out!(
            "  honest-subset digest     : wire {} vs reference {}",
            outcome.honest_wire_digest,
            outcome.honest_reference_digest
        );
        out!(
            "  adversary detection      : {} digest conflicts, {} conflict pulls, \
{} flap rejections, {} evictions",
            n.digest_conflicts,
            n.conflict_pulls,
            n.flap_rejections,
            n.evictions
        );
    }
    // The verdict for an adversarial run is the honest subset: a dark
    // adversary legitimately forks its own chain from the engine, and
    // excluding it is the protocol working, not a reproduction bug.
    let verdict = if adversarial {
        outcome.honest_parity()
    } else {
        outcome.parity()
    };
    if verdict {
        if adversarial {
            out!("HONEST PARITY OK: honest nodes reproduced the in-memory engine under attack");
        } else {
            out!("PARITY OK: the UDP cluster reproduced the in-memory engine exactly");
        }
        Ok(())
    } else {
        for (i, report) in outcome.reports.iter().enumerate() {
            if report.chain_digest != outcome.reference_chains[i] {
                out!("  MISMATCH at node {i}");
            }
        }
        // The harness already pulled per-slot evidence from the live
        // nodes before releasing them — name the fork, don't just panic.
        if let Some(forensics) = &outcome.forensics {
            out_raw!("{}", forensics.render());
        }
        Err("PARITY FAILED: wire and in-memory digests differ".into())
    }
}

fn cmd_explore(args: &Args) -> Result<(), String> {
    let source = match (args.flags.get("target"), args.flags.get("segments")) {
        (Some(raw), None) => tldag::net::ExplorerSource::Live(
            raw.parse()
                .map_err(|_| format!("invalid value for --target: `{raw}`"))?,
        ),
        (None, Some(dir)) => tldag::net::ExplorerSource::Segments(dir.into()),
        (Some(_), Some(_)) => {
            return Err("--target and --segments are mutually exclusive".into());
        }
        (None, None) => {
            return Err("explore needs a source: a node's metrics ADDR or --segments DIR".into());
        }
    };
    let listen: std::net::SocketAddr = args.get("listen", "127.0.0.1:0".parse().expect("addr"))?;
    let explorer = tldag::net::Explorer::spawn(listen, source)?;
    out!("explorer listening on {}", explorer.addr());
    out!("  GET /dag  GET /slot/<t>  GET /block/<o>-<q>");
    let duration: f64 = args.get("duration", 0.0)?;
    if duration > 0.0 {
        std::thread::sleep(std::time::Duration::from_secs_f64(duration));
        explorer.shutdown();
    } else {
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    Ok(())
}

fn cmd_status(args: &Args) -> Result<(), String> {
    let raw: String = args.required("targets")?;
    let timeout = std::time::Duration::from_secs_f64(args.get("timeout", 2.0)?);
    let mut rows = Vec::new();
    let mut per_node = Vec::new();
    let mut errors = Vec::new();
    for target in raw.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        let addr: std::net::SocketAddr = target
            .parse()
            .map_err(|_| format!("invalid target `{target}` (expected HOST:PORT)"))?;
        match tldag::net::scrape_metrics(addr, timeout) {
            Ok(samples) => {
                rows.push(tldag::net::StatusRow::from_samples(target, &samples));
                per_node.push(samples);
            }
            Err(e) => errors.push(e),
        }
    }
    for e in &errors {
        eprintln!("warning: {e}");
    }
    if rows.is_empty() {
        return Err("no target answered".into());
    }
    let total = tldag::net::total_row(&per_node, &rows);
    if args.switch("json") {
        out!("{}", tldag::net::status_json(&rows, &total));
    } else {
        let mut all = rows;
        all.push(total);
        out_raw!("{}", tldag::net::render_status_table(&all));
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first().cloned() else {
        out_raw!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // `tldag explore HOST:PORT` sugar: the one positional operand becomes
    // the --target flag before the uniform flag parser sees it.
    if command == "explore" && argv.get(1).is_some_and(|a| !a.starts_with("--")) {
        argv.insert(1, "--target".to_string());
    }
    let result = match Args::parse(&argv[1..]) {
        Err(e) => Err(e),
        Ok(args) => match command.as_str() {
            "topology" => cmd_topology(&args),
            "run" => cmd_run(&args),
            "verify" => cmd_verify(&args),
            "node" => cmd_node(&args),
            "cluster" => cmd_cluster(&args),
            "status" => cmd_status(&args),
            "explore" => cmd_explore(&args),
            "help" | "--help" | "-h" => {
                out_raw!("{USAGE}");
                Ok(())
            }
            other => Err(format!("unknown command `{other}`")),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `tldag help` for usage");
            ExitCode::FAILURE
        }
    }
}
