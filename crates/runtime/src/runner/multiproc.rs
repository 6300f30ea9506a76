//! Multi-process deployment: the hierarchy's roles as real OS processes
//! wired over localhost sockets.
//!
//! [`launch`] spawns one `ddnn-node host` process per role — all end
//! devices together, the gateway, and each feature tier — and plays the
//! orchestrator itself: it drives the samples, collects the verdicts and
//! folds every role's link/node telemetry into the same [`SimReport`]
//! the in-process runner produces. [`host_role`] is the other side: it
//! reads a role assignment plus a role manifest from stdin, rebuilds its
//! slice of the seeded model (weights re-derive bit-identically from the
//! seed in every process), and serves its nodes over the socket
//! dataplane until the orchestrator shuts the run down.
//!
//! The stdio handshake, line oriented and human readable:
//!
//! ```text
//! launcher -> child   ROLE <devices|gateway|tier:<k>>, manifest, END
//! child -> launcher   PORT <inbox> <ip:port> ..., BOUND
//! launcher -> child   ADDR <inbox> <ip:port> ..., SENDERS
//! child -> launcher   PORT ack:<link> <ip:port> ..., ACKBOUND
//! launcher -> child   ACK <link> <ip:port> ..., GO
//! (run: frames flow over TCP/UDP; the child emits HB <n> heartbeat
//!  lines; the launcher may send REWIRE <link> <ip:port> after a peer
//!  role respawned at new ports)
//! child -> launcher   LINK <name> <9 counters> ..., NODE ... , DONE
//! ```
//!
//! The launcher is also a *supervisor*: every handshake read is
//! deadline-bounded, every child's exit status and heartbeat stream are
//! polled while samples are driven, and a seeded
//! [`ProcChaosPlan`](crate::ProcChaosPlan) can SIGKILL role processes
//! mid-run (and respawn them). A dead role folds into the same graceful
//! degradation as an in-process deadline miss — blank substitution,
//! forced local exits, typed per-sample timeouts — instead of a hung
//! pipe read. A respawned role re-handshakes with the same manifest
//! plus a per-generation `tseq_base`, rebinds fresh ports, and the
//! survivors are re-pointed at them with `REWIRE` lines.
//!
//! Scope: multi-process runs cover the closed-loop protocol on the
//! partition-implied topology. Elastic orchestration, streaming
//! arrivals, link fault injection and static device failures stay
//! in-process — their seeded state cannot span OS processes — and
//! [`launch`] rejects them with typed configuration errors before
//! spawning anything. Process chaos ([`ProcChaosPlan`](crate::ProcChaosPlan))
//! and socket chaos ([`SocketChaosPlan`](crate::SocketChaosPlan)) are the
//! multi-process counterparts of that in-process fault plan.

use super::orchestrate::{drive_samples, validate_run};
use super::{compute_blanks, PumpStopGuard};
use crate::clock::SimClock;
use crate::error::{Result, RuntimeError};
use crate::fault::{ProcAction, ProcChaosEvent, ProcTarget};
use crate::link::{LinkFactory, LinkSender, NodeInbox};
use crate::message::{Frame, NodeId, Payload};
use crate::node::collector::{AggPolicy, Collector};
use crate::node::device::device_node;
use crate::node::report::{assemble_report, NodeReport, RunTallies, SimReport};
use crate::node::tier::{Escalation, FanIn, FeatureSection, ScoresSection, TierNode};
use crate::obs::{Counter, LinkCounters, NodeObs, ObsEvent, RunObs};
use crate::reliability::{run_retransmit_pump, ReliabilityMode};
use crate::topology::{
    decode_role_manifest, encode_role_manifest, HierarchyConfig, RoleExtras, TierExitRule, Topology,
};
use crate::transport::{InboxBinding, RedialHandle, TransportConfig};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError};
use ddnn_core::{Ddnn, DdnnConfig, ExitPolicy};
use ddnn_tensor::Tensor;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Budget for each stdio handshake phase (and the post-run telemetry
/// read) before the launcher declares the child hung and kills it.
/// Generous: debug-build children rebuild the model before answering.
const PHASE_TIMEOUT: Duration = Duration::from_secs(120);

/// How long a role process may linger after its `DONE` line before the
/// bounded reap kills it and reports a typed error.
const REAP_GRACE: Duration = Duration::from_secs(15);

/// Heartbeat staleness (in heartbeat periods) that books a
/// `proc.{role}.heartbeat_misses` count.
const MISS_PERIODS: u64 = 4;

/// A live child whose heartbeat is older than this is declared hung and
/// folded into degradation exactly like a dead one. Far above any
/// scheduling jitter a loaded CI machine produces.
const HEARTBEAT_HANG: Duration = Duration::from_secs(10);

/// Respawn generations space their ARQ transport sequence numbers this
/// far apart, so a restarted sender's frames land above everything its
/// predecessor could have sent (see `ArqRecvState` rebasing).
const TSEQ_GENERATION_STRIDE: u32 = 1 << 20;

/// Which OS process hosts a node.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Role {
    /// All end devices (one thread per device, like the in-process run).
    Devices,
    /// The score-aggregating gateway.
    Gateway,
    /// Feature tier `k` of the chain.
    Tier(usize),
}

impl Role {
    fn token(&self) -> String {
        match self {
            Role::Devices => "devices".to_string(),
            Role::Gateway => "gateway".to_string(),
            Role::Tier(k) => format!("tier:{k}"),
        }
    }

    fn parse(s: &str) -> Result<Role> {
        match s {
            "devices" => Ok(Role::Devices),
            "gateway" => Ok(Role::Gateway),
            other => match other.strip_prefix("tier:").and_then(|k| k.parse().ok()) {
                Some(k) => Ok(Role::Tier(k)),
                None => Err(RuntimeError::Protocol { reason: format!("unknown role {other:?}") }),
            },
        }
    }

    /// The observability label (`devices`, `gateway`, `tier{k}`) —
    /// matches [`ProcTarget`]'s display form, used in `proc.{role}.*`
    /// counters, timeline events and [`RuntimeError::Peer`].
    fn label(&self) -> String {
        match self {
            Role::Devices => "devices".to_string(),
            Role::Gateway => "gateway".to_string(),
            Role::Tier(k) => format!("tier{k}"),
        }
    }

    /// The role a chaos event targets.
    fn of_target(t: ProcTarget) -> Role {
        match t {
            ProcTarget::Devices => Role::Devices,
            ProcTarget::Gateway => Role::Gateway,
            ProcTarget::Tier(k) => Role::Tier(k),
        }
    }
}

/// Which endpoint of a link lives where: the launcher (orchestrator) or
/// one of the spawned roles.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Host {
    Launcher,
    Role(Role),
}

/// One link of the canonical wiring, in report-creation order.
struct LinkSpec {
    name: String,
    /// Sending node's wire identity (receivers key ARQ state by it).
    from: NodeId,
    sender: Host,
    receiver: Host,
    /// Destination inbox the sender connects to.
    inbox: String,
    /// Whether the link appears in the report's per-link stats (the
    /// sensor feeds never did).
    tracked: bool,
}

/// The canonical link table of a partition-implied topology, in the
/// exact order the in-process runner creates (and reports) them.
fn link_table(topology: &Topology) -> Vec<LinkSpec> {
    let n = topology.num_devices();
    let last = topology.tiers.len() - 1;
    let mut table = Vec::new();
    for d in 0..n {
        table.push(LinkSpec {
            name: format!("sensor->device{d}"),
            from: NodeId::Orchestrator,
            sender: Host::Launcher,
            receiver: Host::Role(Role::Devices),
            inbox: format!("device{d}"),
            tracked: false,
        });
        table.push(LinkSpec {
            name: format!("gateway->device{d}"),
            from: NodeId::Gateway,
            sender: Host::Role(Role::Gateway),
            receiver: Host::Role(Role::Devices),
            inbox: format!("device{d}"),
            tracked: true,
        });
        table.push(LinkSpec {
            name: format!("device{d}->gateway"),
            from: NodeId::Device(d as u8),
            sender: Host::Role(Role::Devices),
            receiver: Host::Role(Role::Gateway),
            inbox: "gateway".to_string(),
            tracked: true,
        });
        table.push(LinkSpec {
            name: format!("device{d}->{}", topology.tiers[0].name),
            from: NodeId::Device(d as u8),
            sender: Host::Role(Role::Devices),
            receiver: Host::Role(Role::Tier(0)),
            inbox: topology.tiers[0].name.clone(),
            tracked: true,
        });
    }
    table.push(LinkSpec {
        name: "gateway->orchestrator".to_string(),
        from: NodeId::Gateway,
        sender: Host::Role(Role::Gateway),
        receiver: Host::Launcher,
        inbox: "orchestrator".to_string(),
        tracked: true,
    });
    table.push(LinkSpec {
        name: format!("{}->orchestrator", topology.tiers[last].name),
        from: topology.tiers[last].id,
        sender: Host::Role(Role::Tier(last)),
        receiver: Host::Launcher,
        inbox: "orchestrator".to_string(),
        tracked: true,
    });
    for i in 0..last {
        table.push(LinkSpec {
            name: format!("{}->{}", topology.tiers[i].name, topology.tiers[i + 1].name),
            from: topology.tiers[i].id,
            sender: Host::Role(Role::Tier(i)),
            receiver: Host::Role(Role::Tier(i + 1)),
            inbox: topology.tiers[i + 1].name.clone(),
            tracked: true,
        });
        table.push(LinkSpec {
            name: format!("{}->orchestrator", topology.tiers[i].name),
            from: topology.tiers[i].id,
            sender: Host::Role(Role::Tier(i)),
            receiver: Host::Launcher,
            inbox: "orchestrator".to_string(),
            tracked: true,
        });
    }
    table
}

/// The inboxes a role binds (one per hosted node).
fn role_inboxes(role: &Role, topology: &Topology) -> Vec<String> {
    match role {
        Role::Devices => (0..topology.num_devices()).map(|d| format!("device{d}")).collect(),
        Role::Gateway => vec!["gateway".to_string()],
        Role::Tier(k) => vec![topology.tiers[*k].name.clone()],
    }
}

fn peer_err(endpoint: &str, reason: impl std::fmt::Display) -> RuntimeError {
    RuntimeError::Transport { endpoint: endpoint.to_string(), reason: reason.to_string() }
}

/// Reads a child's protocol lines until `stop`, feeding every other line
/// to `f` — bounded by `timeout`, so a wedged or dead child becomes a
/// typed [`RuntimeError::Peer`] instead of a hung pipe read. An `ERROR
/// <msg>` line relays the child's own typed failure.
fn read_lines_until(
    lines: &Receiver<String>,
    role: &str,
    stop: &str,
    timeout: Duration,
    mut f: impl FnMut(&str) -> Result<()>,
) -> Result<()> {
    let deadline = Instant::now() + timeout;
    loop {
        match lines.recv_deadline(deadline) {
            Ok(line) => {
                if line == stop {
                    return Ok(());
                }
                if let Some(msg) = line.strip_prefix("ERROR ") {
                    return Err(RuntimeError::Peer { role: role.to_string(), reason: msg.into() });
                }
                f(&line)?;
            }
            Err(RecvTimeoutError::Timeout) => {
                return Err(RuntimeError::Peer {
                    role: role.to_string(),
                    reason: format!("timed out waiting for {stop}"),
                });
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err(RuntimeError::Peer {
                    role: role.to_string(),
                    reason: format!("exited before sending {stop}"),
                });
            }
        }
    }
}

/// Parses an address-exchange line (`<prefix> <key> <ip:port>`).
fn parse_addr_line<'l>(
    line: &'l str,
    prefix: &str,
    kind: TransportConfig,
) -> Result<Option<(&'l str, InboxBinding)>> {
    let Some(rest) = line.strip_prefix(prefix) else {
        return Ok(None);
    };
    let (key, addr) = rest.trim().split_once(' ').ok_or_else(|| RuntimeError::Protocol {
        reason: format!("malformed address line {line:?}"),
    })?;
    let addr = addr.parse().map_err(|_| RuntimeError::Protocol {
        reason: format!("malformed socket address in {line:?}"),
    })?;
    Ok(Some((key, InboxBinding::socket(kind, addr)?)))
}

fn fmt_link_line(name: &str, stats: &LinkCounters) -> String {
    let s = stats.snapshot();
    format!(
        "LINK {name} {} {} {} {} {} {} {} {} {}",
        s.frames,
        s.payload_bytes,
        s.retx_payload_bytes,
        s.header_bytes,
        s.frames_dropped,
        s.frames_duplicated,
        s.frames_retransmitted,
        s.ack_bytes,
        s.frames_corrupted,
    )
}

/// Adds a `LINK` line's counters into the launcher's folded cell block.
fn fold_link_line(line: &str, by_name: &HashMap<String, Arc<LinkCounters>>) -> Result<()> {
    let mut it = line.split_whitespace().skip(1);
    let name = it.next().ok_or_else(|| RuntimeError::Protocol {
        reason: format!("malformed LINK line {line:?}"),
    })?;
    let cells = by_name.get(name).ok_or_else(|| RuntimeError::Protocol {
        reason: format!("LINK line for unknown link {name:?}"),
    })?;
    let fields = [
        &cells.frames,
        &cells.payload_bytes,
        &cells.retx_payload_bytes,
        &cells.header_bytes,
        &cells.frames_dropped,
        &cells.frames_duplicated,
        &cells.frames_retransmitted,
        &cells.ack_bytes,
        &cells.frames_corrupted,
    ];
    for cell in fields {
        let v: u64 = it.next().and_then(|t| t.parse().ok()).ok_or_else(|| {
            RuntimeError::Protocol { reason: format!("malformed LINK line {line:?}") }
        })?;
        cell.add(v);
    }
    Ok(())
}

fn fmt_node_line(report: &NodeReport) -> String {
    let timeouts: Vec<String> =
        report.device_timeouts.iter().map(|(d, c)| format!("{d}:{c}")).collect();
    let degraded: Vec<String> = report.degraded.iter().map(u64::to_string).collect();
    format!(
        "NODE corrupt={} timeouts={} degraded={}",
        report.corrupt_discards,
        timeouts.join(","),
        degraded.join(","),
    )
}

fn parse_node_line(line: &str) -> Result<NodeReport> {
    let malformed = || RuntimeError::Protocol { reason: format!("malformed NODE line {line:?}") };
    let mut report = NodeReport::default();
    for tok in line.split_whitespace().skip(1) {
        if let Some(v) = tok.strip_prefix("corrupt=") {
            report.corrupt_discards = v.parse().map_err(|_| malformed())?;
        } else if let Some(v) = tok.strip_prefix("timeouts=") {
            for pair in v.split(',').filter(|p| !p.is_empty()) {
                let (d, c) = pair.split_once(':').ok_or_else(malformed)?;
                report.device_timeouts.push((
                    d.parse().map_err(|_| malformed())?,
                    c.parse().map_err(|_| malformed())?,
                ));
            }
        } else if let Some(v) = tok.strip_prefix("degraded=") {
            for s in v.split(',').filter(|s| !s.is_empty()) {
                report.degraded.push(s.parse().map_err(|_| malformed())?);
            }
        }
    }
    Ok(report)
}

/// Typed rejection of everything a multi-process run cannot carry across
/// process boundaries — raised before any process is spawned.
fn validate_launch(cfg: &HierarchyConfig) -> Result<()> {
    let reject = |reason: String| Err(RuntimeError::Config { reason });
    if !cfg.transport.is_socket() {
        return reject(
            "multi-process runs need a socket transport (set cfg.transport to tcp or udp)"
                .to_string(),
        );
    }
    if cfg.elastic.is_some() {
        return reject("elastic orchestration is in-process only (unset cfg.elastic)".to_string());
    }
    if cfg.stream.is_some() {
        return reject("streaming arrivals are in-process only (unset cfg.stream)".to_string());
    }
    if cfg.fault_plan.is_active() {
        return reject(
            "fault injection is in-process only (its seeded per-link state cannot span \
             processes); unset cfg.fault_plan"
                .to_string(),
        );
    }
    if !cfg.failed_devices.is_empty() {
        return reject(
            "static device failures are in-process only (unset cfg.failed_devices)".to_string(),
        );
    }
    if !cfg.reliability.link_overrides.is_empty() {
        return reject(
            "per-link reliability overrides are in-process only (unset link_overrides)".to_string(),
        );
    }
    Ok(())
}

/// One supervised role process: the child, its stdin (handshake +
/// `REWIRE` control lines), the bridged stdout line stream, and the
/// liveness state the supervisor polls.
struct Supervised {
    role: Role,
    child: Child,
    stdin: ChildStdin,
    /// Non-heartbeat stdout lines, bridged off the reader thread.
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
    /// Milliseconds since the run epoch of the child's last `HB` line.
    beat: Arc<AtomicU64>,
    /// False once killed (by chaos, by the hang detector) or reaped.
    alive: bool,
    /// Spawn generation: 0 for the original process, +1 per respawn.
    generation: u32,
}

impl Supervised {
    /// SIGKILLs the child and reaps it; the stdout reader drains to EOF.
    fn kill_now(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.alive = false;
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Supervised {
    fn drop(&mut self) {
        // Only reached with a live child on error paths: don't leave
        // orphan processes serving sockets.
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// Spawns one role process, starts its stdout bridge (heartbeat lines
/// update `beat`; everything else queues for the supervisor), and sends
/// the `ROLE` + manifest preamble.
fn spawn_supervised(
    node_exe: &Path,
    role: Role,
    manifest: &str,
    epoch: Instant,
    generation: u32,
) -> Result<Supervised> {
    let label = role.label();
    let mut child = Command::new(node_exe)
        .arg("host")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| peer_err(&label, format!("spawn failed: {e}")))?;
    let mut stdin = child.stdin.take().ok_or_else(|| peer_err(&label, "no stdin pipe"))?;
    let stdout = child.stdout.take().ok_or_else(|| peer_err(&label, "no stdout"))?;
    let beat = Arc::new(AtomicU64::new(epoch.elapsed().as_millis() as u64));
    let (tx, lines) = unbounded();
    let beat_cell = Arc::clone(&beat);
    let reader = std::thread::spawn(move || {
        let mut r = BufReader::new(stdout);
        let mut line = String::new();
        loop {
            line.clear();
            match r.read_line(&mut line) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
            let t = line.trim_end();
            if t.starts_with("HB ") {
                beat_cell.store(epoch.elapsed().as_millis() as u64, Ordering::Release);
            } else if tx.send(t.to_string()).is_err() {
                return;
            }
        }
    });
    write!(stdin, "ROLE {}\n{manifest}END\n", role.token())
        .and_then(|()| stdin.flush())
        .map_err(|e| peer_err(&label, e))?;
    Ok(Supervised {
        role,
        child,
        stdin,
        lines,
        reader: Some(reader),
        beat,
        alive: true,
        generation,
    })
}

/// The supervisor's per-role death/respawn/staleness counters
/// (`proc.{role}.kills` / `.respawns` / `.heartbeat_misses`).
struct RoleCounters {
    kills: Arc<Counter>,
    respawns: Arc<Counter>,
    hb_misses: Arc<Counter>,
}

impl RoleCounters {
    fn for_role(obs: &RunObs, label: &str) -> Self {
        RoleCounters {
            kills: obs.registry().counter(&format!("proc.{label}.kills")),
            respawns: obs.registry().counter(&format!("proc.{label}.respawns")),
            hb_misses: obs.registry().counter(&format!("proc.{label}.heartbeat_misses")),
        }
    }
}

/// Sends one `REWIRE <name> <addr>` control line to a surviving role.
fn rewire(procs: &mut [Supervised], role: &Role, name: &str, addr: SocketAddr) -> Result<()> {
    if let Some(p) = procs.iter_mut().find(|p| p.role == *role && p.alive) {
        writeln!(p.stdin, "REWIRE {name} {addr}")
            .and_then(|()| p.stdin.flush())
            .map_err(|e| peer_err(&p.role.label(), e))?;
    }
    Ok(())
}

/// Respawns a dead role: spawn + full re-handshake with the same
/// manifest (plus a per-generation `tseq_base`), then re-point every
/// surviving sender — the launcher's own via its [`RedialHandle`], the
/// other roles' via `REWIRE` lines — at the role's freshly bound ports.
/// The restarted role rejoins at whatever sample the orchestrator drives
/// next; samples lost while it was down stay typed as timeouts.
#[allow(clippy::too_many_arguments)]
fn respawn_role(
    node_exe: &Path,
    role: &Role,
    base_manifest: &str,
    epoch: Instant,
    transport: TransportConfig,
    table: &[LinkSpec],
    addrs: &mut HashMap<String, InboxBinding>,
    ack_map: &mut HashMap<String, InboxBinding>,
    procs: &mut [Supervised],
    launcher_redial: &RedialHandle,
) -> Result<()> {
    let label = role.label();
    let idx = procs
        .iter()
        .position(|p| p.role == *role)
        .ok_or_else(|| peer_err(&label, "respawn of a role that was never launched"))?;
    let generation = procs[idx].generation + 1;
    let tseq_base = generation.wrapping_mul(TSEQ_GENERATION_STRIDE);
    let manifest = format!("{base_manifest}tseq_base={tseq_base}\n");
    let mut p = spawn_supervised(node_exe, role.clone(), &manifest, epoch, generation)?;

    // Re-handshake: the same four phases as launch, against live maps.
    let mut moved: Vec<(String, InboxBinding)> = Vec::new();
    read_lines_until(&p.lines, &label, "BOUND", PHASE_TIMEOUT, |line| {
        if let Some((name, binding)) = parse_addr_line(line, "PORT ", transport)? {
            moved.push((name.to_string(), binding));
        }
        Ok(())
    })?;
    for (name, binding) in &moved {
        addrs.insert(name.clone(), binding.clone());
    }
    let mut msg = String::new();
    for (name, binding) in addrs.iter() {
        if let Some(addr) = binding.addr() {
            msg.push_str(&format!("ADDR {name} {addr}\n"));
        }
    }
    msg.push_str("SENDERS\n");
    p.stdin
        .write_all(msg.as_bytes())
        .and_then(|()| p.stdin.flush())
        .map_err(|e| peer_err(&label, e))?;
    let mut moved_acks: Vec<(String, InboxBinding)> = Vec::new();
    read_lines_until(&p.lines, &label, "ACKBOUND", PHASE_TIMEOUT, |line| {
        if let Some((name, binding)) = parse_addr_line(line, "PORT ack:", transport)? {
            moved_acks.push((name.to_string(), binding));
        }
        Ok(())
    })?;
    for (name, binding) in &moved_acks {
        ack_map.insert(name.clone(), binding.clone());
    }
    let mut msg = String::new();
    for (name, binding) in ack_map.iter() {
        if let Some(addr) = binding.addr() {
            msg.push_str(&format!("ACK {name} {addr}\n"));
        }
    }
    msg.push_str("GO\n");
    p.stdin
        .write_all(msg.as_bytes())
        .and_then(|()| p.stdin.flush())
        .map_err(|e| peer_err(&label, e))?;
    p.beat.store(epoch.elapsed().as_millis() as u64, Ordering::Release);

    // Re-point the survivors: data links into the role's moved inboxes,
    // and the ack return paths of the links the role sends (their
    // receivers hold the matching `ack:{link}` senders).
    for spec in table {
        if let Some((_, binding)) = moved.iter().find(|(n, _)| *n == spec.inbox) {
            if let Some(addr) = binding.addr() {
                match &spec.sender {
                    Host::Launcher => {
                        launcher_redial.redial(&spec.name, addr);
                    }
                    Host::Role(r) if r != role => rewire(procs, r, &spec.name, addr)?,
                    Host::Role(_) => {}
                }
            }
        }
        if let Some((_, binding)) = moved_acks.iter().find(|(n, _)| *n == spec.name) {
            if let Some(addr) = binding.addr() {
                let ack_name = format!("ack:{}", spec.name);
                match &spec.receiver {
                    Host::Launcher => {
                        launcher_redial.redial(&ack_name, addr);
                    }
                    Host::Role(r) if r != role => rewire(procs, r, &ack_name, addr)?,
                    Host::Role(_) => {}
                }
            }
        }
    }
    procs[idx] = p;
    Ok(())
}

/// Runs the hierarchy as real OS processes on localhost: one process per
/// role (all devices, the gateway, each tier), spawned from `node_exe`
/// (the `ddnn-node` binary, `host` subcommand), with this process acting
/// as the orchestrator. The model is rebuilt in every process from the
/// seeded `model_cfg`, so weights — and therefore verdicts — are
/// bit-identical to an in-process [`run_topology`](super::run_topology)
/// of the same configuration.
///
/// `cfg.transport` must be a socket transport; elastic orchestration,
/// streaming, link fault injection and static device failures are
/// rejected (they are in-process features). Process chaos
/// (`cfg.proc_chaos`) and socket chaos (`cfg.socket_chaos`) are this
/// runner's own fault model: seeded role kills/respawns and seeded
/// datagram/stream mangling, supervised end to end.
///
/// # Errors
///
/// Returns typed configuration errors for unsupported configurations,
/// transport errors when spawning or a socket operation fails, and
/// [`RuntimeError::Peer`] when a role process hangs past a handshake,
/// telemetry or reap deadline (the launcher kills it first).
pub fn launch(
    node_exe: &Path,
    model_cfg: &DdnnConfig,
    device_views: &[Tensor],
    labels: &[usize],
    cfg: &HierarchyConfig,
) -> Result<SimReport> {
    validate_launch(cfg)?;
    let model = Ddnn::new(model_cfg.clone());
    let partition = model.partition();
    let topology = Topology::from_partition(&partition);
    let num_devices = topology.num_devices();
    validate_run(num_devices, device_views, labels, cfg)?;
    cfg.proc_chaos.validate(topology.tiers.len())?;
    let n_samples = labels.len();
    let dl = cfg.deadlines.unwrap_or_default();
    let clock = SimClock::start();
    let obs = Arc::new(RunObs::new(&cfg.obs));
    let mut factory =
        LinkFactory::new(&cfg.fault_plan, &cfg.reliability, &dl, Arc::clone(&obs), cfg.transport);
    factory.set_socket_chaos(cfg.socket_chaos);
    let table = link_table(&topology);
    let manifest = encode_role_manifest(&topology.config, cfg);
    let epoch = Instant::now();

    // Spawn one supervised process per role.
    let mut roles = vec![Role::Devices, Role::Gateway];
    roles.extend((0..topology.tiers.len()).map(Role::Tier));
    let mut procs: Vec<Supervised> = Vec::new();
    for role in roles {
        procs.push(spawn_supervised(node_exe, role, &manifest, epoch, 0)?);
    }

    // Phase A: collect every role's inbox addresses, add the launcher's.
    let mut addrs: HashMap<String, InboxBinding> = HashMap::new();
    for p in &procs {
        read_lines_until(&p.lines, &p.role.label(), "BOUND", PHASE_TIMEOUT, |line| {
            if let Some((name, binding)) = parse_addr_line(line, "PORT ", cfg.transport)? {
                addrs.insert(name.to_string(), binding);
            }
            Ok(())
        })?;
    }
    let (orch_binding, mut orch_inbox) = factory.inbox("orchestrator")?;
    addrs.insert("orchestrator".to_string(), orch_binding);

    // The launcher's own senders: the per-device sensor feeds. Their ack
    // inboxes (under ARQ) join the ack exchange like any role's.
    let mut ack_map: HashMap<String, InboxBinding> = HashMap::new();
    let mut capture_tx: Vec<LinkSender> = Vec::new();
    for spec in table.iter().filter(|s| s.sender == Host::Launcher) {
        let to = addrs.get(&spec.inbox).ok_or_else(|| {
            peer_err(&spec.name, format!("no advertised address for inbox {:?}", spec.inbox))
        })?;
        let to = to.clone();
        let (s, _stats, ack) = factory.sender_with_ack_inbox(&to, &spec.name, None)?;
        if let Some(binding) = ack {
            ack_map.insert(spec.name.clone(), binding);
        }
        capture_tx.push(s);
    }
    for p in &mut procs {
        let label = p.role.label();
        let mut msg = String::new();
        for (name, binding) in &addrs {
            if let Some(addr) = binding.addr() {
                msg.push_str(&format!("ADDR {name} {addr}\n"));
            }
        }
        msg.push_str("SENDERS\n");
        p.stdin
            .write_all(msg.as_bytes())
            .and_then(|()| p.stdin.flush())
            .map_err(|e| peer_err(&label, e))?;
    }

    // Phase B: collect ack-inbox addresses; wire the launcher's own
    // inbound ARQ links (the verdict links into the orchestrator inbox).
    for p in &procs {
        read_lines_until(&p.lines, &p.role.label(), "ACKBOUND", PHASE_TIMEOUT, |line| {
            if let Some((name, binding)) = parse_addr_line(line, "PORT ack:", cfg.transport)? {
                ack_map.insert(name.to_string(), binding);
            }
            Ok(())
        })?;
    }
    let mut recv_side_stats: Vec<(String, Arc<LinkCounters>)> = Vec::new();
    if matches!(cfg.reliability.mode, ReliabilityMode::Arq) {
        for spec in table.iter().filter(|s| s.receiver == Host::Launcher) {
            let ack = ack_map.get(&spec.name).ok_or_else(|| {
                peer_err(&spec.name, "sender advertised no ack inbox for an ARQ link")
            })?;
            let ack = ack.clone();
            let (from, recv, stats) = factory.remote_recv_state(&ack, &spec.name, spec.from)?;
            orch_inbox.register(Some((from, recv)));
            recv_side_stats.push((spec.name.clone(), stats));
        }
    }
    for p in &mut procs {
        let label = p.role.label();
        let mut msg = String::new();
        for (name, binding) in &ack_map {
            if let Some(addr) = binding.addr() {
                msg.push_str(&format!("ACK {name} {addr}\n"));
            }
        }
        msg.push_str("GO\n");
        p.stdin
            .write_all(msg.as_bytes())
            .and_then(|()| p.stdin.flush())
            .map_err(|e| peer_err(&label, e))?;
        // The handshake (which includes the child's model rebuild) does
        // not count as heartbeat staleness.
        p.beat.store(epoch.elapsed().as_millis() as u64, Ordering::Release);
    }

    // Drive the samples exactly like the in-process orchestrator, with
    // the same analytic latency model.
    let classes = topology.config.num_classes;
    let header = factory.wire_format().header_bytes();
    let summary_bytes = header + 4 + 4 * classes;
    let map_bytes = header + 6 + 4 + topology.config.device_map_elems().div_ceil(8);
    let latency_of = |tier: u8| {
        let mut ms = cfg.local_link.transfer_ms(summary_bytes);
        for _ in 0..tier {
            ms += cfg.uplink.transfer_ms(map_bytes);
        }
        ms
    };
    let arq_states = std::mem::take(&mut factory.arq_states);
    let redial = factory.redial_handle();
    let mut chaos_events: Vec<ProcChaosEvent> = cfg.proc_chaos.events.clone();
    chaos_events.sort_by_key(|e| e.at_sample);
    let counters: HashMap<String, RoleCounters> = procs
        .iter()
        .map(|p| {
            let label = p.role.label();
            let c = RoleCounters::for_role(&obs, &label);
            (label, c)
        })
        .collect();
    let hb_ms = RoleExtras::default().heartbeat_ms;
    let pump_stop = AtomicBool::new(false);
    let mut tallies: Option<RunTallies> = None;
    std::thread::scope(|scope| -> Result<()> {
        let _pump_guard = PumpStopGuard(&pump_stop);
        if !arq_states.is_empty() {
            scope.spawn(|| run_retransmit_pump(&arq_states, &pump_stop));
        }
        // Each capture round doubles as a supervision tick: fire the
        // chaos events due at this sample, then poll every live child's
        // exit status and heartbeat age. Dead roles are not special-cased
        // anywhere downstream — their silence folds into the same
        // deadline degradation as in-process loss.
        let mut next_event = 0usize;
        let send_captures = |i: usize| -> Result<()> {
            let seq = i as u64;
            while next_event < chaos_events.len() && chaos_events[next_event].at_sample <= seq {
                let ev = chaos_events[next_event];
                next_event += 1;
                let role = Role::of_target(ev.role);
                let label = role.label();
                match ev.action {
                    ProcAction::Kill => {
                        if let Some(p) = procs.iter_mut().find(|p| p.role == role && p.alive) {
                            p.kill_now();
                            if let Some(c) = counters.get(&label) {
                                c.kills.incr();
                            }
                            obs.emit(|| ObsEvent::ProcKilled {
                                role: label.clone(),
                                at_sample: seq,
                            });
                        }
                    }
                    ProcAction::Respawn => {
                        respawn_role(
                            node_exe,
                            &role,
                            &manifest,
                            epoch,
                            cfg.transport,
                            &table,
                            &mut addrs,
                            &mut ack_map,
                            &mut procs,
                            &redial,
                        )?;
                        if let Some(c) = counters.get(&label) {
                            c.respawns.incr();
                        }
                        obs.emit(|| ObsEvent::ProcRespawned {
                            role: label.clone(),
                            at_sample: seq,
                        });
                    }
                }
            }
            let now_ms = epoch.elapsed().as_millis() as u64;
            for p in procs.iter_mut() {
                if !p.alive {
                    continue;
                }
                let label = p.role.label();
                if let Ok(Some(_)) = p.child.try_wait() {
                    // Died on its own: reap, and degrade like a kill.
                    p.alive = false;
                    if let Some(h) = p.reader.take() {
                        let _ = h.join();
                    }
                    if let Some(c) = counters.get(&label) {
                        c.kills.incr();
                    }
                    obs.emit(|| ObsEvent::ProcKilled { role: label.clone(), at_sample: seq });
                    continue;
                }
                let stale = now_ms.saturating_sub(p.beat.load(Ordering::Acquire));
                if stale > MISS_PERIODS * hb_ms {
                    if let Some(c) = counters.get(&label) {
                        c.hb_misses.incr();
                    }
                    if stale > HEARTBEAT_HANG.as_millis() as u64 {
                        // Alive but silent for seconds: a wedged process
                        // is as gone as a dead one.
                        p.kill_now();
                        if let Some(c) = counters.get(&label) {
                            c.kills.incr();
                        }
                        obs.emit(|| ObsEvent::ProcKilled { role: label.clone(), at_sample: seq });
                    }
                }
            }
            for (d, cap) in capture_tx.iter().enumerate() {
                let view = device_views[d].index_axis0(i)?;
                cap.send(&Frame::new(seq, NodeId::Orchestrator, Payload::Capture { view }));
            }
            Ok(())
        };
        let t = drive_samples(
            n_samples,
            dl,
            clock,
            &mut orch_inbox,
            send_captures,
            |tier| topology.exit_point_of(tier),
            latency_of,
            &obs,
            None,
        )?;
        pump_stop.store(true, Ordering::Release);

        // Orderly shutdown, devices first — skipping dead roles (a TCP
        // connect to a killed process's port would error, and nobody is
        // listening anyway). Real UDP can drop a datagram outright, and a
        // lost shutdown frame would hang a role forever — repeat it;
        // extra shutdowns land unread in a dead node's inbox. Under
        // socket chaos the drop odds compound, so repeat harder.
        let alive = |role: Role| procs.iter().any(|p| p.role == role && p.alive);
        let repeats = match (cfg.transport, cfg.socket_chaos.is_active()) {
            (TransportConfig::Udp, true) => 8,
            (TransportConfig::Udp, false) => 3,
            _ => 1,
        };
        for _ in 0..repeats {
            for cap in &capture_tx {
                cap.send(&Frame::new(0, NodeId::Orchestrator, Payload::Shutdown));
            }
            if alive(Role::Gateway) {
                let gw = addrs.get("gateway").ok_or_else(|| {
                    peer_err("gateway", "no advertised address for the gateway inbox")
                })?;
                factory.shutdown_sender(gw, "orchestrator->gateway")?.send(&Frame::new(
                    0,
                    NodeId::Orchestrator,
                    Payload::Shutdown,
                ));
            }
            for (k, spec) in topology.tiers.iter().enumerate() {
                if !alive(Role::Tier(k)) {
                    continue;
                }
                let to = addrs.get(&spec.name).ok_or_else(|| {
                    peer_err(&spec.name, "no advertised address for a tier inbox")
                })?;
                factory
                    .shutdown_sender(to, &format!("orchestrator->{}", spec.name))?
                    .send(&Frame::new(0, NodeId::Orchestrator, Payload::Shutdown));
            }
        }
        tallies = Some(t);
        Ok(())
    })?;

    // Fold every role's telemetry into the canonical report shape: one
    // counter block per tracked link (sender-side counters and the
    // receiver's ack accounting sum under the same name), the legacy
    // zero-stat placeholders, and the node reports in role order.
    let mut link_stats: Vec<(String, Arc<LinkCounters>)> = table
        .iter()
        .filter(|s| s.tracked)
        .map(|s| (s.name.clone(), Arc::new(LinkCounters::default())))
        .collect();
    for name in &topology.placeholder_links {
        link_stats.push((name.clone(), Arc::new(LinkCounters::default())));
    }
    let by_name: HashMap<String, Arc<LinkCounters>> =
        link_stats.iter().map(|(n, s)| (n.clone(), Arc::clone(s))).collect();
    let mut node_reports: Vec<NodeReport> = Vec::new();
    for p in &mut procs {
        if !p.alive {
            // A killed role's telemetry died with it; its links keep
            // their zeroed placeholders so the report shape is stable.
            continue;
        }
        let endpoint = p.role.label();
        read_lines_until(&p.lines, &endpoint, "DONE", PHASE_TIMEOUT, |line| {
            if line.starts_with("LINK ") {
                fold_link_line(line, &by_name)?;
            } else if line.starts_with("NODE ") {
                node_reports.push(parse_node_line(line)?);
            }
            Ok(())
        })?;
    }
    for (name, stats) in &recv_side_stats {
        if let Some(cells) = by_name.get(name) {
            cells.ack_bytes.add(stats.ack_bytes.get());
        }
    }
    // Bounded reap: a role that printed DONE but will not exit (wedged
    // destructor, leaked thread) must not hang the launcher forever.
    for p in &mut procs {
        if !p.alive {
            continue;
        }
        let endpoint = p.role.label();
        let reap_deadline = Instant::now() + REAP_GRACE;
        let status = loop {
            match p.child.try_wait().map_err(|e| peer_err(&endpoint, e))? {
                Some(status) => break status,
                None if Instant::now() >= reap_deadline => {
                    p.kill_now();
                    return Err(peer_err(
                        &endpoint,
                        format!(
                            "role process did not exit within {REAP_GRACE:?} after DONE; killed"
                        ),
                    ));
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        p.alive = false;
        if let Some(h) = p.reader.take() {
            let _ = h.join();
        }
        if !status.success() {
            return Err(peer_err(&endpoint, format!("role process exited with {status}")));
        }
    }
    factory.shutdown_transport();

    node_reports.push(NodeReport {
        corrupt_discards: orch_inbox.corrupt_discards(),
        ..NodeReport::default()
    });
    let tallies = tallies.ok_or_else(|| RuntimeError::Topology {
        reason: "launcher scope finished without producing tallies".to_string(),
    })?;
    Ok(assemble_report(tallies, labels, link_stats, node_reports, num_devices, &obs))
}

/// Serves one role of a multi-process run over stdin/stdout — the body
/// of the `ddnn-node host` subcommand. Reads the role assignment and
/// manifest, performs the socket handshake, runs the role's nodes until
/// the orchestrator's shutdown, and reports link/node telemetry back.
/// After `GO` it also emits `HB <n>` heartbeat lines (so the launcher
/// can tell a busy role from a wedged one) and answers `REWIRE` control
/// lines by re-pointing the named sender at a respawned peer's port.
///
/// # Errors
///
/// Any failure is also written to stdout as an `ERROR <msg>` line (so
/// the launcher sees it) before being returned.
pub fn host_role() -> Result<()> {
    host_role_io(BufReader::new(std::io::stdin()), std::io::stdout())
}

fn host_role_io<I, O>(input: I, out: O) -> Result<()>
where
    I: BufRead + Send + 'static,
    O: Write + Send + 'static,
{
    // Stdout is shared between the handshake/telemetry writer and the
    // heartbeat thread; the mutex keeps whole lines atomic.
    let out = Arc::new(Mutex::new(out));
    let result = run_role(input, &out);
    if let Err(e) = &result {
        let mut o = out.lock();
        let _ = writeln!(o, "ERROR {e}");
        let _ = o.flush();
    }
    result
}

/// Serves launcher control lines for the rest of the run. Today that is
/// `REWIRE <link|ack:link> <ip:port>`: a peer was respawned on a fresh
/// port, so re-point the named sender's dial at it.
fn control_loop(input: impl BufRead, redial: &RedialHandle) {
    for line in input.lines() {
        let Ok(line) = line else { return };
        if let Some(rest) = line.trim_end().strip_prefix("REWIRE ") {
            if let Some((name, addr)) = rest.rsplit_once(' ') {
                if let Ok(addr) = addr.parse::<SocketAddr>() {
                    redial.redial(name, addr);
                }
            }
        }
    }
}

fn read_control_line(input: &mut impl BufRead) -> Result<String> {
    let mut line = String::new();
    let n = input.read_line(&mut line).map_err(|e| peer_err("launcher", e))?;
    if n == 0 {
        return Err(peer_err("launcher", "stdin closed mid-handshake"));
    }
    Ok(line.trim_end().to_string())
}

fn run_role<I, O>(mut input: I, out: &Arc<Mutex<O>>) -> Result<()>
where
    I: BufRead + Send + 'static,
    O: Write + Send + 'static,
{
    let io_err = |e: std::io::Error| peer_err("launcher", e);

    // Role + manifest.
    let role_line = read_control_line(&mut input)?;
    let role = Role::parse(role_line.strip_prefix("ROLE ").ok_or_else(|| {
        RuntimeError::Protocol { reason: format!("expected ROLE line, got {role_line:?}") }
    })?)?;
    let mut manifest = String::new();
    loop {
        let line = read_control_line(&mut input)?;
        if line == "END" {
            break;
        }
        manifest.push_str(&line);
        manifest.push('\n');
    }
    let (model_cfg, cfg, extras) = decode_role_manifest(&manifest)?;

    // Rebuild this role's slice of the run: same seed, same weights,
    // same blanks as every other process.
    let model = Ddnn::new(model_cfg);
    let partition = model.partition();
    let topology = Topology::from_partition(&partition);
    let (blanks, tier_blanks) = compute_blanks(&topology)?;
    let num_devices = topology.num_devices();
    let live = vec![true; num_devices];
    // The manifest always carries deadlines; the default is the fallback.
    let dl = cfg.deadlines.unwrap_or_default();
    let clock = SimClock::start();
    let obs = Arc::new(RunObs::new(&cfg.obs));
    let mut factory =
        LinkFactory::new(&cfg.fault_plan, &cfg.reliability, &dl, Arc::clone(&obs), cfg.transport);
    factory.set_socket_chaos(cfg.socket_chaos);
    // A respawned role numbers its ARQ frames from a fresh generation
    // base so surviving receivers rebase instead of treating its frames
    // as ancient duplicates.
    factory.set_tseq_base(extras.tseq_base);
    let table = link_table(&topology);
    let me = Host::Role(role.clone());

    // Phase A: bind this role's inboxes and advertise their ports.
    let mut inboxes: HashMap<String, NodeInbox> = HashMap::new();
    for name in role_inboxes(&role, &topology) {
        let (binding, inbox) = factory.inbox(&name)?;
        let addr = binding
            .addr()
            .ok_or_else(|| peer_err(&name, "socket transport produced an addressless binding"))?;
        writeln!(out.lock(), "PORT {name} {addr}").map_err(io_err)?;
        inboxes.insert(name, inbox);
    }
    {
        let mut o = out.lock();
        writeln!(o, "BOUND").and_then(|()| o.flush()).map_err(io_err)?;
    }

    // Learn where every inbox lives.
    let mut addrs: HashMap<String, InboxBinding> = HashMap::new();
    loop {
        let line = read_control_line(&mut input)?;
        if line == "SENDERS" {
            break;
        }
        if let Some((name, binding)) = parse_addr_line(&line, "ADDR ", cfg.transport)? {
            addrs.insert(name.to_string(), binding);
        }
    }

    // Phase B: connect this role's senders (binding ack inboxes for ARQ
    // links along the way) and advertise the ack ports.
    let mut senders: HashMap<String, LinkSender> = HashMap::new();
    let mut reported: Vec<(String, Arc<LinkCounters>)> = Vec::new();
    for spec in table.iter().filter(|s| s.sender == me) {
        let to = addrs.get(&spec.inbox).ok_or_else(|| {
            peer_err(&spec.name, format!("launcher advertised no address for {:?}", spec.inbox))
        })?;
        let to = to.clone();
        let (s, stats, ack) = factory.sender_with_ack_inbox(&to, &spec.name, None)?;
        if spec.tracked {
            reported.push((spec.name.clone(), stats));
        }
        if let Some(binding) = ack {
            let addr = binding.addr().ok_or_else(|| {
                peer_err(&spec.name, "socket transport produced an addressless ack binding")
            })?;
            writeln!(out.lock(), "PORT ack:{} {addr}", spec.name).map_err(io_err)?;
        }
        senders.insert(spec.name.clone(), s);
    }
    {
        let mut o = out.lock();
        writeln!(o, "ACKBOUND").and_then(|()| o.flush()).map_err(io_err)?;
    }

    // Learn the ack inboxes and wire the receive side of inbound ARQ
    // links before any node starts consuming frames.
    let mut acks: HashMap<String, InboxBinding> = HashMap::new();
    loop {
        let line = read_control_line(&mut input)?;
        if line == "GO" {
            break;
        }
        if let Some((name, binding)) = parse_addr_line(&line, "ACK ", cfg.transport)? {
            acks.insert(name.to_string(), binding);
        }
    }
    if matches!(cfg.reliability.mode, ReliabilityMode::Arq) {
        for spec in table.iter().filter(|s| s.receiver == me) {
            let ack = acks
                .get(&spec.name)
                .ok_or_else(|| peer_err(&spec.name, "no ack inbox advertised for an ARQ link"))?;
            let ack = ack.clone();
            let (from, recv, stats) = factory.remote_recv_state(&ack, &spec.name, spec.from)?;
            let inbox = inboxes.get_mut(&spec.inbox).ok_or_else(|| RuntimeError::Topology {
                reason: format!(
                    "inbound link {:?} targets unbound inbox {:?}",
                    spec.name, spec.inbox
                ),
            })?;
            inbox.register(Some((from, recv)));
            if spec.tracked {
                reported.push((spec.name.clone(), stats));
            }
        }
    }

    // From here the launcher may send REWIRE lines at any time: hand
    // stdin to a control thread (detached — it dies with the process)
    // and start heartbeating so the launcher can tell a busy role from
    // a dead one.
    let redial = factory.redial_handle();
    std::thread::Builder::new()
        .name("ddnn-control".into())
        .spawn(move || control_loop(input, &redial))
        .map_err(io_err)?;
    let hb_stop = Arc::new(AtomicBool::new(false));
    let hb_thread = {
        let out = Arc::clone(out);
        let stop = Arc::clone(&hb_stop);
        let period = Duration::from_millis(extras.heartbeat_ms.max(1));
        std::thread::Builder::new()
            .name("ddnn-heartbeat".into())
            .spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Acquire) {
                    {
                        let mut o = out.lock();
                        if writeln!(o, "HB {n}").and_then(|()| o.flush()).is_err() {
                            return; // launcher is gone; nobody to reassure
                        }
                    }
                    n += 1;
                    std::thread::sleep(period);
                }
            })
            .map_err(io_err)?
    };

    // Run the role's nodes until the orchestrator's shutdown frames.
    let missing = |what: &str| RuntimeError::Topology {
        reason: format!("role {} is missing {what}", role.token()),
    };
    let arq_states = std::mem::take(&mut factory.arq_states);
    let pump_stop = AtomicBool::new(false);
    let mut node_reports: Vec<NodeReport> = Vec::new();
    let ran = std::thread::scope(|scope| -> Result<()> {
        let _pump_guard = PumpStopGuard(&pump_stop);
        if !arq_states.is_empty() {
            scope.spawn(|| run_retransmit_pump(&arq_states, &pump_stop));
        }
        let mut handles = Vec::new();
        match &role {
            Role::Devices => {
                for d in 0..num_devices {
                    let rx = inboxes
                        .remove(&format!("device{d}"))
                        .ok_or_else(|| missing("a device inbox"))?;
                    let to_gw = senders
                        .remove(&format!("device{d}->gateway"))
                        .ok_or_else(|| missing("a gateway link"))?;
                    let to_upper = senders
                        .remove(&format!("device{d}->{}", topology.tiers[0].name))
                        .ok_or_else(|| missing("an uplink"))?;
                    let part = topology.devices[d].clone();
                    let dev_obs = Arc::clone(&obs);
                    handles.push(scope.spawn(move || {
                        device_node(d, part, rx, to_gw, to_upper, 1, dev_obs, None)
                    }));
                }
            }
            Role::Gateway => {
                let gateway_to_device: Vec<Option<LinkSender>> = (0..num_devices)
                    .map(|d| senders.remove(&format!("gateway->device{d}")))
                    .collect();
                if gateway_to_device.iter().any(Option::is_none) {
                    return Err(missing("a device broadcast link"));
                }
                let collector = Collector::new(
                    num_devices,
                    blanks.iter().map(|b| b.scores.clone()).collect(),
                    AggPolicy::new(&dl, clock),
                    (0..num_devices).map(Some).collect(),
                    &live,
                );
                let node = TierNode {
                    name: "gateway".to_string(),
                    id: NodeId::Gateway,
                    exit_tier: 0,
                    section: ScoresSection { agg: topology.gateway.agg.clone() },
                    policy: ExitPolicy::Entropy(cfg.local_threshold),
                    fan_in: FanIn::Devices(num_devices),
                    inbox: inboxes.remove("gateway").ok_or_else(|| missing("its inbox"))?,
                    to_orchestrator: senders
                        .remove("gateway->orchestrator")
                        .ok_or_else(|| missing("its verdict link"))?,
                    escalation: Escalation::RequestFromDevices(gateway_to_device),
                    collector,
                    obs: NodeObs::for_node(&obs, "gateway"),
                    elastic: None,
                    batch_max: 1,
                };
                handles.push(scope.spawn(move || node.run()));
            }
            Role::Tier(k) => {
                let k = *k;
                let spec = topology.tiers.get(k).ok_or_else(|| missing("its tier spec"))?;
                let last = topology.tiers.len() - 1;
                let (sources, device_of_source) = if k == 0 {
                    (num_devices, (0..num_devices).map(Some).collect())
                } else {
                    (1, vec![None])
                };
                let collector = Collector::new(
                    sources,
                    tier_blanks[k].clone(),
                    AggPolicy::new(&dl, clock),
                    device_of_source,
                    &live,
                );
                let escalation = if k == last {
                    Escalation::Terminal
                } else {
                    Escalation::ForwardMap(
                        senders
                            .remove(&format!("{}->{}", spec.name, topology.tiers[k + 1].name))
                            .ok_or_else(|| missing("its forward link"))?,
                    )
                };
                let node = TierNode {
                    name: spec.name.clone(),
                    id: spec.id,
                    exit_tier: (k + 1).min(usize::from(u8::MAX)) as u8,
                    section: FeatureSection {
                        agg: spec.agg.clone(),
                        convs: spec.convs.clone(),
                        exit: spec.exit.clone(),
                    },
                    policy: match &spec.rule {
                        TierExitRule::ConfigEdgeThreshold => {
                            ExitPolicy::Entropy(cfg.edge_threshold)
                        }
                        TierExitRule::Fixed(t) => ExitPolicy::Entropy(*t),
                        TierExitRule::Terminal => ExitPolicy::Terminal,
                    },
                    fan_in: if k == 0 {
                        FanIn::Devices(num_devices)
                    } else {
                        FanIn::Tier(topology.tiers[k - 1].id)
                    },
                    inbox: inboxes.remove(&spec.name).ok_or_else(|| missing("its inbox"))?,
                    to_orchestrator: senders
                        .remove(&format!("{}->orchestrator", spec.name))
                        .ok_or_else(|| missing("its verdict link"))?,
                    escalation,
                    collector,
                    obs: NodeObs::for_node(&obs, &spec.name),
                    elastic: None,
                    batch_max: 1,
                };
                handles.push(scope.spawn(move || node.run()));
            }
        }
        for h in handles {
            node_reports.push(h.join().map_err(|_| RuntimeError::Disconnected {
                node: "panicked node thread".to_string(),
            })??);
        }
        Ok(())
    });
    hb_stop.store(true, Ordering::Release);
    let _ = hb_thread.join();
    ran?;
    factory.shutdown_transport();

    // Report what this role measured.
    let mut o = out.lock();
    for (name, stats) in &reported {
        writeln!(o, "{}", fmt_link_line(name, stats)).map_err(io_err)?;
    }
    for report in &node_reports {
        writeln!(o, "{}", fmt_node_line(report)).map_err(io_err)?;
    }
    writeln!(o, "DONE").and_then(|()| o.flush()).map_err(io_err)?;
    Ok(())
}
