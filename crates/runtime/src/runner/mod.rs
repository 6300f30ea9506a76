//! Executes a [`Topology`] over a labeled test set: every node runs on
//! its own thread, every tensor crossing a tier boundary is serialized to
//! the wire format and counted, and the staged inference protocol of
//! paper §III-D unfolds sample by sample.
//!
//! The protocol, per sample (the paper's six-step description for
//! configuration (e)):
//!
//! 1. the orchestrator pushes each device its sensor view (not a network
//!    transfer);
//! 2. every device runs its ConvP block + exit head and sends its float
//!    class-score vector to the gateway (always — Eq. 1's first term);
//! 3. the gateway aggregates, computes normalized entropy and exits the
//!    sample locally if confident;
//! 4. otherwise it broadcasts an offload request; each device sends its
//!    bit-packed binary feature map to the chain's first tier (Eq. 1's
//!    second term);
//! 5. each non-terminal tier aggregates, runs its ConvP chain, and exits
//!    if confident, otherwise forwards its own feature map up the chain;
//! 6. the terminal tier always classifies what reaches it.

mod baseline;
pub mod multiproc;
mod orchestrate;
mod streaming;

pub use baseline::run_cloud_only_baseline;
use orchestrate::{drive_samples, validate_run};
use streaming::drive_stream;

use crate::clock::SimClock;
use crate::error::{Result, RuntimeError};
use crate::fault::CrashState;
use crate::link::{LinkFactory, LinkSender};
use crate::message::{Frame, NodeId, Payload};
use crate::node::collector::{AggPolicy, Collector};
use crate::node::device::{blank_signature, device_node, BlankSignature};
use crate::node::report::{assemble_report, NodeReport, RunTallies, SimReport};
use crate::node::tier::{
    batched, Escalation, FanIn, FeatureSection, Feeder, ScoresSection, TierElastic, TierNode,
};
use crate::obs::{LinkCounters, NodeObs, RunObs};
use crate::orchestrator::rebalance::{compute_routing, probe};
use crate::orchestrator::{ControlState, DeviceElastic, ElasticDriver, NodeDirectory};
use crate::reliability::run_retransmit_pump;
use crate::topology::{HierarchyConfig, TierExitRule, Topology};
use ddnn_core::{DdnnPartition, ExitPolicy};
use ddnn_nn::{Layer, Mode};
use ddnn_tensor::{parallel, Tensor};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Raises a stop flag when dropped, so the retransmit pump always exits —
/// even when the run's scope closure returns early with an error.
pub(super) struct PumpStopGuard<'a>(pub(super) &'a AtomicBool);

impl Drop for PumpStopGuard<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Blank signatures for failed-device substitution plus the chained
/// per-tier blanks: tier 0 collects the device maps, so its blanks are
/// the device blank signatures; tier k>0 collects tier k−1's output, so
/// its blank is tier k−1's section applied to its own blanks — a silent
/// tier degrades to "nothing was seen" rather than garbage. Shared by
/// the in-process runner and the multi-process role hosts, which must
/// compute identical blanks from the same seeded model.
pub(super) fn compute_blanks(
    topology: &Topology,
) -> Result<(Vec<BlankSignature>, Vec<Vec<Tensor>>)> {
    // One forward pass per device on identical cloned sections — fan out
    // across the worker pool (results are collected in device order).
    let blanks: Vec<BlankSignature> = parallel::par_map_indexed(topology.num_devices(), |d| {
        blank_signature(&topology.devices[d], &topology.config)
    })
    .into_iter()
    .collect::<Result<_>>()?;
    let mut tier_blanks: Vec<Vec<Tensor>> = Vec::with_capacity(topology.tiers.len());
    tier_blanks.push(blanks.iter().map(|b| b.map.clone()).collect());
    for k in 1..topology.tiers.len() {
        let spec = &topology.tiers[k - 1];
        let mut agg = spec.agg.clone();
        let mut convs = spec.convs.clone();
        let mut x = agg.forward(&batched(tier_blanks[k - 1].clone())?)?;
        for conv in &mut convs {
            x = conv.forward(&x, Mode::Eval)?;
        }
        tier_blanks.push(vec![x.index_axis0(0)?]);
    }
    Ok((blanks, tier_blanks))
}

/// Executes distributed staged inference of a partitioned DDNN over a test
/// set: `device_views[d]` is device `d`'s per-sample view batch. The
/// hierarchy's shape is the one the partition implies
/// ([`Topology::from_partition`]).
///
/// # Errors
///
/// Returns an error for malformed inputs, failed-device indices out of
/// range, or any node/protocol failure.
pub fn run_distributed_inference(
    partition: &DdnnPartition,
    device_views: &[Tensor],
    labels: &[usize],
    cfg: &HierarchyConfig,
) -> Result<SimReport> {
    run_topology(&Topology::from_partition(partition), device_views, labels, cfg)
}

/// Executes distributed staged inference over an explicit [`Topology`] —
/// the legacy shapes and deeper built chains run through this one wiring.
///
/// # Errors
///
/// Returns an error for malformed inputs, failed-device indices out of
/// range, or any node/protocol failure.
#[allow(clippy::needless_range_loop)] // device index addresses several parallel tables
pub fn run_topology(
    topology: &Topology,
    device_views: &[Tensor],
    labels: &[usize],
    cfg: &HierarchyConfig,
) -> Result<SimReport> {
    let num_devices = topology.num_devices();
    let live = validate_run(num_devices, device_views, labels, cfg)?;
    if !cfg.proc_chaos.is_empty() {
        return Err(RuntimeError::Config {
            reason: "process chaos needs real OS processes to kill; use the multi-process \
                     launcher (multiproc::launch) or unset cfg.proc_chaos"
                .to_string(),
        });
    }
    let tier_names: Vec<String> = topology.tiers.iter().map(|t| t.name.clone()).collect();
    cfg.fault_plan.validate_nodes(&tier_names, &cfg.failed_devices)?;
    let n_samples = labels.len();
    let dl = cfg.deadlines.unwrap_or_default();
    let clock = SimClock::start();
    let last = topology.tiers.len() - 1; // the chain is never empty

    let (blanks, tier_blanks) = compute_blanks(topology)?;

    // Elastic control plane: probe the empirical compatibility matrix
    // (which feeders each tier's section accepts) while the blank chain is
    // still at hand, and publish the epoch-0 routing table — the declared
    // chain itself, since every non-device node starts live.
    let probed = match cfg.elastic {
        Some(_) => Some(probe(topology, &tier_blanks)?),
        None => None,
    };
    let control: Option<Arc<ControlState>> = probed.as_ref().map(|(compat, _)| {
        let mut init_live = live.clone();
        init_live.push(true); // gateway
        init_live.extend(std::iter::repeat_n(true, topology.tiers.len()));
        ControlState::new(compute_routing(0, init_live, num_devices, compat))
    });

    // Per-device crash counters; the LinkFactory owns the per-link fault
    // layers and the reliability (wire format / ARQ) wiring, leaving every
    // link on the plain legacy wire when both are off.
    let crash_states: HashMap<usize, Arc<CrashState>> = cfg
        .fault_plan
        .crash_after
        .iter()
        .map(|c| (c.device, CrashState::new(c.after_frames)))
        .collect();
    // Per-node (gateway / tier) crash counters: a crashed node's outbound
    // links all go silent at once, so downstream deadline degradation —
    // and elastic membership, when enabled — see a permanently dead
    // upstream.
    let node_crash: HashMap<String, Arc<CrashState>> = cfg
        .fault_plan
        .tier_crash_after
        .iter()
        .map(|c| (c.node.clone(), CrashState::new(c.after_frames)))
        .collect();
    let obs = Arc::new(RunObs::new(&cfg.obs));
    let mut factory =
        LinkFactory::new(&cfg.fault_plan, &cfg.reliability, &dl, Arc::clone(&obs), cfg.transport);
    factory.set_socket_chaos(cfg.socket_chaos);

    // Wiring, in the exact legacy link order (the report lists links in
    // creation order).
    let mut link_stats: Vec<(String, Arc<LinkCounters>)> = Vec::new();
    let mut track = |name: String, stats: Arc<LinkCounters>| {
        link_stats.push((name, stats));
    };

    let (gateway_tx, mut gateway_inbox) = factory.inbox("gateway")?;
    let mut tier_txs = Vec::new();
    let mut tier_inboxes = Vec::new();
    for spec in &topology.tiers {
        let (tx, rx) = factory.inbox(&spec.name)?;
        tier_txs.push(tx);
        tier_inboxes.push(rx);
    }
    let (orch_tx, mut orch_inbox) = factory.inbox("orchestrator")?;

    // Device inboxes + their outbound links. A crashing device's outbound
    // links share one crash counter, so the N-th transmitted frame kills
    // both its score and its feature path at once.
    let mut device_inboxes = Vec::new();
    let mut capture_tx = Vec::new();
    let mut gateway_to_device: Vec<Option<LinkSender>> = Vec::new();
    let mut device_threads_io = Vec::new();
    let mut device_elastic: Vec<Option<DeviceElastic>> = Vec::new();
    for d in 0..num_devices {
        let crash = crash_states.get(&d);
        let (dtx, mut dev_inbox) = factory.inbox(&format!("device{d}"))?;
        let cap_name = format!("sensor->device{d}");
        let (cap, _cap_stats, recv) =
            factory.sender(&dtx, &cap_name, NodeId::Orchestrator, None)?;
        dev_inbox.register(recv);
        capture_tx.push(cap);
        let g2d_name = format!("gateway->device{d}");
        let (g2d, g2d_stats, recv) =
            factory.sender(&dtx, &g2d_name, NodeId::Gateway, node_crash.get("gateway").cloned())?;
        dev_inbox.register(recv);
        track(g2d_name, g2d_stats);
        gateway_to_device.push(live[d].then_some(g2d));
        let gw_name = format!("device{d}->gateway");
        let (to_gw, gw_stats, recv) =
            factory.sender(&gateway_tx, &gw_name, NodeId::Device(d as u8), crash.cloned())?;
        gateway_inbox.register(recv);
        track(gw_name, gw_stats);
        let upper_name = format!("device{d}->{}", topology.tiers[0].name);
        let (to_upper, upper_stats, recv) =
            factory.sender(&tier_txs[0], &upper_name, NodeId::Device(d as u8), crash.cloned())?;
        tier_inboxes[0].register(recv);
        track(upper_name, upper_stats);
        // Elastic extras: one feature link per re-parent candidate tier
        // (tier 0's is the legacy link) and a pong channel back to the
        // orchestrator, sharing the device's crash state so a crashed
        // device's heartbeats die with its data.
        device_elastic.push(match control.as_ref() {
            Some(ctl) => {
                let mut to_tiers = vec![to_upper.clone()];
                for (j, spec) in topology.tiers.iter().enumerate().skip(1) {
                    let name = format!("device{d}->{}", spec.name);
                    let (s, stats, recv) = factory.sender(
                        &tier_txs[j],
                        &name,
                        NodeId::Device(d as u8),
                        crash.cloned(),
                    )?;
                    tier_inboxes[j].register(recv);
                    track(name, stats);
                    to_tiers.push(s);
                }
                let name = format!("device{d}->orchestrator");
                let (to_orch, stats, recv) =
                    factory.sender(&orch_tx, &name, NodeId::Device(d as u8), crash.cloned())?;
                orch_inbox.register(recv);
                track(name, stats);
                Some(DeviceElastic {
                    control: Arc::clone(ctl),
                    ix: d,
                    to_orchestrator: to_orch,
                    to_tiers,
                    stale_discards: obs
                        .registry()
                        .counter(&format!("node.device{d}.stale_epoch_discards")),
                })
            }
            None => None,
        });
        device_inboxes.push(dev_inbox);
        device_threads_io.push((to_gw, to_upper));
    }
    let (gw_to_orch, s, recv) = factory.sender(
        &orch_tx,
        "gateway->orchestrator",
        NodeId::Gateway,
        node_crash.get("gateway").cloned(),
    )?;
    orch_inbox.register(recv);
    track("gateway->orchestrator".to_string(), s);
    // Orchestrator-side tier links, in the legacy order: the terminal
    // tier's verdict link first, then each non-terminal tier's forward +
    // verdict links along the chain. Forward links are remembered in the
    // tier-to-tier matrix so elastic nodes can route along the current
    // escalation path.
    let mut tier_fwd: Vec<Vec<Option<LinkSender>>> =
        vec![vec![None; topology.tiers.len()]; topology.tiers.len()];
    let term_orch_name = format!("{}->orchestrator", topology.tiers[last].name);
    let (term_to_orch, s, recv) = factory.sender(
        &orch_tx,
        &term_orch_name,
        topology.tiers[last].id,
        node_crash.get(&topology.tiers[last].name).cloned(),
    )?;
    orch_inbox.register(recv);
    track(term_orch_name, s);
    let mut fwd_io = Vec::new();
    for i in 0..last {
        let tier_crash = node_crash.get(&topology.tiers[i].name);
        let fwd_name = format!("{}->{}", topology.tiers[i].name, topology.tiers[i + 1].name);
        let (to_next, s, recv) = factory.sender(
            &tier_txs[i + 1],
            &fwd_name,
            topology.tiers[i].id,
            tier_crash.cloned(),
        )?;
        tier_inboxes[i + 1].register(recv);
        track(fwd_name, s);
        tier_fwd[i][i + 1] = Some(to_next.clone());
        let orch_name = format!("{}->orchestrator", topology.tiers[i].name);
        let (to_orch, s, recv) =
            factory.sender(&orch_tx, &orch_name, topology.tiers[i].id, tier_crash.cloned())?;
        orch_inbox.register(recv);
        track(orch_name, s);
        fwd_io.push((to_next, to_orch));
    }
    // Zero-stat placeholders the legacy report format always lists (the
    // no-edge configs still report the edge links).
    for name in &topology.placeholder_links {
        let stats = Arc::new(LinkCounters::default());
        obs.registry().register_link(name, Arc::clone(&stats));
        track(name.clone(), stats);
    }
    // Elastic-only wiring: skip-level forward links (so a tier can route
    // around a dead neighbor), heartbeat ping links, the per-node control
    // handles and the membership driver itself.
    let mut elastic_driver: Option<ElasticDriver> = None;
    let mut gw_elastic: Option<TierElastic<Vec<f32>>> = None;
    let mut tier_elastic: Vec<Option<TierElastic<Tensor>>> =
        (0..topology.tiers.len()).map(|_| None).collect();
    if let (Some(ctl), Some((compat, out_blanks)), Some(ecfg)) =
        (control.as_ref(), probed.as_ref(), cfg.elastic)
    {
        for i in 0..topology.tiers.len() {
            for j in i + 2..topology.tiers.len() {
                let name = format!("{}->{}", topology.tiers[i].name, topology.tiers[j].name);
                let (s, stats, recv) = factory.sender(
                    &tier_txs[j],
                    &name,
                    topology.tiers[i].id,
                    node_crash.get(&topology.tiers[i].name).cloned(),
                )?;
                tier_inboxes[j].register(recv);
                track(name, stats);
                tier_fwd[i][j] = Some(s);
            }
        }
        // Heartbeat pings: devices are pinged over their capture channel,
        // the gateway and tiers over dedicated orchestrator links.
        // Statically failed devices are never pinged (and never rejoin).
        let mut ping_links: Vec<Option<LinkSender>> = Vec::new();
        for d in 0..num_devices {
            ping_links.push(live[d].then(|| capture_tx[d].clone()));
        }
        let (gw_ping, stats, recv) =
            factory.sender(&gateway_tx, "orchestrator->gateway", NodeId::Orchestrator, None)?;
        gateway_inbox.register(recv);
        track("orchestrator->gateway".to_string(), stats);
        ping_links.push(Some(gw_ping));
        for (k, spec) in topology.tiers.iter().enumerate() {
            let name = format!("orchestrator->{}", spec.name);
            let (s, stats, recv) =
                factory.sender(&tier_txs[k], &name, NodeId::Orchestrator, None)?;
            tier_inboxes[k].register(recv);
            track(name, stats);
            ping_links.push(Some(s));
        }
        let initial = ctl.routing();
        gw_elastic = Some(TierElastic {
            control: Arc::clone(ctl),
            ix: num_devices,
            tier_k: None,
            to_tiers: Vec::new(),
            tier_ids: Vec::new(),
            device_blanks: Vec::new(),
            tier_out_blanks: Vec::new(),
            stale_discards: obs.registry().counter("node.gateway.stale_epoch_discards"),
            seen_epoch: 0,
            was_down: false,
            forced_exit: initial.forced_local,
            route_target: None,
            cur_feeder: Feeder::Devices,
        });
        let tier_ids: Vec<NodeId> = topology.tiers.iter().map(|t| t.id).collect();
        let device_maps: Vec<Tensor> = blanks.iter().map(|b| b.map.clone()).collect();
        for (k, spec) in topology.tiers.iter().enumerate() {
            tier_elastic[k] = Some(TierElastic {
                control: Arc::clone(ctl),
                ix: num_devices + 1 + k,
                tier_k: Some(k),
                to_tiers: std::mem::take(&mut tier_fwd[k]),
                tier_ids: tier_ids.clone(),
                device_blanks: device_maps.clone(),
                tier_out_blanks: out_blanks.clone(),
                stale_discards: obs
                    .registry()
                    .counter(&format!("node.{}.stale_epoch_discards", spec.name)),
                seen_epoch: 0,
                was_down: false,
                forced_exit: initial.forced_exit[k],
                route_target: initial.escalate_to[k],
                cur_feeder: if k == 0 { Feeder::Devices } else { Feeder::Tier(k - 1) },
            });
        }
        let dir = NodeDirectory::new(num_devices, &tier_names, tier_ids);
        elastic_driver = Some(ElasticDriver::new(
            Arc::clone(ctl),
            dir,
            compat.clone(),
            ecfg,
            &cfg.fault_plan.churn,
            ping_links,
            clock,
            Arc::clone(&obs),
        ));
    }
    // Per-tier verdict link + escalation target, back in chain order.
    let mut tier_node_io: Vec<(LinkSender, Escalation)> = Vec::new();
    {
        let mut term = Some(term_to_orch);
        let mut fwd = fwd_io.into_iter();
        for i in 0..topology.tiers.len() {
            if i == last {
                let to_orch = term.take().ok_or_else(|| RuntimeError::Topology {
                    reason: "terminal verdict link consumed twice".to_string(),
                })?;
                tier_node_io.push((to_orch, Escalation::Terminal));
            } else {
                let (to_next, to_orch) = fwd.next().ok_or_else(|| RuntimeError::Topology {
                    reason: format!("missing forward links for non-terminal tier {i}"),
                })?;
                tier_node_io.push((to_orch, Escalation::ForwardMap(to_next)));
            }
        }
    }

    let identity_sources: Vec<Option<usize>> = (0..num_devices).map(Some).collect();
    let gateway_collector = Collector::new(
        num_devices,
        blanks.iter().map(|b| b.scores.clone()).collect(),
        AggPolicy::new(&dl, clock),
        identity_sources.clone(),
        &live,
    );
    // Tier collector geometry: the chain's first tier fans in from the
    // devices; every later tier has its single predecessor as its source
    // (the live mask still travels along for elastic re-parenting).
    let mut tier_collectors: Vec<Collector<Tensor>> = Vec::new();
    for (k, blanks_k) in tier_blanks.into_iter().enumerate() {
        let (sources, device_of_source) =
            if k == 0 { (num_devices, identity_sources.clone()) } else { (1, vec![None]) };
        tier_collectors.push(Collector::new(
            sources,
            blanks_k,
            AggPolicy::new(&dl, clock),
            device_of_source,
            &live,
        ));
    }

    let resolve_policy = |rule: &TierExitRule| match rule {
        TierExitRule::ConfigEdgeThreshold => ExitPolicy::Entropy(cfg.edge_threshold),
        TierExitRule::Fixed(t) => ExitPolicy::Entropy(*t),
        TierExitRule::Terminal => ExitPolicy::Terminal,
    };

    let mut node_reports: Vec<NodeReport> = Vec::new();
    let mut tallies: Option<RunTallies> = None;

    // ARQ retransmit pump: one background thread ticks every send state.
    // The stop flag is raised by a drop guard inside the scope closure, so
    // the pump cannot outlive an early (error) return and deadlock joins.
    let arq_states = std::mem::take(&mut factory.arq_states);
    let pump_stop = AtomicBool::new(false);

    std::thread::scope(|scope| -> Result<()> {
        let _pump_guard = PumpStopGuard(&pump_stop);
        if !arq_states.is_empty() {
            scope.spawn(|| run_retransmit_pump(&arq_states, &pump_stop));
        }
        let mut handles = Vec::new();
        // Devices.
        for (d, (((rx, (to_gw, to_upper)), part), dev_el)) in device_inboxes
            .into_iter()
            .zip(device_threads_io)
            .zip(topology.devices.iter())
            .zip(device_elastic)
            .enumerate()
        {
            if !live[d] {
                continue;
            }
            let part = part.clone();
            let dev_obs = Arc::clone(&obs);
            // Streaming keeps up to queue_cap samples in flight, so the
            // device must cache that many feature maps; the closed loop
            // keeps the legacy single slot.
            let capture_cap = cfg.stream.as_ref().map_or(1, |s| s.queue_cap);
            handles.push(scope.spawn(move || {
                device_node(d, part, rx, to_gw, to_upper, capture_cap, dev_obs, dev_el)
            }));
        }
        // Gateway: score aggregation, entropy exit, device broadcast.
        {
            let node = TierNode {
                name: "gateway".to_string(),
                id: NodeId::Gateway,
                exit_tier: 0,
                section: ScoresSection { agg: topology.gateway.agg.clone() },
                policy: ExitPolicy::Entropy(cfg.local_threshold),
                fan_in: FanIn::Devices(num_devices),
                inbox: gateway_inbox,
                to_orchestrator: gw_to_orch,
                escalation: Escalation::RequestFromDevices(gateway_to_device),
                collector: gateway_collector,
                obs: NodeObs::for_node(&obs, "gateway"),
                elastic: gw_elastic,
                // Score aggregation is negligible compute; only the
                // feature tiers batch.
                batch_max: 1,
            };
            handles.push(scope.spawn(move || node.run()));
        }
        // Feature tiers, in chain order.
        let mut rx_it = tier_inboxes.into_iter();
        let mut coll_it = tier_collectors.into_iter();
        let mut io_it = tier_node_io.into_iter();
        let mut el_it = tier_elastic.into_iter();
        for (i, spec) in topology.tiers.iter().enumerate() {
            let missing = |what: &str| RuntimeError::Topology {
                reason: format!("no {what} wired for tier {i} ({})", spec.name),
            };
            let rx = rx_it.next().ok_or_else(|| missing("inbox"))?;
            let collector = coll_it.next().ok_or_else(|| missing("collector"))?;
            let (to_orchestrator, escalation) = io_it.next().ok_or_else(|| missing("links"))?;
            let node = TierNode {
                name: spec.name.clone(),
                id: spec.id,
                exit_tier: (i + 1).min(usize::from(u8::MAX)) as u8,
                section: FeatureSection {
                    agg: spec.agg.clone(),
                    convs: spec.convs.clone(),
                    exit: spec.exit.clone(),
                },
                policy: resolve_policy(&spec.rule),
                fan_in: if i == 0 {
                    FanIn::Devices(num_devices)
                } else {
                    FanIn::Tier(topology.tiers[i - 1].id)
                },
                inbox: rx,
                to_orchestrator,
                escalation,
                collector,
                obs: NodeObs::for_node(&obs, &spec.name),
                elastic: el_it.next().ok_or_else(|| missing("elastic slot"))?,
                batch_max: cfg.stream.as_ref().map_or(1, |s| s.batch_max),
            };
            handles.push(scope.spawn(move || node.run()));
        }

        // Orchestrator: drive samples in order, one at a time.
        let classes = topology.config.num_classes;
        let header = factory.wire_format().header_bytes();
        let summary_bytes = header + 4 + 4 * classes;
        let map_bytes = header + 6 + 4 + topology.config.device_map_elems().div_ceil(8);
        // Simulated latency: the device->gateway hop always happens; each
        // escalation up the chain adds one uplink transfer of the feature
        // map. Accumulated hop by hop so the chain generalizes without
        // perturbing the legacy two-hop float arithmetic.
        let latency_of = |tier: u8| {
            let mut ms = cfg.local_link.transfer_ms(summary_bytes);
            for _ in 0..tier {
                ms += cfg.uplink.transfer_ms(map_bytes);
            }
            ms
        };
        let send_captures = |i: usize| -> Result<()> {
            // Under elastic routing, captures skip devices the membership
            // layer currently believes dead (their churn flag will make
            // them drop the frame anyway), and with the gateway bypassed
            // the orchestrator broadcasts the offload request itself so
            // the sample goes straight to the feature chain.
            let routing = control.as_ref().map(|c| c.routing());
            for d in 0..num_devices {
                if !live[d] || routing.as_ref().is_some_and(|r| !r.live[d]) {
                    continue;
                }
                let view = device_views[d].index_axis0(i)?;
                capture_tx[d].send(&Frame::new(
                    i as u64,
                    NodeId::Orchestrator,
                    Payload::Capture { view },
                ));
            }
            if let Some(r) = &routing {
                if r.gateway_bypass && r.device_parent.is_some() {
                    for d in 0..num_devices {
                        if live[d] && r.live[d] {
                            capture_tx[d].send(&Frame::new(
                                i as u64,
                                NodeId::Orchestrator,
                                Payload::OffloadRequest,
                            ));
                        }
                    }
                }
            }
            Ok(())
        };
        let t = match &cfg.stream {
            // Open loop: samples arrive on their own schedule, latency is
            // measured wall time from the scheduled arrival.
            Some(stream) => drive_stream(
                n_samples,
                stream,
                dl,
                clock,
                &mut orch_inbox,
                send_captures,
                |tier| topology.exit_point_of(tier),
                &obs,
                elastic_driver.as_mut(),
            )?,
            // Closed loop: lockstep feed, analytic link-model latency.
            None => drive_samples(
                n_samples,
                dl,
                clock,
                &mut orch_inbox,
                send_captures,
                |tier| topology.exit_point_of(tier),
                latency_of,
                &obs,
                elastic_driver.as_mut(),
            )?,
        };
        // Every sample resolved: stop retransmitting before shutdown.
        pump_stop.store(true, Ordering::Release);

        // Orderly shutdown: devices first, then gateway, then the chain.
        for (d, cap) in capture_tx.iter().enumerate() {
            if live[d] {
                cap.send(&Frame::new(0, NodeId::Orchestrator, Payload::Shutdown));
            }
        }
        let s = factory.shutdown_sender(&gateway_tx, "orchestrator->gateway")?;
        s.send(&Frame::new(0, NodeId::Orchestrator, Payload::Shutdown));
        for (spec, tx) in topology.tiers.iter().zip(&tier_txs) {
            let s = factory.shutdown_sender(tx, &format!("orchestrator->{}", spec.name))?;
            s.send(&Frame::new(0, NodeId::Orchestrator, Payload::Shutdown));
        }

        for h in handles {
            node_reports.push(h.join().map_err(|_| RuntimeError::Disconnected {
                node: "panicked node thread".to_string(),
            })??);
        }
        tallies = Some(t);
        Ok(())
    })?;

    // Tear down socket reader threads deterministically before assembling
    // the report (a no-op for the in-process channel transport).
    factory.shutdown_transport();

    // What the orchestrator's own inbox discarded as corrupt.
    node_reports.push(NodeReport {
        corrupt_discards: orch_inbox.corrupt_discards(),
        ..NodeReport::default()
    });
    let tallies = tallies.ok_or_else(|| RuntimeError::Topology {
        reason: "run scope finished without producing tallies".to_string(),
    })?;
    let mut report = assemble_report(tallies, labels, link_stats, node_reports, num_devices, &obs);
    report.elastic = elastic_driver.map(|d| d.finish());
    Ok(report)
}
