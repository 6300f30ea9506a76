//! The §IV-H cloud-offload baseline, run through the same tier-generic
//! engine as the staged hierarchy (a single terminal [`TierNode`] with a
//! [`RawSection`]), so fault plans and deadline degradation apply to it
//! exactly like they do to the real topology.

use super::orchestrate::{drive_samples, validate_run};
use super::PumpStopGuard;
use crate::clock::SimClock;
use crate::error::{Result, RuntimeError};
use crate::fault::CrashState;
use crate::link::LinkFactory;
use crate::message::{dequantize_image, quantize_image, Frame, NodeId, Payload};
use crate::node::collector::{AggPolicy, Collector};
use crate::node::device::blank_view;
use crate::node::report::{assemble_report, NodeReport, RunTallies, SimReport};
use crate::node::tier::{Escalation, FanIn, RawSection, TierNode};
use crate::obs::{LinkCounters, NodeObs, RunObs};
use crate::reliability::run_retransmit_pump;
use crate::topology::HierarchyConfig;
use ddnn_core::{DdnnPartition, ExitPoint, ExitPolicy};
use ddnn_tensor::Tensor;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Runs the §IV-H cloud-offload baseline: every device sends its raw
/// (byte-quantized) view to the cloud for every sample; the cloud runs the
/// entire network and classifies. The raw-image traffic is accounted on
/// the `device*->cloud` links.
///
/// The baseline shares the topology runner's device fan-out machinery —
/// the fault layer, the [`Collector`] finalize path and the watchdog
/// orchestrator — so `cfg.failed_devices`, `cfg.fault_plan` and
/// `cfg.deadlines` shape it exactly like the staged hierarchy instead of
/// being silently ignored.
///
/// # Errors
///
/// Returns an error for malformed inputs or node failures.
pub fn run_cloud_only_baseline(
    partition: &DdnnPartition,
    device_views: &[Tensor],
    labels: &[usize],
    cfg: &HierarchyConfig,
) -> Result<SimReport> {
    let num_devices = partition.devices.len();
    let live = validate_run(num_devices, device_views, labels, cfg)?;
    if cfg.elastic.is_some() {
        return Err(RuntimeError::Config {
            reason: "the cloud-only baseline has no tiers to rebalance (unset cfg.elastic)"
                .to_string(),
        });
    }
    if !cfg.fault_plan.tier_crash_after.is_empty() {
        return Err(RuntimeError::Config {
            reason: "the cloud-only baseline has no gateway or tiers to crash".to_string(),
        });
    }
    if cfg.stream.is_some() {
        return Err(RuntimeError::Config {
            reason: "the cloud-only baseline is closed-loop only (unset cfg.stream)".to_string(),
        });
    }
    if !cfg.proc_chaos.is_empty() {
        return Err(RuntimeError::Config {
            reason: "process chaos needs real OS processes to kill; use the multi-process \
                     launcher (multiproc::launch) or unset cfg.proc_chaos"
                .to_string(),
        });
    }
    if cfg.transport.is_socket() {
        return Err(RuntimeError::Config {
            reason: format!(
                "the cloud-only baseline runs in-process only (transport {} is for run_topology \
                 and the multi-process launcher; set cfg.transport to channel)",
                cfg.transport.name()
            ),
        });
    }
    let n_samples = labels.len();
    let dl = cfg.deadlines.unwrap_or_default();
    let clock = SimClock::start();
    let view_dims = partition.config.view_dims();

    let crash_states: HashMap<usize, Arc<CrashState>> = cfg
        .fault_plan
        .crash_after
        .iter()
        .map(|c| (c.device, CrashState::new(c.after_frames)))
        .collect();
    let obs = Arc::new(RunObs::new(&cfg.obs));
    let mut factory =
        LinkFactory::new(&cfg.fault_plan, &cfg.reliability, &dl, Arc::clone(&obs), cfg.transport);

    // The devices forward their captures unchanged, so the orchestrator
    // feeds the device->cloud links directly (no device threads) — but
    // through the shared fault layer, and into the shared collector.
    let (cloud_tx, mut cloud_inbox) = factory.inbox("cloud")?;
    let (orch_tx, mut orch_inbox) = factory.inbox("orchestrator")?;
    let mut link_stats: Vec<(String, Arc<LinkCounters>)> = Vec::new();
    let mut senders = Vec::new();
    for d in 0..num_devices {
        let name = format!("device{d}->cloud");
        let (s, st, recv) = factory.sender(
            &cloud_tx,
            &name,
            NodeId::Device(d as u8),
            crash_states.get(&d).cloned(),
        )?;
        cloud_inbox.register(recv);
        senders.push(s);
        link_stats.push((name, st));
    }
    let (cloud_to_orch, s, recv) =
        factory.sender(&orch_tx, "cloud->orchestrator", NodeId::Cloud, None)?;
    orch_inbox.register(recv);
    link_stats.push(("cloud->orchestrator".to_string(), s));

    // A silent device's blank is the byte-quantized blank view round-
    // tripped through the wire encoding — exactly what a live device
    // would have transmitted for a blank capture.
    let blank_raw = dequantize_image(&quantize_image(&blank_view(&partition.config)), view_dims)?;
    let collector = Collector::new(
        num_devices,
        vec![blank_raw; num_devices],
        AggPolicy::new(&dl, clock),
        (0..num_devices).map(Some).collect(),
        &live,
    );

    let mut node_reports: Vec<NodeReport> = Vec::new();
    let mut tallies: Option<RunTallies> = None;

    let arq_states = std::mem::take(&mut factory.arq_states);
    let pump_stop = AtomicBool::new(false);

    std::thread::scope(|scope| -> Result<()> {
        let _pump_guard = PumpStopGuard(&pump_stop);
        if !arq_states.is_empty() {
            scope.spawn(|| run_retransmit_pump(&arq_states, &pump_stop));
        }
        let node = TierNode {
            name: "cloud".to_string(),
            id: NodeId::Cloud,
            exit_tier: 1,
            section: RawSection {
                devices: partition.devices.clone(),
                edge: partition.edge.clone(),
                agg: partition.cloud.agg.clone(),
                convs: partition.cloud.convs.clone(),
                exit: partition.cloud.exit.clone(),
                view_dims,
            },
            policy: ExitPolicy::Terminal,
            fan_in: FanIn::Devices(num_devices),
            inbox: cloud_inbox,
            to_orchestrator: cloud_to_orch,
            escalation: Escalation::Terminal,
            collector,
            obs: NodeObs::for_node(&obs, "cloud"),
            elastic: None,
            batch_max: 1,
        };
        let handle = scope.spawn(move || node.run());

        let send_captures = |i: usize| -> Result<()> {
            for d in 0..num_devices {
                if !live[d] {
                    continue;
                }
                let view = device_views[d].index_axis0(i)?;
                senders[d].send(&Frame::new(
                    i as u64,
                    NodeId::Device(d as u8),
                    Payload::RawImage { pixels: quantize_image(&view) },
                ));
            }
            Ok(())
        };
        // The baseline's single tier is terminal; it reports as a cloud
        // exit with no simulated latency (legacy behavior).
        let exit_point_of = |tier: u8| {
            if tier == 1 {
                Ok(ExitPoint::Cloud)
            } else {
                Err(RuntimeError::Protocol { reason: format!("unknown exit tier {tier}") })
            }
        };
        let t = drive_samples(
            n_samples,
            dl,
            clock,
            &mut orch_inbox,
            send_captures,
            exit_point_of,
            |_| 0.0,
            &obs,
            None,
        )?;
        pump_stop.store(true, Ordering::Release);

        let s = factory.shutdown_sender(&cloud_tx, "orchestrator->cloud")?;
        s.send(&Frame::new(0, NodeId::Orchestrator, Payload::Shutdown));
        node_reports.push(handle.join().map_err(|_| RuntimeError::Disconnected {
            node: "baseline cloud thread".to_string(),
        })??);
        tallies = Some(t);
        Ok(())
    })?;

    node_reports.push(NodeReport {
        corrupt_discards: orch_inbox.corrupt_discards(),
        ..NodeReport::default()
    });
    let tallies = tallies.ok_or_else(|| RuntimeError::Topology {
        reason: "baseline scope finished without producing tallies".to_string(),
    })?;
    Ok(assemble_report(tallies, labels, link_stats, node_reports, num_devices, &obs))
}
