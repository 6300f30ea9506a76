//! Shared run plumbing: input validation and the orchestrator's
//! closed-loop watchdog driver (bounded waits, bounded capture
//! retransmissions, typed per-sample timeouts) — used identically by the
//! topology runner, the cloud-offload baseline and the multi-process
//! launcher.

use crate::clock::SimClock;
use crate::error::{Result, RuntimeError};
use crate::fault::DeadlineConfig;
use crate::link::NodeInbox;
use crate::message::Payload;
use crate::node::report::{RunTallies, SampleOutcome};
use crate::obs::{ObsEvent, RunObs};
use crate::orchestrator::ElasticDriver;
use crate::topology::HierarchyConfig;
use ddnn_core::ExitPoint;
use ddnn_tensor::Tensor;

/// Shared input validation (identical checks and ordering for the
/// topology runner and the baseline), returning the per-device live mask.
pub(super) fn validate_run(
    num_devices: usize,
    device_views: &[Tensor],
    labels: &[usize],
    cfg: &HierarchyConfig,
) -> Result<Vec<bool>> {
    if device_views.len() != num_devices {
        return Err(RuntimeError::Config {
            reason: format!("{} view batches for {num_devices} devices", device_views.len()),
        });
    }
    if let Some(&bad) = cfg.failed_devices.iter().find(|&&d| d >= num_devices) {
        return Err(RuntimeError::Config { reason: format!("failed device {bad} out of range") });
    }
    let n_samples = labels.len();
    if device_views.iter().any(|v| v.dims()[0] != n_samples) {
        return Err(RuntimeError::Config {
            reason: "device view batch size != label count".to_string(),
        });
    }
    let live: Vec<bool> = (0..num_devices).map(|d| !cfg.failed_devices.contains(&d)).collect();
    if live.iter().all(|&l| !l) {
        return Err(RuntimeError::Config { reason: "all devices failed".to_string() });
    }
    cfg.fault_plan.validate(num_devices)?;
    cfg.reliability.validate(&cfg.fault_plan)?;
    if let Some(el) = &cfg.elastic {
        if el.heartbeat_ms == 0 || el.suspect_after == 0 {
            return Err(RuntimeError::Config {
                reason: "elastic heartbeat_ms and suspect_after must be at least 1".to_string(),
            });
        }
    } else if !cfg.fault_plan.churn.is_empty() {
        return Err(RuntimeError::Config {
            reason: "a churn schedule requires elastic orchestration (set cfg.elastic)".to_string(),
        });
    }
    if let Some(stream) = &cfg.stream {
        stream.validate()?;
    }
    cfg.socket_chaos.validate()?;
    if cfg.socket_chaos.is_active() && !cfg.transport.is_socket() {
        return Err(RuntimeError::Config {
            reason: "socket chaos needs a socket transport (set cfg.transport to tcp or udp)"
                .to_string(),
        });
    }
    if cfg.transport == crate::transport::TransportConfig::Udp && !cfg.reliability.mode.is_checked()
    {
        return Err(RuntimeError::Config {
            reason: "the udp transport requires a checked wire format \
                     (ReliabilityConfig::crc or ::arq); legacy frames carry no \
                     integrity or loss protection on real datagrams"
                .to_string(),
        });
    }
    Ok(live)
}

/// The orchestrator's closed-loop driver, shared by the topology runner,
/// the baseline and the multi-process launcher: one sample in flight, a
/// bounded wait per attempt, bounded capture retransmissions, then a typed
/// per-sample timeout. Stale and duplicate verdicts are discarded by
/// sequence number, so a retried sample can never hang or corrupt the run.
#[allow(clippy::too_many_arguments)]
pub(super) fn drive_samples(
    n_samples: usize,
    dl: DeadlineConfig,
    clock: SimClock,
    orch_rx: &mut NodeInbox,
    mut send_captures: impl FnMut(usize) -> Result<()>,
    exit_point_of: impl Fn(u8) -> Result<ExitPoint>,
    latency_of: impl Fn(u8) -> f32,
    obs: &RunObs,
    mut elastic: Option<&mut ElasticDriver>,
) -> Result<RunTallies> {
    let mut predictions = vec![0usize; n_samples];
    let mut exits = vec![ExitPoint::Cloud; n_samples];
    let mut latencies = vec![0.0f64; n_samples];
    let mut outcomes = vec![SampleOutcome::Classified; n_samples];
    let mut capture_retries = 0usize;
    let samples_ctr = obs.registry().counter("run.samples");
    let retries_ctr = obs.registry().counter("run.capture_retries");
    let timeouts_ctr = obs.registry().counter("run.watchdog_timeouts");
    for i in 0..n_samples {
        let seq = i as u64;
        samples_ctr.incr();
        obs.emit(|| ObsEvent::SampleEnqueued { seq });
        // Elastic: flip the churn flags due at this sample before its
        // captures go out, so a scheduled crash takes effect exactly at
        // `at_sample`.
        if let Some(driver) = elastic.as_deref_mut() {
            driver.before_sample(seq);
        }
        let mut resolved = None;
        let mut attempts = 0u32;
        'sample: loop {
            send_captures(i)?;
            let deadline = clock.deadline_in(dl.watchdog_ms);
            loop {
                match orch_rx.recv_deadline(deadline)? {
                    Some(frame) if frame.seq == seq => {
                        if let Payload::Verdict { prediction, exit_tier } = frame.payload {
                            resolved = Some((prediction, exit_tier));
                            break 'sample;
                        }
                    }
                    Some(_) => {} // stale or duplicate verdict
                    None => break,
                }
            }
            if attempts >= dl.max_retries {
                break;
            }
            attempts += 1;
            capture_retries += 1;
            retries_ctr.incr();
        }
        match resolved {
            Some((prediction, exit_tier)) => {
                predictions[i] = prediction as usize;
                exits[i] = exit_point_of(exit_tier)?;
                // Widening the f32 link-model latency is lossless, so the
                // f32 mean fields stay bit-identical to the seed runtime.
                latencies[i] = f64::from(latency_of(exit_tier));
            }
            None => {
                let waited_ms = u64::from(attempts + 1) * dl.watchdog_ms;
                timeouts_ctr.incr();
                obs.emit(|| ObsEvent::WatchdogTimeout { seq, waited_ms });
                outcomes[i] = SampleOutcome::TimedOut { waited_ms };
                predictions[i] = usize::MAX; // never matches a label
                latencies[i] = waited_ms as f64;
            }
        }
        // Elastic: the post-sample heartbeat sweep — membership moves and
        // topology epochs are published only here, strictly between
        // samples.
        if let Some(driver) = elastic.as_deref_mut() {
            driver.after_sample(seq, orch_rx, None)?;
        }
    }
    Ok(RunTallies { predictions, exits, latencies, outcomes, capture_retries })
}
