//! The end-device node and its blank-input signature.
//!
//! A *failed* device's thread never starts; the aggregating tiers
//! substitute the device's precomputed [`BlankSignature`], which is the
//! same encoding the dataset uses for "object not present" — the mechanism
//! behind the paper's automatic fault tolerance (§IV-G).

use crate::error::{Result, RuntimeError};
use crate::link::{LinkSender, NodeInbox};
use crate::message::{features_payload, Frame, NodeId, Payload};
use crate::node::report::NodeReport;
use crate::obs::RunObs;
use crate::orchestrator::DeviceElastic;
use ddnn_core::{DdnnConfig, DevicePart, BLANK_INPUT_VALUE};
use ddnn_nn::{Layer, Mode};
use ddnn_tensor::{parallel, Tensor};
use std::sync::Arc;

/// The blank sensor view for the model's configured input geometry, as a
/// single-sample batch.
pub(crate) fn blank_view(config: &DdnnConfig) -> Tensor {
    let [c, h, w] = config.view_dims();
    Tensor::full([1, c, h, w], BLANK_INPUT_VALUE)
}

/// Per-device blank-input signature: the scores and feature map the device
/// would produce for a blank view, substituted by aggregators when the
/// device has failed.
#[derive(Debug, Clone)]
pub(crate) struct BlankSignature {
    /// Exit-head class scores for the blank view.
    pub(crate) scores: Vec<f32>,
    /// ConvP feature map for the blank view, shaped
    /// [`DdnnConfig::device_map_dims`].
    pub(crate) map: Tensor,
}

/// Computes one device's [`BlankSignature`] on cloned sections.
pub(crate) fn blank_signature(part: &DevicePart, config: &DdnnConfig) -> Result<BlankSignature> {
    let mut conv = part.conv.clone();
    let mut exit = part.exit.clone();
    let map = conv.forward(&blank_view(config), Mode::Eval)?;
    let scores = exit.forward(&map, Mode::Eval)?;
    Ok(BlankSignature { scores: scores.data().to_vec(), map: map.index_axis0(0)? })
}

/// Runs a device node until shutdown. In `tolerant` mode (deadlines
/// active) protocol hiccups that faults make possible — duplicated stale
/// captures, offload requests racing a retried capture — are ignored
/// instead of aborting the node.
///
/// `capture_cap` bounds the per-seq feature-map cache: the closed-loop
/// runner passes 1 (one sample in flight — the legacy single-slot
/// behavior), the streaming runner passes its admission-window size so
/// every in-flight sample's offload can still be served out of order.
/// The lowest sequence numbers are evicted first.
///
/// With `elastic` the device participates in the control plane: it
/// answers heartbeat pings, plays dead while its churn flag is raised
/// (clearing its cached captures on revival), discards frames from a
/// previous topology epoch, skips score uploads while the gateway is
/// bypassed, and offloads feature maps to whichever tier the current
/// routing names as the device parent.
#[allow(clippy::too_many_arguments)]
pub(crate) fn device_node(
    d: usize,
    part: DevicePart,
    mut inbox: NodeInbox,
    to_gateway: LinkSender,
    to_upper: LinkSender,
    tolerant: bool,
    capture_cap: usize,
    obs: Arc<RunObs>,
    elastic: Option<DeviceElastic>,
) -> Result<NodeReport> {
    // A device thread owns its core: the ConvP section runs serially on
    // it, as on the paper's single-threaded end devices (DESIGN.md §8.2).
    parallel::inline(move || {
        let mut conv = part.conv;
        let mut exit = part.exit;
        let mut cache: std::collections::BTreeMap<u64, Tensor> = std::collections::BTreeMap::new();
        let capture_cap = capture_cap.max(1);
        let mut was_down = false;
        let captures = obs.registry().counter(&format!("node.device{d}.captures"));
        let offloads = obs.registry().counter(&format!("node.device{d}.offloads"));
        loop {
            let frame = inbox.recv()?;
            // Shutdown always lands, even on a churned-down device — the run
            // is over and the thread must exit.
            if matches!(frame.payload, Payload::Shutdown) {
                return Ok(NodeReport {
                    corrupt_discards: inbox.corrupt_discards(),
                    ..NodeReport::default()
                });
            }
            if let Some(el) = elastic.as_ref() {
                if el.control.is_churn_down(el.ix) {
                    // Churned down: full silence — no pongs, no uploads. The
                    // membership layer will detect the crash from the missed
                    // heartbeats.
                    was_down = true;
                    continue;
                }
                if was_down {
                    // Revived: the cached captures predate the crash and must
                    // not feed a new epoch's offload.
                    was_down = false;
                    cache.clear();
                }
                if matches!(frame.payload, Payload::Ping) {
                    el.to_orchestrator.send(&Frame::new(
                        frame.seq,
                        NodeId::Device(d as u8),
                        Payload::Pong,
                    ))?;
                    continue;
                }
                if el.control.admit(frame.seq).is_err() {
                    el.stale_discards.incr();
                    continue;
                }
            }
            match frame.payload {
                Payload::Capture { view } => {
                    if tolerant {
                        // A duplicated or jittered capture for an older sample
                        // must not roll the cache window backwards: once the
                        // window is full, captures below its floor are dead on
                        // arrival (with the legacy single slot this is exactly
                        // the old "never replace latest with older" rule).
                        if cache.len() >= capture_cap {
                            if let Some((&oldest, _)) = cache.first_key_value() {
                                if frame.seq < oldest {
                                    continue;
                                }
                            }
                        }
                    }
                    // The capture carries its own geometry; batch it as-is.
                    let mut dims = vec![1];
                    dims.extend_from_slice(view.dims());
                    let batch = view.reshape(dims)?;
                    let map = conv.forward(&batch, Mode::Eval)?;
                    let scores = exit.forward(&map, Mode::Eval)?;
                    cache.insert(frame.seq, map.index_axis0(0)?);
                    while cache.len() > capture_cap {
                        cache.pop_first();
                    }
                    captures.incr();
                    // While the gateway is bypassed its score aggregation is
                    // pointless: the orchestrator broadcasts the offload
                    // request itself and the sample goes straight to the
                    // feature chain.
                    let bypass = elastic.as_ref().is_some_and(|el| el.control.gateway_bypass());
                    if !bypass {
                        to_gateway.send(&Frame::new(
                            frame.seq,
                            NodeId::Device(d as u8),
                            Payload::Scores { scores: scores.data().to_vec() },
                        ))?;
                    }
                }
                Payload::OffloadRequest => {
                    // The feature sink under the current routing: the device
                    // parent's link when elastic, the declared entry tier
                    // otherwise. An orphaned device (no live compatible tier)
                    // simply drops the request.
                    let sink = match elastic.as_ref() {
                        Some(el) => el.control.device_parent().map(|k| &el.to_tiers[k]),
                        None => Some(&to_upper),
                    };
                    match cache.get(&frame.seq) {
                        Some(map) => {
                            if let Some(sink) = sink {
                                offloads.incr();
                                sink.send(&Frame::new(
                                    frame.seq,
                                    NodeId::Device(d as u8),
                                    features_payload(map)?,
                                ))?;
                            }
                        }
                        None if tolerant => {} // stale or premature request under faults
                        None => match cache.last_key_value() {
                            None => {
                                return Err(RuntimeError::Protocol {
                                    reason: format!(
                                        "device {d}: offload request before any capture"
                                    ),
                                })
                            }
                            Some((seq, _)) => {
                                return Err(RuntimeError::Protocol {
                                    reason: format!(
                                        "device {d}: offload for sample {} but latest is {seq}",
                                        frame.seq
                                    ),
                                })
                            }
                        },
                    }
                }
                other => {
                    return Err(RuntimeError::Protocol {
                        reason: format!("device {d}: unexpected payload {other:?}"),
                    })
                }
            }
        }
    })
}
