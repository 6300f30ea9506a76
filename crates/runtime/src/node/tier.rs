//! The tier-generic aggregating node.
//!
//! One [`TierNode`] — a [`Collector`], a [`TierSection`], an
//! [`ExitPolicy`] and an [`Escalation`] target — subsumes the legacy
//! gateway, edge and cloud loops *and* the §IV-H raw-offload baseline:
//!
//! | legacy node    | section              | policy     | escalation            |
//! |----------------|----------------------|------------|-----------------------|
//! | gateway        | [`ScoresSection`]    | `Entropy`  | `RequestFromDevices`  |
//! | edge           | [`FeatureSection`]   | `Entropy`  | `ForwardMap`          |
//! | cloud          | [`FeatureSection`]   | `Terminal` | `Terminal`            |
//! | baseline cloud | [`RawSection`]       | `Terminal` | `Terminal`            |
//!
//! Deadline expiry, suspect marking, replay of cached decisions and blank
//! substitution are therefore one shared finalize path at every tier.

use crate::error::{Result, RuntimeError};
use crate::link::{LinkSender, NodeInbox};
use crate::message::{dequantize_image, features_payload, features_tensor, Frame, NodeId, Payload};
use crate::node::collector::{Collector, Ingest};
use crate::node::report::NodeReport;
use crate::obs::{Counter, NodeObs, ObsEvent};
use crate::orchestrator::ControlState;
use ddnn_core::{
    ConvPBlock, DevicePart, EdgePart, ExitHead, ExitPolicy, FeatureAggregator, VectorAggregator,
};
use ddnn_nn::{Layer, Mode};
use ddnn_tensor::{parallel, Tensor};
use std::sync::Arc;
use std::time::Instant;

/// Prepends a batch axis to each rank-3 map.
pub(crate) fn batched(maps: Vec<Tensor>) -> Result<Vec<Tensor>> {
    maps.into_iter()
        .map(|m| {
            let mut dims = vec![1];
            dims.extend_from_slice(m.dims());
            m.reshape(dims).map_err(RuntimeError::from)
        })
        .collect()
}

/// Where a tier's contributions come from — this defines the collector's
/// source-slot space.
pub(crate) enum FanIn {
    /// One slot per end device; contributions arrive from `Device(d)`.
    Devices(usize),
    /// A single upstream tier.
    Tier(NodeId),
}

impl FanIn {
    /// Maps a frame's sender to its collector slot.
    fn source_slot(&self, from: NodeId, node: &str) -> Result<usize> {
        match (self, from) {
            (FanIn::Devices(n), NodeId::Device(d)) if (d as usize) < *n => Ok(d as usize),
            (FanIn::Tier(expected), from) if from == *expected => Ok(0),
            (_, from) => Err(RuntimeError::Protocol {
                reason: format!("{node}: contribution from unexpected sender {from}"),
            }),
        }
    }
}

/// The model section a tier evaluates once its fan-in completes.
pub(crate) trait TierSection: Send {
    /// One source's contribution (a score vector, a feature map, a raw
    /// view) — what the collector gathers and substitutes blanks for.
    type Item: Clone + Send;

    /// Extracts this section's item from an arriving payload.
    fn item_from(&self, payload: Payload, node: &str) -> Result<Self::Item>;

    /// Evaluates the section on a completed contribution set, returning the
    /// exit logits and (for feature tiers) the rank-4 output map a
    /// non-terminal tier forwards when it escalates.
    fn evaluate(&mut self, items: Vec<Self::Item>) -> Result<(Tensor, Option<Tensor>)>;

    /// Evaluates a micro-batch of completed contribution sets, returning
    /// one `(logits, map)` pair per sample. The default evaluates each
    /// sample independently; sections whose compute batches along axis 0
    /// (feature tiers) override this to run the tensor pass once over the
    /// whole batch, amortizing bit-packing and kernel launches.
    fn evaluate_batch(
        &mut self,
        batch: Vec<Vec<Self::Item>>,
    ) -> Result<Vec<(Tensor, Option<Tensor>)>> {
        batch.into_iter().map(|items| self.evaluate(items)).collect()
    }
}

/// The gateway's section: aggregate per-device class-score vectors.
pub(crate) struct ScoresSection {
    /// Score aggregation scheme.
    pub(crate) agg: VectorAggregator,
}

impl TierSection for ScoresSection {
    type Item = Vec<f32>;

    fn item_from(&self, payload: Payload, node: &str) -> Result<Vec<f32>> {
        match payload {
            Payload::Scores { scores } => Ok(scores),
            other => Err(RuntimeError::Protocol {
                reason: format!("{node}: unexpected payload {other:?}"),
            }),
        }
    }

    fn evaluate(&mut self, items: Vec<Vec<f32>>) -> Result<(Tensor, Option<Tensor>)> {
        // Assemble per-device (1, C) score tensors (blanks already
        // substituted by the collector).
        let inputs: Vec<Tensor> = items
            .into_iter()
            .map(|v| {
                let c = v.len();
                Tensor::from_vec(v, [1, c]).map_err(RuntimeError::from)
            })
            .collect::<Result<_>>()?;
        Ok((self.agg.forward(&inputs, Mode::Eval)?, None))
    }
}

/// An edge/cloud-style section: aggregate binary feature maps, run ConvP
/// blocks, classify at the exit head.
pub(crate) struct FeatureSection {
    /// Feature-map aggregation.
    pub(crate) agg: FeatureAggregator,
    /// ConvP chain applied after aggregation.
    pub(crate) convs: Vec<ConvPBlock>,
    /// Exit classifier.
    pub(crate) exit: ExitHead,
}

impl TierSection for FeatureSection {
    type Item = Tensor;

    fn item_from(&self, payload: Payload, node: &str) -> Result<Tensor> {
        match payload {
            Payload::Features { channels, height, width, bits } => {
                features_tensor(channels, height, width, &bits)
            }
            other => Err(RuntimeError::Protocol {
                reason: format!("{node}: unexpected payload {other:?}"),
            }),
        }
    }

    fn evaluate(&mut self, maps: Vec<Tensor>) -> Result<(Tensor, Option<Tensor>)> {
        let mut x = self.agg.forward(&batched(maps)?)?;
        for conv in &mut self.convs {
            x = conv.forward(&x, Mode::Eval)?;
        }
        let logits = self.exit.forward(&x, Mode::Eval)?;
        Ok((logits, Some(x)))
    }

    fn evaluate_batch(&mut self, batch: Vec<Vec<Tensor>>) -> Result<Vec<(Tensor, Option<Tensor>)>> {
        let b = batch.len();
        if b <= 1 {
            return batch.into_iter().map(|items| self.evaluate(items)).collect();
        }
        // Batch along axis 0: per source slot, stack the B rank-3 maps
        // into one (B, C, H, W) tensor, then run aggregation, the ConvP
        // chain and the exit head once over the whole batch. Each batch
        // row's arithmetic is independent, so per-sample logits and maps
        // equal the one-at-a-time path. The binarized convs lower the
        // whole stacked batch to one `BinaryConvPlan` (tensor crate):
        // the weight matrix is packed and the geometry resolved once,
        // then the B samples stream through the fused pack-and-popcount
        // kernel — this drain is what makes micro-batching pay.
        let num_sources = batch[0].len();
        let mut per_source = Vec::with_capacity(num_sources);
        for s in 0..num_sources {
            let maps: Vec<Tensor> = batch.iter().map(|items| items[s].clone()).collect();
            per_source.push(Tensor::stack(&maps)?);
        }
        let mut x = self.agg.forward(&per_source)?;
        for conv in &mut self.convs {
            x = conv.forward(&x, Mode::Eval)?;
        }
        let logits = self.exit.forward(&x, Mode::Eval)?;
        let logit_rows = logits.split(b, 0)?;
        let map_rows = x.split(b, 0)?;
        Ok(logit_rows.into_iter().zip(map_rows).map(|(l, m)| (l, Some(m))).collect())
    }
}

/// The §IV-H baseline cloud section: every device ships its raw
/// (byte-quantized) view and the cloud runs the *entire* partitioned
/// network — device trunks, optional edge, cloud stack.
pub(crate) struct RawSection {
    /// Device trunk sections, evaluated cloud-side.
    pub(crate) devices: Vec<DevicePart>,
    /// Optional edge section, evaluated cloud-side.
    pub(crate) edge: Option<EdgePart>,
    /// Cloud feature aggregation.
    pub(crate) agg: FeatureAggregator,
    /// Cloud ConvP chain.
    pub(crate) convs: Vec<ConvPBlock>,
    /// Final classifier.
    pub(crate) exit: ExitHead,
    /// Geometry raw pixels decode to.
    pub(crate) view_dims: [usize; 3],
}

impl TierSection for RawSection {
    type Item = Tensor;

    fn item_from(&self, payload: Payload, node: &str) -> Result<Tensor> {
        match payload {
            Payload::RawImage { pixels } => dequantize_image(&pixels, self.view_dims),
            other => Err(RuntimeError::Protocol {
                reason: format!("{node}: unexpected payload {other:?}"),
            }),
        }
    }

    fn evaluate(&mut self, views: Vec<Tensor>) -> Result<(Tensor, Option<Tensor>)> {
        // Run the full network in the cloud (config (a)), the device
        // trunks one after another in device order on this node's thread.
        let mut maps: Vec<Tensor> = Vec::with_capacity(self.devices.len());
        for (part, v) in self.devices.iter_mut().zip(views) {
            let mut dims = vec![1];
            dims.extend_from_slice(v.dims());
            maps.push(part.conv.forward(&v.reshape(dims)?, Mode::Eval)?);
        }
        let mut x = if let Some(e) = self.edge.as_mut() {
            let a = e.agg.forward(&maps)?;
            let m = e.conv.forward(&a, Mode::Eval)?;
            self.agg.forward(&[m])?
        } else {
            self.agg.forward(&maps)?
        };
        for conv in &mut self.convs {
            x = conv.forward(&x, Mode::Eval)?;
        }
        let logits = self.exit.forward(&x, Mode::Eval)?;
        Ok((logits, None))
    }
}

/// What a non-exiting sample does next at this tier.
pub(crate) enum Escalation {
    /// Broadcast an offload request to the live devices (the gateway role;
    /// `None` entries are statically failed devices).
    RequestFromDevices(Vec<Option<LinkSender>>),
    /// Forward this tier's own output map to the next tier up.
    ForwardMap(LinkSender),
    /// Terminal tier: escalation is impossible.
    Terminal,
}

/// A tier's cached decision for a completed sample, replayable when
/// duplicated or retried frames arrive after completion.
enum Decision {
    /// Exited here with this verdict frame (to the orchestrator).
    Verdict(Frame),
    /// Escalated: broadcast an offload request to the devices.
    Broadcast,
    /// Escalated: forward this features frame to the next tier.
    Forward(Frame),
}

/// Who currently feeds a tier's collector under elastic routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Feeder {
    /// The end devices fan in directly (the escalation path's entry tier).
    Devices,
    /// A single upstream tier (by tier index).
    Tier(usize),
    /// Off the escalation path: nothing routes here this epoch.
    Dormant,
}

/// A tier's handle on the elastic control plane plus the per-epoch routing
/// state it has applied so far. `T` is the tier's collector item.
pub(crate) struct TierElastic<T> {
    /// Shared control-plane state.
    pub(crate) control: Arc<ControlState>,
    /// This node's directory index.
    pub(crate) ix: usize,
    /// This node's tier index (`None` for the gateway, which has no
    /// position on the feature chain).
    pub(crate) tier_k: Option<usize>,
    /// Forward link to each tier (`None` below or at this tier's own
    /// position, and for the gateway).
    pub(crate) to_tiers: Vec<Option<LinkSender>>,
    /// Wire identity of each tier, for fan-in rebinding.
    pub(crate) tier_ids: Vec<NodeId>,
    /// Device blank items, for re-parenting onto device fan-in.
    pub(crate) device_blanks: Vec<T>,
    /// Each tier's blank *output* item, for re-parenting onto tier fan-in.
    pub(crate) tier_out_blanks: Vec<T>,
    /// `node.{name}.stale_epoch_discards`.
    pub(crate) stale_discards: Arc<Counter>,
    /// Last epoch whose routing this node applied (0 = the initial table,
    /// which the wiring already reflects).
    pub(crate) seen_epoch: u64,
    /// Whether the node was churned down when last observed.
    pub(crate) was_down: bool,
    /// This epoch: classify locally instead of escalating.
    pub(crate) forced_exit: bool,
    /// This epoch: where escalations forward to (tier index).
    pub(crate) route_target: Option<usize>,
    /// This epoch: who feeds the collector.
    pub(crate) cur_feeder: Feeder,
}

/// One aggregating node of the hierarchy, generic over its model section.
pub(crate) struct TierNode<S: TierSection> {
    /// Display name ("gateway", "edge", …), used in protocol errors.
    pub(crate) name: String,
    /// Wire identity stamped on this node's outgoing frames.
    pub(crate) id: NodeId,
    /// The `exit_tier` stamped into this node's verdicts (0 = gateway; a
    /// chain tier's 1-based position otherwise).
    pub(crate) exit_tier: u8,
    /// The model section evaluated on each completed sample.
    pub(crate) section: S,
    /// Exit decision applied to the section's logits.
    pub(crate) policy: ExitPolicy,
    /// Source-slot space of the collector.
    pub(crate) fan_in: FanIn,
    /// This node's inbox (CRC checking and ARQ dedup happen inside).
    pub(crate) inbox: NodeInbox,
    /// Verdict link.
    pub(crate) to_orchestrator: LinkSender,
    /// Where non-exiting samples go.
    pub(crate) escalation: Escalation,
    /// The shared fan-in state machine.
    pub(crate) collector: Collector<S::Item>,
    /// Micro-batch budget: completed samples drained (non-blocking) from
    /// the inbox and evaluated as one tensor pass per loop iteration. `1`
    /// is the legacy one-sample-at-a-time path, byte for byte.
    pub(crate) batch_max: usize,
    /// Per-node counters and the run-wide event sink.
    pub(crate) obs: NodeObs,
    /// Elastic control-plane participation (`None`: static topology).
    pub(crate) elastic: Option<TierElastic<S::Item>>,
}

impl<S: TierSection> TierNode<S> {
    /// Runs the node until shutdown, returning its degradation telemetry.
    ///
    /// The node thread owns its core: every kernel the section calls runs
    /// serially on it instead of spawning pool workers (DESIGN.md §8.2).
    pub(crate) fn run(self) -> Result<NodeReport> {
        parallel::inline(|| self.serve())
    }

    /// The node loop behind [`TierNode::run`].
    fn serve(mut self) -> Result<NodeReport> {
        let mut last_decision: Option<(u64, Decision)> = None;
        // Registered lazily so the legacy per-sample path (batch_max 1)
        // leaves the counter snapshot untouched.
        let batch_ctrs = (self.batch_max > 1).then(|| {
            let r = self.obs.run.registry();
            (
                r.counter(&format!("node.{}.batches", self.name)),
                r.counter(&format!("node.{}.batched_samples", self.name)),
            )
        });
        loop {
            // Elastic: fold in any new topology epoch first, and while
            // churned down stay fully silent — no deadline firing, no
            // pongs, no decisions — until revival or shutdown.
            if self.elastic_sync() {
                let frame = self.inbox.recv()?;
                if matches!(frame.payload, Payload::Shutdown) {
                    let mut report = self.collector.into_report();
                    report.corrupt_discards = self.inbox.corrupt_discards();
                    return Ok(report);
                }
                continue;
            }
            let mut completed: Vec<(u64, Vec<S::Item>, usize)> = Vec::new();
            loop {
                // A collector error here means the expired sample vanished
                // mid-finalize (a duplicate raced it) — degrade, don't die.
                match self.collector.expire(Instant::now()) {
                    Ok(Some(done)) => {
                        self.obs.deadline_expiries.incr();
                        let seq = done.0;
                        let name = &self.name;
                        self.obs.run.emit(|| ObsEvent::DeadlineFired { node: name.clone(), seq });
                        completed.push(done);
                    }
                    Ok(None) | Err(RuntimeError::Collector { .. }) => break,
                    Err(e) => return Err(e),
                }
            }
            if completed.is_empty() {
                let frame = match self.collector.next_deadline() {
                    Some(deadline) => match self.inbox.recv_deadline(deadline)? {
                        Some(frame) => frame,
                        None => continue, // a deadline fired; expire on the next pass
                    },
                    None => self.inbox.recv()?,
                };
                if matches!(frame.payload, Payload::Shutdown) {
                    let mut report = self.collector.into_report();
                    report.corrupt_discards = self.inbox.corrupt_discards();
                    return Ok(report);
                }
                match self.elastic.as_ref() {
                    // Went down between the sync check and this recv: the
                    // next loop pass enters the silent path.
                    Some(el) if el.control.is_churn_down(el.ix) => continue,
                    Some(_) if matches!(frame.payload, Payload::Ping) => {
                        self.to_orchestrator.send(&Frame::new(
                            frame.seq,
                            self.id,
                            Payload::Pong,
                        ))?;
                        continue;
                    }
                    _ => {}
                }
                // An epoch can install while this node is blocked in recv;
                // fold it in *before* slotting the frame, so the fan-in
                // geometry matches the epoch the frame belongs to (the
                // floor check below then rejects anything older).
                if self.elastic_sync() {
                    continue;
                }
                if let Some(el) = self.elastic.as_ref() {
                    if el.control.admit(frame.seq).is_err() {
                        el.stale_discards.incr();
                        continue;
                    }
                }
                let source = self.fan_in.source_slot(frame.from, &self.name)?;
                let item = self.section.item_from(frame.payload, &self.name)?;
                match self.collector.insert(frame.seq, source, item) {
                    Ok(Ingest::Complete { seq, items, substituted }) => {
                        completed.push((seq, items, substituted));
                    }
                    Ok(Ingest::Replay { seq }) => {
                        if let Some((s, decision)) = &last_decision {
                            if *s == seq {
                                self.send(decision, seq)?;
                            }
                        }
                    }
                    Ok(Ingest::Stale | Ingest::Pending) => {}
                    // A duplicated or late finalize: the sample already
                    // resolved, so the contribution is simply too late.
                    Err(RuntimeError::Collector { .. }) => {}
                    Err(e) => return Err(e),
                }
            }
            // Micro-batch drain: with a batch budget, greedily pull frames
            // already queued (non-blocking) so several completed samples
            // share one tensor pass. A shutdown seen mid-drain still
            // flushes the gathered batch before the node exits.
            let mut shutdown = false;
            if self.batch_max > 1 && !completed.is_empty() {
                while completed.len() < self.batch_max {
                    let Some(frame) = self.inbox.try_recv()? else { break };
                    if matches!(frame.payload, Payload::Shutdown) {
                        shutdown = true;
                        break;
                    }
                    match self.elastic.as_ref() {
                        Some(el) if el.control.is_churn_down(el.ix) => continue,
                        Some(_) if matches!(frame.payload, Payload::Ping) => {
                            self.to_orchestrator.send(&Frame::new(
                                frame.seq,
                                self.id,
                                Payload::Pong,
                            ))?;
                            continue;
                        }
                        _ => {}
                    }
                    if self.elastic_sync() {
                        break;
                    }
                    if let Some(el) = self.elastic.as_ref() {
                        if el.control.admit(frame.seq).is_err() {
                            el.stale_discards.incr();
                            continue;
                        }
                    }
                    let source = self.fan_in.source_slot(frame.from, &self.name)?;
                    let item = self.section.item_from(frame.payload, &self.name)?;
                    match self.collector.insert(frame.seq, source, item) {
                        Ok(Ingest::Complete { seq, items, substituted }) => {
                            completed.push((seq, items, substituted));
                        }
                        Ok(Ingest::Replay { seq }) => {
                            if let Some((s, decision)) = &last_decision {
                                if *s == seq {
                                    self.send(decision, seq)?;
                                }
                            }
                        }
                        Ok(Ingest::Stale | Ingest::Pending) => {}
                        Err(RuntimeError::Collector { .. }) => {}
                        Err(e) => return Err(e),
                    }
                }
            }
            if self.batch_max > 1 && completed.len() > 1 {
                // Oldest first: the collector only ever replays its
                // watermark sample, so the cached decision must end up
                // being the batch's highest sequence.
                completed.sort_by_key(|&(seq, _, _)| seq);
                if let Some((batches, batched_samples)) = &batch_ctrs {
                    batches.incr();
                    batched_samples.add(completed.len() as u64);
                }
                let name = &self.name;
                let size = completed.len();
                self.obs.run.emit(|| ObsEvent::BatchEvaluated { node: name.clone(), size });
                let mut metas = Vec::with_capacity(completed.len());
                let mut batch = Vec::with_capacity(completed.len());
                for (seq, items, substituted) in completed {
                    metas.push((seq, substituted));
                    batch.push(items);
                }
                let outputs = self.section.evaluate_batch(batch)?;
                for ((seq, substituted), (logits, map)) in metas.into_iter().zip(outputs) {
                    self.obs.aggregates.incr();
                    let name = &self.name;
                    self.obs.run.emit(|| ObsEvent::TierAggregate {
                        node: name.clone(),
                        seq,
                        substituted,
                    });
                    let decision = self.resolve(seq, logits, map)?;
                    self.send(&decision, seq)?;
                    last_decision = Some((seq, decision));
                }
            } else {
                for (seq, items, substituted) in completed {
                    self.obs.aggregates.incr();
                    let name = &self.name;
                    self.obs.run.emit(|| ObsEvent::TierAggregate {
                        node: name.clone(),
                        seq,
                        substituted,
                    });
                    let decision = self.decide(seq, items)?;
                    self.send(&decision, seq)?;
                    last_decision = Some((seq, decision));
                }
            }
            if shutdown {
                let mut report = self.collector.into_report();
                report.corrupt_discards = self.inbox.corrupt_discards();
                return Ok(report);
            }
        }
    }

    /// Folds any new topology epoch into this node's routing state.
    /// Returns `true` while the node is churned down (the caller enters
    /// the silent path).
    fn elastic_sync(&mut self) -> bool {
        let Some(el) = self.elastic.as_mut() else { return false };
        if el.control.is_churn_down(el.ix) {
            el.was_down = true;
            return true;
        }
        if el.was_down {
            // Revived: partials gathered before the crash belong to a dead
            // epoch; refuse everything below the current floor.
            el.was_down = false;
            self.collector.resync(el.control.floor());
        }
        let epoch = el.control.epoch();
        if epoch == el.seen_epoch {
            return false;
        }
        el.seen_epoch = epoch;
        let r = el.control.routing();
        self.collector.resync(el.control.floor());
        match el.tier_k {
            // The gateway: `forced_local` pins every sample to the local
            // exit; routing-dead devices are substituted without waiting.
            None => {
                el.forced_exit = r.forced_local;
                el.route_target = None;
            }
            Some(k) => {
                el.forced_exit = r.forced_exit[k];
                el.route_target = r.escalate_to[k];
                // Where this tier sits on the escalation path decides who
                // feeds it: first hop collects the devices, later hops
                // collect their predecessor, off-path tiers are dormant.
                let path = r.escalation_path();
                let desired = match path.iter().position(|&x| x == k) {
                    Some(0) => Feeder::Devices,
                    Some(p) => Feeder::Tier(path[p - 1]),
                    None => Feeder::Dormant,
                };
                if desired != el.cur_feeder {
                    match desired {
                        Feeder::Devices => {
                            let n = r.num_devices();
                            self.collector.reconfigure(
                                n,
                                el.device_blanks.clone(),
                                (0..n).map(Some).collect(),
                            );
                            self.fan_in = FanIn::Devices(n);
                        }
                        Feeder::Tier(i) => {
                            self.collector.reconfigure(
                                1,
                                vec![el.tier_out_blanks[i].clone()],
                                vec![None],
                            );
                            self.fan_in = FanIn::Tier(el.tier_ids[i]);
                        }
                        // Nothing routes here: keep the geometry; the
                        // epoch floor blocks stragglers.
                        Feeder::Dormant => {}
                    }
                    el.cur_feeder = desired;
                }
            }
        }
        // Whoever currently collects the devices must not wait for the
        // routing-dead ones (and must wait again for re-joined ones).
        let collects_devices = match el.tier_k {
            None => true,
            Some(_) => el.cur_feeder == Feeder::Devices,
        };
        if collects_devices {
            for dix in 0..r.num_devices() {
                if r.live[dix] {
                    self.collector.clear_suspect(dix);
                } else {
                    self.collector.mark_suspect(dix);
                }
            }
        }
        false
    }

    /// Evaluates the section and resolves the exit-or-escalate decision.
    fn decide(&mut self, seq: u64, items: Vec<S::Item>) -> Result<Decision> {
        let (logits, map) = self.section.evaluate(items)?;
        self.resolve(seq, logits, map)
    }

    /// Resolves the exit-or-escalate decision from already-evaluated
    /// logits (shared by the per-sample and micro-batched paths).
    fn resolve(&mut self, seq: u64, logits: Tensor, map: Option<Tensor>) -> Result<Decision> {
        let mut d = self.policy.evaluate(&logits)?;
        // Elastic forced exits: a severed or target-less tier classifies
        // locally — escalating would address a topology that no longer
        // exists.
        if let Some(el) = self.elastic.as_ref() {
            let severed = el.tier_k.is_some()
                && !matches!(self.escalation, Escalation::Terminal)
                && el.route_target.is_none();
            if el.forced_exit || severed {
                d.exits = true;
            }
        }
        let threshold = match self.policy {
            ExitPolicy::Entropy(t) => t.value(),
            ExitPolicy::Terminal => 1.0,
        };
        let name = &self.name;
        if d.exits {
            self.obs.exits.incr();
            self.obs.run.emit(|| ObsEvent::ExitTaken {
                node: name.clone(),
                seq,
                eta: d.eta,
                threshold,
                prediction: d.prediction,
            });
            Ok(Decision::Verdict(Frame::new(
                seq,
                self.id,
                Payload::Verdict { prediction: d.prediction as u16, exit_tier: self.exit_tier },
            )))
        } else {
            self.obs.escalations.incr();
            self.obs.run.emit(|| ObsEvent::Escalated {
                node: name.clone(),
                seq,
                eta: d.eta,
                threshold,
            });
            match &self.escalation {
                Escalation::RequestFromDevices(_) => Ok(Decision::Broadcast),
                Escalation::ForwardMap(_) => {
                    let map = map.ok_or_else(|| RuntimeError::Protocol {
                        reason: format!("{}: escalation without an output map", self.name),
                    })?;
                    Ok(Decision::Forward(Frame::new(
                        seq,
                        self.id,
                        features_payload(&map.index_axis0(0)?)?,
                    )))
                }
                Escalation::Terminal => Err(RuntimeError::Protocol {
                    reason: format!("{}: terminal tier cannot escalate", self.name),
                }),
            }
        }
    }

    /// Sends a (possibly replayed) decision to its target. Under elastic
    /// routing a forward resolves against the *current* routing table, so
    /// replays after a re-parent reach the live target.
    fn send(&self, decision: &Decision, seq: u64) -> Result<()> {
        match (decision, &self.escalation) {
            (Decision::Verdict(frame), _) => self.to_orchestrator.send(frame),
            (Decision::Broadcast, Escalation::RequestFromDevices(devices)) => {
                for sender in devices.iter().flatten() {
                    sender.send(&Frame::new(seq, self.id, Payload::OffloadRequest))?;
                }
                Ok(())
            }
            (Decision::Forward(frame), Escalation::ForwardMap(next)) => {
                match self.elastic.as_ref() {
                    Some(el) => match el.route_target.and_then(|j| el.to_tiers[j].as_ref()) {
                        Some(link) => link.send(frame),
                        // The target vanished since the decision was
                        // cached: drop the replay, the epoch has moved on.
                        None => Ok(()),
                    },
                    None => next.send(frame),
                }
            }
            _ => Err(RuntimeError::Protocol {
                reason: format!("{}: decision does not match escalation target", self.name),
            }),
        }
    }
}
