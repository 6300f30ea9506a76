//! The traced run's instruments: in-memory spans around calls into each
//! module's public functions, and a replay of the per-sample path that
//! times every layer from outside the runtime.
//!
//! Spans carry a name, start, end, parent and sample id; they stay in
//! memory and are written out when the run ends. Each span records wall
//! time and process CPU time (all threads, so worker-pool threads a call
//! starts are charged to it). A layer's self time is its span's duration
//! minus the time its child spans cover, on either clock.

use crate::setup::{Inputs, ModelKind};
use crate::sys;
use ddnn_core::{ConvPBlock, DdnnPartition, ExitHead, ExitPolicy, FeatureAggregator};
use ddnn_nn::{Layer, Mode};
use ddnn_runtime::message::{features_payload, features_tensor};
use ddnn_runtime::{Frame, NodeId, Payload};
use ddnn_tensor::Tensor;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: usize,
    start_ns: u64,
    end_ns: u64,
    cpu_start_ms: f64,
    cpu_end_ms: f64,
    parent: Option<usize>,
    sample: u64,
}

/// An in-memory span recorder. A disabled tracer records nothing, so the
/// same replay code measures its own overhead.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    names: Vec<String>,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Handle of an open span.
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &str, sample: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let name = match self.names.iter().position(|n| n == name) {
            Some(i) => i,
            None => {
                self.names.push(name.to_string());
                self.names.len() - 1
            }
        };
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            cpu_start_ms: 0.0,
            cpu_end_ms: 0.0,
            parent,
            sample,
        });
        self.stack.push(idx);
        // The CPU clock is read outside the wall window on both ends, so a
        // span's wall time excludes its own clock reads.
        self.spans[idx].cpu_start_ms = sys::cpu_ms();
        self.spans[idx].start_ns = self.now_ns();
        SpanId(Some(idx))
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(idx) = id.0 {
            let t = self.now_ns();
            self.spans[idx].end_ns = t;
            self.spans[idx].cpu_end_ms = sys::cpu_ms();
            self.stack.pop();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &str, sample: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, sample);
        let r = f();
        self.end(id);
        r
    }

    fn dur(&self, i: usize) -> u64 {
        self.spans[i].end_ns - self.spans[i].start_ns
    }

    fn cpu_dur_ns(&self, i: usize) -> f64 {
        (self.spans[i].cpu_end_ms - self.spans[i].cpu_start_ms) * 1e6
    }

    /// Wall and CPU self time (ns) of every span.
    fn self_times(&self) -> Vec<(u64, f64)> {
        let mut child = vec![(0u64, 0.0f64); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child[p].0 += self.dur(i);
                child[p].1 += self.cpu_dur_ns(i);
            }
        }
        (0..self.spans.len())
            .map(|i| {
                let wall = self.dur(i).saturating_sub(child[i].0);
                (wall, (self.cpu_dur_ns(i) - child[i].1).max(0.0))
            })
            .collect()
    }

    /// The root span index of every span.
    fn roots(&self) -> Vec<usize> {
        let mut root: Vec<usize> = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            root.push(s.parent.map_or(i, |p| root[p]));
        }
        root
    }

    /// Every span as one JSON line, in start order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \
                 \"cpu_us\": {:.3}, \"parent\": {}, \"sample\": {}}}",
                self.names[s.name],
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                self.cpu_dur_ns(i) / 1e3,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.sample
            );
        }
        out
    }
}

/// Calls and total self time of the spans of one name.
#[derive(Default, Clone, Copy)]
pub struct LayerStat {
    pub calls: u64,
    pub wall_ns: u64,
    pub cpu_ns: f64,
}

/// Per-name statistics of the recorded spans, split by root kind.
pub struct Profile {
    /// Spans under `sample` roots (the replayed per-sample path).
    pub path: BTreeMap<String, LayerStat>,
    /// The same under `probe` roots (layers off the workload's path).
    pub probe: BTreeMap<String, LayerStat>,
    /// Per replayed sample, the blocking path in ns: serial spans plus,
    /// for each device phase, the slowest device (devices run in
    /// parallel in the runtime).
    pub blocking_ns: Vec<f64>,
    pub path_samples: usize,
}

impl Profile {
    fn stat(&self, name: &str) -> LayerStat {
        self.path.get(name).or_else(|| self.probe.get(name)).copied().unwrap_or_default()
    }

    /// Mean wall self time per call in µs, path spans first, then probes.
    pub fn mean_us(&self, name: &str) -> f64 {
        let s = self.stat(name);
        s.wall_ns as f64 / s.calls.max(1) as f64 / 1e3
    }

    /// Mean CPU self time per call in ns, path spans first, then probes.
    pub fn mean_cpu_ns(&self, name: &str) -> f64 {
        let s = self.stat(name);
        s.cpu_ns / s.calls.max(1) as f64
    }

    /// Calls and total self time of path spans named `name`.
    pub fn path_total(&self, name: &str) -> LayerStat {
        self.path.get(name).copied().unwrap_or_default()
    }
}

/// Groups whose children run once per device, concurrently in the
/// runtime: the blocking path counts only the slowest of them.
const DEVICE_GROUPS: [&str; 2] = ["device.capture", "device.offload"];

impl Tracer {
    pub fn profile(&self) -> Profile {
        let selfs = self.self_times();
        let roots = self.roots();
        let mut path = BTreeMap::new();
        let mut probe = BTreeMap::new();
        // Per sample: serial ns, and per (device group name) the max group
        // duration.
        let mut serial: BTreeMap<u64, u64> = BTreeMap::new();
        let mut groups: BTreeMap<(u64, usize), u64> = BTreeMap::new();
        let group_ids: Vec<usize> =
            DEVICE_GROUPS.iter().filter_map(|g| self.names.iter().position(|n| n == g)).collect();
        for (i, s) in self.spans.iter().enumerate() {
            let root = &self.names[self.spans[roots[i]].name];
            if roots[i] == i {
                continue;
            }
            let is_group = group_ids.contains(&s.name);
            let name = &self.names[s.name];
            let map = if root == "sample" { &mut path } else { &mut probe };
            if !is_group {
                let e = map.entry(name.clone()).or_insert_with(LayerStat::default);
                e.calls += 1;
                e.wall_ns += selfs[i].0;
                e.cpu_ns += selfs[i].1;
            }
            if root != "sample" {
                continue;
            }
            // Is this span inside a device group?
            let mut p = s.parent;
            let mut inside = false;
            while let Some(pi) = p {
                if group_ids.contains(&self.spans[pi].name) {
                    inside = true;
                    break;
                }
                p = self.spans[pi].parent;
            }
            if is_group {
                let e = groups.entry((s.sample, s.name)).or_insert(0);
                *e = (*e).max(self.dur(i));
            } else if !inside {
                *serial.entry(s.sample).or_insert(0) += selfs[i].0;
            }
        }
        let mut blocking: BTreeMap<u64, u64> = serial;
        for ((sample, _), ns) in groups {
            *blocking.entry(sample).or_insert(0) += ns;
        }
        let path_samples = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && self.names[s.name] == "sample")
            .count();
        Profile {
            path,
            probe,
            blocking_ns: blocking.values().map(|&v| v as f64).collect(),
            path_samples,
        }
    }
}

/// One feature tier's model section.
struct Tier {
    name: &'static str,
    agg: FeatureAggregator,
    convs: Vec<ConvPBlock>,
    exit: ExitHead,
}

fn tiers_of(part: &DdnnPartition) -> Vec<Tier> {
    let mut tiers = Vec::new();
    if let Some(e) = &part.edge {
        tiers.push(Tier {
            name: "edge",
            agg: e.agg.clone(),
            convs: vec![e.conv.clone()],
            exit: e.exit.clone(),
        });
    }
    tiers.push(Tier {
        name: "cloud",
        agg: part.cloud.agg.clone(),
        convs: part.cloud.convs.clone(),
        exit: part.cloud.exit.clone(),
    });
    tiers
}

fn batch1(t: &Tensor) -> Tensor {
    let mut dims = vec![1];
    dims.extend_from_slice(t.dims());
    t.reshape(dims).expect("add a batch axis")
}

/// Encodes and decodes one frame on the workload's wire inside
/// `message.frame_encode`/`message.frame_decode` spans.
fn roundtrip(tr: &mut Tracer, frame: Frame, sample: u64, checked: bool) -> Frame {
    let bytes = tr.time("message.frame_encode", sample, || encode(&frame, checked));
    tr.time("message.frame_decode", sample, || decode(bytes, checked))
}

fn encode(frame: &Frame, checked: bool) -> bytes::Bytes {
    if checked {
        frame.encode_checked(0, 1)
    } else {
        frame.encode()
    }
}

fn decode(bytes: bytes::Bytes, checked: bool) -> Frame {
    if checked {
        Frame::decode_checked(bytes).expect("decode a checked frame").frame
    } else {
        Frame::decode(bytes).expect("decode a frame")
    }
}

fn sample_views(inputs: &Inputs, i: usize) -> Vec<Tensor> {
    inputs.views.iter().map(|v| v.index_axis0(i).expect("sample view")).collect()
}

/// Replays the workload's per-sample path outside the runtime, one sample
/// at a time, calling each module's public functions inside spans:
/// capture frames, device ConvP and exit head, score frames, gateway
/// aggregation and exit policy, and for offloaded samples the bit-pack,
/// frames, unpack and every tier section. Returns how many replayed
/// verdicts differ from the in-process reference.
pub fn replay_path(
    tr: &mut Tracer,
    part: &DdnnPartition,
    kind: ModelKind,
    checked: bool,
    inputs: &Inputs,
    samples: usize,
    reference: &crate::setup::Reference,
) -> usize {
    let (local, edge) = kind.thresholds();
    let mut devices = part.devices.clone();
    let mut gateway = part.gateway.agg.clone();
    let mut tiers = tiers_of(part);
    let last = tiers.len() - 1;
    let mut mismatches = 0;
    for i in 0..samples {
        let s = i as u64;
        let views = sample_views(inputs, i);
        let root = tr.begin("sample", s);
        let mut maps = Vec::with_capacity(devices.len());
        let mut scores = Vec::with_capacity(devices.len());
        for (d, dev) in devices.iter_mut().enumerate() {
            let g = tr.begin("device.capture", s);
            let cap =
                Frame::new(s, NodeId::Orchestrator, Payload::Capture { view: views[d].clone() });
            let bytes = tr.time("message.capture_encode", s, || encode(&cap, checked));
            let frame = tr.time("message.capture_decode", s, || decode(bytes, checked));
            let Payload::Capture { view } = frame.payload else { unreachable!("capture frame") };
            let map = tr.time("core.device_convp", s, || {
                dev.conv.forward(&batch1(&view), Mode::Eval).expect("device ConvP")
            });
            let sc = tr.time("core.device_exit", s, || {
                dev.exit.forward(&map, Mode::Eval).expect("device exit head")
            });
            let frame = Frame::new(
                s,
                NodeId::Device(d as u8),
                Payload::Scores { scores: sc.data().to_vec() },
            );
            let Payload::Scores { scores: v } = roundtrip(tr, frame, s, checked).payload else {
                unreachable!("scores frame")
            };
            tr.end(g);
            let c = v.len();
            scores.push(Tensor::from_vec(v, [1, c]).expect("score tensor"));
            maps.push(map.index_axis0(0).expect("device map"));
        }
        let logits = tr
            .time("core.gateway_agg", s, || gateway.forward(&scores, Mode::Eval).expect("gateway"));
        let d = tr.time("core.exit_policy", s, || {
            ExitPolicy::Entropy(local).evaluate(&logits).expect("local exit policy")
        });
        let (prediction, exit) = if d.exits {
            (d.prediction, ddnn_core::ExitPoint::Local)
        } else {
            let mut items = Vec::with_capacity(maps.len());
            for (d, map) in maps.iter().enumerate() {
                let g = tr.begin("device.offload", s);
                roundtrip(tr, Frame::new(s, NodeId::Gateway, Payload::OffloadRequest), s, checked);
                let payload =
                    tr.time("message.pack", s, || features_payload(map).expect("pack features"));
                let frame =
                    roundtrip(tr, Frame::new(s, NodeId::Device(d as u8), payload), s, checked);
                tr.end(g);
                items.push(unpack(tr, frame, s));
            }
            let mut verdict = None;
            for (k, tier) in tiers.iter_mut().enumerate() {
                let inputs: Vec<Tensor> = items.iter().map(batch1).collect();
                let x = tr.time(&format!("core.tier_agg.{}", tier.name), s, || {
                    tier.agg.forward(&inputs).expect("tier aggregation")
                });
                let x = tr.time(&format!("core.tier_convp.{}", tier.name), s, || {
                    tier.convs
                        .iter_mut()
                        .fold(x, |x, c| c.forward(&x, Mode::Eval).expect("tier ConvP"))
                });
                let lg = tr.time(&format!("core.tier_exit.{}", tier.name), s, || {
                    tier.exit.forward(&x, Mode::Eval).expect("tier exit head")
                });
                let policy =
                    if k == last { ExitPolicy::Terminal } else { ExitPolicy::Entropy(edge) };
                let d =
                    tr.time("core.exit_policy", s, || policy.evaluate(&lg).expect("tier policy"));
                if d.exits || k == last {
                    let point = if k == last {
                        ddnn_core::ExitPoint::Cloud
                    } else {
                        ddnn_core::ExitPoint::Edge
                    };
                    verdict = Some((d.prediction, point));
                    break;
                }
                let payload = tr.time("message.pack", s, || {
                    features_payload(&x.index_axis0(0).expect("tier map")).expect("pack tier map")
                });
                let frame = roundtrip(tr, Frame::new(s, NodeId::Edge, payload), s, checked);
                items = vec![unpack(tr, frame, s)];
            }
            verdict.expect("the terminal tier classifies")
        };
        roundtrip(
            tr,
            Frame::new(
                s,
                NodeId::Cloud,
                Payload::Verdict { prediction: prediction as u16, exit_tier: 0 },
            ),
            s,
            checked,
        );
        tr.end(root);
        if prediction != reference.predictions[i] || exit != reference.exits[i] {
            mismatches += 1;
        }
    }
    mismatches
}

fn unpack(tr: &mut Tracer, frame: Frame, s: u64) -> Tensor {
    let Payload::Features { channels, height, width, bits } = frame.payload else {
        unreachable!("features frame")
    };
    tr.time("message.unpack", s, || {
        features_tensor(channels, height, width, &bits).expect("unpack features")
    })
}

/// Times layers off the workload's per-sample path under `probe` roots.
/// With `only` `None`: every tier section of `part` at batch 8, and both
/// wire formats on a device features frame. With `Some(tier)`: that tier
/// alone, at batch 1 and 8 — a tier the workload's own model lacks.
pub fn probe(
    tr: &mut Tracer,
    part: &DdnnPartition,
    inputs: &Inputs,
    samples: usize,
    only: Option<&str>,
) {
    const B: usize = 8;
    let mut devices = part.devices.clone();
    let mut tiers = tiers_of(part);
    for chunk in 0..samples / B {
        let idx: Vec<usize> = (chunk * B..(chunk + 1) * B).collect();
        let s = idx[0] as u64;
        // Device maps of the whole chunk, untimed: the tiers are probed.
        let mut items: Vec<Tensor> = devices
            .iter_mut()
            .zip(&inputs.views)
            .map(|(dev, v)| {
                let batch = v.select_axis0(&idx).expect("chunk views");
                dev.conv.forward(&batch, Mode::Eval).expect("device ConvP")
            })
            .collect();
        let root = tr.begin("probe", s);
        if only.is_none() {
            for (i, &sample) in idx.iter().enumerate() {
                let map = items[0].index_axis0(i).expect("device map");
                let payload = features_payload(&map).expect("pack");
                let frame = Frame::new(sample as u64, NodeId::Device(0), payload);
                let legacy = tr.time("message.encode", s, || frame.encode());
                tr.time("message.decode", s, || Frame::decode(legacy).expect("decode"));
                let checked = tr.time("message.encode_checked", s, || frame.encode_checked(0, 1));
                tr.time("message.decode_checked", s, || {
                    Frame::decode_checked(checked).expect("decode")
                });
            }
        }
        for tier in tiers.iter_mut() {
            if only.is_some_and(|name| name != tier.name) {
                break;
            }
            if only.is_some() {
                for i in 0..B {
                    let rows: Vec<Tensor> =
                        items.iter().map(|t| batch1(&t.index_axis0(i).expect("row"))).collect();
                    let x = tr.time(&format!("core.tier_agg.{}", tier.name), s, || {
                        tier.agg.forward(&rows).expect("tier aggregation")
                    });
                    let x = tr.time(&format!("core.tier_convp.{}", tier.name), s, || {
                        tier.convs
                            .iter_mut()
                            .fold(x, |x, c| c.forward(&x, Mode::Eval).expect("ConvP"))
                    });
                    tr.time(&format!("core.tier_exit.{}", tier.name), s, || {
                        tier.exit.forward(&x, Mode::Eval).expect("tier exit head")
                    });
                }
            }
            let x = tr.time(&format!("core.tier_agg_b8.{}", tier.name), s, || {
                tier.agg.forward(&items).expect("tier aggregation")
            });
            let x = tr.time(&format!("core.tier_convp_b8.{}", tier.name), s, || {
                tier.convs.iter_mut().fold(x, |x, c| c.forward(&x, Mode::Eval).expect("ConvP"))
            });
            tr.time(&format!("core.tier_exit_b8.{}", tier.name), s, || {
                tier.exit.forward(&x, Mode::Eval).expect("tier exit head")
            });
            items = vec![x];
        }
        tr.end(root);
    }
}
