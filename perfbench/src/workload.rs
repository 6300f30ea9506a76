//! The three workloads, one call of each through the public runtime API
//! (`run_distributed_inference`), and the correctness gate every call
//! passes through.

use crate::setup::{Inputs, ModelKind, Reference};
use crate::sys;
use ddnn_bench::util::{classified_latencies, percentile};
use ddnn_core::{CommCostModel, DdnnPartition, ExitPoint};
use ddnn_runtime::{
    run_distributed_inference, ArrivalProcess, DeadlineConfig, HierarchyConfig, ObsConfig,
    ObsEvent, ObsSink, ReliabilityConfig, SampleOutcome, SimReport, StreamConfig, TransportConfig,
};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Offered load of `stream-tcp`, in samples per second: a fixed absolute
/// rate, below the TCP hierarchy's flood goodput and well below the 250/s
/// it sustains on a 2-vCPU host (`perfbench calibrate` records the
/// measurements behind it). Never re-derived at run time.
pub const STREAM_RATE: f64 = 100.0;

/// Deadlines far longer than any run: flood-edge must never substitute a
/// blank or abandon a sample, so its verdicts stay deterministic.
const LOOSE_DEADLINES: DeadlineConfig = DeadlineConfig {
    aggregation_ms: 600_000,
    watchdog_ms: 600_000,
    max_retries: 0,
    suspect_after: 2,
};

/// Offered load standing in for "everything due at t = 0".
const FLOOD_RATE: f64 = 1e9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ClosedPaper,
    FloodEdge,
    StreamTcp,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::ClosedPaper, Workload::FloodEdge, Workload::StreamTcp];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ClosedPaper => "closed-paper",
            Workload::FloodEdge => "flood-edge",
            Workload::StreamTcp => "stream-tcp",
        }
    }

    pub fn model(self) -> ModelKind {
        match self {
            Workload::ClosedPaper | Workload::StreamTcp => ModelKind::Paper,
            Workload::FloodEdge => ModelKind::Edge,
        }
    }

    /// Whether the runtime runs this workload open loop (measured
    /// latencies in the report) rather than in closed-loop lockstep.
    pub fn is_stream(self) -> bool {
        !matches!(self, Workload::ClosedPaper)
    }

    /// Whether the workload's frames use the checked (CRC/ARQ) wire.
    pub fn checked_wire(self) -> bool {
        matches!(self, Workload::StreamTcp)
    }

    /// The hierarchy configuration of one call over `n` samples.
    pub fn config(self, n: usize, seed: u64) -> HierarchyConfig {
        let (local_threshold, edge_threshold) = self.model().thresholds();
        let base =
            HierarchyConfig { local_threshold, edge_threshold, ..HierarchyConfig::default() };
        match self {
            Workload::ClosedPaper => base,
            Workload::FloodEdge => HierarchyConfig {
                deadlines: Some(LOOSE_DEADLINES),
                stream: Some(StreamConfig {
                    arrival: ArrivalProcess::Poisson { rate_per_s: FLOOD_RATE, seed },
                    queue_cap: n,
                    batch_max: 8,
                }),
                ..base
            },
            Workload::StreamTcp => HierarchyConfig {
                deadlines: Some(DeadlineConfig::default()),
                reliability: ReliabilityConfig::arq(),
                transport: TransportConfig::Tcp,
                stream: Some(StreamConfig {
                    arrival: ArrivalProcess::Poisson { rate_per_s: STREAM_RATE, seed },
                    queue_cap: 64,
                    batch_max: 8,
                }),
                ..base
            },
        }
    }
}

/// Stamps each `SampleEnqueued` event with the benchmark's monotonic
/// clock. In a closed loop the orchestrator enqueues sample `i + 1` only
/// after sample `i`'s verdict has arrived, so consecutive stamps bound
/// each sample's measured arrival-to-verdict time.
#[derive(Default)]
pub struct EnqueueClock {
    stamps: Mutex<Vec<(u64, Instant)>>,
}

impl ObsSink for EnqueueClock {
    fn record(&self, _t_ms: u64, event: &ObsEvent) {
        if let ObsEvent::SampleEnqueued { seq } = event {
            let now = Instant::now();
            self.stamps.lock().expect("enqueue clock poisoned").push((*seq, now));
        }
    }
}

impl EnqueueClock {
    /// Per-sample closed-loop latencies in ms: the gap from each
    /// enqueue to the next, and from the last enqueue to `end`.
    fn latencies_ms(&self, end: Instant) -> Vec<f64> {
        let mut s = self.stamps.lock().expect("enqueue clock poisoned").clone();
        s.sort_by_key(|&(seq, _)| seq);
        let ends = s.iter().skip(1).map(|&(_, t)| t).chain(std::iter::once(end));
        s.iter().zip(ends).map(|(&(_, start), end)| (end - start).as_secs_f64() * 1e3).collect()
    }
}

/// What one call measured.
pub struct Call {
    pub n: usize,
    pub wall_s: f64,
    pub cpu_ms: f64,
    pub classified: usize,
    pub failed: usize,
    /// Classified samples finalized without any substitution.
    pub clean: usize,
    pub correct: usize,
    /// Classified samples that left the device tier.
    pub offloaded: usize,
    pub latencies_ms: Vec<f64>,
    pub device_bytes: usize,
    pub wire_bytes: usize,
    pub transport_bytes: usize,
    pub report: SimReport,
}

impl Call {
    pub fn counter(&self, name: &str) -> u64 {
        self.report.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }

    pub fn counter_sum(&self, prefix: &str, suffix: &str) -> u64 {
        counter_sum(&self.report, prefix, suffix)
    }
}

/// Runs `inputs` once through the workload's hierarchy and checks every
/// outcome. Correctness failures are appended to `failures`.
#[allow(clippy::too_many_arguments)]
pub fn run_call(
    w: Workload,
    part: &DdnnPartition,
    inputs: &Inputs,
    reference: &Reference,
    seed: u64,
    failures: &mut Vec<String>,
) -> Call {
    let cfg = w.config(inputs.labels.len(), seed);
    run_with(w, cfg, part, inputs, reference, None, failures)
}

/// One call of stream-tcp's configuration over `transport` at `rate`
/// samples/s, with an optional timeline sink. With `rate` `None`, every
/// arrival is due at once, the admission window is unbounded and
/// deadlines outlast the run, so the call measures the hierarchy's flood
/// capacity.
#[allow(clippy::too_many_arguments)]
pub fn stream_call(
    part: &DdnnPartition,
    inputs: &Inputs,
    reference: &Reference,
    seed: u64,
    transport: TransportConfig,
    rate: Option<f64>,
    sink: Option<Arc<dyn ObsSink>>,
    failures: &mut Vec<String>,
) -> Call {
    let n = inputs.labels.len();
    let base = HierarchyConfig { transport, ..Workload::StreamTcp.config(n, seed) };
    let cfg = match rate {
        Some(rate_per_s) => HierarchyConfig {
            stream: Some(StreamConfig {
                arrival: ArrivalProcess::Poisson { rate_per_s, seed },
                ..base.stream.expect("stream-tcp streams")
            }),
            ..base
        },
        None => HierarchyConfig {
            deadlines: Some(LOOSE_DEADLINES),
            stream: Some(StreamConfig {
                arrival: ArrivalProcess::Poisson { rate_per_s: FLOOD_RATE, seed },
                queue_cap: n,
                batch_max: 8,
            }),
            ..base
        },
    };
    run_with(Workload::StreamTcp, cfg, part, inputs, reference, sink, failures)
}

fn run_with(
    w: Workload,
    mut cfg: HierarchyConfig,
    part: &DdnnPartition,
    inputs: &Inputs,
    reference: &Reference,
    sink: Option<Arc<dyn ObsSink>>,
    failures: &mut Vec<String>,
) -> Call {
    let n = inputs.labels.len();
    let clock = (!w.is_stream() && sink.is_none()).then(|| Arc::new(EnqueueClock::default()));
    cfg.obs = ObsConfig { sink: sink.or_else(|| clock.clone().map(|c| c as Arc<dyn ObsSink>)) };
    let cpu0 = sys::cpu_ms();
    let t0 = Instant::now();
    let report = match run_distributed_inference(part, &inputs.views, &inputs.labels, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("CHECK FAILED: {}: run failed: {e}", w.name());
            std::process::exit(2);
        }
    };
    let end = Instant::now();
    let wall_s = (end - t0).as_secs_f64();
    let cpu_ms = sys::cpu_ms() - cpu0;

    let classified = report.classified_count();
    let shed = report.shed_count();
    let timed_out = report.timed_out_count();
    if classified + shed + timed_out != n {
        failures.push(format!(
            "{}: conservation broken: {classified} classified + {shed} shed + {timed_out} \
             timed out != {n} arrived",
            w.name()
        ));
    }
    let degraded: HashSet<u64> = report.degraded_samples.iter().copied().collect();
    let (mut clean, mut correct, mut offloaded, mut mismatched) = (0, 0, 0, 0);
    for i in 0..n {
        if !matches!(report.outcomes[i], SampleOutcome::Classified) {
            continue;
        }
        if report.predictions[i] == inputs.labels[i] {
            correct += 1;
        }
        if report.exits[i] != ExitPoint::Local {
            offloaded += 1;
        }
        if !degraded.contains(&(i as u64)) {
            clean += 1;
            if report.predictions[i] != reference.predictions[i]
                || report.exits[i] != reference.exits[i]
            {
                mismatched += 1;
            }
        }
    }
    if mismatched > 0 {
        failures.push(format!(
            "{}: {mismatched} clean verdicts differ from the in-process reference",
            w.name()
        ));
    }
    if w == Workload::FloodEdge && (classified != n || clean != n) {
        failures.push(format!(
            "flood-edge: {} failed and {} degraded samples (both must be 0)",
            n - classified,
            classified - clean
        ));
    }

    // Eq. 1: every capture costs 4·|C| score bytes per device, every
    // offloaded sample f·o/8 feature bytes per device plus the 6-byte
    // shape preamble of the wire format. Retried captures and offloads
    // are counted by the runtime's own per-device counters.
    let comm = CommCostModel::from_config(&part.config);
    let devices = part.config.num_devices;
    let device_bytes = report.device_first_payload_bytes();
    let captures = counter_sum(&report, "node.device", ".captures");
    let offloads = counter_sum(&report, "node.device", ".offloads");
    let eq1 = captures as usize * comm.summary_bytes()
        + offloads as usize * (comm.feature_map_bytes() + 6);
    if device_bytes != eq1 {
        failures.push(format!(
            "{}: device payload {device_bytes} B != Eq. 1 {eq1} B ({captures} captures, \
             {offloads} offloads)",
            w.name()
        ));
    }
    if shed + timed_out == 0 && report.capture_retries == 0 {
        let strict = devices * (n * comm.summary_bytes())
            + devices * offloaded * (comm.feature_map_bytes() + 6);
        if device_bytes != strict {
            failures.push(format!(
                "{}: device payload {device_bytes} B != Eq. 1 {strict} B for {n} samples, \
                 {offloaded} offloaded",
                w.name()
            ));
        }
    }

    let wire_bytes =
        report.links.iter().map(|(_, s)| s.payload_bytes + s.header_bytes + s.ack_bytes).sum();
    let transport_bytes = counter_sum(&report, "transport.", ".bytes_sent") as usize;
    let latencies_ms = match &clock {
        Some(c) => c.latencies_ms(end),
        None => classified_latencies(&report),
    };
    Call {
        n,
        wall_s,
        cpu_ms,
        classified,
        failed: shed + timed_out,
        clean,
        correct,
        offloaded,
        latencies_ms,
        device_bytes,
        wire_bytes,
        transport_bytes,
        report,
    }
}

/// Sum of every counter whose name starts with `prefix` and ends with
/// `suffix`.
fn counter_sum(report: &SimReport, prefix: &str, suffix: &str) -> u64 {
    report
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with(prefix) && n.ends_with(suffix))
        .map(|(_, v)| v)
        .sum()
}

/// Folds per-call figures into the end-to-end metrics: rates, latency and
/// CPU as the median over calls, counts pooled over all calls.
pub fn summarize(calls: &[Call]) -> Vec<(&'static str, f64, &'static str)> {
    let n: usize = calls.iter().map(|c| c.n).sum();
    let nf = n as f64;
    let per_call =
        |f: &dyn Fn(&Call) -> f64| -> f64 { sys::median(&calls.iter().map(f).collect::<Vec<_>>()) };
    let sum = |f: &dyn Fn(&Call) -> usize| -> f64 { calls.iter().map(f).sum::<usize>() as f64 };
    let classified = sum(&|c| c.classified);
    vec![
        ("goodput_sps", per_call(&|c| c.classified as f64 / c.wall_s), "1/s"),
        ("latency_p50_ms", per_call(&|c| percentile(&c.latencies_ms, 0.50)), "ms"),
        ("classified_frac", classified / nf, "fraction"),
        ("clean_frac", sum(&|c| c.clean) / nf, "fraction"),
        ("accuracy", sum(&|c| c.correct) / nf, "fraction"),
        ("offload_frac", sum(&|c| c.offloaded) / classified.max(1.0), "fraction"),
        ("device_bytes_per_sample", sum(&|c| c.device_bytes) / nf, "B"),
        ("wire_bytes_per_sample", sum(&|c| c.wire_bytes) / nf, "B"),
        ("transport_bytes_per_sample", sum(&|c| c.transport_bytes) / nf, "B"),
        ("cpu_ms_per_sample", per_call(&|c| c.cpu_ms / c.n as f64), "ms"),
    ]
}
