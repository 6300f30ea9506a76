//! End-to-end and per-layer benchmark of the DDNN runtime on the trained
//! paper models. Run from the repository root:
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload closed-paper --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` prints every end-to-end metric; `--trace 1` runs the traced
//! variant and prints every per-layer metric. The last stdout line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; the exit
//! code is non-zero when any correctness check fails.
//!
//! Subcommands: `train` regenerates the committed 40-epoch checkpoints
//! and their manifest; `calibrate` measures the flood capacities behind
//! `stream-tcp`'s fixed rate and writes `perfbench/calibration.json`.

mod setup;
mod sys;
mod trace;
mod workload;

use ddnn_bench::util::percentile;
use ddnn_core::{Ddnn, DdnnPartition};
use ddnn_runtime::{ObsEvent, ObsSink, TransportConfig};
use setup::{Inputs, ModelKind, Reference, TestSplit};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;
use workload::{run_call, stream_call, summarize, Call, Workload, STREAM_RATE};

/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// Test-split repeats per call of the closed-loop and flood workloads.
const CALL_REPEATS: usize = 10;
/// Samples replayed per traced run.
const REPLAY_SAMPLES: usize = 344;
/// Traced and bare replays alternate this many times each; the tracer's
/// overhead compares the least process CPU of the two sides.
const REPLAY_PAIRS: usize = 4;
/// Samples of the TCP/channel stream pair in traced runs (5 s each at
/// stream-tcp's rate).
const STREAM_PROBE_SAMPLES: usize = 513;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <closed-paper|flood-edge|stream-tcp> --seed <n> \
         --seconds <s> --trace <0|1>\n       perfbench train\n       perfbench calibrate"
    );
    std::process::exit(64);
}

fn parse_args(args: &[String]) -> Args {
    let get = |flag: &str| -> String {
        let i = args.iter().position(|a| a == flag).unwrap_or_else(|| usage());
        args.get(i + 1).cloned().unwrap_or_else(|| usage())
    };
    Args {
        workload: Workload::parse(&get("--workload")).unwrap_or_else(|| usage()),
        seed: get("--seed").parse().unwrap_or_else(|_| usage()),
        seconds: get("--seconds").parse().unwrap_or_else(|_| usage()),
        trace: match get("--trace").as_str() {
            "0" => false,
            "1" => true,
            _ => usage(),
        },
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match (args.first().map(String::as_str), args.len()) {
        (Some("train"), 1) => setup::train_models(),
        (Some("calibrate"), 1) => calibrate(),
        _ => std::process::exit(run(&parse_args(&args))),
    }
}

/// Everything set-up produces, with the time each set-up step took.
struct Prepared {
    split: TestSplit,
    models: Vec<(ModelKind, Ddnn)>,
    generate_s: Vec<f64>,
    load_s: Vec<f64>,
    wiring_s: Vec<f64>,
}

impl Prepared {
    fn model(&mut self, kind: ModelKind) -> &mut Ddnn {
        &mut self.models.iter_mut().find(|(k, _)| *k == kind).expect("model loaded").1
    }

    /// Generation + load + wiring of each set-up.
    fn setup_s(&self) -> Vec<f64> {
        (0..self.generate_s.len())
            .map(|i| self.generate_s[i] + self.load_s[i] + self.wiring_s[i])
            .collect()
    }
}

/// Test-split repeats of one workload call.
fn repeats(w: Workload, seconds: f64, test_len: usize) -> usize {
    match w {
        Workload::StreamTcp => ((STREAM_RATE * seconds) as usize / test_len).max(1),
        _ => CALL_REPEATS,
    }
}

/// Set-up, repeated [`SETUP_REPS`] times: generate the test split, load
/// and verify both checkpoints, wire the workload's hierarchy with a
/// one-sample run.
fn prepare(args: &Args, failures: &mut Vec<String>) -> Prepared {
    let mut p = Prepared {
        split: TestSplit { views: Vec::new(), labels: Vec::new() },
        models: Vec::new(),
        generate_s: Vec::new(),
        load_s: Vec::new(),
        wiring_s: Vec::new(),
    };
    let kind = args.workload.model();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        p.split = setup::generate_test_split();
        let t1 = Instant::now();
        p.models = ModelKind::ALL
            .into_iter()
            .map(|k| {
                let model = setup::load_checked(k, &p.split).unwrap_or_else(|e| {
                    eprintln!("CHECK FAILED: {e}");
                    std::process::exit(2)
                });
                (k, model)
            })
            .collect();
        let t2 = Instant::now();
        let one = setup::prefix(&setup::workload_inputs(&p.split, 1, args.seed), 1);
        let reference = setup::reference(p.model(kind), kind, &one);
        let part = p.model(kind).partition();
        let t3 = Instant::now();
        run_call(args.workload, &part, &one, &reference, args.seed, failures);
        let t4 = Instant::now();
        p.generate_s.push((t1 - t0).as_secs_f64());
        p.load_s.push((t2 - t1).as_secs_f64());
        p.wiring_s.push((t4 - t3).as_secs_f64());
    }
    p
}

fn metric_json(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(args: &Args) -> i32 {
    println!("env: {}", sys::env_stamp());
    let mut failures = Vec::new();
    let mut prep = prepare(args, &mut failures);
    let w = args.workload;
    let kind = w.model();
    let inputs = setup::workload_inputs(
        &prep.split,
        repeats(w, args.seconds, prep.split.labels.len()),
        args.seed,
    );
    let reference = setup::reference(prep.model(kind), kind, &inputs);
    let part = prep.model(kind).partition();
    // Warm-up: the first call in a process pays one-off costs.
    let warm = setup::prefix(&inputs, prep.split.labels.len());
    let warm_ref = setup::reference(prep.model(kind), kind, &warm);
    run_call(w, &part, &warm, &warm_ref, args.seed, &mut failures);

    let (attempted, failed, metrics) = if args.trace {
        traced(args, &mut prep, &part, &inputs, &reference, &mut failures)
    } else {
        let mut calls: Vec<Call> = Vec::new();
        let t0 = Instant::now();
        loop {
            calls.push(run_call(w, &part, &inputs, &reference, args.seed, &mut failures));
            if w == Workload::StreamTcp || t0.elapsed().as_secs_f64() >= args.seconds {
                break;
            }
        }
        let mut m: Vec<(String, f64, &str)> =
            summarize(&calls).into_iter().map(|(n, v, u)| (n.to_string(), v, u)).collect();
        m.push(("peak_rss_mb".to_string(), sys::peak_rss_mb(), "MiB"));
        m.push(("setup_s".to_string(), sys::median(&prep.setup_s()), "s"));
        let p99: Vec<String> =
            calls.iter().map(|c| format!("{:.2}", percentile(&c.latencies_ms, 0.99))).collect();
        eprintln!(
            "{} calls in {:.1} s; per-call latency p99 ms: {}",
            calls.len(),
            t0.elapsed().as_secs_f64(),
            p99.join(" ")
        );
        let attempted: usize = calls.iter().map(|c| c.n).sum();
        let failed: usize = calls.iter().map(|c| c.failed).sum();
        (attempted, failed, m)
    };
    for f in &failures {
        eprintln!("CHECK FAILED: {f}");
    }
    let correct = failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metric_json(&metrics)
    );
    if correct {
        0
    } else {
        1
    }
}

/// Counts the runtime's ack events, one per ack sent.
#[derive(Default)]
struct AckCounter(AtomicUsize);

impl ObsSink for AckCounter {
    fn record(&self, _t_ms: u64, event: &ObsEvent) {
        if matches!(event, ObsEvent::AckSent { .. }) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The traced run: untraced calls of the workload interleaved with a
/// span-instrumented replay of its per-sample path plus off-path probes,
/// and a TCP/channel pair of short streams on stream-tcp's configuration.
fn traced(
    args: &Args,
    prep: &mut Prepared,
    part: &DdnnPartition,
    inputs: &Inputs,
    reference: &Reference,
    failures: &mut Vec<String>,
) -> (usize, usize, Vec<(String, f64, &'static str)>) {
    let w = args.workload;
    let kind = w.model();
    let seed = args.seed;
    // Untraced calls alternate with the replays, so the reconciliation's
    // two sides are measured over the same stretch of a shared host's
    // time. A stream-tcp call lasts the whole `--seconds`: it runs once.
    let calls_wanted = if w == Workload::StreamTcp { 1 } else { REPLAY_PAIRS };
    let mut calls: Vec<Call> = Vec::new();

    // Replay the per-sample path with spans and without, alternately, on
    // the same samples: the difference is the tracer's own cost. The last
    // traced replay's spans are kept.
    let replay_n = REPLAY_SAMPLES.min(inputs.labels.len());
    let edge_part = prep.model(ModelKind::Edge).partition();
    let replay = |tr: &mut Tracer| -> usize {
        let bad = trace::replay_path(tr, part, kind, w.checked_wire(), inputs, replay_n, reference);
        trace::probe(tr, part, inputs, replay_n, None);
        if kind == ModelKind::Paper {
            trace::probe(tr, &edge_part, inputs, replay_n, Some("edge"));
        }
        bad
    };
    let (mut traced_cpu, mut bare_cpu) = (Vec::new(), Vec::new());
    let mut mismatched = 0;
    let mut tr = Tracer::new(true);
    for k in 0..2 * REPLAY_PAIRS {
        if k % 2 == 0 && calls.len() < calls_wanted {
            calls.push(run_call(w, part, inputs, reference, seed, failures));
        }
        // Bare, traced, traced, bare, ...: neither side always runs first.
        let traced = (k + k / 2) % 2 == 1;
        let mut t = Tracer::new(traced);
        let cpu0 = sys::cpu_ms();
        mismatched += replay(&mut t);
        let cpu = sys::cpu_ms() - cpu0;
        if traced {
            traced_cpu.push(cpu);
            tr = t;
        } else {
            bare_cpu.push(cpu);
        }
    }
    let least = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let (traced_ms, bare_ms) = (least(&traced_cpu), least(&bare_cpu));
    if mismatched > 0 {
        failures.push(format!(
            "{}: {mismatched} replayed verdicts differ from the reference",
            w.name()
        ));
    }
    let prof = tr.profile();
    let dir = std::path::Path::new("perfbench/out");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("trace-{}-{seed}.jsonl", w.name()));
        if let Err(e) = std::fs::write(&path, tr.to_jsonl()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }

    // Stream-tcp's configuration on the first samples, over TCP and over
    // the channel, each with a timeline sink that counts ack events: the
    // transport and reliability rows of every workload come from this pair.
    let probe_in = setup::prefix(inputs, STREAM_PROBE_SAMPLES.min(inputs.labels.len()));
    let paper = prep.model(ModelKind::Paper);
    let probe_ref = setup::reference(paper, ModelKind::Paper, &probe_in);
    let paper_part = paper.partition();
    let mut stream = |t: TransportConfig| {
        let acks = Arc::new(AckCounter::default());
        let sink = Some(acks.clone() as Arc<dyn ObsSink>);
        let rate = Some(STREAM_RATE);
        let c = stream_call(&paper_part, &probe_in, &probe_ref, seed, t, rate, sink, failures);
        (c, acks.0.load(Ordering::Relaxed))
    };
    let (tcp, tcp_acks) = stream(TransportConfig::Tcp);
    let (chan, _) = stream(TransportConfig::Channel);

    let untraced = &calls[0];
    let n = untraced.n as f64;
    let per_call = |f: &dyn Fn(&Call) -> f64| sys::median(&calls.iter().map(f).collect::<Vec<_>>());

    // Reconciliation, in process CPU on both sides. Tiers the runtime
    // micro-batched are charged their batch-8 cost per sample instead of
    // the replay's batch-1 cost.
    let batch_mean = |tier: &str| -> f64 {
        let aggs = untraced.counter(&format!("node.{tier}.aggregates")) as f64;
        let batches = untraced.counter(&format!("node.{tier}.batches")) as f64;
        let batched = untraced.counter(&format!("node.{tier}.batched_samples")) as f64;
        let evals = batches + aggs - batched;
        if evals > 0.0 {
            aggs / evals
        } else {
            0.0
        }
    };
    let mut replayed_ns: f64 = prof.path.values().map(|l| l.cpu_ns).sum();
    for tier in ["edge", "cloud"] {
        if batch_mean(tier) > 4.0 {
            let tier_calls = prof.path_total(&format!("core.tier_agg.{tier}")).calls;
            for stage in ["agg", "convp", "exit"] {
                let ns = prof.path_total(&format!("core.tier_{stage}.{tier}")).cpu_ns;
                let b8_ns = prof.mean_cpu_ns(&format!("core.tier_{stage}_b8.{tier}")) / 8.0;
                replayed_ns += tier_calls as f64 * b8_ns - ns;
            }
        }
    }
    let replayed_ms = replayed_ns / prof.path_samples.max(1) as f64 / 1e6;
    let cpu_ms = per_call(&|c| c.cpu_ms / c.n as f64);
    let path_ms = sys::median(&prof.blocking_ns) / 1e6;
    let latency_p50 = per_call(&|c| percentile(&c.latencies_ms, 0.5));

    let frames = |c: &Call| -> u64 { c.report.links.iter().map(|(_, s)| s.frames as u64).sum() };
    let tcp_retx: u64 = tcp.report.links.iter().map(|(_, s)| s.frames_retransmitted as u64).sum();
    let tcp_n = tcp.n as f64;
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    for tier in ["edge", "cloud"] {
        for stage in ["agg", "convp", "exit"] {
            let v = prof.mean_us(&format!("core.tier_{stage}_b8.{tier}")) / 8.0;
            m.push((format!("core.tier_{stage}_b8_us.{tier}"), v, "us"));
        }
    }
    let mut us = |name: &str, span: &str| m.push((name.to_string(), prof.mean_us(span), "us"));
    us("core.device_convp_us", "core.device_convp");
    us("core.device_exit_us", "core.device_exit");
    us("core.gateway_agg_us", "core.gateway_agg");
    us("core.exit_policy_us", "core.exit_policy");
    for tier in ["edge", "cloud"] {
        for stage in ["agg", "convp", "exit"] {
            us(&format!("core.tier_{stage}_us.{tier}"), &format!("core.tier_{stage}.{tier}"));
        }
    }
    for op in [
        "pack",
        "unpack",
        "encode",
        "decode",
        "encode_checked",
        "decode_checked",
        "capture_encode",
        "capture_decode",
        "frame_encode",
        "frame_decode",
    ] {
        us(&format!("message.{op}_us"), &format!("message.{op}"));
    }
    let c = untraced;
    m.extend([
        ("link.frames_per_sample".to_string(), frames(c) as f64 / n, "count"),
        ("link.acks_per_sample".to_string(), tcp_acks as f64 / tcp_n, "count"),
        (
            "reliability.retransmit_frac".to_string(),
            tcp_retx as f64 / frames(&tcp).max(1) as f64,
            "fraction",
        ),
        ("node.edge.batch_mean".to_string(), batch_mean("edge"), "count"),
        ("node.cloud.batch_mean".to_string(), batch_mean("cloud"), "count"),
        (
            "node.deadline_expiries".to_string(),
            c.counter_sum("node.", ".deadline_expiries") as f64,
            "count",
        ),
        ("runner.capture_retries".to_string(), c.report.capture_retries as f64, "count"),
        (
            "transport.tcp.frames_per_sample".to_string(),
            tcp.counter("transport.tcp.frames_sent") as f64 / tcp_n,
            "count",
        ),
        ("runner.cpu_ms_per_sample".to_string(), cpu_ms, "ms"),
        ("runner.replayed_compute_ms".to_string(), replayed_ms, "ms"),
        ("runner.overhead_cpu_ms".to_string(), cpu_ms - replayed_ms, "ms"),
        ("runner.replayed_path_ms".to_string(), path_ms, "ms"),
        (
            "runner.latency_p99_ms".to_string(),
            per_call(&|c| percentile(&c.latencies_ms, 0.99)),
            "ms",
        ),
        ("runner.unattributed_p50_ms".to_string(), latency_p50 - path_ms, "ms"),
        (
            "transport.tcp_minus_channel_p50_ms".to_string(),
            percentile(&tcp.latencies_ms, 0.5) - percentile(&chan.latencies_ms, 0.5),
            "ms",
        ),
        ("data.generate_s".to_string(), sys::median(&prep.generate_s), "s"),
        ("core.checkpoint_load_s".to_string(), sys::median(&prep.load_s), "s"),
        ("runner.wiring_s".to_string(), sys::median(&prep.wiring_s), "s"),
        ("trace.overhead_pct".to_string(), (traced_ms / bare_ms - 1.0) * 100.0, "%"),
    ]);
    eprintln!(
        "traced {}: {} layer spans; replay CPU ms traced {:.0?} / bare {:.0?}",
        w.name(),
        prof.path.values().chain(prof.probe.values()).map(|l| l.calls).sum::<u64>(),
        traced_cpu,
        bare_cpu
    );
    let attempted = calls.iter().map(|c| c.n).sum::<usize>() + tcp.n + chan.n;
    let failed = calls.iter().map(|c| c.failed).sum::<usize>() + tcp.failed + chan.failed;
    (attempted, failed, m)
}

/// Measures the flood capacity of the paper hierarchy over localhost TCP
/// and over the channel (stream-tcp's configuration with every arrival
/// due at once, an unbounded admission window and deadlines longer than
/// the run), then offers stream-tcp's configuration fixed loads above
/// its rate, and records it all next to the fixed `stream-tcp` rate.
fn calibrate() {
    let split = setup::generate_test_split();
    let mut model = setup::load_checked(ModelKind::Paper, &split).unwrap_or_else(|e| {
        eprintln!("CHECK FAILED: {e}");
        std::process::exit(2)
    });
    let part = model.partition();
    let mut cell = |transport: TransportConfig, rate: Option<f64>, repeats: usize, seed: u64| {
        let inputs = setup::workload_inputs(&split, repeats, seed);
        let reference = setup::reference(&mut model, ModelKind::Paper, &inputs);
        let mut failures = Vec::new();
        let c = stream_call(&part, &inputs, &reference, seed, transport, rate, None, &mut failures);
        for f in &failures {
            eprintln!("CHECK FAILED: {f}");
        }
        let row = format!(
            "{{\"transport\": \"{}\", \"rate_sps\": {}, \"samples\": {}, \"classified\": {}, \
             \"failed\": {}, \"wall_s\": {:.2}, \"goodput_sps\": {:.1}, \"p50_ms\": {:.2}, \
             \"p99_ms\": {:.2}}}",
            transport.name(),
            rate.map_or("\"flood\"".to_string(), |r| r.to_string()),
            c.n,
            c.classified,
            c.failed,
            c.wall_s,
            c.classified as f64 / c.wall_s,
            percentile(&c.latencies_ms, 0.5),
            percentile(&c.latencies_ms, 0.99),
        );
        eprintln!("{row}");
        (c.classified as f64 / c.wall_s, row)
    };
    let mut rows = Vec::new();
    let mut capacity = Vec::new();
    for transport in [TransportConfig::Tcp, TransportConfig::Channel] {
        let mut sps = Vec::new();
        for seed in 1..=3 {
            let (g, row) = cell(transport, None, CALL_REPEATS, seed);
            sps.push(g);
            rows.push(row);
        }
        capacity.push(format!("\"{}\": {:.1}", transport.name(), sys::median(&sps)));
    }
    // Loads past the knee: where the fixed rate would sit if it were
    // re-derived from a lucky capacity measurement.
    for (transport, rate) in [
        (TransportConfig::Tcp, 250.0),
        (TransportConfig::Tcp, 400.0),
        (TransportConfig::Channel, 250.0),
    ] {
        rows.push(cell(transport, Some(rate), 5, 1).1);
    }
    let json = format!(
        "{{\n  \"env\": {},\n  \"stream_rate_sps\": {STREAM_RATE},\n  \"flood_capacity_sps\": {{{}}},\n  \
         \"note\": \"stream-tcp offers a fixed absolute rate; runs never re-derive it\",\n  \"cells\": [\n    {}\n  ]\n}}\n",
        sys::env_stamp(),
        capacity.join(", "),
        rows.join(",\n    ")
    );
    std::fs::write("perfbench/calibration.json", &json).expect("write calibration.json");
    print!("{json}");
}
