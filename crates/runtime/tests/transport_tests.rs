//! Transport-layer integration suite: the same seeded run must produce
//! identical verdicts whichever dataplane carries the frames (in-process
//! channels, localhost TCP, localhost UDP under ARQ); misconfigured
//! transports are rejected before anything spawns; the `transport.*`
//! counters reconcile exactly with the per-link accounting; and
//! arbitrary byte soup never panics the frame decoders.

use bytes::Bytes;
use ddnn_core::{AggregationScheme, Ddnn, DdnnConfig, EdgeConfig, ExitThreshold};
use ddnn_runtime::{
    run_cloud_only_baseline, run_distributed_inference, DeadlineConfig, Frame, HierarchyConfig,
    ReliabilityConfig, RuntimeError, SimReport, TransportConfig,
};
use ddnn_tensor::rng::rng_from_seed;
use ddnn_tensor::Tensor;
use proptest::prelude::*;

fn edge_model() -> Ddnn {
    Ddnn::new(DdnnConfig {
        num_devices: 2,
        device_filters: 2,
        cloud_filters: [4, 8],
        edge: Some(EdgeConfig { filters: 4, agg: AggregationScheme::Concat }),
        seed: 11,
        ..DdnnConfig::default()
    })
}

fn random_views(n: usize, devices: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = rng_from_seed(seed);
    (0..devices).map(|_| Tensor::rand_uniform([n, 3, 32, 32], 0.0, 1.0, &mut rng)).collect()
}

fn socket_cfg(transport: TransportConfig) -> HierarchyConfig {
    HierarchyConfig {
        local_threshold: ExitThreshold::new(0.4),
        edge_threshold: ExitThreshold::new(0.7),
        deadlines: Some(DeadlineConfig::default()),
        // ARQ on every variant so the ack/retransmit machinery is part of
        // what must stay transport-invariant.
        reliability: ReliabilityConfig::arq(),
        transport,
        ..HierarchyConfig::default()
    }
}

/// Everything a verdict-equivalence check compares: predictions, exit
/// points, and the analytic latency means (which depend only on the wire
/// format, not the transport).
fn verdicts(r: &SimReport) -> (Vec<usize>, Vec<ddnn_core::ExitPoint>, u32, u32) {
    (r.predictions.clone(), r.exits.clone(), r.mean_latency_ms.to_bits(), r.accuracy.to_bits())
}

#[test]
fn same_run_is_verdict_identical_over_channel_tcp_and_udp() {
    let model = edge_model();
    let views = random_views(8, 2, 6);
    let labels: Vec<usize> = (0..8).map(|i| i % 3).collect();
    let partition = model.partition();
    let reports: Vec<SimReport> =
        [TransportConfig::Channel, TransportConfig::Tcp, TransportConfig::Udp]
            .into_iter()
            .map(|t| {
                run_distributed_inference(&partition, &views, &labels, &socket_cfg(t))
                    .unwrap_or_else(|e| panic!("{} run failed: {e}", t.name()))
            })
            .collect();
    let golden = verdicts(&reports[0]);
    assert_eq!(verdicts(&reports[1]), golden, "tcp diverged from the in-process run");
    assert_eq!(verdicts(&reports[2]), golden, "udp+arq diverged from the in-process run");
    // No transport may time a sample out on a clean localhost run.
    for r in &reports {
        assert_eq!(r.capture_retries, 0);
        assert!(!r.predictions.contains(&usize::MAX));
    }
}

#[test]
fn socket_transports_run_under_default_deadlines() {
    // No explicit deadlines: socket polls are budgeted by the defaults,
    // and every sample resolves to exactly one typed outcome.
    let model = edge_model();
    let views = random_views(2, 2, 6);
    let labels = vec![0usize, 1];
    for t in [TransportConfig::Tcp, TransportConfig::Udp] {
        let cfg = HierarchyConfig { deadlines: None, ..socket_cfg(t) };
        let r = run_distributed_inference(&model.partition(), &views, &labels, &cfg)
            .unwrap_or_else(|e| panic!("{} run failed: {e}", t.name()));
        assert_eq!(
            r.classified_count() + r.shed_count() + r.timed_out_count(),
            2,
            "{}: conservation: classified + shed + timed out = n",
            t.name()
        );
    }
}

#[test]
fn udp_requires_a_checked_wire_format() {
    let model = edge_model();
    let views = random_views(2, 2, 6);
    let labels = vec![0usize, 1];
    let cfg = HierarchyConfig {
        reliability: ReliabilityConfig::default(),
        ..socket_cfg(TransportConfig::Udp)
    };
    let err = run_distributed_inference(&model.partition(), &views, &labels, &cfg).unwrap_err();
    assert!(
        matches!(&err, RuntimeError::Config { reason } if reason.contains("checked wire format")),
        "{err}"
    );
    // TCP is reliable and ordered: the legacy unchecked format is fine.
    let cfg = HierarchyConfig {
        reliability: ReliabilityConfig::default(),
        ..socket_cfg(TransportConfig::Tcp)
    };
    run_distributed_inference(&model.partition(), &views, &labels, &cfg).unwrap();
}

#[test]
fn baseline_rejects_socket_transports() {
    let model = edge_model();
    let views = random_views(2, 2, 6);
    let labels = vec![0usize, 1];
    let err = run_cloud_only_baseline(
        &model.partition(),
        &views,
        &labels,
        &socket_cfg(TransportConfig::Tcp),
    )
    .unwrap_err();
    assert!(
        matches!(&err, RuntimeError::Config { reason } if reason.contains("in-process only")),
        "{err}"
    );
}

#[test]
fn transport_counters_reconcile_with_link_accounting() {
    // A clean legacy-format channel run: every frame the dataplane
    // carries is either on a tracked link, a sensor capture, or one of
    // the final shutdown frames — nothing else, and nothing lost.
    let model = edge_model();
    let n_samples = 8usize;
    let num_devices = 2usize;
    let views = random_views(n_samples, num_devices, 6);
    let labels: Vec<usize> = (0..n_samples).map(|i| i % 3).collect();
    let cfg = HierarchyConfig {
        local_threshold: ExitThreshold::new(0.4),
        edge_threshold: ExitThreshold::new(0.7),
        ..HierarchyConfig::default()
    };
    let report = run_distributed_inference(&model.partition(), &views, &labels, &cfg).unwrap();
    let counter = |name: &str| -> u64 {
        report
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    // The channel delivers synchronously: both directions agree.
    assert_eq!(counter("transport.channel.frames_sent"), counter("transport.channel.frames_recvd"));
    assert_eq!(counter("transport.channel.bytes_sent"), counter("transport.channel.bytes_recvd"));
    let tracked: u64 = report.links.iter().map(|(_, s)| s.frames as u64).sum();
    let sensor = (num_devices * n_samples) as u64;
    // Shutdown fan-out: one frame per device plus one per aggregation
    // tier (gateway, edge, cloud).
    let shutdown = (num_devices + 3) as u64;
    assert_eq!(counter("transport.channel.frames_sent"), tracked + sensor + shutdown);
}

// Arbitrary byte soup — junk a hostile or broken peer could write into a
// socket — must never panic either frame decoder. Anything short of a
// full valid frame has to come back as a typed error.
proptest! {
    #[test]
    fn junk_bytes_never_panic_the_decoders(
        junk in prop::collection::vec(0u8..=255, 0..160),
    ) {
        let buf = Bytes::from(junk);
        if let Err(e) = Frame::decode(buf.clone()) {
            let _ = e.to_string();
        }
        if let Err(e) = Frame::decode_checked(buf) {
            let _ = e.to_string();
        }
    }
}
