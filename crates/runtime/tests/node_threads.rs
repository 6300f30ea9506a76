//! Runtime node threads never fan out: every hierarchy node runs its
//! kernels serially on its own thread, so the pool workers a run spawns do
//! not grow with the number of samples served — only the one-off wiring
//! (blank signatures) may use the `DDNN_THREADS` pool.
//!
//! The spawn counter is process-wide, so this file holds a single test and
//! runs in its own binary: no concurrent test can move the counter.
//! `just topology-matrix` runs it at `DDNN_THREADS={1,4}`; the test itself
//! pins 4 so the pool would fan out if a node let it.

use ddnn_core::{Ddnn, DdnnConfig, ExitPoint, ExitThreshold};
use ddnn_runtime::{run_cloud_only_baseline, run_distributed_inference, HierarchyConfig};
use ddnn_tensor::rng::rng_from_seed;
use ddnn_tensor::{parallel, Tensor};

fn random_views(n: usize, devices: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = rng_from_seed(seed);
    (0..devices).map(|_| Tensor::rand_uniform([n, 3, 32, 32], 0.0, 1.0, &mut rng)).collect()
}

#[test]
fn pool_spawns_do_not_grow_with_samples() {
    std::env::set_var("DDNN_THREADS", "4");
    // The paper model: its f32 device ConvP GEMM (4 x 27 x 1024 MACs)
    // crosses the kernel fan-out threshold, so a node that let the pool
    // fan out would spawn workers on every sample.
    let model = Ddnn::new(DdnnConfig::paper());
    let partition = model.partition();
    // Threshold 0 exits locally only on a zero-entropy score: every sample
    // offloads, so the device, gateway and cloud nodes all run their
    // sections per sample.
    let cfg =
        HierarchyConfig { local_threshold: ExitThreshold::new(0.0), ..HierarchyConfig::default() };
    let spawns = |n: usize| {
        let views = random_views(n, partition.devices.len(), 7);
        let labels = vec![0; n];
        let before = parallel::spawned_workers();
        let report = run_distributed_inference(&partition, &views, &labels, &cfg).unwrap();
        assert_eq!(report.classified_count(), n);
        assert_eq!(report.exit_fraction(ExitPoint::Cloud), 1.0);
        let mid = parallel::spawned_workers();
        let report = run_cloud_only_baseline(&partition, &views, &labels, &cfg).unwrap();
        assert_eq!(report.classified_count(), n);
        (mid - before, parallel::spawned_workers() - mid)
    };
    let few = spawns(4);
    let many = spawns(32);
    std::env::remove_var("DDNN_THREADS");
    assert_eq!(few.0, many.0, "hierarchy spawns grew with samples: {few:?} vs {many:?}");
    assert_eq!(few.1, many.1, "baseline spawns grew with samples: {few:?} vs {many:?}");
}
