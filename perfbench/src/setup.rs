//! Set-up shared by every workload: the MVMC test split, the trained
//! checkpoints (hash-verified and accuracy-checked on load), the seeded
//! workload inputs and the in-process reference verdicts.

use ddnn_core::{
    train, AggregationScheme, Ddnn, DdnnConfig, EdgeConfig, ExitPoint, ExitThreshold, TrainConfig,
};
use ddnn_data::{all_device_batches, labels, MvmcConfig, MvmcDataset};
use ddnn_tensor::Tensor;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Directory holding the committed checkpoints and their manifest,
/// relative to the repository root the benchmark runs from.
const MODEL_DIR: &str = "perfbench/models";
const MANIFEST: &str = "manifest.txt";

/// Training epochs of the committed checkpoints; `train` always uses it.
const TRAIN_EPOCHS: usize = 40;

/// The two trained models the workloads serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// The paper model: 6 devices, MP-CC aggregation, f = 4, no edge.
    Paper,
    /// device → edge (16 filters, CC) → cloud.
    Edge,
}

impl ModelKind {
    pub const ALL: [ModelKind; 2] = [ModelKind::Paper, ModelKind::Edge];

    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Paper => "paper",
            ModelKind::Edge => "edge",
        }
    }

    pub fn config(self) -> DdnnConfig {
        match self {
            ModelKind::Paper => DdnnConfig::paper(),
            ModelKind::Edge => DdnnConfig {
                edge: Some(EdgeConfig { filters: 16, agg: AggregationScheme::Concat }),
                ..DdnnConfig::paper()
            },
        }
    }

    /// The thresholds the model is served at: (local, edge).
    pub fn thresholds(self) -> (ExitThreshold, ExitThreshold) {
        match self {
            ModelKind::Paper => (ExitThreshold::new(0.8), ExitThreshold::default()),
            ModelKind::Edge => (ExitThreshold::new(0.05), ExitThreshold::new(0.05)),
        }
    }

    fn file(self) -> PathBuf {
        Path::new(MODEL_DIR).join(format!("{}.ckpt", self.name()))
    }
}

/// FNV-1a 64-bit content hash of a checkpoint file.
fn fnv1a64(data: &[u8]) -> u64 {
    data.iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// One manifest row: what `train` recorded about a checkpoint.
struct ManifestEntry {
    hash: u64,
    /// Test-split samples the model classifies correctly in process at its
    /// serving thresholds.
    correct: usize,
    total: usize,
}

fn read_manifest(kind: ModelKind) -> Result<ManifestEntry, String> {
    let path = Path::new(MODEL_DIR).join(MANIFEST);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("read {}: {e} (run `perfbench train` first)", path.display()))?;
    for line in text.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() == 5 && f[0] == kind.name() {
            let bad = |what: &str| format!("manifest row for {}: bad {what}", kind.name());
            return Ok(ManifestEntry {
                hash: u64::from_str_radix(f[2], 16).map_err(|_| bad("hash"))?,
                correct: f[3].parse().map_err(|_| bad("correct count"))?,
                total: f[4].parse().map_err(|_| bad("total count"))?,
            });
        }
    }
    Err(format!("manifest has no row for model {}", kind.name()))
}

/// The MVMC test split, batched per device.
pub struct TestSplit {
    pub views: Vec<Tensor>,
    pub labels: Vec<usize>,
}

/// Generates the paper-shaped MVMC dataset and keeps its test split.
pub fn generate_test_split() -> TestSplit {
    let cfg = MvmcConfig::paper();
    let n = cfg.num_devices();
    let data = MvmcDataset::generate(cfg);
    TestSplit {
        views: all_device_batches(&data.test, n).expect("batch the MVMC test split"),
        labels: labels(&data.test),
    }
}

fn correct_count(model: &mut Ddnn, kind: ModelKind, split: &TestSplit) -> usize {
    let (local, edge) = kind.thresholds();
    let out = model.infer(&split.views, local, Some(edge)).expect("in-process inference");
    out.predictions.iter().zip(&split.labels).filter(|(p, l)| p == l).count()
}

/// Loads a committed checkpoint: verifies its content hash against the
/// manifest, then checks the reloaded model's in-process test accuracy
/// against the count recorded at training time.
pub fn load_checked(kind: ModelKind, split: &TestSplit) -> Result<Ddnn, String> {
    let entry = read_manifest(kind)?;
    let path = kind.file();
    let bytes = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let hash = fnv1a64(&bytes);
    if hash != entry.hash {
        return Err(format!(
            "{}: content hash {hash:016x} does not match manifest {:016x}",
            path.display(),
            entry.hash
        ));
    }
    let mut model =
        Ddnn::load_bytes(&bytes).map_err(|e| format!("decode {}: {e}", path.display()))?;
    let correct = correct_count(&mut model, kind, split);
    if correct != entry.correct || split.labels.len() != entry.total {
        return Err(format!(
            "{}: reloaded accuracy {correct}/{} differs from recorded {}/{}",
            kind.name(),
            split.labels.len(),
            entry.correct,
            entry.total
        ));
    }
    Ok(model)
}

/// Trains both models with the default [`TrainConfig`] at
/// [`TRAIN_EPOCHS`], saves them under [`MODEL_DIR`] and writes the
/// manifest of content hashes and test accuracies.
pub fn train_models() {
    let cfg = MvmcConfig::paper();
    let n = cfg.num_devices();
    let data = MvmcDataset::generate(cfg);
    let train_views = all_device_batches(&data.train, n).expect("batch the training split");
    let train_labels = labels(&data.train);
    let split = TestSplit {
        views: all_device_batches(&data.test, n).expect("batch the test split"),
        labels: labels(&data.test),
    };
    std::fs::create_dir_all(MODEL_DIR).expect("create the model directory");
    let mut manifest = String::from(
        "# model file fnv1a64 test_correct test_total\n\
         # written by `perfbench train`; setup refuses checkpoints that do not match\n",
    );
    for kind in ModelKind::ALL {
        let t0 = Instant::now();
        let mut model = Ddnn::new(kind.config());
        let tc = TrainConfig { epochs: TRAIN_EPOCHS, ..TrainConfig::default() };
        train(&mut model, &train_views, &train_labels, &tc).expect("training");
        let path = kind.file();
        model.save_to(&path).expect("save checkpoint");
        let bytes = std::fs::read(&path).expect("re-read checkpoint");
        let mut reloaded = Ddnn::load_bytes(&bytes).expect("reload checkpoint");
        let correct = correct_count(&mut reloaded, kind, &split);
        let total = split.labels.len();
        eprintln!(
            "trained {} in {:.1} s: test accuracy {correct}/{total} = {:.4}",
            kind.name(),
            t0.elapsed().as_secs_f64(),
            correct as f64 / total as f64
        );
        manifest.push_str(&format!(
            "{} {}.ckpt {:016x} {correct} {total}\n",
            kind.name(),
            kind.name(),
            fnv1a64(&bytes)
        ));
    }
    let path = Path::new(MODEL_DIR).join(MANIFEST);
    std::fs::write(&path, manifest).expect("write the manifest");
    println!("wrote {}", path.display());
}

/// The workload's inputs: the test split repeated `repeats` times and
/// shuffled by the workload seed.
pub struct Inputs {
    pub views: Vec<Tensor>,
    pub labels: Vec<usize>,
}

/// SplitMix64: the benchmark's own seeded stream for input order, kept
/// independent of the runtime's generators.
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

pub fn workload_inputs(split: &TestSplit, repeats: usize, seed: u64) -> Inputs {
    let n = split.labels.len();
    let mut order: Vec<usize> = (0..repeats * n).map(|i| i % n).collect();
    let mut rng = SplitMix::new(seed);
    for i in (1..order.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    Inputs {
        views: split.views.iter().map(|v| v.select_axis0(&order).expect("select inputs")).collect(),
        labels: order.iter().map(|&i| split.labels[i]).collect(),
    }
}

/// The first `n` samples of `inputs`.
pub fn prefix(inputs: &Inputs, n: usize) -> Inputs {
    let idx: Vec<usize> = (0..n).collect();
    Inputs {
        views: inputs.views.iter().map(|v| v.select_axis0(&idx).expect("select prefix")).collect(),
        labels: inputs.labels[..n].to_vec(),
    }
}

/// In-process reference verdicts for `inputs`.
pub struct Reference {
    pub predictions: Vec<usize>,
    pub exits: Vec<ExitPoint>,
}

/// Computes the reference in chunks of this many samples, so a large batch
/// does not dominate the process's peak memory.
const REFERENCE_CHUNK: usize = 171;

pub fn reference(model: &mut Ddnn, kind: ModelKind, inputs: &Inputs) -> Reference {
    let (local, edge) = kind.thresholds();
    let n = inputs.labels.len();
    let mut r = Reference { predictions: Vec::with_capacity(n), exits: Vec::with_capacity(n) };
    for start in (0..n).step_by(REFERENCE_CHUNK) {
        let idx: Vec<usize> = (start..n.min(start + REFERENCE_CHUNK)).collect();
        let views: Vec<Tensor> =
            inputs.views.iter().map(|v| v.select_axis0(&idx).expect("reference chunk")).collect();
        let out = model.infer(&views, local, Some(edge)).expect("reference inference");
        r.predictions.extend(out.predictions);
        r.exits.extend(out.exits);
    }
    r
}
