//! Seeded job inputs and the client side of one obfuscated job: augment
//! (`amalgam-core`), encode (`CloudJob::to_bytes`), decode the reply and
//! extract — each call wrapped in a span named after its layer.

use crate::trace::Tracer;
use amalgam_cloud::{CloudJob, TaskPayload};
use amalgam_core::{
    augment_cv, augment_images, augment_lm, augment_nlp, AugmentConfig, AugmentationSecrets,
    ImagePlan, NlpTask, NoiseKind, TextPlan, TrainConfig,
};
use amalgam_data::{ImageDataset, LmBatches, LmCorpusSpec, SyntheticImageSpec};
use amalgam_models::{resnet18, transformer_lm, CvConfig, TransformerLmConfig};
use amalgam_nn::graph::GraphModel;
use amalgam_tensor::{Rng, Tensor};
use bytes::Bytes;

/// Which of the paper's two sides a job comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// ResNet-18 at width 0.125 on a 16×16 CIFAR-10-like set of 384
    /// images, 100% augmentation with 3 synthetic sub-networks, 1 epoch
    /// at batch 32 — the scaled Table 3 geometry.
    Cv,
    /// `transformer_lm(tiny(500, 32))` on a 20k-token WikiText2-like
    /// corpus (sequence 16, batch 8), 50% augmentation with 2 synthetic
    /// sub-networks, 1 epoch.
    Lm,
}

const CV_HW: usize = 16;
const CV_CLASSES: usize = 10;
const CV_IMAGES: usize = 384;
const LM_VOCAB: usize = 500;
const LM_TOKENS: usize = 20_000;
const LM_SEQ: usize = 16;
const LM_BATCH: usize = 8;

/// The user's side of one job before obfuscation: their model, their data
/// and the training recipe.
pub struct Base {
    pub model: GraphModel,
    /// What the plain twin uploads.
    pub data: Data,
    /// The batched corpus an LM job's dataset augmentation starts from.
    pub batches: Option<LmBatches>,
    pub train: TrainConfig,
}

/// Training data, original or augmented.
pub enum Data {
    Images(ImageDataset),
    /// LM windows (`[B, T]` token ids) plus the kept positions per head.
    Windows(Vec<Tensor>, Vec<Vec<usize>>),
}

impl Base {
    /// Fresh seeded inputs: the same `seed` gives the same model, data
    /// and recipe.
    pub fn generate(family: Family, seed: u64) -> Base {
        let mut rng = Rng::seed_from(seed);
        match family {
            Family::Cv => {
                let pair = SyntheticImageSpec::cifar10_like()
                    .with_hw(CV_HW)
                    .with_classes(CV_CLASSES)
                    .with_counts(CV_IMAGES, 1)
                    .generate(&mut rng);
                let cfg = CvConfig::new(3, CV_CLASSES, CV_HW).with_width_mult(0.125);
                Base {
                    model: resnet18(&cfg, &mut rng),
                    data: Data::Images(pair.train),
                    batches: None,
                    train: TrainConfig::new(1, 32, 0.03)
                        .with_momentum(0.9)
                        .with_seed(rng.next_u64()),
                }
            }
            Family::Lm => {
                let corpus = LmCorpusSpec::wikitext2_like()
                    .with_vocab(LM_VOCAB)
                    .with_tokens(LM_TOKENS)
                    .generate(&mut rng);
                let batches = corpus.batchify(LM_BATCH, LM_SEQ);
                let windows = (0..batches.num_batches())
                    .map(|i| batches.window(i).0)
                    .collect();
                Base {
                    // `tiny` has no dropout, so the original sub-network's
                    // trajectory is reproducible bit for bit.
                    model: transformer_lm(&TransformerLmConfig::tiny(LM_VOCAB, 32), &mut rng),
                    data: Data::Windows(windows, vec![(0..LM_SEQ).collect()]),
                    batches: Some(batches),
                    train: TrainConfig::new(1, LM_BATCH, 0.05).with_seed(rng.next_u64()),
                }
            }
        }
    }
}

/// An augmented model and dataset plus the client's secrets.
pub struct Obfuscated {
    pub model: GraphModel,
    pub data: Data,
    pub secrets: AugmentationSecrets,
}

/// Augments `base` on the client: the dataset (`core.augment_dataset`),
/// then the model (`core.augment_model`).
pub fn obfuscate(base: &Base, seed: u64, tr: &mut Tracer, job: u64) -> Result<Obfuscated, String> {
    let mut rng = Rng::seed_from(seed);
    let noise = NoiseKind::UniformRandom;
    match (&base.data, &base.batches) {
        (Data::Images(train), _) => {
            let (plan, data) = tr.span("core.augment_dataset", job, || {
                let plan = ImagePlan::random(CV_HW, CV_HW, 1.0, &mut rng);
                let aug = augment_images(train, &plan, &noise, &mut rng);
                (plan, aug.dataset)
            });
            let cfg = AugmentConfig::new(1.0)
                .with_seed(rng.next_u64())
                .with_subnets(3);
            let (model, secrets) = tr
                .span("core.augment_model", job, || {
                    augment_cv(&base.model, &plan, CV_CLASSES, &cfg)
                })
                .map_err(|e| format!("augment_cv: {e}"))?;
            Ok(Obfuscated {
                model,
                data: Data::Images(data),
                secrets,
            })
        }
        (Data::Windows(..), Some(batches)) => {
            let (plan, windows) = tr.span("core.augment_dataset", job, || {
                let plan = TextPlan::random(LM_SEQ, 0.5, &mut rng);
                let aug = augment_lm(batches, &plan, &noise, &mut rng);
                (plan, aug.windows)
            });
            let cfg = AugmentConfig::new(0.5)
                .with_seed(rng.next_u64())
                .with_subnets(2);
            let (model, secrets) = tr
                .span("core.augment_model", job, || {
                    augment_nlp(&base.model, &plan, NlpTask::LanguageModel, &cfg)
                })
                .map_err(|e| format!("augment_nlp: {e}"))?;
            let keeps = secrets.head_keeps.clone();
            Ok(Obfuscated {
                model,
                data: Data::Windows(windows, keeps),
                secrets,
            })
        }
        (Data::Windows(..), None) => Err("an LM job needs its batched corpus".into()),
    }
}

/// Serializes a model, its data and the recipe into the upload payload
/// (`protocol.encode`: `GraphModel::to_bytes` plus `CloudJob::to_bytes`).
pub fn encode(model: &GraphModel, data: &Data, train: TrainConfig) -> (CloudJob, Bytes) {
    let task = match data {
        Data::Images(ds) => TaskPayload::Classification {
            inputs: ds.images().clone(),
            labels: ds.labels().to_vec(),
            val_inputs: None,
            val_labels: vec![],
        },
        Data::Windows(windows, keeps) => TaskPayload::LanguageModel {
            windows: windows.clone(),
            val_windows: vec![],
            head_keeps: keeps.clone(),
        },
    };
    let job = CloudJob {
        model: model.to_bytes(),
        task,
        train,
    };
    let payload = job.to_bytes();
    (job, payload)
}

/// Whether two models hold bitwise-identical state dicts (same names,
/// shapes and f32 bit patterns, in order).
pub fn same_weights(a: &GraphModel, b: &GraphModel) -> bool {
    let (sa, sb) = (a.state_dict(), b.state_dict());
    sa.len() == sb.len()
        && sa.iter().zip(&sb).all(|((na, ta), (nb, tb))| {
            na == nb
                && ta.dims() == tb.dims()
                && ta
                    .data()
                    .iter()
                    .zip(tb.data())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        })
}
