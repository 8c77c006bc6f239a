//! The traced run's look inside `Stage::Train`: a job's training replayed
//! from public `nn` calls — the same shuffle (`epoch_rng`, `BatchIter`),
//! forward, loss, backward and SGD step the backend runs — with every call
//! timed. Its bytes must equal the cloud's reply bit for bit, which is
//! what makes its timings a faithful split of the backend's training.

use crate::trace::Tracer;
use amalgam_cloud::{CloudJob, TaskPayload};
use amalgam_core::trainer::{epoch_rng, lm_head_loss};
use amalgam_data::BatchIter;
use amalgam_nn::graph::GraphModel;
use amalgam_nn::loss::cross_entropy;
use amalgam_nn::optim::Sgd;
use amalgam_nn::Mode;
use amalgam_tensor::Tensor;
use bytes::Bytes;
use std::time::Instant;

/// Seconds spent per `nn` call kind over a whole replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct NnTimes {
    /// Gathering each batch (`index_select_axis0`).
    pub batch: f64,
    pub forward: f64,
    pub loss: f64,
    /// `zero_grad` plus `backward`.
    pub backward: f64,
    pub optim: f64,
}

impl NnTimes {
    pub fn total(&self) -> f64 {
        self.batch + self.forward + self.loss + self.backward + self.optim
    }
}

/// Times each call into `t` and records it as a span of `job`.
struct Clock<'a> {
    tr: &'a mut Tracer,
    job: u64,
    t: NnTimes,
}

impl Clock<'_> {
    fn time<T>(
        &mut self,
        name: &'static str,
        slot: fn(&mut NnTimes) -> &mut f64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.tr.enter(name, self.job);
        let t0 = Instant::now();
        let out = f();
        *slot(&mut self.t) += t0.elapsed().as_secs_f64();
        self.tr.exit(open);
        out
    }

    fn step(&mut self, model: &mut GraphModel, opt: &mut Sgd, seeds: &[Tensor]) {
        self.time(
            "nn.backward",
            |t| &mut t.backward,
            || {
                model.zero_grad();
                model.backward(seeds);
            },
        );
        self.time(
            "nn.optim",
            |t| &mut t.optim,
            || opt.step(&mut model.params_mut()),
        );
    }
}

/// Replays `job`'s training and returns the trained model's bytes (as the
/// backend would reply them) with the per-call times. Each call also
/// lands in `tr` as an `nn.<call>` span of `job_id`.
pub fn replay(job: &CloudJob, tr: &mut Tracer, job_id: u64) -> Result<(Bytes, NnTimes), String> {
    let mut model =
        GraphModel::from_bytes(job.model.clone()).map_err(|e| format!("replay decode: {e}"))?;
    let cfg = &job.train;
    let mut opt = Sgd::new(cfg.lr).with_momentum(cfg.momentum);
    let mut c = Clock {
        tr,
        job: job_id,
        t: NnTimes::default(),
    };
    for epoch in 0..cfg.epochs {
        match &job.task {
            TaskPayload::Classification { inputs, labels, .. } => {
                let mut rng = epoch_rng(cfg, epoch);
                for idx in BatchIter::new(labels.len(), cfg.batch_size, &mut rng) {
                    let (x, y) = c.time(
                        "nn.batch",
                        |t| &mut t.batch,
                        || {
                            let y: Vec<usize> = idx.iter().map(|&i| labels[i]).collect();
                            (inputs.index_select_axis0(&idx), y)
                        },
                    );
                    let outs = c.time(
                        "nn.forward",
                        |t| &mut t.forward,
                        || model.forward(&[&x], Mode::Train),
                    );
                    let seeds: Vec<Tensor> = c.time(
                        "nn.loss",
                        |t| &mut t.loss,
                        || outs.iter().map(|o| cross_entropy(o, &y).1).collect(),
                    );
                    c.step(&mut model, &mut opt, &seeds);
                }
            }
            TaskPayload::LanguageModel {
                windows,
                head_keeps,
                ..
            } => {
                for window in windows {
                    let outs = c.time(
                        "nn.forward",
                        |t| &mut t.forward,
                        || model.forward(&[window], Mode::Train),
                    );
                    let seeds: Vec<Tensor> = c.time(
                        "nn.loss",
                        |t| &mut t.loss,
                        || {
                            outs.iter()
                                .zip(head_keeps)
                                .map(|(o, keep)| lm_head_loss(o, window, keep).1)
                                .collect()
                        },
                    );
                    c.step(&mut model, &mut opt, &seeds);
                }
            }
        }
    }
    model.clear_caches();
    Ok((model.to_bytes(), c.t))
}
