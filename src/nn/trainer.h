#ifndef CHAMELEON_NN_TRAINER_H_
#define CHAMELEON_NN_TRAINER_H_

#include <vector>

#include "src/nn/mlp.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace chameleon::nn {

/// Mini-batch SGD hyper-parameters (momentum, L2 and the per-epoch
/// learning-rate decay are fixed in trainer.cc).
struct TrainOptions {
  int epochs = 60;
  int batch_size = 32;
  double learning_rate = 0.05;
};

/// Per-epoch training diagnostics.
struct TrainReport {
  std::vector<double> epoch_losses;
  double final_loss = 0.0;
};

/// Trains `model` as a softmax classifier with cross-entropy loss.
/// `labels[i]` must be in [0, model->output_size()).
[[nodiscard]] util::Result<TrainReport> TrainClassifier(
    Mlp* model, const std::vector<std::vector<double>>& inputs,
    const std::vector<int>& labels, const TrainOptions& options,
    util::Rng* rng);

/// Trains `model` (single output) with mean-squared-error regression.
[[nodiscard]] util::Result<TrainReport> TrainRegressor(
    Mlp* model, const std::vector<std::vector<double>>& inputs,
    const std::vector<double>& targets, const TrainOptions& options,
    util::Rng* rng);

}  // namespace chameleon::nn

#endif  // CHAMELEON_NN_TRAINER_H_
