#include "src/nn/trainer.h"

#include <cmath>

namespace chameleon::nn {
namespace {

constexpr double kMomentum = 0.9;
constexpr double kL2 = 1e-4;
/// Multiplies the learning rate after each epoch.
constexpr double kLrDecay = 0.99;

/// Shared SGD loop. `output_grad_fn(index, output, grad)` fills the
/// gradient of the loss w.r.t. the network output for one example and
/// returns the example's loss.
template <typename OutputGradFn>
util::Result<TrainReport> TrainImpl(Mlp* model, size_t num_examples,
                                    const std::vector<std::vector<double>>& inputs,
                                    const TrainOptions& options,
                                    util::Rng* rng,
                                    OutputGradFn output_grad_fn) {
  if (num_examples == 0) {
    return util::Status::InvalidArgument("no training examples");
  }
  for (const auto& x : inputs) {
    if (static_cast<int>(x.size()) != model->input_size()) {
      return util::Status::InvalidArgument("input dimension mismatch");
    }
  }

  const int num_layers = model->num_layers();
  auto& layers = model->mutable_layers();

  // Momentum buffers mirror the parameter shapes.
  std::vector<linalg::Matrix> weight_velocity;
  std::vector<std::vector<double>> bias_velocity;
  for (const auto& layer : layers) {
    weight_velocity.emplace_back(layer.weights.rows(), layer.weights.cols());
    bias_velocity.emplace_back(layer.bias.size(), 0.0);
  }

  TrainReport report;
  double lr = options.learning_rate;
  std::vector<std::vector<double>> activations;
  std::vector<double> out_grad;

  // Accumulated gradients for the current batch.
  std::vector<linalg::Matrix> weight_grad;
  std::vector<std::vector<double>> bias_grad;
  for (const auto& layer : layers) {
    weight_grad.emplace_back(layer.weights.rows(), layer.weights.cols());
    bias_grad.emplace_back(layer.bias.size(), 0.0);
  }
  auto zero_grads = [&]() {
    for (int l = 0; l < num_layers; ++l) {
      weight_grad[l] = linalg::Matrix(layers[l].weights.rows(),
                                      layers[l].weights.cols());
      std::fill(bias_grad[l].begin(), bias_grad[l].end(), 0.0);
    }
  };
  auto apply_batch = [&](int batch_count) {
    const double inv = 1.0 / batch_count;
    for (int l = 0; l < num_layers; ++l) {
      auto& w = layers[l].weights;
      auto& vw = weight_velocity[l];
      for (size_t r = 0; r < w.rows(); ++r) {
        for (size_t c = 0; c < w.cols(); ++c) {
          const double g = weight_grad[l].at(r, c) * inv +
                           kL2 * w.at(r, c);
          vw.at(r, c) = kMomentum * vw.at(r, c) - lr * g;
          w.at(r, c) += vw.at(r, c);
        }
      }
      for (size_t i = 0; i < layers[l].bias.size(); ++i) {
        const double g = bias_grad[l][i] * inv;
        bias_velocity[l][i] = kMomentum * bias_velocity[l][i] - lr * g;
        layers[l].bias[i] += bias_velocity[l][i];
      }
    }
  };

  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    const std::vector<size_t> order = rng->Permutation(num_examples);
    double epoch_loss = 0.0;
    int batch_count = 0;
    zero_grads();
    for (size_t step = 0; step < order.size(); ++step) {
      const size_t idx = order[step];
      model->ForwardWithActivations(inputs[idx], &activations);
      epoch_loss += output_grad_fn(idx, activations.back(), &out_grad);

      // Backward pass: delta starts as dLoss/dOutput.
      std::vector<double> delta = out_grad;
      for (int l = num_layers - 1; l >= 0; --l) {
        const auto& a_in = activations[l];
        // Parameter gradients.
        for (size_t r = 0; r < layers[l].weights.rows(); ++r) {
          const double d = delta[r];
          if (d == 0.0) continue;
          for (size_t c = 0; c < layers[l].weights.cols(); ++c) {
            weight_grad[l].at(r, c) += d * a_in[c];
          }
          bias_grad[l][r] += d;
        }
        if (l == 0) break;
        // Propagate through W^T and the ReLU of the previous layer.
        std::vector<double> prev(layers[l].weights.cols(), 0.0);
        for (size_t r = 0; r < layers[l].weights.rows(); ++r) {
          const double d = delta[r];
          if (d == 0.0) continue;
          for (size_t c = 0; c < layers[l].weights.cols(); ++c) {
            prev[c] += d * layers[l].weights.at(r, c);
          }
        }
        for (size_t c = 0; c < prev.size(); ++c) {
          if (activations[l][c] <= 0.0) prev[c] = 0.0;  // ReLU'
        }
        delta = std::move(prev);
      }

      ++batch_count;
      if (batch_count == options.batch_size || step + 1 == order.size()) {
        apply_batch(batch_count);
        zero_grads();
        batch_count = 0;
      }
    }
    report.epoch_losses.push_back(epoch_loss / num_examples);
    lr *= kLrDecay;
  }
  report.final_loss =
      report.epoch_losses.empty() ? 0.0 : report.epoch_losses.back();
  return report;
}

}  // namespace

util::Result<TrainReport> TrainClassifier(
    Mlp* model, const std::vector<std::vector<double>>& inputs,
    const std::vector<int>& labels, const TrainOptions& options,
    util::Rng* rng) {
  if (inputs.size() != labels.size()) {
    return util::Status::InvalidArgument("inputs/labels size mismatch");
  }
  const int num_classes = model->output_size();
  for (int label : labels) {
    if (label < 0 || label >= num_classes) {
      return util::Status::InvalidArgument("label out of range");
    }
  }
  return TrainImpl(
      model, inputs.size(), inputs, options, rng,
      [&](size_t idx, const std::vector<double>& output,
          std::vector<double>* grad) {
        const std::vector<double> probs = Softmax(output);
        grad->assign(probs.begin(), probs.end());
        (*grad)[labels[idx]] -= 1.0;  // dCE/dlogits = p - onehot(y)
        const double p = std::max(probs[labels[idx]], 1e-12);
        return -std::log(p);
      });
}

util::Result<TrainReport> TrainRegressor(
    Mlp* model, const std::vector<std::vector<double>>& inputs,
    const std::vector<double>& targets, const TrainOptions& options,
    util::Rng* rng) {
  if (inputs.size() != targets.size()) {
    return util::Status::InvalidArgument("inputs/targets size mismatch");
  }
  if (model->output_size() != 1) {
    return util::Status::InvalidArgument("regressor needs 1 output");
  }
  return TrainImpl(
      model, inputs.size(), inputs, options, rng,
      [&](size_t idx, const std::vector<double>& output,
          std::vector<double>* grad) {
        const double err = output[0] - targets[idx];
        grad->assign(1, err);
        return 0.5 * err * err;
      });
}

}  // namespace chameleon::nn
