#include "src/core/rejection_sampler.h"

namespace chameleon::core {
namespace {

/// N: the small fixed evaluation budget per generated tuple.
constexpr int kEvaluationsPerTuple = 5;

}  // namespace

util::Result<RejectionSampler> RejectionSampler::Train(
    const std::vector<std::vector<double>>& real_embeddings,
    const fm::EvaluatorPool* evaluators, double real_label_rate_p,
    const RejectionSamplerOptions& options) {
  if (evaluators == nullptr) {
    return util::Status::InvalidArgument("evaluator pool is required");
  }
  if (real_label_rate_p <= 0.0 || real_label_rate_p > 1.0) {
    return util::Status::InvalidArgument("p must be in (0, 1]");
  }
  auto svm_model = svm::OneClassSvm::Train(real_embeddings, options.svm);
  if (!svm_model.ok()) return svm_model.status();
  return RejectionSampler(std::move(*svm_model), evaluators,
                          real_label_rate_p, options);
}

bool RejectionSampler::DistributionTest(
    const std::vector<double>& embedding) const {
  return svm_.Accepts(embedding);
}

stats::TTestResult RejectionSampler::QualityTest(double latent_realism,
                                                 util::Rng* rng) const {
  return stats::OneSampleTTestLower(DrawQualityLabels(latent_realism, rng),
                                    p_);
}

std::vector<int> RejectionSampler::DrawQualityLabels(double latent_realism,
                                                     util::Rng* rng) const {
  return evaluators_->Evaluate(latent_realism, kEvaluationsPerTuple, rng);
}

RejectionOutcome RejectionSampler::EvaluateWithLabels(
    const std::vector<double>& embedding,
    const std::vector<int>& labels) const {
  RejectionOutcome outcome;
  outcome.decision_value = svm_.DecisionValue(embedding);
  outcome.distribution_pass = svm_.Accepts(outcome.decision_value);
  const stats::TTestResult t = stats::OneSampleTTestLower(labels, p_);
  outcome.quality_p_value = t.p_value;
  outcome.quality_pass = !t.Rejects(options_.quality_alpha);
  return outcome;
}

RejectionOutcome RejectionSampler::Evaluate(
    const std::vector<double>& embedding, double latent_realism,
    util::Rng* rng) const {
  return EvaluateWithLabels(embedding,
                            DrawQualityLabels(latent_realism, rng));
}

}  // namespace chameleon::core
