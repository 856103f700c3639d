#ifndef CHAMELEON_BENCH_EXPERIMENT_COMMON_H_
#define CHAMELEON_BENCH_EXPERIMENT_COMMON_H_

// Shared helpers for the experiment harnesses that regenerate the paper's
// tables and figures. Each bench binary is standalone; this header keeps
// the FERET proof-of-concept plumbing (classifier training/evaluation)
// in one place for Table 3 and Figure 4.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/datasets/feret.h"
#include "src/fm/corpus.h"
#include "src/nn/metrics.h"
#include "src/nn/mlp.h"
#include "src/nn/trainer.h"
#include "src/obs/journal.h"
#include "src/obs/quantile_digest.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/stopwatch.h"

namespace chameleon::bench {

// ---------------------------------------------------------------------------
// Machine-readable bench reports (BENCH_<name>.json, schema v1)
// ---------------------------------------------------------------------------
//
// Every bench binary accepts `--json=<path>` and writes a schema-versioned
// report there; `obsctl validate` checks the schema and `obsctl diff`
// gates regressions against the committed baselines in bench/baselines/.

/// Bumped when the report shape changes incompatibly. Must stay in sync
/// with obsctl::kBenchSchemaVersion.
inline constexpr int kBenchJsonSchemaVersion = 1;

/// One measured benchmark case. Percentiles come from a quantile digest
/// over per-repetition timings; a single-shot experiment reports its one
/// measurement as all three.
struct BenchCase {
  std::string name;
  double ns_per_op = 0.0;
  int64_t iterations = 0;
  double p50_ns = 0.0;
  double p90_ns = 0.0;
  double p99_ns = 0.0;
};

inline std::string BenchJsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", value);
  return buffer;
}

/// Accumulates cases and renders/writes the schema-v1 report. The git
/// SHA is injected by the harness via the CHAMELEON_GIT_SHA environment
/// variable (tools/ci.sh sets it) so binaries never shell out to git.
class BenchJsonReport {
 public:
  explicit BenchJsonReport(std::string name) : name_(std::move(name)) {}

  void set_smoke(bool smoke) { smoke_ = smoke; }

  void AddConfig(const std::string& key, const std::string& value) {
    config_.emplace_back(key, value);
  }

  void AddCase(BenchCase bench_case) {
    cases_.push_back(std::move(bench_case));
  }

  /// Convenience: derive the percentiles from a digest of per-repetition
  /// nanosecond timings.
  void AddCase(const std::string& case_name, double ns_per_op,
               int64_t iterations, const obs::QuantileDigest& ns_digest) {
    BenchCase bench_case;
    bench_case.name = case_name;
    bench_case.ns_per_op = ns_per_op;
    bench_case.iterations = iterations;
    bench_case.p50_ns = ns_digest.Quantile(0.5);
    bench_case.p90_ns = ns_digest.Quantile(0.9);
    bench_case.p99_ns = ns_digest.Quantile(0.99);
    cases_.push_back(std::move(bench_case));
  }

  std::string ToJson() const {
    const char* sha = std::getenv("CHAMELEON_GIT_SHA");
#ifdef NDEBUG
    const char* build_type = "release";
#else
    const char* build_type = "debug";
#endif
    std::string out = "{\n";
    out += "  \"schema_version\": " +
           std::to_string(kBenchJsonSchemaVersion) + ",\n";
    out += "  \"name\": \"";
    out += obs::JsonEscape(name_);
    out += "\",\n  \"git_sha\": \"";
    out += obs::JsonEscape(sha != nullptr && sha[0] != '\0' ? sha
                                                          : "unknown");
    out += "\",\n";
    out += std::string("  \"build_type\": \"") + build_type + "\",\n";
    out += std::string("  \"smoke\": ") + (smoke_ ? "true" : "false") +
           ",\n";
    out += "  \"config\": {";
    for (size_t i = 0; i < config_.size(); ++i) {
      if (i > 0) out += ", ";
      out += '"';
      out += obs::JsonEscape(config_[i].first);
      out += "\": \"";
      out += obs::JsonEscape(config_[i].second);
      out += '"';
    }
    out += "},\n";
    out += "  \"cases\": [\n";
    for (size_t i = 0; i < cases_.size(); ++i) {
      const BenchCase& c = cases_[i];
      out += "    {\"name\": \"";
      out += obs::JsonEscape(c.name);
      out += "\", \"ns_per_op\": " + BenchJsonNumber(c.ns_per_op);
      out += ", \"iterations\": " + std::to_string(c.iterations);
      out += ", \"p50_ns\": " + BenchJsonNumber(c.p50_ns);
      out += ", \"p90_ns\": " + BenchJsonNumber(c.p90_ns);
      out += ", \"p99_ns\": " + BenchJsonNumber(c.p99_ns) + "}";
      if (i + 1 < cases_.size()) out += ",";
      out += "\n";
    }
    out += "  ]\n}\n";
    return out;
  }

  [[nodiscard]] util::Status WriteJson(const std::string& path) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return util::Status::IoError("cannot open " + path + " for writing");
    }
    out << ToJson();
    out.flush();
    if (!out) {
      return util::Status::IoError("write failed for " + path);
    }
    return util::Status::Ok();
  }

 private:
  std::string name_;
  bool smoke_ = false;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<BenchCase> cases_;
};

/// Returns the value of `--json=<path>` from argv, or "" when absent.
inline std::string JsonPathFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) return arg.substr(7);
  }
  return "";
}

/// Experiment-binary epilogue: when `--json=<path>` was passed, writes a
/// single-case report timing the whole run. Returns the exit code to
/// propagate — `exit_code` unchanged on success, 1 when the report could
/// not be written (so CI notices missing artifacts).
inline int FinishExperiment(int argc, char** argv, const std::string& name,
                            double elapsed_seconds, int exit_code) {
  const std::string path = JsonPathFromArgs(argc, argv);
  if (path.empty()) return exit_code;
  BenchJsonReport report(name);
  BenchCase bench_case;
  bench_case.name = "end_to_end";
  bench_case.ns_per_op = elapsed_seconds * 1e9;
  bench_case.iterations = 1;
  bench_case.p50_ns = bench_case.ns_per_op;
  bench_case.p90_ns = bench_case.ns_per_op;
  bench_case.p99_ns = bench_case.ns_per_op;
  report.AddCase(bench_case);
  const util::Status status = report.WriteJson(path);
  if (!status.ok()) {
    std::fprintf(stderr, "bench json: %s\n", status.ToString().c_str());
    return exit_code == 0 ? 1 : exit_code;
  }
  return exit_code;
}

/// Training hyper-parameters for the race-predicting classifier (the
/// paper's Keras CNN stand-in). Chosen for stable convergence on the
/// 756-tuple FERET corpus.
inline nn::TrainOptions ClassifierTrainOptions() {
  nn::TrainOptions options;
  options.epochs = 250;
  options.learning_rate = 0.02;
  options.batch_size = 32;
  return options;
}

/// Trains an ethnicity classifier on `train` and evaluates on `test`.
/// The label is the FERET ethnicity attribute.
inline nn::ClassificationReport TrainAndEvaluateEthnicityClassifier(
    const fm::Corpus& train, const fm::Corpus& test, uint64_t seed = 33) {
  util::Rng rng(seed);
  std::vector<std::vector<double>> inputs;
  std::vector<int> labels;
  for (const auto& t : train.dataset.tuples()) {
    inputs.push_back(t.embedding);
    labels.push_back(t.values[datasets::kFeretEthnicity]);
  }
  const int num_classes =
      train.dataset.schema().attribute(datasets::kFeretEthnicity).cardinality();
  nn::Mlp model({static_cast<int>(inputs[0].size()), 32, num_classes}, &rng);
  auto report =
      nn::TrainClassifier(&model, inputs, labels, ClassifierTrainOptions(),
                          &rng);
  if (!report.ok()) {
    std::fprintf(stderr, "classifier training failed: %s\n",
                 report.status().ToString().c_str());
  }
  std::vector<int> gold;
  std::vector<int> predicted;
  for (const auto& t : test.dataset.tuples()) {
    gold.push_back(t.values[datasets::kFeretEthnicity]);
    predicted.push_back(model.Predict(t.embedding));
  }
  return nn::ClassificationReport(gold, predicted, num_classes);
}

}  // namespace chameleon::bench

#endif  // CHAMELEON_BENCH_EXPERIMENT_COMMON_H_
