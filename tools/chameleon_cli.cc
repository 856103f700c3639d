// Command-line front end for the Chameleon library.
//
//   chameleon_cli audit  --dataset=feret|utkface --tau=N [--n=N]
//   chameleon_cli repair --dataset=feret|utkface --tau=N
//                        [--strategy=linucb|similar|random|noguide]
//                        [--mask=accurate|moderate|imprecise]
//                        [--alpha=0.1] [--nu=0.3] [--seed=S] [--out=DIR]
//                        [--rejection-batch=N]
//                        [--metrics] [--metrics-out=F] [--trace-out=F]
//                        [--journal-out=F] [--openmetrics-out=F]
//                        [--trace-json-out=F]
//   chameleon_cli plan   --dataset=feret|utkface --tau=N
//                        [--algorithm=greedy|mingap|random]
//
// `audit` reports the Maximal Uncovered Patterns; `plan` prints the
// combination-selection plan without touching a foundation model;
// `repair` runs the full pipeline against the simulated foundation model
// and optionally saves the repaired corpus (CSV + PNM) to --out.
//
// Numeric flags are parsed whole: a malformed or out-of-range value (for
// example --tau=abc, --tau=0 or --rejection-batch=0) exits 2 with a
// message instead of running with a silently substituted number. So does
// a flag the command does not read (--rejection_batch=8) or an argument
// without `--` (tau=5), which would otherwise run with the default.
//
// Observability (DESIGN.md §9): any of --metrics / --metrics-out= /
// --trace-out= / --journal-out= attaches an obs::Observability sink to
// the repair run. --metrics prints the registry as a table; the *-out
// flags export metrics / spans / the run journal as JSONL files.
// Instrumentation never changes which tuples are accepted.

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "src/core/chameleon.h"
#include "src/coverage/mup_finder.h"
#include "src/coverage/pattern_counter.h"
#include "src/datasets/feret.h"
#include "src/datasets/utkface.h"
#include "src/embedding/simulated_embedder.h"
#include "src/fm/corpus_io.h"
#include "src/fm/deadline.h"
#include "src/fm/evaluator_pool.h"
#include "src/fm/foundation_model.h"
#include "src/fm/simulated_foundation_model.h"
#include "src/obs/export.h"
#include "src/obs/observability.h"
#include "src/util/table_printer.h"

namespace {

using namespace chameleon;

/// The in-flight repair's cancel hook. SIGINT/SIGTERM mark it cancelled
/// (an atomic store — async-signal-safe); the rejection loop observes
/// the flag at its next round boundary, parks the remaining plan, and
/// the normal exit path finalizes every streamed sink. A killed run
/// therefore leaves journals and traces `obsctl report` accepts, not
/// ragged files.
std::atomic<fm::Deadline*> g_repair_deadline{nullptr};

void HandleRepairSignal(int /*signum*/) {
  fm::Deadline* deadline = g_repair_deadline.load(std::memory_order_acquire);
  if (deadline != nullptr) deadline->MarkCancelled();
}

/// Minimal --key=value parser.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        unexpected_.push_back(arg);
        continue;
      }
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)] = "true";
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    }
  }

  /// True when every argument is a --flag named in `known`; otherwise
  /// names the first argument that is not on stderr and returns false.
  bool OnlyKnown(const std::vector<std::string>& known) const {
    if (!unexpected_.empty()) {
      std::fprintf(stderr,
                   "unexpected argument '%s' (flags are --name=value)\n",
                   unexpected_.front().c_str());
      return false;
    }
    for (const auto& [key, value] : values_) {
      if (std::find(known.begin(), known.end(), key) == known.end()) {
        std::fprintf(stderr, "unknown flag --%s=%s\n", key.c_str(),
                     value.c_str());
        return false;
      }
    }
    return true;
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  bool Has(const std::string& key) const {
    return values_.find(key) != values_.end();
  }
  /// Reads --key as a whole base-10 integer in [min, max], or `fallback`
  /// when the flag is absent. Anything else prints why and returns false.
  bool GetInt(const std::string& key, int64_t fallback, int64_t* out,
              int64_t min = std::numeric_limits<int64_t>::min(),
              int64_t max = std::numeric_limits<int64_t>::max()) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      *out = fallback;
      return true;
    }
    const char* text = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    const long long value = std::strtoll(text, &end, 10);
    if (end != text && *end == '\0' && errno == 0 && value >= min &&
        value <= max) {
      *out = value;
      return true;
    }
    std::fprintf(stderr, "--%s=%s: expected an integer in [%lld, %lld]\n",
                 key.c_str(), text, static_cast<long long>(min),
                 static_cast<long long>(max));
    return false;
  }
  /// Reads --key as a whole finite number, or `fallback` when the flag is
  /// absent. Anything else prints why and returns false.
  bool GetDouble(const std::string& key, double fallback, double* out) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      *out = fallback;
      return true;
    }
    const char* text = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    const double value = std::strtod(text, &end);
    if (end != text && *end == '\0' && errno == 0 && std::isfinite(value)) {
      *out = value;
      return true;
    }
    std::fprintf(stderr, "--%s=%s: expected a finite number\n", key.c_str(),
                 text);
    return false;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> unexpected_;
};

struct LoadedCorpus {
  fm::Corpus corpus;
  fm::FaceStyleFn style_fn;
  image::SceneStyle scene;
};

/// Reads --tau (default 100); a coverage threshold must be positive.
bool GetTau(const Flags& flags, int64_t* tau) {
  return flags.GetInt("tau", 100, tau, /*min=*/1);
}

/// Builds the --dataset corpus. Returns the process exit code on failure
/// (2 for a malformed flag, 1 for a failed build) and 0 on success.
int LoadDataset(const Flags& flags, const embedding::SimulatedEmbedder& embedder,
                bool with_images, LoadedCorpus* out) {
  const std::string name = flags.Get("dataset", "feret");
  if (name == "feret") {
    datasets::FeretOptions options;
    options.render.render_images = with_images;
    auto corpus = datasets::MakeFeret(&embedder, options);
    if (!corpus.ok()) {
      std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
      return 1;
    }
    out->corpus = std::move(*corpus);
    out->style_fn = datasets::FeretFaceStyleFn();
    out->scene = datasets::FeretScene();
    return 0;
  }
  if (name == "utkface") {
    datasets::UtkFaceOptions options;
    options.render.render_images = with_images;
    int64_t num_tuples = 0;
    if (!flags.GetInt("n", 20000, &num_tuples, /*min=*/1, INT_MAX)) return 2;
    options.num_tuples = static_cast<int>(num_tuples);
    auto corpus = datasets::MakeUtkFace(&embedder, options);
    if (!corpus.ok()) {
      std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
      return 1;
    }
    out->corpus = std::move(*corpus);
    out->style_fn = datasets::UtkFaceStyleFn();
    out->scene = datasets::UtkFaceScene();
    return 0;
  }
  std::fprintf(stderr, "unknown --dataset=%s (feret|utkface)\n",
               name.c_str());
  return 1;
}

std::vector<coverage::Mup> FindMups(const fm::Corpus& corpus, int64_t tau) {
  const auto counter = *coverage::PatternCounter::FromDataset(corpus.dataset);
  coverage::MupFinder finder(corpus.dataset.schema(), counter);
  coverage::MupFinderOptions options;
  options.tau = tau;
  return finder.FindMups(options);
}

int CmdAudit(const Flags& flags) {
  int64_t tau = 0;
  if (!GetTau(flags, &tau)) return 2;
  const embedding::SimulatedEmbedder embedder;
  LoadedCorpus loaded;
  if (const int code = LoadDataset(flags, embedder, /*with_images=*/false,
                                   &loaded);
      code != 0) {
    return code;
  }

  const auto mups = FindMups(loaded.corpus, tau);
  std::printf("%zu tuples; %zu MUP(s) at tau=%lld\n",
              loaded.corpus.dataset.size(), mups.size(),
              static_cast<long long>(tau));
  util::TablePrinter table({"level", "pattern", "subgroup", "count", "gap"});
  for (const auto& m : mups) {
    table.AddRow({util::Fmt(m.Level()), m.pattern.ToString(),
                  m.pattern.ToString(loaded.corpus.dataset.schema()),
                  util::Fmt(m.count), util::Fmt(m.gap)});
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}

int CmdPlan(const Flags& flags) {
  int64_t tau = 0;
  int64_t seed = 0;
  if (!GetTau(flags, &tau) || !flags.GetInt("seed", 99, &seed)) return 2;
  const embedding::SimulatedEmbedder embedder;
  LoadedCorpus loaded;
  if (const int code = LoadDataset(flags, embedder, /*with_images=*/false,
                                   &loaded);
      code != 0) {
    return code;
  }
  const std::string algorithm = flags.Get("algorithm", "greedy");

  const auto mups = FindMups(loaded.corpus, tau);
  if (mups.empty()) {
    std::printf("fully covered at tau=%lld; nothing to plan\n",
                static_cast<long long>(tau));
    return 0;
  }
  const auto targets = coverage::MupFinder::MinLevel(mups);
  const auto& schema = loaded.corpus.dataset.schema();
  core::CombinationPlan plan;
  util::Rng rng(seed);
  if (algorithm == "greedy") {
    plan = core::GreedySelect(schema, targets);
  } else if (algorithm == "mingap") {
    plan = core::MinGapSelect(schema, mups, targets[0].Level());
  } else if (algorithm == "random") {
    plan = core::RandomSelect(schema, mups, targets[0].Level(), &rng);
  } else {
    std::fprintf(stderr, "unknown --algorithm=%s\n", algorithm.c_str());
    return 1;
  }

  std::printf("%s plan for %zu level-%d MUP(s): %lld images total\n",
              algorithm.c_str(), targets.size(), targets[0].Level(),
              static_cast<long long>(core::PlanTotal(plan)));
  util::TablePrinter table({"combination", "count"});
  for (const auto& entry : plan) {
    table.AddRow({schema.CombinationToString(entry.values),
                  util::Fmt(entry.count)});
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}

int CmdRepair(const Flags& flags) {
  core::ChameleonOptions options;
  int64_t seed = 0;
  int64_t rejection_batch = 0;
  int64_t evaluator_seed = 0;
  if (!GetTau(flags, &options.tau) || !flags.GetInt("seed", 99, &seed) ||
      !flags.GetDouble("alpha", 0.1, &options.rejection.quality_alpha) ||
      !flags.GetDouble("nu", 0.3, &options.rejection.svm.nu) ||
      !flags.GetInt("rejection-batch", options.rejection_batch,
                    &rejection_batch, /*min=*/1, INT_MAX) ||
      !flags.GetInt("evaluator_seed", 2024, &evaluator_seed)) {
    return 2;
  }
  options.seed = static_cast<uint64_t>(seed);
  // Each rejection round is one GenerateBatch dispatch of
  // --rejection-batch queries (DESIGN.md §11).
  options.rejection_batch = static_cast<int>(rejection_batch);

  const std::string strategy = flags.Get("strategy", "linucb");
  if (strategy == "linucb") {
    options.guide_strategy = core::GuideStrategy::kLinUcb;
  } else if (strategy == "similar") {
    options.guide_strategy = core::GuideStrategy::kSimilarTuple;
  } else if (strategy == "random") {
    options.guide_strategy = core::GuideStrategy::kRandomGuide;
  } else if (strategy == "noguide") {
    options.guide_strategy = core::GuideStrategy::kNoGuide;
  } else {
    std::fprintf(stderr, "unknown --strategy=%s\n", strategy.c_str());
    return 1;
  }
  const std::string mask = flags.Get("mask", "moderate");
  if (mask == "accurate") {
    options.mask_level = image::MaskLevel::kAccurate;
  } else if (mask == "moderate") {
    options.mask_level = image::MaskLevel::kModerate;
  } else if (mask == "imprecise") {
    options.mask_level = image::MaskLevel::kImprecise;
  } else {
    std::fprintf(stderr, "unknown --mask=%s\n", mask.c_str());
    return 1;
  }

  const embedding::SimulatedEmbedder embedder;
  LoadedCorpus loaded;
  if (const int code = LoadDataset(flags, embedder, /*with_images=*/true,
                                   &loaded);
      code != 0) {
    return code;
  }

  const std::string metrics_out = flags.Get("metrics-out", "");
  const std::string trace_out = flags.Get("trace-out", "");
  const std::string journal_out = flags.Get("journal-out", "");
  const std::string openmetrics_out = flags.Get("openmetrics-out", "");
  const std::string trace_json_out = flags.Get("trace-json-out", "");
  // Two export flags writing the same path would silently clobber one
  // another; refuse up front.
  const std::pair<const char*, const std::string*> out_flags[] = {
      {"--metrics-out", &metrics_out},       {"--trace-out", &trace_out},
      {"--journal-out", &journal_out},       {"--openmetrics-out",
                                              &openmetrics_out},
      {"--trace-json-out", &trace_json_out}};
  for (size_t i = 0; i < std::size(out_flags); ++i) {
    for (size_t j = i + 1; j < std::size(out_flags); ++j) {
      if (!out_flags[i].second->empty() &&
          *out_flags[i].second == *out_flags[j].second) {
        std::fprintf(stderr, "%s and %s both point at %s\n",
                     out_flags[i].first, out_flags[j].first,
                     out_flags[i].second->c_str());
        return 2;
      }
    }
  }
  obs::Observability observability;
  // --request-id tags every journal line and span with a stable id
  // (DESIGN.md §15) — the same id chameleond stamps on its side, which is
  // how a daemon request's journal is checked byte-for-byte against the
  // equivalent standalone run. Setting it implies observing.
  const std::string request_id = flags.Get("request-id", "");
  const bool observe = flags.Has("metrics") || !metrics_out.empty() ||
                       !trace_out.empty() || !journal_out.empty() ||
                       !openmetrics_out.empty() || !trace_json_out.empty() ||
                       !request_id.empty();
  if (observe) options.observability = &observability;
  if (!request_id.empty()) observability.set_request_id(request_id);

  // Journal and trace sinks stream append+flush per line so a killed run
  // still leaves an analyzable prefix on disk (obsctl tolerates the
  // ragged final line).
  if (!journal_out.empty()) {
    const util::Status streaming = observability.journal.StreamTo(journal_out);
    if (!streaming.ok()) {
      std::fprintf(stderr, "journal export failed: %s\n",
                   streaming.ToString().c_str());
      return 1;
    }
  }
  if (!trace_out.empty()) {
    const util::Status streaming = observability.tracer.StreamTo(trace_out);
    if (!streaming.ok()) {
      std::fprintf(stderr, "trace export failed: %s\n",
                   streaming.ToString().c_str());
      return 1;
    }
  }

  // Graceful interruption: Ctrl-C cancels the run's Deadline instead of
  // killing the process, so the partial repair still reports and every
  // streamed sink is closed through the normal path below.
  fm::Deadline deadline;
  options.deadline = &deadline;
  g_repair_deadline.store(&deadline, std::memory_order_release);
  struct sigaction signal_action;
  struct sigaction previous_int;
  struct sigaction previous_term;
  std::memset(&signal_action, 0, sizeof(signal_action));
  signal_action.sa_handler = HandleRepairSignal;
  sigemptyset(&signal_action.sa_mask);
  sigaction(SIGINT, &signal_action, &previous_int);
  sigaction(SIGTERM, &signal_action, &previous_term);

  fm::SimulatedFoundationModel model(loaded.corpus.dataset.schema(),
                                     loaded.style_fn, loaded.scene,
                                     fm::SimulatedFoundationModel::Options());
  const fm::EvaluatorPool evaluators(static_cast<uint64_t>(evaluator_seed));
  core::Chameleon system(&model, &embedder, &evaluators, options);
  auto report = system.RepairMinLevelMups(&loaded.corpus);
  sigaction(SIGINT, &previous_int, nullptr);
  sigaction(SIGTERM, &previous_term, nullptr);
  g_repair_deadline.store(nullptr, std::memory_order_release);
  if (!report.ok()) {
    std::fprintf(stderr, "repair failed: %s\n",
                 report.status().ToString().c_str());
    // Even a failed run finalizes its streamed sinks: the on-disk prefix
    // stays a well-formed JSONL file obsctl can analyze.
    if (!trace_out.empty()) {
      static_cast<void>(observability.tracer.CloseStream());
    }
    if (!journal_out.empty()) {
      static_cast<void>(observability.journal.CloseStream());
    }
    return 1;
  }
  if (report->cancelled) {
    std::printf("interrupted: repair stopped at a round boundary; "
                "%lld plan entr%s parked\n",
                static_cast<long long>(report->faults.parked_entries()),
                report->faults.parked_entries() == 1 ? "y" : "ies");
  }

  std::printf("repaired %zu MUP(s): %lld queries, %lld accepted (%.0f%%), "
              "estimated p=%.2f, cost=$%.2f, resolved=%s\n",
              report->initial_mups.size(),
              static_cast<long long>(report->queries),
              static_cast<long long>(report->accepted),
              100.0 * report->AcceptanceRate(), report->estimated_p,
              report->total_cost, report->fully_resolved ? "yes" : "no");

  if (flags.Has("metrics")) {
    std::printf("%s", observability.registry.ToTable().ToString().c_str());
  }
  if (!metrics_out.empty()) {
    const util::Status written = observability.registry.Write(metrics_out);
    if (!written.ok()) {
      std::fprintf(stderr, "metrics export failed: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    std::printf("metrics written to %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    const util::Status closed = observability.tracer.CloseStream();
    if (!closed.ok()) {
      std::fprintf(stderr, "trace export failed: %s\n",
                   closed.ToString().c_str());
      return 1;
    }
    std::printf("trace written to %s\n", trace_out.c_str());
  }
  if (!journal_out.empty()) {
    const util::Status closed = observability.journal.CloseStream();
    if (!closed.ok()) {
      std::fprintf(stderr, "journal export failed: %s\n",
                   closed.ToString().c_str());
      return 1;
    }
    std::printf("journal written to %s\n", journal_out.c_str());
  }
  if (!openmetrics_out.empty()) {
    const util::Status written =
        obs::WriteOpenMetrics(observability.registry, openmetrics_out);
    if (!written.ok()) {
      std::fprintf(stderr, "openmetrics export failed: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    std::printf("openmetrics written to %s\n", openmetrics_out.c_str());
  }
  if (!trace_json_out.empty()) {
    const util::Status written =
        obs::WriteTraceEvents(observability.tracer, trace_json_out);
    if (!written.ok()) {
      std::fprintf(stderr, "trace json export failed: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    std::printf("trace json written to %s\n", trace_json_out.c_str());
  }

  const std::string out = flags.Get("out", "");
  if (!out.empty()) {
    const util::Status saved = fm::SaveCorpus(loaded.corpus, out);
    if (!saved.ok()) {
      std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("repaired corpus written to %s\n", out.c_str());
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: chameleon_cli <audit|plan|repair> [--flags]\n"
               "  audit  --dataset=feret|utkface --tau=N [--n=N]\n"
               "  plan   --dataset=... --tau=N "
               "[--algorithm=greedy|mingap|random]\n"
               "  repair --dataset=... --tau=N [--strategy=linucb|similar|"
               "random|noguide]\n"
               "         [--mask=accurate|moderate|imprecise] [--alpha=A] "
               "[--nu=V] [--out=DIR]\n"
               "         [--rejection-batch=N]\n"
               "         [--metrics] [--metrics-out=FILE] [--trace-out=FILE] "
               "[--journal-out=FILE]\n"
               "         [--openmetrics-out=FILE] [--trace-json-out=FILE] "
               "[--request-id=ID]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Flags flags(argc, argv);
  // The flags each command reads. Every one builds a --dataset corpus,
  // and utkface reads --n.
  std::vector<std::string> known = {"dataset", "n", "tau"};
  int (*run)(const Flags&) = nullptr;
  if (command == "audit") {
    run = CmdAudit;
  } else if (command == "plan") {
    run = CmdPlan;
    known.insert(known.end(), {"seed", "algorithm"});
  } else if (command == "repair") {
    run = CmdRepair;
    known.insert(known.end(),
                 {"seed", "alpha", "nu", "rejection-batch", "evaluator_seed",
                  "strategy", "mask", "out", "metrics", "metrics-out",
                  "trace-out", "journal-out", "openmetrics-out",
                  "trace-json-out", "request-id"});
  } else {
    return Usage();
  }
  return flags.OnlyKnown(known) ? run(flags) : 2;
}
