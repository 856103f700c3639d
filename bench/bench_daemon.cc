// Micro-benchmarks for the chameleond serving layer: end-to-end repair
// throughput through the frame protocol, admission control, and the
// shared worker pool at 1 / 8 / 64 concurrent requests. Traffic is the
// micro corpus with a small query budget, so an iteration measures the
// daemon's multiplexing overhead plus real (virtual-time) repair work,
// not image rendering: the daemon renders the micro world once, on the
// first request, and every later request repairs a copy of it.

#include <benchmark/benchmark.h>

#include <atomic>
#include <string>
#include <thread>

#include "tools/chameleond/daemon.h"
#include "tools/chameleond/frame.h"
#include "tools/chameleond/protocol.h"
#include "tools/chameleond/transport.h"
#include "tools/obsctl/json.h"

namespace {

using namespace chameleon;

/// Benchmark traffic: a micro-corpus repair capped at a few dozen
/// queries. Single-threaded inside the request — concurrency comes from
/// the daemon's pool, which is what this bench is measuring.
daemon::RepairRequestSpec BenchSpec(const std::string& id) {
  daemon::RepairRequestSpec spec;
  spec.id = id;
  spec.dataset = daemon::DatasetKind::kMicro;
  spec.max_queries = 8;
  spec.num_threads = 1;
  return spec;
}

/// In-process daemon over a PipePair, serving for the benchmark's
/// lifetime; requests go through the same frame codec production uses.
class BenchDaemon {
 public:
  explicit BenchDaemon(int concurrency, bool telemetry = false) {
    daemon::DaemonOptions options;
    options.max_queue = 2 * concurrency;
    options.max_inflight_per_client = 2 * concurrency;
    options.telemetry = telemetry;
    server_ = std::make_unique<daemon::Daemon>(pipe_.server(), options);
    serve_thread_ = std::thread([this] {
      const util::Status status = server_->Serve();
      serve_ok_.store(status.ok(), std::memory_order_release);
    });
  }

  ~BenchDaemon() {
    pipe_.client()->Close();
    serve_thread_.join();
  }

  /// Submits `count` repairs and blocks until every report is back.
  /// Returns the total fm queries the reports account for (the unit of
  /// throughput) and accumulates consumed virtual milliseconds.
  int64_t RunBatch(int count, double* virtual_ms) {
    for (int i = 0; i < count; ++i) {
      const std::string payload = daemon::RenderRepairRequest(
          BenchSpec("bench-" + std::to_string(next_id_++)));
      if (!daemon::WriteFrame(pipe_.client(), payload).ok()) return -1;
    }
    int64_t queries = 0;
    int reports = 0;
    while (reports < count) {
      daemon::FrameReadResult result = daemon::ReadFrame(pipe_.client());
      if (result.kind != daemon::FrameReadResult::Kind::kFrame) return -1;
      auto value = obsctl::ParseJson(result.payload);
      if (!value.ok()) return -1;
      const std::string type = value->StringOr("type", "");
      if (type == "error") return -1;
      if (type != "report") continue;  // acks
      ++reports;
      queries += value->IntOr("queries", 0);
      *virtual_ms += value->NumberOr("virtual_ms", 0.0);
    }
    return queries;
  }

  bool serve_ok() const { return serve_ok_.load(std::memory_order_acquire); }

 private:
  daemon::PipePair pipe_;
  std::unique_ptr<daemon::Daemon> server_;
  std::thread serve_thread_;
  std::atomic<bool> serve_ok_{false};
  int next_id_ = 0;
};

/// One iteration = one batch of `concurrency` repairs, submitted
/// together and awaited together. items/s is fm queries per wall
/// second; the `virtual_qps` counter is the same numerator over the
/// virtual time the requests consumed (deterministic across machines).
void BM_DaemonRepairBatch(benchmark::State& state) {
  const int concurrency = static_cast<int>(state.range(0));
  BenchDaemon bench_daemon(concurrency);
  int64_t total_queries = 0;
  double total_virtual_ms = 0.0;
  for (auto _ : state) {
    const int64_t queries =
        bench_daemon.RunBatch(concurrency, &total_virtual_ms);
    if (queries < 0) {
      state.SkipWithError("daemon batch failed");
      return;
    }
    total_queries += queries;
  }
  state.SetItemsProcessed(total_queries);
  if (total_virtual_ms > 0.0) {
    state.counters["virtual_qps"] = benchmark::Counter(
        static_cast<double>(total_queries) / (total_virtual_ms / 1000.0));
  }
}
BENCHMARK(BM_DaemonRepairBatch)->Arg(1)->Arg(8)->Arg(64)
    ->Unit(benchmark::kMillisecond);

/// The same batch with --telemetry on: every request carries its own
/// Observability, its journal/spans are teed into the daemon journal,
/// and its registry is folded into the live aggregate. The serving
/// budget (DESIGN.md §15): within 2% of the telemetry-off case above —
/// compare against BM_DaemonRepairBatch at the same arg.
void BM_DaemonRepairBatchTelemetry(benchmark::State& state) {
  const int concurrency = static_cast<int>(state.range(0));
  BenchDaemon bench_daemon(concurrency, /*telemetry=*/true);
  int64_t total_queries = 0;
  double total_virtual_ms = 0.0;
  for (auto _ : state) {
    const int64_t queries =
        bench_daemon.RunBatch(concurrency, &total_virtual_ms);
    if (queries < 0) {
      state.SkipWithError("daemon batch failed");
      return;
    }
    total_queries += queries;
  }
  state.SetItemsProcessed(total_queries);
  if (total_virtual_ms > 0.0) {
    state.counters["virtual_qps"] = benchmark::Counter(
        static_cast<double>(total_queries) / (total_virtual_ms / 1000.0));
  }
}
BENCHMARK(BM_DaemonRepairBatchTelemetry)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
