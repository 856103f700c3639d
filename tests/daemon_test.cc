// Chaos harness for chameleond: frame protocol corruption, admission
// control, per-request deadlines/cancellation, fault-masked bit
// identity, transport fault injection, graceful drain, and journal
// resume. The invariants under test: the daemon never crashes, never
// leaks a request slot (stats().active == 0 after Serve), and requests
// whose faults were fully masked are bit-identical to clean runs.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/chameleon.h"
#include "src/datasets/feret.h"
#include "src/datasets/utkface.h"
#include "src/embedding/simulated_embedder.h"
#include "src/fm/evaluator_pool.h"
#include "src/fm/flaky_foundation_model.h"
#include "src/fm/resilient_foundation_model.h"
#include "src/fm/simulated_foundation_model.h"
#include "src/obs/observability.h"
#include "src/obs/trace.h"
#include "src/util/status.h"
#include "src/util/stopwatch.h"
#include "tools/chameleond/build_once.h"
#include "tools/chameleond/daemon.h"
#include "tools/obsctl/analysis.h"
#include "tools/chameleond/frame.h"
#include "tools/chameleond/protocol.h"
#include "tools/chameleond/transport.h"
#include "tools/obsctl/json.h"

namespace chameleon::daemon {
namespace {

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

void SendPayload(Transport* transport, const std::string& payload) {
  util::Status sent = WriteFrame(transport, payload);
  ASSERT_TRUE(sent.ok()) << sent.ToString();
}

/// Reads frames until one matches `type` (and `id`, when non-empty).
/// Unrelated frames in between (acks racing reports) are skipped.
obsctl::JsonValue AwaitFrame(Transport* transport, const std::string& type,
                             const std::string& id = "") {
  while (true) {
    FrameReadResult result = ReadFrame(transport);
    if (result.kind != FrameReadResult::Kind::kFrame) {
      ADD_FAILURE() << "stream ended while waiting for a '" << type
                    << "' frame (kind " << static_cast<int>(result.kind)
                    << "): " << result.status.ToString();
      return obsctl::JsonValue();
    }
    auto json = obsctl::ParseJson(result.payload);
    if (!json.ok()) {
      ADD_FAILURE() << "unparseable frame: " << result.payload;
      return obsctl::JsonValue();
    }
    if (json->StringOr("type", "") != type) continue;
    if (!id.empty() && json->StringOr("id", "") != id) continue;
    return *json;
  }
}

/// Collects `count` report frames in arrival order (completions of
/// concurrent requests are not ordered), keyed by request id.
std::map<std::string, obsctl::JsonValue> CollectReports(Transport* transport,
                                                        size_t count) {
  std::map<std::string, obsctl::JsonValue> reports;
  while (reports.size() < count) {
    FrameReadResult result = ReadFrame(transport);
    if (result.kind != FrameReadResult::Kind::kFrame) {
      ADD_FAILURE() << "stream ended after " << reports.size() << " of "
                    << count << " reports: " << result.status.ToString();
      return reports;
    }
    auto json = obsctl::ParseJson(result.payload);
    if (!json.ok() || json->StringOr("type", "") != "report") continue;
    reports[json->StringOr("id", "")] = *json;
  }
  return reports;
}

/// A daemon serving one PipePair connection on a background thread.
class RunningDaemon {
 public:
  explicit RunningDaemon(const DaemonOptions& options = DaemonOptions(),
                         Transport* server_override = nullptr)
      : daemon_(server_override != nullptr ? server_override : pipe_.server(),
                options) {}

  void Start(bool resume = false) {
    if (resume) {
      util::Status resumed = daemon_.Resume();
      ASSERT_TRUE(resumed.ok()) << resumed.ToString();
    }
    thread_ = std::thread([this] { serve_status_ = daemon_.Serve(); });
  }

  /// Closes the client's write side (server sees EOF) and joins Serve.
  void Finish() {
    if (!thread_.joinable()) return;
    pipe_.client()->Close();
    thread_.join();
  }

  ~RunningDaemon() { Finish(); }

  Transport* client() { return pipe_.client(); }
  Transport* raw_server() { return pipe_.server(); }
  Daemon& daemon() { return daemon_; }
  const util::Status& serve_status() const { return serve_status_; }

 private:
  PipePair pipe_;
  Daemon daemon_;
  std::thread thread_;
  util::Status serve_status_ = util::Status::Ok();
};

/// Frame-layer fault injector for the chaos tests: dribbles reads into
/// tiny chunks and injects spurious "interrupted" results, the two
/// transport-level failure modes a daemon over a real pipe sees short
/// of disconnection.
class FlakyTransport : public Transport {
 public:
  struct Options {
    size_t max_read_chunk = 0;          ///< 0 = unlimited
    int unavailable_every = 0;          ///< every Nth read is interrupted
  };

  FlakyTransport(Transport* wrapped, const Options& options)
      : wrapped_(wrapped), options_(options) {}

  [[nodiscard]] util::Result<size_t> Read(char* out, size_t max) override {
    const int64_t n = ++reads_;
    if (options_.unavailable_every > 0 &&
        n % options_.unavailable_every == 0) {
      return util::Status::Unavailable("injected spurious interrupt");
    }
    size_t limit = max;
    if (options_.max_read_chunk > 0 && options_.max_read_chunk < limit) {
      limit = options_.max_read_chunk;
    }
    return wrapped_->Read(out, limit);
  }

  [[nodiscard]] util::Status Write(const char* data, size_t size) override {
    return wrapped_->Write(data, size);
  }

  void WakeReader() override { wrapped_->WakeReader(); }
  void Close() override { wrapped_->Close(); }

 private:
  Transport* wrapped_;
  Options options_;
  std::atomic<int64_t> reads_{0};
};

/// The dataset a spec names, built cold: corpus plus simulator hooks,
/// constructed exactly as chameleond builds its base worlds.
struct DirectWorld {
  fm::Corpus corpus;
  fm::FaceStyleFn style = datasets::FeretFaceStyleFn();
  image::SceneStyle scene = datasets::FeretScene();
};

util::Result<DirectWorld> BuildDirectWorld(
    DatasetKind kind, const embedding::Embedder* embedder) {
  DirectWorld world;
  util::Result<fm::Corpus> corpus = util::Status::Internal("unbuilt");
  switch (kind) {
    case DatasetKind::kMicro:
      corpus = MakeMicroCorpus(embedder);
      break;
    case DatasetKind::kFeret:
      corpus = datasets::MakeFeret(embedder, datasets::FeretOptions());
      break;
    case DatasetKind::kUtkFace: {
      datasets::ChallengeOptions options;
      options.render.image_size = 32;
      corpus = datasets::MakeUtkFaceChallengeSubset(embedder, options);
      world.style = datasets::UtkFaceStyleFn();
      world.scene = datasets::UtkFaceScene();
      break;
    }
  }
  if (!corpus.ok()) return corpus.status();
  world.corpus = *std::move(corpus);
  return world;
}

/// Runs the identical repair directly against core::Chameleon on a
/// freshly built corpus of the spec's dataset (micro by default) — the
/// cold reference digest every daemon-served clean run must match.
std::string DirectMicroDigest(const RepairRequestSpec& spec) {
  embedding::SimulatedEmbedder embedder;
  fm::EvaluatorPool evaluators(2024);
  auto world = BuildDirectWorld(spec.dataset, &embedder);
  EXPECT_TRUE(world.ok()) << world.status().ToString();
  if (!world.ok()) return "";
  fm::SimulatedFoundationModel sim(world->corpus.dataset.schema(),
                                   world->style, world->scene,
                                   fm::SimulatedFoundationModel::Options());
  fm::ResilientFoundationModel resilient(&sim, spec.resilience);
  core::ChameleonOptions options;
  options.tau = spec.tau;
  options.seed = spec.seed;
  options.max_queries = spec.max_queries;
  options.rejection_batch = spec.rejection_batch;
  options.num_threads = spec.num_threads;
  core::Chameleon system(&resilient, &embedder, &evaluators, options);
  auto report = system.RepairMinLevelMups(&world->corpus);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? ReportDigest(*report) : "";
}

/// `prefix` followed by `i`, e.g. "r3". Built by append: GCC 12's
/// -Wrestrict misfires on the `"literal" + std::to_string(i)` form in
/// optimized builds (GCC PR105651).
std::string NumberedId(const char* prefix, int i) {
  std::string id = prefix;
  id += std::to_string(i);
  return id;
}

RepairRequestSpec MicroSpec(const std::string& id) {
  RepairRequestSpec spec;
  spec.id = id;
  return spec;
}

/// Fault mix the resilience layer can always mask: transients only, an
/// effectively infinite retry budget, and a breaker that never opens.
RepairRequestSpec MaskedFaultSpec(const std::string& id) {
  RepairRequestSpec spec = MicroSpec(id);
  spec.has_faults = true;
  spec.faults.transient_rate = 0.3;
  spec.resilience.max_attempts = 64;
  spec.resilience.breaker_failure_threshold = 1 << 30;
  return spec;
}

// ---------------------------------------------------------------------------
// Protocol basics
// ---------------------------------------------------------------------------

TEST(DaemonTest, PingPongAndCleanShutdownOnEof) {
  RunningDaemon server;
  server.Start();
  SendPayload(server.client(), RenderPing());
  AwaitFrame(server.client(), "pong");
  server.Finish();
  EXPECT_TRUE(server.serve_status().ok()) << server.serve_status().ToString();
  const DaemonStats stats = server.daemon().stats();
  EXPECT_EQ(stats.frames, 1);
  EXPECT_EQ(stats.active, 0);
  EXPECT_EQ(stats.protocol_errors, 0);
}

TEST(DaemonTest, SingleRepairMatchesDirectRun) {
  const RepairRequestSpec spec = MicroSpec("r1");
  const std::string expected = DirectMicroDigest(spec);
  ASSERT_FALSE(expected.empty());

  RunningDaemon server;
  server.Start();
  SendPayload(server.client(), RenderRepairRequest(spec));
  AwaitFrame(server.client(), "ack", "r1");
  obsctl::JsonValue report = AwaitFrame(server.client(), "report", "r1");
  EXPECT_EQ(report.StringOr("records_digest", ""), expected);
  EXPECT_EQ(report.StringOr("status", ""), "ok");
  EXPECT_GT(report.IntOr("accepted", 0), 0);
  server.Finish();
  EXPECT_EQ(server.daemon().stats().active, 0);
}

// Literal goldens for what chameleond serves. The digest tests above
// compare the daemon with a direct run of the same code, so a change that
// moves both (say, in how the simulator's 64 px render is composited onto
// a smaller guide, ROADMAP item 1) passes them. These pin the bytes.
obsctl::JsonValue ServeOne(const RepairRequestSpec& spec) {
  RunningDaemon server;
  server.Start();
  SendPayload(server.client(), RenderRepairRequest(spec));
  obsctl::JsonValue report = AwaitFrame(server.client(), "report", spec.id);
  server.Finish();
  EXPECT_TRUE(server.serve_status().ok()) << server.serve_status().ToString();
  return report;
}

TEST(DaemonTest, DefaultMicroRequestServesGoldenDigest) {
  const obsctl::JsonValue report = ServeOne(MicroSpec("golden-micro"));
  EXPECT_EQ(report.StringOr("status", ""), "ok");
  EXPECT_EQ(report.StringOr("records_digest", ""), "cc25d15a6aa5bbf1");
}

TEST(DaemonTest, CappedUtkFaceRequestServesGoldenDigest) {
  RepairRequestSpec spec = MicroSpec("golden-utkface");
  spec.dataset = DatasetKind::kUtkFace;
  spec.max_queries = 48;
  const obsctl::JsonValue report = ServeOne(spec);
  EXPECT_EQ(report.IntOr("queries", 0), 48);
  EXPECT_EQ(report.StringOr("records_digest", ""), "520783a8b63bbd92");
}

TEST(DaemonTest, FaultMaskedRepairBitIdenticalToCleanRun) {
  const std::string clean = DirectMicroDigest(MicroSpec("direct"));
  ASSERT_FALSE(clean.empty());

  RunningDaemon server;
  server.Start();
  SendPayload(server.client(), RenderRepairRequest(MaskedFaultSpec("r1")));
  obsctl::JsonValue report = AwaitFrame(server.client(), "report", "r1");
  // Masked faults must be invisible in the result: identical digest,
  // while faults_masked proves the faults actually fired.
  EXPECT_EQ(report.StringOr("records_digest", ""), clean);
  EXPECT_EQ(report.StringOr("status", ""), "ok");
  EXPECT_GT(report.IntOr("faults_masked", 0), 0);
  server.Finish();
  EXPECT_TRUE(server.serve_status().ok()) << server.serve_status().ToString();
}

// ---------------------------------------------------------------------------
// Protocol corruption: each kind yields a structured error frame, never
// a crash, and (where the stream survives) a healthy next request.
// ---------------------------------------------------------------------------

TEST(DaemonTest, TruncatedLengthPrefixReportsErrorAndDrains) {
  RunningDaemon server;
  server.Start();
  // Two bytes of a length prefix, then disconnect: a torn write.
  util::Status sent = server.client()->Write("\x05\x00", 2);
  ASSERT_TRUE(sent.ok()) << sent.ToString();
  server.client()->Close();
  obsctl::JsonValue error = AwaitFrame(server.client(), "error");
  EXPECT_EQ(error.StringOr("code", ""), "InvalidArgument");
  server.Finish();
  EXPECT_TRUE(server.serve_status().ok()) << server.serve_status().ToString();
  EXPECT_EQ(server.daemon().stats().protocol_errors, 1);
  EXPECT_EQ(server.daemon().stats().active, 0);
}

TEST(DaemonTest, OversizedFrameRejectedAndNextRequestHealthy) {
  RunningDaemon server;
  server.Start();
  // A 2 MiB declared frame: over the 1 MiB payload bound but under the
  // discard bound, so the daemon must swallow the body and recover.
  const uint32_t declared = 2u << 20;
  std::string wire;
  wire.push_back(static_cast<char>(declared & 0xFF));
  wire.push_back(static_cast<char>((declared >> 8) & 0xFF));
  wire.push_back(static_cast<char>((declared >> 16) & 0xFF));
  wire.push_back(static_cast<char>((declared >> 24) & 0xFF));
  wire.append(declared, 'x');
  util::Status sent = server.client()->Write(wire.data(), wire.size());
  ASSERT_TRUE(sent.ok()) << sent.ToString();
  obsctl::JsonValue error = AwaitFrame(server.client(), "error");
  EXPECT_EQ(error.StringOr("code", ""), "InvalidArgument");

  SendPayload(server.client(), RenderPing());
  AwaitFrame(server.client(), "pong");
  server.Finish();
  EXPECT_TRUE(server.serve_status().ok()) << server.serve_status().ToString();
  EXPECT_EQ(server.daemon().stats().protocol_errors, 1);
}

TEST(DaemonTest, InvalidUtf8AndInvalidJsonRejectedAndRecovered) {
  RunningDaemon server;
  server.Start();
  SendPayload(server.client(), "\xff\xfe{\"type\":\"ping\"}");
  obsctl::JsonValue utf8_error = AwaitFrame(server.client(), "error");
  EXPECT_EQ(utf8_error.StringOr("code", ""), "InvalidArgument");

  SendPayload(server.client(), "{\"type\":\"ping\"");  // unterminated
  obsctl::JsonValue json_error = AwaitFrame(server.client(), "error");
  EXPECT_EQ(json_error.StringOr("code", ""), "InvalidArgument");

  SendPayload(server.client(), RenderPing());
  AwaitFrame(server.client(), "pong");
  server.Finish();
  EXPECT_TRUE(server.serve_status().ok()) << server.serve_status().ToString();
  EXPECT_EQ(server.daemon().stats().protocol_errors, 2);
}

TEST(DaemonTest, DuplicateRequestIdRejected) {
  RunningDaemon server;
  server.Start();
  SendPayload(server.client(), RenderRepairRequest(MicroSpec("dup")));
  AwaitFrame(server.client(), "ack", "dup");
  AwaitFrame(server.client(), "report", "dup");
  // The id stays burned even after the request finished.
  SendPayload(server.client(), RenderRepairRequest(MicroSpec("dup")));
  obsctl::JsonValue error = AwaitFrame(server.client(), "error", "dup");
  EXPECT_EQ(error.StringOr("code", ""), "InvalidArgument");
  server.Finish();
  EXPECT_EQ(server.daemon().stats().rejected_duplicate, 1);
  EXPECT_EQ(server.daemon().stats().completed, 1);
}

TEST(DaemonTest, RefusedRepairFrameEchoesItsReadableId) {
  RunningDaemon server;
  server.Start();
  // Parses as an object with a string id but fails field validation: the
  // error must name the request, or a client with several in flight
  // cannot tell which one was refused.
  SendPayload(server.client(),
              "{\"type\":\"repair\",\"id\":\"big\","
              "\"rejection_batch\":2000000000}");
  obsctl::JsonValue refused = AwaitFrame(server.client(), "error");
  EXPECT_EQ(refused.StringOr("id", ""), "big");
  EXPECT_EQ(refused.StringOr("code", ""), "InvalidArgument");

  // No readable id, no id on the error.
  SendPayload(server.client(), "{\"type\":\"repair\",\"id\":7}");
  obsctl::JsonValue anonymous = AwaitFrame(server.client(), "error");
  EXPECT_EQ(anonymous.Find("id"), nullptr);
  server.Finish();
  EXPECT_EQ(server.daemon().stats().protocol_errors, 2);
}

TEST(DaemonTest, OutOfRangeNumberFieldsRefusedWithTheirId) {
  RunningDaemon server;
  server.Start();
  // A negative attempt cost would run the request's deadline backwards, a
  // quoted deadline would fall back to none, and a rate above 1 is no
  // probability. A quoted tau would fall back to tau 100, a fractional
  // batch would truncate and a numeric dataset would fall back to micro:
  // each is refused, naming its request.
  const std::pair<std::string, std::string> frames[] = {
      {"cost", R"("resilience":{"attempt_cost_ms":-10})"},
      {"late", R"("deadline_ms":"50")"},
      {"rate", R"("faults":{"transient_rate":1.5})"},
      {"tau", R"("tau":"5")"},
      {"batch", R"("rejection_batch":2.5)"},
      {"kind", R"("dataset":5)"},
  };
  for (const auto& [id, field] : frames) {
    SCOPED_TRACE(field);
    std::string payload = R"({"type":"repair","id":")";
    payload += id;
    payload += R"(",)";
    payload += field;
    payload += "}";
    SendPayload(server.client(), payload);
    obsctl::JsonValue refused = AwaitFrame(server.client(), "error");
    EXPECT_EQ(refused.StringOr("id", ""), id);
    EXPECT_EQ(refused.StringOr("code", ""), "InvalidArgument");
  }
  server.Finish();
  EXPECT_EQ(server.daemon().stats().protocol_errors, 6);
  EXPECT_EQ(server.daemon().stats().completed, 0);
}

TEST(ProtocolTest, FrameIdOfReadsOnlyAStringIdOfAnObject) {
  EXPECT_EQ(FrameIdOf("{\"type\":\"repair\",\"id\":\"r9\"}"), "r9");
  EXPECT_EQ(FrameIdOf("{\"type\":\"repair\",\"id\":9}"), "");
  EXPECT_EQ(FrameIdOf("[\"id\"]"), "");
  EXPECT_EQ(FrameIdOf("{\"id\":\"r9\""), "");  // unterminated
  EXPECT_EQ(FrameIdOf("\xff{\"id\":\"r9\"}"), "");
}

TEST(ProtocolTest, OutOfRangeIntegerFieldsRejectedNotNarrowed) {
  // 4294967297 is 2^32 + 1: narrowed to int it would read as 1.
  const std::string too_big = "4294967297";
  const std::string too_small = "-4294967297";
  for (const std::string& value : {too_big, too_small}) {
    for (const std::string field : {"rejection_batch", "num_threads"}) {
      SCOPED_TRACE(field + "=" + value);
      auto parsed = ParseRequestFrame("{\"type\":\"repair\",\"id\":\"r\",\"" +
                                      field + "\":" + value + "}");
      ASSERT_FALSE(parsed.ok());
      EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument);
    }
    for (const std::string field :
         {"max_attempts", "breaker_failure_threshold",
          "breaker_probe_interval"}) {
      SCOPED_TRACE("resilience." + field + "=" + value);
      auto parsed = ParseRequestFrame(
          "{\"type\":\"repair\",\"id\":\"r\",\"resilience\":{\"" + field +
          "\":" + value + "}}");
      ASSERT_FALSE(parsed.ok());
      EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument);
    }
  }

  // The int64 fields: a cast of 1e19, 1e30 or infinity (1e400 parses as
  // inf) to int64 would be undefined, so each is rejected naming its field.
  for (const std::string value : {"1e19", "-1e19", "1e30", "1e400"}) {
    for (const std::string field : {"tau", "seed", "max_queries"}) {
      SCOPED_TRACE(field + "=" + value);
      auto parsed = ParseRequestFrame("{\"type\":\"repair\",\"id\":\"r\",\"" +
                                      field + "\":" + value + "}");
      ASSERT_FALSE(parsed.ok());
      EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument);
      EXPECT_NE(parsed.status().message().find(field), std::string::npos);
    }
    for (const std::string field :
         {"seed", "fail_from_query", "outage_start", "outage_length"}) {
      SCOPED_TRACE("faults." + field + "=" + value);
      auto parsed = ParseRequestFrame(
          "{\"type\":\"repair\",\"id\":\"r\",\"faults\":{\"" + field +
          "\":" + value + "}}");
      ASSERT_FALSE(parsed.ok());
      EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument);
      EXPECT_NE(parsed.status().message().find(field), std::string::npos);
    }
    SCOPED_TRACE("resilience.seed=" + value);
    auto parsed = ParseRequestFrame(
        "{\"type\":\"repair\",\"id\":\"r\",\"resilience\":{\"seed\":" +
        value + "}}");
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument);
  }

  // A wire value of the wrong type, or a fraction, is refused naming its
  // field rather than falling back to the default ("tau":"5" would run at
  // tau 100) or truncating (2.5 would read as 2).
  for (const std::string value :
       {"\"5\"", "\"8\"", "2.5", "-0.5", "true", "null", "[1]", "{}"}) {
    for (const std::string field :
         {"tau", "seed", "max_queries", "rejection_batch", "num_threads"}) {
      SCOPED_TRACE(field + "=" + value);
      auto parsed = ParseRequestFrame("{\"type\":\"repair\",\"id\":\"r\",\"" +
                                      field + "\":" + value + "}");
      ASSERT_FALSE(parsed.ok());
      EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument);
      EXPECT_NE(parsed.status().message().find(field), std::string::npos);
    }
    for (const std::string object : {"faults", "resilience"}) {
      const std::vector<std::string> fields =
          object == "faults"
              ? std::vector<std::string>{"seed", "fail_from_query",
                                         "outage_start", "outage_length"}
              : std::vector<std::string>{"seed", "max_attempts",
                                         "breaker_failure_threshold",
                                         "breaker_probe_interval"};
      for (const std::string& field : fields) {
        SCOPED_TRACE(object + "." + field + "=" + value);
        auto parsed = ParseRequestFrame(
            "{\"type\":\"repair\",\"id\":\"r\",\"" + object + "\":{\"" +
            field + "\":" + value + "}}");
        ASSERT_FALSE(parsed.ok());
        EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument);
        EXPECT_NE(parsed.status().message().find(field), std::string::npos);
      }
    }
  }

  // In-range values still parse as given; a negative seed keeps its bits.
  auto wide = ParseRequestFrame(
      "{\"type\":\"repair\",\"id\":\"r\",\"tau\":1e15,\"seed\":-1,"
      "\"max_queries\":1e12,\"faults\":{\"seed\":5,\"fail_from_query\":9,"
      "\"outage_start\":2,\"outage_length\":3},\"resilience\":{\"seed\":6}}");
  ASSERT_TRUE(wide.ok()) << wide.status().ToString();
  EXPECT_EQ(wide->spec.tau, int64_t{1000000000000000});
  EXPECT_EQ(wide->spec.seed, UINT64_MAX);
  EXPECT_EQ(wide->spec.max_queries, int64_t{1000000000000});
  EXPECT_EQ(wide->spec.faults.seed, 5u);
  EXPECT_EQ(wide->spec.faults.fail_from_query, 9);
  EXPECT_EQ(wide->spec.faults.outage_start, 2);
  EXPECT_EQ(wide->spec.faults.outage_length, 3);
  EXPECT_EQ(wide->spec.resilience.seed, 6u);

  auto parsed = ParseRequestFrame(
      "{\"type\":\"repair\",\"id\":\"r\",\"rejection_batch\":8,"
      "\"num_threads\":2,\"resilience\":{\"max_attempts\":5,"
      "\"breaker_failure_threshold\":7,\"breaker_probe_interval\":3}}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->spec.rejection_batch, 8);
  EXPECT_EQ(parsed->spec.num_threads, 2);
  EXPECT_EQ(parsed->spec.resilience.max_attempts, 5);
  EXPECT_EQ(parsed->spec.resilience.breaker_failure_threshold, 7);
  EXPECT_EQ(parsed->spec.resilience.breaker_probe_interval, 3);
}

TEST(ProtocolTest, NumberFieldsMustBeFiniteAndInRange) {
  // Rates are probabilities; durations and costs are finite and >= 0. A
  // non-number is refused, not replaced by the default.
  struct Case {
    std::string object;  // "" for a top-level field
    std::string field;
    std::vector<std::string> bad;
    std::string good;
  };
  const std::vector<std::string> bad_duration = {"-10", "-1e-9", "1e400",
                                                 "\"50\"", "true", "null",
                                                 "[1]"};
  const std::vector<std::string> bad_rate = {"1.5", "-0.1", "1e400",
                                             "\"0.5\"", "false"};
  // String fields: a number or another type is refused, not read as the
  // default ("dataset":5 would run a micro request).
  const std::vector<std::string> bad_string = {"5", "7", "true", "null",
                                               "[\"feret\"]"};
  const Case cases[] = {
      {"", "dataset", bad_string, "\"feret\""},
      {"", "client", bad_string, "\"c1\""},
      {"", "deadline_ms", bad_duration, "50"},
      {"resilience", "backoff_base_ms", bad_duration, "0"},
      {"resilience", "backoff_max_ms", bad_duration, "2000"},
      {"resilience", "attempt_cost_ms", bad_duration, "12.5"},
      {"faults", "transient_rate", bad_rate, "1"},
      {"faults", "rate_limit_rate", bad_rate, "0"},
      {"faults", "deadline_rate", bad_rate, "0.25"},
      {"faults", "malformed_rate", bad_rate, "0.5"},
  };
  auto frame = [](const Case& c, const std::string& value) {
    std::string field = "\"" + c.field + "\":" + value;
    if (!c.object.empty()) field = "\"" + c.object + "\":{" + field + "}";
    return ParseRequestFrame(R"({"type":"repair","id":"r",)" + field + "}");
  };
  for (const Case& c : cases) {
    for (const std::string& value : c.bad) {
      SCOPED_TRACE(c.field + "=" + value);
      auto parsed = frame(c, value);
      ASSERT_FALSE(parsed.ok());
      EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument);
      EXPECT_NE(parsed.status().message().find(c.field), std::string::npos);
    }
    SCOPED_TRACE(c.field + "=" + c.good);
    auto parsed = frame(c, c.good);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  }
  auto parsed = ParseRequestFrame(
      R"({"type":"repair","id":"r","deadline_ms":50,)"
      R"("faults":{"transient_rate":0.25,"malformed_rate":1},)"
      R"("resilience":{"backoff_base_ms":3,"backoff_max_ms":40,)"
      R"("attempt_cost_ms":12.5}})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->spec.deadline_ms, 50.0);
  EXPECT_EQ(parsed->spec.faults.transient_rate, 0.25);
  EXPECT_EQ(parsed->spec.faults.malformed_rate, 1.0);
  EXPECT_EQ(parsed->spec.resilience.backoff_base_ms, 3.0);
  EXPECT_EQ(parsed->spec.resilience.backoff_max_ms, 40.0);
  EXPECT_EQ(parsed->spec.resilience.attempt_cost_ms, 12.5);
}

TEST(ProtocolTest, NumThreadsCappedAtAFixedLimit) {
  auto with_threads = [](int64_t threads) {
    return ParseRequestFrame(
        "{\"type\":\"repair\",\"id\":\"r\",\"rejection_batch\":4,"
        "\"num_threads\":" +
        std::to_string(threads) + "}");
  };
  for (int64_t threads :
       {int64_t{0}, int64_t{1}, int64_t{kMaxRequestThreads}}) {
    auto parsed = with_threads(threads);
    ASSERT_TRUE(parsed.ok()) << threads << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed->spec.num_threads, threads);
  }
  for (int64_t threads : {int64_t{kMaxRequestThreads} + 1, int64_t{100000}}) {
    auto parsed = with_threads(threads);
    ASSERT_FALSE(parsed.ok()) << threads;
    EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument);
  }
}

TEST(ProtocolTest, RejectionBatchCappedAtAFixedLimit) {
  auto with_batch = [](int64_t batch) {
    return ParseRequestFrame(
        "{\"type\":\"repair\",\"id\":\"r\",\"rejection_batch\":" +
        std::to_string(batch) + "}");
  };
  for (int64_t batch : {int64_t{1}, int64_t{8}, int64_t{kMaxRejectionBatch}}) {
    auto parsed = with_batch(batch);
    ASSERT_TRUE(parsed.ok()) << batch << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed->spec.rejection_batch, batch);
  }
  for (int64_t batch : {int64_t{0}, int64_t{kMaxRejectionBatch} + 1,
                        int64_t{2000000000}}) {
    auto parsed = with_batch(batch);
    ASSERT_FALSE(parsed.ok()) << batch;
    EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument);
  }
}

// ---------------------------------------------------------------------------
// Admission control and backpressure
// ---------------------------------------------------------------------------

TEST(DaemonTest, OverloadRejectedWithResourceExhausted) {
  DaemonOptions options;
  options.max_queue = 2;
  options.max_inflight_per_client = 1;
  options.num_threads = 1;
  RunningDaemon server(options);
  server.Start();

  // A long-running request (tau 40 needs ~1600 attempts) occupies the
  // single worker while the rejections below are exercised.
  RepairRequestSpec r1 = MicroSpec("r1");
  r1.client = "a";
  r1.tau = 40;
  SendPayload(server.client(), RenderRepairRequest(r1));
  AwaitFrame(server.client(), "ack", "r1");

  RepairRequestSpec r2 = MicroSpec("r2");
  r2.client = "a";
  SendPayload(server.client(), RenderRepairRequest(r2));
  obsctl::JsonValue per_client = AwaitFrame(server.client(), "error", "r2");
  EXPECT_EQ(per_client.StringOr("code", ""), "ResourceExhausted");

  RepairRequestSpec r3 = MicroSpec("r3");
  r3.client = "b";
  SendPayload(server.client(), RenderRepairRequest(r3));
  AwaitFrame(server.client(), "ack", "r3");

  RepairRequestSpec r4 = MicroSpec("r4");
  r4.client = "c";
  SendPayload(server.client(), RenderRepairRequest(r4));
  obsctl::JsonValue overload = AwaitFrame(server.client(), "error", "r4");
  EXPECT_EQ(overload.StringOr("code", ""), "ResourceExhausted");

  AwaitFrame(server.client(), "report", "r1");
  AwaitFrame(server.client(), "report", "r3");
  server.Finish();
  const DaemonStats stats = server.daemon().stats();
  EXPECT_EQ(stats.accepted, 2);
  EXPECT_EQ(stats.rejected_overload, 2);
  EXPECT_EQ(stats.active, 0);  // rejected requests must not leak slots
}

// ---------------------------------------------------------------------------
// Deadlines and cancellation
// ---------------------------------------------------------------------------

TEST(DaemonTest, CancelReturnsPartialReport) {
  RunningDaemon server;
  server.Start();
  RepairRequestSpec spec = MicroSpec("slow");
  spec.tau = 40;
  SendPayload(server.client(), RenderRepairRequest(spec));
  AwaitFrame(server.client(), "ack", "slow");
  SendPayload(server.client(), RenderCancelRequest("slow"));
  obsctl::JsonValue report = AwaitFrame(server.client(), "report", "slow");
  EXPECT_EQ(report.StringOr("status", ""), "cancelled");
  EXPECT_GE(report.IntOr("parked_entries", 0), 1);
  server.Finish();
  const DaemonStats stats = server.daemon().stats();
  EXPECT_EQ(stats.cancelled, 1);
  EXPECT_EQ(stats.active, 0);
}

TEST(DaemonTest, CancelUnknownIdIsNotFound) {
  RunningDaemon server;
  server.Start();
  SendPayload(server.client(), RenderCancelRequest("ghost"));
  obsctl::JsonValue error = AwaitFrame(server.client(), "error", "ghost");
  EXPECT_EQ(error.StringOr("code", ""), "NotFound");
  server.Finish();
  EXPECT_TRUE(server.serve_status().ok()) << server.serve_status().ToString();
}

TEST(DaemonTest, DeadlineExpiresIntoPartialReport) {
  RunningDaemon server;
  server.Start();
  RepairRequestSpec spec = MicroSpec("dl");
  spec.tau = 40;
  spec.deadline_ms = 50.0;  // ~5 queries at the default 10 ms per attempt
  SendPayload(server.client(), RenderRepairRequest(spec));
  obsctl::JsonValue report = AwaitFrame(server.client(), "report", "dl");
  EXPECT_EQ(report.StringOr("status", ""), "deadline");
  EXPECT_GE(report.IntOr("parked_entries", 0), 1);
  EXPECT_GE(report.NumberOr("virtual_ms", 0.0), 50.0);
  server.Finish();
  EXPECT_EQ(server.daemon().stats().active, 0);
}

// ---------------------------------------------------------------------------
// Graceful drain
// ---------------------------------------------------------------------------

TEST(DaemonTest, ShutdownFrameDrainsInFlightRequests) {
  DaemonOptions options;
  // Far beyond the request's worst-case runtime even under sanitizers:
  // this test pins the voluntary-finish path, so the drain must never
  // hit its deadline and cancel (the test below covers that path).
  options.drain_wait_ms = 300000.0;
  RunningDaemon server(options);
  server.Start();
  RepairRequestSpec spec = MicroSpec("inflight");
  spec.tau = 40;
  SendPayload(server.client(), RenderRepairRequest(spec));
  AwaitFrame(server.client(), "ack", "inflight");
  SendPayload(server.client(), RenderShutdown());
  AwaitFrame(server.client(), "ack", "shutdown");
  // The drain must still deliver the in-flight request's report.
  obsctl::JsonValue report = AwaitFrame(server.client(), "report", "inflight");
  EXPECT_EQ(report.StringOr("status", ""), "ok");
  server.Finish();
  EXPECT_TRUE(server.serve_status().ok()) << server.serve_status().ToString();
  EXPECT_EQ(server.daemon().stats().active, 0);
}

/// Throws from the first write of one request's report frame: a repair
/// that throws, without a test-only option in the daemon.
class ThrowOnReportTransport : public Transport {
 public:
  ThrowOnReportTransport(Transport* wrapped, std::string id)
      : wrapped_(wrapped), marker_("\"id\":\"" + id + "\"") {}

  [[nodiscard]] util::Result<size_t> Read(char* out, size_t max) override {
    return wrapped_->Read(out, max);
  }

  [[nodiscard]] util::Status Write(const char* data, size_t size) override {
    const std::string frame(data, size);
    if (frame.find("\"type\":\"report\"") != std::string::npos &&
        frame.find(marker_) != std::string::npos && !thrown_.exchange(true)) {
      throw std::runtime_error("injected report write failure");
    }
    return wrapped_->Write(data, size);
  }

  void WakeReader() override { wrapped_->WakeReader(); }
  void Close() override { wrapped_->Close(); }

 private:
  Transport* wrapped_;
  std::string marker_;
  std::atomic<bool> thrown_{false};
};

TEST(DaemonTest, ThrowingRepairAnswersInternalAndFreesItsSlot) {
  const std::string journal_path = testing::TempDir() + "/daemon_throw.jsonl";
  std::remove(journal_path.c_str());
  PipePair pipe;
  ThrowOnReportTransport throwing(pipe.server(), "boom");
  DaemonOptions options;
  options.journal_path = journal_path;
  // A leaked slot would hold the drain for this long before it cancels
  // stragglers, and then forever: the bounded wait below fails first.
  options.drain_wait_ms = 300000.0;
  Daemon daemon(&throwing, options);
  util::Status serve_status = util::Status::Ok();
  std::thread serve([&] { serve_status = daemon.Serve(); });

  SendPayload(pipe.client(), RenderRepairRequest(MicroSpec("boom")));
  AwaitFrame(pipe.client(), "ack", "boom");
  obsctl::JsonValue error = AwaitFrame(pipe.client(), "error", "boom");
  EXPECT_EQ(error.StringOr("code", ""), "Internal");
  EXPECT_NE(error.StringOr("message", "").find("injected"), std::string::npos);

  const util::Stopwatch waited;
  while (daemon.stats().active != 0 && waited.ElapsedSeconds() < 30.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(daemon.stats().active, 0);
  EXPECT_EQ(daemon.stats().running, 0);

  // The daemon keeps serving: the next request reports normally.
  SendPayload(pipe.client(), RenderRepairRequest(MicroSpec("after")));
  obsctl::JsonValue report = AwaitFrame(pipe.client(), "report", "after");
  EXPECT_EQ(report.StringOr("status", ""), "ok");

  pipe.client()->Close();  // EOF: Serve drains and returns
  serve.join();
  EXPECT_TRUE(serve_status.ok()) << serve_status.ToString();
  EXPECT_EQ(daemon.stats().active, 0);
  EXPECT_EQ(daemon.stats().completed, 2);

  // The repair itself finished and was journaled before its report write
  // threw, so the journal keeps that one req.end and adds what the client
  // was told.
  std::ifstream in(journal_path);
  ASSERT_TRUE(in.is_open());
  int ends = 0;
  int errors = 0;
  std::string line;
  while (std::getline(in, line)) {
    auto event = obsctl::ParseJson(line);
    if (!event.ok() || event->StringOr("id", "") != "boom") continue;
    const std::string type = event->StringOr("type", "");
    if (type == "req.end") ++ends;
    if (type == "req.error") {
      ++errors;
      EXPECT_NE(event->StringOr("detail", "").find("injected"),
                std::string::npos);
    }
  }
  EXPECT_EQ(ends, 1);
  EXPECT_EQ(errors, 1);
}

TEST(DaemonTest, RequestShutdownCancelsStragglersPastDrainDeadline) {
  DaemonOptions options;
  options.drain_wait_ms = 20.0;  // force the cancel path
  RunningDaemon server(options);
  server.Start();
  RepairRequestSpec spec = MicroSpec("straggler");
  spec.tau = 40;
  SendPayload(server.client(), RenderRepairRequest(spec));
  AwaitFrame(server.client(), "ack", "straggler");
  server.daemon().RequestShutdown();  // the SIGTERM path, sans signal
  obsctl::JsonValue report = AwaitFrame(server.client(), "report",
                                        "straggler");
  EXPECT_EQ(report.StringOr("status", ""), "cancelled");
  server.Finish();
  EXPECT_TRUE(server.serve_status().ok()) << server.serve_status().ToString();
  EXPECT_EQ(server.daemon().stats().active, 0);
}

TEST(DaemonTest, MidRequestDisconnectStillFinishesAndJournals) {
  const std::string journal_path =
      testing::TempDir() + "/daemon_disconnect.jsonl";
  DaemonOptions options;
  options.journal_path = journal_path;
  RunningDaemon server(options);
  server.Start();
  SendPayload(server.client(), RenderRepairRequest(MicroSpec("orphan")));
  AwaitFrame(server.client(), "ack", "orphan");
  // Client vanishes mid-request; the daemon must finish the repair,
  // journal req.end, and drain without crashing.
  server.Finish();
  EXPECT_TRUE(server.serve_status().ok()) << server.serve_status().ToString();
  const DaemonStats stats = server.daemon().stats();
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.active, 0);

  std::ifstream in(journal_path);
  ASSERT_TRUE(in.is_open());
  bool saw_end = false;
  std::string line;
  while (std::getline(in, line)) {
    auto event = obsctl::ParseJson(line);
    if (event.ok() && event->StringOr("type", "") == "req.end" &&
        event->StringOr("id", "") == "orphan") {
      saw_end = true;
      EXPECT_EQ(event->StringOr("status", ""), "ok");
    }
  }
  EXPECT_TRUE(saw_end);
}

// ---------------------------------------------------------------------------
// Transport chaos
// ---------------------------------------------------------------------------

TEST(DaemonTest, FlakyTransportChaosEightConcurrent) {
  const std::string clean = DirectMicroDigest(MicroSpec("direct"));
  ASSERT_FALSE(clean.empty());

  PipePair pipe;
  FlakyTransport::Options chaos;
  chaos.max_read_chunk = 1;      // dribble every frame byte by byte
  chaos.unavailable_every = 7;   // plus periodic spurious interrupts
  FlakyTransport flaky(pipe.server(), chaos);
  DaemonOptions options;
  options.num_threads = 4;
  Daemon daemon(&flaky, options);
  util::Status serve_status = util::Status::Ok();
  std::thread thread([&] { serve_status = daemon.Serve(); });

  for (int i = 0; i < 8; ++i) {
    RepairRequestSpec spec = MaskedFaultSpec(NumberedId("r", i));
    spec.client = NumberedId("c", i);
    SendPayload(pipe.client(), RenderRepairRequest(spec));
  }
  std::map<std::string, obsctl::JsonValue> reports =
      CollectReports(pipe.client(), 8);
  ASSERT_EQ(reports.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    const std::string id = NumberedId("r", i);
    ASSERT_TRUE(reports.count(id)) << "no report for " << id;
    // Full isolation: every request masks its own faults and lands on
    // the clean digest, regardless of scheduling and transport chaos.
    EXPECT_EQ(reports[id].StringOr("records_digest", ""), clean) << id;
    EXPECT_EQ(reports[id].StringOr("status", ""), "ok") << id;
  }
  pipe.client()->Close();
  thread.join();
  EXPECT_TRUE(serve_status.ok()) << serve_status.ToString();
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.completed, 8);
  EXPECT_EQ(stats.active, 0);
  EXPECT_EQ(stats.protocol_errors, 0);
}

TEST(DaemonTest, ConcurrentIsolationOneClientAtFullFaultRate) {
  const std::string clean = DirectMicroDigest(MicroSpec("direct"));
  ASSERT_FALSE(clean.empty());

  DaemonOptions options;
  options.num_threads = 2;
  RunningDaemon server(options);
  server.Start();

  // "bad" fails every backend call and exhausts its tiny retry budget;
  // "good" runs concurrently and must be bit-identical to a clean run.
  RepairRequestSpec bad = MicroSpec("bad");
  bad.client = "chaos";
  bad.has_faults = true;
  bad.faults.transient_rate = 1.0;
  bad.resilience.max_attempts = 2;
  SendPayload(server.client(), RenderRepairRequest(bad));
  RepairRequestSpec good = MicroSpec("good");
  good.client = "steady";
  SendPayload(server.client(), RenderRepairRequest(good));

  std::map<std::string, obsctl::JsonValue> reports =
      CollectReports(server.client(), 2);
  ASSERT_TRUE(reports.count("bad") && reports.count("good"));
  EXPECT_EQ(reports["bad"].StringOr("status", ""), "parked");
  EXPECT_EQ(reports["bad"].IntOr("accepted", -1), 0);
  EXPECT_EQ(reports["good"].StringOr("status", ""), "ok");
  EXPECT_EQ(reports["good"].StringOr("records_digest", ""), clean);
  server.Finish();
  EXPECT_EQ(server.daemon().stats().active, 0);
}

// ---------------------------------------------------------------------------
// Crash tolerance: journal resume
// ---------------------------------------------------------------------------

TEST(DaemonTest, ResumeReparksInterruptedRequests) {
  const std::string journal_path = testing::TempDir() + "/daemon_crash.jsonl";
  {
    // A journal as left by a daemon killed mid-request: "done" finished,
    // "lost" was accepted but never ended, and the final line is ragged.
    std::ofstream out(journal_path, std::ios::trunc);
    out << R"({"type":"daemon.start","tick":1,"max_queue":32})" << "\n";
    out << R"({"type":"req.accepted","tick":2,"id":"done","client":"a",)"
        << R"("dataset":"micro","tau":6,"seed":11,"deadline_ms":0})" << "\n";
    out << R"({"type":"req.accepted","tick":3,"id":"lost","client":"a",)"
        << R"("dataset":"micro","tau":6,"seed":11,"deadline_ms":0})" << "\n";
    out << R"({"type":"req.end","tick":4,"id":"done","status":"ok"})" << "\n";
    out << R"({"type":"req.start","tick":5,"id":"lost"})" << "\n";
    out << R"({"type":"req.acce)";  // torn write from the crash
  }

  DaemonOptions options;
  options.journal_path = journal_path;
  RunningDaemon server(options);
  server.Start(/*resume=*/true);

  obsctl::JsonValue resumed = AwaitFrame(server.client(), "resumed");
  EXPECT_EQ(resumed.StringOr("id", ""), "lost");
  EXPECT_EQ(resumed.StringOr("state", ""), "re-parked");

  // Both recovered ids are burned against reuse.
  SendPayload(server.client(), RenderRepairRequest(MicroSpec("lost")));
  EXPECT_EQ(AwaitFrame(server.client(), "error", "lost")
                .StringOr("code", ""),
            "InvalidArgument");
  SendPayload(server.client(), RenderRepairRequest(MicroSpec("done")));
  EXPECT_EQ(AwaitFrame(server.client(), "error", "done")
                .StringOr("code", ""),
            "InvalidArgument");

  // Fresh traffic is healthy after a resume.
  SendPayload(server.client(), RenderRepairRequest(MicroSpec("fresh")));
  AwaitFrame(server.client(), "report", "fresh");
  server.Finish();
  EXPECT_TRUE(server.serve_status().ok()) << server.serve_status().ToString();
  EXPECT_EQ(server.daemon().stats().resumed, 1);

  // The journal was compacted: the new stream records the recovery.
  std::ifstream in(journal_path);
  ASSERT_TRUE(in.is_open());
  bool saw_resumed = false;
  std::string line;
  while (std::getline(in, line)) {
    auto event = obsctl::ParseJson(line);
    if (event.ok() && event->StringOr("type", "") == "req.resumed" &&
        event->StringOr("id", "") == "lost") {
      saw_resumed = true;
    }
  }
  EXPECT_TRUE(saw_resumed);
}

// ---------------------------------------------------------------------------
// The wire's "incremental" field: accepted, and without effect (§14)
// ---------------------------------------------------------------------------

TEST(DaemonTest, IncrementalFlagIsAcceptedAndChangesNothing) {
  // Every repair detects its MUPs once, with one full lattice traversal:
  // a request with "incremental":true and one without are both served,
  // and both equal the direct run bit for bit.
  const std::string clean = DirectMicroDigest(MicroSpec("direct"));
  ASSERT_FALSE(clean.empty());

  RunningDaemon server;
  server.Start();
  RepairRequestSpec flagged = MicroSpec("with");
  flagged.incremental = true;
  SendPayload(server.client(), RenderRepairRequest(flagged));
  obsctl::JsonValue report1 = AwaitFrame(server.client(), "report", "with");
  EXPECT_EQ(report1.StringOr("records_digest", ""), clean);
  EXPECT_EQ(report1.StringOr("status", ""), "ok");

  SendPayload(server.client(), RenderRepairRequest(MicroSpec("without")));
  obsctl::JsonValue report2 =
      AwaitFrame(server.client(), "report", "without");
  EXPECT_EQ(report2.StringOr("records_digest", ""), clean);
  EXPECT_EQ(report2.StringOr("status", ""), "ok");

  server.Finish();
  const DaemonStats stats = server.daemon().stats();
  EXPECT_EQ(stats.accepted, 2);
  EXPECT_EQ(stats.active, 0);
}

TEST(DaemonTest, ResumesJournalLineThatCarriesIncremental) {
  // A daemon killed mid-request whose journal line carries
  // "incremental":true: --resume parks it like any other request, and
  // the next incremental request still matches the direct run.
  const std::string journal_path =
      testing::TempDir() + "/daemon_incr_crash.jsonl";
  {
    std::ofstream out(journal_path, std::ios::trunc);
    out << R"({"type":"daemon.start","tick":1,"max_queue":32})" << "\n";
    out << R"({"type":"req.accepted","tick":2,"id":"gone","client":"a",)"
        << R"("dataset":"micro","tau":6,"seed":11,"deadline_ms":0,)"
        << R"("incremental":true})" << "\n";
    out << R"({"type":"req.start","tick":3,"id":"gone"})" << "\n";
  }

  DaemonOptions options;
  options.journal_path = journal_path;
  RunningDaemon server(options);
  server.Start(/*resume=*/true);
  obsctl::JsonValue resumed = AwaitFrame(server.client(), "resumed");
  EXPECT_EQ(resumed.StringOr("id", ""), "gone");

  RepairRequestSpec fresh = MicroSpec("fresh");
  fresh.incremental = true;
  SendPayload(server.client(), RenderRepairRequest(fresh));
  obsctl::JsonValue report = AwaitFrame(server.client(), "report", "fresh");
  EXPECT_EQ(report.StringOr("records_digest", ""),
            DirectMicroDigest(MicroSpec("direct")));
  EXPECT_EQ(report.StringOr("status", ""), "ok");

  server.Finish();
  const DaemonStats stats = server.daemon().stats();
  EXPECT_EQ(stats.resumed, 1);
}

// ---------------------------------------------------------------------------
// Shared base worlds: one immutable world per dataset kind (DESIGN.md §13)
// ---------------------------------------------------------------------------

TEST(BuildOnceMapTest, FailedBuildIsNotCachedAndSuccessIsShared) {
  BuildOnceMap<int, int> map;
  bool built = false;
  auto failed = map.GetOrBuild(
      1,
      []() -> util::Result<std::shared_ptr<const int>> {
        return util::Status::Internal("build failed");
      },
      &built);
  EXPECT_TRUE(built);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), util::StatusCode::kInternal);

  // The failure was not cached: the next call builds again.
  auto value = map.GetOrBuild(
      1,
      []() -> util::Result<std::shared_ptr<const int>> {
        return std::shared_ptr<const int>(std::make_shared<int>(7));
      },
      &built);
  EXPECT_TRUE(built);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(**value, 7);

  auto again = map.GetOrBuild(
      1,
      []() -> util::Result<std::shared_ptr<const int>> {
        ADD_FAILURE() << "a cached key must not be rebuilt";
        return util::Status::Internal("rebuilt");
      },
      &built);
  EXPECT_FALSE(built);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), value->get());
}

TEST(BuildOnceMapTest, ConcurrentCallersWaitOnOneBuildAndShareItsStatus) {
  for (const bool succeed : {true, false}) {
    BuildOnceMap<int, int> map;
    std::atomic<int> builds{0};
    const auto build = [&]() -> util::Result<std::shared_ptr<const int>> {
      ++builds;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (!succeed) return util::Status::Unavailable("backend down");
      return std::shared_ptr<const int>(std::make_shared<int>(42));
    };
    constexpr int kCallers = 8;
    std::vector<util::Result<std::shared_ptr<const int>>> results(
        kCallers, util::Status::Internal("not run"));
    std::vector<std::thread> callers;
    for (int i = 0; i < kCallers; ++i) {
      callers.emplace_back([&, i] {
        bool built = false;
        results[i] = map.GetOrBuild(0, build, &built);
      });
    }
    for (std::thread& caller : callers) caller.join();
    for (const auto& result : results) {
      if (succeed) {
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(result->get(), results[0]->get());
      } else {
        EXPECT_EQ(result.status().code(), util::StatusCode::kUnavailable);
      }
    }
    // A success is built once; a failure is retried only by callers
    // that arrived after it was reported.
    if (succeed) {
      EXPECT_EQ(builds.load(), 1);
    } else {
      EXPECT_GE(builds.load(), 1);
    }
  }
}

TEST(DaemonTest, BaseWorldSharedAcrossSeedsAndKindsMatchesColdRuns) {
  // Micro seed A, micro seed B, micro seed A again, then one feret and
  // one utkface request, all on one daemon: the later micro requests
  // reuse the micro world, yet every digest equals a cold direct run —
  // no request sees tuples another request appended. Each kind's world
  // is built exactly once.
  RepairRequestSpec seed_a = MicroSpec("a1");
  seed_a.seed = 11;
  RepairRequestSpec seed_b = MicroSpec("b");
  seed_b.seed = 29;
  RepairRequestSpec seed_a_again = seed_a;
  seed_a_again.id = "a2";
  RepairRequestSpec feret = MicroSpec("feret");
  feret.dataset = DatasetKind::kFeret;
  feret.tau = 20;
  feret.max_queries = 16;
  RepairRequestSpec utkface = MicroSpec("utkface");
  utkface.dataset = DatasetKind::kUtkFace;
  utkface.max_queries = 16;
  const std::vector<RepairRequestSpec> specs = {seed_a, seed_b, seed_a_again,
                                                feret, utkface};
  std::vector<std::string> cold;
  for (const RepairRequestSpec& spec : specs) {
    cold.push_back(DirectMicroDigest(spec));
  }
  // The seeds must lead to different repairs, or reuse could hide.
  ASSERT_NE(cold[0], cold[1]);

  RunningDaemon server;
  server.Start();
  for (size_t i = 0; i < specs.size(); ++i) {
    SendPayload(server.client(), RenderRepairRequest(specs[i]));
    obsctl::JsonValue report =
        AwaitFrame(server.client(), "report", specs[i].id);
    EXPECT_EQ(report.StringOr("records_digest", ""), cold[i]) << specs[i].id;
    EXPECT_GT(report.IntOr("queries", 0), 0) << specs[i].id;
  }
  server.Finish();
  EXPECT_TRUE(server.serve_status().ok()) << server.serve_status().ToString();
  const DaemonStats stats = server.daemon().stats();
  EXPECT_EQ(stats.world_builds, 3);
  EXPECT_EQ(stats.completed, 5);
  EXPECT_EQ(stats.active, 0);
}

TEST(DaemonTest, ConcurrentFirstRequestsShareOneWorldBuild) {
  // Eight micro requests race for a world nobody has built yet: they
  // must wait on a single build and all repair bit-identical copies.
  const std::string clean = DirectMicroDigest(MicroSpec("direct"));
  ASSERT_FALSE(clean.empty());

  DaemonOptions options;
  options.num_threads = 8;
  RunningDaemon server(options);
  server.Start();
  constexpr int kRequests = 8;
  for (int i = 0; i < kRequests; ++i) {
    SendPayload(server.client(),
                RenderRepairRequest(MicroSpec(NumberedId("c", i))));
  }
  const auto reports = CollectReports(server.client(), kRequests);
  ASSERT_EQ(reports.size(), static_cast<size_t>(kRequests));
  for (const auto& [id, report] : reports) {
    EXPECT_EQ(report.StringOr("records_digest", ""), clean) << id;
  }
  server.Finish();
  const DaemonStats stats = server.daemon().stats();
  EXPECT_EQ(stats.world_builds, 1);
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_EQ(stats.active, 0);
}

// ---------------------------------------------------------------------------
// Request-scoped telemetry and live stats/statusz (DESIGN.md §15)
// ---------------------------------------------------------------------------

struct StandaloneArtifacts {
  std::vector<std::string> journal_lines;
  std::vector<std::string> span_lines;
  std::string digest;
};

/// Runs the identical micro repair directly against core::Chameleon with
/// an Observability tagged `spec.id` — the reference artifacts every
/// telemetry-enabled daemon run must reproduce byte-for-byte. The span
/// sink collects spans in end order, exactly like the daemon's tee.
StandaloneArtifacts StandaloneMicroTelemetry(const RepairRequestSpec& spec) {
  StandaloneArtifacts out;
  embedding::SimulatedEmbedder embedder;
  fm::EvaluatorPool evaluators(2024);
  auto corpus = MakeMicroCorpus(&embedder);
  EXPECT_TRUE(corpus.ok()) << corpus.status().ToString();
  if (!corpus.ok()) return out;
  fm::SimulatedFoundationModel sim(
      corpus->dataset.schema(), datasets::FeretFaceStyleFn(),
      datasets::FeretScene(), fm::SimulatedFoundationModel::Options());
  fm::ResilientFoundationModel resilient(&sim, spec.resilience);
  obs::Observability observability;
  observability.set_request_id(spec.id);
  observability.tracer.SetSpanSink(
      [&out, &spec](const obs::SpanRecord& span) {
        out.span_lines.push_back(obs::SpanToJson(span, spec.id));
      });
  core::ChameleonOptions options;
  options.tau = spec.tau;
  options.seed = spec.seed;
  options.max_queries = spec.max_queries;
  options.rejection_batch = spec.rejection_batch;
  options.num_threads = spec.num_threads;
  options.observability = &observability;
  core::Chameleon system(&resilient, &embedder, &evaluators, options);
  auto report = system.RepairMinLevelMups(&*corpus);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  out.journal_lines = observability.journal.Lines();
  if (report.ok()) out.digest = ReportDigest(*report);
  return out;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(DaemonTest, TelemetryJournalByteIdenticalToStandalone) {
  for (const int threads : {1, 2, 8}) {
    RepairRequestSpec spec = MicroSpec("tele" + std::to_string(threads));
    spec.num_threads = threads;
    const StandaloneArtifacts expected = StandaloneMicroTelemetry(spec);
    ASSERT_FALSE(expected.journal_lines.empty());
    ASSERT_FALSE(expected.span_lines.empty());

    const std::string journal_path =
        testing::TempDir() + "/daemon_tele_" + std::to_string(threads) +
        ".jsonl";
    std::remove(journal_path.c_str());
    DaemonOptions options;
    options.journal_path = journal_path;
    options.telemetry = true;
    RunningDaemon server(options);
    server.Start();
    SendPayload(server.client(), RenderRepairRequest(spec));
    obsctl::JsonValue report = AwaitFrame(server.client(), "report", spec.id);
    EXPECT_EQ(report.StringOr("status", ""), "ok");
    EXPECT_EQ(report.StringOr("records_digest", ""), expected.digest);
    server.Finish();

    auto aggregate = obsctl::AggregateDaemonJournal(ReadWholeFile(journal_path));
    ASSERT_TRUE(aggregate.ok()) << aggregate.status().ToString();
    ASSERT_EQ(aggregate->requests.size(), 1u);
    const obsctl::RequestRollup& rollup = aggregate->requests[0];
    EXPECT_EQ(rollup.id, spec.id);
    EXPECT_TRUE(rollup.contract_ok);
    // The request-scoped telemetry contract: the daemon-extracted
    // artifacts are byte-identical to the standalone run's, at every
    // repair thread count.
    EXPECT_EQ(rollup.journal_lines, expected.journal_lines)
        << "threads=" << threads;
    EXPECT_EQ(rollup.span_lines, expected.span_lines)
        << "threads=" << threads;
  }
}

TEST(DaemonTest, ConcurrentTelemetryDemuxesPerRequest) {
  // Two concurrent telemetry-tagged requests interleave wrapper events
  // in one daemon journal; each extracted slice must still match its
  // own standalone run byte-for-byte.
  RepairRequestSpec spec_a = MicroSpec("mux-a");
  RepairRequestSpec spec_b = MicroSpec("mux-b");
  spec_b.seed = 17;
  const StandaloneArtifacts expected_a = StandaloneMicroTelemetry(spec_a);
  const StandaloneArtifacts expected_b = StandaloneMicroTelemetry(spec_b);

  const std::string journal_path = testing::TempDir() + "/daemon_mux.jsonl";
  std::remove(journal_path.c_str());
  DaemonOptions options;
  options.journal_path = journal_path;
  options.telemetry = true;
  options.num_threads = 2;
  RunningDaemon server(options);
  server.Start();
  spec_a.client = "a";
  spec_b.client = "b";
  SendPayload(server.client(), RenderRepairRequest(spec_a));
  SendPayload(server.client(), RenderRepairRequest(spec_b));
  CollectReports(server.client(), 2);
  server.Finish();

  auto aggregate = obsctl::AggregateDaemonJournal(ReadWholeFile(journal_path));
  ASSERT_TRUE(aggregate.ok()) << aggregate.status().ToString();
  ASSERT_EQ(aggregate->requests.size(), 2u);
  EXPECT_TRUE(aggregate->AllContractsHold());
  for (const obsctl::RequestRollup& rollup : aggregate->requests) {
    const StandaloneArtifacts& expected =
        rollup.id == "mux-a" ? expected_a : expected_b;
    EXPECT_EQ(rollup.journal_lines, expected.journal_lines) << rollup.id;
    EXPECT_EQ(rollup.span_lines, expected.span_lines) << rollup.id;
  }
}

TEST(DaemonTest, StatsAndStatuszServedUnderChaos) {
  PipePair pipe;
  FlakyTransport::Options chaos;
  chaos.max_read_chunk = 3;
  chaos.unavailable_every = 9;
  FlakyTransport flaky(pipe.server(), chaos);
  DaemonOptions options;
  options.num_threads = 4;
  options.telemetry = true;
  Daemon daemon(&flaky, options);
  util::Status serve_status = util::Status::Ok();
  std::thread thread([&] { serve_status = daemon.Serve(); });

  for (int i = 0; i < 4; ++i) {
    RepairRequestSpec spec = MaskedFaultSpec(NumberedId("s", i));
    spec.client = NumberedId("c", i);
    SendPayload(pipe.client(), RenderRepairRequest(spec));
  }
  // statusz answers live while repairs are still in flight.
  SendPayload(pipe.client(), RenderStatuszRequest());
  obsctl::JsonValue live = AwaitFrame(pipe.client(), "statusz");
  EXPECT_EQ(live.IntOr("accepted_total", -1), 4);
  EXPECT_TRUE(live.BoolOr("telemetry", false));
  EXPECT_FALSE(live.BoolOr("draining", true));

  CollectReports(pipe.client(), 4);

  // After completion the aggregate holds all four requests and the
  // scrape is a valid OpenMetrics document with the expected series.
  SendPayload(pipe.client(), RenderStatsRequest());
  obsctl::JsonValue stats_frame = AwaitFrame(pipe.client(), "stats");
  EXPECT_EQ(stats_frame.StringOr("format", ""), "openmetrics");
  const std::string body = stats_frame.StringOr("body", "");
  const util::Status valid = obsctl::ValidateOpenMetrics(body);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_NE(body.find("fm_queries_total"), std::string::npos);
  EXPECT_NE(body.find("window1m_fm_queries_total"), std::string::npos);
  EXPECT_NE(body.find("window5m_fm_queries_total"), std::string::npos);

  // The report frame is sent *before* the worker releases its slot, so
  // a statusz racing right behind the reports can still see the last
  // worker mid-teardown; poll until the counters settle.
  obsctl::JsonValue done;
  for (int attempt = 0; attempt < 100; ++attempt) {
    SendPayload(pipe.client(), RenderStatuszRequest());
    done = AwaitFrame(pipe.client(), "statusz");
    if (done.IntOr("completed_total", -1) == 4 &&
        done.IntOr("inflight", -1) == 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(done.IntOr("completed_total", -1), 4);
  EXPECT_EQ(done.IntOr("requests_absorbed", -1), 4);
  EXPECT_EQ(done.IntOr("inflight", -1), 0);

  pipe.client()->Close();
  thread.join();
  EXPECT_TRUE(serve_status.ok()) << serve_status.ToString();
  EXPECT_EQ(daemon.stats().active, 0);
}

TEST(DaemonTest, AdmissionRejectsCountedInSloScrape) {
  DaemonOptions options;
  options.max_queue = 2;
  options.max_inflight_per_client = 1;
  options.num_threads = 1;
  RunningDaemon server(options);
  server.Start();

  RepairRequestSpec r1 = MicroSpec("r1");
  r1.client = "a";
  r1.tau = 40;
  SendPayload(server.client(), RenderRepairRequest(r1));
  AwaitFrame(server.client(), "ack", "r1");
  RepairRequestSpec r2 = MicroSpec("r2");
  r2.client = "a";  // per-client cap rejection
  SendPayload(server.client(), RenderRepairRequest(r2));
  AwaitFrame(server.client(), "error", "r2");

  SendPayload(server.client(), RenderStatsRequest());
  obsctl::JsonValue stats_frame = AwaitFrame(server.client(), "stats");
  const std::string body = stats_frame.StringOr("body", "");
  // SLO counters are recorded even with --telemetry off.
  EXPECT_NE(body.find("daemon_slo_admission_reject_total 1"),
            std::string::npos)
      << body;

  AwaitFrame(server.client(), "report", "r1");
  server.Finish();
  EXPECT_EQ(server.daemon().stats().rejected_overload, 1);
}

TEST(DaemonTest, StatsAndStatuszServedAfterCrashResume) {
  const std::string journal_path = testing::TempDir() + "/daemon_tele_crash.jsonl";
  {
    // A telemetry daemon killed mid-request: "lost" accepted but never
    // ended, a torn wrapper line at the tail.
    std::ofstream out(journal_path, std::ios::trunc);
    out << R"({"type":"daemon.start","tick":1,"max_queue":32})" << "\n";
    out << R"({"type":"req.accepted","tick":2,"id":"lost","client":"a",)"
        << R"("dataset":"micro","tau":6,"seed":11,"deadline_ms":0})" << "\n";
    out << R"({"type":"req.start","tick":3,"id":"lost"})" << "\n";
    out << R"({"type":"req.event","tick":4,"rid":"lost","line":"{\"ty)";
  }

  DaemonOptions options;
  options.journal_path = journal_path;
  options.telemetry = true;
  RunningDaemon server(options);
  server.Start(/*resume=*/true);
  EXPECT_EQ(AwaitFrame(server.client(), "resumed").StringOr("id", ""), "lost");

  // The resumed daemon's aggregate starts empty (telemetry is live
  // state, not journal state) and serves fresh traffic + scrapes.
  SendPayload(server.client(), RenderStatuszRequest());
  obsctl::JsonValue fresh = AwaitFrame(server.client(), "statusz");
  EXPECT_TRUE(fresh.BoolOr("telemetry", false));
  EXPECT_EQ(fresh.IntOr("requests_absorbed", -1), 0);

  SendPayload(server.client(), RenderRepairRequest(MicroSpec("after")));
  AwaitFrame(server.client(), "report", "after");

  SendPayload(server.client(), RenderStatsRequest());
  obsctl::JsonValue stats_frame = AwaitFrame(server.client(), "stats");
  EXPECT_EQ(stats_frame.StringOr("format", ""), "openmetrics");
  const std::string body = stats_frame.StringOr("body", "");
  const util::Status valid = obsctl::ValidateOpenMetrics(body);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_NE(body.find("fm_queries_total"), std::string::npos);

  server.Finish();
  EXPECT_TRUE(server.serve_status().ok()) << server.serve_status().ToString();
  EXPECT_EQ(server.daemon().stats().resumed, 1);
}

}  // namespace
}  // namespace chameleon::daemon
