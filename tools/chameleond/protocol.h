#ifndef CHAMELEON_TOOLS_CHAMELEOND_PROTOCOL_H_
#define CHAMELEON_TOOLS_CHAMELEOND_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "src/core/chameleon.h"
#include "src/fm/flaky_foundation_model.h"
#include "src/fm/resilient_foundation_model.h"
#include "src/util/status.h"

namespace chameleon::daemon {

/// Datasets a request may target. All are in-tree synthetic corpora, so
/// a request is fully self-describing: the only server-side state is the
/// daemon's cache of each kind's base world, a pure function of the kind.
/// kMicro is a deliberately small FERET-schema corpus (tests, benches,
/// smoke traffic); kFeret/kUtkFace are the paper's.
enum class DatasetKind { kMicro, kFeret, kUtkFace };

const char* DatasetKindName(DatasetKind kind);

/// Upper bound on a request's `num_threads`. Each repair builds a worker
/// pool of that size per plan entry, so the wire must not be able to ask
/// for an arbitrary number of threads. Fixed, not derived from the host,
/// so a frame is accepted or rejected the same way everywhere; 0 (the
/// host's hardware concurrency) stays allowed.
inline constexpr int kMaxRequestThreads = 64;

/// Upper bound on a request's `rejection_batch`. A round reserves and
/// dispatches up to that many queries at once, so the wire must not be
/// able to ask for an arbitrary round size. Fixed for the same reason as
/// kMaxRequestThreads.
inline constexpr int kMaxRejectionBatch = 4096;

/// One repair request, as carried by a `repair` frame. Every field has a
/// safe default, so a minimal frame is `{"type":"repair","id":"r1"}`.
struct RepairRequestSpec {
  std::string id;                  ///< required, unique per daemon lifetime
  std::string client = "default";  ///< in-flight caps are per client
  DatasetKind dataset = DatasetKind::kMicro;
  int64_t tau = 6;
  uint64_t seed = 11;
  int64_t max_queries = 50000;
  int rejection_batch = 4;  ///< in [1, kMaxRejectionBatch]
  int num_threads = 1;  ///< 0 = host concurrency; <= kMaxRequestThreads
  /// Per-request virtual-time budget (fm::Deadline); 0 = unlimited.
  double deadline_ms = 0.0;
  /// Accepted for wire compatibility and has no effect: every repair
  /// detects its MUPs with one full lattice traversal (DESIGN.md §14).
  /// Parsed, journaled and rendered like any other field, so an old
  /// client or journal line that carries `"incremental"` still works.
  bool incremental = false;
  /// Optional fault injection below the request's resilience layer (the
  /// chaos harness's scripted backend outages ride in here).
  bool has_faults = false;
  fm::FlakyOptions faults;
  /// Per-request resilience configuration. Every request gets its own
  /// ResilientFoundationModel built from this, so one request's breaker
  /// or backoff can never affect another.
  fm::ResilienceOptions resilience;
};

enum class FrameKind { kRepair, kCancel, kPing, kShutdown, kStats, kStatusz };

struct ParsedFrame {
  FrameKind kind = FrameKind::kPing;
  std::string id;          ///< repair/cancel target id
  RepairRequestSpec spec;  ///< kRepair only
};

/// Parses one client frame body: UTF-8 validation, JSON parse, type
/// dispatch, field extraction. Any failure is kInvalidArgument with a
/// message safe to echo into an error frame.
[[nodiscard]] util::Result<ParsedFrame> ParseRequestFrame(
    const std::string& payload);

/// The string `id` of a frame body that parses as a JSON object, and ""
/// otherwise: an error frame for a frame ParseRequestFrame refused still
/// names the request when its id was readable.
std::string FrameIdOf(const std::string& payload);

/// True when `text` is well-formed UTF-8 (the frame body contract; JSON
/// escapes aside, the parser itself is byte-oriented and would happily
/// pass raw Latin-1 through into journals).
bool IsValidUtf8(const std::string& text);

// --- server -> client frames -----------------------------------------------

std::string RenderError(const std::string& id, util::StatusCode code,
                        const std::string& message);
std::string RenderAck(const std::string& id);
std::string RenderPong();
/// Final per-request report. `virtual_ms` is the request's consumed
/// virtual-time budget (Deadline::ElapsedMs).
std::string RenderReport(const std::string& id,
                         const core::RepairReport& report, double virtual_ms);
/// Emitted once per journal-recovered request on `--resume` startup.
std::string RenderResumed(const std::string& id, const std::string& state);

/// Live telemetry snapshot (`stats` frame, DESIGN.md §15). `body` is a
/// complete OpenMetrics exposition document, JSON-escaped into one
/// string field so the frame stays a single JSONL line.
std::string RenderStats(const std::string& openmetrics_body);

/// What a `statusz` frame reports: live serving state, cheap enough to
/// poll mid-chaos-run.
struct StatuszInfo {
  double uptime_virtual_ms = 0.0;  ///< daemon virtual clock (NowMs)
  int64_t queued = 0;              ///< accepted, not yet started
  int64_t inflight = 0;            ///< started, not yet finished
  int64_t accepted_total = 0;
  int64_t completed_total = 0;
  int64_t rejected_total = 0;      ///< admission rejects
  int64_t cancelled_total = 0;
  int64_t deadline_total = 0;      ///< deadline-expired completions
  int64_t requests_absorbed = 0;   ///< registries folded into the aggregate
  bool draining = false;
  bool telemetry = false;          ///< whether --telemetry is on
};

std::string RenderStatusz(const StatuszInfo& info);

// --- client -> server frames (tests, benches, future CLI client) -----------

std::string RenderRepairRequest(const RepairRequestSpec& spec);
std::string RenderCancelRequest(const std::string& id);
std::string RenderPing();
std::string RenderShutdown();
std::string RenderStatsRequest();
std::string RenderStatuszRequest();

/// FNV-1a digest over a report's generation records (target values,
/// embedding bit patterns, arm, acceptance), rendered as 16 hex digits.
/// Two runs accepted bit-identical tuples iff their digests match — the
/// chaos harness's cheap cross-process identity check.
std::string ReportDigest(const core::RepairReport& report);

/// How a finished repair is summarized on the wire.
const char* ReportStatusLabel(const core::RepairReport& report);

}  // namespace chameleon::daemon

#endif  // CHAMELEON_TOOLS_CHAMELEOND_PROTOCOL_H_
