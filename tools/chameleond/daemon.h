#ifndef CHAMELEON_TOOLS_CHAMELEOND_DAEMON_H_
#define CHAMELEON_TOOLS_CHAMELEOND_DAEMON_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/embedding/embedder.h"
#include "src/fm/corpus.h"
#include "src/fm/deadline.h"
#include "src/obs/aggregate.h"
#include "src/obs/journal.h"
#include "src/obs/virtual_clock.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"
#include "src/util/thread_pool.h"
#include "tools/chameleond/build_once.h"
#include "tools/chameleond/protocol.h"
#include "tools/chameleond/transport.h"

namespace chameleon::daemon {

/// The `micro` dataset behind DatasetKind::kMicro: a deliberately small
/// FERET-schema corpus (Middle Eastern absent entirely, Asian/Hispanic
/// thin) whose minimum-level repair runs in a fraction of a second.
/// Exposed so tests and benches can run the identical repair directly
/// against core::Chameleon and compare digests with daemon runs; the
/// daemon itself builds it once, as its micro world.
[[nodiscard]] util::Result<fm::Corpus> MakeMicroCorpus(
    const embedding::Embedder* embedder);

struct DaemonOptions {
  /// Request-journal path (streamed JSONL, append+flush per event). Empty
  /// keeps the journal in memory only — no crash tolerance.
  std::string journal_path;
  /// Admission bound: queued + running requests. At the bound, new repair
  /// frames are rejected with kResourceExhausted (fast refusal instead of
  /// latency collapse).
  int max_queue = 32;
  /// Per-client in-flight cap (keyed by the request's `client` field), so
  /// one chatty client cannot monopolize the queue.
  int max_inflight_per_client = 8;
  /// Wall milliseconds Drain waits for in-flight requests before
  /// cancelling the stragglers (which then park at their next round
  /// boundary and still deliver partial reports).
  double drain_wait_ms = 5000.0;
  /// Worker threads executing repairs; 0 = hardware concurrency.
  int num_threads = 0;
  /// Request-scoped telemetry (DESIGN.md §15): every accepted request
  /// gets its own obs::Observability tagged with the request id, its
  /// journal lines and spans are teed into the daemon journal as
  /// `req.event`/`req.span` wrapper events, and its registry is folded
  /// into the daemon-global Aggregator on completion. Off by default —
  /// the serving hot path then pays nothing beyond the SLO counters.
  bool telemetry = false;
  /// When non-empty, every `stats` frame (and the final drain) also
  /// writes the OpenMetrics snapshot to this path, so operators can
  /// scrape a file instead of speaking the frame protocol.
  std::string stats_out;
};

/// Counter snapshot; `active` must be zero after Serve returns (the
/// chaos harness's slot-leak check).
struct DaemonStats {
  int64_t frames = 0;            ///< complete frames handled
  int64_t accepted = 0;          ///< repair requests admitted
  int64_t completed = 0;         ///< repairs finished (any status)
  int64_t cancelled = 0;         ///< repairs that ended cancelled
  int64_t rejected_overload = 0; ///< kResourceExhausted refusals
  int64_t rejected_duplicate = 0;
  int64_t protocol_errors = 0;   ///< malformed/oversized/truncated frames
  int64_t resumed = 0;           ///< journal-recovered requests re-parked
  int64_t active = 0;            ///< currently queued + running
  int64_t running = 0;           ///< currently executing (subset of active)
  int64_t deadline_expired = 0;  ///< completions that hit their deadline
  /// Worlds built: at most one per dataset kind over the daemon's
  /// lifetime (a failed build is retried, and counted again).
  int64_t world_builds = 0;
};

/// The immutable starting point of every request of one dataset kind;
/// defined in daemon.cc.
struct RequestWorld;

/// The chameleond server: accepts length-prefixed JSONL frames over a
/// Transport, multiplexes repair requests onto a shared ThreadPool with
/// admission control, per-request deadlines/cancellation, a streamed
/// crash-tolerant request journal, and graceful drain. One Daemon serves
/// one connection (stdin/stdout in production); see DESIGN.md §13.
class Daemon {
 public:
  Daemon(Transport* transport, const DaemonOptions& options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Replays an existing request journal at `journal_path`: every request
  /// accepted but never finished is re-parked (announced via a `resumed`
  /// frame when Serve starts) and its id is blocked against reuse. Call
  /// before Serve; the journal is then compacted — the new stream starts
  /// fresh with `req.resumed` events carrying the recovered state.
  [[nodiscard]] util::Status Resume();

  /// Blocking serve loop: reads frames until end of stream, a `shutdown`
  /// frame, a fatal transport error, or RequestShutdown; then drains
  /// in-flight requests (up to drain_wait_ms, cancelling stragglers),
  /// finalizes the journal, and returns. Ok means a clean drain —
  /// regardless of how the loop was stopped.
  [[nodiscard]] util::Status Serve();

  /// Stops admissions and wakes the serve loop so it drains and returns.
  /// Callable from any thread. From a signal handler this is only safe
  /// over a Transport whose WakeReader is async-signal-safe (FdTransport:
  /// a no-op — the signal's EINTR already interrupts the blocked read).
  void RequestShutdown();

  DaemonStats stats() const;

 private:
  struct ResumedRequest {
    std::string id;
    std::string state;
  };

  /// Dispatches one complete frame body. Returns non-OK only when the
  /// transport write side is dead (the serve loop then drains).
  [[nodiscard]] util::Status HandleFrame(const std::string& payload);

  /// Admission control: duplicate-id, queue-bound, and per-client checks;
  /// on success journals `req.accepted` and hands the request to the
  /// pool. kResourceExhausted signals overload to the client.
  [[nodiscard]] util::Status Submit(const RepairRequestSpec& spec);

  /// Marks the request's Deadline cancelled; the repair parks at its next
  /// round boundary and reports a partial result.
  [[nodiscard]] util::Status Cancel(const std::string& id);

  /// Stops admissions and waits for in-flight requests: up to
  /// drain_wait_ms for a voluntary finish, then cancels the stragglers
  /// and waits for them to park.
  [[nodiscard]] util::Status Drain();

  /// What a request's worker body got done, kept outside it so a throw
  /// midway still leaves the slot release correct.
  struct RequestOutcome {
    bool ended = false;  ///< req.end is journaled
    bool cancelled = false;
    bool deadline_expired = false;
  };

  /// Worker body: takes the dataset's shared world, copies its corpus
  /// and builds the per-request model stack (its own simulator, fault
  /// injector, resilience decorator, and Deadline — nothing mutable is
  /// shared with another request), runs the repair, journals the outcome,
  /// and sends the report frame.
  void RunRequest(const RepairRequestSpec& spec,
                  const std::shared_ptr<fm::Deadline>& deadline,
                  RequestOutcome* outcome);

  /// Answers a request whose worker body threw: journals req.end failed
  /// (or req.error, when req.end was already journaled) and sends an
  /// Internal error frame with the request id. Never throws.
  void FailRequest(const RepairRequestSpec& spec, const std::string& what,
                   const RequestOutcome& outcome);

  /// Frees the request's admission slot and wakes Drain; runs once per
  /// admitted request, however its worker body ended.
  void ReleaseSlot(const RepairRequestSpec& spec,
                   const RequestOutcome& outcome);

  /// The shared world of `kind`, built on the first request of that kind
  /// (concurrent first requests wait on one build).
  [[nodiscard]] util::Result<std::shared_ptr<const RequestWorld>> AcquireWorld(
      DatasetKind kind);

  /// Serialized frame write; after the first failure every send fails
  /// fast (the peer is gone, but draining must still finish).
  [[nodiscard]] util::Status SendFrame(const std::string& payload);

  /// Renders the aggregator's current total + windowed views as one
  /// OpenMetrics document (what a `stats` frame returns).
  std::string ScrapeOpenMetrics();

  /// Assembles the live serving summary a `statusz` frame returns.
  StatuszInfo CollectStatusz();

  /// Writes the OpenMetrics snapshot to options_.stats_out (no-op when
  /// unset); failures are journaled, never fatal.
  void WriteStatsSnapshot();

  Transport* transport_;
  DaemonOptions options_;

  obs::VirtualClock clock_;
  obs::Journal journal_;
  /// Daemon-global telemetry rollup (DESIGN.md §15). Self-synchronized;
  /// when both are needed the lock order is state_mutex_ before the
  /// aggregator's internal mutex (CollectStatusz), never the reverse.
  obs::Aggregator aggregator_;

  std::atomic<bool> shutdown_{false};

  mutable std::mutex state_mutex_;
  std::condition_variable drain_cv_;
  DaemonStats stats_ CHAMELEON_GUARDED_BY(state_mutex_);
  bool draining_ CHAMELEON_GUARDED_BY(state_mutex_) = false;
  std::set<std::string> seen_ids_ CHAMELEON_GUARDED_BY(state_mutex_);
  std::map<std::string, int> inflight_by_client_
      CHAMELEON_GUARDED_BY(state_mutex_);
  std::map<std::string, std::shared_ptr<fm::Deadline>> active_
      CHAMELEON_GUARDED_BY(state_mutex_);

  std::mutex write_mutex_;
  bool write_failed_ CHAMELEON_GUARDED_BY(write_mutex_) = false;

  /// One world per dataset kind (DESIGN.md §13), in process memory
  /// only. A world is a pure function of its kind, so an entry is valid
  /// for every later request, and a resumed daemon simply rebuilds it.
  /// Self-synchronized, separately from state_mutex_, so a world build
  /// never stalls admission control.
  BuildOnceMap<DatasetKind, RequestWorld> worlds_;

  std::vector<ResumedRequest> resumed_;

  /// Declared last: its destructor runs queued work to completion before
  /// any other member (journal, maps) is torn down.
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace chameleon::daemon

#endif  // CHAMELEON_TOOLS_CHAMELEOND_DAEMON_H_
