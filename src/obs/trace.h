#ifndef CHAMELEON_OBS_TRACE_H_
#define CHAMELEON_OBS_TRACE_H_

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/virtual_clock.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace chameleon::obs {

class Tracer;

/// One completed (or still-open) span. `start_tick`/`end_tick` come from
/// the shared VirtualClock event counter, and `start_ms`/`end_ms` from
/// its virtual-millisecond axis — never from a wall clock, so traces of
/// the same seeded run are bit-identical at every thread count.
struct SpanRecord {
  int64_t id = 0;         // 1-based, in start order
  int64_t parent_id = 0;  // 0 = root span
  int depth = 0;          // root = 0
  std::string name;
  uint64_t start_tick = 0;
  uint64_t end_tick = 0;  // 0 while the span is open
  double start_ms = 0.0;
  double end_ms = 0.0;
};

/// RAII handle returned by Tracer::StartSpan: ends the span on
/// destruction (or at an explicit End()). Movable, not copyable.
/// Discarding the returned Span ends it immediately, so the class is
/// [[nodiscard]] and a discarded StartSpan call fails the -Werror build.
class [[nodiscard]] Span {
 public:
  Span(Span&& other) noexcept : tracer_(other.tracer_), id_(other.id_) {
    other.tracer_ = nullptr;
  }
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { End(); }

  /// Ends the span (idempotent; a moved-from Span is a no-op).
  void End();

  int64_t id() const { return id_; }

 private:
  friend class Tracer;
  Span(Tracer* tracer, int64_t id) : tracer_(tracer), id_(id) {}

  Tracer* tracer_;
  int64_t id_;
};

/// Records a tree of named spans over the virtual clock. Parentage is
/// the innermost span still open at StartSpan time, which matches the
/// pipeline's usage: spans open and close on the serial
/// submission/merge path only, so nesting, order and tick stamps are
/// deterministic. Thread-safe (one mutex around the span table) so a
/// stray span from a worker cannot corrupt the trace — but such spans
/// are not part of the determinism contract.
class Tracer {
 public:
  explicit Tracer(VirtualClock* clock) : clock_(clock) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  Span StartSpan(const std::string& name);

  /// Stamps every rendered span line with `"rid":"<id>"` (leading field),
  /// mirroring Journal::set_request_id: one combined trace file can then
  /// carry spans from many concurrent requests without colliding span
  /// ids. Empty (the default) renders byte-identically to the run-scoped
  /// format.
  void set_request_id(const std::string& request_id);
  std::string request_id() const;

  /// Installs a live tee: `sink` receives each span record the moment it
  /// ends (under the tracer mutex, so sinks observe spans in end order).
  /// Pass an empty function to detach.
  void SetSpanSink(std::function<void(const SpanRecord&)> sink);

  /// All spans in start order (open spans have end_tick == 0).
  std::vector<SpanRecord> Spans() const;

  size_t num_open() const;

  /// One JSON object per span, one per line (JSONL), in start order.
  std::string ToJsonl() const;

  /// Writes ToJsonl() to `path`.
  [[nodiscard]] util::Status Write(const std::string& path) const;

  /// Opens `path` and appends each span as one flushed line the moment
  /// it *ends* (a span's record is only complete then), so a killed run
  /// leaves every finished span on disk. Spans that already ended are
  /// written immediately; spans still open when the process dies are
  /// lost — the price of the append-only format. Note the streamed file
  /// is therefore in end order, not the start order Write() uses.
  [[nodiscard]] util::Status StreamTo(const std::string& path);

  /// Flushes and closes the streaming sink; reports any pending write
  /// error. No-op when not streaming.
  [[nodiscard]] util::Status CloseStream();

  bool streaming() const;

 private:
  friend class Span;
  void EndSpan(int64_t id);

  VirtualClock* clock_;
  mutable std::mutex mutex_;
  // index = id - 1
  std::vector<SpanRecord> spans_ CHAMELEON_GUARDED_BY(mutex_);
  // ids of open spans, outermost first
  std::vector<int64_t> stack_ CHAMELEON_GUARDED_BY(mutex_);
  std::string request_id_ CHAMELEON_GUARDED_BY(mutex_);
  std::function<void(const SpanRecord&)> span_sink_
      CHAMELEON_GUARDED_BY(mutex_);
  std::unique_ptr<std::ofstream> stream_ CHAMELEON_GUARDED_BY(mutex_);
  std::string stream_path_ CHAMELEON_GUARDED_BY(mutex_);
};

/// The single-line JSONL rendering shared by Write and StreamTo.
std::string SpanToJson(const SpanRecord& span);

/// Request-scoped rendering: a non-empty `request_id` prepends a
/// `"rid"` field; empty is byte-identical to SpanToJson(span).
std::string SpanToJson(const SpanRecord& span, const std::string& request_id);

}  // namespace chameleon::obs

#endif  // CHAMELEON_OBS_TRACE_H_
