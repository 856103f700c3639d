#include "tools/chameleond/daemon.h"

#include <chrono>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "src/core/chameleon.h"
#include "src/data/dataset.h"
#include "src/datasets/feret.h"
#include "src/datasets/synthetic_corpus.h"
#include "src/datasets/utkface.h"
#include "src/embedding/simulated_embedder.h"
#include "src/fm/corpus.h"
#include "src/fm/evaluator_pool.h"
#include "src/fm/flaky_foundation_model.h"
#include "src/fm/simulated_foundation_model.h"
#include "src/obs/export.h"
#include "src/obs/observability.h"
#include "src/obs/trace.h"
#include "src/util/rng.h"
#include "tools/chameleond/frame.h"
#include "tools/obsctl/json.h"

namespace chameleon::daemon {

/// A dataset's rendered corpus (with embeddings and realism) plus the
/// simulator's style/scene hooks for that corpus's schema. A pure function
/// of the dataset kind, so the daemon builds one per kind and every
/// request repairs a copy of its corpus (DESIGN.md §13).
struct RequestWorld {
  fm::Corpus corpus;
  fm::FaceStyleFn style;
  image::SceneStyle scene;
};

/// Middle Eastern is absent entirely and Hispanic/Asian are thin,
/// mirroring the paper's FERET skew in miniature. Built from a fixed
/// seed, so every build — the daemon's one per lifetime, or a test's
/// direct run — yields a bit-identical corpus.
util::Result<fm::Corpus> MakeMicroCorpus(const embedding::Embedder* embedder) {
  fm::Corpus corpus;
  corpus.dataset = data::Dataset(datasets::FeretSchema());
  datasets::RenderSpec spec;
  spec.image_size = 24;
  const datasets::CombinationCounts counts = {
      {{0, datasets::kFeretWhite}, 30},    {{1, datasets::kFeretWhite}, 30},
      {{0, datasets::kFeretBlack}, 12},    {{1, datasets::kFeretBlack}, 12},
      {{0, datasets::kFeretAsian}, 5},     {{1, datasets::kFeretAsian}, 5},
      {{0, datasets::kFeretHispanic}, 3},  {{1, datasets::kFeretHispanic}, 3},
  };
  util::Rng rng(4242);
  CHAMELEON_RETURN_NOT_OK(datasets::FillCorpus(
      &corpus, counts, datasets::FeretFaceStyleFn(), datasets::FeretScene(),
      embedder, spec, &rng));
  return corpus;
}

namespace {

/// Builds the world of `kind`. The embedder is deterministic, so the
/// embeddings made here equal those any request's own embedder would make.
util::Result<std::shared_ptr<const RequestWorld>> BuildWorld(
    DatasetKind kind) {
  const embedding::SimulatedEmbedder embedder;
  auto world = std::make_shared<RequestWorld>();
  switch (kind) {
    case DatasetKind::kMicro: {
      auto corpus = MakeMicroCorpus(&embedder);
      if (!corpus.ok()) return corpus.status();
      world->corpus = *std::move(corpus);
      world->style = datasets::FeretFaceStyleFn();
      world->scene = datasets::FeretScene();
      return std::shared_ptr<const RequestWorld>(std::move(world));
    }
    case DatasetKind::kFeret: {
      auto corpus = datasets::MakeFeret(&embedder, datasets::FeretOptions());
      if (!corpus.ok()) return corpus.status();
      world->corpus = *std::move(corpus);
      world->style = datasets::FeretFaceStyleFn();
      world->scene = datasets::FeretScene();
      return std::shared_ptr<const RequestWorld>(std::move(world));
    }
    case DatasetKind::kUtkFace: {
      // The §6.4.1 challenge subset with payloads: big enough to be a
      // real repair, small enough for a serving deadline to matter.
      datasets::ChallengeOptions options;
      options.render.image_size = 32;
      auto corpus = datasets::MakeUtkFaceChallengeSubset(&embedder, options);
      if (!corpus.ok()) return corpus.status();
      world->corpus = *std::move(corpus);
      world->style = datasets::UtkFaceStyleFn();
      world->scene = datasets::UtkFaceScene();
      return std::shared_ptr<const RequestWorld>(std::move(world));
    }
  }
  return util::Status::InvalidArgument("unknown dataset kind");
}

/// One request's pipeline: a copy of the base corpus (RepairMinLevelMups
/// appends accepted tuples to it), its own simulator, optional fault
/// injector, resilience decorator, embedder and evaluators, and the repair
/// itself. Nothing mutable here is shared with any other request — the
/// structural form of per-request breaker/clock isolation. `world` is
/// shared but immutable.
util::Result<core::RepairReport> ExecuteRepair(const RepairRequestSpec& spec,
                                               const RequestWorld& world,
                                               fm::Deadline* deadline,
                                               obs::Observability* obs) {
  embedding::SimulatedEmbedder embedder;
  fm::EvaluatorPool evaluators(2024);
  fm::Corpus corpus = world.corpus;

  fm::SimulatedFoundationModel sim(corpus.dataset.schema(), world.style,
                                   world.scene,
                                   fm::SimulatedFoundationModel::Options());
  std::unique_ptr<fm::FlakyFoundationModel> flaky;
  fm::FoundationModel* stack = &sim;
  if (spec.has_faults) {
    flaky = std::make_unique<fm::FlakyFoundationModel>(&sim, spec.faults);
    stack = flaky.get();
  }
  fm::ResilientFoundationModel resilient(stack, spec.resilience);

  core::ChameleonOptions options;
  options.tau = spec.tau;
  options.seed = spec.seed;
  options.max_queries = spec.max_queries;
  options.rejection_batch = spec.rejection_batch;
  options.num_threads = spec.num_threads;
  options.deadline = deadline;
  options.observability = obs;  // null = telemetry off, zero overhead
  core::Chameleon system(&resilient, &embedder, &evaluators, options);
  return system.RepairMinLevelMups(&corpus);
}

}  // namespace

Daemon::Daemon(Transport* transport, const DaemonOptions& options)
    : transport_(transport),
      options_(options),
      journal_(&clock_),
      pool_(std::make_unique<util::ThreadPool>(
          util::ThreadPool::ResolveThreadCount(options.num_threads))) {}

Daemon::~Daemon() = default;

DaemonStats Daemon::stats() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return stats_;
}

void Daemon::RequestShutdown() {
  shutdown_.store(true, std::memory_order_release);
  transport_->WakeReader();
}

util::Status Daemon::SendFrame(const std::string& payload) {
  std::lock_guard<std::mutex> lock(write_mutex_);
  if (write_failed_) {
    return util::Status::Unavailable("transport writer already failed");
  }
  util::Status status = WriteFrame(transport_, payload);
  if (!status.ok()) write_failed_ = true;
  return status;
}

util::Status Daemon::Resume() {
  if (options_.journal_path.empty()) return util::Status::Ok();
  std::ifstream in(options_.journal_path);
  if (!in.is_open()) return util::Status::Ok();  // nothing to resume

  std::vector<std::string> accepted_order;
  std::set<std::string> accepted;
  std::set<std::string> finished;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto event = obsctl::ParseJson(line);
    // A killed daemon leaves a ragged final line; everything before it
    // is trustworthy, the tail is not — stop there.
    if (!event.ok() || !event->is_object()) break;
    const std::string type = event->StringOr("type", "");
    const std::string id = event->StringOr("id", "");
    if (id.empty()) continue;
    if (type == "req.accepted") {
      if (accepted.insert(id).second) accepted_order.push_back(id);
    } else if (type == "req.end" || type == "req.resumed") {
      // req.resumed is terminal too: a request re-parked by an earlier
      // resume already reported its last-known state.
      finished.insert(id);
    }
  }

  std::lock_guard<std::mutex> lock(state_mutex_);
  for (const std::string& id : accepted_order) {
    seen_ids_.insert(id);  // ids stay burned across restarts
    if (finished.count(id) > 0) continue;
    resumed_.push_back({id, "re-parked"});
    ++stats_.resumed;
  }
  for (const std::string& id : finished) seen_ids_.insert(id);
  return util::Status::Ok();
}

util::Status Daemon::Serve() {
  journal_.Record(obs::JournalEvent("daemon.start")
                      .Set("max_queue", options_.max_queue)
                      .Set("max_inflight_per_client",
                           options_.max_inflight_per_client)
                      .Set("resumed", resumed_.size()));
  if (!options_.journal_path.empty()) {
    // Opens (and truncates) the stream: the pre-recorded backlog —
    // daemon.start and, on --resume, the req.resumed compaction below —
    // is flushed immediately, then every Record appends one flushed line.
    CHAMELEON_RETURN_NOT_OK(journal_.StreamTo(options_.journal_path));
  }
  for (const ResumedRequest& request : resumed_) {
    journal_.Record(obs::JournalEvent("req.resumed")
                        .Set("id", request.id)
                        .Set("state", request.state));
    util::Status sent = SendFrame(RenderResumed(request.id, request.state));
    if (!sent.ok()) break;  // peer gone already; keep serving the journal
  }

  const auto should_stop = [this] {
    return shutdown_.load(std::memory_order_acquire);
  };
  while (!should_stop()) {
    FrameReadResult frame = ReadFrame(transport_, should_stop);
    bool stop = false;
    switch (frame.kind) {
      case FrameReadResult::Kind::kFrame: {
        util::Status handled = HandleFrame(frame.payload);
        if (!handled.ok()) stop = true;  // write side is dead: drain out
        break;
      }
      case FrameReadResult::Kind::kEof:
        stop = true;
        break;
      case FrameReadResult::Kind::kInterrupted:
        break;  // the loop condition re-checks the shutdown flag
      case FrameReadResult::Kind::kTruncated: {
        {
          std::lock_guard<std::mutex> lock(state_mutex_);
          ++stats_.protocol_errors;
        }
        journal_.Record(obs::JournalEvent("proto.truncated")
                            .Set("detail", frame.status.message()));
        // The read side tore mid-frame (torn write / killed peer): no
        // resync point exists, so report it while the write side lasts
        // and treat the connection as disconnected.
        util::Status sent = SendFrame(RenderError(
            "", util::StatusCode::kInvalidArgument, frame.status.message()));
        static_cast<void>(sent);  // draining anyway
        stop = true;
        break;
      }
      case FrameReadResult::Kind::kOversized: {
        {
          std::lock_guard<std::mutex> lock(state_mutex_);
          ++stats_.protocol_errors;
        }
        journal_.Record(obs::JournalEvent("proto.oversized")
                            .Set("declared", int64_t{frame.declared_size}));
        util::Status sent = SendFrame(RenderError(
            "", util::StatusCode::kInvalidArgument,
            "frame of " + std::to_string(frame.declared_size) +
                " bytes exceeds the 1 MiB payload bound"));
        if (!sent.ok()) stop = true;
        break;
      }
      case FrameReadResult::Kind::kError:
        journal_.Record(obs::JournalEvent("io.error")
                            .Set("detail", frame.status.message()));
        stop = true;
        break;
    }
    if (stop) break;
  }

  util::Status drained = Drain();
  util::Status closed = journal_.CloseStream();
  CHAMELEON_RETURN_NOT_OK(drained);
  return closed;
}

util::Status Daemon::HandleFrame(const std::string& payload) {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++stats_.frames;
  }
  auto frame = ParseRequestFrame(payload);
  if (!frame.ok()) {
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      ++stats_.protocol_errors;
    }
    journal_.Record(obs::JournalEvent("proto.error")
                        .Set("detail", frame.status().message()));
    return SendFrame(RenderError(FrameIdOf(payload), frame.status().code(),
                                 frame.status().message()));
  }
  switch (frame->kind) {
    case FrameKind::kPing:
      return SendFrame(RenderPong());
    case FrameKind::kShutdown:
      shutdown_.store(true, std::memory_order_release);
      return SendFrame(RenderAck("shutdown"));
    case FrameKind::kCancel: {
      util::Status cancelled = Cancel(frame->id);
      return SendFrame(cancelled.ok()
                           ? RenderAck(frame->id)
                           : RenderError(frame->id, cancelled.code(),
                                         cancelled.message()));
    }
    case FrameKind::kRepair: {
      util::Status admitted = Submit(frame->spec);
      return SendFrame(admitted.ok()
                           ? RenderAck(frame->spec.id)
                           : RenderError(frame->spec.id, admitted.code(),
                                         admitted.message()));
    }
    case FrameKind::kStats: {
      // Served from the aggregator's live state — in-flight requests are
      // mid-absorb by definition, so the snapshot covers every request
      // that *finished* before the scrape (the scrape contract).
      const std::string body = ScrapeOpenMetrics();
      WriteStatsSnapshot();
      return SendFrame(RenderStats(body));
    }
    case FrameKind::kStatusz:
      return SendFrame(RenderStatusz(CollectStatusz()));
  }
  return util::Status::Internal("unhandled frame kind");
}

util::Status Daemon::Submit(const RepairRequestSpec& spec) {
  auto deadline = spec.deadline_ms > 0.0
                      ? std::make_shared<fm::Deadline>(spec.deadline_ms)
                      : std::make_shared<fm::Deadline>();
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (draining_) {
      return util::Status::Unavailable(
          "daemon is draining: admissions are closed");
    }
    if (seen_ids_.count(spec.id) > 0) {
      ++stats_.rejected_duplicate;
      return util::Status::InvalidArgument("duplicate request id '" +
                                           spec.id + "'");
    }
    if (stats_.active >= options_.max_queue) {
      ++stats_.rejected_overload;
      aggregator_.AddCounter("daemon.slo.admission_reject", 1,
                             clock_.NowMs());
      return util::Status::ResourceExhausted(
          "request queue is full (" + std::to_string(options_.max_queue) +
          " in flight); retry with backoff");
    }
    int& inflight = inflight_by_client_[spec.client];
    if (inflight >= options_.max_inflight_per_client) {
      ++stats_.rejected_overload;
      aggregator_.AddCounter("daemon.slo.admission_reject", 1,
                             clock_.NowMs());
      return util::Status::ResourceExhausted(
          "client '" + spec.client + "' is at its in-flight cap (" +
          std::to_string(options_.max_inflight_per_client) + ")");
    }
    ++inflight;
    seen_ids_.insert(spec.id);
    active_[spec.id] = deadline;
    ++stats_.active;
    ++stats_.accepted;
  }
  // Journaled before the ack goes out: a daemon killed after this line
  // re-parks the request on --resume; one killed before it never
  // acknowledged, so the client retries against a fresh id space.
  journal_.Record(obs::JournalEvent("req.accepted")
                      .Set("id", spec.id)
                      .Set("client", spec.client)
                      .Set("dataset", DatasetKindName(spec.dataset))
                      .Set("tau", spec.tau)
                      .Set("seed", static_cast<int64_t>(spec.seed))
                      .Set("deadline_ms", spec.deadline_ms));
  static_cast<void>(pool_->Submit([this, spec, deadline] {
    // The pool's future is discarded, so a throw must stop here: escaping
    // the task, it would leave the client without an answer and the slot
    // taken, and Drain would wait for it forever.
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      ++stats_.running;
    }
    RequestOutcome outcome;
    try {
      RunRequest(spec, deadline, &outcome);
    } catch (const std::exception& e) {
      FailRequest(spec, e.what(), outcome);
    } catch (...) {
      FailRequest(spec, "unknown exception", outcome);
    }
    ReleaseSlot(spec, outcome);
  }));
  return util::Status::Ok();
}

util::Status Daemon::Cancel(const std::string& id) {
  std::shared_ptr<fm::Deadline> deadline;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    auto it = active_.find(id);
    if (it == active_.end()) {
      return util::Status::NotFound("request '" + id +
                                    "' is unknown or already finished");
    }
    deadline = it->second;
  }
  deadline->MarkCancelled();
  journal_.Record(obs::JournalEvent("req.cancel").Set("id", id));
  return util::Status::Ok();
}

void Daemon::RunRequest(const RepairRequestSpec& spec,
                        const std::shared_ptr<fm::Deadline>& deadline,
                        RequestOutcome* outcome) {
  journal_.Record(obs::JournalEvent("req.start").Set("id", spec.id));

  // Request-scoped telemetry (DESIGN.md §15): the request runs against
  // its own Observability — own VirtualClock, registry, journal, tracer —
  // tagged with the wire id. Its artifacts are therefore byte-identical
  // to a standalone `chameleon_cli --request-id=<id>` run of the same
  // config; the daemon merely *wraps* each line into its own journal
  // (`req.event`/`req.span`), preserving the original bytes inside the
  // `line` field. Lock order: request-journal mutex, then daemon-journal
  // mutex — never the reverse.
  std::optional<obs::Observability> request_obs;
  if (options_.telemetry) {
    request_obs.emplace();
    request_obs->set_request_id(spec.id);
    request_obs->journal.SetLineSink([this, &spec](const std::string& line) {
      journal_.Record(obs::JournalEvent("req.event")
                          .Set("rid", spec.id)
                          .Set("line", line));
    });
    request_obs->tracer.SetSpanSink([this, &spec](const obs::SpanRecord& span) {
      journal_.Record(obs::JournalEvent("req.span")
                          .Set("rid", spec.id)
                          .Set("line", obs::SpanToJson(span, spec.id)));
    });
  }

  // The first request of a dataset kind builds its world (later ones
  // share it); the repair itself runs on a per-request copy.
  auto world = AcquireWorld(spec.dataset);
  auto report =
      world.ok() ? ExecuteRepair(spec, **world, deadline.get(),
                                 request_obs.has_value() ? &*request_obs
                                                         : nullptr)
                 : util::Result<core::RepairReport>(world.status());

  // The daemon's own virtual clock advances by each request's consumed
  // virtual time, so aggregator windows measure served virtual load.
  clock_.AdvanceMs(deadline->ElapsedMs());
  const double now_ms = clock_.NowMs();
  if (request_obs.has_value()) {
    aggregator_.Absorb(request_obs->registry, now_ms);
  }
  if (report.ok()) {
    if (report->deadline_expired) {
      aggregator_.AddCounter("daemon.slo.deadline_miss", 1, now_ms);
    }
    if (report->faults.parked_entries() > 0) {
      aggregator_.AddCounter("daemon.slo.parked_rounds",
                             report->faults.parked_entries(), now_ms);
    }
  }

  // Journal + respond before releasing the slot: Drain closes the
  // journal stream only once every slot is free, so req.end always makes
  // it to disk, and a resumed daemon never re-parks a finished request.
  if (report.ok()) {
    outcome->cancelled = report->cancelled;
    outcome->deadline_expired = report->deadline_expired;
    journal_.Record(obs::JournalEvent("req.end")
                        .Set("id", spec.id)
                        .Set("status", ReportStatusLabel(*report))
                        .Set("accepted", report->accepted)
                        .Set("queries", report->queries)
                        .Set("parked", report->faults.parked_entries())
                        .Set("digest", ReportDigest(*report)));
    outcome->ended = true;
    util::Status sent =
        SendFrame(RenderReport(spec.id, *report, deadline->ElapsedMs()));
    static_cast<void>(sent);  // peer may be gone; the journal has it
  } else {
    journal_.Record(obs::JournalEvent("req.end")
                        .Set("id", spec.id)
                        .Set("status", "failed")
                        .Set("code",
                             util::StatusCodeName(report.status().code())));
    outcome->ended = true;
    util::Status sent = SendFrame(RenderError(spec.id, report.status().code(),
                                              report.status().message()));
    static_cast<void>(sent);
  }
}

void Daemon::FailRequest(const RepairRequestSpec& spec,
                         const std::string& what,
                         const RequestOutcome& outcome) {
  try {
    const std::string message = "repair threw: " + what;
    // A throw after req.end (the report's write) leaves the journaled
    // outcome standing and records what the client was told instead.
    obs::JournalEvent event(outcome.ended ? "req.error" : "req.end");
    event.Set("id", spec.id);
    if (!outcome.ended) {
      event.Set("status", "failed")
          .Set("code", util::StatusCodeName(util::StatusCode::kInternal));
    }
    journal_.Record(event.Set("detail", message));
    util::Status sent = SendFrame(
        RenderError(spec.id, util::StatusCode::kInternal, message));
    static_cast<void>(sent);  // peer may be gone; the journal has it
  } catch (...) {
    // Nothing more can be reported; the caller still frees the slot.
  }
}

void Daemon::ReleaseSlot(const RepairRequestSpec& spec,
                         const RequestOutcome& outcome) {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    active_.erase(spec.id);
    auto it = inflight_by_client_.find(spec.client);
    if (it != inflight_by_client_.end() && --it->second <= 0) {
      inflight_by_client_.erase(it);
    }
    --stats_.active;
    --stats_.running;
    ++stats_.completed;
    if (outcome.cancelled) ++stats_.cancelled;
    if (outcome.deadline_expired) ++stats_.deadline_expired;
  }
  drain_cv_.notify_all();
}

util::Result<std::shared_ptr<const RequestWorld>> Daemon::AcquireWorld(
    DatasetKind kind) {
  bool built = false;
  auto world =
      worlds_.GetOrBuild(kind, [kind] { return BuildWorld(kind); }, &built);
  if (built) {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++stats_.world_builds;
  }
  return world;
}

util::Status Daemon::Drain() {
  int64_t active_at_drain;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    draining_ = true;
    active_at_drain = stats_.active;
  }
  journal_.Record(
      obs::JournalEvent("daemon.drain").Set("active", active_at_drain));

  std::unique_lock<std::mutex> lock(state_mutex_);
  const bool voluntary = drain_cv_.wait_for(
      lock, std::chrono::duration<double, std::milli>(options_.drain_wait_ms),
      [this] { return stats_.active == 0; });
  if (!voluntary) {
    // Past the drain deadline: cancel the stragglers. They park at their
    // next round boundary and still journal req.end + send a partial
    // report, so this wait is short and bounded by one round.
    for (auto& [id, deadline] : active_) deadline->MarkCancelled();
    drain_cv_.wait(lock, [this] { return stats_.active == 0; });
  }
  lock.unlock();

  WriteStatsSnapshot();
  journal_.Record(obs::JournalEvent("daemon.exit")
                      .Set("forced", !voluntary)
                      .Set("drained", active_at_drain));
  return util::Status::Ok();
}

std::string Daemon::ScrapeOpenMetrics() {
  return obs::ExportOpenMetrics(aggregator_.Scrape(clock_.NowMs()));
}

StatuszInfo Daemon::CollectStatusz() {
  StatuszInfo info;
  info.uptime_virtual_ms = clock_.NowMs();
  info.telemetry = options_.telemetry;
  info.requests_absorbed = aggregator_.absorbed();
  std::lock_guard<std::mutex> lock(state_mutex_);
  info.queued = stats_.active - stats_.running;
  info.inflight = stats_.running;
  info.accepted_total = stats_.accepted;
  info.completed_total = stats_.completed;
  info.rejected_total = stats_.rejected_overload;
  info.cancelled_total = stats_.cancelled;
  info.deadline_total = stats_.deadline_expired;
  info.draining = draining_;
  return info;
}

void Daemon::WriteStatsSnapshot() {
  if (options_.stats_out.empty()) return;
  std::ofstream out(options_.stats_out);
  if (out) out << ScrapeOpenMetrics();
  out.close();
  if (!out) {
    journal_.Record(obs::JournalEvent("io.error")
                        .Set("detail",
                             "failed writing stats snapshot: " +
                                 options_.stats_out));
  }
}

}  // namespace chameleon::daemon
