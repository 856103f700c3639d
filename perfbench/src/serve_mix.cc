// serve-mix: open loop against the chameleond binary, run as a child
// process over one stdin/stdout connection, with one sender thread and
// one receiver thread. Poisson arrivals step through three fixed rates,
// taking turns in short windows; the request mix and schedule come only
// from the workload seed.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common.h"
#include "src/replay.h"
#include "src/schedule.h"
#include "src/stats.h"
#include "src/util/thread_pool.h"
#include "src/workloads.h"
#include "tools/chameleond/frame.h"
#include "tools/chameleond/protocol.h"
#include "tools/chameleond/transport.h"
#include "tools/obsctl/json.h"

extern char** environ;

namespace perfbench {
namespace {

namespace daemon = chameleon::daemon;
using chameleon::obsctl::JsonValue;
using chameleon::util::Result;
using chameleon::util::Status;

constexpr int kSetupsBefore = 5;
constexpr int kSetupsAfter = 6;
/// statusz polling period of the traced run.
constexpr double kPollMs = 100.0;
/// A rate step is invalid when the generator's p99 lateness exceeds this.
constexpr double kMaxLateMs = 25.0;
/// How long after the last due time the run waits for missing reports.
constexpr double kCompletionTimeoutMs = 60000.0;

struct Received {
  double at_ms = 0.0;  ///< receipt time, from the session epoch
  JsonValue frame;
};

/// One chameleond child process and its receiver thread.
class DaemonSession {
 public:
  DaemonSession(const DaemonSession&) = delete;
  DaemonSession& operator=(const DaemonSession&) = delete;

  static Result<std::unique_ptr<DaemonSession>> Start(const std::string& path,
                                                      int threads,
                                                      Clock::time_point epoch) {
    int to_child[2];
    int from_child[2];
    if (pipe2(to_child, O_CLOEXEC) != 0) return Status::Internal("pipe2");
    if (pipe2(from_child, O_CLOEXEC) != 0) {
      close(to_child[0]);
      close(to_child[1]);
      return Status::Internal("pipe2");
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, to_child[0], 0);
    posix_spawn_file_actions_adddup2(&actions, from_child[1], 1);
    const std::string threads_flag = "--threads=" + std::to_string(threads);
    std::vector<char*> argv = {const_cast<char*>(path.c_str()),
                               const_cast<char*>(threads_flag.c_str()), nullptr};
    pid_t pid = -1;
    const int spawned = posix_spawn(&pid, path.c_str(), &actions, nullptr,
                                    argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(to_child[0]);
    close(from_child[1]);
    if (spawned != 0) {
      close(to_child[1]);
      close(from_child[0]);
      return Status::Unavailable("cannot start " + path);
    }
    return std::unique_ptr<DaemonSession>(
        new DaemonSession(pid, to_child[1], from_child[0], epoch));
  }

  ~DaemonSession() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      CloseInput();
      if (receiver_.joinable()) receiver_.join();
      waitpid(pid_, nullptr, 0);
    } else if (receiver_.joinable()) {
      receiver_.join();
    }
    if (from_child_ >= 0) close(from_child_);
  }

  [[nodiscard]] Status Send(const std::string& payload) {
    std::lock_guard<std::mutex> lock(write_mutex_);
    daemon::FdTransport transport(-1, to_child_);
    return daemon::WriteFrame(&transport, payload);
  }

  /// Waits until `count` report/error frames carrying an id arrived.
  bool WaitForTerminal(int64_t count, double timeout_ms) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::duration<double, std::milli>(timeout_ms),
                        [&] { return terminal_ >= count || eof_; }) &&
           terminal_ >= count;
  }

  std::vector<Received> TakeFrames() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(frames_);
  }

  /// Asks for a graceful shutdown and waits for the child; returns its
  /// peak resident set in MB. Kills it after `timeout_ms`.
  Result<double> Shutdown(double timeout_ms) {
    static_cast<void>(Send(daemon::RenderShutdown()));
    CloseInput();
    const Clock::time_point start = Clock::now();
    int status = 0;
    struct rusage usage {};
    while (true) {
      const pid_t done = wait4(pid_, &status, WNOHANG, &usage);
      if (done == pid_) break;
      if (MsSince(start) > timeout_ms) {
        kill(pid_, SIGKILL);
        wait4(pid_, &status, 0, &usage);
        pid_ = -1;
        if (receiver_.joinable()) receiver_.join();
        return Status::DeadlineExceeded("chameleond did not drain in time");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    if (receiver_.joinable()) receiver_.join();
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      return Status::Internal("chameleond exited abnormally");
    }
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }

 private:
  DaemonSession(pid_t pid, int to_child, int from_child, Clock::time_point epoch)
      : pid_(pid), to_child_(to_child), from_child_(from_child), epoch_(epoch) {
    receiver_ = std::thread([this] { Receive(); });
  }

  void CloseInput() {
    std::lock_guard<std::mutex> lock(write_mutex_);
    if (to_child_ >= 0) close(to_child_);
    to_child_ = -1;
  }

  void Receive() {
    daemon::FdTransport transport(from_child_, -1);
    while (true) {
      daemon::FrameReadResult read = daemon::ReadFrame(&transport);
      if (read.kind == daemon::FrameReadResult::Kind::kInterrupted) continue;
      if (read.kind != daemon::FrameReadResult::Kind::kFrame) break;
      const double at_ms = MsSince(epoch_);
      auto frame = chameleon::obsctl::ParseJson(read.payload);
      if (!frame.ok()) continue;
      const std::string type = frame->StringOr("type", "");
      const bool terminal = (type == "report" || type == "error") &&
                            !frame->StringOr("id", "").empty();
      std::lock_guard<std::mutex> lock(mutex_);
      frames_.push_back({at_ms, *std::move(frame)});
      if (terminal) ++terminal_;
      cv_.notify_all();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    eof_ = true;
    cv_.notify_all();
  }

  pid_t pid_;
  std::mutex write_mutex_;
  int to_child_;
  int from_child_;
  Clock::time_point epoch_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Received> frames_;
  int64_t terminal_ = 0;
  bool eof_ = false;
  /// Declared last: it reads every member above.
  std::thread receiver_;
};

/// What the load generator learned about one request.
struct RequestRecord {
  double due_ms = 0.0;
  double sent_ms = -1.0;
  double done_ms = -1.0;
  bool error = false;  ///< an error frame, admission refusals included
  bool digest_ok = false;
  bool resolved = false;
  int64_t accepted = 0;
  int64_t queries = 0;
};

struct StatuszSample {
  double at_ms = 0.0;
  double queued = 0.0;
  double inflight = 0.0;
};

/// One rate step: the requests due in the windows of one rate.
struct StepSummary {
  std::vector<double> latencies;  ///< of the requests that succeeded
  int64_t accepted = 0;           ///< tuples those requests accepted
  int64_t failed = 0;
  double late_p99_ms = 0.0;
  int64_t backlog_growth = 0;
  bool growing = false;
  TailPick tail;
};

daemon::RepairRequestSpec RequestSpec(const ServeSchedule& schedule, int spec,
                                      const std::string& id, int client,
                                      bool incremental) {
  daemon::RepairRequestSpec out = schedule.specs[spec];
  out.id = id;
  out.client = "user" + std::to_string(client);
  out.incremental = incremental;
  return out;
}

/// Reads the report/error frames of `ids` into `records` (by index).
void ApplyFrames(const std::vector<Received>& frames,
                 const std::map<std::string, size_t>& ids,
                 const std::vector<std::string>& expected_by_request,
                 std::vector<RequestRecord>* records,
                 std::vector<StatuszSample>* statusz, int64_t* error_frames,
                 int64_t* admission_rejects) {
  for (const Received& received : frames) {
    const JsonValue& frame = received.frame;
    const std::string type = frame.StringOr("type", "");
    if (type == "statusz") {
      statusz->push_back({received.at_ms, frame.NumberOr("queued", 0.0),
                          frame.NumberOr("inflight", 0.0)});
      continue;
    }
    if (type != "report" && type != "error") continue;
    if (type == "error") {
      ++*error_frames;
      if (frame.StringOr("code", "") == "RESOURCE_EXHAUSTED") ++*admission_rejects;
    }
    auto it = ids.find(frame.StringOr("id", ""));
    if (it == ids.end()) continue;
    RequestRecord& record = (*records)[it->second];
    record.done_ms = received.at_ms;
    if (type == "error") {
      record.error = true;
      continue;
    }
    record.digest_ok =
        frame.StringOr("records_digest", "") == expected_by_request[it->second];
    record.resolved = frame.BoolOr("fully_resolved", false);
    record.accepted = frame.IntOr("accepted", 0);
    record.queries = frame.IntOr("queries", 0);
  }
}

}  // namespace

WorkloadResult RunServeMix(const RunArgs& args) {
  WorkloadResult result;
  if (args.slo_ms <= 0.0 || args.daemon_path.empty()) {
    result.Fail("serve-mix needs --slo-ms and --daemon");
    return result;
  }
  const int threads = WorkerThreads();
  const ServeSchedule schedule = MakeServeSchedule(args.seed, args.seconds);
  const int steps = static_cast<int>(schedule.rates.size());
  const int num_specs = static_cast<int>(schedule.specs.size());

  // Reference digests of every distinct spec, in-process. The traced run
  // replays them one at a time so their service times are uncontended.
  std::vector<std::string> expected(num_specs);
  std::vector<std::string> reference_errors(num_specs);
  std::vector<double> service_ms(num_specs, 0.0);
  std::vector<double> build_ms(num_specs, 0.0);
  std::vector<chameleon::core::RepairReport> references(num_specs);
  const auto reference = [&](int64_t begin, int64_t end, int64_t) {
    for (int64_t s = begin; s < end; ++s) {
      const Clock::time_point start = Clock::now();
      auto report = ReferenceRepair(schedule.specs[s], &build_ms[s]);
      service_ms[s] = MsSince(start);
      if (!report.ok()) {
        reference_errors[s] = report.status().ToString();
        continue;
      }
      expected[s] = daemon::ReportDigest(*report);
      references[s] = *std::move(report);
    }
  };
  if (args.trace) {
    reference(0, num_specs, 0);
  } else {
    chameleon::util::ThreadPool pool(threads);
    pool.ParallelFor(num_specs, 1, reference);
  }
  for (int s = 0; s < num_specs; ++s) {
    if (!reference_errors[s].empty()) {
      result.Fail("reference repair: " + reference_errors[s]);
      return result;
    }
    if (args.corrupt_reference) expected[s][0] = expected[s][0] == '0' ? '1' : '0';
  }

  // Set-up: start the daemon and serve one warm-up request each of the
  // micro and feret kinds. No utkface request: its 2 s of FM-bound work
  // made the set-up time swing with the machine's speed, by 25% between
  // two batches of runs. It runs kSetupsBefore times before the load (the
  // last daemon carries it) and kSetupsAfter times after it, so setup_s
  // samples the machine on both sides of the run. One set-up of the same
  // specs differs from the next by up to half on a shared host; with a
  // median of four, setup_s moved by 26% between two batches of ten runs.
  std::vector<int> warmup_specs;
  for (int s = 0; s < num_specs; ++s) {
    const bool first_of_kind =
        s == 0 || schedule.specs[s].dataset != schedule.specs[s - 1].dataset;
    if (first_of_kind &&
        schedule.specs[s].dataset != daemon::DatasetKind::kUtkFace) {
      warmup_specs.push_back(s);
    }
  }
  std::vector<double> setup_ms;
  const Clock::time_point epoch = Clock::now();
  const auto start_daemon = [&]() -> std::unique_ptr<DaemonSession> {
    const Clock::time_point start = Clock::now();
    auto started = DaemonSession::Start(args.daemon_path, threads, epoch);
    if (!started.ok()) {
      result.Fail(started.status().ToString());
      return nullptr;
    }
    std::unique_ptr<DaemonSession> session = std::move(*started);
    std::map<std::string, size_t> ids;
    std::vector<std::string> warm_expected;
    for (size_t w = 0; w < warmup_specs.size(); ++w) {
      // Appended: GCC 12's -Wrestrict misfires on `"w" + std::to_string`.
      std::string id = "w";
      id += std::to_string(w);
      ids[id] = w;
      warm_expected.push_back(expected[warmup_specs[w]]);
      if (!session->Send(daemon::RenderRepairRequest(RequestSpec(
                             schedule, warmup_specs[w], id, 0, w % 2 == 1)))
               .ok()) {
        result.Fail("cannot write to chameleond");
        return nullptr;
      }
    }
    if (!session->WaitForTerminal(static_cast<int64_t>(ids.size()),
                                  kCompletionTimeoutMs)) {
      result.Fail("warm-up requests did not complete");
      return nullptr;
    }
    setup_ms.push_back(MsSince(start));
    std::vector<RequestRecord> warm(ids.size());
    std::vector<StatuszSample> ignored;
    int64_t errors = 0;
    int64_t rejects = 0;
    ApplyFrames(session->TakeFrames(), ids, warm_expected, &warm, &ignored,
                &errors, &rejects);
    for (const RequestRecord& record : warm) {
      if (record.error || !record.digest_ok) {
        result.Fail("warm-up report differs from its in-process reference");
      }
    }
    return session;
  };
  std::unique_ptr<DaemonSession> session;
  for (int i = 0; i < kSetupsBefore; ++i) {
    if (session != nullptr) {
      auto drained = session->Shutdown(30000.0);
      if (!drained.ok()) {
        result.Fail("set-up daemon shutdown: " + drained.status().ToString());
        return result;
      }
    }
    session = start_daemon();
    if (session == nullptr) return result;
  }

  // The load: pre-rendered frames, sent on schedule by one thread.
  const size_t n = schedule.arrivals.size();
  std::vector<std::string> payloads(n);
  std::vector<std::string> expected_by_request(n);
  std::map<std::string, size_t> ids;
  std::vector<RequestRecord> records(n);
  for (size_t i = 0; i < n; ++i) {
    const Arrival& arrival = schedule.arrivals[i];
    const std::string id = "q" + std::to_string(i);
    ids[id] = i;
    payloads[i] = daemon::RenderRepairRequest(RequestSpec(
        schedule, arrival.spec, id, arrival.client, arrival.incremental));
    expected_by_request[i] = expected[arrival.spec];
  }
  const Clock::time_point load_start = Clock::now() + std::chrono::milliseconds(20);
  const double load_offset_ms = MsBetween(epoch, load_start);
  std::vector<double> sent_ms(n, -1.0);
  std::vector<double> poll_sent_ms;
  bool send_failed = false;
  std::thread sender([&] {
    double next_poll = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double due = schedule.arrivals[i].due_ms;
      while (args.trace && next_poll < due) {
        std::this_thread::sleep_until(
            load_start + std::chrono::microseconds(static_cast<int64_t>(next_poll * 1000)));
        poll_sent_ms.push_back(MsSince(load_start));
        if (!session->Send(daemon::RenderStatuszRequest()).ok()) break;
        next_poll += kPollMs;
      }
      std::this_thread::sleep_until(
          load_start + std::chrono::microseconds(static_cast<int64_t>(due * 1000)));
      sent_ms[i] = MsSince(load_start);
      if (!session->Send(payloads[i]).ok()) {
        send_failed = true;
        return;
      }
    }
  });
  sender.join();
  const bool completed =
      session->WaitForTerminal(static_cast<int64_t>(n), kCompletionTimeoutMs);
  auto peak_rss = session->Shutdown(30000.0);
  if (send_failed) result.Fail("the daemon stopped reading requests");
  if (!completed) result.Fail("requests still missing a report after the timeout");
  if (!peak_rss.ok()) result.Fail(peak_rss.status().ToString());
  for (int i = 0; i < kSetupsAfter; ++i) {
    std::unique_ptr<DaemonSession> extra = start_daemon();
    if (extra == nullptr) return result;
    auto drained = extra->Shutdown(30000.0);
    if (!drained.ok()) {
      result.Fail("set-up daemon shutdown: " + drained.status().ToString());
      return result;
    }
  }

  std::vector<StatuszSample> statusz;
  int64_t error_frames = 0;
  int64_t admission_rejects = 0;
  ApplyFrames(session->TakeFrames(), ids, expected_by_request, &records,
              &statusz, &error_frames, &admission_rejects);
  for (StatuszSample& sample : statusz) sample.at_ms -= load_offset_ms;

  // Per-request outcome and per-step summaries.
  std::vector<StepSummary> step(steps);
  std::vector<double> window_last_done(schedule.windows, 0.0);
  std::vector<std::vector<double>> late(steps);
  std::vector<double> all_late;
  int64_t accepted_total = 0;
  int64_t queries_total = 0;
  int64_t resolved_total = 0;
  int64_t reported = 0;
  std::map<int, std::vector<const RequestRecord*>> by_kind;
  for (size_t i = 0; i < n; ++i) {
    RequestRecord& record = records[i];
    const Arrival& arrival = schedule.arrivals[i];
    record.due_ms = arrival.due_ms;
    record.sent_ms = sent_ms[i];
    if (record.done_ms >= 0.0) record.done_ms -= load_offset_ms;
    ++result.attempted;
    const bool ok = record.done_ms >= 0.0 && !record.error && record.digest_ok;
    if (record.sent_ms >= 0.0) {
      late[arrival.step].push_back(record.sent_ms - record.due_ms);
      all_late.push_back(record.sent_ms - record.due_ms);
    }
    if (!ok) {
      ++result.failed;
      ++step[arrival.step].failed;
      if (record.done_ms >= 0.0 && !record.error && !record.digest_ok) {
        result.Fail("request q" + std::to_string(i) +
                    " digest differs from its in-process reference");
      }
      continue;
    }
    step[arrival.step].latencies.push_back(record.done_ms - record.due_ms);
    window_last_done[arrival.window] =
        std::max(window_last_done[arrival.window], record.done_ms);
    step[arrival.step].accepted += record.accepted;
    accepted_total += record.accepted;
    queries_total += record.queries;
    resolved_total += record.resolved ? 1 : 0;
    ++reported;
    by_kind[static_cast<int>(schedule.specs[arrival.spec].dataset)].push_back(&record);
  }
  const auto outstanding_at = [&](double t) {
    int64_t arrived = 0;
    int64_t done = 0;
    for (const RequestRecord& record : records) {
      if (record.due_ms <= t) ++arrived;
      if (record.done_ms >= 0.0 && record.done_ms <= t) ++done;
    }
    return arrived - done;
  };
  // Completion rate of a step: its requests served over the time from the
  // start of each of its windows to the later of the window's end and its
  // last report. It equals the offered rate only when every request is
  // served at once, and falls as service slows.
  const auto completion_rate = [&](int s) {
    double span_ms = 0.0;
    for (int w = s; w < schedule.windows; w += steps) {
      span_ms += std::max(schedule.window_ms(w),
                          window_last_done[w] - schedule.window_start_ms[w]);
    }
    return static_cast<double>(step[s].latencies.size()) / span_ms * 1000.0;
  };
  double max_rate = 0.0;
  for (int s = 0; s < steps; ++s) {
    StepSummary& summary = step[s];
    summary.tail = SelectTail(summary.latencies);
    summary.late_p99_ms = Percentile(late[s], 99.0);
    const int64_t offered = static_cast<int64_t>(late[s].size());
    // A rate's backlog grows when the requests outstanding at the end of
    // its windows rise from its first cycle to its last: the same point of
    // every cycle, so the backlog each rate carries into the next window
    // does not count.
    const int first = s;
    const int last = s + (schedule.windows / steps - 1) * steps;
    summary.backlog_growth =
        outstanding_at(schedule.window_start_ms[last + 1]) -
        outstanding_at(schedule.window_start_ms[first + 1]);
    summary.growing =
        summary.backlog_growth > std::max<int64_t>(threads, offered / 10);
    const bool valid = summary.late_p99_ms <= kMaxLateMs;
    const bool meets = valid && !summary.growing && summary.failed == 0 &&
                       summary.tail.value <= args.slo_ms;
    if (meets) max_rate = completion_rate(s);
    char line[240];
    std::snprintf(line, sizeof(line),
                  "step %d: %.3g req/s offered, tail p%g = %.1f ms of %lld "
                  "(%lld beyond), p50 %.1f ms, backlog %+lld%s, generator "
                  "p99 late %.2f ms%s, failed %lld",
                  s, schedule.rates[s], summary.tail.percentile, summary.tail.value,
                  static_cast<long long>(summary.tail.samples),
                  static_cast<long long>(summary.tail.beyond),
                  Median(summary.latencies),
                  static_cast<long long>(summary.backlog_growth),
                  summary.growing ? " (growing)" : "", summary.late_p99_ms,
                  valid ? "" : " (INVALID: generator fell behind)",
                  static_cast<long long>(summary.failed));
    result.Note(line);
  }

  const int mid = steps / 2;
  if (!args.trace) {
    // Throughput at rate_mid counts the step's own requests, and the
    // balanced spec rotation keeps the tuples they accept steady.
    const double mid_rate = completion_rate(mid);
    std::string setups = "set-ups (ms, in order):";
    for (double ms : setup_ms) setups += " " + FormatNumber(ms);
    result.Note(setups);
    result.Add("setup_s", Median(setup_ms) / 1000.0, "s");
    result.Add("latency_ms_p50", Median(step[mid].latencies), "ms");
    result.Add("latency_ms_tail", step[mid].tail.value, "ms");
    result.Add("ops_per_s", mid_rate, "1/s");
    result.Add("accepted_per_s",
               step[mid].latencies.empty()
                   ? 0.0
                   : mid_rate * static_cast<double>(step[mid].accepted) /
                         static_cast<double>(step[mid].latencies.size()),
               "1/s");
    result.Add("fm_queries_per_accepted",
               accepted_total > 0
                   ? static_cast<double>(queries_total) / accepted_total
                   : 0.0,
               "count");
    result.Add("resolved_share",
               reported > 0 ? static_cast<double>(resolved_total) / reported : 0.0,
               "share");
    result.Add("peak_rss_mb", peak_rss.ok() ? *peak_rss : 0.0, "MB");
    result.Add("max_rate_rps", max_rate, "1/s");
    static const char* kStepNames[] = {"rate_lo", "rate_mid", "rate_hi"};
    for (int s = 0; s < steps && s < 3; ++s) {
      result.Add(std::string(kStepNames[s]) + ".latency_ms_tail",
                 step[s].tail.value, "ms");
    }
    return result;
  }

  // Traced: the layers behind the daemon.
  const int hi = steps - 1;
  std::vector<double> queued, inflight;
  for (const StatuszSample& sample : statusz) {
    const int window = schedule.WindowAt(sample.at_ms);
    if (window >= 0 && window % steps == hi) {
      queued.push_back(sample.queued);
      inflight.push_back(sample.inflight);
    }
  }
  const double queue_mean = Mean(queued);
  const double inflight_mean = Mean(inflight);
  result.Add("daemon.queue_depth_mean", queue_mean, "count");
  result.Add("daemon.inflight_mean", inflight_mean, "count");
  result.Add("daemon.busy_share", inflight_mean / threads, "share");
  // Little's law over the rate_hi step: wait = queue length / arrival rate.
  result.Add("daemon.queue_wait_ms_mean", queue_mean / schedule.rates[hi] * 1000.0,
             "ms");
  result.Add("daemon.admission_rejects", static_cast<double>(admission_rejects),
             "count");
  result.Add("daemon.error_frames", static_cast<double>(error_frames), "count");

  // Frame handling, in-process on this run's own frames and reports.
  {
    const Clock::time_point start = Clock::now();
    for (const std::string& payload : payloads) {
      if (!daemon::ParseRequestFrame(payload).ok()) result.Fail("frame replay");
    }
    result.Add("daemon.parse_us",
               MsSince(start) * 1000.0 / std::max<size_t>(1, payloads.size()), "us");
    constexpr int kRenderRepeats = 20;
    size_t bytes = 0;
    const Clock::time_point render_start = Clock::now();
    for (int r = 0; r < kRenderRepeats; ++r) {
      for (int s = 0; s < num_specs; ++s) {
        bytes += daemon::RenderReport("q", references[s], 0.0).size() +
                 daemon::ReportDigest(references[s]).size();
      }
    }
    result.Add("daemon.render_report_us",
               MsSince(render_start) * 1000.0 / (kRenderRepeats * num_specs), "us");
    if (bytes == 0) result.Fail("report replay rendered nothing");
  }

  // Per dataset kind: service time and world build from the in-process
  // replay, pass rates from the reference reports, outcomes from the
  // daemon's own reports.
  for (int kind = 0; kind < 3; ++kind) {
    const auto dataset = static_cast<daemon::DatasetKind>(kind);
    const std::string label = daemon::DatasetKindName(dataset);
    std::vector<double> service, build;
    int64_t queries = 0, distribution = 0, quality = 0;
    for (int s = 0; s < num_specs; ++s) {
      if (schedule.specs[s].dataset != dataset) continue;
      service.push_back(service_ms[s]);
      build.push_back(build_ms[s]);
      queries += references[s].queries;
      distribution += references[s].distribution_passes;
      quality += references[s].quality_passes;
    }
    const std::string build_name =
        dataset == daemon::DatasetKind::kUtkFace ? "challenge" : label;
    result.Add("datasets." + build_name + "_build_ms", Median(build), "ms");
    result.Add("daemon.service_ms_p50." + label, Median(service), "ms");
    result.Add("core.distribution_pass_rate." + label,
               queries > 0 ? static_cast<double>(distribution) / queries : 0.0,
               "share");
    result.Add("core.quality_pass_rate." + label,
               queries > 0 ? static_cast<double>(quality) / queries : 0.0, "share");
    const std::vector<const RequestRecord*>& served = by_kind[kind];
    double resolved = 0.0, accepted = 0.0, asked = 0.0;
    for (const RequestRecord* record : served) {
      resolved += record->resolved ? 1.0 : 0.0;
      accepted += static_cast<double>(record->accepted);
      asked += static_cast<double>(record->queries);
    }
    const double count = std::max<double>(1.0, static_cast<double>(served.size()));
    result.Add("serve.resolved_share." + label, resolved / count, "share");
    result.Add("serve.accepted_per_request." + label, accepted / count, "count");
    result.Add("serve.queries_per_request." + label, asked / count, "count");
  }

  result.Add("loadgen.late_ms_p99", Percentile(all_late, 99.0), "ms");
  result.Add("loadgen.sent", static_cast<double>(all_late.size()), "count");
  result.Add("loadgen.completed", static_cast<double>(reported), "count");
  // statusz polls are the traced run's only addition to the daemon's
  // work: charge each its round trip, an upper bound on the time it held
  // the daemon's single frame reader.
  std::vector<double> poll_rtt;
  for (size_t i = 0; i < statusz.size() && i < poll_sent_ms.size(); ++i) {
    poll_rtt.push_back(statusz[i].at_ms - poll_sent_ms[i]);
  }
  result.Add("trace.overhead_share",
             static_cast<double>(poll_rtt.size()) * Median(poll_rtt) /
                 schedule.end_ms(),
             "share");
  return result;
}

}  // namespace perfbench
