#include "tools/chameleond/protocol.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "src/obs/journal.h"
#include "tools/obsctl/json.h"

namespace chameleon::daemon {
namespace {

/// Shortest round-trip rendering of a double (JSON number).
std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string Quoted(const std::string& text) {
  // Built by append: GCC 12's -Wrestrict misfires on the
  // `"literal" + std::string&&` form once JsonEscape gets inlined.
  std::string out = "\"";
  out += obs::JsonEscape(text);
  out += "\"";
  return out;
}

/// Reads the optional integer field `key` into `*out`, which keeps its
/// value when the field is absent or not a number. A number outside
/// int's range is rejected instead of narrowed: a cast would turn
/// 4294967297 into 1.
util::Status ReadIntField(const obsctl::JsonValue& json, const std::string& key,
                          int* out) {
  const obsctl::JsonValue* value = json.Find(key);
  if (value == nullptr || !value->is_number()) return util::Status::Ok();
  const double number = value->number_value;
  if (!(number >= std::numeric_limits<int>::min() &&
        number <= std::numeric_limits<int>::max())) {
    return util::Status::InvalidArgument(key + " is out of range");
  }
  *out = static_cast<int>(number);
  return util::Status::Ok();
}

/// ReadIntField for int64 fields: a non-finite number or one outside
/// int64's range is rejected, where a cast would be undefined.
util::Status ReadInt64Field(const obsctl::JsonValue& json,
                            const std::string& key, int64_t* out) {
  const obsctl::JsonValue* value = json.Find(key);
  if (value == nullptr || !value->is_number()) return util::Status::Ok();
  if (!obsctl::FitsInt64(value->number_value)) {
    return util::Status::InvalidArgument(key + " is out of range");
  }
  *out = static_cast<int64_t>(value->number_value);
  return util::Status::Ok();
}

/// Reads the optional number field `key` into `*out`, which keeps its
/// value when the field is absent. A value that is not a number, or not
/// a finite number in [min, max], is rejected rather than replaced by the
/// default.
util::Status ReadNumberField(const obsctl::JsonValue& json,
                             const std::string& key, double min, double max,
                             double* out) {
  const obsctl::JsonValue* value = json.Find(key);
  if (value == nullptr) return util::Status::Ok();
  if (!value->is_number()) {
    return util::Status::InvalidArgument(key + " must be a number");
  }
  const double number = value->number_value;
  if (!(std::isfinite(number) && number >= min && number <= max)) {
    return util::Status::InvalidArgument(
        key + " must be a finite number in [" + FormatDouble(min) + ", " +
        FormatDouble(max) + "]");
  }
  *out = number;
  return util::Status::Ok();
}

/// ReadNumberField for a finite number >= 0: a duration or a cost.
util::Status ReadNonNegativeField(const obsctl::JsonValue& json,
                                  const std::string& key, double* out) {
  return ReadNumberField(json, key, 0.0,
                         std::numeric_limits<double>::infinity(), out);
}

/// ReadNumberField for a probability.
util::Status ReadRateField(const obsctl::JsonValue& json,
                           const std::string& key, double* out) {
  return ReadNumberField(json, key, 0.0, 1.0, out);
}

/// A seed is an int64 on the wire, reinterpreted as the uint64 it seeds.
util::Status ReadSeedField(const obsctl::JsonValue& json, uint64_t* out) {
  int64_t seed = static_cast<int64_t>(*out);
  CHAMELEON_RETURN_NOT_OK(ReadInt64Field(json, "seed", &seed));
  *out = static_cast<uint64_t>(seed);
  return util::Status::Ok();
}

}  // namespace

const char* DatasetKindName(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kMicro:
      return "micro";
    case DatasetKind::kFeret:
      return "feret";
    case DatasetKind::kUtkFace:
      return "utkface";
  }
  return "unknown";
}

bool IsValidUtf8(const std::string& text) {
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    const unsigned char byte = static_cast<unsigned char>(text[i]);
    size_t extra;
    unsigned cp_min;
    if (byte < 0x80) {
      ++i;
      continue;
    } else if ((byte & 0xE0) == 0xC0) {
      extra = 1;
      cp_min = 0x80;
    } else if ((byte & 0xF0) == 0xE0) {
      extra = 2;
      cp_min = 0x800;
    } else if ((byte & 0xF8) == 0xF0) {
      extra = 3;
      cp_min = 0x10000;
    } else {
      return false;  // continuation or invalid lead byte
    }
    if (i + extra >= n) return false;
    unsigned cp = byte & (0x3F >> extra);
    for (size_t k = 1; k <= extra; ++k) {
      const unsigned char cont = static_cast<unsigned char>(text[i + k]);
      if ((cont & 0xC0) != 0x80) return false;
      cp = (cp << 6) | (cont & 0x3F);
    }
    if (cp < cp_min) return false;                  // overlong encoding
    if (cp > 0x10FFFF) return false;                // beyond Unicode
    if (cp >= 0xD800 && cp <= 0xDFFF) return false; // surrogate half
    i += extra + 1;
  }
  return true;
}

std::string FrameIdOf(const std::string& payload) {
  if (!IsValidUtf8(payload)) return "";
  auto json = obsctl::ParseJson(payload);
  return json.ok() && json->is_object() ? json->StringOr("id", "") : "";
}

util::Result<ParsedFrame> ParseRequestFrame(const std::string& payload) {
  if (!IsValidUtf8(payload)) {
    return util::Status::InvalidArgument("frame body is not valid UTF-8");
  }
  auto json = obsctl::ParseJson(payload);
  if (!json.ok()) {
    return util::Status::InvalidArgument("frame body is not valid JSON: " +
                                         json.status().message());
  }
  if (!json->is_object()) {
    return util::Status::InvalidArgument("frame body must be a JSON object");
  }
  const std::string type = json->StringOr("type", "");
  ParsedFrame frame;

  if (type == "ping") {
    frame.kind = FrameKind::kPing;
    return frame;
  }
  if (type == "shutdown") {
    frame.kind = FrameKind::kShutdown;
    return frame;
  }
  if (type == "stats") {
    frame.kind = FrameKind::kStats;
    return frame;
  }
  if (type == "statusz") {
    frame.kind = FrameKind::kStatusz;
    return frame;
  }
  if (type == "cancel") {
    frame.kind = FrameKind::kCancel;
    frame.id = json->StringOr("id", "");
    if (frame.id.empty()) {
      return util::Status::InvalidArgument("cancel frame requires an id");
    }
    return frame;
  }
  if (type != "repair") {
    return util::Status::InvalidArgument(
        type.empty() ? "frame is missing the type field"
                     : "unknown frame type '" + type + "'");
  }

  frame.kind = FrameKind::kRepair;
  RepairRequestSpec& spec = frame.spec;
  spec.id = json->StringOr("id", "");
  if (spec.id.empty()) {
    return util::Status::InvalidArgument("repair frame requires an id");
  }
  frame.id = spec.id;
  spec.client = json->StringOr("client", spec.client);

  const std::string dataset = json->StringOr("dataset", "micro");
  if (dataset == "micro") {
    spec.dataset = DatasetKind::kMicro;
  } else if (dataset == "feret") {
    spec.dataset = DatasetKind::kFeret;
  } else if (dataset == "utkface") {
    spec.dataset = DatasetKind::kUtkFace;
  } else {
    return util::Status::InvalidArgument("unknown dataset '" + dataset +
                                         "' (expected micro|feret|utkface)");
  }

  CHAMELEON_RETURN_NOT_OK(ReadInt64Field(*json, "tau", &spec.tau));
  CHAMELEON_RETURN_NOT_OK(ReadSeedField(*json, &spec.seed));
  CHAMELEON_RETURN_NOT_OK(
      ReadInt64Field(*json, "max_queries", &spec.max_queries));
  CHAMELEON_RETURN_NOT_OK(
      ReadIntField(*json, "rejection_batch", &spec.rejection_batch));
  CHAMELEON_RETURN_NOT_OK(
      ReadIntField(*json, "num_threads", &spec.num_threads));
  CHAMELEON_RETURN_NOT_OK(
      ReadNonNegativeField(*json, "deadline_ms", &spec.deadline_ms));
  spec.incremental = json->BoolOr("incremental", spec.incremental);
  if (spec.tau <= 0) {
    return util::Status::InvalidArgument("tau must be positive");
  }
  if (spec.max_queries <= 0) {
    return util::Status::InvalidArgument("max_queries must be positive");
  }
  if (spec.rejection_batch < 1 || spec.rejection_batch > kMaxRejectionBatch) {
    return util::Status::InvalidArgument(
        "rejection_batch must be in [1, " + std::to_string(kMaxRejectionBatch) +
        "]");
  }
  if (spec.num_threads < 0 || spec.num_threads > kMaxRequestThreads) {
    return util::Status::InvalidArgument(
        "num_threads must be in [0, " + std::to_string(kMaxRequestThreads) +
        "]");
  }

  if (const obsctl::JsonValue* faults = json->Find("faults")) {
    if (!faults->is_object()) {
      return util::Status::InvalidArgument("faults must be an object");
    }
    spec.has_faults = true;
    fm::FlakyOptions& f = spec.faults;
    CHAMELEON_RETURN_NOT_OK(ReadSeedField(*faults, &f.seed));
    CHAMELEON_RETURN_NOT_OK(
        ReadRateField(*faults, "transient_rate", &f.transient_rate));
    CHAMELEON_RETURN_NOT_OK(
        ReadRateField(*faults, "rate_limit_rate", &f.rate_limit_rate));
    CHAMELEON_RETURN_NOT_OK(
        ReadRateField(*faults, "deadline_rate", &f.deadline_rate));
    CHAMELEON_RETURN_NOT_OK(
        ReadRateField(*faults, "malformed_rate", &f.malformed_rate));
    CHAMELEON_RETURN_NOT_OK(
        ReadInt64Field(*faults, "fail_from_query", &f.fail_from_query));
    CHAMELEON_RETURN_NOT_OK(
        ReadInt64Field(*faults, "outage_start", &f.outage_start));
    CHAMELEON_RETURN_NOT_OK(
        ReadInt64Field(*faults, "outage_length", &f.outage_length));
  }

  if (const obsctl::JsonValue* res = json->Find("resilience")) {
    if (!res->is_object()) {
      return util::Status::InvalidArgument("resilience must be an object");
    }
    fm::ResilienceOptions& r = spec.resilience;
    CHAMELEON_RETURN_NOT_OK(ReadSeedField(*res, &r.seed));
    CHAMELEON_RETURN_NOT_OK(
        ReadIntField(*res, "max_attempts", &r.max_attempts));
    CHAMELEON_RETURN_NOT_OK(
        ReadNonNegativeField(*res, "backoff_base_ms", &r.backoff_base_ms));
    CHAMELEON_RETURN_NOT_OK(
        ReadNonNegativeField(*res, "backoff_max_ms", &r.backoff_max_ms));
    CHAMELEON_RETURN_NOT_OK(
        ReadNonNegativeField(*res, "attempt_cost_ms", &r.attempt_cost_ms));
    CHAMELEON_RETURN_NOT_OK(ReadIntField(*res, "breaker_failure_threshold",
                                         &r.breaker_failure_threshold));
    CHAMELEON_RETURN_NOT_OK(ReadIntField(*res, "breaker_probe_interval",
                                         &r.breaker_probe_interval));
  }

  return frame;
}

std::string RenderError(const std::string& id, util::StatusCode code,
                        const std::string& message) {
  std::string out = "{\"type\":\"error\"";
  if (!id.empty()) out += ",\"id\":" + Quoted(id);
  out += ",\"code\":" + Quoted(util::StatusCodeName(code));
  out += ",\"message\":" + Quoted(message);
  out += "}";
  return out;
}

std::string RenderAck(const std::string& id) {
  return "{\"type\":\"ack\",\"id\":" + Quoted(id) + "}";
}

std::string RenderPong() { return "{\"type\":\"pong\"}"; }

const char* ReportStatusLabel(const core::RepairReport& report) {
  if (report.cancelled) return "cancelled";
  if (report.deadline_expired) return "deadline";
  if (report.faults.parked_entries() > 0) return "parked";
  return "ok";
}

std::string RenderReport(const std::string& id,
                         const core::RepairReport& report, double virtual_ms) {
  std::string out = "{\"type\":\"report\",\"id\":" + Quoted(id);
  out += ",\"status\":" + Quoted(ReportStatusLabel(report));
  out += ",\"accepted\":" + std::to_string(report.accepted);
  out += ",\"queries\":" + std::to_string(report.queries);
  out += ",\"fully_resolved\":";
  out += report.fully_resolved ? "true" : "false";
  out += ",\"parked_entries\":" +
         std::to_string(report.faults.parked_entries());
  out += ",\"faults_masked\":" +
         std::to_string(report.faults.transport.faults_masked);
  out += ",\"virtual_ms\":" + FormatDouble(virtual_ms);
  out += ",\"records_digest\":" + Quoted(ReportDigest(report));
  out += "}";
  return out;
}

std::string RenderResumed(const std::string& id, const std::string& state) {
  return "{\"type\":\"resumed\",\"id\":" + Quoted(id) +
         ",\"state\":" + Quoted(state) + "}";
}

std::string RenderStats(const std::string& openmetrics_body) {
  return "{\"type\":\"stats\",\"format\":\"openmetrics\",\"body\":" +
         Quoted(openmetrics_body) + "}";
}

std::string RenderStatusz(const StatuszInfo& info) {
  std::string out = "{\"type\":\"statusz\"";
  out += ",\"uptime_virtual_ms\":" + FormatDouble(info.uptime_virtual_ms);
  out += ",\"queued\":" + std::to_string(info.queued);
  out += ",\"inflight\":" + std::to_string(info.inflight);
  out += ",\"accepted_total\":" + std::to_string(info.accepted_total);
  out += ",\"completed_total\":" + std::to_string(info.completed_total);
  out += ",\"rejected_total\":" + std::to_string(info.rejected_total);
  out += ",\"cancelled_total\":" + std::to_string(info.cancelled_total);
  out += ",\"deadline_total\":" + std::to_string(info.deadline_total);
  out += ",\"requests_absorbed\":" + std::to_string(info.requests_absorbed);
  out += ",\"draining\":";
  out += info.draining ? "true" : "false";
  out += ",\"telemetry\":";
  out += info.telemetry ? "true" : "false";
  out += "}";
  return out;
}

std::string RenderRepairRequest(const RepairRequestSpec& spec) {
  std::string out = "{\"type\":\"repair\",\"id\":" + Quoted(spec.id);
  out += ",\"client\":" + Quoted(spec.client);
  out += ",\"dataset\":" + Quoted(DatasetKindName(spec.dataset));
  out += ",\"tau\":" + std::to_string(spec.tau);
  out += ",\"seed\":" + std::to_string(spec.seed);
  out += ",\"max_queries\":" + std::to_string(spec.max_queries);
  out += ",\"rejection_batch\":" + std::to_string(spec.rejection_batch);
  out += ",\"num_threads\":" + std::to_string(spec.num_threads);
  out += ",\"deadline_ms\":" + FormatDouble(spec.deadline_ms);
  out += ",\"incremental\":";
  out += spec.incremental ? "true" : "false";
  if (spec.has_faults) {
    const fm::FlakyOptions& f = spec.faults;
    out += ",\"faults\":{\"seed\":" + std::to_string(f.seed);
    out += ",\"transient_rate\":" + FormatDouble(f.transient_rate);
    out += ",\"rate_limit_rate\":" + FormatDouble(f.rate_limit_rate);
    out += ",\"deadline_rate\":" + FormatDouble(f.deadline_rate);
    out += ",\"malformed_rate\":" + FormatDouble(f.malformed_rate);
    out += ",\"fail_from_query\":" + std::to_string(f.fail_from_query);
    out += ",\"outage_start\":" + std::to_string(f.outage_start);
    out += ",\"outage_length\":" + std::to_string(f.outage_length);
    out += "}";
  }
  const fm::ResilienceOptions& r = spec.resilience;
  out += ",\"resilience\":{\"seed\":" + std::to_string(r.seed);
  out += ",\"max_attempts\":" + std::to_string(r.max_attempts);
  out += ",\"backoff_base_ms\":" + FormatDouble(r.backoff_base_ms);
  out += ",\"backoff_max_ms\":" + FormatDouble(r.backoff_max_ms);
  out += ",\"attempt_cost_ms\":" + FormatDouble(r.attempt_cost_ms);
  out += ",\"breaker_failure_threshold\":" +
         std::to_string(r.breaker_failure_threshold);
  out += ",\"breaker_probe_interval\":" +
         std::to_string(r.breaker_probe_interval);
  out += "}}";
  return out;
}

std::string RenderCancelRequest(const std::string& id) {
  return "{\"type\":\"cancel\",\"id\":" + Quoted(id) + "}";
}

std::string RenderPing() { return "{\"type\":\"ping\"}"; }

std::string RenderShutdown() { return "{\"type\":\"shutdown\"}"; }

std::string RenderStatsRequest() { return "{\"type\":\"stats\"}"; }

std::string RenderStatuszRequest() { return "{\"type\":\"statusz\"}"; }

std::string ReportDigest(const core::RepairReport& report) {
  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  const auto mix = [&hash](uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      hash ^= (value >> shift) & 0xFF;
      hash *= 0x100000001b3ULL;  // FNV prime
    }
  };
  const auto mix_double = [&mix](double value) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    mix(bits);
  };
  for (const core::GenerationRecord& record : report.records) {
    for (int v : record.target_values) mix(static_cast<uint64_t>(v));
    for (double e : record.embedding) mix_double(e);
    mix(static_cast<uint64_t>(record.arm));
    mix(record.accepted ? 1 : 0);
  }
  mix(static_cast<uint64_t>(report.accepted));
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, hash);
  return buffer;
}

}  // namespace chameleon::daemon
