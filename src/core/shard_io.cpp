#include "core/shard_io.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "classify/adversary.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace linkpad::core {
namespace {

// ------------------------------------------------------------ JSON writing
//
// The writer emits everything by hand: the schema is tiny, the output must
// be byte-deterministic, and no double ever goes through printf — numeric
// values are either exact integers or hex bit patterns.

constexpr char kHexDigits[] = "0123456789abcdef";

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out.push_back(c); break;
    }
  }
  out.push_back('"');
}

void append_u64(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
}

void append_i64(std::string& out, std::int64_t v) {
  out += std::to_string(v);
}

void append_hex_double(std::string& out, double x) {
  out.push_back('"');
  out += encode_double(x);
  out.push_back('"');
}

void append_bool(std::string& out, bool b) { out += b ? "true" : "false"; }

// ------------------------------------------------------------ JSON parsing
//
// A recursive-descent parser for the subset the shard format emits:
// objects, arrays, strings (basic escapes), integers (optional sign),
// true/false/null. Doubles never appear as JSON numbers — they are hex
// strings — so no float parsing exists to disagree across libcs. Nesting
// is capped at kMaxJsonDepth (the format itself nests a handful of
// levels), so a hostile file of nested brackets fails with a named error
// instead of overflowing the stack.

constexpr std::size_t kMaxJsonDepth = 64;

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  bool negative = false;
  std::uint64_t magnitude = 0;
  std::string text;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;

  [[nodiscard]] bool is_null() const { return kind == Kind::kNull; }

  [[nodiscard]] bool as_bool() const {
    require(Kind::kBool, "bool");
    return boolean;
  }

  [[nodiscard]] std::uint64_t as_u64() const {
    require(Kind::kNumber, "unsigned integer");
    if (negative) throw std::invalid_argument("shard_io: negative where unsigned expected");
    return magnitude;
  }

  [[nodiscard]] std::int64_t as_i64() const {
    require(Kind::kNumber, "integer");
    if (!negative) {
      if (magnitude > 0x7fffffffffffffffULL) {
        throw std::invalid_argument("shard_io: integer out of int64 range");
      }
      return static_cast<std::int64_t>(magnitude);
    }
    if (magnitude > 0x8000000000000000ULL) {
      throw std::invalid_argument("shard_io: integer out of int64 range");
    }
    return static_cast<std::int64_t>(~magnitude + 1ULL);
  }

  [[nodiscard]] std::size_t as_size() const {
    return static_cast<std::size_t>(as_u64());
  }

  [[nodiscard]] const std::string& as_string() const {
    require(Kind::kString, "string");
    return text;
  }

  [[nodiscard]] double as_hex_double() const { return decode_double(as_string()); }

  [[nodiscard]] const std::vector<JsonValue>& as_array() const {
    require(Kind::kArray, "array");
    return items;
  }

  [[nodiscard]] const JsonValue* find(std::string_view key) const {
    require(Kind::kObject, "object");
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  [[nodiscard]] const JsonValue& at(std::string_view key) const {
    const JsonValue* v = find(key);
    if (v == nullptr) {
      throw std::invalid_argument("shard_io: missing key \"" + std::string(key) +
                                  "\"");
    }
    return *v;
  }

 private:
  void require(Kind expected, const char* what) const {
    if (kind != expected) {
      throw std::invalid_argument(std::string("shard_io: expected ") + what);
    }
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    if (i_ != s_.size()) {
      throw std::invalid_argument("shard_io: trailing characters after JSON value");
    }
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    std::ostringstream msg;
    msg << "shard_io: JSON parse error at offset " << i_ << ": " << what;
    throw std::invalid_argument(msg.str());
  }

  void skip_ws() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }

  char peek() {
    if (i_ >= s_.size()) fail("unexpected end of input");
    return s_[i_];
  }

  void expect(char c) {
    if (i_ >= s_.size() || s_[i_] != c) fail("unexpected character");
    ++i_;
  }

  bool consume_literal(std::string_view lit) {
    if (s_.substr(i_, lit.size()) != lit) return false;
    i_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    char c = peek();
    switch (c) {
      case '{': return parse_nested(&JsonParser::parse_object);
      case '[': return parse_nested(&JsonParser::parse_array);
      case '"': return parse_string();
      case 't':
      case 'f':
      case 'n': return parse_literal();
      default: return parse_number();
    }
  }

  JsonValue parse_nested(JsonValue (JsonParser::*parse)()) {
    if (depth_ == kMaxJsonDepth) {
      std::ostringstream msg;
      msg << "shard_io: JSON nesting deeper than " << kMaxJsonDepth
          << " levels at offset " << i_;
      throw std::invalid_argument(msg.str());
    }
    ++depth_;
    JsonValue v = (this->*parse)();
    --depth_;
    return v;
  }

  JsonValue parse_literal() {
    JsonValue v;
    if (consume_literal("true")) {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
    } else if (consume_literal("false")) {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = false;
    } else if (consume_literal("null")) {
      v.kind = JsonValue::Kind::kNull;
    } else {
      fail("bad literal");
    }
    return v;
  }

  JsonValue parse_number() {
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    if (peek() == '-') {
      v.negative = true;
      ++i_;
    }
    if (i_ >= s_.size() || s_[i_] < '0' || s_[i_] > '9') fail("bad number");
    std::uint64_t mag = 0;
    while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') {
      std::uint64_t digit = static_cast<std::uint64_t>(s_[i_] - '0');
      if (mag > (0xffffffffffffffffULL - digit) / 10) fail("integer overflow");
      mag = mag * 10 + digit;
      ++i_;
    }
    if (i_ < s_.size() && (s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E')) {
      fail("float literal (doubles must be hex strings)");
    }
    v.magnitude = mag;
    return v;
  }

  JsonValue parse_string() {
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    expect('"');
    while (true) {
      if (i_ >= s_.size()) fail("unterminated string");
      char c = s_[i_++];
      if (c == '"') break;
      if (c == '\\') {
        if (i_ >= s_.size()) fail("unterminated escape");
        char e = s_[i_++];
        switch (e) {
          case '"': v.text.push_back('"'); break;
          case '\\': v.text.push_back('\\'); break;
          case '/': v.text.push_back('/'); break;
          case 'n': v.text.push_back('\n'); break;
          case 't': v.text.push_back('\t'); break;
          case 'r': v.text.push_back('\r'); break;
          default: fail("unsupported escape");
        }
      } else {
        v.text.push_back(c);
      }
    }
    return v;
  }

  JsonValue parse_array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++i_;
      return v;
    }
    while (true) {
      v.items.push_back(parse_value());
      skip_ws();
      char c = peek();
      ++i_;
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']'");
    }
    return v;
  }

  JsonValue parse_object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++i_;
      return v;
    }
    while (true) {
      skip_ws();
      JsonValue key = parse_string();
      skip_ws();
      expect(':');
      JsonValue val = parse_value();
      v.members.emplace_back(std::move(key.text), std::move(val));
      skip_ws();
      char c = peek();
      ++i_;
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}'");
    }
    return v;
  }

  std::string_view s_;
  std::size_t i_ = 0;
  std::size_t depth_ = 0;  // open arrays and objects around the cursor
};

// ---------------------------------------------- aggregate <-> JSON pieces

void append_bootstrap(std::string& out, const stats::BootstrapResult& ci) {
  out += "{\"estimate\":";
  append_hex_double(out, ci.estimate);
  out += ",\"lo\":";
  append_hex_double(out, ci.lo);
  out += ",\"hi\":";
  append_hex_double(out, ci.hi);
  out.push_back('}');
}

stats::BootstrapResult parse_bootstrap(const JsonValue& v) {
  stats::BootstrapResult ci;
  ci.estimate = v.at("estimate").as_hex_double();
  ci.lo = v.at("lo").as_hex_double();
  ci.hi = v.at("hi").as_hex_double();
  return ci;
}

void append_confusion(std::string& out, const classify::ConfusionMatrix& cm) {
  out += "{\"classes\":";
  append_u64(out, cm.num_classes());
  out += ",\"counts\":[";
  const auto n = static_cast<int>(cm.num_classes());
  bool first = true;
  for (int t = 0; t < n; ++t) {
    for (int p = 0; p < n; ++p) {
      if (!first) out.push_back(',');
      first = false;
      append_u64(out, cm.count(t, p));
    }
  }
  out += "]}";
}

classify::ConfusionMatrix parse_confusion(const JsonValue& v) {
  const auto classes = v.at("classes").as_size();
  if (classes == 0) throw std::invalid_argument("shard_io: confusion with 0 classes");
  classify::ConfusionMatrix cm(classes);
  const auto& counts = v.at("counts").as_array();
  if (counts.size() != classes * classes) {
    throw std::invalid_argument("shard_io: confusion counts size mismatch");
  }
  for (std::size_t t = 0; t < classes; ++t) {
    for (std::size_t p = 0; p < classes; ++p) {
      std::uint64_t c = counts[t * classes + p].as_u64();
      if (c != 0) {
        cm.add_count(static_cast<int>(t), static_cast<int>(p), c);
      }
    }
  }
  return cm;
}

void append_optional_hex(std::string& out, const std::optional<double>& x) {
  if (x.has_value()) {
    append_hex_double(out, *x);
  } else {
    out += "null";
  }
}

std::optional<double> parse_optional_hex(const JsonValue& v) {
  if (v.is_null()) return std::nullopt;
  return v.as_hex_double();
}

void append_feature_outcome(std::string& out, const FeatureOutcome& f) {
  out += "{\"feature\":";
  append_u64(out, static_cast<std::uint64_t>(f.feature));
  out += ",\"rate\":";
  append_hex_double(out, f.detection_rate);
  out += ",\"ci\":";
  append_bootstrap(out, f.ci);
  out += ",\"confusion\":";
  append_confusion(out, f.confusion);
  out += ",\"predicted\":";
  append_optional_hex(out, f.predicted);
  out.push_back('}');
}

FeatureOutcome parse_feature_outcome(const JsonValue& v) {
  FeatureOutcome f;
  const auto kind = v.at("feature").as_u64();
  if (kind > static_cast<std::uint64_t>(classify::FeatureKind::kInterquartileRange)) {
    throw std::invalid_argument("shard_io: unknown feature kind");
  }
  f.feature = static_cast<classify::FeatureKind>(kind);
  f.detection_rate = v.at("rate").as_hex_double();
  f.ci = parse_bootstrap(v.at("ci"));
  f.confusion = parse_confusion(v.at("confusion"));
  f.predicted = parse_optional_hex(v.at("predicted"));
  return f;
}

void append_cpd_outcome(std::string& out, const classify::CpdOutcome& c) {
  out += "{\"kind\":";
  append_u64(out, static_cast<std::uint64_t>(c.kind));
  out += ",\"threshold\":";
  append_hex_double(out, c.threshold);
  out += ",\"detected\":";
  append_bool(out, c.ttd.detected);
  out += ",\"n_at_detection\":";
  append_u64(out, c.ttd.n_at_detection);
  out += ",\"false_alarms\":";
  append_u64(out, c.ttd.false_alarms);
  out.push_back('}');
}

classify::CpdOutcome parse_cpd_outcome(const JsonValue& v) {
  classify::CpdOutcome c;
  const auto kind = v.at("kind").as_u64();
  if (kind > static_cast<std::uint64_t>(classify::CpdKind::kAdaptiveEwma)) {
    throw std::invalid_argument("shard_io: unknown cpd kind");
  }
  c.kind = static_cast<classify::CpdKind>(kind);
  c.threshold = v.at("threshold").as_hex_double();
  c.ttd.detected = v.at("detected").as_bool();
  c.ttd.n_at_detection = v.at("n_at_detection").as_size();
  c.ttd.false_alarms = v.at("false_alarms").as_size();
  return c;
}

void append_sample_point(std::string& out, const SampleSizePoint& p) {
  out += "{\"n\":";
  append_u64(out, p.sample_size);
  out += ",\"train\":";
  append_u64(out, p.train_windows);
  out += ",\"test\":";
  append_u64(out, p.test_windows);
  out += ",\"r_hat\":";
  append_hex_double(out, p.r_hat);
  out += ",\"per_feature\":[";
  for (std::size_t i = 0; i < p.per_feature.size(); ++i) {
    if (i != 0) out.push_back(',');
    append_feature_outcome(out, p.per_feature[i]);
  }
  out += "],\"cpd\":[";
  for (std::size_t i = 0; i < p.cpd.size(); ++i) {
    if (i != 0) out.push_back(',');
    append_cpd_outcome(out, p.cpd[i]);
  }
  out += "]}";
}

SampleSizePoint parse_sample_point(const JsonValue& v) {
  SampleSizePoint p;
  p.sample_size = v.at("n").as_size();
  p.train_windows = v.at("train").as_size();
  p.test_windows = v.at("test").as_size();
  p.r_hat = v.at("r_hat").as_hex_double();
  for (const auto& f : v.at("per_feature").as_array()) {
    p.per_feature.push_back(parse_feature_outcome(f));
  }
  for (const auto& c : v.at("cpd").as_array()) {
    p.cpd.push_back(parse_cpd_outcome(c));
  }
  return p;
}

void append_stream_overhead(std::string& out, const StreamOverhead& o) {
  out += "{\"payload\":";
  append_u64(out, o.payload_packets);
  out += ",\"dummy\":";
  append_u64(out, o.dummy_packets);
  out += ",\"suppressed\":";
  append_u64(out, o.suppressed_fires);
  out += ",\"wire_bps\":";
  append_hex_double(out, o.wire_bps);
  out += ",\"padding_bps\":";
  append_hex_double(out, o.padding_bps);
  out += ",\"dummy_fraction\":";
  append_hex_double(out, o.dummy_fraction);
  out += ",\"delay_mean\":";
  append_hex_double(out, o.delay_mean);
  out += ",\"delay_p50\":";
  append_hex_double(out, o.delay_p50);
  out += ",\"delay_p95\":";
  append_hex_double(out, o.delay_p95);
  out += ",\"delay_p99\":";
  append_hex_double(out, o.delay_p99);
  out.push_back('}');
}

StreamOverhead parse_stream_overhead(const JsonValue& v) {
  StreamOverhead o;
  o.payload_packets = v.at("payload").as_u64();
  o.dummy_packets = v.at("dummy").as_u64();
  o.suppressed_fires = v.at("suppressed").as_u64();
  o.wire_bps = v.at("wire_bps").as_hex_double();
  o.padding_bps = v.at("padding_bps").as_hex_double();
  o.dummy_fraction = v.at("dummy_fraction").as_hex_double();
  o.delay_mean = v.at("delay_mean").as_hex_double();
  o.delay_p50 = v.at("delay_p50").as_hex_double();
  o.delay_p95 = v.at("delay_p95").as_hex_double();
  o.delay_p99 = v.at("delay_p99").as_hex_double();
  return o;
}

void append_experiment_result(std::string& out, const ExperimentResult& r) {
  out += "{\"rate\":";
  append_hex_double(out, r.detection_rate);
  out += ",\"ci\":";
  append_bootstrap(out, r.ci);
  out += ",\"confusion\":";
  append_confusion(out, r.confusion);
  out += ",\"r_hat\":";
  append_hex_double(out, r.r_hat);
  out += ",\"predicted\":";
  append_optional_hex(out, r.predicted);
  out += ",\"piat\":[";
  append_hex_double(out, r.piat_mean_low);
  out.push_back(',');
  append_hex_double(out, r.piat_mean_high);
  out.push_back(',');
  append_hex_double(out, r.piat_var_low);
  out.push_back(',');
  append_hex_double(out, r.piat_var_high);
  out += "],\"per_feature\":[";
  for (std::size_t i = 0; i < r.per_feature.size(); ++i) {
    if (i != 0) out.push_back(',');
    append_feature_outcome(out, r.per_feature[i]);
  }
  out += "],\"cpd\":[";
  for (std::size_t i = 0; i < r.cpd.size(); ++i) {
    if (i != 0) out.push_back(',');
    append_cpd_outcome(out, r.cpd[i]);
  }
  out += "],\"by_sample_size\":[";
  for (std::size_t i = 0; i < r.by_sample_size.size(); ++i) {
    if (i != 0) out.push_back(',');
    append_sample_point(out, r.by_sample_size[i]);
  }
  out += "],\"overhead_per_class\":[";
  for (std::size_t i = 0; i < r.overhead_per_class.size(); ++i) {
    if (i != 0) out.push_back(',');
    append_stream_overhead(out, r.overhead_per_class[i]);
  }
  out += "]}";
}

ExperimentResult parse_experiment_result(const JsonValue& v) {
  ExperimentResult r;
  r.detection_rate = v.at("rate").as_hex_double();
  r.ci = parse_bootstrap(v.at("ci"));
  r.confusion = parse_confusion(v.at("confusion"));
  r.r_hat = v.at("r_hat").as_hex_double();
  r.predicted = parse_optional_hex(v.at("predicted"));
  const auto& piat = v.at("piat").as_array();
  if (piat.size() != 4) throw std::invalid_argument("shard_io: bad piat tuple");
  r.piat_mean_low = piat[0].as_hex_double();
  r.piat_mean_high = piat[1].as_hex_double();
  r.piat_var_low = piat[2].as_hex_double();
  r.piat_var_high = piat[3].as_hex_double();
  r.per_feature.clear();
  for (const auto& f : v.at("per_feature").as_array()) {
    r.per_feature.push_back(parse_feature_outcome(f));
  }
  for (const auto& c : v.at("cpd").as_array()) {
    r.cpd.push_back(parse_cpd_outcome(c));
  }
  for (const auto& p : v.at("by_sample_size").as_array()) {
    r.by_sample_size.push_back(parse_sample_point(p));
  }
  for (const auto& o : v.at("overhead_per_class").as_array()) {
    r.overhead_per_class.push_back(parse_stream_overhead(o));
  }
  return r;
}

void append_flow_overhead(std::string& out, const FlowOverhead& o) {
  out += "{\"has_cost\":";
  append_bool(out, o.has_cost);
  out += ",\"padding_bps\":";
  append_hex_double(out, o.padding_bps);
  out += ",\"wire_bps\":";
  append_hex_double(out, o.wire_bps);
  out += ",\"dummy_fraction\":";
  append_hex_double(out, o.dummy_fraction);
  out += ",\"has_delay\":";
  append_bool(out, o.has_delay);
  out += ",\"delay_p95\":";
  append_hex_double(out, o.delay_p95);
  out.push_back('}');
}

FlowOverhead parse_flow_overhead(const JsonValue& v) {
  FlowOverhead o;
  o.has_cost = v.at("has_cost").as_bool();
  o.padding_bps = v.at("padding_bps").as_hex_double();
  o.wire_bps = v.at("wire_bps").as_hex_double();
  o.dummy_fraction = v.at("dummy_fraction").as_hex_double();
  o.has_delay = v.at("has_delay").as_bool();
  o.delay_p95 = v.at("delay_p95").as_hex_double();
  return o;
}

void append_flow_cpd(std::string& out, const FlowCpd& c) {
  out += "{\"detected\":";
  append_bool(out, c.detected);
  out += ",\"n_at_detection\":";
  append_u64(out, c.n_at_detection);
  out += ",\"false_alarms\":";
  append_u64(out, c.false_alarms);
  out += ",\"threshold\":";
  append_hex_double(out, c.threshold);
  out.push_back('}');
}

FlowCpd parse_flow_cpd(const JsonValue& v) {
  FlowCpd c;
  c.detected = v.at("detected").as_bool();
  c.n_at_detection = v.at("n_at_detection").as_size();
  c.false_alarms = v.at("false_alarms").as_size();
  c.threshold = v.at("threshold").as_hex_double();
  return c;
}

ChunkAggregate parse_chunk_line(const JsonValue& v, std::size_t* chunk_id) {
  *chunk_id = v.at("chunk").as_size();
  ChunkAggregate chunk;
  chunk.first_flow = v.at("first_flow").as_size();
  for (const auto& row : v.at("rates").as_array()) {
    std::vector<double> rates;
    for (const auto& r : row.as_array()) rates.push_back(r.as_hex_double());
    chunk.rates.push_back(std::move(rates));
  }
  for (const auto& o : v.at("overhead").as_array()) {
    chunk.overhead.push_back(parse_flow_overhead(o));
  }
  for (const auto& k : v.at("cpd_kinds").as_array()) {
    const auto kind = k.as_u64();
    if (kind > static_cast<std::uint64_t>(classify::CpdKind::kAdaptiveEwma)) {
      throw std::invalid_argument("shard_io: unknown cpd kind in chunk");
    }
    chunk.cpd_kinds.push_back(static_cast<classify::CpdKind>(kind));
  }
  for (const auto& row : v.at("cpd").as_array()) {
    std::vector<FlowCpd> flows;
    for (const auto& c : row.as_array()) flows.push_back(parse_flow_cpd(c));
    chunk.cpd.push_back(std::move(flows));
  }
  for (const auto& r : v.at("per_flow").as_array()) {
    chunk.per_flow.push_back(parse_experiment_result(r));
  }
  return chunk;
}

// Validate one chunk against the (executed_flows, grain) partition and the
// header's axis; `chunk_id` must be the partition slot its first_flow
// implies. A sampled campaign partitions the m executed slots, not the
// deployed M.
void validate_chunk(const PopulationShard& header, std::size_t chunk_id,
                    const ChunkAggregate& chunk) {
  const std::size_t executed = header.executed_flows();
  const std::size_t total = population_chunk_count(executed, header.grain);
  if (chunk_id >= total) {
    throw std::invalid_argument("shard_io: chunk id beyond partition");
  }
  const std::size_t begin = chunk_id * header.grain;
  const std::size_t end = std::min(executed, begin + header.grain);
  if (chunk.first_flow != begin || chunk.flow_count() != end - begin) {
    throw std::invalid_argument("shard_io: chunk does not match the (flows, grain) partition");
  }
  if (chunk.rates.size() != header.sample_sizes.size()) {
    throw std::invalid_argument("shard_io: chunk rates axis mismatch");
  }
  for (const auto& row : chunk.rates) {
    if (row.size() != chunk.flow_count()) {
      throw std::invalid_argument("shard_io: chunk rates row size mismatch");
    }
  }
  if (chunk.cpd.size() != chunk.cpd_kinds.size()) {
    throw std::invalid_argument("shard_io: chunk cpd rows do not match cpd_kinds");
  }
  for (const auto& row : chunk.cpd) {
    if (row.size() != chunk.flow_count()) {
      throw std::invalid_argument("shard_io: chunk cpd row size mismatch");
    }
  }
  if (!chunk.per_flow.empty() && chunk.per_flow.size() != chunk.flow_count()) {
    throw std::invalid_argument("shard_io: chunk per_flow size mismatch");
  }
  if (header.keep_per_flow != !chunk.per_flow.empty()) {
    throw std::invalid_argument("shard_io: chunk keep_per_flow disagrees with header");
  }
}

PopulationShard parse_shard_header_line(const JsonValue& v) {
  PopulationShard shard;
  shard.version = v.at("linkpad_shard").as_u64();
  if (shard.version != kShardFormatVersion) {
    std::ostringstream msg;
    msg << "shard_io: shard format version " << shard.version
        << " is not the supported version " << kShardFormatVersion;
    throw std::invalid_argument(msg.str());
  }
  shard.shard_index = v.at("shard_index").as_size();
  shard.shard_count = v.at("shard_count").as_size();
  shard.flows = v.at("flows").as_size();
  shard.grain = v.at("grain").as_size();
  shard.sample_flows = v.at("sample_flows").as_size();
  shard.sample_round = v.at("sample_round").as_size();
  for (const auto& n : v.at("sample_sizes").as_array()) {
    shard.sample_sizes.push_back(n.as_size());
  }
  shard.detection_threshold = v.at("detection_threshold").as_hex_double();
  shard.mean_interval = v.at("mean_interval").as_hex_double();
  shard.seed = v.at("seed").as_u64();
  shard.keep_per_flow = v.at("keep_per_flow").as_bool();
  if (shard.shard_count == 0 || shard.shard_index >= shard.shard_count) {
    throw std::invalid_argument("shard_io: bad shard coordinates in header");
  }
  if (shard.flows == 0 || shard.grain == 0) {
    throw std::invalid_argument("shard_io: bad partition parameters in header");
  }
  if (shard.sample_flows == 0) {
    if (shard.sample_round != 0) {
      throw std::invalid_argument(
          "shard_io: exhaustive header carries a sample round");
    }
  } else if (shard.sample_flows > shard.flows ||
             shard.sample_round >
                 (shard.flows - shard.sample_flows) / shard.sample_flows) {
    throw std::invalid_argument("shard_io: bad sampled-subset fields in header");
  }
  return shard;
}

// Atomically replace `path` with `text`: write to `path`.tmp, flush, close,
// rename over the target. The rename is the commit point, so a reader (or a
// resume after SIGKILL) sees either the previous complete file or the new
// one — never a torn hybrid.
void atomic_write_file(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("shard_io: cannot open " + tmp + " for writing");
    }
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.flush();
    if (!out) {
      throw std::runtime_error("shard_io: short write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("shard_io: rename " + tmp + " -> " + path + " failed");
  }
}

}  // namespace

// ------------------------------------------------------------ exact doubles

std::string encode_double(double x) {
  auto bits = std::bit_cast<std::uint64_t>(x);
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHexDigits[bits & 0xF];
    bits >>= 4;
  }
  return out;
}

double decode_double(const std::string& hex) {
  if (hex.size() != 16) {
    throw std::invalid_argument("shard_io: hex double must be 16 digits, got \"" +
                                hex + "\"");
  }
  std::uint64_t bits = 0;
  for (char c : hex) {
    std::uint64_t nibble = 0;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<std::uint64_t>(c - 'a') + 10;
    } else {
      throw std::invalid_argument("shard_io: bad hex digit in double \"" + hex +
                                  "\"");
    }
    bits = (bits << 4) | nibble;
  }
  return std::bit_cast<double>(bits);
}

// ------------------------------------------------------------- shard model

std::vector<std::size_t> PopulationShard::owned_chunk_ids() const {
  const std::size_t total = population_chunk_count(executed_flows(), grain);
  std::vector<std::size_t> ids;
  for (std::size_t c = shard_index; c < total; c += shard_count) ids.push_back(c);
  return ids;
}

bool PopulationShard::same_campaign(const PopulationShard& other) const {
  return version == other.version && shard_count == other.shard_count &&
         flows == other.flows && grain == other.grain &&
         sample_flows == other.sample_flows &&
         sample_round == other.sample_round &&
         sample_sizes == other.sample_sizes &&
         std::bit_cast<std::uint64_t>(detection_threshold) ==
             std::bit_cast<std::uint64_t>(other.detection_threshold) &&
         std::bit_cast<std::uint64_t>(mean_interval) ==
             std::bit_cast<std::uint64_t>(other.mean_interval) &&
         seed == other.seed && keep_per_flow == other.keep_per_flow;
}

PopulationShard make_shard_header(const PopulationSpec& spec,
                                  const SweepOptions& options) {
  LINKPAD_EXPECTS(options.shard_count >= 1);
  LINKPAD_EXPECTS(options.shard_index < options.shard_count);
  PopulationShard shard;
  shard.shard_index = options.shard_index;
  shard.shard_count = options.shard_count;
  shard.flows = spec.flows;
  shard.grain = resolved_flow_grain(spec.executed_flows(), options.grain);
  shard.sample_flows = spec.sample_flows;
  shard.sample_round = spec.sample_round;
  shard.sample_sizes = spec.experiment.sample_sizes();
  shard.detection_threshold = spec.detection_threshold;
  shard.mean_interval = spec.experiment.scenario.base.policy->mean_interval();
  shard.seed = spec.seed;
  shard.keep_per_flow = spec.keep_per_flow;
  return shard;
}

// ---------------------------------------------------------- serialization

std::string serialize_shard_header(const PopulationShard& shard) {
  std::string out = "{\"linkpad_shard\":";
  append_u64(out, shard.version);
  out += ",\"shard_index\":";
  append_u64(out, shard.shard_index);
  out += ",\"shard_count\":";
  append_u64(out, shard.shard_count);
  out += ",\"flows\":";
  append_u64(out, shard.flows);
  out += ",\"grain\":";
  append_u64(out, shard.grain);
  out += ",\"sample_flows\":";
  append_u64(out, shard.sample_flows);
  out += ",\"sample_round\":";
  append_u64(out, shard.sample_round);
  out += ",\"sample_sizes\":[";
  for (std::size_t i = 0; i < shard.sample_sizes.size(); ++i) {
    if (i != 0) out.push_back(',');
    append_u64(out, shard.sample_sizes[i]);
  }
  out += "],\"detection_threshold\":";
  append_hex_double(out, shard.detection_threshold);
  out += ",\"mean_interval\":";
  append_hex_double(out, shard.mean_interval);
  out += ",\"seed\":";
  append_u64(out, shard.seed);
  out += ",\"keep_per_flow\":";
  append_bool(out, shard.keep_per_flow);
  out.push_back('}');
  return out;
}

std::string serialize_chunk(std::size_t chunk_id, const ChunkAggregate& chunk) {
  std::string out = "{\"chunk\":";
  append_u64(out, chunk_id);
  out += ",\"first_flow\":";
  append_u64(out, chunk.first_flow);
  out += ",\"rates\":[";
  for (std::size_t i = 0; i < chunk.rates.size(); ++i) {
    if (i != 0) out.push_back(',');
    out.push_back('[');
    for (std::size_t j = 0; j < chunk.rates[i].size(); ++j) {
      if (j != 0) out.push_back(',');
      append_hex_double(out, chunk.rates[i][j]);
    }
    out.push_back(']');
  }
  out += "],\"overhead\":[";
  for (std::size_t i = 0; i < chunk.overhead.size(); ++i) {
    if (i != 0) out.push_back(',');
    append_flow_overhead(out, chunk.overhead[i]);
  }
  out += "],\"cpd_kinds\":[";
  for (std::size_t i = 0; i < chunk.cpd_kinds.size(); ++i) {
    if (i != 0) out.push_back(',');
    append_u64(out, static_cast<std::uint64_t>(chunk.cpd_kinds[i]));
  }
  out += "],\"cpd\":[";
  for (std::size_t i = 0; i < chunk.cpd.size(); ++i) {
    if (i != 0) out.push_back(',');
    out.push_back('[');
    for (std::size_t j = 0; j < chunk.cpd[i].size(); ++j) {
      if (j != 0) out.push_back(',');
      append_flow_cpd(out, chunk.cpd[i][j]);
    }
    out.push_back(']');
  }
  out += "],\"per_flow\":[";
  for (std::size_t i = 0; i < chunk.per_flow.size(); ++i) {
    if (i != 0) out.push_back(',');
    append_experiment_result(out, chunk.per_flow[i]);
  }
  out += "]}";
  return out;
}

std::string serialize_shard(const PopulationShard& shard) {
  std::string out = serialize_shard_header(shard);
  out.push_back('\n');
  for (const auto& chunk : shard.chunks) {
    out += serialize_chunk(chunk.first_flow / shard.grain, chunk);
    out.push_back('\n');
  }
  return out;
}

PopulationShard parse_shard(const std::string& text, bool tolerate_partial_tail) {
  // Split into lines; a file killed mid-append may lack the final newline.
  std::vector<std::string_view> lines;
  std::string_view rest = text;
  while (!rest.empty()) {
    const std::size_t nl = rest.find('\n');
    if (nl == std::string_view::npos) {
      lines.push_back(rest);
      break;
    }
    lines.push_back(rest.substr(0, nl));
    rest.remove_prefix(nl + 1);
  }
  while (!lines.empty() && lines.back().empty()) lines.pop_back();
  if (lines.empty()) {
    throw std::invalid_argument("shard_io: empty shard file");
  }

  PopulationShard shard =
      parse_shard_header_line(JsonParser(lines.front()).parse());

  std::map<std::size_t, ChunkAggregate> chunks;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const bool last = i + 1 == lines.size();
    std::size_t chunk_id = 0;
    ChunkAggregate chunk;
    try {
      chunk = parse_chunk_line(JsonParser(lines[i]).parse(), &chunk_id);
      validate_chunk(shard, chunk_id, chunk);
    } catch (const std::invalid_argument&) {
      if (tolerate_partial_tail && last) break;  // torn tail of a killed worker
      throw;
    }
    if (chunk_id % shard.shard_count != shard.shard_index) {
      throw std::invalid_argument("shard_io: chunk does not belong to this shard");
    }
    if (!chunks.emplace(chunk_id, std::move(chunk)).second) {
      throw std::invalid_argument("shard_io: duplicate chunk in shard file");
    }
  }

  shard.chunks.reserve(chunks.size());
  for (auto& [id, chunk] : chunks) shard.chunks.push_back(std::move(chunk));
  return shard;
}

void write_shard_file(const std::string& path, const PopulationShard& shard) {
  atomic_write_file(path, serialize_shard(shard));
}

PopulationShard read_shard_file(const std::string& path,
                                bool tolerate_partial_tail) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("shard_io: cannot open shard file " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_shard(buf.str(), tolerate_partial_tail);
}

// -------------------------------------------------------------- execution

PopulationShard run_population_shard(const PopulationSpec& spec,
                                     const ExperimentBackend& backend,
                                     const SweepOptions& options,
                                     const ShardRunOptions& durability) {
  PopulationShard shard = make_shard_header(spec, options);

  // Chunks already durable from a previous (possibly killed) run, plus
  // their serialized lines so checkpoint rewrites reuse identical bytes.
  std::map<std::size_t, ChunkAggregate> completed;
  std::map<std::size_t, std::string> lines;
  if (durability.resume && !durability.checkpoint_path.empty()) {
    std::ifstream probe(durability.checkpoint_path, std::ios::binary);
    if (probe) {
      probe.close();
      PopulationShard prev =
          read_shard_file(durability.checkpoint_path, /*tolerate_partial_tail=*/true);
      if (!prev.same_campaign(shard) || prev.shard_index != shard.shard_index) {
        throw std::invalid_argument(
            "shard_io: checkpoint " + durability.checkpoint_path +
            " belongs to a different campaign or shard — refusing to resume");
      }
      for (auto& chunk : prev.chunks) {
        const std::size_t id = chunk.first_flow / shard.grain;
        lines.emplace(id, serialize_chunk(id, chunk));
        completed.emplace(id, std::move(chunk));
      }
    }
  }

  std::vector<std::size_t> missing;
  for (std::size_t id : shard.owned_chunk_ids()) {
    if (completed.find(id) == completed.end()) missing.push_back(id);
  }

  const std::string header_line = serialize_shard_header(shard);
  const std::size_t owned_total = shard.owned_chunk_ids().size();
  std::size_t chunks_done = completed.size();  // resumed chunks count as done
  std::function<void(std::size_t, const ChunkAggregate&)> on_chunk;
  if (!durability.checkpoint_path.empty() || durability.chunk_progress) {
    // run_chunks serializes on_chunk invocations, so the maps need no lock.
    // Rewriting the whole file per chunk keeps the on-disk bytes a pure
    // function of the completed set: sorted by chunk id, independent of
    // completion order, so kill + resume converges to the uninterrupted
    // file byte for byte. chunk_progress fires AFTER the checkpoint commit,
    // so a reported count is always durable.
    on_chunk = [&](std::size_t id, const ChunkAggregate& chunk) {
      if (!durability.checkpoint_path.empty()) {
        lines.emplace(id, serialize_chunk(id, chunk));
        std::string text = header_line;
        text.push_back('\n');
        for (const auto& [cid, line] : lines) {
          (void)cid;
          text += line;
          text.push_back('\n');
        }
        atomic_write_file(durability.checkpoint_path, text);
      }
      ++chunks_done;
      if (durability.chunk_progress) {
        durability.chunk_progress(chunks_done, owned_total);
      }
    };
  }
  if (durability.chunk_progress) {
    // Report the resumed baseline immediately so a restarted worker is
    // never silent before its first fresh chunk.
    durability.chunk_progress(chunks_done, owned_total);
  }

  SweepOptions engine_options = options;
  engine_options.shard_index = 0;  // run_chunks takes explicit ids
  engine_options.shard_count = 1;
  PopulationEngine engine(backend, std::move(engine_options));
  std::vector<ChunkAggregate> fresh = engine.run_chunks(spec, missing, on_chunk);
  for (std::size_t i = 0; i < missing.size(); ++i) {
    completed.emplace(missing[i], std::move(fresh[i]));
  }

  shard.chunks.reserve(completed.size());
  for (auto& [id, chunk] : completed) {
    (void)id;
    shard.chunks.push_back(std::move(chunk));
  }
  if (!durability.checkpoint_path.empty()) {
    // Cover the nothing-missing path (pure resume) and guarantee the final
    // file exists even for a shard that owns zero chunks.
    write_shard_file(durability.checkpoint_path, shard);
  }
  return shard;
}

PopulationShard run_population_shard(const PopulationSpec& spec,
                                     const SweepOptions& options,
                                     const ShardRunOptions& durability) {
  return run_population_shard(spec, sim_backend(), options, durability);
}

// ------------------------------------------------------------------ merge

PopulationResult merge_shards(std::vector<PopulationShard> shards) {
  LINKPAD_EXPECTS(!shards.empty());
  const PopulationShard& head = shards.front();
  for (const auto& shard : shards) {
    if (!shard.same_campaign(head)) {
      throw std::invalid_argument(
          "shard_io: shards describe different campaigns — refusing to merge");
    }
  }

  // Reassemble the full chunk sequence in execution order and check it
  // covers the (executed_flows, grain) partition exactly once.
  std::vector<ChunkAggregate> chunks;
  for (auto& shard : shards) {
    for (auto& chunk : shard.chunks) chunks.push_back(std::move(chunk));
  }
  std::sort(chunks.begin(), chunks.end(),
            [](const ChunkAggregate& a, const ChunkAggregate& b) {
              return a.first_flow < b.first_flow;
            });
  std::size_t expect_flow = 0;
  for (const auto& chunk : chunks) {
    if (chunk.first_flow != expect_flow) {
      std::ostringstream msg;
      msg << "shard_io: merge needs the chunk starting at flow " << expect_flow
          << " but the next chunk starts at flow " << chunk.first_flow
          << " — a shard is missing or incomplete";
      throw std::invalid_argument(msg.str());
    }
    expect_flow += chunk.flow_count();
  }
  const std::size_t executed = head.executed_flows();
  if (expect_flow != executed) {
    std::ostringstream msg;
    msg << "shard_io: merged chunks cover " << expect_flow << " of "
        << executed << " flows — a shard is missing or incomplete";
    throw std::invalid_argument(msg.str());
  }

  // Same deterministic reduction + single finalize as the 1-process run.
  ChunkAggregate all = util::tree_reduce(
      std::move(chunks),
      [](ChunkAggregate& left, ChunkAggregate& right) { left.merge(right); });
  std::optional<SampledFinalize> sampled;
  if (head.sample_flows != 0) {
    sampled.emplace();
    sampled->population = head.flows;
    sampled->flow_ids = sampled_flow_ids(head.flows, head.sample_flows,
                                         head.sample_round, head.seed);
  }
  return finalize_population(std::move(all), executed, head.sample_sizes,
                             head.detection_threshold, head.mean_interval,
                             sampled ? &*sampled : nullptr);
}

PopulationResult merge_shard_files(const std::vector<std::string>& paths) {
  std::vector<PopulationShard> shards;
  shards.reserve(paths.size());
  for (const auto& path : paths) shards.push_back(read_shard_file(path));
  return merge_shards(std::move(shards));
}

// ------------------------------------------------------- stats state JSON

std::string serialize_quantile_state(const stats::P2Quantile::State& state) {
  std::string out = "{\"q\":";
  append_hex_double(out, state.quantile);
  out += ",\"count\":";
  append_u64(out, state.count);
  const std::pair<const char*, const std::array<double, 5>*> arrays[] = {
      {"heights", &state.heights},
      {"positions", &state.positions},
      {"desired", &state.desired},
      {"rate", &state.rate},
  };
  for (const auto& [name, values] : arrays) {
    out += ",\"";
    out += name;
    out += "\":[";
    for (std::size_t i = 0; i < values->size(); ++i) {
      if (i != 0) out.push_back(',');
      append_hex_double(out, (*values)[i]);
    }
    out.push_back(']');
  }
  out.push_back('}');
  return out;
}

stats::P2Quantile::State parse_quantile_state(const std::string& text) {
  const JsonValue v = JsonParser(text).parse();
  stats::P2Quantile::State state;
  state.quantile = v.at("q").as_hex_double();
  state.count = v.at("count").as_size();
  const auto fill = [&v](const char* key, std::array<double, 5>& dst) {
    const auto& arr = v.at(key).as_array();
    if (arr.size() != dst.size()) {
      throw std::invalid_argument("shard_io: P2 marker array size mismatch");
    }
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = arr[i].as_hex_double();
  };
  fill("heights", state.heights);
  fill("positions", state.positions);
  fill("desired", state.desired);
  fill("rate", state.rate);
  return state;
}

std::string serialize_running_stats(const stats::RunningStats::State& state) {
  std::string out = "{\"count\":";
  append_u64(out, state.count);
  out += ",\"mean\":";
  append_hex_double(out, state.mean);
  out += ",\"m2\":";
  append_hex_double(out, state.m2);
  out += ",\"m3\":";
  append_hex_double(out, state.m3);
  out += ",\"m4\":";
  append_hex_double(out, state.m4);
  out += ",\"min\":";
  append_hex_double(out, state.min);
  out += ",\"max\":";
  append_hex_double(out, state.max);
  out.push_back('}');
  return out;
}

stats::RunningStats::State parse_running_stats(const std::string& text) {
  const JsonValue v = JsonParser(text).parse();
  stats::RunningStats::State state;
  state.count = v.at("count").as_size();
  state.mean = v.at("mean").as_hex_double();
  state.m2 = v.at("m2").as_hex_double();
  state.m3 = v.at("m3").as_hex_double();
  state.m4 = v.at("m4").as_hex_double();
  state.min = v.at("min").as_hex_double();
  state.max = v.at("max").as_hex_double();
  return state;
}

std::string serialize_histogram(const stats::Histogram& h) {
  std::string out = "{\"lo\":";
  append_hex_double(out, h.lo());
  out += ",\"hi\":";
  append_hex_double(out, h.hi());
  out += ",\"counts\":[";
  for (std::size_t i = 0; i < h.bins(); ++i) {
    if (i != 0) out.push_back(',');
    append_u64(out, h.count(i));
  }
  out += "],\"underflow\":";
  append_u64(out, h.underflow());
  out += ",\"overflow\":";
  append_u64(out, h.overflow());
  out.push_back('}');
  return out;
}

stats::Histogram parse_histogram(const std::string& text) {
  const JsonValue v = JsonParser(text).parse();
  std::vector<std::uint64_t> counts;
  for (const auto& c : v.at("counts").as_array()) counts.push_back(c.as_u64());
  return stats::Histogram::from_state(
      v.at("lo").as_hex_double(), v.at("hi").as_hex_double(), std::move(counts),
      v.at("underflow").as_u64(), v.at("overflow").as_u64());
}

std::string serialize_sparse_histogram(const stats::SparseHistogram& h) {
  std::string out = "{\"bin_width\":";
  append_hex_double(out, h.bin_width());
  out += ",\"cells\":[";
  bool first = true;
  for (const auto& [bin, count] : h.cells()) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('[');
    append_i64(out, bin);
    out.push_back(',');
    append_u64(out, count);
    out.push_back(']');
  }
  out += "]}";
  return out;
}

stats::SparseHistogram parse_sparse_histogram(const std::string& text) {
  const JsonValue v = JsonParser(text).parse();
  std::vector<std::pair<std::int64_t, std::uint64_t>> cells;
  for (const auto& cell : v.at("cells").as_array()) {
    const auto& pair = cell.as_array();
    if (pair.size() != 2) {
      throw std::invalid_argument("shard_io: sparse histogram cell must be [bin, count]");
    }
    cells.emplace_back(pair[0].as_i64(), pair[1].as_u64());
  }
  return stats::SparseHistogram::from_cells(v.at("bin_width").as_hex_double(),
                                            cells);
}

// ------------------------------------------------------------- result JSON

namespace {

// Hex bits (authoritative) + a short decimal echo derived from the same
// bits (readable). The echo uses a fixed %.17g so equal bits always render
// equal bytes within one build.
void append_result_double(std::string& out, double x) {
  out += "{\"bits\":";
  append_hex_double(out, x);
  out += ",\"value\":";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  append_json_string(out, buf);
  out.push_back('}');
}

void append_optional_result_double(std::string& out,
                                   const std::optional<double>& x) {
  if (x.has_value()) {
    append_result_double(out, *x);
  } else {
    out += "null";
  }
}

void append_population_estimate(std::string& out,
                                const PopulationEstimate& est) {
  out += "{\"point\": ";
  append_result_double(out, est.point);
  out += ", \"lo\": ";
  append_result_double(out, est.lo);
  out += ", \"hi\": ";
  append_result_double(out, est.hi);
  out += ", \"m\": ";
  append_u64(out, est.m);
  out += ", \"M\": ";
  append_u64(out, est.M);
  out.push_back('}');
}

}  // namespace

std::string population_result_json(const PopulationResult& result) {
  std::string out = "{\n  \"flows\": ";
  append_u64(out, result.flow_count);
  out += ",\n  \"first_detection_n\": ";
  if (result.first_detection_n.has_value()) {
    append_u64(out, *result.first_detection_n);
  } else {
    out += "null";
  }
  out += ",\n  \"time_to_first_detection\": ";
  append_optional_result_double(out, result.time_to_first_detection);
  out += ",\n  \"mean_padding_bps\": ";
  append_optional_result_double(out, result.mean_padding_bps);
  out += ",\n  \"mean_wire_bps\": ";
  append_optional_result_double(out, result.mean_wire_bps);
  out += ",\n  \"mean_dummy_fraction\": ";
  append_optional_result_double(out, result.mean_dummy_fraction);
  out += ",\n  \"worst_delay_p95\": ";
  append_optional_result_double(out, result.worst_delay_p95);
  out += ",\n  \"sampled_from\": ";
  append_u64(out, result.sampled_from);
  out += ",\n  \"estimates\": ";
  if (result.estimates.empty()) {
    out += "null";
  } else {
    out.push_back('[');
    for (std::size_t i = 0; i < result.estimates.size(); ++i) {
      const SampledEstimates& est = result.estimates[i];
      out += i == 0 ? "\n" : ",\n";
      out += "    {\"n\": ";
      append_u64(out, est.sample_size);
      out += ", \"detected_fraction\": ";
      append_population_estimate(out, est.detected_fraction);
      out += ", \"mean_rate\": ";
      append_population_estimate(out, est.mean_rate);
      out += ", \"dkw_epsilon\": ";
      append_result_double(out, est.dkw_epsilon);
      out.push_back('}');
    }
    out += "\n  ]";
  }
  out += ",\n  \"dummy_fraction_estimate\": ";
  if (result.dummy_fraction_estimate.has_value()) {
    append_population_estimate(out, *result.dummy_fraction_estimate);
  } else {
    out += "null";
  }
  out += ",\n  \"by_sample_size\": [";
  for (std::size_t i = 0; i < result.by_sample_size.size(); ++i) {
    const PopulationPoint& p = result.by_sample_size[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"n\": ";
    append_u64(out, p.sample_size);
    out += ", \"detected_fraction\": ";
    append_result_double(out, p.detected_fraction);
    out += ", \"mean_rate\": ";
    append_result_double(out, p.mean_rate);
    out += ", \"min_rate\": ";
    append_result_double(out, p.min_rate);
    out += ", \"max_rate\": ";
    append_result_double(out, p.max_rate);
    out += ", \"worst_flow\": ";
    append_u64(out, p.worst_flow);
    out += ", \"quantiles\": [";
    const double qs[] = {p.quantiles.p05, p.quantiles.p25, p.quantiles.median,
                         p.quantiles.p75, p.quantiles.p95};
    for (std::size_t j = 0; j < 5; ++j) {
      if (j != 0) out += ", ";
      append_result_double(out, qs[j]);
    }
    out += "]}";
  }
  out += result.by_sample_size.empty() ? "]" : "\n  ]";
  out += ",\n  \"cpd\": ";
  if (result.cpd.empty()) {
    out += "null";
  } else {
    out.push_back('[');
    for (std::size_t i = 0; i < result.cpd.size(); ++i) {
      const CpdPopulationPoint& p = result.cpd[i];
      out += i == 0 ? "\n" : ",\n";
      out += "    {\"kind\": \"";
      out += classify::cpd_kind_name(p.kind);
      out += "\", \"mean_threshold\": ";
      append_result_double(out, p.mean_threshold);
      out += ", \"detected_fraction\": ";
      append_result_double(out, p.detected_fraction);
      out += ", \"mean_n_at_detection\": ";
      append_result_double(out, p.mean_n_at_detection);
      out += ", \"min_n_at_detection\": ";
      append_u64(out, p.min_n_at_detection);
      out += ", \"first_exposed_flow\": ";
      append_u64(out, p.first_exposed_flow);
      out += ", \"min_time_to_detection\": ";
      append_optional_result_double(out, p.min_time_to_detection);
      out += ", \"mean_false_alarms\": ";
      append_result_double(out, p.mean_false_alarms);
      out.push_back('}');
    }
    out += "\n  ]";
  }
  out += ",\n  \"per_flow_rates\": ";
  if (result.per_flow.empty()) {
    out += "null";
  } else {
    out.push_back('[');
    for (std::size_t i = 0; i < result.per_flow.size(); ++i) {
      if (i != 0) out.push_back(',');
      out.push_back('"');
      out += encode_double(result.per_flow[i].detection_rate);
      out.push_back('"');
    }
    out.push_back(']');
  }
  out += "\n}\n";
  return out;
}

}  // namespace linkpad::core
