#include "core/shard_io.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>

#include "classify/adversary.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

// ------------------------------------------------------------- field lists
//
// Each wire struct's JSON keys, once, in wire order (core/wire.hpp). The
// irregular pieces are explicit: the confusion-matrix codec, the piat
// 4-tuple, the enum bounds, the "chunk" id that leads each chunk line, and
// the header's version check, which runs before its list decodes.
namespace linkpad::core::wire {

template <class V, Is<stats::BootstrapResult> T>
void fields(V& v, T& ci) {
  v("estimate", ci.estimate);
  v("lo", ci.lo);
  v("hi", ci.hi);
}

// A matrix crosses as its class count and its row-major counts. The reader
// checks the two against each other before it builds the matrix: classes
// >= 2 first (the checks after it divide by classes, and ConfusionMatrix
// refuses fewer classes with a contract violation), then the count of
// counts by division, because a hostile classes * classes can wrap.
template <class V, Is<classify::ConfusionMatrix> T>
void fields(V& v, T& cm) {
  std::size_t classes = cm.num_classes();
  std::vector<std::uint64_t> counts;
  if constexpr (std::is_const_v<T>) {
    counts.reserve(classes * classes);
    for (int t = 0; t < static_cast<int>(classes); ++t) {
      for (int p = 0; p < static_cast<int>(classes); ++p) {
        counts.push_back(cm.count(t, p));
      }
    }
  }
  v("classes", classes);
  v("counts", counts);
  if constexpr (!std::is_const_v<T>) {
    if (classes < 2 || counts.size() % classes != 0 ||
        counts.size() / classes != classes) {
      throw std::invalid_argument(
          "shard_io: confusion counts are not a classes x classes matrix");
    }
    cm = classify::ConfusionMatrix(classes);
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] != 0) {
        cm.add_count(static_cast<int>(i / classes),
                     static_cast<int>(i % classes), counts[i]);
      }
    }
  }
}

template <class V, Is<FeatureOutcome> T>
void fields(V& v, T& f) {
  v("feature", f.feature, classify::FeatureKind::kInterquartileRange);
  v("rate", f.detection_rate);
  v("ci", f.ci);
  v("confusion", f.confusion);
  v("predicted", f.predicted);
}

template <class V, Is<classify::CpdOutcome> T>
void fields(V& v, T& c) {
  v("kind", c.kind, classify::CpdKind::kAdaptiveEwma);
  v("threshold", c.threshold);
  v("detected", c.ttd.detected);
  v("n_at_detection", c.ttd.n_at_detection);
  v("false_alarms", c.ttd.false_alarms);
}

template <class V, Is<SampleSizePoint> T>
void fields(V& v, T& p) {
  v("n", p.sample_size);
  v("train", p.train_windows);
  v("test", p.test_windows);
  v("r_hat", p.r_hat);
  v("per_feature", p.per_feature);
}

template <class V, Is<StreamOverhead> T>
void fields(V& v, T& o) {
  v("payload", o.payload_packets);
  v("dummy", o.dummy_packets);
  v("suppressed", o.suppressed_fires);
  v("wire_bps", o.wire_bps);
  v("padding_bps", o.padding_bps);
  v("dummy_fraction", o.dummy_fraction);
  v("delay_mean", o.delay_mean);
  v("delay_p50", o.delay_p50);
  v("delay_p95", o.delay_p95);
  v("delay_p99", o.delay_p99);
}

template <class V, Is<DetectorOutcome> T>
void fields(V& v, T& d) {
  v("name", d.name);
  v("score", d.attack_score);
  v("confusion", d.confusion);
  v("cpd", d.cpd);
}

template <class V, Is<ExperimentResult> T>
void fields(V& v, T& r) {
  v("piat", std::tie(r.piat_mean_low, r.piat_mean_high, r.piat_var_low,
                     r.piat_var_high));
  v("by_sample_size", r.by_sample_size);
  v("detectors", r.detectors);
  v("overhead_per_class", r.overhead_per_class);
}

template <class V, Is<FlowOverhead> T>
void fields(V& v, T& o) {
  v("has_cost", o.has_cost);
  v("padding_bps", o.padding_bps);
  v("wire_bps", o.wire_bps);
  v("dummy_fraction", o.dummy_fraction);
  v("has_delay", o.has_delay);
  v("delay_p95", o.delay_p95);
}

template <class V, Is<FlowCpd> T>
void fields(V& v, T& c) {
  v("detected", c.detected);
  v("n_at_detection", c.n_at_detection);
  v("false_alarms", c.false_alarms);
  v("threshold", c.threshold);
}

template <class V, Is<ChunkAggregate> T>
void fields(V& v, T& c) {
  v("first_flow", c.first_flow);
  v("rates", c.rates);
  v("overhead", c.overhead);
  v("cpd_kinds", c.cpd_kinds, classify::CpdKind::kAdaptiveEwma);
  v("cpd", c.cpd);
  v("per_flow", c.per_flow);
}

// The header line: every field but the chunks.
template <class V, Is<PopulationShard> T>
void fields(V& v, T& s) {
  v("linkpad_shard", s.version);
  v("shard_index", s.shard_index);
  v("shard_count", s.shard_count);
  v("flows", s.flows);
  v("grain", s.grain);
  v("sample_flows", s.sample_flows);
  v("sample_round", s.sample_round);
  v("sample_sizes", s.sample_sizes);
  v("detection_threshold", s.detection_threshold);
  v("mean_interval", s.mean_interval);
  v("seed", s.seed);
  v("keep_per_flow", s.keep_per_flow);
}

}  // namespace linkpad::core::wire

namespace linkpad::core {
namespace {

/// A value in [0, 1]; false for NaN.
bool is_fraction(double x) { return x >= 0.0 && x <= 1.0; }

// Validate one chunk against the (executed_flows, grain) partition and the
// header's axis; `chunk_id` must be the partition slot its first_flow
// implies. A sampled campaign partitions the m executed slots, not the
// deployed M. The value checks are the ones finalize and the result JSON
// rely on: rates and dummy fractions the quantile sketches, means and
// concentration bounds can fold, and kept results whose top point carries
// a primary feature.
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
    if (!std::all_of(row.begin(), row.end(), is_fraction)) {
      throw std::invalid_argument(
          "shard_io: chunk detection rate outside [0, 1]");
    }
  }
  for (const FlowOverhead& overhead : chunk.overhead) {
    if (!is_fraction(overhead.dummy_fraction)) {
      throw std::invalid_argument(
          "shard_io: chunk dummy fraction outside [0, 1]");
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
  for (const ExperimentResult& result : chunk.per_flow) {
    const auto& points = result.by_sample_size;
    if (!std::equal(points.begin(), points.end(), header.sample_sizes.begin(),
                    header.sample_sizes.end(),
                    [](const SampleSizePoint& point, std::size_t n) {
                      return point.sample_size == n;
                    })) {
      throw std::invalid_argument(
          "shard_io: kept per-flow result's sample-size axis is not the "
          "header's");
    }
    for (const SampleSizePoint& point : points) {
      if (point.per_feature.empty()) {
        throw std::invalid_argument(
            "shard_io: kept per-flow result has a point with no per_feature "
            "outcome");
      }
    }
  }
}

PopulationShard parse_shard_header(std::string_view line) {
  const wire::Value v = wire::parse(line);
  // The version before the list, so a file of another format version
  // fails by naming its version instead of a key this version expects.
  const std::uint64_t version = v.at("linkpad_shard").as_u64();
  if (version != kShardFormatVersion) {
    std::ostringstream msg;
    msg << "shard_io: shard format version " << version
        << " is not the supported version " << kShardFormatVersion;
    throw std::invalid_argument(msg.str());
  }
  PopulationShard shard;
  wire::Reader reader(v);
  wire::fields(reader, shard);
  if (shard.shard_count == 0 || shard.shard_index >= shard.shard_count) {
    throw std::invalid_argument("shard_io: bad shard coordinates in header");
  }
  if (shard.flows == 0 || shard.grain == 0) {
    throw std::invalid_argument("shard_io: bad partition parameters in header");
  }
  if (shard.sample_sizes.empty()) {
    throw std::invalid_argument("shard_io: empty sample-size axis in header");
  }
  if (shard.sample_flows == 0) {
    if (shard.sample_round != 0) {
      throw std::invalid_argument(
          "shard_io: exhaustive header carries a sample round");
    }
  } else if (shard.sample_flows > shard.flows ||
             shard.sample_round >
                 (shard.flows - shard.sample_flows) / shard.sample_flows) {
    throw std::invalid_argument(
        "shard_io: bad sampled-subset fields in header");
  }
  return shard;
}

// One chunk line: the chunk id, then the ChunkAggregate field list.
ChunkAggregate parse_chunk_line(std::string_view line, std::size_t* chunk_id) {
  const wire::Value v = wire::parse(line);
  const wire::Reader reader(v);
  reader("chunk", *chunk_id);
  ChunkAggregate chunk;
  wire::fields(reader, chunk);
  return chunk;
}

/// One-line JSON of the shard header (no trailing newline).
std::string serialize_shard_header(const PopulationShard& shard) {
  std::string out;
  wire::Writer writer(out);
  wire::fields(writer, shard);
  writer.close();
  return out;
}

/// One-line JSON of one chunk aggregate (no trailing newline). `chunk_id`
/// is recorded explicitly so resume bookkeeping never re-derives it.
std::string serialize_chunk(std::size_t chunk_id, const ChunkAggregate& chunk) {
  std::string out;
  wire::Writer writer(out);
  writer("chunk", chunk_id);
  wire::fields(writer, chunk);
  writer.close();
  return out;
}

/// True when `a` and `b` describe the same campaign (all header fields
/// except shard_index equal) — the merge compatibility check.
bool same_campaign(const PopulationShard& a, const PopulationShard& b) {
  return a.version == b.version && a.shard_count == b.shard_count &&
         a.flows == b.flows && a.grain == b.grain &&
         a.sample_flows == b.sample_flows && a.sample_round == b.sample_round &&
         a.sample_sizes == b.sample_sizes &&
         std::bit_cast<std::uint64_t>(a.detection_threshold) ==
             std::bit_cast<std::uint64_t>(b.detection_threshold) &&
         std::bit_cast<std::uint64_t>(a.mean_interval) ==
             std::bit_cast<std::uint64_t>(b.mean_interval) &&
         a.seed == b.seed && a.keep_per_flow == b.keep_per_flow;
}

/// Header for a (spec, options) pair — chunk list empty. `options` supplies
/// shard_index / shard_count / grain.
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

// ------------------------------------------------------------- shard model

std::vector<std::size_t> PopulationShard::owned_chunk_ids() const {
  const std::size_t total = population_chunk_count(executed_flows(), grain);
  std::vector<std::size_t> ids;
  for (std::size_t c = shard_index; c < total; c += shard_count) ids.push_back(c);
  return ids;
}

// ---------------------------------------------------------- serialization

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

  PopulationShard shard = parse_shard_header(lines.front());

  std::map<std::size_t, ChunkAggregate> chunks;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const bool last = i + 1 == lines.size();
    std::size_t chunk_id = 0;
    ChunkAggregate chunk;
    try {
      chunk = parse_chunk_line(lines[i], &chunk_id);
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
      PopulationShard prev = read_shard_file(durability.checkpoint_path,
                                             /*tolerate_partial_tail=*/true);
      if (!same_campaign(prev, shard) ||
          prev.shard_index != shard.shard_index) {
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
    atomic_write_file(durability.checkpoint_path, serialize_shard(shard));
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
    if (!same_campaign(shard, head)) {
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
  // The header does not carry the change-point layout, so files with one
  // header — or chunks of one crafted file — can still disagree on it, and
  // the reduction concatenates the CPD rows by position.
  for (const auto& chunk : chunks) {
    if (chunk.cpd_kinds != chunks.front().cpd_kinds) {
      throw std::invalid_argument(
          "shard_io: chunks disagree on the change-point detector layout "
          "(cpd_kinds) — refusing to merge");
    }
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

// ------------------------------------------------------------- result JSON

namespace {

// Hex bits (authoritative) + a short decimal echo derived from the same
// bits (readable). The echo uses a fixed %.17g so equal bits always render
// equal bytes within one build.
void append_result_double(std::string& out, double x) {
  out += "{\"bits\":";
  wire::append_hex(out, x);
  out += ",\"value\":";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  wire::append_string(out, buf);
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
  out += std::to_string(est.m);
  out += ", \"M\": ";
  out += std::to_string(est.M);
  out.push_back('}');
}

}  // namespace

std::string population_result_json(const PopulationResult& result) {
  std::string out = "{\n  \"flows\": ";
  out += std::to_string(result.flow_count);
  out += ",\n  \"first_detection_n\": ";
  if (result.first_detection_n.has_value()) {
    out += std::to_string(*result.first_detection_n);
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
  out += std::to_string(result.sampled_from);
  out += ",\n  \"estimates\": ";
  if (result.estimates.empty()) {
    out += "null";
  } else {
    out.push_back('[');
    for (std::size_t i = 0; i < result.estimates.size(); ++i) {
      const SampledEstimates& est = result.estimates[i];
      out += i == 0 ? "\n" : ",\n";
      out += "    {\"n\": ";
      out += std::to_string(est.sample_size);
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
    out += std::to_string(p.sample_size);
    out += ", \"detected_fraction\": ";
    append_result_double(out, p.detected_fraction);
    out += ", \"mean_rate\": ";
    append_result_double(out, p.mean_rate);
    out += ", \"min_rate\": ";
    append_result_double(out, p.min_rate);
    out += ", \"max_rate\": ";
    append_result_double(out, p.max_rate);
    out += ", \"worst_flow\": ";
    out += std::to_string(p.worst_flow);
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
      out += std::to_string(p.min_n_at_detection);
      out += ", \"first_exposed_flow\": ";
      out += std::to_string(p.first_exposed_flow);
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
      wire::append_hex(out, result.per_flow[i].primary().detection_rate);
    }
    out.push_back(']');
  }
  out += "\n}\n";
  return out;
}

}  // namespace linkpad::core
