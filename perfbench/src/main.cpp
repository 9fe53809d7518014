// linkpad_perfbench: runs one study workload as a closed loop for a fixed
// time and prints one JSON result line (the last line of stdout):
//
//   linkpad_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                     [--out-dir DIR] [--git-commit SHA] [--source-digest HEX]
//
// --trace 0 reports the end-to-end metrics; --trace 1 spends half the time
// on untraced ops and half on traced ops and reports the per-layer metrics.
// Every run also writes DIR/<workload>-seed<N>-trace<T>.json (provenance
// manifest, every metric with median / quartiles / MAD over the ops,
// per-layer shares); a traced run writes its spans to
// DIR/<workload>-seed<N>-spans.jsonl. perfbench/run.py builds this binary
// and supplies --git-commit / --source-digest.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb = perfbench;

namespace {

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __VERSION__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// would also count the RSS the launching process had when it forked us.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

std::string num(double x) {
  if (!std::isfinite(x)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

struct Args {
  std::string workload;
  std::uint64_t seed = pb::kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir = ".bench_out";
  std::string git_commit = "unknown";
  std::string source_digest = "unknown";
};

bool parse_args(int argc, char** argv, Args& args) {
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string key = argv[i];
      if (i + 1 >= argc) return false;
      const std::string value = argv[++i];
      if (key == "--workload") args.workload = value;
      else if (key == "--seed") args.seed = std::stoull(value);
      else if (key == "--seconds") args.seconds = std::stod(value);
      else if (key == "--trace") args.trace = std::stoi(value);
      else if (key == "--out-dir") args.out_dir = value;
      else if (key == "--git-commit") args.git_commit = value;
      else if (key == "--source-digest") args.source_digest = value;
      else return false;
    }
  } catch (const std::exception&) {
    return false;
  }
  return !args.workload.empty() && args.seconds > 0.0 &&
         (args.trace == 0 || args.trace == 1);
}

/// Per-op samples of every recorded quantity, by metric name.
using Series = std::map<std::string, std::vector<double>>;

struct Loop {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::set<std::string> reasons;
};

struct OpSample {
  double wall = 0.0;
  double process_cpu = 0.0;
  double thread_cpu = 0.0;
  double units = 0.0;
};

/// Runs one op and its check; nullopt (and a counted failure) when the op
/// throws or its output check fails.
std::optional<OpSample> attempt(pb::Workload& workload,
                                const linkpad::core::ExperimentBackend& backend,
                                pb::Tracer* tracer, std::size_t input, Loop& loop) {
  ++loop.attempted;
  try {
    OpSample op;
    const double c0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
    const double t0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
    const double w0 = pb::now_s();
    workload.run_op(backend, tracer, input);
    op.wall = pb::now_s() - w0;
    op.thread_cpu = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - t0;
    op.process_cpu = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - c0;
    std::size_t units = 0;
    const pb::Verdict verdict = workload.check(units);
    op.units = static_cast<double>(units);
    if (verdict.ok && units > 0) return op;
    loop.reasons.insert(verdict.ok ? "op produced no work units" : verdict.reason);
  } catch (const std::exception& e) {
    loop.reasons.insert(std::string("op threw: ") + e.what());
  }
  ++loop.failed;
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: linkpad_perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--out-dir DIR]\n");
    return 2;
  }
  auto workload = pb::make_workload(args.workload, args.seed);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'; known:", args.workload.c_str());
    for (const auto& n : pb::workload_names()) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }

  // Set-up is repeated and its median reported, so work moved into set-up
  // shows as a set-up regression rather than as a faster op.
  constexpr int kSetups = 7;
  Series series;
  try {
    for (int i = 0; i < kSetups; ++i) {
      const double t0 = pb::now_s();
      workload->setup();
      series["setup_s"].push_back(pb::now_s() - t0);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: set-up failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }

  const auto& sim = linkpad::core::sim_backend();
  const double threads = static_cast<double>(workload->pool_threads());
  Loop loop;
  pb::Probes probes;
  std::vector<pb::OpTrace> traces;
  pb::Tracer tracer(workload->phases());
  const pb::TracingBackend traced(sim, tracer);

  // Untraced and traced ops each cycle through the workload's inputs.
  std::size_t untraced_ops = 0;
  std::size_t traced_ops = 0;
  const auto untraced_op = [&] {
    const auto op = attempt(*workload, sim, nullptr, untraced_ops++ % pb::kInputs, loop);
    if (!op) return;
    series["op_wall_s"].push_back(op->wall);
    series["op_thread_cpu_s"].push_back(op->thread_cpu);
    series["op_process_cpu_s"].push_back(op->process_cpu);
    series["units_per_s"].push_back(op->units / op->wall);
    series["cpu_s_per_unit"].push_back(op->process_cpu / op->units);
    series["pool.cpu_utilization"].push_back(op->process_cpu / (op->wall * threads));
  };
  const auto traced_op = [&] {
    tracer.begin_op();
    const auto op = attempt(*workload, traced, &tracer, traced_ops++ % pb::kInputs, loop);
    pb::OpTrace t = tracer.finish_op();
    if (!op) return;
    const double wall = op->wall;
    series["traced_op_wall_s"].push_back(wall);
    const auto layer = [&](const char* n) { return t.layer_self[n]; };
    const auto self = [&](const char* n) { return t.name_self[n]; };
    const double piats = static_cast<double>(t.counts.piats);
    series["sim.self_s"].push_back(layer("sim"));
    series["sim.piats"].push_back(piats);
    series["sim.piats_per_s"].push_back(layer("sim") > 0 ? piats / layer("sim") : 0.0);
    series["classify.prepass_s"].push_back(self("classify.prepass"));
    series["classify.train_s"].push_back(self("classify.train"));
    series["classify.test_s"].push_back(self("classify.test"));
    series["classify.piats_per_s"].push_back(
        layer("classify") > 0 ? piats / layer("classify") : 0.0);
    series["experiment.runs"].push_back(static_cast<double>(t.counts.experiments));
    series["experiment.self_s"].push_back(self("experiment"));
    series["population.chunks"].push_back(static_cast<double>(t.counts.chunks));
    series["population.chunk_s.p50"].push_back(pb::median(t.chunk_seconds));
    series["population.chunk_s.max"].push_back(
        t.chunk_seconds.empty() ? 0.0 : pb::summarize(t.chunk_seconds).max);
    series["population.slot_imbalance"].push_back(pb::median(t.slot_imbalance));
    series["shard.serialize_s"].push_back(t.name_total["shard.serialize"]);
    series["shard.parse_s"].push_back(t.name_total["shard.parse"]);
    series["shard.merge_s"].push_back(t.name_total["shard.merge"]);
    series["tuner.self_s"].push_back(self("tuner"));
    series["frontier.score_s"].push_back(t.name_total["frontier.score"]);
    series["trace.coverage"].push_back(t.coverage);
    for (const auto& [name, seconds] : t.layer_self) {
      series["share.self." + name].push_back(seconds / wall);
    }
    for (const auto& [name, seconds] : t.name_total) {
      if (seconds > 0.0) series["share.inclusive." + name].push_back(seconds / wall);
    }
    traces.push_back(std::move(t));
  };

  // A traced run alternates untraced and traced ops, so drift in the
  // machine's speed lands on both sides of trace.overhead_ratio alike.
  const double start = pb::now_s();
  do {
    untraced_op();
    if (args.trace) traced_op();
  } while (pb::now_s() - start < args.seconds);

  if (args.trace) {
    if (tracer.lost_events() > 0) {
      std::fprintf(stderr, "trace incomplete: %zu seam events lost\n",
                   tracer.lost_events());
      ++loop.failed;
    }
    try {
      if (!traces.empty()) probes = workload->probe();
    } catch (const std::exception& e) {
      loop.reasons.insert(std::string("probe: ") + e.what());
      ++loop.failed;
    }
  }

  for (const auto& reason : loop.reasons) {
    std::fprintf(stderr, "%s: check failed: %s\n", args.workload.c_str(), reason.c_str());
  }

  // ----------------------------------------------------------- metrics
  struct Metric {
    std::string name;
    std::string unit;
    double value;
  };
  std::vector<Metric> metrics;
  const auto med = [&](const std::string& n) { return pb::median(series[n]); };
  if (!args.trace) {
    // Best op of the run: interference from other tenants of a shared
    // machine only ever slows an op down, and its slow spells outlast a
    // run, so the fastest op is the steadiest estimate of the code's own
    // cost. Medians and quartiles over all ops go to the detailed record.
    const auto best = [&](const std::string& n, bool highest) {
      const auto& v = series[n];
      if (v.empty()) return 0.0;
      return highest ? *std::max_element(v.begin(), v.end())
                     : *std::min_element(v.begin(), v.end());
    };
    metrics = {{"units_per_s", "1/s", best("units_per_s", true)},
               {"cpu_s_per_unit", "s", best("cpu_s_per_unit", false)},
               {"setup_s", "s", med("setup_s")},
               {"peak_rss_mb", "MB", peak_rss_mb()}};
  } else {
    const auto probe = [&](const char* n) {
      const auto it = probes.find(n);
      return it == probes.end() ? 0.0 : it->second;
    };
    const double untraced = med("op_wall_s");
    metrics = {
        {"sim.self_s", "s", med("sim.self_s")},
        {"sim.piats", "count", med("sim.piats")},
        {"sim.piats_per_s", "1/s", med("sim.piats_per_s")},
        {"sim.events_per_piat", "ratio", probe("sim.events_per_piat")},
        {"classify.prepass_s", "s", med("classify.prepass_s")},
        {"classify.train_s", "s", med("classify.train_s")},
        {"classify.test_s", "s", med("classify.test_s")},
        {"classify.windows", "count", probe("classify.windows")},
        {"classify.piats_per_s", "1/s", med("classify.piats_per_s")},
        {"cpd.calibration_s", "s", probe("cpd.calibration_s")},
        {"cpd.replays", "count", probe("cpd.replays")},
        {"cpd.updates_per_s", "1/s", probe("cpd.updates_per_s")},
        {"experiment.runs", "count", med("experiment.runs")},
        {"experiment.self_s", "s", med("experiment.self_s")},
        {"population.chunks", "count", med("population.chunks")},
        {"population.chunk_s.p50", "s", med("population.chunk_s.p50")},
        {"population.chunk_s.max", "s", med("population.chunk_s.max")},
        {"population.slot_imbalance", "ratio", med("population.slot_imbalance")},
        {"population.finalize_s", "s", probe("population.finalize_s")},
        {"population.offered_utilization", "ratio",
         probe("population.offered_utilization")},
        {"population.saturated_hops", "count", probe("population.saturated_hops")},
        {"shard.serialize_s", "s", med("shard.serialize_s")},
        {"shard.parse_s", "s", med("shard.parse_s")},
        {"shard.merge_s", "s", med("shard.merge_s")},
        {"shard.bytes_per_flow", "B", probe("shard.bytes_per_flow")},
        {"tuner.self_s", "s", med("tuner.self_s")},
        {"tuner.evaluations", "count", probe("tuner.evaluations")},
        {"tuner.rounds", "count", probe("tuner.rounds")},
        {"tuner.useful_ratio", "ratio", probe("tuner.useful_ratio")},
        {"frontier.score_s", "s", med("frontier.score_s")},
        {"pool.threads", "count", threads},
        {"pool.cpu_utilization", "ratio", med("pool.cpu_utilization")},
        {"trace.coverage", "ratio", med("trace.coverage")},
        {"trace.overhead_ratio", "ratio",
         untraced > 0 ? med("traced_op_wall_s") / untraced : 0.0},
    };
  }

  // ------------------------------------------------- detailed output file
  const std::string spec_text =
      workload->spec_text() + ";inputs=" + std::to_string(pb::kInputs);
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed);
  {
    std::ofstream out(stem + "-trace" + std::to_string(args.trace) + ".json");
    out << "{\n  \"manifest\": {"
        << "\"workload\": " << json_string(args.workload)
        << ", \"spec_hash\": " << json_string(pb::fnv1a_hex(spec_text))
        << ", \"spec\": " << json_string(spec_text)
        << ", \"seed\": " << args.seed
        << ", \"seconds\": " << num(args.seconds)
        << ", \"trace\": " << args.trace
        << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
        << ", \"compiler\": " << json_string(kCompiler)
        << ", \"hw_threads\": " << std::thread::hardware_concurrency()
        << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
        << ", \"git_commit\": " << json_string(args.git_commit)
        << ", \"source_digest\": " << json_string(args.source_digest) << "},\n"
        << "  \"attempted\": " << loop.attempted << ", \"failed\": " << loop.failed
        << ", \"error_rate\": "
        << num(loop.attempted ? static_cast<double>(loop.failed) /
                                    static_cast<double>(loop.attempted)
                              : 1.0)
        << ",\n  \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      out << (i ? ", " : "") << json_string(metrics[i].name) << ": {\"value\": "
          << num(metrics[i].value) << ", \"unit\": " << json_string(metrics[i].unit)
          << "}";
    }
    out << "},\n  \"dispersion\": {";
    bool first = true;
    for (const auto& [name, values] : series) {
      const pb::Summary s = pb::summarize(values);
      out << (first ? "" : ",") << "\n    " << json_string(name) << ": {\"n\": " << s.n
          << ", \"median\": " << num(s.median) << ", \"q1\": " << num(s.q1)
          << ", \"q3\": " << num(s.q3) << ", \"mad\": " << num(s.mad)
          << ", \"samples\": [";
      for (std::size_t i = 0; i < values.size(); ++i) {
        out << (i ? ", " : "") << num(values[i]);
      }
      out << "]}";
      first = false;
    }
    for (const auto& [name, value] : probes) {
      out << (first ? "" : ",") << "\n    " << json_string("probe." + name)
          << ": {\"n\": 1, \"median\": " << num(value) << "}";
      first = false;
    }
    out << "\n  }\n}\n";
  }
  if (args.trace) {
    std::ofstream out(stem + "-spans.jsonl");
    for (std::size_t op = 0; op < traces.size(); ++op) {
      const auto& spans = traces[op].spans;
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const pb::Span& s = spans[i];
        out << "{\"op\": " << op << ", \"id\": " << i << ", \"name\": " << json_string(s.name)
            << ", \"thread\": " << s.thread << ", \"start\": " << num(s.start)
            << ", \"end\": " << num(s.end) << ", \"parent\": " << s.parent
            << ", \"self\": " << num(s.self) << "}\n";
      }
    }
    for (const char* kind : {"self", "inclusive"}) {
      const std::string prefix = std::string("share.") + kind + ".";
      std::string shares;
      for (const auto& [name, values] : series) {
        if (name.rfind(prefix, 0) != 0) continue;
        char buf[96];
        std::snprintf(buf, sizeof buf, " %s=%.4f", name.c_str() + prefix.size(),
                      pb::median(values));
        shares += buf;
      }
      std::fprintf(stderr, "%s: %s-time shares of op wall:%s\n",
                   args.workload.c_str(), kind, shares.c_str());
    }
  }

  // ------------------------------------------------------ result line
  std::string line = "{\"correct\": ";
  line += loop.failed == 0 && loop.attempted > 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(loop.attempted);
  line += ", \"failed\": " + std::to_string(loop.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i ? ", " : "") + json_string(metrics[i].name) + ": {\"value\": " +
            num(metrics[i].value) + ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
