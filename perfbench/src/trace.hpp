// Tracing for the benchmark's traced run. Spans (name, thread, start, end,
// parent) are kept in memory and written out when the run ends.
//
// The benchmark drives linkpad from outside, so every span comes from the
// benchmark's own code, never from inside the library. There are three kinds:
//  * API spans: the benchmark's calls into public functions (a shard's
//    run_population_shard, serialize_shard, parse_shard, merge_shards ...);
//  * seam spans: a TracingBackend wraps the simulated PIAT backend, the
//    public seam every experiment pulls its capture through. Each
//    PiatSource::open / collect call is a `sim` span. The engine feeds each
//    pulled batch to its detector banks before it pulls the next one, so
//    the time between two pulls of one stream, and between a stream's last
//    pull and its release, is a `classify` span: classify.train on a
//    training stream (salt 1), classify.test on a test stream (salt 2).
//    The gap between the last training stream's release and the first
//    test stream's open (bank fit, CPD calibration, and for a multi-point
//    axis the pooled Δh prepass and the replay of the materialized
//    training capture) is classify.train too. When a flow re-opens its
//    class-0 training stream, its first training pass was the streaming
//    entropy prepass and is relabelled classify.prepass. One flow's
//    streams form an `experiment` span from its first open to its last
//    release; what the engine does outside its streams (bank set-up, result
//    assembly) and the caller's per-flow glue stay with the enclosing span.
//  * derived spans: population.chunk spans end at each chunk's completion
//    callback and start at the previous completion on that thread; tuner /
//    frontier.score spans group consecutive experiments by the seed they
//    ran on, as the workload's phase map names it.
//
// A span's self time is its duration minus the part of that interval its
// child spans cover. A span's parent is the innermost span on its thread
// that contains it; chunk spans name the run_population_shard span on the
// dispatching thread explicitly.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/piat_source.hpp"

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
[[nodiscard]] double now_s();

/// Small dense id of the calling thread (first caller gets 0).
[[nodiscard]] std::uint32_t thread_index();

/// Nesting rank: on identical intervals the lower rank is the parent.
enum class Rank : int { kRoot = 0, kApi = 1, kGroup = 2, kExperiment = 3, kLeaf = 4 };

struct Span {
  std::string name;
  std::uint32_t thread = 0;
  double start = 0.0;
  double end = 0.0;
  Rank rank = Rank::kLeaf;
  long parent = -1;  ///< index into the same span list; -1 = none
  double self = 0.0; ///< filled by assign_parents_and_self
};

/// Layer a span name belongs to: the part before the first '.', except
/// that frontier.score belongs to the tuner layer.
[[nodiscard]] std::string layer_of(std::string_view name);

/// Assigns every span without an explicit parent to the innermost span on
/// its thread that contains it (or to `root` when none does), then sets
/// each span's self time: its duration minus the union of its children's
/// intervals clipped to it.
void assign_parents_and_self(std::vector<Span>& spans, long root);

/// One event at the PIAT-source seam, or a chunk completion.
struct SeamEvent {
  enum class Kind { kOpen, kCollect, kRelease, kChunkDone };
  Kind kind = Kind::kCollect;
  std::uint32_t thread = 0;
  double t0 = 0.0;
  double t1 = 0.0;
  std::uint64_t seed = 0;  ///< kOpen: stream key
  std::uint64_t salt = 0;
  std::size_t cls = 0;
  std::size_t piats = 0;   ///< kCollect: PIATs delivered
};

/// Names the phase an experiment seeded with `seed` belongs to ("" = none).
using PhaseFn = std::function<std::string(std::uint64_t seed)>;

/// A run_population_shard span chunk completions can belong to.
struct ChunkScope {
  long span = -1;
  double start = 0.0;
  double end = 0.0;
};

struct SeamCounts {
  std::size_t piats = 0;
  std::size_t experiments = 0;
  std::size_t chunks = 0;
};

/// Turns ONE thread's seam events (time order) into sim / classify /
/// experiment / population.chunk / phase spans appended to `spans` (see the
/// header comment for the rules).
void derive_seam_spans(const std::vector<SeamEvent>& events,
                       const std::vector<ChunkScope>& chunk_scopes,
                       const PhaseFn& phase_of, std::vector<Span>& spans,
                       SeamCounts& counts);

/// Per-op breakdown of one traced op.
struct OpTrace {
  std::vector<Span> spans;          ///< [0] is the op's root span
  std::map<std::string, double> layer_self;   ///< layer -> summed self time
  std::map<std::string, double> name_self;    ///< span name -> summed self
  std::map<std::string, double> name_total;   ///< span name -> summed duration
  SeamCounts counts;
  std::vector<double> chunk_seconds;   ///< population.chunk durations
  std::vector<double> slot_imbalance;  ///< per shard run: max / mean busy
  /// Share of the op's wall time covered by layer spans (1 - root self /
  /// root duration). On a single thread this equals summed layer self time
  /// over op wall time.
  double coverage = 0.0;
};

/// Collects API spans and seam events of the op in flight.
class Tracer {
 public:
  explicit Tracer(PhaseFn phase_of = {}) : phase_of_(std::move(phase_of)) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// RAII span around one call into the library on the calling thread.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name)
        : tracer_(tracer), name_(std::move(name)), start_(now_s()) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    Tracer* tracer_;
    std::string name_;
    double start_;
  };

  /// A span around the rest of the enclosing block; no-op without tracer.
  [[nodiscard]] static std::unique_ptr<Scope> scope(Tracer* tracer,
                                                    std::string name) {
    return tracer ? std::make_unique<Scope>(tracer, std::move(name)) : nullptr;
  }

  void begin_op();
  void record_api(std::string name, double start, double end);
  void record_seam(const SeamEvent& event);
  /// Marks the completion of a population chunk on the calling thread.
  void chunk_done();
  /// Builds the op's spans and breakdown; clears the buffers.
  [[nodiscard]] OpTrace finish_op();

  /// Events that could not be recorded (an allocation failure inside a
  /// destructor); a non-zero count marks the trace incomplete.
  [[nodiscard]] std::size_t lost_events() const { return lost_events_.load(); }
  void note_lost_event() { lost_events_.fetch_add(1); }

 private:
  PhaseFn phase_of_;
  std::atomic<std::size_t> lost_events_{0};
  std::mutex mutex_;  // guards everything below
  double op_start_ = 0.0;
  std::uint32_t op_thread_ = 0;
  std::vector<Span> api_spans_;
  std::vector<SeamEvent> events_;
};

/// Wraps a backend so every stream it opens reports its seam events.
class TracingBackend final : public linkpad::core::ExperimentBackend {
 public:
  TracingBackend(const linkpad::core::ExperimentBackend& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] std::unique_ptr<linkpad::core::PiatSource> open(
      const linkpad::core::Scenario& scenario, std::size_t class_index,
      std::uint64_t seed, std::uint64_t salt) const override;
  [[nodiscard]] bool replayable() const override {
    return inner_.replayable();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  const linkpad::core::ExperimentBackend& inner_;
  Tracer& tracer_;
};

}  // namespace perfbench
