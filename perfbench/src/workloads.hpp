// The four study workloads. Each drives linkpad's public API from outside:
// set-up builds the spec (and, for the campaigns, checks the offered hop
// load), an op is one closed-loop unit of user-facing work, and the check
// compares the op's output against the committed digest (at the default
// seed) and the invariants that hold at any seed.
//
//   fig4b_curve           core::fig4b_detection_vs_n at effort 1.0 —
//                         10 sample sizes × 3 features on one flow.
//   campaign_unsaturated  256-flow population campaign on
//                         lab_cross_traffic(CIT, 0.1), offered ρ ≈ 0.51:
//                         4 in-process shards, serialize → parse → merge →
//                         population_result_json, on a 2-thread pool.
//   campaign_saturated    the same per-flow plan, sampled 128 of a deployed
//                         M = 100 000 (offered ρ ≫ 1, clamped at 0.95).
//   robust_frontier       core::run_robust_frontier over the budget ladder
//                         {0, 40, 70, 85, 100} + on/off(20 ms), 16 tuned
//                         candidates including one calibrated CUSUM.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "checks.hpp"
#include "core/piat_source.hpp"
#include "trace.hpp"

namespace perfbench {

/// Each run cycles its ops through this many inputs, input j seeded with
/// input_seed(seed, j): a run's cost then averages over several draws of
/// the workload instead of resting on one seed's captures (the tuner's
/// finalists, for one, differ from seed to seed).
inline constexpr std::size_t kInputs = 8;

[[nodiscard]] std::uint64_t input_seed(std::uint64_t seed, std::size_t input);

/// Per-layer numbers a workload measures outside its ops (direct calls
/// and counts on the workload's own inputs), by metric name.
using Probes = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  /// Canonical text of everything that defines the workload's inputs; its
  /// hash is the manifest's spec hash.
  [[nodiscard]] virtual std::string spec_text() const = 0;
  [[nodiscard]] virtual std::size_t pool_threads() const = 0;

  /// Spec construction, saturation guard and warm-up. Throws when the
  /// workload would not model what it claims.
  virtual void setup() = 0;

  /// One op on input `input` (< kInputs) over `backend`; `tracer` is set
  /// in a traced op. Keeps the output for check() and probe().
  virtual void run_op(const linkpad::core::ExperimentBackend& backend,
                      Tracer* tracer, std::size_t input) = 0;

  /// Checks the last op's output; `units` receives its work units.
  [[nodiscard]] virtual Verdict check(std::size_t& units) const = 0;

  /// Traced-run probes on the last op's input (see the per_layer metrics
  /// in BENCHMARK.json).
  [[nodiscard]] virtual Probes probe() = 0;

  /// Phase of an experiment by its seed, for tuner / frontier.score spans.
  [[nodiscard]] virtual PhaseFn phases() const { return {}; }
};

[[nodiscard]] std::vector<std::string> workload_names();

/// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      std::uint64_t seed);

}  // namespace perfbench
