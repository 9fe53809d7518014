// The engine layer's backend seam: every consumer of measured PIATs
// (experiments, figures, benches, examples) pulls them through `PiatSource`,
// so the attack pipeline is agnostic to WHERE the padded stream came from —
// the discrete-event testbed (sim::Testbed), the real loopback gateway
// (live::run_live_experiment), or any future backend (trace replay, remote
// capture).
//
// A backend is a stream factory: `ExperimentBackend::open` names one logical
// PIAT stream by (scenario, class, seed, salt). Sim backends derive a
// deterministic RNG substream from the key — two opens of the same key give
// bit-identical streams regardless of thread count or call order. Live
// backends run real captures; the key only feeds designed randomness (VIT
// intervals), the rest is the host's genuine jitter.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/scenarios.hpp"

namespace linkpad::core {

/// Padding cost measured on ONE stream's capture so far — the overhead half
/// of the defense frontier (DESIGN.md §2.8). Backends that cannot account
/// (a passive live tap never sees the gateway's queue) report nothing.
struct StreamOverhead {
  std::uint64_t payload_packets = 0;  ///< payload packets on the wire
  std::uint64_t dummy_packets = 0;    ///< dummies on the wire
  std::uint64_t suppressed_fires = 0; ///< timer fires that emitted nothing
  double wire_bps = 0.0;              ///< measured on-wire bandwidth
  double padding_bps = 0.0;           ///< dummy share of wire_bps
  double dummy_fraction = 0.0;        ///< dummies / wire packets
  Seconds delay_mean = 0.0;           ///< payload queueing delay in GW1
  Seconds delay_p50 = 0.0;            ///< P² percentiles of that delay
  Seconds delay_p95 = 0.0;
  Seconds delay_p99 = 0.0;
};

/// Pull-based stream of padded inter-arrival times at the adversary's tap.
class PiatSource {
 public:
  virtual ~PiatSource() = default;

  /// Append up to `count` further PIATs (seconds) to `out`; returns the
  /// number appended. A short count means the backend is exhausted (e.g. a
  /// finite live capture); simulated streams never exhaust.
  virtual std::size_t collect(std::size_t count, std::vector<double>& out) = 0;

  /// Padding-cost accounting over everything collected so far, when the
  /// backend can see the gateway (sim, trace replay with metadata). The
  /// default — and a passive live capture — reports nothing.
  [[nodiscard]] virtual std::optional<StreamOverhead> overhead() const {
    return std::nullopt;
  }

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Factory of PIAT streams for a scenario — the pluggable backend.
class ExperimentBackend {
 public:
  virtual ~ExperimentBackend() = default;

  /// Open the PIAT stream of `scenario`'s class `class_index` for logical
  /// substream (seed, salt). Must be callable concurrently from sweep
  /// worker threads; each returned source is independently owned.
  [[nodiscard]] virtual std::unique_ptr<PiatSource> open(
      const Scenario& scenario, std::size_t class_index, std::uint64_t seed,
      std::uint64_t salt) const = 0;

  /// Open the same stream for a consumer that reads its PIATs and never
  /// its overhead(): pull_stream and stream_batches open through here. The
  /// PIATs are those open() yields. The default is open(); a backend may
  /// instead skip padding-cost accounting, and its source's overhead() is
  /// then nullopt (the simulated backend drops the delay sketches).
  [[nodiscard]] virtual std::unique_ptr<PiatSource> open_piats(
      const Scenario& scenario, std::size_t class_index, std::uint64_t seed,
      std::uint64_t salt) const {
    return open(scenario, class_index, seed, salt);
  }

  /// True when two opens of the same key yield bit-identical streams (sim,
  /// trace replay). Live captures return false; multi-pass consumers (e.g.
  /// the entropy bin-width prepass) must materialize such streams instead
  /// of re-opening them.
  [[nodiscard]] virtual bool replayable() const { return true; }

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Open one stream through open_piats() and pull `count` PIATs in bounded
/// batches. May return fewer when a finite (live) backend exhausts.
[[nodiscard]] std::vector<double> pull_stream(const ExperimentBackend& backend,
                                              const Scenario& scenario,
                                              std::size_t class_index,
                                              std::uint64_t seed,
                                              std::uint64_t salt,
                                              std::size_t count,
                                              std::size_t batch_piats = 8192);

/// Same, appending to `out` — whose capacity the caller may have reserved,
/// so a pool task filling it allocates nothing. Returns the number
/// appended.
std::size_t pull_stream(const ExperimentBackend& backend,
                        const Scenario& scenario, std::size_t class_index,
                        std::uint64_t seed, std::uint64_t salt,
                        std::size_t count, std::size_t batch_piats,
                        std::vector<double>& out);

/// Open one stream through open_piats() and push up to `count` PIATs
/// through `sink` in bounded batches — the streaming counterpart of
/// pull_stream: resident memory is O(batch_piats) regardless of `count`.
/// Returns the number of PIATs delivered (short when a finite backend
/// exhausts). Batch boundaries are an implementation detail; sinks must be
/// boundary-agnostic.
std::size_t stream_batches(
    const ExperimentBackend& backend, const Scenario& scenario,
    std::size_t class_index, std::uint64_t seed, std::uint64_t salt,
    std::size_t count, std::size_t batch_piats,
    const std::function<void(std::span<const double>)>& sink);

/// Same, over an already-opened source — for callers that need the source
/// afterwards (e.g. to read its StreamOverhead accounting) — pulling every
/// batch into the caller's `buffer` (cleared before each pull), so a caller
/// that runs the stream on a pool task can reserve the buffer on its own
/// thread. Batch sequence is identical to the backend-opening overload.
std::size_t stream_batches(
    PiatSource& source, std::size_t count, std::size_t batch_piats,
    std::vector<double>& buffer,
    const std::function<void(std::span<const double>)>& sink);

/// Process-wide default backend: the simulated testbed.
[[nodiscard]] const ExperimentBackend& sim_backend();

}  // namespace linkpad::core
