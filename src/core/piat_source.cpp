#include "core/piat_source.hpp"

#include <algorithm>

#include "sim/testbed.hpp"
#include "util/rng.hpp"

namespace linkpad::core {

namespace {

/// Thin adapter: one sim::Testbed streaming PIATs contiguously. The engine
/// owns the RNG so the testbed's reference stays valid for its lifetime.
/// Without delay sketches it reports no overhead at all, as a passive tap
/// would, rather than a StreamOverhead with its delay half missing.
class SimPiatSource final : public PiatSource {
 public:
  SimPiatSource(const sim::TestbedConfig& config, util::Rng rng,
                sim::DelaySketches sketches)
      : rng_(rng), sketches_(sketches), testbed_(config, rng_, sketches) {}

  std::size_t collect(std::size_t count, std::vector<double>& out) override {
    if (count == 0) return 0;
    return testbed_.collect_piats(count, out);
  }

  [[nodiscard]] std::optional<StreamOverhead> overhead() const override {
    if (sketches_ == sim::DelaySketches::kSkip) return std::nullopt;
    const sim::GatewayStats& gs = testbed_.gateway_stats();
    StreamOverhead oh;
    oh.payload_packets = gs.payload_out;
    oh.dummy_packets = gs.dummy_out;
    oh.suppressed_fires = gs.suppressed_fires;
    oh.wire_bps = testbed_.measured_wire_bps();
    const std::uint64_t wire_packets = gs.payload_out + gs.dummy_out;
    if (wire_packets > 0) {
      oh.dummy_fraction =
          static_cast<double>(gs.dummy_out) / static_cast<double>(wire_packets);
      oh.padding_bps = oh.wire_bps * static_cast<double>(gs.padding_bytes) /
                       static_cast<double>(gs.payload_bytes + gs.padding_bytes);
    }
    if (gs.queueing_delay.count() > 0) {
      oh.delay_mean = gs.queueing_delay.mean();
      oh.delay_p50 = gs.delay_p50.value();
      oh.delay_p95 = gs.delay_p95.value();
      oh.delay_p99 = gs.delay_p99.value();
    }
    return oh;
  }

  [[nodiscard]] std::string name() const override { return "sim"; }

 private:
  util::Rng rng_;
  sim::DelaySketches sketches_;
  sim::Testbed testbed_;
};

class SimBackend final : public ExperimentBackend {
 public:
  [[nodiscard]] std::unique_ptr<PiatSource> open(
      const Scenario& scenario, std::size_t class_index, std::uint64_t seed,
      std::uint64_t salt) const override {
    return make_source(scenario, class_index, seed, salt,
                       sim::DelaySketches::kKeep);
  }

  [[nodiscard]] std::unique_ptr<PiatSource> open_piats(
      const Scenario& scenario, std::size_t class_index, std::uint64_t seed,
      std::uint64_t salt) const override {
    return make_source(scenario, class_index, seed, salt,
                       sim::DelaySketches::kSkip);
  }

  [[nodiscard]] std::string name() const override { return "sim"; }

 private:
  static std::unique_ptr<PiatSource> make_source(
      const Scenario& scenario, std::size_t class_index, std::uint64_t seed,
      std::uint64_t salt, sim::DelaySketches sketches) {
    const util::RngFactory factory(seed);
    return std::make_unique<SimPiatSource>(scenario.config_for(class_index),
                                           factory.make(salt, class_index),
                                           sketches);
  }
};

}  // namespace

std::vector<double> pull_stream(const ExperimentBackend& backend,
                                const Scenario& scenario,
                                std::size_t class_index, std::uint64_t seed,
                                std::uint64_t salt, std::size_t count,
                                std::size_t batch_piats) {
  std::vector<double> out;
  out.reserve(count);
  pull_stream(backend, scenario, class_index, seed, salt, count, batch_piats,
              out);
  return out;
}

std::size_t pull_stream(const ExperimentBackend& backend,
                        const Scenario& scenario, std::size_t class_index,
                        std::uint64_t seed, std::uint64_t salt,
                        std::size_t count, std::size_t batch_piats,
                        std::vector<double>& out) {
  batch_piats = std::max<std::size_t>(batch_piats, 1);
  auto source = backend.open_piats(scenario, class_index, seed, salt);
  std::size_t appended = 0;
  while (appended < count) {
    const std::size_t want = std::min(batch_piats, count - appended);
    const std::size_t got = source->collect(want, out);
    appended += got;
    if (got < want) break;  // backend exhausted
  }
  return appended;
}

std::size_t stream_batches(
    const ExperimentBackend& backend, const Scenario& scenario,
    std::size_t class_index, std::uint64_t seed, std::uint64_t salt,
    std::size_t count, std::size_t batch_piats,
    const std::function<void(std::span<const double>)>& sink) {
  auto source = backend.open_piats(scenario, class_index, seed, salt);
  std::vector<double> buffer;
  buffer.reserve(std::min(std::max<std::size_t>(batch_piats, 1), count));
  return stream_batches(*source, count, batch_piats, buffer, sink);
}

std::size_t stream_batches(
    PiatSource& source, std::size_t count, std::size_t batch_piats,
    std::vector<double>& buffer,
    const std::function<void(std::span<const double>)>& sink) {
  batch_piats = std::max<std::size_t>(batch_piats, 1);
  std::size_t delivered = 0;
  while (delivered < count) {
    buffer.clear();
    const std::size_t want = std::min(batch_piats, count - delivered);
    const std::size_t got = source.collect(want, buffer);
    if (got > 0) {
      sink(std::span<const double>(buffer.data(), got));
      delivered += got;
    }
    if (got < want) break;  // backend exhausted
  }
  return delivered;
}

const ExperimentBackend& sim_backend() {
  static const SimBackend backend;
  return backend;
}

}  // namespace linkpad::core
