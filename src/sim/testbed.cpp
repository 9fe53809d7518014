#include "sim/testbed.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/check.hpp"

namespace linkpad::sim {

namespace {

std::unique_ptr<TimerPolicy> clone_policy(const TestbedConfig& config) {
  LINKPAD_EXPECTS(config.policy != nullptr);
  return config.policy->clone();
}

}  // namespace

std::unique_ptr<TrafficSource> make_payload_source(
    const TestbedConfig& config) {
  switch (config.payload_kind) {
    case PayloadKind::kCbr:
      return std::make_unique<CbrSource>(config.payload_rate,
                                         config.payload_bytes);
    case PayloadKind::kPoisson:
      return std::make_unique<PoissonSource>(config.payload_rate,
                                             config.payload_bytes);
    case PayloadKind::kOnOff:
      // 50% duty cycle bursts at twice the mean rate, 1 s mean period.
      return std::make_unique<OnOffSource>(2.0 * config.payload_rate, 0.5,
                                           0.5, config.payload_bytes);
  }
  throw std::invalid_argument("make_payload_source: unknown PayloadKind");
}

Testbed::Testbed(const TestbedConfig& config, util::Rng& rng,
                 DelaySketches sketches)
    : config_(config),
      rng_(rng),
      path_(config.hops_before_tap, config.wire_bytes),
      gateway_(clone_policy(config), config.jitter, rng, config.wire_bytes,
               PaddingGateway::kDefaultQueueCapacity, sketches),
      source_(make_payload_source(config)) {
  LINKPAD_EXPECTS(config.payload_rate > 0.0);
}

void Testbed::run_until(Seconds t_end) {
  TrafficSource& source = *source_;
  enum class Next { kArrival, kFire, kEmission };
  for (;;) {
    Next next = Next::kArrival;
    Slot slot = arrival_;
    if (fire_ < slot) {
      next = Next::kFire;
      slot = fire_;
    }
    if (emission_pending_ && emission_ < slot) {
      next = Next::kEmission;
      slot = emission_;
    }
    if (slot.t > t_end) break;
    const Seconds now = slot.t;
    clock_.now_ = now;
    ++clock_.processed_;
    switch (next) {
      case Next::kArrival:
        gateway_.on_packet(source.next_packet(now), now);
        arrival_ = {source.next_arrival(now, rng_), next_seq_++};
        break;
      case Next::kFire: {
        const GatewayFire fired = gateway_.fire(now);
        if (fired.emits) {
          // The fire pushed the previous next-fire past the previous
          // emission, so that emission has already run.
          LINKPAD_ENSURES(!emission_pending_);
          emission_ = {fired.wire.emitted, next_seq_++};
          emission_pending_ = true;
        }
        fire_ = {fired.next_fire, next_seq_++};
        break;
      }
      case Next::kEmission:
        emission_pending_ = false;
        tap_arrivals_.push_back(path_.traverse(now, rng_));
        break;
    }
  }
  clock_.now_ = t_end;
}

std::vector<Seconds> Testbed::collect_piats(std::size_t count) {
  std::vector<Seconds> piats;
  piats.reserve(count);
  collect_piats(count, piats);
  return piats;
}

std::size_t Testbed::collect_piats(std::size_t count, std::vector<Seconds>& out) {
  LINKPAD_EXPECTS(count > 0);
  if (!started_) {
    // The order a Simulation would schedule them in: source, then gateway.
    arrival_ = {source_->first_arrival(clock_.now_, rng_), next_seq_++};
    fire_ = {gateway_.arm(clock_.now_), next_seq_++};
    started_ = true;
    // PIAT k uses arrivals k-1 and k; the first `warmup_piats` PIATs are
    // transients, so the first served PIAT diffs arrivals[warmup, warmup+1].
    cursor_ = config_.warmup_piats + 1;
  }

  const std::size_t target = cursor_ + count;  // need arrivals [0, target)

  // Run in slabs of simulated time until enough packets crossed the tap.
  const Seconds slab =
      static_cast<Seconds>(count + config_.warmup_piats + 2) *
      config_.policy->mean_interval();
  while (tap_arrivals_.size() < target) {
    run_until(clock_.now_ + slab);
  }

  for (std::size_t i = cursor_; i < target; ++i) {
    out.push_back(tap_arrivals_[i] - tap_arrivals_[i - 1]);
  }
  cursor_ = target;

  // Keep the tap buffer at about one slab: drop everything before the last
  // consumed arrival, which the next PIAT diffs against.
  tap_arrivals_.erase(
      tap_arrivals_.begin(),
      tap_arrivals_.begin() + static_cast<std::ptrdiff_t>(cursor_ - 1));
  cursor_ = 1;
  return count;
}

std::vector<Seconds> collect_piats(const TestbedConfig& config,
                                   util::Rng& rng, std::size_t count) {
  Testbed bed(config, rng);
  return bed.collect_piats(count);
}

double Testbed::measured_wire_bps() const {
  const Seconds elapsed = clock_.now();
  if (elapsed <= 0.0) return 0.0;
  const GatewayStats& gs = gateway_.stats();
  return 8.0 * static_cast<double>(gs.payload_bytes + gs.padding_bytes) /
         elapsed;
}

double measured_wire_rate_bps(const TestbedConfig& config, util::Rng& rng,
                              std::size_t piats) {
  LINKPAD_EXPECTS(piats > 0);
  Testbed bed(config, rng, DelaySketches::kSkip);
  std::vector<Seconds> sink;
  sink.reserve(piats);
  bed.collect_piats(piats, sink);
  return bed.measured_wire_bps();
}

double padded_wire_rate_bps(const TestbedConfig& config) {
  LINKPAD_EXPECTS(config.policy != nullptr);
  LINKPAD_EXPECTS(config.wire_bytes > 0);
  return 8.0 * static_cast<double>(config.wire_bytes) /
         config.policy->mean_interval();
}

void add_cross_load(TestbedConfig& config, double extra_bps,
                    double max_utilization) {
  LINKPAD_EXPECTS(extra_bps >= 0.0);
  LINKPAD_EXPECTS(max_utilization > 0.0 && max_utilization < 1.0);
  if (extra_bps == 0.0) return;
  for (HopConfig& hop : config.hops_before_tap) {
    const double loaded = hop.cross_utilization + extra_bps / hop.bandwidth_bps;
    hop.cross_utilization =
        std::max(hop.cross_utilization, std::min(loaded, max_utilization));
  }
}

}  // namespace linkpad::sim
