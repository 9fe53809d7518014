#include "sim/gateway.hpp"

#include "util/check.hpp"

namespace linkpad::sim {

PaddingGateway::PaddingGateway(std::unique_ptr<TimerPolicy> policy,
                               const JitterParams& jitter, util::Rng& rng,
                               int wire_bytes, std::size_t queue_capacity,
                               DelaySketches sketches)
    : policy_(std::move(policy)),
      jitter_(jitter),
      rng_(rng),
      wire_bytes_(wire_bytes),
      queue_capacity_(queue_capacity),
      sketches_(sketches) {
  LINKPAD_EXPECTS(policy_ != nullptr);
  LINKPAD_EXPECTS(wire_bytes > 0);
  LINKPAD_EXPECTS(queue_capacity > 0);
}

PaddingGateway::PaddingGateway(Simulation& sim,
                               std::unique_ptr<TimerPolicy> policy,
                               const JitterParams& jitter, util::Rng& rng,
                               PacketSink& downstream, int wire_bytes,
                               std::size_t queue_capacity)
    : PaddingGateway(std::move(policy), jitter, rng, wire_bytes,
                     queue_capacity) {
  sim_ = &sim;
  downstream_ = &downstream;
}

Seconds PaddingGateway::arm(Seconds now) {
  next_designed_fire_ = now + policy_->next_interval(rng_);
  return next_designed_fire_;
}

void PaddingGateway::start() {
  LINKPAD_EXPECTS(sim_ != nullptr);
  sim_->schedule_timer_at(arm(sim_->now()), *this);
}

PacketsPerSecond PaddingGateway::wire_rate() const {
  return 1.0 / policy_->mean_interval();
}

void PaddingGateway::record_delay(Seconds waited) {
  stats_.queueing_delay.add(waited);
  stats_.delay_p50.add(waited);
  stats_.delay_p95.add(waited);
  stats_.delay_p99.add(waited);
}

void PaddingGateway::on_timer(Seconds now) {
  const GatewayFire fired = fire(now);
  if (fired.emits) {
    // Scheduled before the next fire, so it takes the lower sequence number
    // and runs first even when the push left both at the same time.
    sim_->schedule_at(fired.wire.emitted,
                      [sink = downstream_, wire = fired.wire]() {
                        sink->on_packet(wire, wire.emitted);
                      });
  }
  sim_->schedule_timer_at(fired.next_fire, *this);
}

}  // namespace linkpad::sim
