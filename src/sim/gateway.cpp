#include "sim/gateway.hpp"

#include "util/check.hpp"

namespace linkpad::sim {

PaddingGateway::PaddingGateway(std::unique_ptr<TimerPolicy> policy,
                               const JitterParams& jitter, util::Rng& rng,
                               int wire_bytes, std::size_t queue_capacity)
    : policy_(std::move(policy)),
      jitter_(jitter),
      rng_(rng),
      wire_bytes_(wire_bytes),
      queue_capacity_(queue_capacity) {
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

void PaddingGateway::on_packet(const Packet& packet, Seconds /*now*/) {
  ++stats_.payload_in;
  ++arrivals_since_fire_;  // each arrival raises one NIC interrupt
  if (queue_.size() >= queue_capacity_) {
    ++stats_.dropped;
    return;
  }
  queue_.push_back(packet);
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

GatewayFire PaddingGateway::fire(Seconds now) {
  ++stats_.timer_fires;

  // The interrupt routine runs after a random scheduling delay; payload
  // arrivals since the previous fire each contributed a blocking term.
  const Seconds delay = jitter_.emission_delay(rng_, arrivals_since_fire_);

  GatewayFeedback feedback;
  feedback.now = now;
  feedback.arrivals_since_fire = arrivals_since_fire_;
  arrivals_since_fire_ = 0;

  GatewayFire out;
  Packet& wire = out.wire;
  wire.flow = FlowId::kMonitored;
  wire.size_bytes = wire_bytes_;  // constant wire size hides payload length
  out.emits = true;
  if (!queue_.empty()) {
    const Packet payload = queue_.front();
    queue_.pop_front();
    wire.kind = PacketKind::kPayload;
    wire.created = payload.created;
    const Seconds waited = now - payload.created;
    stats_.queueing_delay.add(waited);
    stats_.delay_p50.add(waited);
    stats_.delay_p95.add(waited);
    stats_.delay_p99.add(waited);
    ++stats_.payload_out;
    stats_.payload_bytes += static_cast<std::uint64_t>(wire_bytes_);
    feedback.emitted_payload = true;
  } else if (policy_->spend_dummy(feedback)) {
    wire.kind = PacketKind::kDummy;
    wire.created = now;
    ++stats_.dummy_out;
    stats_.padding_bytes += static_cast<std::uint64_t>(wire_bytes_);
    feedback.emitted_dummy = true;
  } else {
    // The queue-feedback seam in action: the policy declined to pad, so
    // this interrupt puts nothing on the wire.
    ++stats_.suppressed_fires;
    out.emits = false;
  }
  feedback.queue_depth = queue_.size();

  const Seconds emit_time = now + delay;
  if (out.emits) {
    wire.id = next_wire_id_++;
    wire.emitted = emit_time;
  }

  // Absolute (drift-free) scheduling of the next designed interrupt; the
  // policy sees the post-emission link state before the draw.
  policy_->observe(feedback);
  next_designed_fire_ += policy_->next_interval(rng_);
  // A grossly delayed interrupt cannot overtake the next one on real
  // hardware; the kernel coalesces. Model: push the schedule if needed.
  // The next fire therefore never precedes this emission, so at most one
  // emission is ever in flight.
  if (next_designed_fire_ <= emit_time) next_designed_fire_ = emit_time + 1e-9;
  out.next_fire = next_designed_fire_;
  return out;
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
