// The padding gateway GW1 (paper Sec 3.2).
//
// Behaviour exactly as specified: payload packets from the protected subnet
// are queued; an interrupt-driven timer fires at designed instants
// S_k = S_{k−1} + T_k (absolute scheduling, so CIT does not drift); at each
// fire the gateway emits the head-of-queue payload packet, or a dummy if the
// queue is empty. The *actual* emission happens at S_k + δ_k where δ_k comes
// from the GatewayJitterModel and depends on how many payload packets
// arrived since the previous interrupt — the leak under study.
//
// All packets leave with the same constant `wire_bytes` size (Sec 3.2
// remark 3): the adversary learns nothing from sizes.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>

#include "sim/jitter.hpp"
#include "sim/packet.hpp"
#include "sim/scheduler.hpp"
#include "sim/timer_policy.hpp"
#include "stats/descriptive.hpp"
#include "stats/quantile_sketch.hpp"
#include "util/rng.hpp"

namespace linkpad::sim {

/// Operational counters exposed for invariant checks, QoS reporting and the
/// defense frontier's overhead accounting (DESIGN.md §2.8).
struct GatewayStats {
  std::uint64_t payload_in = 0;       ///< payload packets accepted
  std::uint64_t payload_out = 0;      ///< payload packets emitted
  std::uint64_t dummy_out = 0;        ///< dummy packets emitted
  std::uint64_t dropped = 0;          ///< payload drops (queue overflow)
  std::uint64_t timer_fires = 0;      ///< interrupts processed
  /// Fires that emitted NOTHING: empty queue and the policy declined a
  /// dummy (on/off padding off-phase, exhausted token bucket).
  std::uint64_t suppressed_fires = 0;
  std::uint64_t payload_bytes = 0;    ///< wire bytes carrying payload
  std::uint64_t padding_bytes = 0;    ///< wire bytes carrying dummies
  stats::RunningStats queueing_delay; ///< payload wait in GW1 (QoS metric)
  /// Streaming percentiles of the payload queueing delay (P², ~1% sketch
  /// accuracy) — the latency half of the overhead/detectability frontier.
  stats::P2Quantile delay_p50{0.5};
  stats::P2Quantile delay_p95{0.95};
  stats::P2Quantile delay_p99{0.99};
};

/// Whether a gateway feeds each forwarded payload packet's queueing delay
/// to GatewayStats' delay moments and P² sketches. Every counter is kept
/// either way; kSkip serves captures whose delays nobody reads.
enum class DelaySketches : unsigned char { kKeep, kSkip };

/// What one timer fire decided: the packet put on the wire, if any, and
/// when the next designed fire is due.
struct GatewayFire {
  bool emits = false;      ///< false: the policy suppressed this fire
  Packet wire;             ///< valid when `emits`; wire.emitted = emit time
  Seconds next_fire = 0;   ///< next designed interrupt, after the emission
};

/// Sender-side padding gateway. The interrupt routine is `arm()` plus
/// `fire()`, which schedule nothing: sim::Testbed's own event loop calls
/// them directly. Built on a Simulation, the gateway instead drives itself
/// through the scheduler's TimerTask fast path (`start()`, `on_timer()`),
/// one pending heap entry per designed fire and one closure per emission.
class PaddingGateway final : public PacketSink, public TimerTask {
 public:
  static constexpr std::size_t kDefaultQueueCapacity = 4096;

  /// A gateway whose caller runs the clock: arm() once, then fire() at each
  /// designed fire time it returns. `queue_capacity` bounds the payload
  /// queue (packets beyond it drop, as a real box would); the paper's rates
  /// (≤ 40 pps payload vs 100 pps timer) keep the queue nearly empty.
  PaddingGateway(std::unique_ptr<TimerPolicy> policy,
                 const JitterParams& jitter, util::Rng& rng,
                 int wire_bytes = 1000,
                 std::size_t queue_capacity = kDefaultQueueCapacity,
                 DelaySketches sketches = DelaySketches::kKeep);

  /// A gateway driven by `sim`: start() schedules its fires there and each
  /// emission reaches `downstream` at its emit time.
  PaddingGateway(Simulation& sim, std::unique_ptr<TimerPolicy> policy,
                 const JitterParams& jitter, util::Rng& rng,
                 PacketSink& downstream, int wire_bytes = 1000,
                 std::size_t queue_capacity = kDefaultQueueCapacity);

  /// Payload ingress (TrafficSource sink interface). The queue keeps only
  /// the packet's created time, all a fire reads of it.
  void on_packet(const Packet& packet, Seconds /*now*/) override {
    ++stats_.payload_in;
    ++arrivals_since_fire_;  // each arrival raises one NIC interrupt
    if (queue_.size() >= queue_capacity_) {
      ++stats_.dropped;
      return;
    }
    queue_.push_back(packet.created);
  }

  /// Arm the timer at `now`: returns the first designed fire, one interval
  /// later.
  Seconds arm(Seconds now);

  /// The interrupt routine at designed fire time `now`: emit the
  /// head-of-queue payload, a dummy, or nothing; then draw the next
  /// designed fire, pushed past the emit time if the interrupt ran late.
  /// Defined below, in the header, so sim::Testbed's loop inlines it.
  GatewayFire fire(Seconds now);

  /// Arm the timer on the Simulation (arm() at its current time).
  void start();

  /// Designed timer interrupt S_k (TimerTask fast path): fire(), then
  /// schedule the emission and the next fire.
  void on_timer(Seconds now) override;

  [[nodiscard]] const GatewayStats& stats() const { return stats_; }
  [[nodiscard]] const TimerPolicy& policy() const { return *policy_; }

  /// DESIGNED wire rate = 1 / E[T]. For the paper's policies this is the
  /// constant emitted rate regardless of payload — the perfect-secrecy
  /// property padding is built on. For payload-reactive policies the
  /// realized rate can sit on either side of it; measure it instead
  /// (Testbed::measured_wire_bps).
  [[nodiscard]] PacketsPerSecond wire_rate() const;

 private:
  Simulation* sim_ = nullptr;
  PacketSink* downstream_ = nullptr;
  std::unique_ptr<TimerPolicy> policy_;
  GatewayJitterModel jitter_;
  util::Rng& rng_;
  int wire_bytes_;
  std::size_t queue_capacity_;

  /// Feeds one payload queueing delay to the delay moments and sketches.
  void record_delay(Seconds waited);

  DelaySketches sketches_ = DelaySketches::kKeep;
  /// Created times of the queued payload packets, oldest first.
  std::deque<Seconds> queue_;
  unsigned arrivals_since_fire_ = 0;
  Seconds next_designed_fire_ = 0;
  PacketId next_wire_id_ = 0;
  GatewayStats stats_;
};

inline GatewayFire PaddingGateway::fire(Seconds now) {
  TimerPolicy& policy = *policy_;
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
    const Seconds created = queue_.front();
    queue_.pop_front();
    wire.kind = PacketKind::kPayload;
    wire.created = created;
    if (sketches_ == DelaySketches::kKeep) record_delay(now - created);
    ++stats_.payload_out;
    stats_.payload_bytes += static_cast<std::uint64_t>(wire_bytes_);
    feedback.emitted_payload = true;
  } else if (policy.spend_dummy(feedback)) {
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
  policy.observe(feedback);
  next_designed_fire_ += policy.next_interval(rng_);
  // A grossly delayed interrupt cannot overtake the next one on real
  // hardware; the kernel coalesces. Model: push the schedule if needed.
  // The next fire therefore never precedes this emission, so at most one
  // emission is ever in flight.
  if (next_designed_fire_ <= emit_time) next_designed_fire_ = emit_time + 1e-9;
  out.next_fire = next_designed_fire_;
  return out;
}

}  // namespace linkpad::sim
