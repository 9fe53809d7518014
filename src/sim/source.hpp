// Traffic sources feeding the sender gateway.
//
// The paper's payload has "two rate states: 10 pps and 40 pps"; we default to
// CBR (constant bit rate) like their traffic generator, and also provide
// Poisson and Markov-modulated ON/OFF sources for robustness studies —
// Theorems 1–3 only depend on the payload through the arrival counts per
// timer interval, so the detection-rate shape should survive a change of
// payload process (tested in the ablations).
//
// Each source is an arrival rule: first_arrival() and next_arrival() draw
// the next arrival time and schedule nothing. sim::Testbed's event loop
// calls them directly; on a Simulation, start() and on_timer() wrap the
// same calls on the scheduler's TimerTask fast path (one pending timer
// entry per source, no closure per packet).
#pragma once

#include <memory>
#include <string>

#include "sim/packet.hpp"
#include "sim/scheduler.hpp"
#include "stats/distributions.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace linkpad::sim {

/// A payload packet generator: an arrival rule plus a packet stamp.
class TrafficSource : public TimerTask {
 public:
  virtual ~TrafficSource() = default;

  /// Time of the first arrival when generation begins at `now`.
  [[nodiscard]] virtual Seconds first_arrival(Seconds now, util::Rng& rng) = 0;

  /// Time of the arrival that follows the one at `now`.
  [[nodiscard]] virtual Seconds next_arrival(Seconds now, util::Rng& rng) = 0;

  /// The payload packet arriving at `now` (ids count up from 0).
  [[nodiscard]] Packet next_packet(Seconds now) {
    Packet p;
    p.id = next_id_++;
    p.kind = PacketKind::kPayload;
    p.flow = FlowId::kMonitored;
    p.size_bytes = packet_bytes_;
    p.created = now;
    return p;
  }

  /// Begin generating at the simulation's current time. The source keeps
  /// references to all three arguments until the simulation ends.
  void start(Simulation& sim, PacketSink& sink, util::Rng& rng);

  /// Deliver the packet due now, then schedule the next arrival.
  void on_timer(Seconds now) final;

  /// Long-run average rate in packets/second.
  [[nodiscard]] virtual PacketsPerSecond mean_rate() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

 protected:
  explicit TrafficSource(int packet_bytes);

 private:
  int packet_bytes_;
  PacketId next_id_ = 0;
  Simulation* sim_ = nullptr;
  PacketSink* sink_ = nullptr;
  util::Rng* rng_ = nullptr;
};

/// Constant bit rate: one packet every 1/rate seconds, with an optional
/// random phase so different trials do not align with the padding timer.
class CbrSource final : public TrafficSource {
 public:
  CbrSource(PacketsPerSecond rate, int packet_bytes, bool random_phase = true);

  [[nodiscard]] Seconds first_arrival(Seconds now, util::Rng& rng) override;
  [[nodiscard]] Seconds next_arrival(Seconds now,
                                     util::Rng& /*rng*/) override {
    return now + 1.0 / rate_;
  }
  [[nodiscard]] PacketsPerSecond mean_rate() const override { return rate_; }
  [[nodiscard]] std::string name() const override;

 private:
  PacketsPerSecond rate_;
  bool random_phase_;
};

/// Poisson arrivals at a given mean rate.
class PoissonSource final : public TrafficSource {
 public:
  PoissonSource(PacketsPerSecond rate, int packet_bytes);

  [[nodiscard]] Seconds first_arrival(Seconds now, util::Rng& rng) override;
  [[nodiscard]] Seconds next_arrival(Seconds now, util::Rng& rng) override;
  [[nodiscard]] PacketsPerSecond mean_rate() const override { return rate_; }
  [[nodiscard]] std::string name() const override;

 private:
  PacketsPerSecond rate_;
};

/// Two-state ON/OFF source: Poisson bursts at `on_rate` during exponential
/// ON periods, silence during exponential OFF periods.
class OnOffSource final : public TrafficSource {
 public:
  OnOffSource(PacketsPerSecond on_rate, Seconds mean_on, Seconds mean_off,
              int packet_bytes);

  /// Starts in an ON period.
  [[nodiscard]] Seconds first_arrival(Seconds now, util::Rng& rng) override;
  /// Walks through state changes until the next emission instant.
  [[nodiscard]] Seconds next_arrival(Seconds now, util::Rng& rng) override;
  [[nodiscard]] PacketsPerSecond mean_rate() const override;
  [[nodiscard]] std::string name() const override;

 private:
  PacketsPerSecond on_rate_;
  Seconds mean_on_;
  Seconds mean_off_;
  bool on_ = false;
  Seconds state_ends_ = 0;
};

/// Factory helpers used by scenario presets.
std::unique_ptr<TrafficSource> make_cbr(PacketsPerSecond rate, int packet_bytes);
std::unique_ptr<TrafficSource> make_poisson(PacketsPerSecond rate, int packet_bytes);

}  // namespace linkpad::sim
