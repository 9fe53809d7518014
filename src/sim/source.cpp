#include "sim/source.hpp"

#include <sstream>

#include "util/check.hpp"

namespace linkpad::sim {

// ---------------------------------------------------------- TrafficSource

TrafficSource::TrafficSource(int packet_bytes) : packet_bytes_(packet_bytes) {
  LINKPAD_EXPECTS(packet_bytes > 0);
}

void TrafficSource::start(Simulation& sim, PacketSink& sink, util::Rng& rng) {
  sim_ = &sim;
  sink_ = &sink;
  rng_ = &rng;
  sim.schedule_timer_at(first_arrival(sim.now(), rng), *this);
}

void TrafficSource::on_timer(Seconds now) {
  sink_->on_packet(next_packet(now), now);
  sim_->schedule_timer_at(next_arrival(now, *rng_), *this);
}

// -------------------------------------------------------------- CbrSource

CbrSource::CbrSource(PacketsPerSecond rate, int packet_bytes, bool random_phase)
    : TrafficSource(packet_bytes), rate_(rate), random_phase_(random_phase) {
  LINKPAD_EXPECTS(rate > 0.0);
}

Seconds CbrSource::first_arrival(Seconds now, util::Rng& rng) {
  const Seconds period = 1.0 / rate_;
  const Seconds phase = random_phase_ ? rng.uniform(0.0, period) : 0.0;
  return now + phase;
}

std::string CbrSource::name() const {
  std::ostringstream out;
  out << "CBR(" << rate_ << "pps)";
  return out.str();
}

// ---------------------------------------------------------- PoissonSource

PoissonSource::PoissonSource(PacketsPerSecond rate, int packet_bytes)
    : TrafficSource(packet_bytes), rate_(rate) {
  LINKPAD_EXPECTS(rate > 0.0);
}

Seconds PoissonSource::first_arrival(Seconds now, util::Rng& rng) {
  return next_arrival(now, rng);
}

Seconds PoissonSource::next_arrival(Seconds now, util::Rng& rng) {
  return now + stats::Exponential(1.0 / rate_).sample(rng);
}

std::string PoissonSource::name() const {
  std::ostringstream out;
  out << "Poisson(" << rate_ << "pps)";
  return out.str();
}

// ------------------------------------------------------------ OnOffSource

OnOffSource::OnOffSource(PacketsPerSecond on_rate, Seconds mean_on,
                         Seconds mean_off, int packet_bytes)
    : TrafficSource(packet_bytes),
      on_rate_(on_rate),
      mean_on_(mean_on),
      mean_off_(mean_off) {
  LINKPAD_EXPECTS(on_rate > 0.0);
  LINKPAD_EXPECTS(mean_on > 0.0);
  LINKPAD_EXPECTS(mean_off > 0.0);
}

PacketsPerSecond OnOffSource::mean_rate() const {
  return on_rate_ * mean_on_ / (mean_on_ + mean_off_);
}

Seconds OnOffSource::first_arrival(Seconds now, util::Rng& rng) {
  on_ = true;
  state_ends_ = now + stats::Exponential(mean_on_).sample(rng);
  return next_arrival(now, rng);
}

Seconds OnOffSource::next_arrival(Seconds now, util::Rng& rng) {
  // Advance through OFF periods until the next emission instant.
  Seconds t = now;
  for (;;) {
    if (on_) {
      const Seconds gap = stats::Exponential(1.0 / on_rate_).sample(rng);
      if (t + gap <= state_ends_) return t + gap;
      t = state_ends_;
      on_ = false;
      state_ends_ = t + stats::Exponential(mean_off_).sample(rng);
    } else {
      t = state_ends_;
      on_ = true;
      state_ends_ = t + stats::Exponential(mean_on_).sample(rng);
    }
  }
}

std::string OnOffSource::name() const {
  std::ostringstream out;
  out << "OnOff(on=" << on_rate_ << "pps, duty="
      << mean_on_ / (mean_on_ + mean_off_) << ")";
  return out.str();
}

// ---------------------------------------------------------------- helpers

std::unique_ptr<TrafficSource> make_cbr(PacketsPerSecond rate, int packet_bytes) {
  return std::make_unique<CbrSource>(rate, packet_bytes);
}

std::unique_ptr<TrafficSource> make_poisson(PacketsPerSecond rate,
                                            int packet_bytes) {
  return std::make_unique<PoissonSource>(rate, packet_bytes);
}

}  // namespace linkpad::sim
