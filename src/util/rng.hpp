// Deterministic, splittable random number generation.
//
// Experiments in this repository are Monte-Carlo sweeps that run sharded over
// threads; results must not depend on the thread count or the iteration
// order. We therefore use counter-based *substream derivation*: every task
// derives its own engine from (root_seed, stream_index) through SplitMix64
// hashing, instead of sharing one sequential engine.
//
// The engine is xoshiro256++ (Blackman & Vigna), implemented from the public
// domain reference: 256-bit state, period 2^256-1, passes BigCrush, and much
// faster than std::mt19937_64. We ship our own implementation so results are
// bit-reproducible across standard libraries.
#pragma once

#include <array>
#include <cstdint>

namespace linkpad::util {

/// SplitMix64: tiny 64-bit PRNG used to seed / derive other generators.
/// Also usable as a strong 64-bit mixing (hash) function via `mix()`.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  /// Next 64-bit value.
  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Stateless strong mix of a single 64-bit value.
  static constexpr std::uint64_t mix(std::uint64_t x) {
    return SplitMix64(x).next();
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256++ engine. Satisfies std::uniform_random_bit_generator, so it
/// can also drive <random> distributions when convenient.
class Xoshiro256pp {
 public:
  using result_type = std::uint64_t;

  /// Seed the 4x64-bit state by running SplitMix64 from `seed`
  /// (the procedure recommended by the xoshiro authors).
  explicit Xoshiro256pp(std::uint64_t seed = 0x9d8e3c2a17f4b6d1ULL) {
    SplitMix64 sm(seed);
    for (auto& w : state_) w = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 random bits.
  double uniform01() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform01(); }

  /// The four state words. Lets a vector kernel run several engines side
  /// by side, one per lane, drawing exactly what each engine would.
  [[nodiscard]] const std::array<std::uint64_t, 4>& state() const {
    return state_;
  }

  /// Advance the state by 2^128 steps: yields 2^128 non-overlapping
  /// subsequences (used by jump-based substreams; we normally prefer
  /// derive-by-hash, see RngFactory).
  void jump();

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_;
};

/// Canonical engine alias used across the codebase (sim, live, stats all
/// draw from the same generator so experiments stay bit-reproducible).
using Rng = Xoshiro256pp;

/// Derives independent engines from a root seed by hashing (root, stream).
/// Two factories with the same root seed produce identical streams, no matter
/// how many threads consume them or in which order — the backbone of
/// reproducible parallel Monte Carlo.
class RngFactory {
 public:
  explicit RngFactory(std::uint64_t root_seed) : root_(root_seed) {}

  /// Engine for logical substream `stream` (e.g. trial index).
  [[nodiscard]] Xoshiro256pp make(std::uint64_t stream) const {
    // Mix root and stream through two rounds so that adjacent stream ids
    // land far apart in seed space.
    const std::uint64_t s =
        SplitMix64::mix(root_ ^ SplitMix64::mix(stream + 0x632be59bd9b4e019ULL));
    return Xoshiro256pp(s);
  }

  /// Two-level substream (e.g. (sweep point, trial)).
  [[nodiscard]] Xoshiro256pp make(std::uint64_t a, std::uint64_t b) const {
    return make(SplitMix64::mix(a) ^ (b * 0x9e3779b97f4a7c15ULL));
  }

  [[nodiscard]] std::uint64_t root_seed() const { return root_; }

 private:
  std::uint64_t root_;
};

}  // namespace linkpad::util
