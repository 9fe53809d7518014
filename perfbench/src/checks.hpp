// Output checks that feed the failure count, and the saturation guard that
// keeps each campaign workload modelling what it claims.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/scenarios.hpp"

namespace perfbench {

/// The workload seed every committed digest was recorded at (the date of
/// the paper's campus capture, the library's default seed).
inline constexpr std::uint64_t kDefaultSeed = 20030324;

/// 64-bit FNV-1a of `text` as 16 lowercase hex digits.
[[nodiscard]] std::string fnv1a_hex(std::string_view text);

/// Outcome of checking one op's output. `reason` names the first failure.
struct Verdict {
  bool ok = true;
  std::string reason;

  /// Records a failure unless one is already recorded (the first wins).
  void require(bool condition, const std::string& what) {
    if (!condition && ok) {
      ok = false;
      reason = what;
    }
  }
};

/// The committed digest of `workload`'s canonical output for input `input`
/// at kDefaultSeed, or nullopt for an unknown workload or input.
[[nodiscard]] std::optional<std::string> committed_digest(
    std::string_view workload, std::size_t input);

/// Fails `verdict` when `canonical` does not hash to `expected`.
void check_digest(Verdict& verdict, std::string_view canonical,
                  std::string_view expected);

/// Offered per-hop load of a population deployment, before the library's
/// clamp at max_hop_utilization: each hop carries its own cross traffic
/// plus the wire rate of the other contention - 1 padded flows.
struct Saturation {
  double offered_utilization = 0.0;  ///< max over hops before the tap
  std::size_t saturated_hops = 0;    ///< hops offered >= the cap
  std::size_t hops = 0;
};

[[nodiscard]] Saturation offered_saturation(const linkpad::core::Scenario& scenario,
                                            std::size_t contention_flows,
                                            double per_flow_bps,
                                            double max_hop_utilization);

/// Throws std::runtime_error naming the workload when a campaign that must
/// stay below the cap reaches it, or one labelled saturated does not.
void require_saturation(const Saturation& saturation, bool expect_saturated,
                        std::string_view workload);

}  // namespace perfbench
