#include "checks.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::string fnv1a_hex(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::optional<std::string> committed_digest(std::string_view workload,
                                            std::size_t input) {
  // Recorded from a Release build at kDefaultSeed, one per input. A change
  // that alters any of these outputs changes what the workload computes,
  // and shows up here as failed ops rather than as a silent speed-up.
  struct Entry {
    std::string_view workload;
    std::string_view digests[8];
  };
  static constexpr Entry kDigests[] = {
      {"fig4b_curve",
       {"eee16e902404b9ea", "50a9580f11edccd8", "99af375926ab32d7", "718247073aff21a6",
        "18f380ab32a505ba", "d5243318c5fc1955", "302f310e49f39dbb", "e0aa7fb0167b380b"}},
      {"campaign_unsaturated",
       {"5727885a43cb7fe0", "36efdbb98e5a1adf", "8d89528bcd0a65ca", "77eb9424ae2c12e8",
        "dba3cc0fa73e3c3f", "cd5cc6d3cd7e413b", "c4c99392c2a90b44", "751fcb13efd4676d"}},
      {"campaign_saturated",
       {"25c39f5083d81e72", "d8f481fc8009907e", "1beca2b62ce062fb", "7712266107b6227f",
        "a7173fa81f443d8c", "c98586280ec1305e", "35d3df7d46623dd8", "1e35073a4d0d98b9"}},
      {"robust_frontier",
       {"b5a345eba7e4ec92", "ca2197c8921b5c32", "aed6a2096284b0e4", "d29bfe6895ae8070",
        "5ad261ebc0f774dc", "4de87b83f29c2724", "02d225be20fbd9d0", "509d2fe227e4959b"}},
  };
  for (const auto& e : kDigests) {
    if (e.workload == workload && input < std::size(e.digests)) {
      return std::string(e.digests[input]);
    }
  }
  return std::nullopt;
}

void check_digest(Verdict& verdict, std::string_view canonical,
                  std::string_view expected) {
  const std::string got = fnv1a_hex(canonical);
  verdict.require(got == expected, "output digest " + got + " != committed " +
                                       std::string(expected));
}

Saturation offered_saturation(const linkpad::core::Scenario& scenario,
                              std::size_t contention_flows,
                              double per_flow_bps,
                              double max_hop_utilization) {
  Saturation out;
  const double others =
      contention_flows > 0 ? static_cast<double>(contention_flows - 1) : 0.0;
  for (const auto& hop : scenario.base.hops_before_tap) {
    const double rho =
        hop.cross_utilization + others * per_flow_bps / hop.bandwidth_bps;
    out.offered_utilization = std::max(out.offered_utilization, rho);
    if (rho >= max_hop_utilization) ++out.saturated_hops;
    ++out.hops;
  }
  return out;
}

void require_saturation(const Saturation& saturation, bool expect_saturated,
                        std::string_view workload) {
  const bool saturated = saturation.saturated_hops > 0;
  if (saturated == expect_saturated) return;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "offered per-hop utilization %.4g on %zu of %zu hops",
                saturation.offered_utilization, saturation.saturated_hops,
                saturation.hops);
  throw std::runtime_error(
      std::string(workload) +
      (expect_saturated
           ? ": labelled saturated but no hop reaches max_hop_utilization ("
           : ": must stay below max_hop_utilization but saturates (") +
      buf + ")");
}

}  // namespace perfbench
