// PIAT trace persistence: record captures to disk and replay them later —
// the workflow the paper's Agilent analyzer dumps supported (capture once,
// analyze offline many times).
//
// Two formats:
//  * CSV  — one value per line, `#`-prefixed header comments; diff-able.
//  * LPT1 — little-endian binary: magic "LPT1", u64 count, f64[count];
//           compact and exact for large traces.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace linkpad::core {

/// A captured PIAT trace plus its provenance.
struct Trace {
  std::string description;          ///< free-form provenance line
  std::vector<double> piats;        ///< seconds
};

/// Write as CSV (overwrites). Throws std::runtime_error on I/O failure.
void save_trace_csv(const std::string& path, const Trace& trace);

/// Read CSV written by save_trace_csv (or any one-number-per-line file).
/// Throws std::runtime_error naming file:line on a malformed or non-finite
/// (nan, inf) value.
Trace load_trace_csv(const std::string& path);

/// Write the binary LPT1 format.
void save_trace_binary(const std::string& path, const Trace& trace);

/// Read the binary LPT1 format; validates the magic and count, and throws
/// std::runtime_error naming the PIAT index of a non-finite value.
Trace load_trace_binary(const std::string& path);

}  // namespace linkpad::core
