#include "core/trace_io.hpp"

#include <array>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <stdexcept>

namespace linkpad::core {

namespace {
constexpr std::array<char, 4> kMagic = {'L', 'P', 'T', '1'};

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + ": " + path);
}

/// Malformed content gets a file:line diagnostic plus the offending text,
/// so a corrupt multi-gigabyte trace names the exact line instead of
/// producing silent zeros or a bare std::stod error.
[[noreturn]] void fail_at(const std::string& what, const std::string& path,
                          std::size_t line_number, const std::string& line) {
  throw std::runtime_error(what + " at " + path + ":" +
                           std::to_string(line_number) + ": '" + line + "'");
}

/// Strict full-line double parse; std::stod would silently accept trailing
/// garbage ("1.5abc") and truncated corruption would read as data.
bool parse_full_double(const std::string& line, double& out) {
  const char* begin = line.c_str();
  char* end = nullptr;
  errno = 0;
  out = std::strtod(begin, &end);
  if (end == begin) return false;
  // ERANGE also fires on harmless underflow to subnormals (e.g. "1e-310");
  // only genuine overflow is unrepresentable corruption.
  if (errno == ERANGE && (out == HUGE_VAL || out == -HUGE_VAL)) return false;
  while (*end != '\0') {
    if (std::isspace(static_cast<unsigned char>(*end)) == 0) return false;
    ++end;
  }
  return true;
}
}  // namespace

void save_trace_csv(const std::string& path, const Trace& trace) {
  std::ofstream out(path);
  if (!out) fail("save_trace_csv: cannot open", path);
  out << "# linkpad PIAT trace\n";
  if (!trace.description.empty()) out << "# " << trace.description << '\n';
  out << std::setprecision(17);
  for (double x : trace.piats) out << x << '\n';
  if (!out) fail("save_trace_csv: write error", path);
}

Trace load_trace_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("load_trace_csv: cannot open", path);
  Trace trace;
  std::string line;
  std::size_t line_number = 0;
  bool first_comment = true;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // First comment is the format banner; the second carries description.
      if (!first_comment && trace.description.empty() && line.size() > 2) {
        trace.description = line.substr(2);
      }
      first_comment = false;
      continue;
    }
    double value = 0.0;
    // strtod also parses "nan" and "inf"; neither is an inter-arrival time.
    if (!parse_full_double(line, value) || !std::isfinite(value)) {
      fail_at("load_trace_csv: malformed value", path, line_number, line);
    }
    trace.piats.push_back(value);
  }
  if (in.bad()) fail("load_trace_csv: read error", path);
  return trace;
}

void save_trace_binary(const std::string& path, const Trace& trace) {
  std::ofstream out(path, std::ios::binary);
  if (!out) fail("save_trace_binary: cannot open", path);
  out.write(kMagic.data(), kMagic.size());
  const std::uint64_t desc_len = trace.description.size();
  out.write(reinterpret_cast<const char*>(&desc_len), sizeof(desc_len));
  out.write(trace.description.data(),
            static_cast<std::streamsize>(desc_len));
  const std::uint64_t count = trace.piats.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  out.write(reinterpret_cast<const char*>(trace.piats.data()),
            static_cast<std::streamsize>(count * sizeof(double)));
  if (!out) fail("save_trace_binary: write error", path);
}

Trace load_trace_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("load_trace_binary: cannot open", path);
  std::array<char, 4> magic{};
  in.read(magic.data(), magic.size());
  if (!in || magic != kMagic) fail("load_trace_binary: bad magic", path);

  Trace trace;
  std::uint64_t desc_len = 0;
  in.read(reinterpret_cast<char*>(&desc_len), sizeof(desc_len));
  if (!in || desc_len > (1u << 20)) fail("load_trace_binary: bad header", path);
  trace.description.resize(desc_len);
  in.read(trace.description.data(), static_cast<std::streamsize>(desc_len));
  if (!in) fail("load_trace_binary: truncated description", path);

  std::uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in || count > (1ull << 32)) fail("load_trace_binary: bad count", path);
  // Validate the count against the bytes actually present BEFORE resizing:
  // a corrupt count field must produce a diagnostic, not a giant
  // allocation / bad_alloc.
  const auto payload_start = in.tellg();
  in.seekg(0, std::ios::end);
  const auto file_end = in.tellg();
  in.seekg(payload_start);
  if (payload_start < 0 || file_end < payload_start ||
      static_cast<std::uint64_t>(file_end - payload_start) <
          count * sizeof(double)) {
    fail("load_trace_binary: truncated data (count field says " +
             std::to_string(count) + " PIATs)",
         path);
  }
  trace.piats.resize(count);
  in.read(reinterpret_cast<char*>(trace.piats.data()),
          static_cast<std::streamsize>(count * sizeof(double)));
  if (!in || static_cast<std::uint64_t>(in.gcount()) != count * sizeof(double)) {
    fail("load_trace_binary: truncated data (count field says " +
             std::to_string(count) + " PIATs)",
         path);
  }
  // A well-formed trace ends exactly after the payload; trailing bytes mean
  // the count field and the file disagree.
  in.peek();
  if (!in.eof()) fail("load_trace_binary: trailing bytes after payload", path);
  for (std::size_t i = 0; i < trace.piats.size(); ++i) {
    if (!std::isfinite(trace.piats[i])) {
      fail("load_trace_binary: non-finite PIAT at index " + std::to_string(i),
           path);
    }
  }
  return trace;
}

}  // namespace linkpad::core
