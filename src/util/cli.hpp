// Small command-line option parser for the figure drivers and examples.
//
// Supports `--name value`, `--name=value`, and boolean flags. Unknown
// arguments are an error (typos in sweep parameters must not be silently
// ignored in an experiment harness).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace linkpad::util {

/// Bound of every count that sizes a capture or a run (--windows, --n,
/// --piats, --slots, --flows, --sample, and --round / --grain, which index
/// and group flows): 2^30, so an array of 8-byte values sized by one such
/// count stays within 8 GiB. The parser bounds each flag alone; a size
/// made of two counts (windows × window size) is bounded where the run is
/// sized, by bounded_run_count.
inline constexpr std::size_t kMaxRunCount = std::size_t{1} << 30;

/// a × b, the size of a run made of two counts. Throws
/// std::invalid_argument naming both factors when the product wraps or
/// exceeds kMaxRunCount, so `--windows 1073741824 --n 1073741824` is
/// refused by name before anything is allocated.
[[nodiscard]] std::size_t bounded_run_count(std::size_t a,
                                            const std::string& a_name,
                                            std::size_t b,
                                            const std::string& b_name);

/// Bound of a worker-thread count (--threads): a pool starts that many OS
/// threads at once.
inline constexpr std::size_t kMaxThreads = 1024;

/// Declarative command-line parser; declare options, then parse().
class ArgParser {
 public:
  /// `program` and `summary` appear in the --help text.
  ArgParser(std::string program, std::string summary);

  /// Declare a boolean flag (false unless present).
  void add_flag(const std::string& name, const std::string& help);
  /// Declare a free-form string option with a default value.
  void add_option(const std::string& name, const std::string& default_value,
                  const std::string& help);
  /// Declare a typed integer option: the value is validated while parse()
  /// consumes argv, so a typo fails loudly at the command line instead of
  /// throwing at first access deep inside a run. The typed default appears
  /// in the generated --help.
  void add_int(const std::string& name, std::int64_t default_value,
               const std::string& help);
  /// Declare a typed count option: an integer in [0, max_value], so
  /// `--windows -5` fails at parse time instead of wrapping to 2^64 − 5 and
  /// `--threads 1000000` instead of asking for a million threads.
  void add_count(const std::string& name, std::size_t default_value,
                 std::size_t max_value, const std::string& help);
  /// Declare a typed real-number option (same parse-time validation). NaN
  /// and ±inf are refused.
  void add_num(const std::string& name, double default_value,
               const std::string& help);

  /// Parse argv. Returns false (after printing a message) on error or when
  /// --help was requested; callers should then exit.
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] bool flag(const std::string& name) const;
  [[nodiscard]] std::string str(const std::string& name) const;
  [[nodiscard]] double num(const std::string& name) const;
  [[nodiscard]] std::int64_t integer(const std::string& name) const;
  /// The option as a count; throws std::invalid_argument if it is negative
  /// or above the bound add_count declared.
  [[nodiscard]] std::size_t count(const std::string& name) const;

  /// Render the --help text.
  [[nodiscard]] std::string help() const;

 private:
  enum class Kind { kFlag, kString, kInt, kCount, kNum };
  struct Spec {
    std::string help;
    std::string default_value;
    Kind kind = Kind::kString;
    std::size_t max_count = std::numeric_limits<std::size_t>::max();
  };
  /// Why `text` is not a value of `spec`'s type; nullopt when it is one.
  static std::optional<std::string> problem_with(const Spec& spec,
                                                 const std::string& text);
  const Spec& spec_for(const std::string& name) const;
  void declare(const std::string& name, Spec spec);

  std::string program_;
  std::string summary_;
  std::map<std::string, Spec> specs_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> order_;
};

}  // namespace linkpad::util
