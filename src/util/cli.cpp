#include "util/cli.hpp"

#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "util/check.hpp"

namespace linkpad::util {

namespace {

/// Strict whole-string parses; nullopt on any trailing junk. Shared by the
/// typed accessors AND parse()'s typed-option validation so both reject
/// exactly the same inputs.
std::optional<std::int64_t> parse_integer_text(const std::string& text) {
  try {
    std::size_t used = 0;
    const long long v = std::stoll(text, &used);
    if (used != text.size()) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<std::size_t> parse_count_text(const std::string& text) {
  const auto v = parse_integer_text(text);
  if (!v || *v < 0) return std::nullopt;
  return static_cast<std::size_t>(*v);
}

/// Finite numbers only: no option of a driver means anything at nan or inf.
std::optional<double> parse_number_text(const std::string& text) {
  try {
    std::size_t used = 0;
    const double v = std::stod(text, &used);
    if (used != text.size() || !std::isfinite(v)) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace

std::size_t bounded_run_count(std::size_t a, const std::string& a_name,
                              std::size_t b, const std::string& b_name) {
  std::size_t product = 0;
  if (__builtin_mul_overflow(a, b, &product) || product > kMaxRunCount) {
    throw std::invalid_argument(
        a_name + " x " + b_name + " = " + std::to_string(a) + " x " +
        std::to_string(b) + " exceeds the bound " +
        std::to_string(kMaxRunCount));
  }
  return product;
}

ArgParser::ArgParser(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

void ArgParser::declare(const std::string& name, Spec spec) {
  LINKPAD_EXPECTS(name.rfind("--", 0) == 0);
  LINKPAD_EXPECTS(!specs_.count(name));
  specs_[name] = std::move(spec);
  order_.push_back(name);
}

void ArgParser::add_flag(const std::string& name, const std::string& help_text) {
  declare(name, Spec{help_text, "false", Kind::kFlag});
}

void ArgParser::add_option(const std::string& name,
                           const std::string& default_value,
                           const std::string& help_text) {
  declare(name, Spec{help_text, default_value, Kind::kString});
}

void ArgParser::add_int(const std::string& name, std::int64_t default_value,
                        const std::string& help_text) {
  declare(name, Spec{help_text, std::to_string(default_value), Kind::kInt});
}

void ArgParser::add_count(const std::string& name, std::size_t default_value,
                          std::size_t max_value, const std::string& help_text) {
  LINKPAD_EXPECTS(default_value <= max_value);
  declare(name, Spec{help_text, std::to_string(default_value), Kind::kCount,
                     max_value});
}

void ArgParser::add_num(const std::string& name, double default_value,
                        const std::string& help_text) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", default_value);
  declare(name, Spec{help_text, buf, Kind::kNum});
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << help();
      return false;
    }
    std::string name = arg;
    std::optional<std::string> inline_value;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      inline_value = arg.substr(eq + 1);
    }
    auto it = specs_.find(name);
    if (it == specs_.end()) {
      std::cerr << program_ << ": unknown argument '" << arg << "'\n"
                << "Run with --help for usage.\n";
      return false;
    }
    if (it->second.kind == Kind::kFlag) {
      if (inline_value) {
        std::cerr << program_ << ": flag '" << name << "' takes no value\n";
        return false;
      }
      values_[name] = "true";
    } else if (inline_value) {
      values_[name] = *inline_value;
    } else {
      if (i + 1 >= argc) {
        std::cerr << program_ << ": option '" << name << "' needs a value\n";
        return false;
      }
      values_[name] = argv[++i];
    }
    // Typed options are validated HERE, while the offending token is still
    // attributable to the command line — not at first accessor use.
    const std::string& value = values_[name];
    if (const auto problem = problem_with(it->second, value)) {
      std::cerr << program_ << ": option '" << name << "': '" << value
                << "' " << *problem << "\n";
      return false;
    }
  }
  return true;
}

std::optional<std::string> ArgParser::problem_with(const Spec& spec,
                                                   const std::string& text) {
  switch (spec.kind) {
    case Kind::kFlag:
    case Kind::kString:
      return std::nullopt;
    case Kind::kInt:
      if (!parse_integer_text(text)) return "is not an integer";
      return std::nullopt;
    case Kind::kCount: {
      const auto v = parse_count_text(text);
      if (!v) return "is not a count (a non-negative integer)";
      if (*v > spec.max_count) {
        return "exceeds the bound " + std::to_string(spec.max_count);
      }
      return std::nullopt;
    }
    case Kind::kNum:
      if (!parse_number_text(text)) return "is not a finite number";
      return std::nullopt;
  }
  return std::nullopt;
}

const ArgParser::Spec& ArgParser::spec_for(const std::string& name) const {
  auto it = specs_.find(name);
  if (it == specs_.end()) {
    throw std::invalid_argument("undeclared option: " + name);
  }
  return it->second;
}

bool ArgParser::flag(const std::string& name) const {
  const Spec& spec = spec_for(name);
  LINKPAD_EXPECTS(spec.kind == Kind::kFlag);
  auto it = values_.find(name);
  return it != values_.end() && it->second == "true";
}

std::string ArgParser::str(const std::string& name) const {
  const Spec& spec = spec_for(name);
  auto it = values_.find(name);
  return it != values_.end() ? it->second : spec.default_value;
}

double ArgParser::num(const std::string& name) const {
  const std::string text = str(name);
  const auto v = parse_number_text(text);
  if (!v) {
    throw std::invalid_argument("option " + name + ": '" + text +
                                "' is not a finite number");
  }
  return *v;
}

std::int64_t ArgParser::integer(const std::string& name) const {
  const std::string text = str(name);
  const auto v = parse_integer_text(text);
  if (!v) {
    throw std::invalid_argument("option " + name + ": '" + text +
                                "' is not an integer");
  }
  return *v;
}

std::size_t ArgParser::count(const std::string& name) const {
  const std::string text = str(name);
  const auto v = parse_count_text(text);
  if (!v) {
    throw std::invalid_argument("option " + name + ": '" + text +
                                "' is not a count");
  }
  const std::size_t bound = spec_for(name).max_count;
  if (*v > bound) {
    throw std::invalid_argument("option " + name + ": '" + text +
                                "' exceeds the bound " +
                                std::to_string(bound));
  }
  return *v;
}

std::string ArgParser::help() const {
  std::ostringstream out;
  out << program_ << " — " << summary_ << "\n\nOptions:\n";
  for (const auto& name : order_) {
    const Spec& spec = specs_.at(name);
    out << "  " << name;
    const char* type = nullptr;
    switch (spec.kind) {
      case Kind::kFlag: break;
      case Kind::kString: type = "value"; break;
      case Kind::kInt: type = "int"; break;
      case Kind::kCount: type = "count"; break;
      case Kind::kNum: type = "num"; break;
    }
    if (type != nullptr) {
      out << " <" << type << " = " << spec.default_value << ">";
    }
    out << "\n      " << spec.help;
    if (spec.kind == Kind::kCount) out << " (at most " << spec.max_count << ")";
    out << "\n";
  }
  out << "  --help\n      Show this message.\n";
  return out.str();
}

}  // namespace linkpad::util
