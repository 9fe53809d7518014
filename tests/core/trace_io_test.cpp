#include "core/trace_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sim/testbed.hpp"
#include "util/rng.hpp"

namespace linkpad::core {
namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("linkpad_trace_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

Trace sample_trace() {
  Trace t;
  t.description = "lab zero-cross CIT 40pps";
  t.piats = {0.0100001, 0.0099998, 0.0100012, 0.0099971, 0.0100033};
  return t;
}

TEST_F(TraceIoTest, CsvRoundTripPreservesValues) {
  const auto original = sample_trace();
  save_trace_csv(path("t.csv"), original);
  const auto loaded = load_trace_csv(path("t.csv"));
  ASSERT_EQ(loaded.piats.size(), original.piats.size());
  for (std::size_t i = 0; i < original.piats.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.piats[i], original.piats[i]);
  }
  EXPECT_EQ(loaded.description, original.description);
}

TEST_F(TraceIoTest, BinaryRoundTripIsExact) {
  const auto original = sample_trace();
  save_trace_binary(path("t.lpt"), original);
  const auto loaded = load_trace_binary(path("t.lpt"));
  EXPECT_EQ(loaded.piats, original.piats);
  EXPECT_EQ(loaded.description, original.description);
}

TEST_F(TraceIoTest, EmptyTraceRoundTrips) {
  Trace empty;
  save_trace_binary(path("e.lpt"), empty);
  const auto loaded = load_trace_binary(path("e.lpt"));
  EXPECT_TRUE(loaded.piats.empty());
  EXPECT_TRUE(loaded.description.empty());
}

TEST_F(TraceIoTest, LargeTraceBinaryRoundTrip) {
  Trace big;
  big.description = "big";
  big.piats.reserve(100000);
  for (int i = 0; i < 100000; ++i) big.piats.push_back(1e-2 + i * 1e-9);
  save_trace_binary(path("big.lpt"), big);
  const auto loaded = load_trace_binary(path("big.lpt"));
  EXPECT_EQ(loaded.piats, big.piats);
}

TEST_F(TraceIoTest, MissingFileThrows) {
  EXPECT_THROW(load_trace_csv(path("missing.csv")), std::runtime_error);
  EXPECT_THROW(load_trace_binary(path("missing.lpt")), std::runtime_error);
}

TEST_F(TraceIoTest, BadMagicRejected) {
  std::ofstream out(path("bad.lpt"), std::ios::binary);
  out << "NOPE-this-is-not-a-trace";
  out.close();
  EXPECT_THROW(load_trace_binary(path("bad.lpt")), std::runtime_error);
}

TEST_F(TraceIoTest, TruncatedBinaryRejected) {
  const auto original = sample_trace();
  save_trace_binary(path("t.lpt"), original);
  // Chop the file in half.
  const auto full =
      static_cast<std::size_t>(std::filesystem::file_size(path("t.lpt")));
  std::filesystem::resize_file(path("t.lpt"), full / 2);
  EXPECT_THROW(load_trace_binary(path("t.lpt")), std::runtime_error);
}

TEST_F(TraceIoTest, MalformedCsvValueNamesFileAndLine) {
  std::ofstream out(path("corrupt.csv"));
  out << "# banner\n0.01\n0.02\nbogus-not-a-number\n0.03\n";
  out.close();
  try {
    (void)load_trace_csv(path("corrupt.csv"));
    FAIL() << "corrupt CSV must not parse";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    // The diagnostic must point at the offending file AND line, not
    // surface as a bare std::stod error or silent truncation.
    EXPECT_NE(what.find("corrupt.csv:4"), std::string::npos) << what;
    EXPECT_NE(what.find("bogus-not-a-number"), std::string::npos) << what;
  }
}

TEST_F(TraceIoTest, CsvTrailingGarbageAfterNumberRejected) {
  // std::stod would silently accept "0.01abc" as 0.01; strict parsing
  // must flag the corruption instead.
  std::ofstream out(path("trailing.csv"));
  out << "0.01\n0.02abc\n";
  out.close();
  try {
    (void)load_trace_csv(path("trailing.csv"));
    FAIL() << "trailing garbage must not parse";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("trailing.csv:2"), std::string::npos)
        << e.what();
  }
}

TEST_F(TraceIoTest, CsvAcceptsSurroundingWhitespace) {
  std::ofstream out(path("ws.csv"));
  out << "0.01 \n0.02\t\n";
  out.close();
  const auto loaded = load_trace_csv(path("ws.csv"));
  ASSERT_EQ(loaded.piats.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded.piats[1], 0.02);
}

TEST_F(TraceIoTest, BinaryCountMismatchRejected) {
  // A count field larger than the payload means truncated data.
  const auto original = sample_trace();
  save_trace_binary(path("short.lpt"), original);
  const auto full =
      static_cast<std::size_t>(std::filesystem::file_size(path("short.lpt")));
  std::filesystem::resize_file(path("short.lpt"), full - sizeof(double));
  try {
    (void)load_trace_binary(path("short.lpt"));
    FAIL() << "short payload must not parse";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

TEST_F(TraceIoTest, HugeCountFieldDiagnosedWithoutGiantAllocation) {
  // A corrupt count field below the sanity cap must produce the truncation
  // diagnostic, not a multi-gigabyte resize ending in bad_alloc.
  const auto original = sample_trace();
  save_trace_binary(path("huge.lpt"), original);
  std::fstream patch(path("huge.lpt"),
                     std::ios::binary | std::ios::in | std::ios::out);
  const auto count_offset = static_cast<std::streamoff>(
      4 + sizeof(std::uint64_t) + original.description.size());
  const std::uint64_t bogus = (1ull << 32) - 1;
  patch.seekp(count_offset);
  patch.write(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  patch.close();
  try {
    (void)load_trace_binary(path("huge.lpt"));
    FAIL() << "bogus count must not parse";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

TEST_F(TraceIoTest, CsvAcceptsSubnormalValues) {
  // glibc strtod flags subnormals with ERANGE; they are representable and
  // must load, unlike genuine overflow.
  std::ofstream out(path("tiny.csv"));
  out << "1e-310\n1e+400\n";
  out.close();
  try {
    (void)load_trace_csv(path("tiny.csv"));
    FAIL() << "overflow line must be rejected";
  } catch (const std::runtime_error& e) {
    // Line 1 (the subnormal) parses; line 2 (overflow) is the error.
    EXPECT_NE(std::string(e.what()).find("tiny.csv:2"), std::string::npos)
        << e.what();
  }
}

TEST_F(TraceIoTest, CsvNonFiniteValuesNameFileAndLine) {
  // strtod parses "nan" and "inf", but neither is an inter-arrival time:
  // each must fail with the malformed-value diagnostic at its own line.
  for (const std::string bad : {"nan", "NaN", "inf", "-inf", "infinity"}) {
    std::ofstream out(path("nonfinite.csv"));
    out << "# banner\n0.01\n" << bad << "\n0.02\n";
    out.close();
    try {
      (void)load_trace_csv(path("nonfinite.csv"));
      FAIL() << bad << " must not load";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("nonfinite.csv:3"), std::string::npos) << what;
      EXPECT_NE(what.find("'" + bad + "'"), std::string::npos) << what;
    }
  }
}

TEST_F(TraceIoTest, BinaryNonFinitePiatNamesItsIndex) {
  // The binary payload is raw bit patterns: a NaN or infinity written by a
  // foreign tool (or a flipped exponent) must be refused, naming the PIAT.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    Trace t = sample_trace();
    t.piats[3] = bad;
    save_trace_binary(path("nonfinite.lpt"), t);
    try {
      (void)load_trace_binary(path("nonfinite.lpt"));
      FAIL() << bad << " must not load";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("non-finite PIAT at index 3"), std::string::npos)
          << what;
      EXPECT_NE(what.find("nonfinite.lpt"), std::string::npos) << what;
    }
  }
}

TEST_F(TraceIoTest, BinaryTrailingBytesRejected) {
  const auto original = sample_trace();
  save_trace_binary(path("extra.lpt"), original);
  std::ofstream out(path("extra.lpt"), std::ios::binary | std::ios::app);
  out << "junk";
  out.close();
  EXPECT_THROW(load_trace_binary(path("extra.lpt")), std::runtime_error);
}

TEST_F(TraceIoTest, TruncatedDescriptionRejected) {
  const auto original = sample_trace();
  save_trace_binary(path("desc.lpt"), original);
  // Chop inside the description bytes (magic 4 + length 8 + partial text).
  std::filesystem::resize_file(path("desc.lpt"), 4 + 8 + 3);
  EXPECT_THROW(load_trace_binary(path("desc.lpt")), std::runtime_error);
}

TEST_F(TraceIoTest, CsvSkipsCommentsAndBlankLines) {
  std::ofstream out(path("manual.csv"));
  out << "# banner\n\n# a description\n0.01\n\n0.02\n";
  out.close();
  const auto loaded = load_trace_csv(path("manual.csv"));
  ASSERT_EQ(loaded.piats.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded.piats[0], 0.01);
  EXPECT_EQ(loaded.description, "a description");
}

// ------------------------------------------------------ round-trip fuzzing

/// Randomized trace: mixed magnitudes, exact duplicates (equal
/// timestamps), negatives, subnormals, and exact zeros — everything a real
/// capture or a clock glitch can produce except NaN (not a time).
Trace random_trace(util::Rng& rng, std::size_t count) {
  Trace t;
  if (rng.uniform01() < 0.7) {
    t.description = "fuzz trace " + std::to_string(count);
  }
  t.piats.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double pick = rng.uniform01();
    double x;
    if (pick < 0.15) {
      x = t.piats.empty() ? 0.01 : t.piats.back();  // duplicate timestamp
    } else if (pick < 0.25) {
      x = 0.0;
    } else if (pick < 0.3) {
      x = rng.uniform(-1e-3, 0.0);  // negative PIAT (clock skew artifact)
    } else if (pick < 0.35) {
      x = 5e-310 * rng.uniform01();  // subnormal territory
    } else if (pick < 0.45) {
      x = rng.uniform(1e8, 1e12);  // absurd magnitude, still finite
    } else {
      x = 10e-3 + rng.uniform(-3e-3, 3e-3);  // realistic padded PIAT
    }
    t.piats.push_back(x);
  }
  return t;
}

void expect_traces_bitwise_equal(const Trace& a, const Trace& b,
                                 const std::string& label) {
  EXPECT_EQ(a.description, b.description) << label;
  ASSERT_EQ(a.piats.size(), b.piats.size()) << label;
  for (std::size_t i = 0; i < a.piats.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a.piats[i], &b.piats[i], sizeof(double)), 0)
        << label << " index " << i << ": " << a.piats[i] << " vs "
        << b.piats[i];
  }
}

TEST_F(TraceIoTest, RandomTracesRoundTripBitwiseInBothFormats) {
  // 17 significant digits uniquely identify a double, so BOTH formats owe
  // a bitwise round trip — CSV included. Edge sizes 0 (empty capture) and
  // 1 (single packet pair) are always in the sweep.
  util::Rng rng(20030324);
  for (std::size_t i = 0; i < 60; ++i) {
    const std::size_t count =
        i == 0 ? 0
               : (i == 1 ? 1
                         : static_cast<std::size_t>(rng.uniform(0.0, 300.0)));
    const auto original = random_trace(rng, count);
    const std::string tag = "iteration " + std::to_string(i);

    save_trace_csv(path("fuzz.csv"), original);
    expect_traces_bitwise_equal(load_trace_csv(path("fuzz.csv")), original,
                                tag + " csv");

    save_trace_binary(path("fuzz.lpt"), original);
    expect_traces_bitwise_equal(load_trace_binary(path("fuzz.lpt")), original,
                                tag + " binary");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_F(TraceIoTest, CrossFormatRoundTripPreservesTrace) {
  // CSV → load → binary → load must end bit-identical to the original:
  // the two formats describe one Trace, not two dialects of it.
  util::Rng rng(7);
  const auto original = random_trace(rng, 120);
  save_trace_csv(path("x.csv"), original);
  const auto via_csv = load_trace_csv(path("x.csv"));
  save_trace_binary(path("x.lpt"), via_csv);
  expect_traces_bitwise_equal(load_trace_binary(path("x.lpt")), original,
                              "csv->binary");
}

TEST_F(TraceIoTest, DuplicateTimestampRunsSurviveRoundTrip) {
  Trace t;
  t.description = "all equal";
  t.piats.assign(200, 0.0099999999999999985);  // not exactly representable
  save_trace_csv(path("dup.csv"), t);
  expect_traces_bitwise_equal(load_trace_csv(path("dup.csv")), t, "dup csv");
  save_trace_binary(path("dup.lpt"), t);
  expect_traces_bitwise_equal(load_trace_binary(path("dup.lpt")), t,
                              "dup binary");
}

// ------------------------------------------------------- mutation fuzzing

class TraceFuzz : public TraceIoTest {};

std::string read_bytes(const std::string& file) {
  std::ifstream in(file, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Real trace files in both formats: two simulated captures (CIT at the
/// lab's two payload rates), a random trace of edge values, and an empty
/// trace.
std::vector<std::string> trace_sources(const std::string& scratch) {
  std::vector<Trace> traces;
  for (const double rate : {10.0, 40.0}) {
    sim::TestbedConfig config;
    config.policy = std::make_shared<sim::ConstantIntervalTimer>(10e-3);
    config.payload_rate = rate;
    util::Rng rng(static_cast<std::uint64_t>(rate));
    Trace t;
    t.description = "lab CIT capture at " + std::to_string(rate) + " pps";
    t.piats = sim::collect_piats(config, rng, 96);
    traces.push_back(std::move(t));
  }
  util::Rng rng(11);
  traces.push_back(random_trace(rng, 40));
  traces.push_back(Trace{"empty", {}});

  std::vector<std::string> sources;
  for (const Trace& t : traces) {
    save_trace_csv(scratch, t);
    sources.push_back(read_bytes(scratch));
    save_trace_binary(scratch, t);
    sources.push_back(read_bytes(scratch));
  }
  return sources;
}

/// One seeded mutation of one source: truncate, flip a bit, insert
/// punctuation, splice in a slice of another source, or set a count field
/// (LPT1's description length or PIAT count; a CSV value line) to an edge
/// value.
std::string mutate_trace(const std::vector<std::string>& sources,
                         util::Rng& rng) {
  const auto pick = [&rng](std::size_t n) {
    return std::min(n - 1, static_cast<std::size_t>(rng.uniform01() *
                                                    static_cast<double>(n)));
  };
  std::string text = sources[pick(sources.size())];
  constexpr std::uint64_t kEdges[] = {0, 1, 1ULL << 32, (1ULL << 63) + 2,
                                      ~0ULL};
  switch (pick(5)) {
    case 0:
      text.resize(pick(text.size() + 1));
      break;
    case 1: {
      char& c = text[pick(text.size())];
      c = static_cast<char>(c ^ (1 << pick(8)));
      break;
    }
    case 2: {
      const std::string_view punctuation = "#,.-+eE \n\r\t";
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(
                                     pick(text.size() + 1)),
                  punctuation[pick(punctuation.size())]);
      break;
    }
    case 3: {
      const std::string& other = sources[pick(sources.size())];
      const std::size_t from = pick(other.size());
      const std::size_t length = pick(other.size() - from + 1);
      const std::size_t at = pick(text.size() + 1);
      const std::size_t cut = pick(text.size() - at + 1);
      text.replace(at, cut, other, from, length);
      break;
    }
    default: {
      const std::uint64_t edge = kEdges[pick(std::size(kEdges))];
      if (text.rfind("LPT1", 0) == 0) {
        // Header: magic, u64 description length, description, u64 count.
        std::uint64_t desc_len = 0;
        std::memcpy(&desc_len, text.data() + 4, sizeof(desc_len));
        const std::size_t at = rng.uniform01() < 0.5 ? 4 : 12 + desc_len;
        std::memcpy(text.data() + at, &edge, sizeof(edge));
      } else {
        // Replace the value on a random line that does not start a comment.
        std::vector<std::size_t> starts;
        for (std::size_t i = 0; i < text.size(); ++i) {
          if ((i == 0 || text[i - 1] == '\n') && text[i] != '#') {
            starts.push_back(i);
          }
        }
        if (starts.empty()) break;
        const std::size_t at = starts[pick(starts.size())];
        const std::size_t end = std::min(text.find('\n', at), text.size());
        text.replace(at, end - at, std::to_string(edge));
      }
      break;
    }
  }
  return text;
}

TEST_F(TraceFuzz, MutatedTracesLoadOrFailByName) {
  // Trace files come from other machines and other tools: every byte
  // sequence must load or throw std::runtime_error — never crash or raise
  // anything else — through both loaders. What loads saves and reloads to
  // the same trace, bit for bit.
  const auto sources = trace_sources(path("source"));
  util::Rng rng(20030324);
  std::size_t loaded = 0;
  std::size_t refused = 0;
  const std::string file = path("variant");
  for (int variant = 0; variant < 10000; ++variant) {
    {
      std::ofstream out(file, std::ios::binary | std::ios::trunc);
      const std::string text = mutate_trace(sources, rng);
      out.write(text.data(), static_cast<std::streamsize>(text.size()));
    }
    for (const bool binary : {false, true}) {
      try {
        const Trace once =
            binary ? load_trace_binary(file) : load_trace_csv(file);
        const std::string again = path("again");
        if (binary) {
          save_trace_binary(again, once);
          expect_traces_bitwise_equal(load_trace_binary(again), once,
                                      "variant " + std::to_string(variant));
        } else {
          save_trace_csv(again, once);
          expect_traces_bitwise_equal(load_trace_csv(again), once,
                                      "variant " + std::to_string(variant));
        }
        ++loaded;
      } catch (const std::runtime_error&) {
        ++refused;
      } catch (const std::exception& err) {
        ADD_FAILURE() << "variant " << variant << " (binary " << binary
                      << ") threw something else: " << err.what();
      }
    }
    if (::testing::Test::HasFailure()) return;
  }
  // Both outcomes must be common, or the mutations test nothing.
  EXPECT_GT(loaded, 1000u);
  EXPECT_GT(refused, 1000u);
}

}  // namespace
}  // namespace linkpad::core
