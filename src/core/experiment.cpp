#include "core/experiment.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>

#include "analysis/theory.hpp"
#include "classify/detector_bank.hpp"
#include "stats/descriptive.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace linkpad::core {

namespace {

std::optional<double> theory_prediction(classify::FeatureKind kind,
                                        double r_hat, double n) {
  switch (kind) {
    case classify::FeatureKind::kSampleMean:
      return analysis::detection_rate_mean_exact(r_hat);
    case classify::FeatureKind::kSampleVariance:
      return analysis::detection_rate_variance(r_hat, n);
    case classify::FeatureKind::kSampleEntropy:
      return analysis::detection_rate_entropy(r_hat, n);
    default:
      return std::nullopt;  // extension features: no closed form
  }
}

stats::BootstrapResult rate_ci(const classify::ConfusionMatrix& confusion) {
  const double rate = confusion.detection_rate();
  return stats::proportion_ci(
      static_cast<std::size_t>(
          std::llround(rate * static_cast<double>(confusion.total()))),
      confusion.total(), 0.95);
}

}  // namespace

std::vector<classify::FeatureKind> AdversaryPlan::features() const {
  std::vector<classify::FeatureKind> out;
  out.reserve(1 + extra_features.size());
  out.push_back(adversary.feature);
  for (const auto kind : extra_features) {
    if (std::find(out.begin(), out.end(), kind) == out.end()) {
      out.push_back(kind);
    }
  }
  return out;
}

void AdversaryPlan::set_features(
    const std::vector<classify::FeatureKind>& all) {
  LINKPAD_EXPECTS(!all.empty());
  adversary.feature = all.front();
  extra_features.assign(all.begin() + 1, all.end());
}

std::vector<std::size_t> ExperimentSpec::sample_sizes() const {
  std::vector<std::size_t> ns = sample_size_axis;
  if (ns.empty()) ns.push_back(plan.adversary.window_size);
  std::sort(ns.begin(), ns.end());
  ns.erase(std::unique(ns.begin(), ns.end()), ns.end());
  LINKPAD_EXPECTS(ns.front() >= 2);
  return ns;
}

const FeatureOutcome& SampleSizePoint::outcome(
    classify::FeatureKind kind) const {
  for (const auto& o : per_feature) {
    if (o.feature == kind) return o;
  }
  throw std::invalid_argument("SampleSizePoint: feature not evaluated: " +
                              classify::feature_name(kind));
}

const SampleSizePoint& ExperimentResult::top() const {
  LINKPAD_EXPECTS(!by_sample_size.empty());
  return by_sample_size.back();
}

const FeatureOutcome& ExperimentResult::primary() const {
  LINKPAD_EXPECTS(!top().per_feature.empty());
  return top().per_feature.front();
}

const FeatureOutcome& ExperimentResult::outcome(
    classify::FeatureKind kind) const {
  return top().outcome(kind);
}

const SampleSizePoint& ExperimentResult::at_sample_size(std::size_t n) const {
  // by_sample_size is ascending in n (spec.sample_sizes() order).
  const auto it = std::lower_bound(
      by_sample_size.begin(), by_sample_size.end(), n,
      [](const SampleSizePoint& point, std::size_t key) {
        return point.sample_size < key;
      });
  if (it == by_sample_size.end() || it->sample_size != n) {
    // First stop of a shard/merge axis mismatch: say what was requested AND
    // what the result actually carries, not just that the lookup failed.
    std::ostringstream msg;
    msg << "ExperimentResult::at_sample_size: requested n = " << n
        << " is not on the axis; available sample sizes:";
    if (by_sample_size.empty()) {
      msg << " (none)";
    } else {
      for (const auto& point : by_sample_size) msg << ' ' << point.sample_size;
    }
    throw std::invalid_argument(msg.str());
  }
  return *it;
}

namespace {

/// Mean of one StreamOverhead field across classes (equal priors).
template <typename Fn>
std::optional<double> mean_over_classes(
    const std::vector<StreamOverhead>& per_class, Fn&& field) {
  if (per_class.empty()) return std::nullopt;
  double sum = 0.0;
  for (const auto& oh : per_class) sum += field(oh);
  return sum / static_cast<double>(per_class.size());
}

}  // namespace

std::optional<double> ExperimentResult::mean_padding_bps() const {
  return mean_over_classes(overhead_per_class,
                           [](const StreamOverhead& oh) { return oh.padding_bps; });
}

std::optional<double> ExperimentResult::mean_wire_bps() const {
  return mean_over_classes(overhead_per_class,
                           [](const StreamOverhead& oh) { return oh.wire_bps; });
}

std::optional<double> ExperimentResult::mean_dummy_fraction() const {
  return mean_over_classes(
      overhead_per_class,
      [](const StreamOverhead& oh) { return oh.dummy_fraction; });
}

std::optional<Seconds> ExperimentResult::worst_delay_p95() const {
  if (overhead_per_class.empty()) return std::nullopt;
  Seconds worst = 0.0;
  for (const auto& oh : overhead_per_class) {
    worst = std::max(worst, oh.delay_p95);
  }
  return worst;
}

// --------------------------------------------------------- ExperimentEngine

ExperimentEngine::ExperimentEngine(const ExperimentBackend& backend,
                                   std::size_t batch_piats,
                                   util::ThreadPool* pool)
    : backend_(&backend),
      batch_piats_(std::max<std::size_t>(batch_piats, 1)),
      pool_(pool) {}

std::vector<double> ExperimentEngine::class_stream(
    const ExperimentSpec& spec, std::size_t class_index, std::size_t piats,
    std::uint64_t stream_salt) const {
  return pull_stream(*backend_, spec.scenario, class_index, spec.seed,
                     stream_salt, piats, batch_piats_);
}

namespace {

/// One sample-size point's streaming state inside ExperimentEngine::run:
/// its bank, its per-class prefix budgets, and its training moments.
struct PrefixPoint {
  std::size_t n = 0;
  std::size_t train_windows = 0;
  std::size_t test_windows = 0;
  std::size_t train_limit = 0;  ///< per-class training PIAT budget
  std::size_t test_limit = 0;   ///< per-class test PIAT budget
  std::vector<stats::RunningStats> train_stats;  ///< per class, over prefix
};

/// The part of `batch` (starting at stream offset `offset`) that falls
/// inside a point's prefix budget `limit`.
std::span<const double> clip_to_limit(std::span<const double> batch,
                                      std::size_t offset, std::size_t limit) {
  if (offset >= limit) return {};
  return batch.first(std::min(batch.size(), limit - offset));
}

/// Class c's training moments along its capture: one Welford chain,
/// forked into points[i].train_stats[c] where the stream crosses point i's
/// prefix boundary — the snapshot IS that point's training moments, with
/// the exact adds an independent run would have performed.
class MomentChain {
 public:
  MomentChain(std::vector<PrefixPoint>& points, std::size_t class_index)
      : points_(&points), class_(class_index), crossed_(points.size(), 0) {}

  /// PIATs consumed so far: the stream offset of the next batch.
  [[nodiscard]] std::size_t offset() const { return offset_; }

  void add(std::span<const double> batch) {
    auto& points = *points_;
    while (!batch.empty()) {
      // Points are ascending in n, so their train limits are NOT sorted;
      // track crossings per point instead.
      std::size_t next_boundary = static_cast<std::size_t>(-1);
      for (std::size_t i = 0; i < points.size(); ++i) {
        if (!crossed_[i] && points[i].train_limit > offset_) {
          next_boundary = std::min(next_boundary, points[i].train_limit);
        }
      }
      const std::size_t take = std::min(batch.size(), next_boundary - offset_);
      for (const double x : batch.first(take)) running_.add(x);
      offset_ += take;
      batch = batch.subspan(take);
      for (std::size_t i = 0; i < points.size(); ++i) {
        if (!crossed_[i] && points[i].train_limit <= offset_) {
          points[i].train_stats[class_] = running_.fork();
          crossed_[i] = 1;
        }
      }
    }
  }

  /// A finite (live) backend may exhaust before a boundary: the prefix a
  /// fresh run would see is everything delivered, i.e. the current state.
  void finish() {
    auto& points = *points_;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (!crossed_[i]) points[i].train_stats[class_] = running_.fork();
    }
  }

 private:
  std::vector<PrefixPoint>* points_;
  std::size_t class_;
  std::vector<std::uint8_t> crossed_;
  stats::RunningStats running_;
  std::size_t offset_ = 0;
};

/// How much of one class's test capture its producer has appended to the
/// class's storage, and whether it has stopped: state = count << 1 |
/// finished. The producer stores each count with release order after the
/// collect that wrote those PIATs, so a classifier that loads it with
/// acquire order may read that prefix while the producer appends past it.
class PublishedCapture {
 public:
  /// Producer: PIATs [0, count) of the storage are written.
  void publish(std::size_t count) {
    state_.store(std::uint64_t{count} << 1, std::memory_order_release);
    state_.notify_one();
  }

  /// Producer: nothing more will be appended (the stream ended, ran short
  /// or threw).
  void finish() {
    state_.fetch_or(1, std::memory_order_release);
    state_.notify_one();
  }

  /// Classifier: blocks until more than `fed` PIATs are published or the
  /// producer has finished, and returns the published count — equal to
  /// `fed` only once the producer has finished.
  [[nodiscard]] std::size_t wait_past(std::size_t fed) const {
    std::uint64_t state = state_.load(std::memory_order_acquire);
    while ((state >> 1) == fed && (state & 1) == 0) {
      state_.wait(state, std::memory_order_acquire);
      state = state_.load(std::memory_order_acquire);
    }
    return static_cast<std::size_t>(state >> 1);
  }

 private:
  std::atomic<std::uint64_t> state_{0};
};

/// Finishes a capture on every exit from its producer, an error included,
/// so a classifier never waits on a producer that has stopped.
class FinishOnExit {
 public:
  explicit FinishOnExit(PublishedCapture& capture) : capture_(&capture) {}
  ~FinishOnExit() { capture_->finish(); }
  FinishOnExit(const FinishOnExit&) = delete;
  FinishOnExit& operator=(const FinishOnExit&) = delete;

 private:
  PublishedCapture* capture_;
};

/// The (n, mean, M2) part of RunningStats — all the prepass reads. The
/// count is a double, as RunningStats::add converts it for each step.
struct WelfordMoments {
  double count = 0.0;
  double mean = 0.0;
  double m2 = 0.0;
};

/// Adds xs[0 .. len) to each of kLanes moments side by side, each lane its
/// own in-order RunningStats::add chain (stats::welford_step), so one
/// lane's divide overlaps the others' instead of waiting on its own.
template <std::size_t kLanes>
void add_in_lanes(const double* xs, std::size_t len, WelfordMoments* moments) {
  std::array<double, kLanes> count{};
  std::array<double, kLanes> mean{};
  std::array<double, kLanes> m2{};
  for (std::size_t l = 0; l < kLanes; ++l) {
    count[l] = moments[l].count;
    mean[l] = moments[l].mean;
    m2[l] = moments[l].m2;
  }
  for (std::size_t i = 0; i < len; ++i) {
    const double x = xs[i];
    for (std::size_t l = 0; l < kLanes; ++l) {
      const auto [delta_n, term1] = stats::welford_step(x, mean[l], count[l]);
      mean[l] += delta_n;
      m2[l] += term1;
      count[l] += 1.0;
    }
  }
  for (std::size_t l = 0; l < kLanes; ++l) {
    moments[l] = {count[l], mean[l], m2[l]};
  }
}

void add_in_lanes(std::size_t lanes, const double* xs, std::size_t len,
                  WelfordMoments* moments) {
  switch (lanes) {
    case 4: return add_in_lanes<4>(xs, len, moments);
    case 3: return add_in_lanes<3>(xs, len, moments);
    case 2: return add_in_lanes<2>(xs, len, moments);
    default: return add_in_lanes<1>(xs, len, moments);
  }
}

}  // namespace

std::vector<double> detail::pooled_prepass_stddevs(
    const std::vector<std::vector<double>>& train,
    const std::vector<std::size_t>& budgets) {
  LINKPAD_EXPECTS(!train.empty());
  std::vector<WelfordMoments> pooled(budgets.size());
  // Class 0: one shared chain, copied out at each budget boundary (and at
  // the end of a stream that runs dry first).
  WelfordMoments running;
  std::size_t consumed = 0;
  for (std::size_t b = 0; b < budgets.size(); ++b) {
    const std::size_t end = std::min(budgets[b], train[0].size());
    if (end > consumed) {
      add_in_lanes<1>(train[0].data() + consumed, end - consumed, &running);
      consumed = end;
    }
    pooled[b] = running;
  }
  // Later classes resume each budget's moments with that budget's clipped
  // adds. Every budget reads the same prefix, so four budgets run side by
  // side, largest first: over [0, b_0) all four lanes, then the lanes
  // whose budgets reach further, until the largest budget ends.
  for (std::size_t c = 1; c < train.size(); ++c) {
    const double* xs = train[c].data();
    for (std::size_t group_end = budgets.size(); group_end > 0;) {
      const std::size_t lanes = std::min<std::size_t>(4, group_end);
      const std::size_t group = group_end - lanes;
      std::size_t start = 0;
      for (std::size_t l = 0; l < lanes; ++l) {
        const std::size_t end = std::min(budgets[group + l], train[c].size());
        if (end > start) {
          add_in_lanes(lanes - l, xs + start, end - start, &pooled[group + l]);
          start = end;
        }
      }
      group_end = group;
    }
  }
  std::vector<double> stddevs;
  stddevs.reserve(pooled.size());
  for (const WelfordMoments& m : pooled) {
    LINKPAD_EXPECTS(m.count >= 2.0);
    // RunningStats::variance(): M2 / (n − 1).
    stddevs.push_back(std::sqrt(m.m2 / (m.count - 1.0)));
  }
  return stddevs;
}

ExperimentResult ExperimentEngine::run(const ExperimentSpec& spec) const {
  const std::size_t num_classes = spec.scenario.payload_rates.size();
  LINKPAD_EXPECTS(num_classes >= 2);
  LINKPAD_EXPECTS(spec.plan.train_windows >= 2 && spec.plan.test_windows >= 1);

  // Prefix-replay setup (DESIGN.md §2.6): the capture is sized by the
  // LARGEST sample size; every axis entry n gets its own DetectorBank with
  // window size n and consumes floor(windows·n_max/n)·n PIATs — a prefix
  // of the shared capture, so each point is bit-identical to running the
  // engine at that window size alone. A single-entry axis (the default) is
  // exactly the pre-axis pipeline.
  const auto ns = spec.sample_sizes();
  const std::size_t k = ns.size();
  const std::size_t n_max = ns.back();
  const auto features = spec.features();
  // Every point's capture is a prefix of the n_max point's, so bounding
  // that one bounds them all (and the products below cannot wrap).
  (void)util::bounded_run_count(spec.plan.train_windows,
                                "ExperimentSpec train_windows", n_max,
                                "window size n");
  (void)util::bounded_run_count(spec.plan.test_windows,
                                "ExperimentSpec test_windows", n_max,
                                "window size n");

  std::vector<PrefixPoint> points(k);
  std::vector<classify::DetectorBank> banks;
  banks.reserve(k);
  const std::size_t window_cap = spec.max_windows_per_point == 0
                                     ? static_cast<std::size_t>(-1)
                                     : spec.max_windows_per_point;
  std::size_t train_capacity = 0;  // longest prefix any point consumes
  std::size_t test_capacity = 0;
  for (std::size_t i = 0; i < k; ++i) {
    PrefixPoint& p = points[i];
    p.n = ns[i];
    p.train_windows =
        std::min(spec.plan.train_windows * n_max / p.n, window_cap);
    p.test_windows = std::min(spec.plan.test_windows * n_max / p.n, window_cap);
    p.train_limit = p.train_windows * p.n;
    p.test_limit = p.test_windows * p.n;
    train_capacity = std::max(train_capacity, p.train_limit);
    test_capacity = std::max(test_capacity, p.test_limit);
    p.train_stats.resize(num_classes);
    classify::AdversaryConfig adversary = spec.plan.adversary;
    adversary.window_size = p.n;
    // Feature detectors first (detector f == features()[f], the indexing
    // the result assembly relies on). The plan's detectors ride ONLY the
    // largest-sample-size bank, after them: they do not re-window along
    // the axis, so smaller points stay exactly what a detector-free run
    // would compute. Entry j's calibration seed is derived here — salts 1
    // and 2 are the training/test streams, so 3 + j can never collide
    // with a capture stream.
    std::vector<classify::DetectorSpec> detector_specs;
    for (const auto kind : features) {
      classify::DetectorSpec ds;
      ds.adversary = adversary;
      ds.adversary.feature = kind;
      detector_specs.push_back(std::move(ds));
    }
    if (i + 1 == k) {
      for (std::size_t j = 0; j < spec.plan.detectors.size(); ++j) {
        classify::DetectorSpec ds = spec.plan.detectors[j];
        if (ds.cpd) {
          LINKPAD_EXPECTS(num_classes == 2);
          ds.cpd->calibration_seed = derive_point_seed(spec.seed, 3 + j);
        } else {
          // A window detector needs ≥ 2 training windows and ≥ 1 test
          // window of ITS size inside the shared capture budget.
          LINKPAD_EXPECTS(p.train_limit >= 2 * ds.adversary.window_size);
          LINKPAD_EXPECTS(p.test_limit >= ds.adversary.window_size);
        }
        detector_specs.push_back(std::move(ds));
      }
    }
    banks.emplace_back(std::move(detector_specs), num_classes);
  }

  // Every task below writes only one class's state: its source and RNG,
  // each detector's class-c window state and confusion row, and
  // points[i].train_stats[c]. So the tasks run on the pool when one is
  // given and the backend is replayable; parallel_for_chunks claims them
  // in ascending order, and runs them inline in that order on a one-thread
  // pool or from one of the pool's own workers. A live backend keeps its
  // captures sequential, so two gateways never perturb each other's
  // measured jitter. The buffers a task fills (capture storage, batch
  // buffers) are reserved on the calling thread: a pool worker's malloc
  // arena keeps what its tasks allocate (DESIGN.md §2.3). body(slot, t)
  // learns which task slot runs task t, so a loop keeps one batch buffer
  // per slot.
  util::ThreadPool* const pool = backend_->replayable() ? pool_ : nullptr;
  auto for_each_task =
      [&](std::size_t tasks,
          const std::function<void(std::size_t, std::size_t)>& body) {
        if (pool == nullptr) {
          for (std::size_t t = 0; t < tasks; ++t) body(0, t);
          return;
        }
        util::parallel_for_chunks(
            *pool, tasks, 1,
            [&](std::size_t slot, std::size_t begin, std::size_t end) {
              for (std::size_t t = begin; t < end; ++t) body(slot, t);
            });
      };
  // Reserved just before the loop that fills them, so a serial run holds
  // one batch buffer at a time, as a stream_batches call would.
  auto batch_buffers = [&](std::size_t capacity) {
    const std::size_t slots =
        pool != nullptr ? util::chunk_slots(*pool, num_classes, 1) : 1;
    std::vector<std::vector<double>> buffers(slots);
    for (auto& buffer : buffers) {
      buffer.reserve(std::min(batch_piats_, capacity));
    }
    return buffers;
  };
  // Every bank's clipped share of a stream's batch at stream `offset`.
  auto feed_banks = [&](std::size_t c, std::span<const double> batch,
                        std::size_t offset, bool testing) {
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t limit =
          testing ? points[i].test_limit : points[i].train_limit;
      const auto piece = clip_to_limit(batch, offset, limit);
      if (piece.empty()) continue;
      if (testing) {
        banks[i].consume_test(c, piece);
      } else {
        banks[i].consume_training(c, piece);
      }
    }
  };

  // Off-line phase: the adversary replicates the system per class and
  // streams HIS replica through the banks in bounded batches. An entropy
  // detector without an explicit Δh first needs the pooled training
  // moments of ITS prefix (Scott's rule), which costs one extra pass:
  // a single-point replayable run simply re-opens the identical streams;
  // a live capture cannot be replayed, and a multi-point axis would
  // re-simulate the whole capture, so both materialize the training
  // capture once and run the two passes from memory. The prepass itself
  // pools the classes in class order, so it stays on the calling thread.
  // Any bank may need the pooled-Δh prepass: the banks share a feature set,
  // but the plan's detectors ride only the top bank, so probe all of them.
  bool prepass = false;
  for (const auto& bank : banks) prepass = prepass || bank.needs_prepass();
  const bool materialize = prepass && (!backend_->replayable() || k > 1);
  // The materialized path's per-class capture storage: it holds the
  // training capture, then the test capture (see the run-time phase).
  std::vector<std::vector<double>> captures(materialize ? num_classes : 0);
  std::vector<std::size_t> train_got(num_classes, 0);
  if (materialize) {
    for (auto& capture : captures) capture.reserve(train_capacity);
    for_each_task(num_classes, [&](std::size_t, std::size_t c) {
      train_got[c] = pull_stream(*backend_, spec.scenario, c, spec.seed,
                                 /*salt=*/1, train_capacity, batch_piats_,
                                 captures[c]);
    });
    // Pooled prepass σ per DISTINCT prefix budget; banks sharing a budget
    // share it.
    std::vector<std::size_t> budgets;
    budgets.reserve(k);
    for (const PrefixPoint& p : points) budgets.push_back(p.train_limit);
    std::sort(budgets.begin(), budgets.end());
    budgets.erase(std::unique(budgets.begin(), budgets.end()), budgets.end());
    const auto stddevs = detail::pooled_prepass_stddevs(captures, budgets);
    for (std::size_t i = 0; i < k; ++i) {
      const auto it = std::lower_bound(budgets.begin(), budgets.end(),
                                       points[i].train_limit);
      banks[i].finish_prepass(stddevs[static_cast<std::size_t>(
          std::distance(budgets.begin(), it))]);
    }
    // Training feed from memory: one moments chain per class, then one
    // task per (class, bank), the largest prefix first (ties: the higher
    // bank, which carries the plan's detectors), so the longest tasks are
    // claimed before the short ones.
    std::vector<std::size_t> largest_first(k);
    for (std::size_t i = 0; i < k; ++i) largest_first[i] = k - 1 - i;
    std::stable_sort(largest_first.begin(), largest_first.end(),
                     [&](std::size_t a, std::size_t b) {
                       return points[a].train_limit > points[b].train_limit;
                     });
    for_each_task(num_classes * (k + 1), [&](std::size_t, std::size_t t) {
      const std::size_t c = t % num_classes;
      const std::span<const double> capture(captures[c]);
      if (t < num_classes) {
        MomentChain moments(points, c);
        moments.add(capture);
        moments.finish();
        return;
      }
      const std::size_t i = largest_first[t / num_classes - 1];
      const auto piece = clip_to_limit(capture, 0, points[i].train_limit);
      if (!piece.empty()) banks[i].consume_training(c, piece);
    });
  } else {
    if (prepass) {  // single point, replayable: stream both passes
      for (std::size_t c = 0; c < num_classes; ++c) {
        stream_batches(*backend_, spec.scenario, c, spec.seed, /*salt=*/1,
                       train_capacity, batch_piats_,
                       [&](std::span<const double> batch) {
                         banks.front().consume_prepass(batch);
                       });
      }
      for (auto& bank : banks) bank.finish_prepass();
    }
    // One task per class: every bank's clipped share of each batch, then
    // the class's moments chain.
    auto buffers = batch_buffers(train_capacity);
    for_each_task(num_classes, [&](std::size_t slot, std::size_t c) {
      const auto source =
          backend_->open_piats(spec.scenario, c, spec.seed, /*salt=*/1);
      MomentChain moments(points, c);
      train_got[c] = stream_batches(
          *source, train_capacity, batch_piats_, buffers[slot],
          [&](std::span<const double> batch) {
            feed_banks(c, batch, moments.offset(), /*testing=*/false);
            moments.add(batch);
          });
      moments.finish();
    });
  }
  for (std::size_t c = 0; c < num_classes; ++c) {
    // A finite backend (live capture) may come up short; the adversary
    // still needs at least two training windows per class at every point.
    for (const PrefixPoint& p : points) {
      LINKPAD_ENSURES(std::min(train_got[c], p.train_limit) >= 2 * p.n);
    }
  }
  for (auto& bank : banks) bank.train();

  // Run-time phase: observe the live system (fresh randomness, salt 2) and
  // classify its windows with every detector of every point — the axis
  // shares this single observed capture too. The source is held open past
  // the stream so its padding-cost accounting (the overhead half of the
  // defense frontier) can be read off afterwards, into the class's own
  // slot. A class stream ending before a point's first test window is an
  // error.
  std::vector<std::optional<StreamOverhead>> overheads(num_classes);
  auto check_test_count = [&](std::size_t got) {
    for (const PrefixPoint& p : points) {
      LINKPAD_ENSURES(std::min(got, p.test_limit) >= p.n);
    }
  };
  if (materialize) {
    // The test capture passes through the class's storage, so simulating
    // a class overlaps with classifying it: task c (a producer) appends
    // the stream in batches and publishes each new count; task C + c (a
    // classifier) feeds every bank each published range. Producers are
    // tasks [0, C), so every producer is claimed before any classifier,
    // and a classifier waits only on its own producer, which never waits
    // (DESIGN.md §2.3). The storage grows here, on the caller, and every
    // append stays within that capacity, so it never moves under a
    // classifier.
    for (auto& capture : captures) {
      capture.clear();
      capture.reserve(test_capacity);
    }
    std::vector<PublishedCapture> published(num_classes);
    for_each_task(2 * num_classes, [&](std::size_t, std::size_t t) {
      if (t >= num_classes) {
        const std::size_t c = t - num_classes;
        const double* const piats = captures[c].data();
        for (std::size_t fed = 0;;) {
          const std::size_t ready = published[c].wait_past(fed);
          // The producer has finished. One that stopped short or threw
          // raises its own error; the classifier only stops.
          if (ready == fed) return;
          feed_banks(c, std::span<const double>(piats + fed, ready - fed),
                     fed, /*testing=*/true);
          fed = ready;
        }
      }
      const std::size_t c = t;
      std::vector<double>& capture = captures[c];
      std::unique_ptr<PiatSource> source;
      // Declared after the source, so the classifier wakes before the
      // source is torn down.
      const FinishOnExit finish(published[c]);
      source = backend_->open(spec.scenario, c, spec.seed, /*salt=*/2);
      // PiatSource's contract (append at most `want`) keeps every append
      // inside the reserved capacity. A collect that appends more, or
      // moves the storage, fails here, before its count is published.
      const double* const base = capture.data();
      while (capture.size() < test_capacity) {
        const std::size_t want =
            std::min(batch_piats_, test_capacity - capture.size());
        const std::size_t got = source->collect(want, capture);
        LINKPAD_ENSURES(got <= want && capture.data() == base);
        published[c].publish(capture.size());
        if (got < want) break;  // backend exhausted
      }
      check_test_count(capture.size());
      overheads[c] = source->overhead();
    });
  } else {
    auto buffers = batch_buffers(test_capacity);
    for_each_task(num_classes, [&](std::size_t slot, std::size_t c) {
      std::size_t offset = 0;
      auto source = backend_->open(spec.scenario, c, spec.seed, /*salt=*/2);
      const std::size_t got = stream_batches(
          *source, test_capacity, batch_piats_, buffers[slot],
          [&](std::span<const double> batch) {
            feed_banks(c, batch, offset, /*testing=*/true);
            offset += batch.size();
          });
      check_test_count(got);
      overheads[c] = source->overhead();
    });
  }

  ExperimentResult result;
  if (std::all_of(overheads.begin(), overheads.end(),
                  [](const auto& oh) { return oh.has_value(); })) {
    result.overhead_per_class.reserve(num_classes);
    for (const auto& oh : overheads) result.overhead_per_class.push_back(*oh);
  }
  const PrefixPoint& top = points.back();  // n_max: the full capture
  result.piat_mean_low = top.train_stats.front().mean();
  result.piat_mean_high = top.train_stats.back().mean();
  result.piat_var_low = top.train_stats.front().variance();
  result.piat_var_high = top.train_stats.back().variance();

  result.by_sample_size.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    SampleSizePoint sp;
    sp.sample_size = points[i].n;
    sp.train_windows = points[i].train_windows;
    sp.test_windows = points[i].test_windows;
    if (num_classes == 2) {
      sp.r_hat = analysis::variance_ratio(points[i].train_stats[0].variance(),
                                          points[i].train_stats[1].variance());
    }
    sp.per_feature.reserve(features.size());
    for (std::size_t f = 0; f < features.size(); ++f) {
      FeatureOutcome out;
      out.feature = features[f];
      out.confusion = banks[i].detector(f).confusion();
      out.detection_rate = out.confusion.detection_rate();
      out.ci = rate_ci(out.confusion);
      if (num_classes == 2) {
        out.predicted = theory_prediction(features[f], sp.r_hat,
                                          static_cast<double>(points[i].n));
      }
      sp.per_feature.push_back(std::move(out));
    }
    result.by_sample_size.push_back(std::move(sp));
  }

  // The plan's detectors live only in the top (n_max) bank, after the
  // feature detectors. attack_score: confusion detection rate for window
  // detectors, the chance-floor binary mapping for CPD (see DetectorOutcome).
  result.detectors.reserve(spec.plan.detectors.size());
  for (std::size_t j = 0; j < spec.plan.detectors.size(); ++j) {
    const classify::Detector& det = banks.back().detector(features.size() + j);
    DetectorOutcome out;
    out.name = det.name();
    if (det.is_cpd()) {
      out.cpd = det.cpd_outcome();
      out.attack_score = out.cpd->ttd.detected ? 1.0 : 0.5;
    } else {
      out.confusion = det.confusion();
      out.attack_score = out.confusion.detection_rate();
    }
    result.detectors.push_back(std::move(out));
  }
  return result;
}

// -------------------------------------------------------------- SweepRunner

SweepRunner::SweepRunner(const ExperimentBackend& backend, SweepOptions options)
    : backend_(&backend), options_(std::move(options)) {}

std::vector<ExperimentResult> SweepRunner::run(
    const std::vector<ExperimentSpec>& specs) const {
  return run(specs.size(), [&](std::size_t i) { return specs[i]; });
}

std::vector<ExperimentResult> SweepRunner::run(
    std::size_t count,
    const std::function<ExperimentSpec(std::size_t)>& spec_for) const {
  std::vector<ExperimentResult> results(count);
  // ExperimentEngine::run is const and keeps no scratch: one engine serves
  // every worker. Progress gets its own snapshot of the done count.
  const ExperimentEngine engine(*backend_, options_.batch_piats);
  std::atomic<std::size_t> done{0};
  util::with_pool(options_.threads, [&](util::ThreadPool& pool) {
    util::parallel_for(
        pool, count,
        [&](std::size_t i) {
          results[i] = engine.run(spec_for(i));
          const std::size_t finished = done.fetch_add(1) + 1;
          if (options_.progress) options_.progress(finished, count);
        },
        options_.grain);
  });
  return results;
}

// ---------------------------------------------------------------- SweepGrid

namespace {

/// The environment axis that actually varies for a grid's environment kind.
std::vector<double> environment_axis(const SweepGrid& grid) {
  switch (grid.environment) {
    case SweepGrid::Environment::kLabCrossTraffic:
      return grid.utilizations.empty() ? std::vector<double>{0.25}
                                       : grid.utilizations;
    case SweepGrid::Environment::kCampus:
    case SweepGrid::Environment::kWan:
      return grid.hours.empty() ? std::vector<double>{12.0} : grid.hours;
    case SweepGrid::Environment::kLabZeroCross:
      break;
  }
  return {0.0};  // zero-cross lab has no environment axis
}

Scenario make_scenario(SweepGrid::Environment environment,
                       std::shared_ptr<const sim::TimerPolicy> policy,
                       double axis_value) {
  switch (environment) {
    case SweepGrid::Environment::kLabCrossTraffic:
      return lab_cross_traffic(std::move(policy), axis_value);
    case SweepGrid::Environment::kCampus:
      return campus(std::move(policy), axis_value);
    case SweepGrid::Environment::kWan:
      return wan(std::move(policy), axis_value);
    case SweepGrid::Environment::kLabZeroCross:
      break;
  }
  return lab_zero_cross(std::move(policy));
}

/// The grid's policy axis: explicit prototypes when given, otherwise the
/// paper's σ_T parameterization (0 ⇒ CIT, σ > 0 ⇒ VIT-normal).
std::vector<std::shared_ptr<const sim::TimerPolicy>> policy_axis(
    const SweepGrid& grid) {
  if (!grid.policies.empty()) return grid.policies;
  std::vector<std::shared_ptr<const sim::TimerPolicy>> axis;
  axis.reserve(grid.sigma_timers.size());
  for (const Seconds sigma : grid.sigma_timers) {
    axis.push_back(sigma > 0.0 ? make_vit(sigma) : make_cit());
  }
  return axis;
}

}  // namespace

std::size_t SweepGrid::size() const {
  // The feature axis rides each point's DetectorBank instead of expanding
  // into extra points (and extra simulations).
  const std::size_t taps = tap_hops.empty() ? 1 : tap_hops.size();
  const std::size_t policy_points =
      policies.empty() ? sigma_timers.size() : policies.size();
  return policy_points * environment_axis(*this).size() * taps;
}

std::vector<ExperimentSpec> SweepGrid::expand() const {
  LINKPAD_EXPECTS(!sigma_timers.empty() || !policies.empty());

  const auto axis = environment_axis(*this);
  // One sentinel keeps the loop structure uniform; it is never read when
  // tap_hops is empty.
  const std::vector<std::size_t> taps =
      tap_hops.empty() ? std::vector<std::size_t>{static_cast<std::size_t>(-1)}
                       : tap_hops;

  std::vector<ExperimentSpec> specs;
  specs.reserve(size());
  for (const auto& policy : policy_axis(*this)) {
    LINKPAD_EXPECTS(policy != nullptr);
    for (const double axis_value : axis) {
      Scenario scenario = make_scenario(environment, policy, axis_value);
      for (const std::size_t tap : taps) {
        ExperimentSpec spec;
        spec.scenario = scenario;
        if (tap != static_cast<std::size_t>(-1)) {
          auto& hops = spec.scenario.base.hops_before_tap;
          hops.resize(std::min(tap, hops.size()));
        }
        // All of plan.features() share this point's single simulation: the
        // first is the primary, the rest ride the DetectorBank pass — and
        // so does the whole sample-size axis (prefix replay, one capture).
        spec.plan = plan;
        if (!sample_sizes.empty()) {
          spec.plan.adversary.window_size =
              *std::max_element(sample_sizes.begin(), sample_sizes.end());
        }
        spec.sample_size_axis = sample_sizes;
        // Per-point seed: streams never collide across grid points, and
        // the mapping depends only on (root seed, point index).
        spec.seed = derive_point_seed(seed, specs.size());
        specs.push_back(spec);
      }
    }
  }
  LINKPAD_ENSURES(specs.size() == size());
  return specs;
}

}  // namespace linkpad::core
