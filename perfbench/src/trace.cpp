#include "trace.hpp"

#include <algorithm>
#include <chrono>

namespace perfbench {

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch)
      .count();
}

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

std::string layer_of(std::string_view name) {
  if (name == "frontier.score") return "tuner";
  return std::string(name.substr(0, name.find('.')));
}

namespace {

bool contains(const Span& outer, const Span& inner) {
  if (outer.start > inner.start || inner.end > outer.end) return false;
  return outer.rank < inner.rank || outer.start < inner.start ||
         inner.end < outer.end;
}

/// Length of the union of [start, end) intervals clipped to [lo, hi).
double covered(std::vector<std::pair<double, double>> intervals, double lo,
               double hi) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cur_lo = lo;
  double cur_hi = lo;
  for (auto [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (a > cur_hi) {
      total += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
    } else {
      cur_hi = std::max(cur_hi, b);
    }
  }
  return total + (cur_hi - cur_lo);
}

}  // namespace

void assign_parents_and_self(std::vector<Span>& spans, long root) {
  std::map<std::uint32_t, std::vector<long>> by_thread;
  for (long i = 0; i < static_cast<long>(spans.size()); ++i) {
    by_thread[spans[i].thread].push_back(i);
  }
  for (auto& [thread, ids] : by_thread) {
    (void)thread;
    std::sort(ids.begin(), ids.end(), [&](long a, long b) {
      const Span& x = spans[a];
      const Span& y = spans[b];
      if (x.start != y.start) return x.start < y.start;
      if (x.end != y.end) return x.end > y.end;
      return x.rank < y.rank;
    });
    std::vector<long> stack;
    for (const long i : ids) {
      while (!stack.empty() && !contains(spans[stack.back()], spans[i])) {
        stack.pop_back();
      }
      if (i != root && spans[i].parent < 0) {
        spans[i].parent = stack.empty() ? root : stack.back();
      }
      stack.push_back(i);
    }
  }

  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (long i = 0; i < static_cast<long>(spans.size()); ++i) {
    if (spans[i].parent >= 0) {
      children[spans[i].parent].emplace_back(spans[i].start, spans[i].end);
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    spans[i].self = (spans[i].end - spans[i].start) -
                    covered(std::move(children[i]), spans[i].start,
                            spans[i].end);
  }
}

void derive_seam_spans(const std::vector<SeamEvent>& events,
                       const std::vector<ChunkScope>& chunk_scopes,
                       const PhaseFn& phase_of, std::vector<Span>& spans,
                       SeamCounts& counts) {
  struct Flow {
    bool active = false;
    std::uint64_t seed = 0;
    double start = 0.0;
    double last_release = -1.0;
    std::uint64_t last_release_salt = 0;
    bool opened_train0 = false;  // class-0 training stream opened once
    bool prepass_seen = false;
    std::size_t collects = 0;
    std::vector<std::size_t> train_spans;  // candidates for prepass relabel
  };
  struct FlowRecord {
    double start;
    double end;
    std::string phase;
  };

  std::vector<Span> out;
  std::vector<FlowRecord> flows;
  Flow flow;
  bool source_active = false;
  std::uint64_t source_salt = 0;
  double mark = 0.0;
  double last_chunk_end = -1.0;
  const std::uint32_t thread = events.empty() ? 0 : events.front().thread;

  const auto emit = [&](std::string name, double t0, double t1, Rank rank,
                        long parent = -1) {
    if (t1 <= t0) return;
    out.push_back({std::move(name), thread, t0, t1, rank, parent, 0.0});
  };
  const auto emit_classify = [&](std::uint64_t salt, double t0, double t1) {
    if (t1 <= t0) return;
    if (salt == 2) {
      emit("classify.test", t0, t1, Rank::kLeaf);
    } else {
      flow.train_spans.push_back(out.size());
      emit("classify.train", t0, t1, Rank::kLeaf);
    }
  };
  const auto close_flow = [&] {
    if (flow.active && flow.collects > 0 && flow.last_release >= 0.0) {
      emit("experiment", flow.start, flow.last_release, Rank::kExperiment);
      flows.push_back({flow.start, flow.last_release,
                       phase_of ? phase_of(flow.seed) : std::string()});
      ++counts.experiments;
    }
    flow = Flow{};
  };

  for (const SeamEvent& e : events) {
    switch (e.kind) {
      case SeamEvent::Kind::kOpen: {
        if (flow.active && e.salt == 1 &&
            (flow.last_release_salt == 2 || e.seed != flow.seed)) {
          close_flow();
        }
        if (!flow.active) {
          flow.active = true;
          flow.seed = e.seed;
          flow.start = e.t0;
        } else if (flow.last_release >= 0.0) {
          if (flow.last_release_salt == 1 && e.salt == 2) {
            emit_classify(1, flow.last_release, e.t0);
          } else if (e.salt == 1 && e.cls == 0 && flow.opened_train0 &&
                     !flow.prepass_seen) {
            // The flow re-opens its training streams: the pass before was
            // the entropy Δh prepass, and the gap finished it.
            for (const std::size_t i : flow.train_spans) {
              out[i].name = "classify.prepass";
            }
            flow.train_spans.clear();
            flow.prepass_seen = true;
            emit("classify.prepass", flow.last_release, e.t0, Rank::kLeaf);
          }
        }
        if (e.salt == 1 && e.cls == 0) flow.opened_train0 = true;
        emit("sim", e.t0, e.t1, Rank::kLeaf);
        source_active = true;
        source_salt = e.salt;
        mark = e.t1;
        break;
      }
      case SeamEvent::Kind::kCollect:
        if (source_active) emit_classify(source_salt, mark, e.t0);
        emit("sim", e.t0, e.t1, Rank::kLeaf);
        counts.piats += e.piats;
        ++flow.collects;
        mark = e.t1;
        break;
      case SeamEvent::Kind::kRelease:
        if (source_active) {
          emit_classify(source_salt, mark, e.t0);
          flow.last_release = e.t0;
          flow.last_release_salt = source_salt;
        }
        source_active = false;
        break;
      case SeamEvent::Kind::kChunkDone: {
        close_flow();
        const ChunkScope* scope = nullptr;
        for (const auto& s : chunk_scopes) {
          if (s.start <= e.t0 && e.t0 <= s.end) scope = &s;
        }
        const double start = std::max(last_chunk_end, scope ? scope->start : e.t0);
        emit("population.chunk", start, e.t0, Rank::kGroup,
             scope ? scope->span : -1);
        last_chunk_end = e.t0;
        ++counts.chunks;
        break;
      }
    }
  }
  close_flow();

  // Consecutive experiments of one phase form that phase's span.
  for (std::size_t i = 0; i < flows.size();) {
    std::size_t j = i;
    while (j + 1 < flows.size() && flows[j + 1].phase == flows[i].phase) ++j;
    if (!flows[i].phase.empty()) {
      emit(flows[i].phase, flows[i].start, flows[j].end, Rank::kGroup);
    }
    i = j + 1;
  }
  spans.insert(spans.end(), std::make_move_iterator(out.begin()),
               std::make_move_iterator(out.end()));
}

// -------------------------------------------------------------- Tracer

Tracer::Scope::~Scope() {
  try {
    tracer_->record_api(std::move(name_), start_, now_s());
  } catch (...) {
    tracer_->note_lost_event();
  }
}

void Tracer::begin_op() {
  const std::lock_guard<std::mutex> lock(mutex_);
  api_spans_.clear();
  events_.clear();
  op_thread_ = thread_index();
  op_start_ = now_s();
}

void Tracer::record_api(std::string name, double start, double end) {
  const std::uint32_t thread = thread_index();
  const std::lock_guard<std::mutex> lock(mutex_);
  api_spans_.push_back(
      {std::move(name), thread, start, end, Rank::kApi, -1, 0.0});
}

void Tracer::record_seam(const SeamEvent& event) {
  const std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(event);
}

void Tracer::chunk_done() {
  SeamEvent e;
  e.kind = SeamEvent::Kind::kChunkDone;
  e.thread = thread_index();
  e.t0 = e.t1 = now_s();
  record_seam(e);
}

OpTrace Tracer::finish_op() {
  const double op_end = now_s();
  OpTrace trace;
  std::vector<SeamEvent> events;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    trace.spans.push_back({"op", op_thread_, op_start_, op_end, Rank::kRoot, -1, 0.0});
    for (auto& s : api_spans_) trace.spans.push_back(std::move(s));
    api_spans_.clear();
    events.swap(events_);
  }

  std::vector<ChunkScope> scopes;
  for (long i = 0; i < static_cast<long>(trace.spans.size()); ++i) {
    if (trace.spans[i].name == "population.run_shard") {
      scopes.push_back({i, trace.spans[i].start, trace.spans[i].end});
    }
  }
  std::map<std::uint32_t, std::vector<SeamEvent>> by_thread;
  for (const auto& e : events) by_thread[e.thread].push_back(e);
  for (auto& [thread, list] : by_thread) {
    (void)thread;
    std::stable_sort(list.begin(), list.end(),
                     [](const SeamEvent& a, const SeamEvent& b) {
                       return a.t0 < b.t0;
                     });
    derive_seam_spans(list, scopes, phase_of_, trace.spans, trace.counts);
  }
  assign_parents_and_self(trace.spans, 0);

  std::map<long, std::map<std::uint32_t, double>> busy;  // scope -> thread
  for (std::size_t i = 1; i < trace.spans.size(); ++i) {
    const Span& s = trace.spans[i];
    trace.layer_self[layer_of(s.name)] += s.self;
    trace.name_self[s.name] += s.self;
    trace.name_total[s.name] += s.end - s.start;
    if (s.name == "population.chunk") {
      trace.chunk_seconds.push_back(s.end - s.start);
      busy[s.parent][s.thread] += s.end - s.start;
    }
  }
  for (const auto& [scope, per_thread] : busy) {
    (void)scope;
    double max = 0.0;
    double sum = 0.0;
    for (const auto& [thread, seconds] : per_thread) {
      (void)thread;
      max = std::max(max, seconds);
      sum += seconds;
    }
    if (sum > 0.0) {
      trace.slot_imbalance.push_back(max * static_cast<double>(per_thread.size()) /
                                     sum);
    }
  }
  const Span& root = trace.spans.front();
  trace.coverage = root.end > root.start
                       ? 1.0 - root.self / (root.end - root.start)
                       : 0.0;
  return trace;
}

// ------------------------------------------------------- TracingBackend

namespace {

class TracingSource final : public linkpad::core::PiatSource {
 public:
  TracingSource(std::unique_ptr<linkpad::core::PiatSource> inner,
                Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  TracingSource(const TracingSource&) = delete;
  TracingSource& operator=(const TracingSource&) = delete;

  ~TracingSource() override {
    try {
      SeamEvent e;
      e.kind = SeamEvent::Kind::kRelease;
      e.thread = thread_index();
      e.t0 = e.t1 = now_s();
      tracer_.record_seam(e);
    } catch (...) {
      tracer_.note_lost_event();
    }
  }

  std::size_t collect(std::size_t count, std::vector<double>& out) override {
    SeamEvent e;
    e.kind = SeamEvent::Kind::kCollect;
    e.thread = thread_index();
    e.t0 = now_s();
    e.piats = inner_->collect(count, out);
    e.t1 = now_s();
    tracer_.record_seam(e);
    return e.piats;
  }

  [[nodiscard]] std::optional<linkpad::core::StreamOverhead> overhead()
      const override {
    return inner_->overhead();
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<linkpad::core::PiatSource> inner_;
  Tracer& tracer_;
};

}  // namespace

std::unique_ptr<linkpad::core::PiatSource> TracingBackend::open(
    const linkpad::core::Scenario& scenario, std::size_t class_index,
    std::uint64_t seed, std::uint64_t salt) const {
  SeamEvent e;
  e.kind = SeamEvent::Kind::kOpen;
  e.thread = thread_index();
  e.seed = seed;
  e.salt = salt;
  e.cls = class_index;
  e.t0 = now_s();
  auto inner = inner_.open(scenario, class_index, seed, salt);
  e.t1 = now_s();
  tracer_.record_seam(e);
  return std::make_unique<TracingSource>(std::move(inner), tracer_);
}

}  // namespace perfbench
