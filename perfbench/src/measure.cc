#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

namespace {

double cpu_s_of(int who) {
  rusage usage{};
  getrusage(who, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

}  // namespace

double process_cpu_s() { return cpu_s_of(RUSAGE_SELF); }

double thread_cpu_s() { return cpu_s_of(RUSAGE_THREAD); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      rank < 1 ? 0 : std::min(values.size() - 1, static_cast<size_t>(rank) - 1);
  return values[index];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

// --- spans -------------------------------------------------------------------

namespace {
thread_local int64_t current_span = Spans::kNoParent;
}  // namespace

int64_t Spans::begin(std::string_view name, int64_t parent) {
  if (!enabled_) return kNoParent;
  const double start = seconds_since(origin_);
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::string(name), parent, start, -1});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Spans::end(int64_t id) {
  if (!enabled_ || id < 0) return;
  const double end = seconds_since(origin_);
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_s = end;
}

std::vector<double> Spans::self_times() const {
  // Children intervals per parent, clipped to the parent and merged, so
  // concurrent children (grid workers) are not double-subtracted.
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_s,
                                                              span.end_s);
    }
  }
  std::vector<double> self(spans_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double run_start = 0, run_end = -1;
    for (auto [start, end] : kids) {
      start = std::max(start, span.start_s);
      end = std::min(end, span.end_s);
      if (end <= start) continue;
      if (start > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = start;
        run_end = end;
      } else {
        run_end = std::max(run_end, end);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    self[i] = (span.end_s - span.start_s) - covered;
  }
  return self;
}

bool Spans::write_json(const std::string& path, const std::string& workload,
                       uint64_t seed) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::vector<double> self = self_times();
  struct Summary {
    uint64_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  std::map<std::string, Summary> by_name;
  std::fprintf(out, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": [\n",
               workload.c_str(), static_cast<unsigned long long>(seed));
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "  {\"id\": %zu, \"parent\": %lld, \"name\": \"%s\","
                 " \"start_s\": %.9f, \"end_s\": %.9f, \"self_s\": %.9f}%s\n",
                 i, static_cast<long long>(span.parent), span.name.c_str(),
                 span.start_s, span.end_s, self[i],
                 i + 1 < spans_.size() ? "," : "");
    Summary& summary = by_name[span.name];
    ++summary.count;
    summary.total_s += span.end_s - span.start_s;
    summary.self_s += self[i];
  }
  std::fprintf(out, "], \"by_name\": [\n");
  size_t emitted = 0;
  for (const auto& [name, summary] : by_name) {
    std::fprintf(out,
                 "  {\"name\": \"%s\", \"count\": %llu, \"total_s\": %.9f,"
                 " \"self_s\": %.9f}%s\n",
                 name.c_str(), static_cast<unsigned long long>(summary.count),
                 summary.total_s, summary.self_s,
                 ++emitted < by_name.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

ScopedSpan::ScopedSpan(Spans& spans, std::string_view name)
    : ScopedSpan(spans, name, current_span) {}

ScopedSpan::ScopedSpan(Spans& spans, std::string_view name, int64_t parent)
    : spans_(spans),
      id_(spans.begin(name, parent)),
      saved_current_(current_span) {
  if (id_ >= 0) current_span = id_;
}

ScopedSpan::~ScopedSpan() {
  spans_.end(id_);
  current_span = saved_current_;
}

// --- registry counters -------------------------------------------------------

namespace {

struct CounterSplit {
  std::map<std::string, uint64_t> aggregate;
  std::map<std::string, uint64_t> per_node_sum;

  void add(const std::string& key, bool node_less, uint64_t value) {
    (node_less ? aggregate : per_node_sum)[key] += value;
  }
  Counters merged() const {
    Counters out;
    for (const auto& [key, value] : per_node_sum) {
      if (value != 0) out[key] = value;
    }
    for (const auto& [key, value] : aggregate) {
      if (value != 0) {
        out[key] = value;
      } else {
        out.erase(key);
      }
    }
    return out;
  }
};

// Reads the string or number value of the first `"field":` at or after
// `from` in `json` into `out`. Returns the position just past the value, or
// npos when the field is missing.
size_t read_field(const std::string& json, size_t from, const char* field,
                  std::string* out) {
  const std::string tag = std::string("\"") + field + "\":";
  size_t at = json.find(tag, from);
  if (at == std::string::npos) return std::string::npos;
  at += tag.size();
  if (json[at] == '"') {
    const size_t close = json.find('"', at + 1);
    *out = json.substr(at + 1, close - at - 1);
    return close + 1;
  }
  size_t end = at;
  while (end < json.size() && json[end] != ',' && json[end] != '}') ++end;
  *out = json.substr(at, end - at);
  return end;
}

}  // namespace

Counters counters_of(const tamp::obs::MetricsRegistry& registry) {
  CounterSplit split;
  using Row = tamp::obs::MetricsRegistry::CounterRow;
  registry.visit_counters([&](const Row& row) {
    split.add(std::string(tamp::obs::protocol_name(row.protocol)) + "." +
                  std::string(row.name),
              row.node == tamp::obs::kNoNode, row.value);
  });
  return split.merged();
}

Counters counters_of_json(const std::string& metrics_json) {
  CounterSplit split;
  const size_t section_end = metrics_json.find("],\"gauges\"");
  size_t at = metrics_json.find("\"counters\":[");
  while (at != std::string::npos) {
    at = metrics_json.find("{\"proto\":", at);
    if (at == std::string::npos || at > section_end) break;
    std::string proto, name, node, value;
    at = read_field(metrics_json, at, "proto", &proto);
    at = read_field(metrics_json, at, "name", &name);
    at = read_field(metrics_json, at, "node", &node);
    at = read_field(metrics_json, at, "value", &value);
    if (at == std::string::npos) break;
    split.add(proto + "." + name, node == "-1",
              std::strtoull(value.c_str(), nullptr, 10));
  }
  return split.merged();
}

void accumulate(Counters& into, const Counters& from) {
  for (const auto& [key, value] : from) into[key] += value;
}

uint64_t value_of(const Counters& counters, const std::string& key) {
  auto it = counters.find(key);
  return it == counters.end() ? 0 : it->second;
}

// --- results -----------------------------------------------------------------

void Outcome::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& metric : metrics) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics.push_back(Metric{name, value, unit});
}

const Metric* Outcome::find(const std::string& name) const {
  for (const Metric& metric : metrics) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

void fingerprint_counters(Fingerprint& print, const Counters& counters) {
  for (const auto& [key, value] : counters) {
    print["counter." + key] = static_cast<double>(value);
  }
}

void check_same(Outcome& outcome, const std::string& what,
                const Fingerprint& first, const Fingerprint& again) {
  if (first == again) return;
  std::string detail;
  for (const auto& [key, value] : first) {
    auto it = again.find(key);
    if (it == again.end() || it->second != value) {
      char buffer[256];
      std::snprintf(buffer, sizeof(buffer), "%s: %.17g vs %.17g", key.c_str(),
                    value, it == again.end() ? -1.0 : it->second);
      detail = buffer;
      break;
    }
  }
  if (detail.empty()) {
    for (const auto& [key, value] : again) {
      if (!first.contains(key)) {
        detail = key + " appears only in the repeat";
        break;
      }
    }
  }
  outcome.error("determinism (" + what + "): " + detail);
}

std::vector<std::string> run_copies(size_t copies,
                                    const std::function<void(size_t)>& fn) {
  std::vector<std::string> errors(copies);
  std::vector<std::thread> threads;
  for (size_t k = 0; k < copies; ++k) {
    threads.emplace_back([&fn, &errors, k] {
      try {
        fn(k);
      } catch (const std::exception& e) {
        errors[k] = e.what();
      } catch (...) {
        errors[k] = "unknown exception";
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return errors;
}

// --- gap sampler -------------------------------------------------------------

void GapSampler::add(uint64_t ns) {
  if (seen_++ % stride_ != 0) return;
  kept_.push_back(static_cast<double>(ns));
  if (kept_.size() < kCapacity) return;
  // Keep every other sample and halve the sampling rate from here on.
  size_t out = 0;
  for (size_t i = 0; i < kept_.size(); i += 2) kept_[out++] = kept_[i];
  kept_.resize(out);
  stride_ *= 2;
}

double GapSampler::percentile(double q) const {
  return perfbench::percentile(kept_, q);
}

}  // namespace perfbench
