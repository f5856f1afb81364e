#include "obs/timeseries.h"

#include <sstream>
#include <utility>

#include "common/assert.h"
#include "obs/json.h"

namespace sedspec::obs {

namespace {

WindowHistogram window_histogram(std::string name, std::string labels,
                                 const Histogram::State& state) {
  WindowHistogram h;
  h.name = std::move(name);
  h.labels = std::move(labels);
  h.state = state;
  h.p50 = state.quantile(0.50);
  h.p90 = state.quantile(0.90);
  h.p99 = state.quantile(0.99);
  h.p999 = state.quantile(0.999);
  return h;
}

}  // namespace

const WindowCounter* WindowSample::find_counter(std::string_view name,
                                                std::string_view labels) const {
  for (const WindowCounter& c : counters) {
    if (c.name == name && c.labels == labels) {
      return &c;
    }
  }
  return nullptr;
}

const WindowGauge* WindowSample::find_gauge(std::string_view name,
                                            std::string_view labels) const {
  for (const WindowGauge& g : gauges) {
    if (g.name == name && g.labels == labels) {
      return &g;
    }
  }
  return nullptr;
}

const WindowHistogram* WindowSample::find_histogram(
    std::string_view name, std::string_view labels) const {
  for (const WindowHistogram& h : histograms) {
    if (h.name == name && h.labels == labels) {
      return &h;
    }
  }
  return nullptr;
}

uint64_t WindowSample::counter_delta_sum(std::string_view name) const {
  uint64_t total = 0;
  for (const WindowCounter& c : counters) {
    if (c.name == name) {
      total += c.delta;
    }
  }
  return total;
}

std::optional<WindowHistogram> WindowSample::merged_histogram(
    std::string_view name) const {
  std::optional<Histogram::State> merged;
  for (const WindowHistogram& h : histograms) {
    if (h.name != name) {
      continue;
    }
    if (!merged) {
      merged.emplace();
    }
    merged->merge(h.state);
  }
  if (!merged) {
    return std::nullopt;
  }
  return window_histogram(std::string(name), "", *merged);
}

TimeSeries::TimeSeries(const MetricsRegistry* registry, TimeSeriesConfig cfg)
    : registry_(registry), cfg_(cfg) {
  SEDSPEC_REQUIRE(registry_ != nullptr);
  SEDSPEC_REQUIRE(cfg_.window_capacity > 0);
}

namespace {

/// Both captures list each family in registry-key order and the registry
/// never erases a series, so the previous capture's entries are a
/// subsequence of the current one's with the same key pointers: one
/// ordered walk (cursor `j` into `prev`) pairs them. A series that
/// appeared mid-run has no previous entry; its base is zero (the registry
/// zero-initializes on creation, so delta-vs-zero is exact).
template <typename Entry>
const Entry* previous(const std::vector<Entry>& prev, size_t& j,
                      const Entry& cur) {
  if (j < prev.size() && prev[j].key == cur.key) {
    return &prev[j++];
  }
  return nullptr;
}

}  // namespace

const WindowSample& TimeSeries::sample(uint64_t now_ns) {
  registry_->freeze(cur_);
  WindowSample w;
  w.index = next_index_++;
  w.t_start_ns = have_base_ ? base_ns_ : now_ns;
  w.t_end_ns = now_ns;
  const double seconds =
      static_cast<double>(w.t_end_ns - w.t_start_ns) / 1e9;

  w.counters.reserve(cur_.counters.size());
  size_t j = 0;
  for (const auto& c : cur_.counters) {
    const auto* prev = previous(base_.counters, j, c);
    const auto [name, labels] = split_key(*c.key);
    WindowCounter wc;
    wc.name = name;
    wc.labels = labels;
    const uint64_t base = prev != nullptr ? prev->value : 0;
    wc.delta = c.value >= base ? c.value - base : 0;
    wc.rate = seconds > 0.0 ? static_cast<double>(wc.delta) / seconds : 0.0;
    w.counters.push_back(std::move(wc));
  }

  w.gauges.reserve(cur_.gauges.size());
  j = 0;
  for (const auto& g : cur_.gauges) {
    const auto* prev = previous(base_.gauges, j, g);
    const auto [name, labels] = split_key(*g.key);
    WindowGauge wg;
    wg.name = name;
    wg.labels = labels;
    wg.value = g.value;
    wg.delta = g.value - (prev != nullptr ? prev->value : 0);
    w.gauges.push_back(std::move(wg));
  }

  w.histograms.reserve(cur_.histograms.size());
  j = 0;
  for (const auto& h : cur_.histograms) {
    const auto* prev = previous(base_.histograms, j, h);
    const auto [name, labels] = split_key(*h.key);
    w.histograms.push_back(window_histogram(
        std::string(name), std::string(labels),
        h.state.delta_since(prev != nullptr ? prev->state
                                            : Histogram::State{})));
  }

  std::swap(base_, cur_);
  base_ns_ = now_ns;
  have_base_ = true;

  ring_.push_back(std::move(w));
  while (ring_.size() > cfg_.window_capacity) {
    ring_.pop_front();
  }
  return ring_.back();
}

std::string TimeSeries::to_json() const {
  std::ostringstream out;
  out << "{\n  \"total_windows\": " << total_windows()
      << ",\n  \"windows\": [";
  bool first_w = true;
  for (const WindowSample& w : ring_) {
    out << (first_w ? "" : ",") << "\n    {\"index\": " << w.index
        << ", \"t_start_ns\": " << w.t_start_ns
        << ", \"t_end_ns\": " << w.t_end_ns << ",\n     \"counters\": [";
    bool first = true;
    for (const WindowCounter& c : w.counters) {
      out << (first ? "" : ", ") << "{\"name\": \"" << json_escape(c.name)
          << "\", \"labels\": \"" << json_escape(c.labels)
          << "\", \"delta\": " << c.delta << ", \"rate\": " << c.rate << "}";
      first = false;
    }
    out << "],\n     \"gauges\": [";
    first = true;
    for (const WindowGauge& g : w.gauges) {
      out << (first ? "" : ", ") << "{\"name\": \"" << json_escape(g.name)
          << "\", \"labels\": \"" << json_escape(g.labels)
          << "\", \"value\": " << g.value << ", \"delta\": " << g.delta << "}";
      first = false;
    }
    out << "],\n     \"histograms\": [";
    first = true;
    for (const WindowHistogram& h : w.histograms) {
      out << (first ? "" : ", ") << "{\"name\": \"" << json_escape(h.name)
          << "\", \"labels\": \"" << json_escape(h.labels)
          << "\", \"count\": " << h.state.count
          << ", \"sum\": " << h.state.sum
          << ", \"p50\": " << h.p50 << ", \"p90\": " << h.p90
          << ", \"p99\": " << h.p99 << ", \"p999\": " << h.p999 << "}";
      first = false;
    }
    out << "]}";
    first_w = false;
  }
  out << "\n  ]\n}\n";
  return out.str();
}

}  // namespace sedspec::obs
