#include "obs/metrics.h"

#include <bit>
#include <cmath>
#include <sstream>

#include "common/log.h"
#include "obs/json.h"

namespace sedspec::obs {

namespace detail {
std::atomic<bool> g_timing_enabled{false};
}  // namespace detail

uint64_t now_ns() { return sedspec::monotonic_ns(); }

void set_timing_enabled(bool enabled) {
  detail::g_timing_enabled.store(enabled, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Histogram

size_t Histogram::bucket_of(uint64_t v) {
  return static_cast<size_t>(std::bit_width(v));
}

uint64_t Histogram::bucket_upper(size_t i) {
  if (i >= 64) {
    return ~uint64_t{0};
  }
  return (uint64_t{1} << i) - 1;
}

void Histogram::record(uint64_t v) {
  buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  uint64_t prev = max_.load(std::memory_order_relaxed);
  while (prev < v &&
         !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
  }
}

Histogram::State Histogram::state() const {
  State s;
  for (size_t i = 0; i < kBuckets; ++i) {
    s.buckets[i] = bucket_count(i);
  }
  s.count = count();
  s.sum = sum();
  s.max = max();
  return s;
}

void Histogram::merge(const Histogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) {
    const uint64_t n = other.buckets_[i].load(std::memory_order_relaxed);
    if (n != 0) {
      buckets_[i].fetch_add(n, std::memory_order_relaxed);
    }
  }
  count_.fetch_add(other.count(), std::memory_order_relaxed);
  sum_.fetch_add(other.sum(), std::memory_order_relaxed);
  const uint64_t v = other.max();
  uint64_t prev = max_.load(std::memory_order_relaxed);
  while (prev < v &&
         !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
  }
}

double Histogram::mean() const {
  const uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

uint64_t Histogram::percentile(double q) const {
  const uint64_t n = count();
  if (n == 0) {
    return 0;
  }
  q = std::min(std::max(q, 0.0), 1.0);
  const uint64_t target =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(q * n)));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    cumulative += bucket_count(i);
    if (cumulative >= target) {
      return std::min(bucket_upper(i), max());
    }
  }
  return max();
}

// ---------------------------------------------------------------------------
// Registry

namespace {

/// Exposition-format escaping for a label VALUE: backslash, double quote,
/// and newline must be escaped or the emitted line is unparseable (and a
/// crafted device name could forge extra labels).
void append_escaped_label_value(std::string& out, std::string_view v) {
  for (const char c : v) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
}

}  // namespace

std::string label(
    std::initializer_list<std::pair<std::string_view, std::string_view>> kv) {
  std::string out;
  for (const auto& [k, v] : kv) {
    if (!out.empty()) {
      out += ',';
    }
    out += k;
    out += "=\"";
    append_escaped_label_value(out, v);
    out += '"';
  }
  return out;
}

std::string MetricsRegistry::key_of(std::string_view name,
                                    std::string_view labels) {
  std::string key(name);
  key += '{';
  key += labels;
  key += '}';
  return key;
}

namespace {

template <typename T, typename Family>
T& lookup(Family& family, std::mutex& mu, const std::string& key) {
  std::lock_guard lock(mu);
  auto& slot = family[key];
  if (slot == nullptr) {
    slot = std::make_unique<T>();
  }
  return *slot;
}

template <typename Family>
auto find_in(const Family& family, std::mutex& mu, const std::string& key)
    -> decltype(family.begin()->second.get()) {
  std::lock_guard lock(mu);
  auto it = family.find(key);
  return it == family.end() ? nullptr : it->second.get();
}

/// Splits a registry key back into (name, labels) for exporters.
std::pair<std::string_view, std::string_view> split_key(
    const std::string& key) {
  const size_t brace = key.find('{');
  std::string_view name = std::string_view(key).substr(0, brace);
  std::string_view labels =
      std::string_view(key).substr(brace + 1, key.size() - brace - 2);
  return {name, labels};
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::string_view labels) {
  return lookup<Counter>(counters_, mu_, key_of(name, labels));
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view labels) {
  return lookup<Gauge>(gauges_, mu_, key_of(name, labels));
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::string_view labels) {
  return lookup<Histogram>(histograms_, mu_, key_of(name, labels));
}

const Counter* MetricsRegistry::find_counter(std::string_view name,
                                             std::string_view labels) const {
  return find_in(counters_, mu_, key_of(name, labels));
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name,
                                         std::string_view labels) const {
  return find_in(gauges_, mu_, key_of(name, labels));
}

const Histogram* MetricsRegistry::find_histogram(
    std::string_view name, std::string_view labels) const {
  return find_in(histograms_, mu_, key_of(name, labels));
}

void MetricsRegistry::set_help(std::string_view name, std::string_view help) {
  std::lock_guard lock(mu_);
  help_[std::string(name)] = std::string(help);
}

std::string MetricsRegistry::to_prometheus() const {
  std::lock_guard lock(mu_);
  std::ostringstream out;
  auto series = [&out](std::string_view name, std::string_view labels,
                       std::string_view extra_label, auto value) {
    out << "sedspec_" << name;
    if (!labels.empty() || !extra_label.empty()) {
      out << '{' << labels;
      if (!labels.empty() && !extra_label.empty()) {
        out << ',';
      }
      out << extra_label << '}';
    }
    out << ' ' << value << '\n';
  };

  // Exposition invariant: every family's `# HELP`/`# TYPE` header appears
  // exactly once, immediately before that family's samples, and all of a
  // family's samples are contiguous. The key map is sorted on
  // `name{labels}` so same-name series are adjacent; the header fires on
  // the first series of each name.
  std::string_view last_name;
  auto family_header = [&](std::string_view name, const char* type) {
    if (name == last_name) {
      return;
    }
    const auto help = help_.find(std::string(name));
    if (help != help_.end()) {
      out << "# HELP sedspec_" << name << ' ' << help->second << '\n';
    }
    out << "# TYPE sedspec_" << name << ' ' << type << '\n';
    last_name = name;
  };

  for (const auto& [key, c] : counters_) {
    const auto [name, labels] = split_key(key);
    family_header(name, "counter");
    series(name, labels, "", c->value());
  }
  last_name = {};
  for (const auto& [key, g] : gauges_) {
    const auto [name, labels] = split_key(key);
    family_header(name, "gauge");
    series(name, labels, "", g->value());
  }
  // Histograms expand into TWO families: the summary family (quantile
  // series plus `_sum`/`_count`, which the exposition format folds into
  // the base family) and a separate `<name>_max` gauge family. Emitting
  // `_max` inline per series would interleave two families — the summary's
  // samples must stay contiguous — so the `_max` series of each name are
  // buffered and emitted as their own grouped family afterwards.
  last_name = {};
  std::vector<std::pair<std::string, uint64_t>> max_series;  // labels, max
  auto flush_max = [&] {
    if (max_series.empty()) {
      return;
    }
    const std::string max_name = std::string(last_name) + "_max";
    out << "# TYPE sedspec_" << max_name << " gauge\n";
    for (const auto& [labels, value] : max_series) {
      series(max_name, labels, "", value);
    }
    max_series.clear();
  };
  for (const auto& [key, h] : histograms_) {
    const auto [name, labels] = split_key(key);
    if (name != last_name) {
      flush_max();
      family_header(name, "summary");
    }
    series(name, labels, "quantile=\"0.5\"", h->p50());
    series(name, labels, "quantile=\"0.9\"", h->p90());
    series(name, labels, "quantile=\"0.99\"", h->p99());
    series(std::string(name) + "_sum", labels, "", h->sum());
    series(std::string(name) + "_count", labels, "", h->count());
    max_series.emplace_back(std::string(labels), h->max());
  }
  flush_max();
  return out.str();
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mu_);
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [key, c] : counters_) {
    const auto [name, labels] = split_key(key);
    snap.counters.push_back(
        {std::string(name), std::string(labels), c->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [key, g] : gauges_) {
    const auto [name, labels] = split_key(key);
    snap.gauges.push_back({std::string(name), std::string(labels), g->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [key, h] : histograms_) {
    const auto [name, labels] = split_key(key);
    snap.histograms.push_back(
        {std::string(name), std::string(labels), h->state()});
  }
  return snap;
}

void MetricsRegistry::freeze(Frozen& out) const {
  out.counters.clear();
  out.gauges.clear();
  out.histograms.clear();
  std::lock_guard lock(mu_);
  for (const auto& [key, c] : counters_) {
    out.counters.push_back({&key, c->value()});
  }
  for (const auto& [key, g] : gauges_) {
    out.gauges.push_back({&key, g->value()});
  }
  for (const auto& [key, h] : histograms_) {
    out.histograms.push_back(
        {&key, h->count(), h->sum(), h->max(), h->p50(), h->p90(), h->p99()});
  }
}

std::string MetricsRegistry::Frozen::to_json() const {
  std::ostringstream out;
  // Opens one series object; `first` tracks the comma separator.
  auto head = [&out](bool& first, const std::string& key) {
    const auto [name, labels] = split_key(key);
    out << (first ? "" : ",") << "\n    {\"name\": \"" << json_escape(name)
        << "\", \"labels\": \"" << json_escape(labels) << "\"";
    first = false;
  };
  out << "{\n  \"counters\": [";
  bool first = true;
  for (const CounterValue& c : counters) {
    head(first, *c.key);
    out << ", \"value\": " << c.value << "}";
  }
  out << "\n  ],\n  \"gauges\": [";
  first = true;
  for (const GaugeValue& g : gauges) {
    head(first, *g.key);
    out << ", \"value\": " << g.value << "}";
  }
  out << "\n  ],\n  \"histograms\": [";
  first = true;
  for (const HistogramValue& h : histograms) {
    head(first, *h.key);
    out << ", \"count\": " << h.count << ", \"sum\": " << h.sum
        << ", \"max\": " << h.max << ", \"p50\": " << h.p50
        << ", \"p90\": " << h.p90 << ", \"p99\": " << h.p99 << "}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

std::string MetricsRegistry::to_json() const {
  Frozen frozen;
  freeze(frozen);
  return frozen.to_json();
}

MetricsRegistry& metrics() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace sedspec::obs
