#include "obs/metrics.h"

#include <algorithm>
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

void Histogram::capture(State& out) const {
  const uint64_t n = count();
  // A histogram that never recorded has only zero buckets. Most registered
  // series are empty (latency histograms stay so while timing is off), and
  // skipping their bucket cache lines keeps a flight dump's freeze() as
  // cheap as one load of count/sum/max per series. `out` keeps the State
  // invariant (count 0 => zero buckets), so an entry that was empty and
  // still is needs no bucket write either.
  if (n != 0) {
    for (size_t i = 0; i < kBuckets; ++i) {
      out.buckets[i] = bucket_count(i);
    }
  } else if (out.count != 0) {
    std::fill(std::begin(out.buckets), std::end(out.buckets), 0);
  }
  out.count = n;
  out.sum = sum();
  out.max = max();
}

Histogram::State Histogram::state() const {
  State s;
  capture(s);
  return s;
}

uint64_t Histogram::State::quantile(double q) const {
  if (count == 0) {
    return 0;
  }
  q = std::min(std::max(q, 0.0), 1.0);
  const uint64_t target =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(q * count)));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    cumulative += buckets[i];
    if (cumulative >= target) {
      return std::min(bucket_upper(i), max);
    }
  }
  return max;
}

Histogram::State Histogram::State::delta_since(const State& base) const {
  State d;
  for (size_t i = 0; i < kBuckets; ++i) {
    d.buckets[i] = buckets[i] >= base.buckets[i] ? buckets[i] - base.buckets[i]
                                                 : 0;
    if (d.buckets[i] != 0) {
      d.max = bucket_upper(i);
    }
    d.count += d.buckets[i];
  }
  d.sum = sum >= base.sum ? sum - base.sum : 0;
  d.max = std::min(d.max, max);
  return d;
}

void Histogram::State::merge(const State& other) {
  for (size_t i = 0; i < kBuckets; ++i) {
    buckets[i] += other.buckets[i];
  }
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
}

double Histogram::mean() const {
  const uint64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

uint64_t Histogram::percentile(double q) const {
  return state().quantile(q);
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

std::pair<std::string_view, std::string_view> split_key(
    std::string_view key) {
  const size_t brace = key.find('{');
  return {key.substr(0, brace),
          key.substr(brace + 1, key.size() - brace - 2)};
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
    const Histogram::State s = h->state();
    series(name, labels, "quantile=\"0.5\"", s.quantile(0.50));
    series(name, labels, "quantile=\"0.9\"", s.quantile(0.90));
    series(name, labels, "quantile=\"0.99\"", s.quantile(0.99));
    series(std::string(name) + "_sum", labels, "", s.sum);
    series(std::string(name) + "_count", labels, "", s.count);
    max_series.emplace_back(std::string(labels), s.max);
  }
  flush_max();
  return out.str();
}

void MetricsRegistry::freeze(Frozen& out) const {
  std::lock_guard lock(mu_);
  // Overwritten by index, never cleared: a reused entry's State keeps its
  // buckets for capture() to skip when the series is empty.
  out.counters.resize(counters_.size());
  size_t i = 0;
  for (const auto& [key, c] : counters_) {
    out.counters[i++] = {&key, c->value()};
  }
  out.gauges.resize(gauges_.size());
  i = 0;
  for (const auto& [key, g] : gauges_) {
    out.gauges[i++] = {&key, g->value()};
  }
  out.histograms.resize(histograms_.size());
  i = 0;
  for (const auto& [key, h] : histograms_) {
    Frozen::HistogramValue& v = out.histograms[i++];
    v.key = &key;
    h->capture(v.state);
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
    const Histogram::State& s = h.state;
    out << ", \"count\": " << s.count << ", \"sum\": " << s.sum
        << ", \"max\": " << s.max << ", \"p50\": " << s.quantile(0.50)
        << ", \"p90\": " << s.quantile(0.90)
        << ", \"p99\": " << s.quantile(0.99) << "}";
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
