// Percentiles, paired ratios, in-memory spans with self time, result
// rendering, and self-tests of all of it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "guest/workload.h"

namespace sedbench {

const std::vector<std::string>& device_names() {
  return guest::workload_names();
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

std::vector<double> paired_ratios(const std::vector<double>& num,
                                  const std::vector<double>& den) {
  std::vector<double> out;
  const size_t n = std::min(num.size(), den.size());
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (den[i] > 0) {
      out.push_back(num[i] / den[i]);
    }
  }
  return out;
}

Reservoir::Reservoir(size_t capacity, uint64_t seed)
    : capacity_(capacity), state_(seed) {
  values_.reserve(capacity);
}

void Reservoir::add(double v) {
  ++seen_;
  if (values_.size() < capacity_) {
    values_.push_back(v);
    return;
  }
  // SplitMix64 step; slot j < capacity keeps v with probability
  // capacity / seen.
  state_ += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  const uint64_t j = z % seen_;
  if (j < capacity_) {
    values_[j] = v;
  }
}

Slowdowns::Slowdowns() : all_(1 << 17, 1) {
  for (size_t i = 0; i < kDevices * kSegments; ++i) {
    cells_.emplace_back(1 << 12, i + 2);
  }
}

void Slowdowns::add(size_t dev, size_t segment, double ratio) {
  all_.add(ratio);
  cells_[dev * kSegments + std::min(segment, kSegments - 1)].add(ratio);
}

double Slowdowns::p50() const { return percentile(all_.values(), 0.5); }

double Slowdowns::p99() const {
  std::vector<double> per_device;
  for (size_t d = 0; d < kDevices; ++d) {
    std::vector<double> per_segment;
    for (size_t k = 0; k < kSegments; ++k) {
      const std::vector<double>& v = cells_[d * kSegments + k].values();
      if (!v.empty()) {
        per_segment.push_back(percentile(v, 0.99));
      }
    }
    if (!per_segment.empty()) {
      per_device.push_back(median(per_segment));
    }
  }
  return median(per_device);
}

size_t segment_of(uint64_t start, uint64_t end, uint64_t t) {
  if (t <= start || end <= start) {
    return 0;
  }
  return std::min<size_t>(
      Slowdowns::kSegments - 1,
      static_cast<size_t>((t - start) * Slowdowns::kSegments / (end - start)));
}

// --- spans ----------------------------------------------------------------

SpanLog::SpanLog(size_t soft_capacity) : soft_capacity_(soft_capacity) {
  spans_.reserve(soft_capacity);
}

uint32_t SpanLog::name_id(std::string_view name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return static_cast<uint32_t>(i);
    }
  }
  names_.emplace_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

uint32_t SpanLog::begin_at(uint32_t name, uint64_t op, uint64_t t) {
  Span s;
  s.start = t;
  s.op = op;
  s.name = name;
  s.parent = open_.empty() ? kNoSpan : open_.back();
  spans_.push_back(s);
  const auto id = static_cast<uint32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanLog::end_at(uint32_t span, uint64_t t) {
  spans_[span].end = t;
  // Spans close innermost-first; tolerate a caller closing an outer span
  // whose children it already closed.
  while (!open_.empty()) {
    const uint32_t top = open_.back();
    open_.pop_back();
    if (top == span) {
      break;
    }
  }
}

void SpanLog::add(uint32_t name, uint64_t op, uint64_t start, uint64_t end) {
  Span s;
  s.start = start;
  s.end = end;
  s.op = op;
  s.name = name;
  s.parent = open_.empty() ? kNoSpan : open_.back();
  spans_.push_back(s);
}

void add_self_times(const SpanLog& log, LayerTimes& out) {
  const std::vector<Span>& spans = log.spans();
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = static_cast<double>(spans[i].end - spans[i].start);
  }
  for (const Span& s : spans) {
    if (s.parent != kNoSpan) {
      self[s.parent] -= static_cast<double>(s.end - s.start);
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    LayerTime& t = out[log.name(spans[i].name)];
    const auto dur = static_cast<double>(spans[i].end - spans[i].start);
    ++t.count;
    t.total_ns += dur;
    t.self_ns += self[i];
    t.durations_ns.push_back(dur);
  }
}

void write_trace(const std::vector<const SpanLog*>& logs,
                 const LayerTimes& layers, const std::string& prefix) {
  constexpr size_t kMaxRows = 50'000;
  std::ofstream csv(prefix + ".spans.csv");
  csv << "log,id,parent,name,op,start_ns,end_ns\n";
  size_t rows = 0;
  for (size_t l = 0; l < logs.size() && rows < kMaxRows; ++l) {
    const std::vector<Span>& spans = logs[l]->spans();
    for (size_t i = 0; i < spans.size() && rows < kMaxRows; ++i, ++rows) {
      const Span& s = spans[i];
      csv << l << ',' << i << ','
          << (s.parent == kNoSpan ? -1 : static_cast<int64_t>(s.parent))
          << ',' << logs[l]->name(s.name) << ',' << s.op << ',' << s.start
          << ',' << s.end << '\n';
    }
  }
  std::ofstream json(prefix + ".layers.json");
  json << "{";
  const char* sep = "";
  for (const auto& [name, t] : layers) {
    json << sep << "\n  \"" << name << "\": {\"count\": " << t.count
         << ", \"total_ns\": " << t.total_ns << ", \"self_ns\": " << t.self_ns
         << "}";
    sep = ",";
  }
  json << "\n}\n";
}

// --- self-tests -----------------------------------------------------------

namespace {

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

}  // namespace

std::string run_selftests() {
  // Percentiles: closest-rank interpolation on an unsorted sample.
  const std::vector<double> v = {5, 1, 4, 2, 3};
  if (!near(median(v), 3) || !near(percentile(v, 0.0), 1) ||
      !near(percentile(v, 1.0), 5) || !near(percentile(v, 0.25), 2) ||
      !near(percentile({10, 20}, 0.99), 19.9) || percentile({}, 0.5) != 0) {
    return "percentile";
  }
  // Paired ratios skip pairs without a positive denominator.
  const std::vector<double> r = paired_ratios({4, 9, 1}, {2, 3, 0});
  if (r.size() != 2 || !near(r[0], 2) || !near(r[1], 3)) {
    return "paired_ratios";
  }
  // Reservoir: keeps everything up to capacity, then a uniform sample.
  Reservoir small(8, 1);
  Reservoir big(100, 1);
  for (int i = 0; i < 1000; ++i) {
    small.add(i < 8 ? i : 1000);
    big.add(i);
  }
  if (small.seen() != 1000 || small.values().size() != 8 ||
      big.values().size() != 100 || median(big.values()) < 300 ||
      median(big.values()) > 700) {
    return "reservoir";
  }
  // Slowdowns: per-device tails, median over devices; segments by time.
  Slowdowns sd;
  for (int i = 1; i <= 100; ++i) {
    sd.add(0, 0, i);
    sd.add(1, 3, 10.0 * i);
    sd.add(2, 7, 100.0 * i);
  }
  if (!near(sd.p99(), 990.1) || !near(sd.p50(), 465) ||
      segment_of(0, 80, 10) != 1 || segment_of(0, 80, 500) != 7 ||
      segment_of(5, 80, 0) != 0) {
    return "slowdowns";
  }
  // Self time: root [0,100) with children [10,30) and [40,90); the second
  // child has a grandchild [50,60).
  SpanLog log(8);
  const uint32_t root = log.name_id("root");
  const uint32_t child = log.name_id("child");
  const uint32_t leaf = log.name_id("leaf");
  const uint32_t a = log.begin_at(root, 1, 0);
  log.add(child, 1, 10, 30);
  const uint32_t b = log.begin_at(child, 1, 40);
  log.add(leaf, 1, 50, 60);
  log.end_at(b, 90);
  log.end_at(a, 100);
  LayerTimes t;
  add_self_times(log, t);
  const std::vector<Span>& spans = log.spans();
  if (t["root"].count != 1 || !near(t["root"].self_ns, 30) ||
      t["child"].count != 2 || !near(t["child"].total_ns, 70) ||
      !near(t["child"].self_ns, 60) || !near(t["leaf"].self_ns, 10) ||
      spans[1].parent != a || spans[3].parent != b) {
    return "self_time";
  }
  return {};
}

// --- results --------------------------------------------------------------

void Tally::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    errors.push_back(what);
  }
}

void Tally::merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  errors.insert(errors.end(), other.errors.begin(), other.errors.end());
}

void Report::put(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    bad_.push_back(name);
    value = 0;
  }
  entries_.push_back({name, value, unit});
}

std::string Report::json(bool correct, uint64_t attempted,
                         uint64_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < entries_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", entries_[i].value);
    out << (i == 0 ? "" : ", ") << '"' << entries_[i].name
        << "\": {\"value\": " << buf << ", \"unit\": \"" << entries_[i].unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace sedbench
