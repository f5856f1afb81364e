#include "obs/slo.h"

#include <algorithm>
#include <sstream>

#include "common/assert.h"
#include "obs/trace.h"

namespace sedspec::obs {

void SloEngine::add(SloSpec spec) {
  SEDSPEC_REQUIRE(!spec.name.empty());
  SEDSPEC_REQUIRE(!spec.metric.empty());
  SEDSPEC_REQUIRE(spec.fast_windows > 0);
  SEDSPEC_REQUIRE(spec.fast_windows <= spec.slow_windows);
  SEDSPEC_REQUIRE(spec.budget > 0.0);
  specs_.push_back(std::move(spec));
  history_.emplace_back();
}

double SloEngine::observe(const SloSpec& spec, const WindowSample& w,
                          std::string* detail) {
  std::ostringstream d;
  double value = 0.0;
  switch (spec.kind) {
    case SloKind::kHistogramQuantileMax: {
      std::optional<WindowHistogram> merged;
      const WindowHistogram* h = nullptr;
      if (spec.labels.empty()) {
        merged = w.merged_histogram(spec.metric);
        h = merged ? &*merged : nullptr;
      } else {
        h = w.find_histogram(spec.metric, spec.labels);
      }
      if (h != nullptr) {
        value = static_cast<double>(h->state.quantile(spec.quantile));
      }
      d << spec.metric << " q" << spec.quantile << " = " << value;
      break;
    }
    case SloKind::kCounterRateMax: {
      if (spec.labels.empty()) {
        const uint64_t delta = w.counter_delta_sum(spec.metric);
        const double seconds =
            static_cast<double>(w.t_end_ns - w.t_start_ns) / 1e9;
        value = seconds > 0.0 ? static_cast<double>(delta) / seconds : 0.0;
      } else if (const WindowCounter* c =
                     w.find_counter(spec.metric, spec.labels)) {
        value = c->rate;
      }
      d << spec.metric << " rate = " << value << "/s";
      break;
    }
    case SloKind::kGaugeGrowthMax: {
      int64_t v = 0;
      for (const WindowGauge& g : w.gauges) {
        if (g.name != spec.metric) {
          continue;
        }
        if (!spec.labels.empty() && g.labels != spec.labels) {
          continue;
        }
        v += g.delta;
      }
      value = static_cast<double>(v);
      d << spec.metric << " growth = " << value;
      break;
    }
  }
  if (detail != nullptr) {
    *detail = d.str();
  }
  return value;
}

std::vector<SloVerdict> SloEngine::evaluate(const WindowSample& w) {
  std::vector<SloVerdict> verdicts;
  verdicts.reserve(specs_.size());
  bool any_violating = false;
  for (size_t i = 0; i < specs_.size(); ++i) {
    const SloSpec& spec = specs_[i];
    History& hist = history_[i];
    SloVerdict v;
    v.slo = spec.name;
    v.threshold = spec.threshold;
    v.value = observe(spec, w, &v.detail);
    v.violating = v.value > spec.threshold;
    any_violating = any_violating || v.violating;

    hist.violating.push_back(v.violating);
    while (hist.violating.size() > spec.slow_windows) {
      hist.violating.pop_front();
    }
    // Burn rate over a horizon = violating fraction / budget. Horizons
    // shorter than their nominal width (engine warm-up) use the windows
    // seen so far — a violation in window 0 can already burn.
    auto burn_over = [&](size_t horizon) {
      const size_t n = std::min(horizon, hist.violating.size());
      if (n == 0) {
        return 0.0;
      }
      size_t bad = 0;
      for (size_t k = hist.violating.size() - n; k < hist.violating.size();
           ++k) {
        bad += hist.violating[k] ? 1 : 0;
      }
      return static_cast<double>(bad) / static_cast<double>(n) / spec.budget;
    };
    v.fast_burn = burn_over(spec.fast_windows);
    v.slow_burn = burn_over(spec.slow_windows);
    v.breach = v.violating && v.fast_burn >= spec.fast_burn &&
               v.slow_burn >= spec.slow_burn;
    if (v.breach) {
      ++breaches_;
      if (EventTracer* t = tracer()) {
        t->record(EventType::kSloBreach, "slo_breach", "slo", spec.name,
                  /*a=*/static_cast<uint64_t>(v.value),
                  /*b=*/w.index);
      }
    }
    verdicts.push_back(std::move(v));
  }
  if (any_violating) {
    ++violating_windows_;
  }
  return verdicts;
}

}  // namespace sedspec::obs
