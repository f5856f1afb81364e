// Ablation B: offline pipeline costs and the effect of control-flow
// reduction (DESIGN.md design choice #3/#5).
//
// - trace decode throughput (IPT-style packet stream -> event stream)
// - ITC-CFG construction throughput (packets decoded straight into the
//   builder, as the pipeline does)
// - ES-CFG construction (Algorithm 1 + reduction) per device
// - collection phase split per device: plain training next to the
//   pipeline's own phase timings (trace pass, decode + ITC-CFG + parameter
//   selection, observation pass, Algorithm 1)
// - fleet publication: publish_device_specs over every device next to the
//   slowest single build_spec (its critical path) and the sum of all
// - reduction statistics: blocks before/after, merged conditionals,
//   spliced blocks, serialized spec size
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <algorithm>
#include <array>
#include <cstdio>

#include "cfg/itc_cfg.h"
#include "gbench_json.h"
#include "guest/workload.h"
#include "obs/metrics.h"
#include "sedspec/enforcement.h"
#include "sedspec/pipeline.h"
#include "spec/builder.h"
#include "spec/serial.h"
#include "trace/encoder.h"

namespace {

using namespace sedspec;

std::vector<uint8_t> synthetic_packets(size_t rounds) {
  trace::PacketEncoder encoder;
  Rng rng(5);
  for (size_t r = 0; r < rounds; ++r) {
    encoder.pge(0x400000);
    const int blocks = static_cast<int>(rng.range(3, 12));
    for (int b = 0; b < blocks; ++b) {
      encoder.tip(0x400000 + 16 * rng.below(64));
      if (rng.chance(0.5)) {
        encoder.tnt(rng.chance(0.5));
      }
    }
    encoder.pgd();
  }
  return encoder.finish();
}

void BM_TraceDecode(benchmark::State& state) {
  const auto packets = synthetic_packets(1000);
  for (auto _ : state) {
    uint64_t tips = 0;
    trace::decode(packets, [&](const trace::TraceEvent& e) {
      tips += e.kind == trace::EventKind::kTip ? 1 : 0;
    });
    benchmark::DoNotOptimize(tips);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(packets.size()));
}
BENCHMARK(BM_TraceDecode)->Unit(benchmark::kMicrosecond)->MinTime(0.05);

void BM_ItcCfgBuild(benchmark::State& state) {
  const auto packets = synthetic_packets(1000);
  for (auto _ : state) {
    cfg::ItcCfgBuilder builder;
    builder.feed_packets(packets);
    auto graph = builder.take();
    benchmark::DoNotOptimize(graph);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(packets.size()));
}
BENCHMARK(BM_ItcCfgBuild)->Unit(benchmark::kMicrosecond)->MinTime(0.05);

void BM_EsCfgConstruction(benchmark::State& state,
                          const std::string& device) {
  auto wl = guest::make_workload(device);
  const pipeline::CollectionResult collected =
      pipeline::collect(wl->device(), [&] { wl->training(); });
  for (auto _ : state) {
    spec::EsCfg cfg = pipeline::construct(wl->device(), collected);
    benchmark::DoNotOptimize(cfg);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(collected.log.round_count()));
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Where a device's spec collection goes: plain training (the workload with
// no tracer or observer attached) next to the pipeline's own phases, read
// back from the pipeline_phase_ns{phase=...} histograms that
// pipeline::collect/construct record into while timing is on, and
// collect's wall time. Each phase is the histogram's sum delta over one
// collect + construct; the table shows the median of kReps such runs, ms.
void print_phase_split(bench_report::MetricSink& sink) {
  constexpr int kReps = 5;
  // Column 0 is plain training, 1-4 the pipeline phases, 5 collect.
  constexpr std::array<const char*, 6> kColumns = {
      "train",        "trace_pass",   "itc_cfg",
      "observe_pass", "es_cfg_build", "collect"};
  const bool timing = obs::timing_enabled();
  obs::set_timing_enabled(true);
  std::array<obs::Histogram*, 4> hists{};
  for (size_t i = 0; i < hists.size(); ++i) {
    hists[i] = &obs::metrics().histogram(
        "pipeline_phase_ns", obs::label({{"phase", kColumns[i + 1]}}));
  }
  std::printf(
      "\nCollection phase split per device (median of %d runs, ms).\n"
      "itc_cfg = decode + ITC-CFG + parameter selection; es_cfg_build =\n"
      "Algorithm 1 + reduction; collect = pipeline::collect wall time.\n"
      "%-10s",
      kReps, "device");
  for (const char* column : kColumns) {
    std::printf(" %12s", column);
  }
  std::printf("\n");
  for (const std::string& device : guest::workload_names()) {
    auto wl = guest::make_workload(device);
    std::array<std::vector<double>, kColumns.size()> ms;
    for (int rep = 0; rep < kReps; ++rep) {
      const uint64_t t0 = obs::now_ns();
      wl->device().reset();
      wl->training();
      ms[0].push_back(static_cast<double>(obs::now_ns() - t0) / 1e6);

      std::array<uint64_t, hists.size()> before{};
      for (size_t i = 0; i < hists.size(); ++i) {
        before[i] = hists[i]->sum();
      }
      const uint64_t t1 = obs::now_ns();
      const pipeline::CollectionResult collected =
          pipeline::collect(wl->device(), [&] { wl->training(); });
      ms[5].push_back(static_cast<double>(obs::now_ns() - t1) / 1e6);
      spec::EsCfg cfg = pipeline::construct(wl->device(), collected);
      benchmark::DoNotOptimize(cfg);
      for (size_t i = 0; i < hists.size(); ++i) {
        ms[i + 1].push_back(
            static_cast<double>(hists[i]->sum() - before[i]) / 1e6);
      }
    }
    wl->device().reset();
    std::printf("%-10s", device.c_str());
    for (size_t c = 0; c < kColumns.size(); ++c) {
      const double median = median_of(ms[c]);
      std::printf(" %12.2f", median);
      sink.put("phase_split/" + device + "/" + kColumns[c] + "_ms", median);
    }
    std::printf("\n");
  }
  obs::set_timing_enabled(timing);
}

// What fleet set-up waits on: publish_device_specs over every device (one
// job per device, each making its own workload), the slowest single
// build_spec (the critical path), the sum over all devices (what a
// one-device-at-a-time build takes) and the slowest device's
// make_workload (the rest of a publication job). The build_spec timings
// run one device at a time on this thread, each on a workload made before
// the clock starts. Each number is the median of kReps runs, ms;
// make_workload is the largest of the per-device medians. The allocator
// runs with the fixed mmap threshold sedbench's fleet workload sets; the
// device stores and guest RAM are page-lazy mappings outside the heap, so
// a workload pays only for the pages its training run touches.
void print_fleet_publication(bench_report::MetricSink& sink) {
  constexpr int kReps = 5;
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);
  const std::vector<std::string>& devices = guest::workload_names();
  std::vector<double> publish_ms;
  std::vector<double> slowest_ms;
  std::vector<double> sum_ms;
  std::vector<std::vector<double>> make_ms(devices.size());
  for (int rep = 0; rep < kReps; ++rep) {
    spec::SpecStore store;
    const uint64_t t0 = obs::now_ns();
    enforce::publish_device_specs(store, devices);
    publish_ms.push_back(static_cast<double>(obs::now_ns() - t0) / 1e6);

    double slowest = 0;
    double sum = 0;
    for (size_t d = 0; d < devices.size(); ++d) {
      const uint64_t t_make = obs::now_ns();
      auto wl = guest::make_workload(devices[d]);
      make_ms[d].push_back(static_cast<double>(obs::now_ns() - t_make) / 1e6);
      const uint64_t t1 = obs::now_ns();
      spec::EsCfg cfg =
          pipeline::build_spec(wl->device(), [&] { wl->training(); });
      const double ms = static_cast<double>(obs::now_ns() - t1) / 1e6;
      benchmark::DoNotOptimize(cfg);
      slowest = std::max(slowest, ms);
      sum += ms;
    }
    slowest_ms.push_back(slowest);
    sum_ms.push_back(sum);
  }
  const double publish = median_of(publish_ms);
  const double slowest = median_of(slowest_ms);
  const double sum = median_of(sum_ms);
  double make = 0;
  for (const std::vector<double>& ms : make_ms) {
    make = std::max(make, median_of(ms));
  }
  std::printf(
      "\nFleet publication over %zu devices (median of %d runs, ms).\n"
      "publish = enforce::publish_device_specs wall time; slowest = the\n"
      "slowest single build_spec (critical path); sum = all build_specs;\n"
      "make_workload = the slowest device's make_workload.\n"
      "%12s %12s %12s %14s\n%12.2f %12.2f %12.2f %14.3f\n",
      devices.size(), kReps, "publish", "slowest", "sum", "make_workload",
      publish, slowest, sum, make);
  sink.put("fleet_publication/publish_ms", publish);
  sink.put("fleet_publication/slowest_build_spec_ms", slowest);
  sink.put("fleet_publication/sum_build_spec_ms", sum);
  sink.put("fleet_publication/slowest_make_workload_ms", make);
}

void print_reduction_stats(bench_report::MetricSink& sink) {
  std::printf(
      "\nControl-flow reduction / spec size per device.\n"
      "Reduction part 1 (paper §IV-A/§V-C) happens at collection time: only\n"
      "observation-plan sites enter the log, so 'sites' -> 'blocks' is the\n"
      "filtering reduction; 'merged'/'spliced' count the part-2 rewrites.\n");
  std::printf("%-10s %8s %8s %8s %8s %8s %10s %8s\n", "device", "sites",
              "blocks", "filtered", "merged", "spliced", "specbytes",
              "rounds");
  for (const std::string& device : guest::workload_names()) {
    auto wl = guest::make_workload(device);
    spec::EsCfg cfg =
        pipeline::build_spec(wl->device(), [&] { wl->training(); });
    const size_t sites = wl->device().program().site_count();
    const size_t spec_bytes = spec::serialize(cfg).size();
    std::printf("%-10s %8zu %8zu %8zu %8llu %8llu %10zu %8llu\n",
                device.c_str(), sites, cfg.blocks.size(),
                sites - cfg.blocks.size(),
                (unsigned long long)cfg.merged_conditionals,
                (unsigned long long)cfg.spliced_blocks, spec_bytes,
                (unsigned long long)cfg.trained_rounds);
    sink.put("reduction/" + device + "/blocks",
             static_cast<double>(cfg.blocks.size()));
    sink.put("reduction/" + device + "/filtered",
             static_cast<double>(sites - cfg.blocks.size()));
    sink.put("reduction/" + device + "/spec_bytes",
             static_cast<double>(spec_bytes));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  for (const std::string& device : guest::workload_names()) {
    const std::string name = "BM_EsCfgConstruction/" + device;
    benchmark::RegisterBenchmark(name.c_str(),
                                 [device](benchmark::State& state) {
                                   BM_EsCfgConstruction(state, device);
                                 })
        ->Unit(benchmark::kMicrosecond)
        ->MinTime(0.05);
  }
  bench_report::MetricSink sink("ablation_pipeline");
  const bool format_overridden =
      bench_report::format_flag_present(argc, argv);
  benchmark::Initialize(&argc, argv);
  bench_report::run_with_capture(format_overridden, &sink);
  print_phase_split(sink);
  print_fleet_publication(sink);
  print_reduction_stats(sink);
  benchmark::Shutdown();
  sink.write_json();
  return 0;
}
