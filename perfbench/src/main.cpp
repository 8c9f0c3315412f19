// Repository benchmark: runs one workload against the program in its default
// configuration and prints, as the last line of standard output, one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 they are the per-layer
// ones, from a traced run that also writes its spans to
// .bench_run/spans-<workload>-seed<seed>.json.
//
//   dsx_perfbench --workload serve-paced|train-step
//                 --seed N --seconds S --trace 0|1
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "common.hpp"

extern char** environ;

namespace {

using perfbench::Metric;
using perfbench::Report;

// Every per-layer metric, in BENCHMARK.json order, with its unit. A traced
// run reports each; one whose layer the workload does not exercise reads 0
// and is named in the report.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"net.send_us", "us"},           {"net.recv_wait_ms", "ms"},
    {"net.wire_tax_ms", "ms"},       {"net.frames", "count"},
    {"net.replies", "count"},        {"serve.submit_us", "us"},
    {"serve.queue_wait_ms", "ms"},   {"serve.avg_batch", "count"},
    {"serve.batch_fill", "ratio"},   {"serve.batches", "count"},
    {"exec.run_b1_ms", "ms"},        {"exec.run_bmax_ms", "ms"},
    {"layer.scc_ms", "ms"},          {"layer.depthwise_ms", "ms"},
    {"layer.relu_ms", "ms"},         {"layer.conv_ms", "ms"},
    {"layer.head_ms", "ms"},         {"layer.scc_gflops", "GFLOP/s"},
    {"layer.depthwise_gflops", "GFLOP/s"}, {"layer.conv_gflops", "GFLOP/s"},
    {"layer.launches", "count"},     {"kernel.gemm_peak_gflops", "GFLOP/s"},
    {"device.pool_busy_ms", "ms"},   {"device.pool_utilization", "ratio"},
    {"train.data_ms", "ms"},         {"train.forward_ms", "ms"},
    {"train.backward_ms", "ms"},     {"train.sgd_ms", "ms"},
    {"train.scc_backward_ms", "ms"}, {"train.depthwise_backward_ms", "ms"},
    {"train.bn_backward_ms", "ms"},  {"setup.build_ms", "ms"},
    {"setup.store_load_ms", "ms"},   {"setup.compile_ms", "ms"},
    {"setup.register_ms", "ms"},     {"setup.listen_ms", "ms"},
    {"load.late_ms", "ms"},          {"trace.overhead_pct", "%"},
};

const char* const kEndToEnd[] = {"items_per_s", "latency_p50_ms", "setup_s",
                                 "peak_rss_mb"};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "dsx_perfbench: " << why
            << "\nusage: dsx_perfbench --workload serve-paced|train-step "
               "--seed N --seconds S --trace 0|1\n";
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  bool have[4] = {};
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
      have[0] = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') usage("bad --seed " + v);
      have[1] = true;
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(o.seconds >= 1.0 && o.seconds <= 60.0)) {
        usage("--seconds must be in [1, 60]");
      }
      have[2] = true;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      o.trace = v == "1";
      have[3] = true;
    } else {
      usage("unknown argument " + a);
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) {
    usage("--workload, --seed, --seconds and --trace are all required");
  }
  return o;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options opts = parse(argc, argv);

  // Numbers describe the default program only: refuse any DSX_* override
  // (DSX_THREADS, DSX_TUNE, DSX_SIMD, DSX_FAST_MATH, DSX_TRACE, ...).
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "DSX_", 4) == 0) {
      std::cerr << "dsx_perfbench: refusing to run with " << *e
                << " set; the benchmark measures the default configuration\n";
      return 2;
    }
  }

  Report report;
  bool ok = true;
  try {
    if (opts.workload == "serve-paced") {
      perfbench::run_serve_paced(opts, report);
    } else if (opts.workload == "train-step") {
      perfbench::run_train_step(opts, report);
    } else {
      usage("unknown workload " + opts.workload);
    }
    if (opts.trace) {
      report.layer("kernel.gemm_peak_gflops", perfbench::gemm_peak_gflops(),
                   "GFLOP/s");
    }
  } catch (const std::exception& e) {
    std::cerr << "dsx_perfbench: " << opts.workload << " aborted: " << e.what()
              << "\n";
    ok = false;
  }
  std::error_code ec;
  std::filesystem::remove_all(perfbench::run_dir(), ec);
  if (!ok) return 1;
  report.e2e("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
  if (opts.trace) {
    const std::string path = ".bench_run/spans-" + opts.workload + "-seed" +
                             std::to_string(opts.seed) + ".json";
    if (!perfbench::tracer().write_json(path)) {
      std::cerr << "dsx_perfbench: cannot write " << path << "\n";
      return 1;
    }
    report.notes.push_back("spans: " + std::to_string(perfbench::tracer().size()) +
                           " written to " + path);
  }

  // The metrics this kind of run reports, in a fixed order.
  std::map<std::string, Metric> measured;
  for (const Metric& m : opts.trace ? report.per_layer : report.end_to_end) {
    measured[m.name] = m;
  }
  std::vector<Metric> out;
  if (opts.trace) {
    for (const auto& [name, unit] : kPerLayer) {
      auto it = measured.find(name);
      if (it == measured.end()) {
        report.notes.push_back(std::string(name) +
                               ": not exercised by this workload (0)");
        out.push_back({name, 0.0, unit, 0});
      } else {
        out.push_back(it->second);
      }
    }
  } else {
    for (const char* name : kEndToEnd) out.push_back(measured.at(name));
  }

  std::cout << "workload " << opts.workload << " seed " << opts.seed
            << " seconds " << opts.seconds << " trace " << opts.trace << "\n";
  for (const std::string& n : report.notes) std::cout << "  " << n << "\n";
  for (const Metric& m : out) {
    std::cout << "  " << m.name << " = " << m.value << " " << m.unit;
    if (m.samples > 0) std::cout << " (n=" << m.samples << ")";
    std::cout << "\n";
  }
  std::cout << "  operations attempted " << report.attempted << ", failed "
            << report.failed << ", correct " << (report.correct ? "yes" : "no")
            << "\n";

  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + out[i].name + "\": {\"value\": " + json_number(out[i].value) +
            ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}
