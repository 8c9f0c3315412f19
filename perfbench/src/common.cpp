#include "common.hpp"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

dsx::deploy::ArchSpec model_spec() {
  dsx::deploy::ArchSpec spec;
  spec.family = "mobilenet";
  spec.num_classes = kClasses;
  spec.channels = kChannels;
  spec.image = kImage;
  spec.scheme.scheme = dsx::models::ConvScheme::kDWSCC;
  spec.scheme.cg = 2;
  spec.scheme.co = 0.5;
  spec.scheme.width_mult = kWidth;
  spec.init_seed = kInitSeed;
  return spec;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

void Report::check(bool ok, const std::string& what) {
  notes.push_back(std::string(ok ? "check PASS: " : "check FAIL: ") + what);
  if (!ok) correct = false;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0.0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

uint32_t Tracer::add(const char* name, int64_t start_ns, int64_t end_ns,
                     uint32_t parent, uint64_t request) {
  if (!on_.load(std::memory_order_relaxed)) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start_ns, end_ns, parent, request});
  return static_cast<uint32_t>(spans_.size());
}

void Tracer::end(uint32_t id) {
  if (id == 0) return;
  const int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = t;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::write_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%u,\"request\":%llu}}",
                  i == 0 ? "" : ",\n", s.name,
                  static_cast<unsigned long long>(s.request),
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i + 1,
                  s.parent, static_cast<unsigned long long>(s.request));
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

std::string run_dir() {
  static const std::string dir = [] {
    const std::string d = ".bench_run/pid" + std::to_string(::getpid());
    std::filesystem::create_directories(d);
    return d;
  }();
  return dir;
}

}  // namespace perfbench
