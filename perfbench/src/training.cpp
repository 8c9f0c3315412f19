// The train-step workload: a closed loop of nn::Trainer::train_batch at
// batch 32 over a seeded data::make_synth_cifar stream read through
// data::DataLoader. It bypasses net and serve entirely and is the only
// workload that runs the SCC / depthwise / BN backward passes and nn::SGD.
#include <cmath>
#include <memory>
#include <sstream>

#include "checks.hpp"
#include "common.hpp"
#include "data/dataloader.hpp"
#include "data/synth.hpp"
#include "deploy/arch_spec.hpp"
#include "device/thread_pool.hpp"
#include "nn/layers_basic.hpp"
#include "nn/layers_conv.hpp"
#include "nn/sgd.hpp"
#include "nn/trainer.hpp"
#include "ops/softmax_xent.hpp"

namespace perfbench {

namespace {

constexpr int64_t kBatch = 32;
// A small training set revisited every few steps, so that the loss falls
// measurably within one run.
constexpr int64_t kSamples = 64;
// Set-up is repeated this many times per run, about half before the steps
// and half after them, so its median spans the run rather than one moment.
constexpr int kSetupTrials = 31;
constexpr int kWarmSteps = 2;
// Every timed loop runs at least this many steps, however short --seconds,
// so the loss check always has a first and a last quarter to compare.
constexpr size_t kMinSteps = 16;
constexpr float kLr = 0.02f;
constexpr float kMomentum = 0.9f;

/// Everything a training process holds once it can take its first batch.
struct Trainee {
  std::unique_ptr<dsx::nn::Sequential> net;
  std::unique_ptr<dsx::nn::SGD> sgd;
  std::unique_ptr<dsx::nn::Trainer> trainer;
  std::unique_ptr<dsx::data::DataLoader> loader;
};

dsx::data::Batch next_batch(dsx::data::DataLoader& loader) {
  if (!loader.has_next()) loader.reset();
  return loader.next();
}

struct Steps {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t images = 0;
  double wall_s = 0.0;
  std::vector<double> step_ms;  // one optimisation step, data fetch excluded
  std::vector<double> losses;
};

bool record_loss(Steps& s, double loss) {
  ++s.attempted;
  if (!std::isfinite(loss)) {
    ++s.failed;
    return false;
  }
  s.losses.push_back(loss);
  return true;
}

/// Untraced closed loop of Trainer::train_batch.
Steps plain_steps(Trainee& t, double seconds) {
  Steps s;
  const int64_t start = now_ns();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  while (now_ns() < end || s.step_ms.size() < kMinSteps) {
    const dsx::data::Batch b = next_batch(*t.loader);
    const int64_t a = now_ns();
    const dsx::nn::StepResult r = t.trainer->train_batch(b.images, b.labels);
    s.step_ms.push_back(ns_to_ms(now_ns() - a));
    if (record_loss(s, r.loss)) s.images += kBatch;
  }
  s.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  return s;
}

enum Kind { kScc, kDepthwise, kBn, kOtherKind, kKinds };
const char* const kBackwardSpan[kKinds] = {
    "train.backward.scc", "train.backward.depthwise", "train.backward.bn",
    "train.backward.other"};

Kind backward_kind(const dsx::nn::Layer& l) {
  if (dynamic_cast<const dsx::nn::SCCConv*>(&l)) return kScc;
  if (dynamic_cast<const dsx::nn::DepthwiseConv2d*>(&l)) return kDepthwise;
  if (dynamic_cast<const dsx::nn::BatchNorm2d*>(&l)) return kBn;
  return kOtherKind;
}

/// A copy of the step Trainer::train_batch takes (zero grads, forward,
/// loss, backward, SGD step; without its accuracy count), split into phases
/// and with Layer::backward called layer by layer so each phase and layer
/// kind is timed on its own. A change inside Trainer::train_batch itself
/// does not show here, only in the end-to-end metrics.
struct Phases {
  std::vector<double> data, forward, backward, sgd, step;
  std::vector<double> kind[kKinds];
};

Steps phased_steps(Trainee& t, double seconds, Phases& ph) {
  Steps s;
  dsx::nn::Sequential& net = *t.net;
  const int64_t start = now_ns();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  while (now_ns() < end || ph.step.size() < kMinSteps) {
    const uint32_t step = tracer().begin("train.step");
    int64_t a = now_ns();
    const dsx::data::Batch b = next_batch(*t.loader);
    int64_t z = now_ns();
    tracer().add("train.data", a, z, step);
    ph.data.push_back(ns_to_ms(z - a));

    const int64_t step_begin = z;
    a = z;
    const std::vector<dsx::nn::Param*> params = net.params();
    dsx::nn::zero_grads(params);
    const dsx::Tensor logits = net.forward(b.images, /*training=*/true);
    z = now_ns();
    tracer().add("train.forward", a, z, step);
    ph.forward.push_back(ns_to_ms(z - a));

    a = z;
    const uint32_t bwd = tracer().begin("train.backward", step);
    const dsx::XentResult xent = dsx::softmax_cross_entropy(logits, b.labels);
    double by_kind[kKinds] = {};
    dsx::Tensor g = xent.dlogits;
    for (size_t i = net.size(); i-- > 0;) {
      dsx::nn::Layer& l = net.layer(i);
      const int64_t la = now_ns();
      g = l.backward(g);
      const int64_t lb = now_ns();
      const Kind kind = backward_kind(l);
      tracer().add(kBackwardSpan[kind], la, lb, bwd);
      by_kind[kind] += ns_to_ms(lb - la);
    }
    z = now_ns();
    tracer().end(bwd);
    ph.backward.push_back(ns_to_ms(z - a));
    for (int k = 0; k < kKinds; ++k) ph.kind[k].push_back(by_kind[k]);

    a = z;
    t.sgd->step(net.params());
    z = now_ns();
    tracer().add("train.sgd", a, z, step);
    ph.sgd.push_back(ns_to_ms(z - a));
    ph.step.push_back(ns_to_ms(z - step_begin));
    tracer().end(step);
    if (record_loss(s, xent.loss)) s.images += kBatch;
  }
  s.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  return s;
}

double mean_of(const std::vector<double>& v, size_t from, size_t to) {
  double sum = 0.0;
  for (size_t i = from; i < to; ++i) sum += v[i];
  return sum / static_cast<double>(to - from);
}

}  // namespace

void run_train_step(const Options& opts, Report& report) {
  check_scc_forward(report);
  check_scc_backward(report);

  // The input stream (made before set-up, from --seed).
  const dsx::data::Dataset data = dsx::data::make_synth_cifar(
      kSamples, opts.seed, kImage, kChannels, kClasses);

  std::vector<double> setup_s, build_ms;
  auto set_up = [&](Trainee& t) {
    t = Trainee{};
    const uint32_t root = tracer().begin("setup");
    const int64_t a = now_ns();
    t.net = dsx::deploy::build_architecture(model_spec());
    const int64_t b = now_ns();
    t.sgd = std::make_unique<dsx::nn::SGD>(
        dsx::nn::SGD::Options{.lr = kLr, .momentum = kMomentum});
    t.trainer = std::make_unique<dsx::nn::Trainer>(*t.net, *t.sgd);
    t.loader = std::make_unique<dsx::data::DataLoader>(
        data, dsx::data::DataLoader::Options{.batch_size = kBatch,
                                             .shuffle = true,
                                             .seed = opts.seed,
                                             .drop_last = true});
    const int64_t c = now_ns();
    tracer().add("setup.build", a, b, root);
    tracer().end(root);
    setup_s.push_back(static_cast<double>(c - a) / 1e9);
    build_ms.push_back(ns_to_ms(b - a));
  };
  Trainee t;
  for (int trial = 0; trial <= kSetupTrials / 2; ++trial) set_up(t);

  Steps all;
  auto absorb = [&](const Steps& s) {
    all.attempted += s.attempted;
    all.failed += s.failed;
    all.losses.insert(all.losses.end(), s.losses.begin(), s.losses.end());
  };
  for (int i = 0; i < kWarmSteps; ++i) {
    const dsx::data::Batch b = next_batch(*t.loader);
    Steps warm;
    record_loss(warm, t.trainer->train_batch(b.images, b.labels).loss);
    absorb(warm);
  }

  if (!opts.trace) {
    const Steps plain = plain_steps(t, opts.seconds);
    absorb(plain);
    const double p50 = median(plain.step_ms);
    report.e2e("items_per_s", static_cast<double>(plain.images) / plain.wall_s,
               "items/s", plain.images);
    report.e2e("latency_p50_ms", p50, "ms",
               static_cast<int64_t>(plain.step_ms.size()));
    std::ostringstream os;
    os << "train steps: attempted " << plain.attempted << ", failed "
       << plain.failed << ", step ms n=" << plain.step_ms.size()
       << " p50=" << p50 << " (too few samples for a p99)";
    report.notes.push_back(os.str());
  } else {
    // Half the time on the phased step with tracing off, half with spans
    // and pool accounting on: the overhead compares the same code.
    const double seconds = opts.seconds / 2;
    Phases base;
    absorb(phased_steps(t, seconds, base));
    tracer().enable(true);
    dsx::device::set_pool_accounting(true);
    auto busy_ns = [] {
      for (const auto& p : dsx::device::ThreadPool::pool_stats()) {
        if (p.name == "global") return std::make_pair(p.busy_ns, p.threads);
      }
      return std::make_pair(int64_t{0}, 0u);
    };
    const auto before = busy_ns();
    Phases ph;
    const Steps traced = phased_steps(t, seconds, ph);
    const auto after = busy_ns();
    dsx::device::set_pool_accounting(false);
    tracer().enable(false);
    absorb(traced);
    const int64_t n = static_cast<int64_t>(ph.step.size());
    report.layer("train.data_ms", median(ph.data), "ms", n);
    report.layer("train.forward_ms", median(ph.forward), "ms", n);
    report.layer("train.backward_ms", median(ph.backward), "ms", n);
    report.layer("train.sgd_ms", median(ph.sgd), "ms", n);
    report.layer("train.scc_backward_ms", median(ph.kind[kScc]), "ms", n);
    report.layer("train.depthwise_backward_ms", median(ph.kind[kDepthwise]),
                 "ms", n);
    report.layer("train.bn_backward_ms", median(ph.kind[kBn]), "ms", n);
    const double busy_ms = static_cast<double>(after.first - before.first) / 1e6;
    report.layer("device.pool_busy_ms",
                 traced.images > 0 ? busy_ms / static_cast<double>(traced.images)
                                   : 0.0,
                 "ms");
    report.layer("device.pool_utilization",
                 after.second > 0
                     ? busy_ms / (traced.wall_s * 1e3 * after.second)
                     : 0.0,
                 "ratio");
    const double base_p50 = median(base.step);
    report.layer("trace.overhead_pct",
                 100.0 * (median(ph.step) - base_p50) / base_p50, "%", n);
  }

  {
    Trainee later;
    while (static_cast<int>(setup_s.size()) < kSetupTrials) set_up(later);
  }
  report.e2e("setup_s", median(setup_s), "s", kSetupTrials);
  if (opts.trace) report.layer("setup.build_ms", median(build_ms), "ms", kSetupTrials);

  report.attempted += all.attempted;
  report.failed += all.failed;
  // The loss over the run's last quarter of steps must be below its first
  // quarter's.
  const size_t q = all.losses.size() / 4;
  {
    const double first = mean_of(all.losses, 0, q);
    const double last =
        mean_of(all.losses, all.losses.size() - q, all.losses.size());
    std::ostringstream os;
    os << "training loss falls: mean of last " << q << " steps " << last
       << " < mean of first " << q << " steps " << first;
    report.check(last < first, os.str());
  }
}

}  // namespace perfbench
