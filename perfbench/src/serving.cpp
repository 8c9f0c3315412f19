// The serve-paced workload: an open loop at a fixed seeded arrival rate,
// frames of net/protocol.hpp spoken directly over one socket, against the
// default serving stack: a ModelStore-loaded plan registered on an
// InferenceServer behind an IngressServer on loopback TCP.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "checks.hpp"
#include "common.hpp"
#include "common/socket_io.hpp"
#include "deploy/deploy.hpp"
#include "device/launch.hpp"
#include "device/thread_pool.hpp"
#include "net/net.hpp"
#include "nn/layers_basic.hpp"
#include "nn/layers_conv.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "simd/gemm.hpp"
#include "tensor/random.hpp"
#include "tensor/workspace.hpp"

namespace perfbench {

namespace {

using dsx::Tensor;

constexpr int64_t kDistinctImages = 64;
// Set-up is repeated this many times per run, about half before the traffic
// and half after it, so its median spans the run rather than one moment.
constexpr int kSetupTrials = 31;
constexpr double kWarmSeconds = 1.0;
constexpr double kRate = 20.0;  // arrivals per second
constexpr const char* kVersion = "v1";

double ms_between(int64_t a_ns, int64_t b_ns) { return ns_to_ms(b_ns - a_ns); }

// ---- the serving stack ------------------------------------------------------

/// One serving process image: the stored plan registered on a server behind
/// the TCP ingress. The ingress is declared last so it is destroyed first.
struct Stack {
  std::unique_ptr<dsx::serve::InferenceServer> server;
  std::unique_ptr<dsx::net::IngressServer> ingress;

  void stop() {
    if (ingress) ingress->stop();
    if (server) server->stop();
    ingress.reset();
    server.reset();
  }
  ~Stack() { stop(); }
};

struct SetupSamples {
  std::vector<double> total_s, store_load_ms, register_ms, listen_ms;
};

/// Start-up until the first request can be accepted: store load (rebuild,
/// weight load and compile), server construction and registration, and
/// the ingress listening.
void set_up_stack(const dsx::deploy::ModelStore& store, Stack& stack,
                  SetupSamples& out) {
  const uint32_t root = tracer().begin("setup");
  const int64_t t0 = now_ns();
  std::unique_ptr<dsx::serve::CompiledModel> plan;
  {
    SpanScope s("setup.store_load", root);
    plan = store.compile(kModelName, kVersion,
                         dsx::serve::CompileOptions{.max_batch = kMaxBatch});
  }
  const int64_t t1 = now_ns();
  {
    SpanScope s("setup.register", root);
    stack.server = std::make_unique<dsx::serve::InferenceServer>();
    stack.server->register_model(
        kModelName, std::move(plan),
        dsx::serve::BatcherOptions{.max_batch = kMaxBatch,
                                   .max_delay = kMaxDelay});
  }
  const int64_t t2 = now_ns();
  {
    SpanScope s("setup.listen", root);
    stack.ingress = std::make_unique<dsx::net::IngressServer>(*stack.server);
    stack.ingress->start();
  }
  const int64_t t3 = now_ns();
  tracer().end(root);
  out.total_s.push_back(static_cast<double>(t3 - t0) / 1e9);
  out.store_load_ms.push_back(ms_between(t0, t1));
  out.register_ms.push_back(ms_between(t1, t2));
  out.listen_ms.push_back(ms_between(t2, t3));
}

// ---- traffic ----------------------------------------------------------------

/// What one measured pass of traffic saw.
struct Pass {
  int64_t attempted = 0;
  int64_t failed = 0;       // not kOk, or logits not the model's
  int64_t store_fault = 0;  // failed only by the known ModelStore fault
  int64_t wrong = 0;        // kOk with logits wrong in any other way
  int64_t ok_in_window = 0;
  double window_s = 0.0;
  std::vector<double> latency_ms;    // kOk replies to measured arrivals
  std::vector<double> send_us;       // time in the frame write / submit
  std::vector<double> recv_wait_ms;  // end of send to reply
  std::vector<double> late_ms;       // generator lateness
  std::string error;                 // first exception, if any
};

struct Traffic {
  int port = 0;
  const std::vector<Tensor>* images = nullptr;
  ReplyChecker* checker = nullptr;
  double seconds = 10.0;
};

/// The open-loop arrival schedule: a warm-up second, then kRate * seconds
/// arrivals drawn uniformly over the measured span (a Poisson process
/// conditioned on its count), each with a seeded image.
struct Schedule {
  std::vector<int64_t> due_ns;  // offsets from the schedule start
  std::vector<size_t> image;
  size_t measured_from = 0;     // first measured arrival
  int64_t window_begin_ns = 0;  // offset of the measured span
};

Schedule make_schedule(uint64_t seed, double seconds, size_t images) {
  dsx::Rng rng(seed * 7919u + 17u);
  Schedule s;
  const auto draw = [&](double from, double span, int64_t n) {
    std::vector<int64_t> v;
    for (int64_t i = 0; i < n; ++i) {
      v.push_back(static_cast<int64_t>(
          (from + span * static_cast<double>(rng.uniform(0.0f, 1.0f))) * 1e9));
    }
    std::sort(v.begin(), v.end());
    s.due_ns.insert(s.due_ns.end(), v.begin(), v.end());
  };
  draw(0.0, kWarmSeconds, static_cast<int64_t>(kRate * kWarmSeconds));
  s.measured_from = s.due_ns.size();
  s.window_begin_ns = static_cast<int64_t>(kWarmSeconds * 1e9);
  draw(kWarmSeconds, seconds, static_cast<int64_t>(kRate * seconds));
  for (size_t i = 0; i < s.due_ns.size(); ++i) {
    s.image.push_back(static_cast<size_t>(
        rng.randint(0, static_cast<int64_t>(images) - 1)));
  }
  return s;
}

void sleep_until_ns(int64_t t) {
  const int64_t d = t - now_ns();
  if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
}

/// Folds per-request completion records of an open-loop pass into a Pass:
/// `answered` marks kOk replies, whose logits were checked into `verdict`.
void finish_open_loop(const Schedule& s, int64_t t0,
                      const std::vector<int64_t>& done_ns,
                      const std::vector<char>& answered,
                      const std::vector<ReplyChecker::Verdict>& verdict,
                      Pass& p) {
  using V = ReplyChecker::Verdict;
  const size_t n = s.due_ns.size();
  p.attempted = static_cast<int64_t>(n);
  for (size_t i = 0; i < n; ++i) {
    if (answered[i] && verdict[i] == V::kPass) continue;
    ++p.failed;
    if (!answered[i]) continue;
    if (verdict[i] == V::kStoreFault) ++p.store_fault;
    if (verdict[i] == V::kWrong) ++p.wrong;
  }
  int64_t last = t0 + s.window_begin_ns;
  for (size_t i = s.measured_from; i < n; ++i) {
    if (!answered[i]) continue;
    ++p.ok_in_window;
    p.latency_ms.push_back(ms_between(t0 + s.due_ns[i], done_ns[i]));
    last = std::max(last, done_ns[i]);
  }
  p.window_s = static_cast<double>(last - (t0 + s.window_begin_ns)) / 1e9;
}

/// Open loop over one TCP connection: a sender writes request frames of
/// net/protocol.hpp at their due times while a receiver reads replies, so
/// sends stay on schedule however replies arrive. Latency runs from when a
/// request was due.
Pass paced_wire_pass(const Traffic& t, const Schedule& s) {
  const size_t n = s.due_ns.size();
  Pass p;
  std::vector<int64_t> sent_begin(n, 0), sent_end(n, 0), done(n, 0);
  std::vector<char> answered(n, 0);
  std::vector<ReplyChecker::Verdict> verdict(n, ReplyChecker::Verdict::kWrong);
  const int fd = dsx::sockio::connect_tcp("127.0.0.1", t.port,
                                          std::chrono::milliseconds(10000));
  // The generator's own socket must not hold small writes back (Nagle).
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  size_t sent = 0;
  std::string recv_error;
  std::thread receiver([&] {
    try {
      for (size_t got = 0; got < n; ++got) {
        uint8_t header[dsx::net::kHeaderBytes];
        if (!dsx::sockio::recv_all(fd, header, sizeof(header))) {
          throw std::runtime_error("reply stream closed");
        }
        dsx::net::FrameType type{};
        uint32_t len = 0;
        if (dsx::net::parse_header(header, dsx::net::kDefaultMaxFrameBytes,
                                   &type, &len) !=
                dsx::net::HeaderVerdict::kOk ||
            type != dsx::net::FrameType::kReply) {
          throw std::runtime_error("bad reply header");
        }
        std::vector<uint8_t> payload(len);
        if (len > 0 && !dsx::sockio::recv_all(fd, payload.data(), len)) {
          throw std::runtime_error("short reply payload");
        }
        dsx::net::ReplyFrame reply;
        if (!dsx::net::parse_reply_payload(payload.data(), len, &reply) ||
            reply.request_id < 1 || reply.request_id > n) {
          throw std::runtime_error("malformed reply");
        }
        const size_t i = reply.request_id - 1;
        done[i] = now_ns();
        answered[i] = reply.status == dsx::net::Status::kOk;
        if (answered[i]) verdict[i] = t.checker->verify(s.image[i], reply.output);
      }
    } catch (const std::exception& e) {
      recv_error = e.what();
    }
  });
  const int64_t t0 = now_ns() + 5'000'000;
  for (size_t i = 0; i < n; ++i) {
    // Encoded ahead of its due time, so the send carries no encoding cost.
    dsx::net::RequestFrame req;
    req.request_id = i + 1;
    req.model = kModelName;
    req.image = (*t.images)[s.image[i]];
    const std::string frame = dsx::net::encode_request(req);
    const int64_t due = t0 + s.due_ns[i];
    sleep_until_ns(due);
    sent_begin[i] = now_ns();
    const bool wrote = dsx::sockio::send_all(fd, frame);
    sent_end[i] = now_ns();
    if (!wrote) break;
    ++sent;
  }
  if (sent < n) ::shutdown(fd, SHUT_RDWR);  // unblock the receiver
  receiver.join();
  ::close(fd);
  for (size_t i = 0; i < n; ++i) {
    const int64_t due = t0 + s.due_ns[i];
    const uint32_t span = tracer().add("request", due, done[i], 0, i + 1);
    tracer().add("net.send", sent_begin[i], sent_end[i], span, i + 1);
    if (i < s.measured_from) continue;
    p.send_us.push_back(static_cast<double>(sent_end[i] - sent_begin[i]) / 1e3);
    p.late_ms.push_back(ms_between(due, sent_begin[i]));
    if (answered[i]) p.recv_wait_ms.push_back(ms_between(sent_end[i], done[i]));
  }
  if (!recv_error.empty()) p.error = recv_error;
  finish_open_loop(s, t0, done, answered, verdict, p);
  return p;
}

/// The same arrivals submitted in-process (InferenceServer::submit, then
/// get), the baseline for the wire tax.
Pass paced_inproc_pass(dsx::serve::InferenceServer& server, const Traffic& t,
                       const Schedule& s) {
  const size_t n = s.due_ns.size();
  Pass p;
  std::vector<int64_t> submit_begin(n, 0), submit_end(n, 0), done(n, 0);
  std::vector<char> answered(n, 0);
  std::vector<ReplyChecker::Verdict> verdict(n, ReplyChecker::Verdict::kWrong);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<size_t, std::future<Tensor>>> queue;
  bool finished = false;
  std::thread receiver([&] {
    for (;;) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return finished || !queue.empty(); });
      if (queue.empty()) return;
      auto [i, fut] = std::move(queue.front());
      queue.pop_front();
      lock.unlock();
      try {
        const Tensor out = fut.get();
        done[i] = now_ns();
        answered[i] = 1;
        verdict[i] = t.checker->verify(s.image[i], out);
      } catch (const std::exception&) {
        done[i] = now_ns();
      }
    }
  });
  const int64_t t0 = now_ns() + 5'000'000;
  for (size_t i = 0; i < n; ++i) {
    const int64_t due = t0 + s.due_ns[i];
    sleep_until_ns(due);
    submit_begin[i] = now_ns();
    std::future<Tensor> fut;
    try {
      fut = server.submit(kModelName, (*t.images)[s.image[i]]);
    } catch (const std::exception& e) {
      if (p.error.empty()) p.error = e.what();
    }
    submit_end[i] = now_ns();
    if (!fut.valid()) continue;
    std::lock_guard<std::mutex> lock(mu);
    queue.emplace_back(i, std::move(fut));
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    finished = true;
  }
  cv.notify_one();
  receiver.join();
  for (size_t i = 0; i < n; ++i) {
    const uint32_t span =
        tracer().add("request", t0 + s.due_ns[i], done[i], 0, i + 1);
    tracer().add("serve.submit", submit_begin[i], submit_end[i], span, i + 1);
    if (i >= s.measured_from) {
      p.send_us.push_back(static_cast<double>(submit_end[i] - submit_begin[i]) / 1e3);
    }
  }
  finish_open_loop(s, t0, done, answered, verdict, p);
  return p;
}

// ---- probes of single layers (traced run; no server executing) ---------------

Tensor stack_batch(const std::vector<Tensor>& images, int64_t n) {
  const int64_t per = images[0].numel();
  Tensor b(dsx::make_nchw(n, kChannels, kImage, kImage));
  for (int64_t i = 0; i < n; ++i) {
    std::memcpy(b.data() + i * per, images[static_cast<size_t>(i)].data(),
                static_cast<size_t>(per) * sizeof(float));
  }
  return b;
}

template <typename Fn>
double median_ms(int warm, int reps, Fn&& fn) {
  for (int i = 0; i < warm; ++i) fn();
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) {
    const int64_t a = now_ns();
    fn();
    v.push_back(ms_between(a, now_ns()));
  }
  return median(v);
}

const char* layer_kind(const dsx::nn::Layer& l) {
  if (dynamic_cast<const dsx::nn::SCCConv*>(&l)) return "scc";
  if (dynamic_cast<const dsx::nn::DepthwiseConv2d*>(&l)) return "depthwise";
  if (dynamic_cast<const dsx::nn::Conv2d*>(&l)) return "conv";
  if (dynamic_cast<const dsx::nn::ReLU*>(&l)) return "relu";
  if (dynamic_cast<const dsx::nn::GlobalAvgPool*>(&l) ||
      dynamic_cast<const dsx::nn::Flatten*>(&l) ||
      dynamic_cast<const dsx::nn::Linear*>(&l)) {
    return "head";
  }
  return "other";
}

/// Times the frozen plan: whole-plan run() at batch 1 and max_batch, its
/// kernel launches per forward, and each top-level layer's
/// forward_inference at max_batch grouped by kind.
void probe_plan(dsx::serve::CompiledModel& plan,
                const std::vector<Tensor>& images, Report& report) {
  const uint32_t root = tracer().begin("probe.plan");
  const Tensor b1 = images[0];
  const Tensor bmax = stack_batch(images, kMaxBatch);
  report.layer("exec.run_b1_ms", median_ms(5, 60, [&] { (void)plan.run(b1); }),
               "ms", 60);
  report.layer("exec.run_bmax_ms",
               median_ms(3, 30, [&] { (void)plan.run(bmax); }), "ms", 30);
  {
    dsx::device::KernelProfileScope scope;
    (void)plan.run(bmax);
    report.layer("layer.launches", static_cast<double>(scope.records().size()),
                 "count");
  }

  dsx::nn::Sequential& model = plan.model();
  const size_t layers = model.size();
  constexpr int kReps = 25;
  std::vector<std::vector<double>> times(layers);
  std::vector<double> macs(layers, 0.0);
  dsx::Workspace ws;
  for (int r = -2; r < kReps; ++r) {
    ws.reset();
    Tensor x = bmax;
    for (size_t i = 0; i < layers; ++i) {
      dsx::nn::Layer& l = model.layer(i);
      if (r == 0) macs[i] = l.cost(x.shape()).macs * static_cast<double>(kMaxBatch);
      const int64_t a = now_ns();
      x = l.forward_inference(x, ws);
      const int64_t b = now_ns();
      if (r >= 0) {
        times[i].push_back(ms_between(a, b));
        tracer().add(layer_kind(l), a, b, root);
      }
    }
  }
  std::map<std::string, std::pair<double, double>> by_kind;  // ms, MACs
  for (size_t i = 0; i < layers; ++i) {
    auto& k = by_kind[layer_kind(model.layer(i))];
    k.first += median(times[i]);
    k.second += macs[i];
  }
  for (const char* kind : {"scc", "depthwise", "relu", "conv", "head"}) {
    report.layer(std::string("layer.") + kind + "_ms", by_kind[kind].first,
                 "ms", kReps);
  }
  for (const char* kind : {"scc", "depthwise", "conv"}) {
    const auto& k = by_kind[kind];
    report.layer(std::string("layer.") + kind + "_gflops",
                 k.first > 0.0 ? 2.0 * k.second / (k.first * 1e6) : 0.0,
                 "GFLOP/s");
  }
  if (by_kind.count("other") != 0) {
    report.notes.push_back("layer table: " + std::to_string(by_kind["other"].first) +
                           " ms in layers of no listed kind");
  }
  tracer().end(root);
}

// ---- counters read around the traced pass -----------------------------------

struct CounterSnap {
  dsx::serve::BatcherStats batcher;
  dsx::net::IngressServer::Stats ingress;
  dsx::device::LogHistogram::BucketSnapshot queue_wait;
  int64_t pool_busy_ns = 0;
  unsigned pool_threads = 0;
  int64_t t_ns = 0;
};

CounterSnap snap(Stack& stack) {
  CounterSnap s;
  s.batcher = stack.server->stats(kModelName).batcher;
  s.ingress = stack.ingress->stats();
  s.queue_wait = dsx::obs::Registry::global().merged_histogram(
      "dsx_serve_queue_wait_us", {{"model", kModelName}});
  for (const auto& p : dsx::device::ThreadPool::pool_stats()) {
    if (p.name == "global") {
      s.pool_busy_ns = p.busy_ns;
      s.pool_threads = p.threads;
    }
  }
  s.t_ns = now_ns();
  return s;
}

void report_counters(const CounterSnap& a, const CounterSnap& b,
                     Report& report) {
  const double requests =
      static_cast<double>(b.batcher.requests - a.batcher.requests);
  const double batches = static_cast<double>(b.batcher.batches - a.batcher.batches);
  const double avg = batches > 0 ? requests / batches : 0.0;
  report.layer("net.frames", static_cast<double>(b.ingress.frames - a.ingress.frames),
               "count");
  report.layer("net.replies",
               static_cast<double>(b.ingress.replies - a.ingress.replies), "count");
  const auto qw = dsx::device::LogHistogram::delta_snapshot(b.queue_wait, a.queue_wait);
  report.layer("serve.queue_wait_ms", qw.p50 / 1e3, "ms", qw.count);
  report.layer("serve.avg_batch", avg, "count");
  report.layer("serve.batch_fill", avg / static_cast<double>(kMaxBatch), "ratio");
  report.layer("serve.batches", batches, "count");
  const double busy_ms = static_cast<double>(b.pool_busy_ns - a.pool_busy_ns) / 1e6;
  report.layer("device.pool_busy_ms", requests > 0 ? busy_ms / requests : 0.0,
               "ms");
  const double wall_ms = ms_between(a.t_ns, b.t_ns);
  report.layer("device.pool_utilization",
               b.pool_threads > 0 ? busy_ms / (wall_ms * b.pool_threads) : 0.0,
               "ratio");
}

void account(const Pass& p, const char* what, Report& report) {
  report.attempted += p.attempted;
  report.failed += p.failed;
  std::ostringstream os;
  os << what << ": attempted " << p.attempted << ", failed " << p.failed
     << " (" << p.store_fault << " only by the known store fault, " << p.wrong
     << " wrong otherwise), kOk in window " << p.ok_in_window << " over "
     << p.window_s << " s";
  if (!p.error.empty()) os << "; first error: " << p.error;
  report.notes.push_back(os.str());
}

/// Median with its tail, in words, for the human-readable report: the p99
/// is given only where at least ten samples lie beyond it.
std::string describe(const char* what, const std::vector<double>& v) {
  std::ostringstream os;
  os << what << ": n=" << v.size() << " p50=" << median(v);
  if (v.size() >= 1000) os << " p99=" << quantile(v, 0.99);
  return os.str();
}

}  // namespace

void run_serve_paced(const Options& opts, Report& report) {
  check_scc_forward(report);
  check_scc_backward(report);

  // Inputs and the independent references (not part of set-up time). The
  // deployed model carries BatchNorm running statistics from a calibration
  // set; the checker's second model is the same one as the builder makes
  // it, with the initial statistics that a ModelStore load gives back.
  const std::vector<Tensor> images = make_images(kDistinctImages, opts.seed);
  auto model = dsx::deploy::build_architecture(model_spec());
  calibrate_batchnorm(*model);
  ReplyChecker checker(*model, *dsx::deploy::build_architecture(model_spec()),
                       images);
  dsx::deploy::ModelStore store(run_dir() + "/store");
  store.save_version(kModelName, kVersion, *model, model_spec());
  model.reset();

  SetupSamples setup;
  Stack stack;
  for (int trial = 0; trial <= kSetupTrials / 2; ++trial) {
    stack.stop();
    set_up_stack(store, stack, setup);
  }

  if (opts.trace) {
    // Parts of the store load, timed on their own, and the plan probes -
    // while the stack is idle, so nothing else launches on the pool.
    std::vector<double> build_ms, compile_ms;
    std::unique_ptr<dsx::serve::CompiledModel> plan;
    for (int trial = 0; trial < kSetupTrials; ++trial) {
      int64_t a = now_ns();
      auto net = dsx::deploy::build_architecture(model_spec());
      int64_t b = now_ns();
      build_ms.push_back(ms_between(a, b));
      tracer().add("setup.build", a, b);
      a = now_ns();
      plan = std::make_unique<dsx::serve::CompiledModel>(
          std::move(net), model_spec().image_shape(),
          dsx::serve::CompileOptions{.max_batch = kMaxBatch});
      b = now_ns();
      compile_ms.push_back(ms_between(a, b));
      tracer().add("setup.compile", a, b);
    }
    report.layer("setup.build_ms", median(build_ms), "ms", kSetupTrials);
    report.layer("setup.compile_ms", median(compile_ms), "ms", kSetupTrials);
    probe_plan(*plan, images, report);
  }

  // A traced run splits its time between the untraced and traced passes.
  const Traffic traffic{.port = stack.ingress->port(),
                        .images = &images,
                        .checker = &checker,
                        .seconds = opts.trace ? opts.seconds / 2 : opts.seconds};
  const Schedule schedule =
      make_schedule(opts.seed, traffic.seconds, images.size());
  int64_t wrong = 0, store_fault = 0, replies = 0;
  auto tally = [&](const Pass& p, const char* what) {
    account(p, what, report);
    wrong += p.wrong;
    store_fault += p.store_fault;
    replies += p.attempted;
  };

  const Pass plain = paced_wire_pass(traffic, schedule);
  tally(plain, "wire pass (untraced)");
  const double p50 = median(plain.latency_ms);
  report.e2e("items_per_s",
             static_cast<double>(plain.ok_in_window) / plain.window_s,
             "items/s", plain.ok_in_window);
  report.e2e("latency_p50_ms", p50, "ms",
             static_cast<int64_t>(plain.latency_ms.size()));
  report.notes.push_back(describe("round trip ms", plain.latency_ms));
  report.notes.push_back(describe("generator lateness ms", plain.late_ms));

  if (opts.trace) {
    tracer().enable(true);
    dsx::device::set_pool_accounting(true);
    const CounterSnap before = snap(stack);
    const Pass traced = paced_wire_pass(traffic, schedule);
    const CounterSnap after = snap(stack);
    dsx::device::set_pool_accounting(false);
    tally(traced, "traced pass");
    report_counters(before, after, report);
    report.layer("net.send_us", median(traced.send_us), "us",
                 static_cast<int64_t>(traced.send_us.size()));
    report.layer("net.recv_wait_ms", median(traced.recv_wait_ms), "ms",
                 static_cast<int64_t>(traced.recv_wait_ms.size()));
    report.layer("trace.overhead_pct",
                 100.0 * (median(traced.latency_ms) - p50) / p50, "%",
                 static_cast<int64_t>(traced.latency_ms.size()));
    report.layer("load.late_ms", quantile(traced.late_ms, 0.99), "ms",
                 static_cast<int64_t>(traced.late_ms.size()));
    const Pass inproc = paced_inproc_pass(*stack.server, traffic, schedule);
    tally(inproc, "in-process pass at the same arrivals (traced)");
    report.layer("serve.submit_us", median(inproc.send_us), "us",
                 static_cast<int64_t>(inproc.send_us.size()));
    report.layer("net.wire_tax_ms",
                 median(traced.latency_ms) - median(inproc.latency_ms), "ms",
                 static_cast<int64_t>(inproc.latency_ms.size()));
    tracer().enable(false);
  }
  while (static_cast<int>(setup.total_s.size()) < kSetupTrials) {
    stack.stop();
    set_up_stack(store, stack, setup);
  }
  stack.stop();
  report.e2e("setup_s", median(setup.total_s), "s", kSetupTrials);
  report.layer("setup.store_load_ms", median(setup.store_load_ms), "ms", kSetupTrials);
  report.layer("setup.register_ms", median(setup.register_ms), "ms", kSetupTrials);
  report.layer("setup.listen_ms", median(setup.listen_ms), "ms", kSetupTrials);

  std::ostringstream os;
  os << "every kOk reply within " << ReplyChecker::kAbsTol << " + "
     << ReplyChecker::kRelTol
     << " * |ref| of the unfolded channel-stack reference, or off it only by "
        "the known store fault, and repeats bit-identical: "
     << wrong << " of " << replies << " replies wrong otherwise";
  report.check(wrong == 0, os.str());
  std::ostringstream fault;
  fault << "known fault, counted as failed: a ModelStore round trip drops "
           "BatchNorm running statistics, so "
        << store_fault << " of " << replies
        << " replies are the uncalibrated model's logits (the statistics move "
           "every image's logits by at least "
        << checker.min_fault_gap() << "; largest error against the model "
        << checker.max_abs_error() << ")";
  report.notes.push_back(fault.str());
}

double gemm_peak_gflops() {
  constexpr int64_t kN = 256;
  dsx::Rng rng(3);
  const Tensor a = dsx::random_uniform(dsx::Shape{kN, kN}, rng, -1.0f, 1.0f);
  const Tensor b = dsx::random_uniform(dsx::Shape{kN, kN}, rng, -1.0f, 1.0f);
  Tensor c(dsx::Shape{kN, kN});
  const uint32_t span = tracer().begin("probe.gemm");
  const double ms = median_ms(3, 30, [&] {
    dsx::simd::gemm(false, false, kN, kN, kN, 1.0f, a.data(), kN, b.data(), kN,
                    0.0f, c.data(), kN);
  });
  tracer().end(span);
  return 2.0 * static_cast<double>(kN * kN * kN) / (ms * 1e6);
}

}  // namespace perfbench
