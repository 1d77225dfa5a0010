// spf_bench: the end-to-end benchmark program (see README.md beside it).
//
// One process runs one workload:
//
//   refactor-3d        warm SolverEngine refactor + 1-rhs solve, 7-pt 3D
//                      Laplacian 14^3 (numeric-kernel bound)
//   refactor-powernet  the same on a 20000-bus power network with 4 rhs
//                      (per-block overhead bound)
//   serve-mix          closed-loop SolverClient connections against an
//                      in-process SolverServer: 97% 1-rhs solves, 2% 8-rhs
//                      solves, 1% warm refactor submits, two tenants
//   dist-2rank         rt_cholesky_run over a 2-rank loopback fabric
//
// Engine threads and client connections number min(2, nproc), and
// dist-2rank runs two ranks: on a small shared host a workload that keeps
// every core busy measures its neighbours' load more than the program.
//
// The program calls only public layer entry points (make_plan,
// SolverEngine::factorize, Factorization::solve_batch, SolverServer,
// SolverClient, rt_cholesky_run), times them from outside, checks every
// answer, and prints one JSON document on stdout: a host stamp, operation
// counts, the end-to-end metrics and, with --trace FILE, the per-layer
// metrics from the layers' stats snapshots plus a chrome-trace file of
// bench-side spans around those calls.
//
//   spf_bench --workload NAME [--seed S] [--seconds T] [--setups K] [--trace FILE]
//   spf_bench --self-test     (the checkers must reject wrong answers)
//
// Exit status: 0 when every answer was correct, 1 on a wrong answer or a
// failed self-test, 2 on bad usage or an error that stopped the workload.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <latch>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/plan.hpp"
#include "engine/solver_engine.hpp"
#include "gen/grid.hpp"
#include "gen/grid3d.hpp"
#include "gen/powernet.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "numeric/simd.hpp"
#include "rt/loopback.hpp"
#include "rt/rt_cholesky.hpp"
#include "support/json.hpp"
#include "support/prng.hpp"

namespace {

using namespace spf;
using SteadyClock = std::chrono::steady_clock;
using TimePoint = SteadyClock::time_point;

constexpr double kResidualTol = 1e-10;
constexpr index_t kPlanProcs = 4;  // processors of the engines' mappings
constexpr index_t kDistRanks = 2;  // ranks (and mapping processors) of dist-2rank
constexpr index_t kMaxThreads = 2;  // engine threads and client connections
constexpr int kReadTimeoutMs = 30'000;

// Independent random streams drawn from one --seed.
enum Stream : std::uint64_t { kValues = 1, kRequests };

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  SplitMix64 g(seed * 0x9e3779b97f4a7c15ULL + stream);
  return g.next();
}

double ms_between(TimePoint a, TimePoint b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double seconds_between(TimePoint a, TimePoint b) {
  return std::chrono::duration<double>(b - a).count();
}

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

/// User + system CPU seconds of the whole process (every thread).
double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return seconds_of(ru.ru_utime) + seconds_of(ru.ru_stime);
}

/// CPU seconds of the calling thread.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Nearest-rank quantile q of `v` (0 for an empty sample).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double delta(std::uint64_t before, std::uint64_t after) {
  return static_cast<double>(after - before);
}

/// Copy `base`'s values into `m` and scale every diagonal entry by
/// 1 + 1e-3·u, u uniform in [0, 1): new numbers on the same pattern, still
/// SPD because the diagonal only grows.  The diagonal leads each column.
void perturb_diagonal(CscMatrix& m, const CscMatrix& base, SplitMix64& rng) {
  const auto src = base.values();
  auto dst = m.values_mutable();
  std::copy(src.begin(), src.end(), dst.begin());
  const auto cp = m.col_ptr();
  for (index_t j = 0; j < m.ncols(); ++j) {
    dst[static_cast<std::size_t>(cp[static_cast<std::size_t>(j)])] *=
        1.0 + 1e-3 * rng.uniform();
  }
}

std::vector<double> random_rhs(std::size_t len, SplitMix64& rng) {
  std::vector<double> b(len);
  for (double& v : b) v = rng.uniform() - 0.5;
  return b;
}

// --- Checkers --------------------------------------------------------------

/// Largest scaled residual ||A x - b||_inf / (||A||_inf ||x||_inf + ||b||_inf)
/// over `nrhs` column-major right-hand sides; +inf when the shapes differ.
double scaled_residual(const CscMatrix& lower, std::span<const double> x,
                       std::span<const double> b, index_t nrhs) {
  const auto n = static_cast<std::size_t>(lower.ncols());
  if (nrhs < 1 || x.size() != n * static_cast<std::size_t>(nrhs) || b.size() != x.size()) {
    return INFINITY;
  }
  std::vector<double> row_abs(n, 0.0);
  const auto cp = lower.col_ptr();
  const auto ri = lower.row_ind();
  const auto va = lower.values();
  for (std::size_t j = 0; j < n; ++j) {
    for (auto k = static_cast<std::size_t>(cp[j]); k < static_cast<std::size_t>(cp[j + 1]);
         ++k) {
      const auto i = static_cast<std::size_t>(ri[k]);
      row_abs[i] += std::abs(va[k]);
      if (i != j) row_abs[j] += std::abs(va[k]);
    }
  }
  const double a_norm = *std::max_element(row_abs.begin(), row_abs.end());
  double worst = 0.0;
  for (std::size_t c = 0; c < static_cast<std::size_t>(nrhs); ++c) {
    const auto xc = x.subspan(c * n, n);
    const auto bc = b.subspan(c * n, n);
    const std::vector<double> ax = symmetric_matvec(lower, xc);
    double r = 0.0, xn = 0.0, bn = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      r = std::max(r, std::abs(ax[i] - bc[i]));
      xn = std::max(xn, std::abs(xc[i]));
      bn = std::max(bn, std::abs(bc[i]));
    }
    const double s = r / (a_norm * xn + bn);
    if (!(s <= worst)) worst = s;  // a NaN residual sticks
  }
  return worst;
}

bool solution_ok(double residual) { return residual <= kResidualTol; }

count_t rt_volume(const rt::RtRunResult& run) {
  count_t v = 0;
  for (const rt::TransportStats& s : run.per_rank) v += s.volume_received();
  return v;
}

/// A distributed run is correct when its factor is bitwise the single-node
/// elementwise factor and the values it delivered equal the analytic
/// traffic of the mapping.
bool rt_run_ok(const rt::RtRunResult& run, std::span<const double> reference,
               count_t traffic) {
  const bool bitwise = run.values.size() == reference.size() &&
                       std::memcmp(run.values.data(), reference.data(),
                                   reference.size() * sizeof(double)) == 0;
  return bitwise && rt_volume(run) == traffic;
}

// --- Spans -----------------------------------------------------------------

/// Bench-side spans around public calls, kept in memory and written as a
/// chrome trace at exit.  Thread-safe.
class SpanLog {
 public:
  explicit SpanLog(std::string workload) : workload_(std::move(workload)) {}

  /// Record one finished call; returns its span id (ids start at 1; parent
  /// 0 means none).
  std::uint64_t add(const char* name, std::uint64_t op, std::uint64_t parent, int tid,
                    TimePoint start, TimePoint end) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back({name, spans_.size() + 1, parent, op, tid, start, end});
    return spans_.size();
  }

  [[nodiscard]] bool write_chrome(const std::string& path) const {
    std::ofstream os(path);
    os << std::setprecision(15);
    std::lock_guard<std::mutex> lk(mu_);
    {
      JsonWriter jw(os);
      jw.begin_object();
      jw.begin_array("traceEvents");
      for (const Span& s : spans_) {
        jw.begin_object();
        jw.field("name", s.name);
        jw.field("cat", "spf_bench");
        jw.field("ph", "X");
        jw.field("ts", micros(s.start));
        jw.field("dur", micros(s.end) - micros(s.start));
        jw.field("pid", 1);
        jw.field("tid", s.tid);
        jw.begin_object("args");
        jw.field("workload", workload_);
        jw.field("op", static_cast<long long>(s.op));
        jw.field("id", static_cast<long long>(s.id));
        jw.field("parent", static_cast<long long>(s.parent));
        jw.end();
        jw.end();
      }
      jw.end();
      jw.field("displayTimeUnit", "ms");
      jw.end();
    }
    os << "\n";
    return os.good();
  }

 private:
  struct Span {
    const char* name;
    std::uint64_t id, parent, op;
    int tid;
    TimePoint start, end;
  };
  [[nodiscard]] double micros(TimePoint t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  std::string workload_;
  TimePoint origin_ = SteadyClock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

std::uint64_t span(SpanLog* log, const char* name, std::uint64_t op, std::uint64_t parent,
                   int tid, TimePoint start, TimePoint end) {
  return log == nullptr ? 0 : log->add(name, op, parent, tid, start, end);
}

// --- Results ---------------------------------------------------------------

/// One timed loop.  `bench_cpu_s` is CPU the bench's own threads spent
/// outside the measured calls (making inputs, checking answers); it is
/// taken out of cpu_s for cpu_ms_per_op.
struct Phase {
  std::vector<double> step_ms;    ///< every timed operation
  std::vector<double> factor_ms;  ///< refactor-*: the factorize part of each step
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double bench_cpu_s = 0.0;

  void append(const Phase& o) {
    step_ms.insert(step_ms.end(), o.step_ms.begin(), o.step_ms.end());
    bench_cpu_s += o.bench_cpu_s;
  }
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Every per-layer metric, named after the src/ module that owns it.  A
// workload whose public calls do not reach a layer reports 0 there.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"order.seconds", "s"},
    {"symbolic.seconds", "s"},
    {"partition.seconds", "s"},
    {"schedule.seconds", "s"},
    {"exec.compile_seconds", "s"},
    {"partition.blocks", "count"},
    {"partition.deps", "count"},
    {"schedule.lambda", "ratio"},
    {"schedule.traffic", "count"},
    {"engine.hit_ratio", "ratio"},
    {"engine.lookup_ms", "ms"},
    {"engine.gather_ms", "ms"},
    {"engine.plan_mb", "MiB"},
    {"exec.numeric_ms", "ms"},
    {"exec.stolen_per_step", "count"},
    {"exec.contention_per_step", "count"},
    {"numeric.solve_ms", "ms"},
    {"numeric.residual_max", "ratio"},
    {"serve.wait_us", "us"},
    {"serve.exec_solve_us", "us"},
    {"serve.exec_factorize_ms", "ms"},
    {"serve.batch_width", "count"},
    {"serve.refused", "count"},
    {"net.request_us", "us"},
    {"net.dispatch_us", "us"},
    {"net.wire_us", "us"},
    {"net.bytes_per_request", "B"},
    {"net.errors", "count"},
    {"rt.messages", "count"},
    {"rt.wire_bytes", "B"},
    {"rt.volume", "count"},
    {"rt.bytes_per_value", "B"},
    {"rt.blocked_sends", "count"},
    {"rt.rank_imbalance", "ratio"},
    {"rt.exec_best_ms", "ms"},
    {"rt.speedup_vs_exec", "ratio"},
    {"proc.cpu_util", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int setups = 3;
  std::string trace_path;  ///< empty: untraced run
};

struct Report {
  std::vector<double> setup_s;
  count_t attempted = 0;
  count_t failed = 0;
  double residual_max = 0.0;
  index_t threads = 0;
  index_t connections = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;

  Report() {
    for (const auto& [name, unit] : kLayerMetrics) layer.push_back({name, 0.0, unit});
  }

  /// Count one checked answer.
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void check_residual(double r) {
    if (!(r <= residual_max)) residual_max = r;
    check(solution_ok(r));
  }
  void add(count_t attempts, count_t failures, double worst_residual) {
    attempted += attempts;
    failed += failures;
    if (!(worst_residual <= residual_max)) residual_max = worst_residual;
  }
  void set(const std::string& name, double value) {
    for (Metric& m : layer) {
      if (m.name == name) {
        m.value = std::isfinite(value) ? value : 0.0;
        return;
      }
    }
    throw std::logic_error("unknown per-layer metric " + name);
  }
};

/// Seconds of each timed loop: the whole budget untraced, or half for the
/// untraced and half for the traced loop.
double loop_seconds(const Args& args, const SpanLog* log) {
  return log == nullptr ? args.seconds : args.seconds / 2;
}

void end_to_end(Report& r, const Phase& p) {
  const auto ops = static_cast<double>(p.step_ms.size());
  r.e2e = {
      {"setup_s", quantile(r.setup_s, 0.5), "s"},
      {"step_p50_ms", quantile(p.step_ms, 0.50), "ms"},
      {"step_p90_ms", quantile(p.step_ms, 0.90), "ms"},
      {"ops_per_s", ratio(ops, p.wall_s), "1/s"},
      {"cpu_ms_per_op", ratio(1e3 * (p.cpu_s - p.bench_cpu_s), ops), "ms"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
}

/// Metrics every traced run reports, from its untraced and traced loops.
void trace_metrics(Report& r, const Phase& plain, const Phase& traced) {
  r.set("proc.cpu_util", ratio(traced.cpu_s - traced.bench_cpu_s, traced.wall_s));
  r.set("trace.overhead_frac",
        ratio(quantile(traced.step_ms, 0.5), quantile(plain.step_ms, 0.5)) - 1.0);
  r.set("numeric.residual_max", r.residual_max);
}

void add_timings(PlanTimings& acc, const PlanTimings& t) {
  acc.ordering_seconds += t.ordering_seconds;
  acc.symbolic_seconds += t.symbolic_seconds;
  acc.partition_seconds += t.partition_seconds;
  acc.schedule_seconds += t.schedule_seconds;
  acc.kernel_seconds += t.kernel_seconds;
}

/// Plan-stage seconds: `sum` over `builds` plan builds, reported per build.
void plan_metrics(Report& r, const PlanTimings& sum, int builds) {
  const double d = std::max(builds, 1);
  r.set("order.seconds", sum.ordering_seconds / d);
  r.set("symbolic.seconds", sum.symbolic_seconds / d);
  r.set("partition.seconds", sum.partition_seconds / d);
  r.set("schedule.seconds", sum.schedule_seconds / d);
  r.set("exec.compile_seconds", sum.kernel_seconds / d);
}

/// Partition and schedule counts, summed over `maps` (λ: the largest).
void mapping_metrics(Report& r, const std::vector<const Mapping*>& maps) {
  double blocks = 0.0, deps = 0.0, traffic = 0.0, lambda = 0.0;
  for (const Mapping* m : maps) {
    const MappingReport rep = m->report();
    blocks += static_cast<double>(m->partition.num_blocks());
    deps += static_cast<double>(m->deps.num_edges());
    traffic += static_cast<double>(rep.total_traffic);
    lambda = std::max(lambda, rep.lambda);
  }
  r.set("partition.blocks", blocks);
  r.set("partition.deps", deps);
  r.set("schedule.traffic", traffic);
  r.set("schedule.lambda", lambda);
}

/// Engine and exec metrics over the calls between snapshots a and b;
/// `factorize_ms` is the bench-timed mean of those factorize calls.
void engine_metrics(Report& r, const EngineStats& a, const EngineStats& b,
                    double factorize_ms) {
  const double nf = delta(a.factorizations, b.factorizations);
  const double gather_ms = ratio(1e3 * (b.gather_seconds - a.gather_seconds), nf);
  const double numeric_ms = ratio(1e3 * (b.numeric_seconds - a.numeric_seconds), nf);
  r.set("engine.hit_ratio",
        ratio(delta(a.cache_hits, b.cache_hits), delta(a.requests, b.requests)));
  r.set("engine.lookup_ms", factorize_ms - gather_ms - numeric_ms);
  r.set("engine.gather_ms", gather_ms);
  r.set("engine.plan_mb", static_cast<double>(b.cache.bytes) / (1 << 20));
  r.set("exec.numeric_ms", numeric_ms);
  r.set("exec.stolen_per_step", ratio(delta(a.blocks_stolen, b.blocks_stolen), nf));
  r.set("exec.contention_per_step", ratio(delta(a.queue_contention, b.queue_contention), nf));
  if (b.solves > a.solves) {
    r.set("numeric.solve_ms",
          ratio(1e3 * (b.solve_seconds - a.solve_seconds), delta(a.solves, b.solves)));
  }
}

// --- refactor-3d / refactor-powernet ---------------------------------------

/// The 20000-bus network.  Its topology is fixed rather than drawn from
/// --seed, so the plan's counts (blocks, dependencies, traffic) repeat
/// exactly across seeds and can be compared run to run.
CscMatrix power_network_20k() {
  PowerNetOptions o;
  o.n = 20000;
  o.extra_edges = 5000;
  o.backbone = 256;
  o.backbone_edges = 800;
  o.seed = 20000;
  return power_network(o);
}

struct Refactor {
  Report& report;
  SolverEngine& engine;
  const CscMatrix& base;
  index_t nrhs;
  CscMatrix current;
  SplitMix64 rng;
  std::uint64_t op = 0;

  /// One closed-loop step: factorize new values, solve nrhs right-hand
  /// sides, check the answer.
  void step(Phase* p, SpanLog* log) {
    const double c0 = thread_cpu_seconds();
    perturb_diagonal(current, base, rng);
    const std::vector<double> b =
        random_rhs(static_cast<std::size_t>(base.ncols() * nrhs), rng);
    const double c1 = thread_cpu_seconds();
    const TimePoint t0 = SteadyClock::now();
    const Factorization f = engine.factorize(current);
    const TimePoint t1 = SteadyClock::now();
    const std::vector<double> x = f.solve_batch(b, nrhs);
    const TimePoint t2 = SteadyClock::now();
    const double c2 = thread_cpu_seconds();
    ++op;
    const std::uint64_t fid = span(log, "engine.factorize", op, 0, 0, t0, t1);
    span(log, "factorization.solve_batch", op, fid, 0, t1, t2);
    report.check_residual(scaled_residual(current, x, b, nrhs));
    if (p != nullptr) {
      p->step_ms.push_back(ms_between(t0, t2));
      p->factor_ms.push_back(ms_between(t0, t1));
      p->bench_cpu_s += (c1 - c0) + (thread_cpu_seconds() - c2);
    }
  }

  Phase loop(double seconds, SpanLog* log) {
    Phase p;
    const double cpu0 = process_cpu_seconds();
    const TimePoint start = SteadyClock::now();
    const auto deadline = start + std::chrono::duration<double>(seconds);
    while (SteadyClock::now() < deadline) step(&p, log);
    p.wall_s = seconds_between(start, SteadyClock::now());
    p.cpu_s = process_cpu_seconds() - cpu0;
    return p;
  }
};

void run_refactor(const Args& args, Report& r, SpanLog* log, bool three_d) {
  const CscMatrix base = three_d ? grid_laplacian_7pt_3d(14, 14, 14)
                                 : power_network_20k();
  SolverEngineConfig cfg;
  cfg.plan.nprocs = kPlanProcs;
  cfg.nthreads = r.threads;

  // Set-up: the first, cold factorize on a fresh engine.
  std::unique_ptr<SolverEngine> engine;
  std::shared_ptr<const Plan> plan;
  PlanTimings timings;
  for (int k = 0; k < args.setups; ++k) {
    plan.reset();
    engine = std::make_unique<SolverEngine>(cfg);
    const TimePoint t0 = SteadyClock::now();
    const Factorization f = engine->factorize(base);
    const TimePoint t1 = SteadyClock::now();
    span(log, "engine.factorize", 0, 0, 0, t0, t1);
    r.setup_s.push_back(seconds_between(t0, t1));
    plan = f.plan_ptr();
    const EngineStats s = engine->stats();
    add_timings(timings, {s.ordering_seconds, s.symbolic_seconds, s.partition_seconds,
                          s.schedule_seconds, s.kernel_compile_seconds});
  }

  Refactor w{r, *engine, base, three_d ? 1 : 4, base,
             SplitMix64(derive_seed(args.seed, kValues))};
  w.step(nullptr, nullptr);  // untimed warm step

  const Phase plain = w.loop(loop_seconds(args, log), nullptr);
  end_to_end(r, plain);
  if (log == nullptr) return;

  const EngineStats before = engine->stats();
  const Phase traced = w.loop(loop_seconds(args, log), log);
  const EngineStats after = engine->stats();
  trace_metrics(r, plain, traced);
  plan_metrics(r, timings, args.setups);
  mapping_metrics(r, {&plan->mapping});
  engine_metrics(r, before, after, mean(traced.factor_ms));
}

// --- serve-mix -------------------------------------------------------------

constexpr const char* kTenants[] = {"grid", "power"};

struct ServeInputs {
  CscMatrix grid;   // 9-pt 60x60, tenant "grid"
  CscMatrix power;  // the n = 20000 network, tenant "power"
  [[nodiscard]] const CscMatrix& of(int tenant) const { return tenant == 0 ? grid : power; }
};

net::SolverClientOptions client_options(std::uint16_t port, const char* tenant) {
  net::SolverClientOptions o;
  o.port = port;
  o.tenant = tenant;
  o.read_timeout_ms = kReadTimeoutMs;
  return o;
}

/// What one closed-loop connection saw.
struct Connection {
  Phase phase;
  count_t attempted = 0, failed = 0;
  double residual_max = 0.0;
  TimePoint end;
  count_t submits = 0, warm_submits = 0;
  double ack_numeric_s = 0.0;     ///< submit acks: numeric seconds
  double ack_plan_s = 0.0;        ///< submit acks: plan seconds
  count_t solves = 0;
  double ack_solve_exec_s = 0.0;  ///< solve acks: execution seconds
  std::string error;

  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// One connection's closed loop: a seeded mix of 97% 1-rhs solves, 2% 8-rhs
/// solves and 1% warm refactor submits (later solves use the new handle).
void serve_connection(int c, std::uint16_t port, const ServeInputs& in, std::uint64_t seed,
                      std::latch& ready, std::latch& go, const TimePoint& deadline,
                      SpanLog* log, Connection& out) {
  const int tenant = c % 2;
  const CscMatrix& base = in.of(tenant);
  const auto n = static_cast<std::uint32_t>(base.ncols());
  SplitMix64 rng(seed);
  CscMatrix current = base, next = base;
  std::uint64_t handle = 0, handle_span = 0, op = 0;
  bool arrived = false;
  try {
    net::SolverClient client(client_options(port, kTenants[tenant]));
    // Untimed warm operation: this connection's own values, then a solve.
    perturb_diagonal(current, base, rng);
    const net::SubmitMatrixAckMsg first = client.submit_matrix(current);
    out.check(first.status == static_cast<std::uint8_t>(ServeStatus::kOk));
    handle = first.handle;
    const std::vector<double> b0 = random_rhs(n, rng);
    const net::SolveAckMsg s0 = client.solve(handle, b0, n, 1);
    out.check(s0.status == static_cast<std::uint8_t>(ServeStatus::kOk) &&
              solution_ok(scaled_residual(current, s0.x, b0, 1)));
    ready.count_down();
    arrived = true;
    go.wait();

    while (SteadyClock::now() < deadline) {
      const double c0 = thread_cpu_seconds();
      const std::uint64_t kind = rng.below(100);
      const bool submit = kind >= 99;
      const std::uint32_t nrhs = kind < 97 ? 1 : 8;
      std::vector<double> b;
      if (submit) {
        perturb_diagonal(next, base, rng);
      } else {
        b = random_rhs(std::size_t{n} * nrhs, rng);
      }
      const double c1 = thread_cpu_seconds();
      const TimePoint t0 = SteadyClock::now();
      net::SubmitMatrixAckMsg sub;
      net::SolveAckMsg sol;
      if (submit) {
        sub = client.submit_matrix(next);
      } else {
        sol = client.solve(handle, b, n, nrhs);
      }
      const TimePoint t1 = SteadyClock::now();
      const double c2 = thread_cpu_seconds();
      ++op;
      out.phase.step_ms.push_back(ms_between(t0, t1));
      if (submit) {
        const std::uint64_t sid = span(log, "client.submit_matrix", op, 0, c, t0, t1);
        ++out.submits;
        const bool ok = sub.status == static_cast<std::uint8_t>(ServeStatus::kOk);
        out.check(ok);
        if (ok) {
          std::swap(current, next);
          handle = sub.handle;
          handle_span = sid;
          out.warm_submits += sub.warm;
          out.ack_numeric_s += sub.numeric_seconds;
          out.ack_plan_s += sub.plan_seconds;
        }
      } else {
        span(log, "client.solve", op, handle_span, c, t0, t1);
        ++out.solves;
        out.ack_solve_exec_s += sol.exec_seconds;
        const double res = sol.status == static_cast<std::uint8_t>(ServeStatus::kOk)
                               ? scaled_residual(current, sol.x, b, nrhs)
                               : INFINITY;
        if (std::isfinite(res) && res > out.residual_max) out.residual_max = res;
        out.check(solution_ok(res));
      }
      out.phase.bench_cpu_s += (c1 - c0) + (thread_cpu_seconds() - c2);
    }
    out.end = SteadyClock::now();
    client.bye();
  } catch (const std::exception& e) {
    out.check(false);
    out.error = e.what();
    out.end = SteadyClock::now();
  }
  if (!arrived) {
    ready.count_down();
    go.wait();
  }
}

struct ServeSnapshot {
  ServeStats serve;  ///< summed over both tenants' shards
  obs::MetricsSnapshot net;
};

ServeSnapshot serve_snapshot(const net::SolverServer& server) {
  ServeSnapshot s;
  for (const char* t : kTenants) {
    for (const ServeStats& x : server.tenant_stats(t)) {
      s.serve.submitted += x.submitted;
      s.serve.rejected_depth += x.rejected_depth;
      s.serve.rejected_work += x.rejected_work;
      s.serve.rejected_shutdown += x.rejected_shutdown;
      s.serve.timed_out += x.timed_out;
      s.serve.shed += x.shed;
      s.serve.failed += x.failed;
      s.serve.factorizations += x.factorizations;
      s.serve.batches_formed += x.batches_formed;
      s.serve.rhs_coalesced += x.rhs_coalesced;
      s.serve.factorize_exec_seconds += x.factorize_exec_seconds;
      s.serve.solve_exec_seconds += x.solve_exec_seconds;
      for (int p = 0; p < kNumPriorities; ++p) {
        const auto i = static_cast<std::size_t>(p);
        s.serve.completed_by_priority[i] += x.completed_by_priority[i];
        s.serve.latency_seconds_by_priority[i] += x.latency_seconds_by_priority[i];
      }
    }
  }
  s.net = server.counters().snapshot();
  return s;
}

struct ServeLoop {
  Phase phase;
  std::vector<Connection> conns;
  ServeSnapshot before, after;  ///< server stats around the timed window
};

ServeLoop serve_loop(const net::SolverServer& server, const ServeInputs& in, const Args& args,
                     index_t connections, std::uint64_t round, double seconds, SpanLog* log) {
  ServeLoop out;
  out.conns.resize(static_cast<std::size_t>(connections));
  std::latch ready(connections);
  std::latch go(1);
  TimePoint start, deadline;
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    const std::uint64_t seed = derive_seed(args.seed, kRequests + 16 * round + c);
    threads.emplace_back(serve_connection, c, server.port(), std::cref(in), seed,
                         std::ref(ready), std::ref(go), std::cref(deadline), log,
                         std::ref(out.conns[static_cast<std::size_t>(c)]));
  }
  ready.wait();
  out.before = serve_snapshot(server);
  const double cpu0 = process_cpu_seconds();
  start = SteadyClock::now();
  deadline = start + std::chrono::duration_cast<SteadyClock::duration>(
                         std::chrono::duration<double>(seconds));
  go.count_down();
  for (std::thread& t : threads) t.join();
  out.phase.cpu_s = process_cpu_seconds() - cpu0;
  out.after = serve_snapshot(server);
  TimePoint end = start;
  for (const Connection& c : out.conns) {
    out.phase.append(c.phase);
    end = std::max(end, c.end);
    if (!c.error.empty()) std::cerr << "spf_bench: connection error: " << c.error << "\n";
  }
  out.phase.wall_s = seconds_between(start, end);
  return out;
}

void run_serve(const Args& args, Report& r, SpanLog* log) {
  const ServeInputs in{grid_laplacian_9pt(60, 60), power_network_20k()};
  net::SolverServerConfig cfg;
  cfg.engine.plan.nprocs = kPlanProcs;
  cfg.engine.nthreads = r.threads;

  // Set-up: server construction through both tenants' first cold submit.
  std::unique_ptr<net::SolverServer> server;
  for (int k = 0; k < args.setups; ++k) {
    server.reset();
    const TimePoint t0 = SteadyClock::now();
    server = std::make_unique<net::SolverServer>(cfg);
    server->start();
    const TimePoint t1 = SteadyClock::now();
    const std::uint64_t sid = span(log, "server.start", 0, 0, 0, t0, t1);
    std::vector<std::unique_ptr<net::SolverClient>> clients;
    TimePoint prev = t1;
    for (int t = 0; t < 2; ++t) {
      clients.push_back(std::make_unique<net::SolverClient>(
          client_options(server->port(), kTenants[t])));
      const net::SubmitMatrixAckMsg ack = clients.back()->submit_matrix(in.of(t));
      const TimePoint now = SteadyClock::now();
      span(log, "client.submit_matrix", 0, sid, 0, prev, now);
      prev = now;
      r.check(ack.status == static_cast<std::uint8_t>(ServeStatus::kOk) && ack.warm == 0);
    }
    r.setup_s.push_back(seconds_between(t0, prev));
    for (auto& c : clients) c->bye();
  }

  const auto absorb = [&](const ServeLoop& l) {
    for (const Connection& c : l.conns) r.add(c.attempted, c.failed, c.residual_max);
  };
  const ServeLoop plain =
      serve_loop(*server, in, args, r.connections, 0, loop_seconds(args, log), nullptr);
  absorb(plain);
  end_to_end(r, plain.phase);
  if (log == nullptr) return;

  const ServeLoop traced =
      serve_loop(*server, in, args, r.connections, 1, loop_seconds(args, log), log);
  const ServeSnapshot& a = traced.before;
  const ServeSnapshot& b = traced.after;
  absorb(traced);
  trace_metrics(r, plain.phase, traced.phase);

  Connection sum;
  for (const Connection& c : traced.conns) {
    sum.submits += c.submits;
    sum.warm_submits += c.warm_submits;
    sum.ack_numeric_s += c.ack_numeric_s;
    sum.ack_plan_s += c.ack_plan_s;
    sum.solves += c.solves;
    sum.ack_solve_exec_s += c.ack_solve_exec_s;
  }
  const auto requests = static_cast<double>(sum.submits + sum.solves);
  double completed = 0.0, latency_s = 0.0;
  for (std::size_t p = 0; p < kNumPriorities; ++p) {
    completed += delta(a.serve.completed_by_priority[p], b.serve.completed_by_priority[p]);
    latency_s +=
        b.serve.latency_seconds_by_priority[p] - a.serve.latency_seconds_by_priority[p];
  }
  const double serve_us = ratio(1e6 * latency_s, completed);
  const double exec_us =
      ratio(1e6 * (sum.ack_solve_exec_s + sum.ack_numeric_s + sum.ack_plan_s), requests);
  const double factorizations = delta(a.serve.factorizations, b.serve.factorizations);
  const double batches = delta(a.serve.batches_formed, b.serve.batches_formed);
  r.set("serve.wait_us", serve_us - exec_us);
  r.set("serve.exec_solve_us",
        ratio(1e6 * (b.serve.solve_exec_seconds - a.serve.solve_exec_seconds), batches));
  const double factorize_ms = ratio(
      1e3 * (b.serve.factorize_exec_seconds - a.serve.factorize_exec_seconds), factorizations);
  r.set("serve.exec_factorize_ms", factorize_ms);
  r.set("serve.batch_width",
        ratio(delta(a.serve.rhs_coalesced, b.serve.rhs_coalesced), batches));
  r.set("serve.refused",
        delta(a.serve.rejected_depth + a.serve.rejected_work + a.serve.rejected_shutdown +
                  a.serve.timed_out + a.serve.shed + a.serve.failed,
              b.serve.rejected_depth + b.serve.rejected_work + b.serve.rejected_shutdown +
                  b.serve.timed_out + b.serve.shed + b.serve.failed));

  const obs::HistogramSnapshot* ha = a.net.histogram("net.request_us");
  const obs::HistogramSnapshot* hb = b.net.histogram("net.request_us");
  const double request_us = (ha != nullptr && hb != nullptr)
                                ? ratio(delta(ha->sum, hb->sum), delta(ha->count, hb->count))
                                : 0.0;
  const auto net_delta = [&](const char* name) {
    return delta(a.net.counter(name), b.net.counter(name));
  };
  r.set("net.request_us", request_us);
  r.set("net.dispatch_us", request_us - serve_us);
  r.set("net.wire_us", 1e3 * mean(traced.phase.step_ms) - request_us);
  r.set("net.bytes_per_request", ratio(net_delta("net.bytes_rx") + net_delta("net.bytes_tx"),
                                       net_delta("net.frames_rx")));
  r.set("net.errors",
        net_delta("net.protocol_errors") + net_delta("net.errors_sent") +
            net_delta("net.write_failures") + net_delta("net.read_timeouts") +
            net_delta("net.write_timeouts") + net_delta("net.connections_refused"));

  // The engines sit behind the server; their numbers reach the client in
  // the submit and solve acks.
  const auto submits = static_cast<double>(sum.submits);
  const double numeric_ms = ratio(1e3 * sum.ack_numeric_s, submits);
  r.set("engine.hit_ratio", ratio(static_cast<double>(sum.warm_submits), submits));
  r.set("exec.numeric_ms", numeric_ms);
  r.set("numeric.solve_ms",
        ratio(1e3 * sum.ack_solve_exec_s, static_cast<double>(sum.solves)));

  // The server's plans, rebuilt bench-side with the same PlanConfig.
  PlanTimings timings;
  const Plan pg = make_plan(in.grid, cfg.engine.plan, &timings);
  const Plan pp = make_plan(in.power, cfg.engine.plan, &timings);
  plan_metrics(r, timings, 1);
  mapping_metrics(r, {&pg.mapping, &pp.mapping});
}

// --- dist-2rank ------------------------------------------------------------

/// Grain 32 rather than 8 halves the messages of a run, and with them the
/// times one rank sleeps until the other wakes it: each such wake-up costs
/// whatever the shared host makes it cost.
PlanConfig dist_plan_config() {
  PlanConfig pc;
  pc.nprocs = kDistRanks;
  pc.partition = PartitionOptions::with_grain(32);
  return pc;
}

rt::RtRunResult rt_run(rt::LoopbackFabric& fabric, const Plan& plan,
                       const CscMatrix& permuted) {
  std::vector<rt::Transport*> endpoints;
  for (index_t rank = 0; rank < fabric.nranks(); ++rank) {
    endpoints.push_back(&fabric.endpoint(rank));
  }
  rt::RtExecOptions opt;
  opt.row_structure = &plan.rows_of;
  return rt::rt_cholesky_run(endpoints, permuted, plan.mapping.partition, plan.mapping.deps,
                             plan.mapping.assignment, opt);
}

struct Dist {
  Report& report;
  const Plan& plan;
  const CscMatrix& permuted;
  std::span<const double> reference;
  count_t traffic;
  std::uint64_t plan_span = 0;
  std::uint64_t op = 0;
  rt::RtRunResult last{};
  count_t blocked_sends = 0;

  /// One distributed factorization on a fresh fabric, then the check.
  void step(Phase* p, SpanLog* log) {
    rt::LoopbackFabric fabric(kDistRanks);
    const TimePoint t0 = SteadyClock::now();
    rt::RtRunResult run = rt_run(fabric, plan, permuted);
    const TimePoint t1 = SteadyClock::now();
    const double mark = thread_cpu_seconds();
    span(log, "rt.rt_cholesky_run", ++op, plan_span, 0, t0, t1);
    report.check(rt_run_ok(run, reference, traffic));
    for (const rt::TransportStats& s : run.per_rank) blocked_sends += s.blocked_sends;
    last = std::move(run);
    if (p != nullptr) {
      p->step_ms.push_back(ms_between(t0, t1));
      p->bench_cpu_s += thread_cpu_seconds() - mark;
    }
  }

  Phase loop(double seconds, SpanLog* log) {
    Phase p;
    const double cpu0 = process_cpu_seconds();
    const TimePoint start = SteadyClock::now();
    const auto deadline = start + std::chrono::duration<double>(seconds);
    while (SteadyClock::now() < deadline) step(&p, log);
    p.wall_s = seconds_between(start, SteadyClock::now());
    p.cpu_s = process_cpu_seconds() - cpu0;
    return p;
  }
};

void run_dist(const Args& args, Report& r, SpanLog* log) {
  // Each rank builds the whole send plan, a hash set over the factor's
  // elements that is most of a run; at 40x40 it fits a core's own 2 MiB L2
  // on the recorded host, and a timed loop holds hundreds of runs.
  CscMatrix a = grid_laplacian_9pt(40, 40);
  {
    const CscMatrix base = a;
    SplitMix64 rng(derive_seed(args.seed, kValues));
    perturb_diagonal(a, base, rng);
  }
  const PlanConfig pc = dist_plan_config();

  // The single-node elementwise factor every distributed run must equal.
  SolverEngineConfig ecfg;
  ecfg.plan = pc;
  ecfg.nthreads = r.threads;
  SolverEngine reference_engine(ecfg);
  const Factorization reference = reference_engine.factorize(a);
  {
    SplitMix64 rng(derive_seed(args.seed, kRequests));
    const std::vector<double> b = random_rhs(static_cast<std::size_t>(a.ncols()), rng);
    r.check_residual(scaled_residual(a, reference.solve_batch(b, 1), b, 1));
  }

  // Set-up: make_plan plus the first distributed run.
  std::unique_ptr<Plan> plan;
  CscMatrix permuted;
  PlanTimings timings;
  count_t traffic = 0;
  std::uint64_t plan_span = 0;
  for (int k = 0; k < args.setups; ++k) {
    plan.reset();
    const TimePoint t0 = SteadyClock::now();
    PlanTimings t;
    plan = std::make_unique<Plan>(make_plan(a, pc, &t));
    const TimePoint t1 = SteadyClock::now();
    plan_span = span(log, "plan.make_plan", 0, 0, 0, t0, t1);
    permuted = plan->permuted_input(a.values());
    rt::LoopbackFabric fabric(kDistRanks);
    const rt::RtRunResult first = rt_run(fabric, *plan, permuted);
    const TimePoint t2 = SteadyClock::now();
    span(log, "rt.rt_cholesky_run", 0, plan_span, 0, t1, t2);
    r.setup_s.push_back(seconds_between(t0, t2));
    add_timings(timings, t);
    traffic = plan->mapping.report().total_traffic;
    r.check(rt_run_ok(first, reference.values(), traffic));
  }

  Dist w{r, *plan, permuted, reference.values(), traffic, plan_span};
  w.step(nullptr, nullptr);  // untimed warm run

  const Phase plain = w.loop(loop_seconds(args, log), nullptr);
  end_to_end(r, plain);
  if (log == nullptr) return;

  w.blocked_sends = 0;
  const Phase traced = w.loop(loop_seconds(args, log), log);
  trace_metrics(r, plain, traced);
  plan_metrics(r, timings, args.setups);
  mapping_metrics(r, {&plan->mapping});

  const auto runs = static_cast<double>(traced.step_ms.size());
  double messages = 0.0, wire = 0.0, recv_bytes = 0.0, max_volume = 0.0;
  for (const rt::TransportStats& s : w.last.per_rank) {
    messages += static_cast<double>(s.messages_received);
    wire += static_cast<double>(s.bytes_sent);
    for (count_t v : s.recv_bytes) recv_bytes += static_cast<double>(v);
    max_volume = std::max(max_volume, static_cast<double>(s.volume_received()));
  }
  const auto volume = static_cast<double>(rt_volume(w.last));
  const double mean_volume = volume / static_cast<double>(w.last.per_rank.size());
  r.set("rt.messages", messages);
  r.set("rt.wire_bytes", wire);
  r.set("rt.volume", volume);
  r.set("rt.bytes_per_value", ratio(recv_bytes, volume));
  r.set("rt.blocked_sends", ratio(static_cast<double>(w.blocked_sends), runs));
  r.set("rt.rank_imbalance", ratio(max_volume, mean_volume) - 1.0);

  // The best single-node path: exec's blocked kernel on the same plan and
  // thread budget.  Its engine counters fill the engine/exec layer rows.
  SolverEngineConfig bcfg = ecfg;
  bcfg.kernel = ExecKernel::kBlocked;
  SolverEngine blocked(bcfg);
  (void)blocked.factorize(a);
  const EngineStats before = blocked.stats();
  std::vector<double> exec_ms;
  for (int k = 0; k < 10; ++k) {
    const TimePoint t0 = SteadyClock::now();
    const Factorization f = blocked.factorize(a);
    exec_ms.push_back(ms_between(t0, SteadyClock::now()));
    if (k == 0) {
      SplitMix64 rng(derive_seed(args.seed, kRequests));
      const std::vector<double> b = random_rhs(static_cast<std::size_t>(a.ncols()), rng);
      r.check_residual(scaled_residual(a, f.solve_batch(b, 1), b, 1));
    }
  }
  engine_metrics(r, before, blocked.stats(), mean(exec_ms));
  const double best = *std::min_element(exec_ms.begin(), exec_ms.end());
  r.set("rt.exec_best_ms", best);
  r.set("rt.speedup_vs_exec", ratio(best, quantile(plain.step_ms, 0.5)));
  r.set("numeric.residual_max", r.residual_max);
}

// --- Self-test of the checkers ---------------------------------------------

/// The checkers must accept right answers and reject a solution perturbed
/// by one part in a million and an rt volume off by one.
int self_test() {
  const CscMatrix a = grid_laplacian_9pt(12, 12);
  const PlanConfig pc = dist_plan_config();
  SolverEngineConfig cfg;
  cfg.plan = pc;
  cfg.nthreads = 1;
  SolverEngine engine(cfg);
  const Factorization f = engine.factorize(a);
  SplitMix64 rng(1);
  const std::vector<double> b = random_rhs(static_cast<std::size_t>(a.ncols()), rng);
  std::vector<double> x = f.solve_batch(b, 1);
  const bool good_solution = solution_ok(scaled_residual(a, x, b, 1));
  x[x.size() / 2] *= 1.0 + 1e-6;
  const bool bad_solution = solution_ok(scaled_residual(a, x, b, 1));

  const Plan plan = make_plan(a, pc);
  const count_t traffic = plan.mapping.report().total_traffic;
  rt::LoopbackFabric fabric(kDistRanks);
  rt::RtRunResult run = rt_run(fabric, plan, plan.permuted_input(a.values()));
  const bool good_run = rt_run_ok(run, f.values(), traffic);
  run.per_rank.back().recv_volume.front() += 1;
  const bool bad_run = rt_run_ok(run, f.values(), traffic);

  std::cout << "correct solution accepted: " << good_solution
            << "\nperturbed solution rejected: " << !bad_solution
            << "\ncorrect rt run accepted: " << good_run
            << "\nrt volume off by one rejected: " << !bad_run << "\n";
  return good_solution && !bad_solution && good_run && !bad_run ? 0 : 1;
}

// --- Output ----------------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

void write_metrics(JsonWriter& jw, const char* key, const std::vector<Metric>& metrics) {
  jw.begin_object(key);
  for (const Metric& m : metrics) {
    jw.begin_object(m.name);
    jw.field("value", m.value);
    jw.field("unit", m.unit);
    jw.end();
  }
  jw.end();
}

void print_report(const Args& args, const Report& r, index_t nproc) {
  std::cout << std::setprecision(17);
  JsonWriter jw(std::cout);
  jw.begin_object();
  jw.field("workload", args.workload);
  jw.begin_object("host");
  jw.field("nproc", static_cast<long long>(nproc));
  jw.field("cpu_model", cpu_model());
  jw.field("simd_tier", simd_tier_name(active_simd_tier()));
  jw.field("compiler", SPF_E2E_COMPILER);
  jw.field("build_type", SPF_E2E_BUILD_TYPE);
  jw.field("commit", SPF_E2E_COMMIT);
  jw.field("threads", static_cast<long long>(r.threads));
  jw.field("connections", static_cast<long long>(r.connections));
  jw.field("seed", static_cast<long long>(args.seed));
  jw.end();
  jw.field("seconds", args.seconds);
  jw.field("setups", args.setups);
  jw.field("attempted", static_cast<long long>(r.attempted));
  jw.field("failed", static_cast<long long>(r.failed));
  jw.field("correct", r.failed == 0 && r.attempted > 0);
  write_metrics(jw, "end_to_end", r.e2e);
  if (!args.trace_path.empty()) write_metrics(jw, "per_layer", r.layer);
  jw.end();
  std::cout << std::endl;
}

int usage() {
  std::cerr
      << "usage: spf_bench --workload refactor-3d|refactor-powernet|serve-mix|dist-2rank\n"
         "                 [--seed S] [--seconds T] [--setups K] [--trace FILE]\n"
         "       spf_bench --self-test\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--self-test") return self_test();
    if (!has_value) return usage();
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--setups") {
        args.setups = std::stoi(value);
      } else if (flag == "--trace") {
        args.trace_path = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (!(args.seconds > 0.0) || args.setups < 1) return usage();

  const auto nproc = static_cast<index_t>(std::max(1u, std::thread::hardware_concurrency()));
  Report r;
  r.threads = std::min(kMaxThreads, nproc);
  std::unique_ptr<SpanLog> log;
  if (!args.trace_path.empty()) log = std::make_unique<SpanLog>(args.workload);
  try {
    if (args.workload == "refactor-3d" || args.workload == "refactor-powernet") {
      run_refactor(args, r, log.get(), args.workload == "refactor-3d");
    } else if (args.workload == "serve-mix") {
      r.connections = r.threads;
      run_serve(args, r, log.get());
    } else if (args.workload == "dist-2rank") {
      run_dist(args, r, log.get());
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "spf_bench: " << args.workload << ": " << e.what() << "\n";
    return 2;
  }
  if (log != nullptr && !log->write_chrome(args.trace_path)) {
    std::cerr << "spf_bench: cannot write " << args.trace_path << "\n";
    return 2;
  }
  print_report(args, r, nproc);
  return r.failed == 0 ? 0 : 1;
}
