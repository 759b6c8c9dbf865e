// The repository's benchmark: runs one named workload of the chunk-cache
// middle tier with a given seed, checks the answers against the no-cache
// backend, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer ledger) as the last line of stdout, one JSON object.
//
//   perfbench --workload <q80-2client|hot-served> --seed <n>
//             --seconds <s> --trace <0|1>
//   perfbench --workload <name> --seed <n> --hash-only
//
// README.md in this directory gives the reason for each workload and the
// layer-to-metric table. Everything here drives public APIs only; every
// layer is measured from outside the program.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/common/experiment.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/chunk_cache_manager.h"
#include "core/query_cache_manager.h"
#include "ledger.h"
#include "schema/synthetic.h"
#include "server/client.h"
#include "server/server.h"
#include "workload/query_generator.h"
#include "workload/session_generator.h"

namespace chunkcache::perfbench {
namespace {

using backend::ResultRow;
using backend::StarJoinQuery;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Fixed workload parameters (the paper's Section 6.1.1 setting).

constexpr uint64_t kTuples = 500000;
constexpr uint64_t kCacheBytes = 30ull << 20;
/// Timing starts only once the q80 cache is this full, so every measured
/// query runs against a cache that must evict to admit.
constexpr double kMinWarmFill = 0.95;
/// Warm-up stream cap; the cache fills after ~600 such queries.
constexpr size_t kWarmStreamLength = 5000;
/// Measured stream length; replayed from its start if a run exhausts it.
constexpr size_t kMeasuredStreamLength = 40000;
/// Reference answers: measured-stream (or hot-pool) indices 0, stride, ...
constexpr size_t kRefSamples = 32;
constexpr size_t kQ80RefStride = 25;
constexpr size_t kHotRefStride = 32;
/// Hot pool: a fixed set of hot-region queries (generator defaults
/// otherwise) whose chunks fit the cache, drawn once from kHotPoolSeed; the
/// run's seed selects the order in which they are replayed. The pool's
/// widest queries set its p99, so a pool drawn per seed would make p99 a
/// property of the seed rather than of the program.
constexpr size_t kHotPoolSize = 1024;
constexpr uint64_t kHotPoolSeed = 1;
constexpr uint32_t kServerWorkers = 2;
/// Requests the served client keeps in flight (at most kServerWorkers).
constexpr uint32_t kServedInflight = 2;
/// Traces retained in the traced phase. Both halves of a traced run stop
/// at this many queries, so every measured query's trace is read back and
/// the two halves' qps compare like with like.
constexpr size_t kTraceCapacity = 16384;
/// A traced run fails if more than this share of core.execute_ns falls
/// outside the manager's root span.
constexpr double kMaxUnattributedShare = 0.25;
/// Set-ups per run: setup_s is their median, and each measures an equal
/// share of --seconds.
constexpr int kSetupRepeats = 5;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stdout);
  std::exit(1);
}

void Require(bool ok, const std::string& guard) {
  if (!ok) Fail("guard failed: " + guard);
}

template <typename T>
T Unwrap(Result<T> r, const char* what) {
  if (!r.ok()) Fail(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

/// CPUs the process may run on (what `nproc` prints).
unsigned Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  return static_cast<unsigned>(CPU_COUNT(&set));
}

/// Milliseconds a fixed single-threaded loop takes: printed before each
/// share, so that a share the host slowed shows in the output.
double HostProbeMs() {
  const Clock::time_point t0 = Clock::now();
  uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < (1 << 22); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double ms = 1e3 * Seconds(t0, Clock::now());
  // Keeps the loop from being optimized away; never true in practice.
  if (x == 0) std::printf("# host probe degenerate\n");
  return ms;
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Workloads.

struct Workload {
  const char* name;
  uint32_t clients;      ///< Client threads.
  uint32_t num_workers;  ///< Manager thread pool (1 = serial path).
  uint32_t shards;
  bool served;           ///< Hot pool over loopback, compressed cache.
};

constexpr Workload kWorkloads[] = {
    {"q80-2client", 2, 2, 4, false},
    {"hot-served", 1, 1, 1, true},
};

/// Threads the workload runs at once: clients, the manager's pool (none
/// when serial) and, when served, the server's I/O thread and workers.
uint32_t ThreadCount(const Workload& w) {
  return w.clients + (w.num_workers > 1 ? w.num_workers : 0) +
         (w.served ? 1 + kServerWorkers : 0);
}

core::ChunkManagerOptions ManagerOptions(const Workload& w, bool traced,
                                         MetricsRegistry* metrics) {
  core::ChunkManagerOptions o;
  o.cache_bytes = kCacheBytes;
  o.policy = "benefit-clock";
  o.num_workers = w.num_workers;
  o.cache_shards = w.shards;
  o.enable_compression = w.served;
  o.trace_capacity = traced ? static_cast<uint32_t>(kTraceCapacity) : 0;
  o.metrics = metrics;
  return o;
}

/// The generated inputs of one run. Q80 workloads: a warm-up stream and a
/// measured stream. hot-served: the hot pool (both fields hold it).
struct Inputs {
  std::vector<StarJoinQuery> warm;
  std::vector<StarJoinQuery> measured;
  uint64_t hash = 0;
};

std::vector<StarJoinQuery> Generate(const schema::StarSchema& schema,
                                    workload::WorkloadOptions opts,
                                    size_t n) {
  workload::QueryGenerator gen(&schema, opts);
  std::vector<StarJoinQuery> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(gen.Next());
  return out;
}

/// `v` in an order drawn from `seed` (Fisher-Yates on SplitMix64, so the
/// order does not depend on the standard library).
template <typename T>
void Shuffle(std::vector<T>* v, uint64_t seed) {
  uint64_t x = seed;
  auto next = [&x] {
    uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[next() % i]);
  }
}

Inputs MakeInputs(const Workload& w, const schema::StarSchema& schema,
                  uint64_t seed) {
  Inputs in;
  workload::WorkloadOptions opts;  // Q80 (hot region, proximity) defaults
  opts.seed = seed;
  if (w.served) {
    opts.seed = kHotPoolSeed;
    opts.hot_access_prob = 1.0;
    in.measured = Generate(schema, opts, kHotPoolSize);
    Shuffle(&in.measured, seed);
    in.warm = in.measured;
  } else {
    in.measured = Generate(schema, opts, kMeasuredStreamLength);
    opts.seed = seed ^ 0x9e3779b97f4a7c15ULL;  // a separate warm-up stream
    in.warm = Generate(schema, opts, kWarmStreamLength);
  }
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& q : in.warm) h = workload::HashQuery(q, h);
  for (const auto& q : in.measured) h = workload::HashQuery(q, h);
  in.hash = h;
  return in;
}

size_t RefStride(const Workload& w) {
  return w.served ? kHotRefStride : kQ80RefStride;
}

// ---------------------------------------------------------------------------
// Correctness: sampled answers against the no-cache backend.

/// Reference answers keyed by measured-stream index.
using References = std::map<size_t, std::vector<ResultRow>>;

References ComputeReferences(const Workload& w, bench::System& system,
                             const Inputs& in) {
  core::NoCacheManager reference(&system.engine());
  References refs;
  for (size_t k = 0; k < kRefSamples; ++k) {
    const size_t i = k * RefStride(w);
    if (i >= in.measured.size()) break;
    core::QueryStats stats;
    refs[i] = Unwrap(reference.Execute(in.measured[i], &stats), "reference");
  }
  return refs;
}

/// Coordinates and counts exact, sums within 1e-6.
bool SameRows(const std::vector<ResultRow>& a, const std::vector<ResultRow>& b,
              uint32_t num_dims) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    for (uint32_t d = 0; d < num_dims; ++d) {
      if (a[i].coords[d] != b[i].coords[d]) return false;
    }
    if (a[i].count != b[i].count) return false;
    if (std::fabs(a[i].sum - b[i].sum) > 1e-6) return false;
  }
  return true;
}

/// Collects the checks of one run; thread-safe.
class Checker {
 public:
  /// Points the checker at one set-up's references; counts carry over.
  void Bind(const References* refs, const Inputs* in) {
    refs_ = refs;
    in_ = in;
  }

  bool Sampled(size_t index) const { return refs_->count(index) != 0; }

  void Check(size_t index, const std::vector<ResultRow>& rows) {
    auto it = refs_->find(index);
    if (it == refs_->end()) return;
    const bool same =
        SameRows(rows, it->second, in_->measured[index].group_by.num_dims);
    std::lock_guard<std::mutex> lock(mu_);
    ++checked_;
    if (!same) {
      ++mismatches_;
      std::fprintf(stderr, "perfbench: answer mismatch on query %zu (%s)\n",
                   index, in_->measured[index].ToString().c_str());
    }
  }

  void Mismatch(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    ++mismatches_;
    std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  }

  uint64_t checked() const {
    std::lock_guard<std::mutex> lock(mu_);
    return checked_;
  }
  uint64_t mismatches() const {
    std::lock_guard<std::mutex> lock(mu_);
    return mismatches_;
  }

 private:
  const References* refs_ = nullptr;
  const Inputs* in_ = nullptr;
  mutable std::mutex mu_;
  uint64_t checked_ = 0;
  uint64_t mismatches_ = 0;
};

// ---------------------------------------------------------------------------
// Set-up: data, query generation, reference answers.

struct Fixture {
  std::unique_ptr<bench::System> system;
  Inputs inputs;
  References refs;
};

std::unique_ptr<Fixture> BuildFixture(const Workload& w, uint64_t seed) {
  bench::ExperimentConfig config;
  config.num_tuples = kTuples;
  auto f = std::make_unique<Fixture>();
  f->system = Unwrap(bench::System::Build(config), "system build");
  f->inputs = MakeInputs(w, f->system->schema(), seed);
  f->refs = ComputeReferences(w, *f->system, f->inputs);
  // Reference queries leave pages behind; the tier starts on a cold pool.
  const Status reset = f->system->ResetBackend();
  if (!reset.ok()) Fail("backend reset: " + reset.ToString());
  return f;
}

// ---------------------------------------------------------------------------
// Registry deltas over a phase.

struct Probe {
  MetricsRegistry::Snapshot reg;
  storage::BufferPoolStats pool;
};

Probe TakeProbe(core::ChunkCacheManager& tier, bench::System& system) {
  tier.StatsSnapshot();  // folds executor and kernel counters into gauges
  return Probe{tier.metrics().TakeSnapshot(), system.pool().stats()};
}

struct Delta {
  Probe a, b;
  double Counter(const std::string& n) const {
    return static_cast<double>(b.reg.counter(n) - a.reg.counter(n));
  }
  double Gauge(const std::string& n) const {
    return static_cast<double>(b.reg.gauge(n) - a.reg.gauge(n));
  }
  double HistSum(const std::string& n) const {
    auto sum = [&n](const MetricsRegistry::Snapshot& s) -> double {
      auto it = s.histograms.find(n);
      return it == s.histograms.end() ? 0.0
                                      : static_cast<double>(it->second.sum);
    };
    return sum(b.reg) - sum(a.reg);
  }
  double PoolHits() const {
    return static_cast<double>(b.pool.hits - a.pool.hits);
  }
  double PoolMisses() const {
    return static_cast<double>(b.pool.misses - a.pool.misses);
  }
};

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// ---------------------------------------------------------------------------
// Warmed tiers.

/// Times every call into the wrapped tier; what the traced served tier
/// hands the server, so tier time and server overhead separate.
class TimingTier final : public core::MiddleTier {
 public:
  explicit TimingTier(core::MiddleTier* inner) : inner_(inner) {}

  Result<std::vector<ResultRow>> Execute(const StarJoinQuery& query,
                                         core::QueryStats* stats) override {
    const uint64_t t0 = NowNs();
    auto out = inner_->Execute(query, stats);
    Charge(t0);
    return out;
  }

  Result<std::vector<ResultRow>> ExecuteWithControl(
      const StarJoinQuery& query, core::QueryStats* stats,
      const ExecControl& ctrl) override {
    const uint64_t t0 = NowNs();
    auto out = inner_->ExecuteWithControl(query, stats, ctrl);
    Charge(t0);
    return out;
  }

  std::string name() const override { return inner_->name(); }

  /// Duration of every call so far, in completion order.
  std::vector<uint64_t> call_ns() const {
    std::lock_guard<std::mutex> lock(mu_);
    return call_ns_;
  }

 private:
  void Charge(uint64_t t0) {
    const uint64_t ns = NowNs() - t0;
    std::lock_guard<std::mutex> lock(mu_);
    call_ns_.push_back(ns);
  }

  core::MiddleTier* inner_;
  mutable std::mutex mu_;
  std::vector<uint64_t> call_ns_;
};

/// A tier ready to measure: the manager with its cache filled and, when
/// served, the server in front of it. Members are destroyed server first.
struct Tier {
  MetricsRegistry metrics;
  std::unique_ptr<core::ChunkCacheManager> manager;
  std::unique_ptr<TimingTier> timing;  ///< Traced served tiers only.
  std::unique_ptr<server::ChunkServer> server;
};

/// Runs the warm-up stream serially until the cache is kMinWarmFill full.
void WarmQ80(core::ChunkCacheManager& manager, const Inputs& in) {
  cache::ChunkCache& cache = manager.chunk_cache();
  const double want =
      kMinWarmFill * static_cast<double>(cache.capacity_bytes());
  size_t n = 0;
  while (static_cast<double>(cache.bytes_used()) < want) {
    Require(n < in.warm.size(), "warm-up stream fills the cache");
    core::QueryStats stats;
    Unwrap(manager.Execute(in.warm[n], &stats), "warm-up query");
    ++n;
  }
  std::printf("# warm-up: %zu queries, cache %.1f%% full, %zu chunks\n", n,
              100.0 * static_cast<double>(cache.bytes_used()) /
                  static_cast<double>(cache.capacity_bytes()),
              cache.num_chunks());
}

/// Admits the whole hot pool, checking the sampled answers on the way.
void WarmHot(core::ChunkCacheManager& manager, const Inputs& in,
             Checker& checker) {
  for (size_t i = 0; i < in.warm.size(); ++i) {
    core::QueryStats stats;
    auto rows = Unwrap(manager.Execute(in.warm[i], &stats), "warm-up query");
    if (checker.Sampled(i)) checker.Check(i, rows);
  }
  cache::ChunkCache& cache = manager.chunk_cache();
  std::printf("# warm-up: %zu hot queries, cache %.1f%% full, %zu chunks\n",
              in.warm.size(),
              100.0 * static_cast<double>(cache.bytes_used()) /
                  static_cast<double>(cache.capacity_bytes()),
              cache.num_chunks());
  Require(manager.metrics().TakeSnapshot().counter("cache.evictions") == 0,
          "hot pool fits the cache");
}

std::unique_ptr<Tier> WarmTier(const Workload& w, Fixture& f,
                               Checker& checker, bool traced) {
  auto t = std::make_unique<Tier>();
  t->manager = std::make_unique<core::ChunkCacheManager>(
      &f.system->engine(), ManagerOptions(w, traced, &t->metrics));
  if (!w.served) {
    WarmQ80(*t->manager, f.inputs);
    return t;
  }
  core::MiddleTier* front = t->manager.get();
  if (traced) {
    t->timing = std::make_unique<TimingTier>(t->manager.get());
    front = t->timing.get();
  }
  server::ServerOptions sopts;
  sopts.num_workers = kServerWorkers;
  sopts.metrics = &t->metrics;
  t->server = std::make_unique<server::ChunkServer>(front, sopts);
  const Status started = t->server->Start();
  if (!started.ok()) Fail("server start: " + started.ToString());
  WarmHot(*t->manager, f.inputs, checker);
  return t;
}

// ---------------------------------------------------------------------------
// Measured phases.

struct PhaseResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// One per attempted query; a failed query counts as UINT64_MAX, so it
  /// misses every latency limit.
  std::vector<uint64_t> latency_ns;
  double elapsed_s = 0;
  double csr_total = 0;  ///< Sum of cost estimates (CsrAccumulator base).
  double csr_saved = 0;
  Delta delta;
  std::vector<QueryTrace> traces;
  uint64_t trace_recorded = 0;  ///< Traces the phase produced.
  /// Served phases: the timing tier's call durations in the phase.
  std::vector<uint64_t> tier_call_ns;

  double Qps() const {
    return Ratio(static_cast<double>(attempted - failed), elapsed_s);
  }
};

Clock::time_point Deadline(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

/// Closed loop in process: `clients` threads take the next measured query,
/// from stream position `first` on, until `seconds` pass or `max_queries`
/// are issued.
void RunInProcess(const Workload& w, Tier& tier, const Inputs& in,
                  Checker& checker, size_t first, double seconds,
                  size_t max_queries, PhaseResult* r) {
  core::ChunkCacheManager& manager = *tier.manager;
  std::atomic<size_t> next{first};
  std::vector<std::vector<uint64_t>> lat(w.clients);
  std::vector<core::CsrAccumulator> csr(w.clients);
  std::vector<uint64_t> failed(w.clients, 0);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = Deadline(start, seconds);
  auto client = [&](uint32_t c) {
    while (Clock::now() < deadline) {
      const size_t k = next.fetch_add(1);
      if (k - first >= max_queries) break;
      const size_t i = k % in.measured.size();
      core::QueryStats stats;
      const uint64_t t0 = NowNs();
      auto rows = manager.Execute(in.measured[i], &stats);
      const uint64_t ns = NowNs() - t0;
      if (!rows.ok()) {
        ++failed[c];
        lat[c].push_back(UINT64_MAX);
        continue;
      }
      lat[c].push_back(ns);
      csr[c].Record(stats);
      if (checker.Sampled(i)) checker.Check(i, *rows);
    }
  };
  std::vector<std::thread> threads;
  for (uint32_t c = 1; c < w.clients; ++c) threads.emplace_back(client, c);
  client(0);
  for (auto& t : threads) t.join();
  r->elapsed_s = Seconds(start, Clock::now());
  for (uint32_t c = 0; c < w.clients; ++c) {
    r->latency_ns.insert(r->latency_ns.end(), lat[c].begin(), lat[c].end());
    r->failed += failed[c];
    r->csr_total += csr[c].total_cost();
    r->csr_saved += csr[c].Csr() * csr[c].total_cost();
  }
}

/// Closed loop over loopback: one client thread keeps kServedInflight
/// requests in flight, cycling through the hot pool from position `first`.
void RunServed(Tier& tier, const Inputs& in, Checker& checker, size_t first,
               double seconds, size_t max_queries, PhaseResult* r) {
  server::ClientOptions copts;
  copts.port = tier.server->port();
  auto client = Unwrap(server::ChunkClient::Connect(copts), "connect");
  std::vector<bool> verified(in.measured.size(), false);
  const size_t tier_calls0 = tier.timing ? tier.timing->call_ns().size() : 0;

  struct Pending {
    uint64_t id;
    size_t index;
    uint64_t sent_ns;
  };
  std::deque<Pending> pending;
  size_t issued = first;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = Deadline(start, seconds);
  auto send = [&] {
    const size_t i = issued % in.measured.size();
    const uint64_t t0 = NowNs();
    const uint64_t id =
        Unwrap(client->SendQuery(in.measured[i]), "send query");
    pending.push_back(Pending{id, i, t0});
    ++issued;
  };
  for (uint32_t j = 0; j < kServedInflight; ++j) send();
  while (!pending.empty()) {
    const Pending p = pending.front();
    pending.pop_front();
    // The client checks each response's row hash against the server's
    // summary frame; a mismatch comes back as Corruption.
    auto resp = client->WaitResponse(p.id);
    const uint64_t ns = NowNs() - p.sent_ns;
    if (!resp.ok()) Fail("transport: " + resp.status().ToString());
    if (!resp->status.ok()) {
      ++r->failed;
      r->latency_ns.push_back(UINT64_MAX);
      if (resp->status.code() == StatusCode::kCorruption) {
        checker.Mismatch("row hash mismatch: " + resp->status.ToString());
      }
    } else {
      r->latency_ns.push_back(ns);
      if (!verified[p.index] && checker.Sampled(p.index)) {
        verified[p.index] = true;
        checker.Check(p.index, resp->rows);
      }
    }
    if (Clock::now() < deadline && issued - first < max_queries) send();
  }
  r->elapsed_s = Seconds(start, Clock::now());
  if (tier.timing != nullptr) {
    const std::vector<uint64_t> calls = tier.timing->call_ns();
    r->tier_call_ns.assign(calls.begin() + tier_calls0, calls.end());
  }
}

/// Measures one phase on a warmed tier, from stream position `first` on,
/// for `seconds` or `max_queries`, and checks the workload's guards.
PhaseResult Measure(const Workload& w, Tier& tier, Fixture& f,
                    Checker& checker, size_t first, double seconds,
                    size_t max_queries = SIZE_MAX) {
  core::ChunkCacheManager& manager = *tier.manager;
  TraceRecorder* rec = manager.trace_recorder();
  const uint64_t traces_before = rec != nullptr ? rec->recorded() : 0;
  const double fill = static_cast<double>(manager.chunk_cache().bytes_used()) /
                      static_cast<double>(kCacheBytes);

  std::printf("# host probe: %.2f ms\n", HostProbeMs());
  PhaseResult r;
  r.delta.a = TakeProbe(manager, *f.system);
  if (w.served) {
    RunServed(tier, f.inputs, checker, first, seconds, max_queries, &r);
  } else {
    RunInProcess(w, tier, f.inputs, checker, first, seconds, max_queries,
                 &r);
  }
  r.delta.b = TakeProbe(manager, *f.system);
  r.attempted = r.latency_ns.size();
  if (rec != nullptr) {
    r.trace_recorded = rec->recorded() - traces_before;
    r.traces = rec->Latest(r.trace_recorded);
  }

  const Delta& d = r.delta;
  std::printf("# measured: %llu queries, cache holds %zu chunks at the end\n",
              static_cast<unsigned long long>(r.attempted),
              manager.chunk_cache().num_chunks());
  if (!w.served) {
    Require(fill >= kMinWarmFill, "cache >= 95% full when timing starts");
    Require(d.Counter("cache.evictions") > 0,
            "evictions > 0 in the measured phase");
    return r;
  }
  // Served queries are all hits of a fixed pool, so the CSR base is the
  // chunk count (every chunk saves its whole cost).
  r.csr_total = d.Counter("chunks.requested");
  r.csr_saved = d.Counter("chunks.from_cache");
  Require(d.Counter("chunks.from_backend") == 0 &&
              r.csr_saved == r.csr_total,
          "zero misses in the measured phase");
  Require(d.Counter("cache.evictions") == 0,
          "zero evictions in the measured phase");
  Require(d.Counter("server.queries.shed") == 0,
          "zero sheds in the measured phase");
  return r;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Nearest-rank quantile of sorted `v`.
uint64_t Quantile(const std::vector<uint64_t>& v, double q) {
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// End-to-end metrics of a run measured in shares. The shares are pooled:
/// qps is all completed queries over all measured time, and p50 and p99
/// are quantiles of every latency sample of the run.
std::vector<Metric> EndToEnd(const std::vector<PhaseResult>& shares,
                             double setup_s, double peak_rss_mb) {
  std::vector<uint64_t> lat;
  double completed = 0, elapsed_s = 0, csr_total = 0, csr_saved = 0;
  for (const PhaseResult& r : shares) {
    Require(!r.latency_ns.empty(), "every share completed a query");
    lat.insert(lat.end(), r.latency_ns.begin(), r.latency_ns.end());
    completed += static_cast<double>(r.attempted - r.failed);
    elapsed_s += r.elapsed_s;
    csr_total += r.csr_total;
    csr_saved += r.csr_saved;
    std::printf("# share: %llu queries in %.2f s, qps %.1f\n",
                static_cast<unsigned long long>(r.attempted), r.elapsed_s,
                r.Qps());
  }
  std::sort(lat.begin(), lat.end());
  const size_t n = lat.size();
  const size_t beyond_p99 =
      n - static_cast<size_t>(std::ceil(0.99 * static_cast<double>(n)));
  std::printf("# latency: %zu samples, %zu beyond p99\n", n, beyond_p99);
  return {
      {"qps", Ratio(completed, elapsed_s), "queries/s"},
      {"p50_ms", static_cast<double>(Quantile(lat, 0.50)) / 1e6, "ms"},
      {"p99_ms", static_cast<double>(Quantile(lat, 0.99)) / 1e6, "ms"},
      {"csr", Ratio(csr_saved, csr_total), "ratio"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
  };
}

/// True if each sorted `inner[k] <= outer[k]`: what must hold when every
/// inner duration is part of its own outer one (a trace's root span of its
/// Execute call, a tier call of its round trip), whichever pairs they are.
bool Dominated(std::vector<uint64_t> inner, std::vector<uint64_t> outer) {
  if (inner.size() != outer.size()) return false;
  std::sort(inner.begin(), inner.end());
  std::sort(outer.begin(), outer.end());
  for (size_t k = 0; k < inner.size(); ++k) {
    if (inner[k] > outer[k]) return false;
  }
  return true;
}

uint64_t Sum(const std::vector<uint64_t>& v) {
  uint64_t s = 0;
  for (uint64_t x : v) s += x;
  return s;
}

/// The per-layer ledger of a traced phase; `untraced` supplies the qps the
/// tracing overhead is measured against. Fails the run if it does not close.
std::vector<Metric> Ledger(const Workload& w, const PhaseResult& t,
                           const PhaseResult& untraced) {
  Require(t.attempted > 0, "the traced phase completed a query");
  Require(t.trace_recorded == t.attempted &&
              t.traces.size() == t.trace_recorded,
          "every traced query's trace read back");
  LayerNs layers{};
  std::vector<uint64_t> root_ns;
  root_ns.reserve(t.traces.size());
  for (const QueryTrace& trace : t.traces) {
    Require(SpansNest(trace), "every span lies inside its parent");
    root_ns.push_back(AttributeTrace(trace, &layers));
  }
  // The bench timed each Execute in process; served, the timing tier timed
  // each call the server made into the manager.
  const std::vector<uint64_t>& calls = w.served ? t.tier_call_ns : t.latency_ns;
  Require(Dominated(root_ns, calls),
          "each trace's root span fits inside its query's Execute call");
  const uint64_t execute_ns = Sum(calls);
  const uint64_t unattributed_ns = execute_ns - Sum(root_ns);
  Require(static_cast<double>(unattributed_ns) <=
              kMaxUnattributedShare * static_cast<double>(execute_ns),
          "layer.unattributed_ns within 25% of core.execute_ns");
  const double q = static_cast<double>(t.attempted);
  const Delta& d = t.delta;

  std::vector<Metric> m;
  for (uint32_t l = 0; l < kNumLayers; ++l) {
    m.push_back({LayerMetricName(static_cast<Layer>(l)),
                 static_cast<double>(layers[l]) / q, "ns"});
  }
  const double exec = static_cast<double>(execute_ns) / q;
  const double unattributed = static_cast<double>(unattributed_ns) / q;
  m.push_back({"core.execute_ns", exec, "ns"});
  m.push_back({"layer.unattributed_ns", unattributed, "ns"});

  const double requested = d.Counter("chunks.requested");
  m.push_back({"cache.hit_ratio",
               Ratio(d.Counter("chunks.from_cache"), requested), "ratio"});
  m.push_back({"cache.evictions_per_query", d.Counter("cache.evictions") / q,
               "chunks/query"});
  m.push_back({"cache.lock_wait_ns", d.HistSum("cache.lock_wait_ns") / q,
               "ns"});
  const double front_hits = d.Counter("cache.decoded_lru_hits");
  m.push_back({"cache.decoded_front_hit_ratio",
               Ratio(front_hits, front_hits + d.Counter("cache.decode_calls")),
               "ratio"});
  m.push_back({"backend.shared_scan_ratio",
               Ratio(d.Counter("scheduler.merged_requests"),
                     d.Counter("scheduler.requests")),
               "ratio"});
  m.push_back({"exec.tasks_per_query", d.Gauge("exec.tasks_run") / q,
               "tasks/query"});
  m.push_back({"backend.chunks_computed_per_query",
               d.Counter("chunks.from_backend") / q, "chunks/query"});
  m.push_back({"backend.rows_folded_per_query",
               (d.Gauge("kernels.rows_folded_dense") +
                d.Gauge("kernels.rows_folded_hash")) /
                   q,
               "rows/query"});
  const double fetches = d.PoolHits() + d.PoolMisses();
  m.push_back({"storage.page_fetches_per_query", fetches / q, "pages/query"});
  m.push_back({"storage.page_reads_per_query", d.PoolMisses() / q,
               "pages/query"});
  m.push_back({"storage.pool_hit_ratio", Ratio(d.PoolHits(), fetches),
               "ratio"});
  m.push_back({"storage.read_ns", d.HistSum("disk.read_ns") / q, "ns"});

  double roundtrip = 0, tier = 0, self = 0, bytes = 0;
  if (w.served) {
    Require(t.tier_call_ns.size() == t.attempted,
            "one tier call per served query");
    Require(Dominated(t.tier_call_ns, t.latency_ns),
            "each tier call fits inside its query's round trip");
    const uint64_t rt_ns = Sum(t.latency_ns);
    // The server times each query from admission to the tier's return, so
    // its histogram lies between the tier calls and the round trips.
    const double server_ns = d.HistSum("server.query.latency_ns");
    Require(static_cast<double>(execute_ns) <= server_ns &&
                server_ns <= static_cast<double>(rt_ns),
            "server-timed queries lie between tier calls and round trips");
    roundtrip = static_cast<double>(rt_ns) / q;
    tier = exec;
    self = static_cast<double>(rt_ns - execute_ns) / q;
    bytes = d.Counter("server.bytes.written") / q;
  }
  m.push_back({"server.roundtrip_ns", roundtrip, "ns"});
  m.push_back({"server.tier_ns", tier, "ns"});
  m.push_back({"server.self_ns", self, "ns"});
  m.push_back({"server.bytes_per_query", bytes, "bytes/query"});
  m.push_back({"trace.overhead_frac", 1.0 - Ratio(t.Qps(), untraced.Qps()),
               "ratio"});
  std::printf("# ledger closes: %zu traces nest and fit their calls; "
              "execute %.0f ns/query, %.1f%% unattributed\n",
              t.traces.size(), exec, 100.0 * Ratio(unattributed, exec));
  return m;
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", metrics[i].value);
    if (i) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool hash_only = false;
};

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <q80-2client|hot-served> "
               "--seed <n> (--seconds <s> --trace <0|1> | "
               "--hash-only)\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--hash-only") {
      a.hash_only = true;
      continue;
    }
    if (i + 1 >= argc) Usage();
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') Usage();
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) Usage();
    } else if (k == "--trace") {
      if (v != "0" && v != "1") Usage();
      a.trace = v == "1";
    } else {
      Usage();
    }
  }
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads) {
    if (args.workload == c.name) w = &c;
  }
  if (w == nullptr) Usage();

  if (args.hash_only) {
    const schema::StarSchema schema =
        Unwrap(schema::BuildPaperSchema(), "schema");
    std::printf("%016llx\n", static_cast<unsigned long long>(
                                 MakeInputs(*w, schema, args.seed).hash));
    return 0;
  }

  const unsigned nproc = Nproc();
  std::printf("# workload %s seed %llu: %u threads, nproc %u\n", w->name,
              static_cast<unsigned long long>(args.seed), ThreadCount(*w),
              nproc);
  Require(ThreadCount(*w) <= nproc, "thread count <= nproc");

  // Set-up -- data build, query generation, reference answers and cache
  // warm-up -- runs kSetupRepeats times, and setup_s is the median. Each
  // set-up measures an equal share of --seconds, continuing the measured
  // stream where the last share stopped. A tier is a noisy sample (two
  // tiers built from one seed differ by ~10% in serial qps), so the
  // timings pool three tiers.
  Checker checker;
  std::unique_ptr<Fixture> f;
  std::unique_ptr<Tier> tier;
  auto set_up = [&] {
    tier.reset();
    f.reset();
    const Clock::time_point t0 = Clock::now();
    f = BuildFixture(*w, args.seed);
    checker.Bind(&f->refs, &f->inputs);
    tier = WarmTier(*w, *f, checker, /*traced=*/false);
    return Seconds(t0, Clock::now());
  };

  std::vector<Metric> metrics;
  uint64_t attempted = 0, failed = 0;
  if (!args.trace) {
    std::vector<double> setup_s;
    std::vector<PhaseResult> shares;
    double peak_rss_mb = 0;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      setup_s.push_back(set_up());
      shares.push_back(Measure(*w, *tier, *f, checker, attempted,
                               args.seconds / kSetupRepeats));
      attempted += shares.back().attempted;
      failed += shares.back().failed;
      // The peak while the process held one set-up: later set-ups reuse
      // freed memory unevenly, which moved the peak by ~7% between seeds.
      if (rep == 0) peak_rss_mb = PeakRssMiB();
    }
    Require(failed == 0, "no query failed");
    const double setup_median = Median(setup_s);
    std::printf("# set-up: %.3f s (median of %d)\n", setup_median,
                kSetupRepeats);
    metrics = EndToEnd(shares, setup_median, peak_rss_mb);
  } else {
    // Halves untraced and traced, each from a freshly warmed tier over the
    // same stream and each capped at kTraceCapacity queries (so every trace
    // is still in the recorder's ring); their qps ratio is the tracing
    // overhead.
    set_up();
    PhaseResult u = Measure(*w, *tier, *f, checker, 0, args.seconds / 2,
                            kTraceCapacity);
    tier.reset();
    tier = WarmTier(*w, *f, checker, /*traced=*/true);
    PhaseResult t = Measure(*w, *tier, *f, checker, 0, args.seconds / 2,
                            kTraceCapacity);
    attempted = u.attempted + t.attempted;
    failed = u.failed + t.failed;
    Require(failed == 0, "no query failed");
    metrics = Ledger(*w, t, u);
  }
  std::printf("# query hash %016llx (%zu warm-up + %zu measured queries)\n",
              static_cast<unsigned long long>(f->inputs.hash),
              f->inputs.warm.size(), f->inputs.measured.size());
  std::printf("# answers checked: %llu sampled, %llu mismatches\n",
              static_cast<unsigned long long>(checker.checked()),
              static_cast<unsigned long long>(checker.mismatches()));
  Require(checker.checked() > 0, "at least one sampled answer checked");
  const bool correct = checker.mismatches() == 0;
  PrintJson(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace chunkcache::perfbench

int main(int argc, char** argv) {
  return chunkcache::perfbench::Main(argc, argv);
}
