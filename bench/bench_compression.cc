// Chunk-payload compression: what does the cache buy at a fixed byte
// budget, and what does decoding cost?
//
// Three experiments:
//   1. codec microbench — encode / decode throughput (GB/s of raw payload)
//      and the compression ratio on a representative sorted chunk payload,
//      fast and reference decoders separately;
//   2. cache-size sweep — the same deterministic query stream through two
//      managers that differ only in enable_compression, at several cache
//      budgets: hit ratio, average per-query latency, backend pages read,
//      and a result hash that must be identical on == off (the ablation);
//   3. CPU/IO crossover — from each sweep point, the modeled page cost
//      above which the I/O saved by the extra hits outweighs the decode
//      CPU spent on them (compression wins whenever the deployment's page
//      cost exceeds the crossover).
//
// Results go to stdout as tables AND to BENCH_compression.json (machine
// readable; CI validates its schema). Honors CHUNKCACHE_BENCH_SCALE.

#include <chrono>
#include <cstdio>
#include <memory>
#include <random>
#include <vector>

#include "backend/star_join_query.h"
#include "bench/common/experiment.h"
#include "core/chunk_cache_manager.h"
#include "storage/codec.h"
#include "workload/query_generator.h"

namespace chunkcache::bench {
namespace {

using backend::ResultRow;
using backend::StarJoinQuery;
using core::ChunkCacheManager;
using core::ChunkManagerOptions;
using core::QueryStats;
using storage::AggColumns;

namespace codec = storage::codec;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ----------------------------- codec microbench -----------------------------

struct CodecBench {
  double encode_gbps = 0;
  double decode_fast_gbps = 0;
  double decode_ref_gbps = 0;
  double ratio = 0;  ///< encoded / raw, lower is better
};

CodecBench RunCodecBench() {
  // Representative chunk payload: sorted row-major coordinates over a few
  // dozen distinct values per dimension, clustered measures.
  std::mt19937 rng(7);
  AggColumns cols(4);
  const size_t rows = 200000;
  cols.Reserve(rows);
  std::array<uint32_t, storage::kMaxDims> c{};
  for (size_t i = 0; i < rows; ++i) {
    for (uint32_t d = 0; d < 4; ++d) c[d] = rng() % 40;
    const double sum = static_cast<double>(rng() % 1000000) / 16.0;
    cols.PushCell(c.data(), sum, 1 + rng() % 6, sum - 2, sum + 2);
  }
  cols.SortRowMajor();
  const double raw_gb =
      static_cast<double>(codec::RawPayloadBytes(cols)) / 1e9;

  CodecBench out;
  std::vector<uint8_t> blob;
  const int reps = 5;
  double t0 = NowMs();
  for (int r = 0; r < reps; ++r) {
    blob.clear();
    codec::EncodeAggColumns(cols, &blob);
  }
  out.encode_gbps = reps * raw_gb / ((NowMs() - t0) / 1e3);
  out.ratio = static_cast<double>(blob.size()) /
              static_cast<double>(codec::RawPayloadBytes(cols));

  t0 = NowMs();
  for (int r = 0; r < reps; ++r) {
    auto back = codec::DecodeAggColumns(blob.data(), blob.size(),
                                        codec::DecodeMode::kFast);
    if (!back.ok() || back->size() != rows) std::abort();
  }
  out.decode_fast_gbps = reps * raw_gb / ((NowMs() - t0) / 1e3);

  t0 = NowMs();
  for (int r = 0; r < reps; ++r) {
    auto back = codec::DecodeAggColumns(blob.data(), blob.size(),
                                        codec::DecodeMode::kReference);
    if (!back.ok() || back->size() != rows) std::abort();
  }
  out.decode_ref_gbps = reps * raw_gb / ((NowMs() - t0) / 1e3);
  return out;
}

// ------------------------------ cache-size sweep ----------------------------

struct SweepPoint {
  double cache_mb = 0;
  double on_hit_ratio = 0;
  double off_hit_ratio = 0;
  double on_avg_ms = 0;   ///< Real per-query wall time.
  double off_avg_ms = 0;
  uint64_t on_pages = 0;  ///< Backend pages read over the stream.
  uint64_t off_pages = 0;
  uint64_t compressed_chunks = 0;
  uint64_t decode_calls = 0;
  double crossover_page_ms = 0;  ///< Page cost where on == off total time.
  bool identical = false;        ///< Result hash on == hash off.
};

uint64_t HashRows(const std::vector<ResultRow>& rows, uint64_t acc) {
  auto mix = [&acc](uint64_t v) {
    acc = (acc ^ v) * 0x100000001b3ULL;
  };
  for (const ResultRow& r : rows) {
    for (uint32_t v : r.coords) mix(v);
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(r.sum), "");
    std::memcpy(&bits, &r.sum, 8);
    mix(bits);
    mix(r.count);
    std::memcpy(&bits, &r.min_v, 8);
    mix(bits);
    std::memcpy(&bits, &r.max_v, 8);
    mix(bits);
  }
  return acc;
}

struct StreamOutcome {
  double hit_ratio = 0;
  double avg_ms = 0;
  double cpu_ms = 0;  ///< Total wall across the stream (in-memory backend).
  uint64_t pages = 0;
  uint64_t hash = 0xcbf29ce484222325ULL;
  cache::ChunkCacheStats stats;
};

Result<StreamOutcome> RunCompressionStream(System* sys, uint64_t cache_bytes,
                                           bool compression_on,
                                           uint64_t num_queries) {
  // Cold backend per configuration: neither run inherits the other's warm
  // buffer pool, so pages_read reflects each tier's own misses.
  CHUNKCACHE_RETURN_IF_ERROR(sys->ResetBackend());
  ChunkManagerOptions opts;
  opts.cache_bytes = cache_bytes;
  opts.enable_compression = compression_on;
  ChunkCacheManager mgr(&sys->engine(), opts);
  workload::WorkloadOptions wopts;
  wopts.seed = 1998;  // same stream for both configurations
  workload::QueryGenerator gen(&sys->schema(), wopts);

  StreamOutcome out;
  uint64_t pages = 0;
  const double t0 = NowMs();
  for (uint64_t i = 0; i < num_queries; ++i) {
    const StarJoinQuery q = gen.Next();
    QueryStats st;
    CHUNKCACHE_ASSIGN_OR_RETURN(std::vector<ResultRow> rows,
                                mgr.Execute(q, &st));
    out.hash = HashRows(rows, out.hash);
    pages += st.backend_work.pages_read;
  }
  out.cpu_ms = NowMs() - t0;
  out.avg_ms = out.cpu_ms / static_cast<double>(num_queries);
  out.pages = pages;
  out.stats = mgr.StatsSnapshot();
  out.hit_ratio = out.stats.lookups > 0
                      ? static_cast<double>(out.stats.hits) /
                            static_cast<double>(out.stats.lookups)
                      : 0;
  return out;
}

Status Run() {
  ExperimentConfig config = ExperimentConfig::FromEnv();
  // Undersized buffer pool: the fact file must not fit, so backend scans
  // really read pages and the sweep's I/O column measures something.
  config.pool_frames = 256;
  PrintSetup(config,
             "Chunk compression: hit ratio at fixed cache bytes, on vs off");
  CHUNKCACHE_ASSIGN_OR_RETURN(std::unique_ptr<System> sys,
                              System::Build(config));

  const CodecBench cb = RunCodecBench();
  std::printf(
      "codec: encode %.2f GB/s, decode %.2f GB/s (fast) / %.2f GB/s "
      "(reference), ratio %.3f\n\n",
      cb.encode_gbps, cb.decode_fast_gbps, cb.decode_ref_gbps, cb.ratio);

  const uint64_t num_queries =
      std::max<uint64_t>(50, config.stream_queries / 5);
  const double scale =
      static_cast<double>(config.num_tuples) / 500000.0;
  std::vector<uint64_t> budgets;
  for (double mb : {0.125, 0.25, 0.5, 1.0}) {
    budgets.push_back(static_cast<uint64_t>(mb * scale * (1 << 20)));
  }

  std::printf("%8s %9s %9s %9s %9s %10s %10s %11s %6s\n", "cache", "on hit%",
              "off hit%", "on ms/q", "off ms/q", "on pages", "off pages",
              "xover ms/p", "ident");
  std::vector<SweepPoint> sweep;
  bool all_identical = true;
  for (uint64_t bytes : budgets) {
    CHUNKCACHE_ASSIGN_OR_RETURN(
        StreamOutcome on,
        RunCompressionStream(sys.get(), bytes, true, num_queries));
    CHUNKCACHE_ASSIGN_OR_RETURN(
        StreamOutcome off,
        RunCompressionStream(sys.get(), bytes, false, num_queries));
    SweepPoint p;
    p.cache_mb = static_cast<double>(bytes) / (1 << 20);
    p.on_hit_ratio = on.hit_ratio;
    p.off_hit_ratio = off.hit_ratio;
    p.on_avg_ms = on.avg_ms;
    p.off_avg_ms = off.avg_ms;
    p.on_pages = on.pages;
    p.off_pages = off.pages;
    p.compressed_chunks = on.stats.compressed_chunks;
    p.decode_calls = on.stats.decode_calls;
    p.identical = on.hash == off.hash;
    all_identical = all_identical && p.identical;
    // CPU/IO crossover: compression spends (cpu_on - cpu_off) ms of CPU to
    // save (off_pages - on_pages) page reads. At any modeled page cost
    // above the ratio, compression wins outright; the in-memory backend
    // here has page cost ~0, so this is the honest break-even statement.
    const double extra_cpu = on.cpu_ms - off.cpu_ms;
    const int64_t saved_pages = static_cast<int64_t>(off.pages) -
                                static_cast<int64_t>(on.pages);
    p.crossover_page_ms =
        saved_pages > 0 ? std::max(0.0, extra_cpu) /
                              static_cast<double>(saved_pages)
                        : -1;  // no pages saved: compression never pays here
    sweep.push_back(p);
    std::printf("%6.2fM %8.1f%% %8.1f%% %9.3f %9.3f %10llu %10llu %11.4f "
                "%6s\n",
                p.cache_mb, 100 * p.on_hit_ratio, 100 * p.off_hit_ratio,
                p.on_avg_ms, p.off_avg_ms,
                static_cast<unsigned long long>(p.on_pages),
                static_cast<unsigned long long>(p.off_pages),
                p.crossover_page_ms,
                p.identical ? "yes" : "NO");
  }

  std::FILE* out = std::fopen("BENCH_compression.json", "w");
  if (out == nullptr) {
    return Status::IoError("cannot write BENCH_compression.json");
  }
  std::fprintf(out,
               "{\n  \"bench\": \"compression\",\n  \"num_tuples\": %llu,\n"
               "  \"queries_per_point\": %llu,\n"
               "  \"codec\": {\"encode_gbps\": %.3f, \"decode_fast_gbps\": "
               "%.3f, \"decode_ref_gbps\": %.3f, \"ratio\": %.4f},\n"
               "  \"sweep\": [\n",
               static_cast<unsigned long long>(config.num_tuples),
               static_cast<unsigned long long>(num_queries), cb.encode_gbps,
               cb.decode_fast_gbps, cb.decode_ref_gbps, cb.ratio);
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    std::fprintf(
        out,
        "    {\"cache_mb\": %.2f, \"on_hit_ratio\": %.4f, "
        "\"off_hit_ratio\": %.4f, \"on_avg_ms\": %.4f, \"off_avg_ms\": "
        "%.4f, \"on_pages\": %llu, \"off_pages\": %llu, "
        "\"compressed_chunks\": %llu, \"decode_calls\": %llu, "
        "\"crossover_page_ms\": %.5f, "
        "\"identical\": %s}%s\n",
        p.cache_mb, p.on_hit_ratio, p.off_hit_ratio, p.on_avg_ms,
        p.off_avg_ms, static_cast<unsigned long long>(p.on_pages),
        static_cast<unsigned long long>(p.off_pages),
        static_cast<unsigned long long>(p.compressed_chunks),
        static_cast<unsigned long long>(p.decode_calls),
        p.crossover_page_ms, p.identical ? "true" : "false",
        i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"identical_all\": %s\n}\n",
               all_identical ? "true" : "false");
  std::fclose(out);
  std::printf("\nwrote BENCH_compression.json\n");

  if (!all_identical) {
    return Status::Internal("compression on/off results diverged");
  }
  return Status::OK();
}

}  // namespace
}  // namespace chunkcache::bench

int main() {
  const chunkcache::Status s = chunkcache::bench::Run();
  if (!s.ok()) {
    std::fprintf(stderr, "bench_compression failed: %s\n",
                 s.message().c_str());
    return 1;
  }
  return 0;
}
