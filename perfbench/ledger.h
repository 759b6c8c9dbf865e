#ifndef CHUNKCACHE_PERFBENCH_LEDGER_H_
#define CHUNKCACHE_PERFBENCH_LEDGER_H_

#include <array>
#include <cstdint>

#include "common/trace.h"

namespace chunkcache::perfbench {

/// The layers a query's time is charged to, read off the span tree the
/// chunk-cache manager records.
enum Layer : uint32_t {
  kDecompose = 0,     ///< "decompose": chunk numbers the query needs.
  kProbe,             ///< "cache_probe": lookups and in-flight claims.
  kAdmit,             ///< "miss_pipeline" self time: insert + policy.
  kScan,              ///< "scan_aggregate": backend scan and fold.
  kDecode,            ///< "decode": hit assembly of compressed chunks.
  kCoalescedWait,     ///< "wait_coalesced": waits on other queries' misses.
  kRollup,            ///< "rollup": boundary filter and canonical sort.
  kAssemble,          ///< Root self time: result assembly between spans.
  kNumLayers,
};

/// Registry-style name of a layer's per-query ns metric.
const char* LayerMetricName(Layer layer);

using LayerNs = std::array<uint64_t, kNumLayers>;

/// Adds each layer's exclusive time in `trace` to `*ns` and returns the
/// root span's duration. Every instant of the root span is charged to
/// exactly one layer: the innermost span open at that instant (the one
/// opened last), where a span no layer names counts as its nearest named
/// ancestor. Spans are matched by interval, not by parent, because the
/// manager opens "decode" under the root while "miss_pipeline" is open.
/// The additions sum to the returned duration exactly.
uint64_t AttributeTrace(const QueryTrace& trace, LayerNs* ns);

/// True if the root span starts at 0 and every other span's interval lies
/// inside its parent's, with the parent opened before it.
bool SpansNest(const QueryTrace& trace);

}  // namespace chunkcache::perfbench

#endif  // CHUNKCACHE_PERFBENCH_LEDGER_H_
