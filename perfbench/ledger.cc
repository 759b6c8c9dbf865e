#include "ledger.h"

#include <algorithm>
#include <string_view>
#include <vector>

namespace chunkcache::perfbench {
namespace {

constexpr uint32_t kUnnamed = kNumLayers;

uint32_t LayerOfName(std::string_view name) {
  if (name == "execute") return kAssemble;
  if (name == "decompose") return kDecompose;
  if (name == "cache_probe") return kProbe;
  if (name == "miss_pipeline") return kAdmit;
  if (name == "scan_aggregate") return kScan;
  if (name == "decode") return kDecode;
  if (name == "wait_coalesced") return kCoalescedWait;
  if (name == "rollup") return kRollup;
  return kUnnamed;
}

}  // namespace

const char* LayerMetricName(Layer layer) {
  switch (layer) {
    case kDecompose: return "core.decompose_ns";
    case kProbe: return "cache.probe_ns";
    case kAdmit: return "cache.admit_ns";
    case kScan: return "backend.scan_ns";
    case kDecode: return "cache.decode_ns";
    case kCoalescedWait: return "core.coalesced_wait_ns";
    case kRollup: return "core.rollup_ns";
    case kAssemble: return "core.assemble_ns";
    case kNumLayers: break;
  }
  return "unknown";
}

uint64_t AttributeTrace(const QueryTrace& trace, LayerNs* ns) {
  const std::vector<TraceSpan>& spans = trace.spans;
  if (spans.empty()) return 0;
  const uint64_t root_end = spans[0].duration_ns;

  // Layer of every span: its own, else its nearest named ancestor's. The
  // spans are stored in pre-order, so a parent is resolved before its
  // children; the root ("execute") is always named.
  std::vector<uint32_t> layer(spans.size(), kAssemble);
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint32_t own = LayerOfName(spans[i].name);
    const uint32_t parent = spans[i].parent;
    layer[i] = own != kUnnamed
                   ? own
                   : (parent < i ? layer[parent] : uint32_t{kAssemble});
  }

  std::vector<uint64_t> cuts;
  cuts.reserve(2 * spans.size());
  for (const TraceSpan& s : spans) {
    cuts.push_back(std::min(s.start_ns, root_end));
    cuts.push_back(std::min(s.start_ns + s.duration_ns, root_end));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  for (size_t c = 0; c + 1 < cuts.size(); ++c) {
    const uint64_t lo = cuts[c];
    // Innermost span covering [lo, cuts[c+1]): the latest opened. Spans
    // are stored in opening order, so that is the highest index.
    size_t owner = 0;
    for (size_t i = spans.size(); i-- > 1;) {
      if (spans[i].start_ns <= lo &&
          lo < spans[i].start_ns + spans[i].duration_ns) {
        owner = i;
        break;
      }
    }
    (*ns)[layer[owner]] += cuts[c + 1] - lo;
  }
  return root_end;
}

bool SpansNest(const QueryTrace& trace) {
  const std::vector<TraceSpan>& spans = trace.spans;
  if (spans.empty() || spans[0].start_ns != 0) return false;
  for (size_t i = 1; i < spans.size(); ++i) {
    const uint32_t p = spans[i].parent;
    if (p >= i) return false;
    const TraceSpan& s = spans[i];
    const TraceSpan& up = spans[p];
    if (s.start_ns < up.start_ns ||
        s.start_ns + s.duration_ns > up.start_ns + up.duration_ns) {
      return false;
    }
  }
  return true;
}

}  // namespace chunkcache::perfbench
