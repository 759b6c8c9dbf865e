// Model-based randomized testing of the replacement policies: each policy
// is driven with a random insert/access/erase/evict trace and checked
// against policy-specific invariants (LRU against an exact reference
// implementation; the CLOCK variants against a pinned victim-sequence
// hash; LFU-aging against a min-scan reference; every policy against
// structural guarantees and a per-op cost bound that is flat in size).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <list>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/replacement.h"
#include "common/random.h"

namespace chunkcache::cache {
namespace {

// Exact reference LRU.
class ReferenceLru {
 public:
  void Insert(uint64_t h) {
    order_.push_front(h);
    pos_[h] = order_.begin();
  }
  void Access(uint64_t h) {
    auto it = pos_.find(h);
    if (it == pos_.end()) return;
    order_.splice(order_.begin(), order_, it->second);
  }
  void Erase(uint64_t h) {
    auto it = pos_.find(h);
    if (it == pos_.end()) return;
    order_.erase(it->second);
    pos_.erase(it);
  }
  std::optional<uint64_t> Victim() const {
    if (order_.empty()) return std::nullopt;
    return order_.back();
  }
  size_t size() const { return pos_.size(); }

 private:
  std::list<uint64_t> order_;
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> pos_;
};

TEST(ReplacementModelTest, LruMatchesReferenceExactly) {
  for (uint64_t seed : {1, 2, 3, 4, 5, 6, 7, 8}) {
    Random rng(seed);
    LruPolicy policy;
    ReferenceLru reference;
    std::set<uint64_t> live;
    uint64_t next = 0;
    for (int step = 0; step < 5000; ++step) {
      const double roll = rng.NextDouble();
      if (roll < 0.4 || live.empty()) {
        const uint64_t h = next++;
        policy.OnInsert(h, 1.0);
        reference.Insert(h);
        live.insert(h);
      } else if (roll < 0.6) {
        // Access a random live handle.
        auto it = live.begin();
        std::advance(it, rng.Uniform(live.size()));
        policy.OnAccess(*it);
        reference.Access(*it);
      } else if (roll < 0.8) {
        auto it = live.begin();
        std::advance(it, rng.Uniform(live.size()));
        policy.OnErase(*it);
        reference.Erase(*it);
        live.erase(it);
      } else {
        const auto got = policy.PickVictim(1.0);
        const auto want = reference.Victim();
        ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
        if (got) {
          ASSERT_EQ(*got, *want) << "step " << step;
          // Evict it, as the cache would.
          policy.OnErase(*got);
          reference.Erase(*want);
          live.erase(*got);
        }
      }
      ASSERT_EQ(policy.size(), reference.size());
    }
  }
}

// gtest parameter names may not contain '-'.
std::string PolicyTestName(const ::testing::TestParamInfo<std::string>& i) {
  std::string n = i.param;
  for (char& c : n) {
    if (c == '-') c = '_';
  }
  return n;
}

// Structural invariants every policy must satisfy under random traces:
// victims are live entries; size bookkeeping is exact; a policy never
// "loses" entries (every live entry is eventually evictable).
class AnyPolicyModelTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AnyPolicyModelTest, VictimsAreAlwaysLiveAndSizeIsExact) {
  auto policy = MakePolicy(GetParam());
  ASSERT_NE(policy, nullptr);
  Random rng(99);
  std::set<uint64_t> live;
  uint64_t next = 0;
  for (int step = 0; step < 20000; ++step) {
    const double roll = rng.NextDouble();
    if (roll < 0.45 || live.empty()) {
      const uint64_t h = next++;
      policy->OnInsert(h, 1.0 + rng.NextDouble() * 100);
      live.insert(h);
    } else if (roll < 0.6) {
      auto it = live.begin();
      std::advance(it, rng.Uniform(live.size()));
      policy->OnAccess(*it);
    } else if (roll < 0.75) {
      auto it = live.begin();
      std::advance(it, rng.Uniform(live.size()));
      policy->OnErase(*it);
      live.erase(it);
    } else {
      auto victim = policy->PickVictim(1.0 + rng.NextDouble() * 10);
      ASSERT_EQ(victim.has_value(), !live.empty()) << "step " << step;
      if (victim) {
        ASSERT_TRUE(live.count(*victim)) << "dead victim at step " << step;
        policy->OnErase(*victim);
        live.erase(*victim);
      }
    }
    ASSERT_EQ(policy->size(), live.size()) << "step " << step;
  }
  // Drain: every remaining entry must be nominated eventually.
  while (!live.empty()) {
    auto victim = policy->PickVictim(1e9);
    ASSERT_TRUE(victim.has_value());
    ASSERT_TRUE(live.count(*victim));
    policy->OnErase(*victim);
    live.erase(*victim);
  }
  EXPECT_FALSE(policy->PickVictim(1.0).has_value());
}

INSTANTIATE_TEST_SUITE_P(Policies, AnyPolicyModelTest,
                         ::testing::ValuesIn(KnownPolicyNames()),
                         PolicyTestName);

// Keyed variant of the same fuzz: drives OnInsertKeyed with a small,
// recurring key universe so ghost-listed policies (ARC, 2Q) exercise
// their re-admission paths, not just cold inserts.
class KeyedPolicyModelTest : public ::testing::TestWithParam<std::string> {};

TEST_P(KeyedPolicyModelTest, KeyedReinsertionKeepsInvariants) {
  auto policy = MakePolicy(GetParam());
  ASSERT_NE(policy, nullptr);
  Random rng(4242);
  std::unordered_map<uint64_t, uint64_t> live;  // key -> handle
  uint64_t next_handle = 0;
  for (int step = 0; step < 20000; ++step) {
    const double roll = rng.NextDouble();
    if (roll < 0.45 || live.empty()) {
      // Keys recur from a universe of 64: evicted keys come back with
      // fresh handles, exactly like a re-fetched chunk.
      const uint64_t key = rng.Uniform(64);
      if (live.count(key)) continue;  // the real cache would hit instead
      const uint64_t h = next_handle++;
      policy->OnInsertKeyed(h, key, 1.0 + rng.NextDouble() * 100);
      live[key] = h;
    } else if (roll < 0.6) {
      auto it = live.begin();
      std::advance(it, rng.Uniform(live.size()));
      policy->OnAccess(it->second);
    } else {
      auto victim = policy->PickVictim(1.0 + rng.NextDouble() * 10);
      ASSERT_EQ(victim.has_value(), !live.empty()) << "step " << step;
      if (victim) {
        auto it = live.begin();
        for (; it != live.end(); ++it) {
          if (it->second == *victim) break;
        }
        ASSERT_NE(it, live.end()) << "dead victim at step " << step;
        policy->OnErase(*victim);
        live.erase(it);
      }
    }
    ASSERT_EQ(policy->size(), live.size()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, KeyedPolicyModelTest,
                         ::testing::ValuesIn(KnownPolicyNames()),
                         PolicyTestName);

TEST(MakePolicyTest, KnownNamesConstructAndUnknownIsRejected) {
  for (const std::string& name : KnownPolicyNames()) {
    EXPECT_NE(MakePolicy(name), nullptr) << name;
  }
  EXPECT_EQ(MakePolicy("bogus"), nullptr);
  EXPECT_EQ(MakePolicy(""), nullptr);
  EXPECT_EQ(MakePolicy("LRU"), nullptr);  // names are case-sensitive
}

// Live handles with O(1) add, remove and indexed pick (removal moves the
// last handle into the hole), so traces can hit or drop a random entry.
class LiveHandles {
 public:
  void Add(uint64_t h) {
    index_[h] = handles_.size();
    handles_.push_back(h);
  }
  void Remove(uint64_t h) {
    const size_t i = index_.at(h);
    handles_[i] = handles_.back();
    index_[handles_[i]] = i;
    handles_.pop_back();
    index_.erase(h);
  }
  uint64_t operator[](size_t i) const { return handles_[i]; }
  size_t size() const { return handles_.size(); }
  bool empty() const { return handles_.empty(); }

 private:
  std::vector<uint64_t> handles_;
  std::unordered_map<uint64_t, size_t> index_;  // handle -> position
};

// Golden eviction order for the CLOCK family. Each seed drives a cache-
// shaped trace (admissions that evict down to a per-seed capacity, hits,
// drops and explicit evictions, with varied benefits) and folds every
// victim into an FNV-1a hash. The pinned values were computed on the
// original vector-ring implementation, so any change to where a new slot
// enters the ring, how the arm steps, or how weights drain shows up here.
struct VictimTrace {
  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  uint64_t victims = 0;

  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
    ++victims;
  }
};

VictimTrace RunGoldenTrace(const std::string& name) {
  VictimTrace trace;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    auto policy = MakePolicy(name);
    Random rng(seed);
    const size_t cap = 8 + rng.Uniform(600);
    LiveHandles live;
    auto drop = [&](uint64_t h) {
      live.Remove(h);
      policy->OnErase(h);
    };
    auto evict = [&](double incoming) {
      const auto v = policy->PickVictim(incoming);
      if (!v) {
        trace.Add(~0ULL);
        return;
      }
      trace.Add(*v);
      drop(*v);
    };
    uint64_t next = 0;
    for (int step = 0; step < 12000; ++step) {
      const double roll = rng.NextDouble();
      if (roll < 0.5 || live.empty()) {
        const double benefit = 0.5 + rng.NextDouble() * 60;
        while (live.size() >= cap) evict(benefit);
        policy->OnInsert(next, benefit);
        live.Add(next++);
      } else if (roll < 0.8) {
        policy->OnAccess(live[rng.Uniform(live.size())]);
      } else if (roll < 0.9) {
        drop(live[rng.Uniform(live.size())]);
      } else {
        evict(1.0 + rng.NextDouble() * 10);
      }
    }
  }
  return trace;
}

TEST(ClockGoldenOrderTest, VictimSequenceMatchesPinnedHash) {
  const VictimTrace clock = RunGoldenTrace("clock");
  EXPECT_EQ(clock.victims, 90276u);
  EXPECT_EQ(clock.hash, 0xd623e3910f07e23bULL);
  const VictimTrace benefit = RunGoldenTrace("benefit-clock");
  EXPECT_EQ(benefit.victims, 90276u);
  EXPECT_EQ(benefit.hash, 0xbfad9cb117e7e181ULL);
}

// The LFU-aging victim choice as a plain O(n) min scan: the policy's
// original implementation, kept as the reference its ordered indexes must
// reproduce bit for bit.
class ReferenceLfuAging {
 public:
  ReferenceLfuAging(bool weight_by_benefit, uint32_t age_period)
      : weight_by_benefit_(weight_by_benefit), age_period_(age_period) {}

  void Insert(uint64_t handle, double benefit) {
    Tick();
    Entry e;
    e.freq = 1.0;
    e.epoch = epoch_;
    e.benefit = benefit > 0 ? benefit : 1.0;
    e.seq = seq_++;
    map_[handle] = e;
  }
  void Access(uint64_t handle) {
    auto it = map_.find(handle);
    if (it == map_.end()) return;
    Tick();
    Entry& e = it->second;
    const uint64_t delta = epoch_ - e.epoch;
    e.freq =
        (delta > 64 ? 0.0 : std::ldexp(e.freq, -static_cast<int>(delta))) +
        1.0;
    e.epoch = epoch_;
  }
  void Erase(uint64_t handle) { map_.erase(handle); }
  // True when `handle` has aged past the clamp and scores 0.
  bool Stale(uint64_t handle) const {
    return epoch_ - map_.at(handle).epoch > 64;
  }
  std::optional<uint64_t> Victim() const {
    const Entry* best = nullptr;
    uint64_t best_handle = 0;
    double best_score = 0;
    for (const auto& [handle, e] : map_) {
      const double score = Effective(e);
      if (!best || score < best_score ||
          (score == best_score && e.seq < best->seq)) {
        best = &e;
        best_handle = handle;
        best_score = score;
      }
    }
    if (!best) return std::nullopt;
    return best_handle;
  }

 private:
  struct Entry {
    double freq = 0;
    uint64_t epoch = 0;
    double benefit = 1;
    uint64_t seq = 0;
  };
  double Effective(const Entry& e) const {
    const uint64_t delta = epoch_ - e.epoch;
    const double freq =
        delta > 64 ? 0.0 : std::ldexp(e.freq, -static_cast<int>(delta));
    return weight_by_benefit_ ? freq * e.benefit : freq;
  }
  void Tick() {
    ++ops_;
    if (ops_ % age_period_ == 0) ++epoch_;
  }

  const bool weight_by_benefit_;
  const uint32_t age_period_;
  std::unordered_map<uint64_t, Entry> map_;
  uint64_t epoch_ = 0;
  uint64_t ops_ = 0;
  uint64_t seq_ = 0;
};

// Differential test of LfuAgingPolicy against the min scan. Short age
// periods push entries across the 64-epoch clamp within a trace; skewed
// accesses keep a hot set young while the rest ages out; benefits span
// nine decades and repeat exactly, so scores tie and seq breaks the ties.
TEST(ReplacementModelTest, LfuAgingMatchesMinScanAcrossTheAgeClamp) {
  size_t stale_victims = 0;
  size_t victims = 0;
  for (const bool weighted : {false, true}) {
    for (const uint32_t period : {1u, 2u, 7u}) {
      for (uint64_t seed = 1; seed <= 6; ++seed) {
        LfuAgingPolicy policy(weighted, period);
        ReferenceLfuAging reference(weighted, period);
        Random rng(seed * 1000 + period);
        const size_t cap = 16 + rng.Uniform(300);
        LiveHandles live;
        auto drop = [&](uint64_t h) {
          live.Remove(h);
          policy.OnErase(h);
          reference.Erase(h);
        };
        auto evict = [&](int step) {
          const auto got = policy.PickVictim(1.0);
          const auto want = reference.Victim();
          ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
          if (!got) return;
          ASSERT_EQ(*got, *want) << "weighted " << weighted << " period "
                                 << period << " seed " << seed << " step "
                                 << step;
          ++victims;
          if (reference.Stale(*got)) ++stale_victims;
          drop(*got);
        };
        uint64_t next = 0;
        for (int step = 0; step < 6000; ++step) {
          const double roll = rng.NextDouble();
          if (roll < 0.45 || live.empty()) {
            const double benefit =
                rng.Bernoulli(0.3)
                    ? 4.0
                    : std::pow(10.0, -3.0 + 9.0 * rng.NextDouble());
            while (live.size() >= cap) {
              evict(step);
              if (HasFatalFailure()) return;
            }
            policy.OnInsert(next, benefit);
            reference.Insert(next, benefit);
            live.Add(next++);
          } else if (roll < 0.85) {
            // Most hits land on the first few live slots: a hot set that
            // stays young while everything else ages toward the clamp.
            const size_t span = rng.Bernoulli(0.8)
                                    ? std::min<size_t>(8, live.size())
                                    : live.size();
            const uint64_t h = live[rng.Uniform(span)];
            policy.OnAccess(h);
            reference.Access(h);
          } else if (roll < 0.92) {
            drop(live[rng.Uniform(live.size())]);
          } else {
            evict(step);
            if (HasFatalFailure()) return;
          }
          ASSERT_EQ(policy.size(), live.size());
        }
      }
    }
  }
  // Both victim sources must be exercised: aged-out entries (score 0) and
  // ranked ones.
  EXPECT_GT(stale_victims, 1000u);
  EXPECT_GT(victims - stale_victims, 1000u);
}

// Complexity guard: the steady-state cost of one cache turnover (pick a
// victim, erase it, insert a new entry, hit a live one) must not grow with
// the number of live entries. An O(n) step anywhere on that path makes the
// 64k-entry run ~64x slower per op than the 1k-entry run and fails the
// bound; O(1) and O(log n) bookkeeping stay well inside it (cache misses on
// the larger tables account for most of the ratio that remains).
constexpr double kMaxCostRatio = 8.0;

// Best-of-3-windows nanoseconds per turnover with `live_entries`
// resident. The policy first turns over a quarter of its entries so the
// timed windows see its steady state, not the fill.
double NsPerTurnover(const std::string& name, size_t live_entries) {
  constexpr int kOps = 20000;
  auto policy = MakePolicy(name);
  Random rng(7);
  LiveHandles live;
  uint64_t next = 0;
  auto insert = [&] {
    policy->OnInsertKeyed(next, next, 1.0 + rng.NextDouble() * 100);
    live.Add(next++);
  };
  auto turnover = [&] {
    const auto victim = policy->PickVictim(1.0 + rng.NextDouble() * 10);
    live.Remove(*victim);
    policy->OnErase(*victim);
    insert();
    policy->OnAccess(live[rng.Uniform(live.size())]);
  };
  while (live.size() < live_entries) insert();
  for (size_t i = 0; i < live_entries / 4; ++i) turnover();
  double best = 1e300;
  for (int window = 0; window < 3; ++window) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kOps; ++i) turnover();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    best = std::min(
        best, std::chrono::duration<double, std::nano>(elapsed).count() / kOps);
  }
  EXPECT_EQ(policy->size(), live_entries) << name;
  return best;
}

class ReplacementComplexityTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(ReplacementComplexityTest, PerOpCostIsFlatFrom1kTo64kEntries) {
  const double small = NsPerTurnover(GetParam(), 1 << 10);
  const double large = NsPerTurnover(GetParam(), 1 << 16);
  EXPECT_LE(large / small, kMaxCostRatio)
      << GetParam() << ": " << small << " ns/op at 1k entries, " << large
      << " ns/op at 64k";
}

INSTANTIATE_TEST_SUITE_P(Policies, ReplacementComplexityTest,
                         ::testing::ValuesIn(KnownPolicyNames()),
                         PolicyTestName);

// Behavioral check: under a scan-like trace (insert many once-used
// entries), benefit-clock retains high-benefit entries far longer than
// LRU does.
TEST(ReplacementModelTest, BenefitClockShieldsExpensiveEntries) {
  auto run = [](const char* name) {
    auto policy = MakePolicy(name);
    // Two expensive entries among a stream of cheap ones; cache holds 10.
    std::set<uint64_t> live;
    uint64_t next = 0;
    auto insert = [&](double benefit) {
      while (live.size() >= 10) {
        auto v = policy->PickVictim(benefit);
        policy->OnErase(*v);
        live.erase(*v);
      }
      policy->OnInsert(next, benefit);
      live.insert(next);
      ++next;
    };
    insert(500.0);
    insert(500.0);
    const uint64_t expensive_a = 0, expensive_b = 1;
    for (int i = 0; i < 200; ++i) insert(1.0);
    return live.count(expensive_a) + live.count(expensive_b);
  };
  EXPECT_EQ(run("benefit-clock"), 2u);  // both survived the scan
  EXPECT_EQ(run("lru"), 0u);            // LRU flushed them
}

// Scan-resistance harness: a 10-entry working set is established (with
// whatever warm-up the policy needs to recognize it as valuable), then a
// one-pass scan of 200 never-repeated keys floods through a 10-entry
// budget. Returns how many working-set entries survive.
size_t SurvivorsAfterScan(const std::string& name, bool reinsert_warmup) {
  auto policy = MakePolicy(name);
  std::unordered_map<uint64_t, uint64_t> live;  // key -> handle
  uint64_t next_handle = 0;
  auto evict_to = [&](size_t cap) {
    while (live.size() >= cap) {
      auto v = policy->PickVictim(1.0);
      policy->OnErase(*v);
      for (auto it = live.begin(); it != live.end(); ++it) {
        if (it->second == *v) {
          live.erase(it);
          break;
        }
      }
    }
  };
  auto insert = [&](uint64_t key) {
    evict_to(10);
    const uint64_t h = next_handle++;
    policy->OnInsertKeyed(h, key, 1.0);
    live[key] = h;
  };
  // Working set: keys 0..9.
  for (uint64_t k = 0; k < 10; ++k) insert(k);
  if (reinsert_warmup) {
    // Evict everything and bring the set back: ghost-based policies (2Q)
    // promote on the re-fetch, exactly like a recurring chunk.
    evict_to(1);
    auto last = policy->PickVictim(1.0);
    if (last) {
      policy->OnErase(*last);
      live.clear();
    }
    for (uint64_t k = 0; k < 10; ++k) insert(k);
  }
  // Mark the set hot.
  for (int round = 0; round < 3; ++round) {
    for (uint64_t k = 0; k < 10; ++k) {
      auto it = live.find(k);
      if (it != live.end()) policy->OnAccess(it->second);
    }
  }
  // The flood: 200 cold keys, never re-referenced.
  for (uint64_t k = 1000; k < 1200; ++k) insert(k);
  size_t survivors = 0;
  for (uint64_t k = 0; k < 10; ++k) survivors += live.count(k);
  return survivors;
}

// ARC and SLRU shield a re-referenced working set from a one-pass scan;
// 2Q does the same once its ghost has seen the keys recur. LRU, by
// construction, loses the entire set.
TEST(ReplacementModelTest, ScanResistantPoliciesShieldTheWorkingSet) {
  EXPECT_EQ(SurvivorsAfterScan("lru", false), 0u);
  EXPECT_GE(SurvivorsAfterScan("arc", false), 5u);
  EXPECT_GE(SurvivorsAfterScan("slru", false), 5u);
  EXPECT_GE(SurvivorsAfterScan("2q", true), 5u);
  EXPECT_GE(SurvivorsAfterScan("lfu-aging", false), 5u);
}

// ARC adapts: a key that returns shortly after eviction registers a ghost
// hit, growing the recency target instead of silently missing.
TEST(ReplacementModelTest, ArcGhostHitAdjustsTarget) {
  ArcPolicy arc;
  // Fill, then evict one entry into the B1 ghost list.
  for (uint64_t k = 0; k < 4; ++k) arc.OnInsertKeyed(k, k, 1.0);
  auto v = arc.PickVictim(1.0);
  ASSERT_TRUE(v.has_value());
  arc.OnErase(*v);
  const double p_before = arc.target_p();
  ASSERT_GT(arc.ghost_size(), 0u);
  // Re-fetch the evicted key under a fresh handle: B1 hit, p grows.
  arc.OnInsertKeyed(100, *v, 1.0);
  EXPECT_GT(arc.target_p(), p_before);
}

}  // namespace
}  // namespace chunkcache::cache
