#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/random.h"
#include "index/btree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace chunkcache::index {
namespace {

using storage::BufferPool;
using storage::InMemoryDiskManager;

BTreePayload P(uint64_t a, uint64_t b = 0) { return BTreePayload{a, b}; }

struct TreeFixture {
  InMemoryDiskManager dm;
  BufferPool pool{&dm, 256};
};

TEST(BTreeTest, EmptyTreeGetIsNotFound) {
  TreeFixture f;
  auto t = BTree::Create(&f.pool);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->Get(1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(t->size(), 0u);
  EXPECT_EQ(t->height(), 1u);
  EXPECT_TRUE(t->CheckInvariants().ok());
}

TEST(BTreeTest, InsertAndGetSingle) {
  TreeFixture f;
  auto t = BTree::Create(&f.pool);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(t->Insert(5, P(50, 51)).ok());
  auto v = t->Get(5);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->v1, 50u);
  EXPECT_EQ(v->v2, 51u);
  EXPECT_EQ(t->size(), 1u);
}

TEST(BTreeTest, DuplicateInsertFailsButUpsertReplaces) {
  TreeFixture f;
  auto t = BTree::Create(&f.pool);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(t->Insert(5, P(1)).ok());
  EXPECT_EQ(t->Insert(5, P(2)).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(t->Get(5)->v1, 1u);
  ASSERT_TRUE(t->Upsert(5, P(2)).ok());
  EXPECT_EQ(t->Get(5)->v1, 2u);
  EXPECT_EQ(t->size(), 1u);
}

// Insertion orders exercised by the parameterized suite.
enum class Order { kAscending, kDescending, kRandom };

class BTreeInsertTest
    : public ::testing::TestWithParam<std::tuple<int, Order>> {};

TEST_P(BTreeInsertTest, InsertGetScanInvariants) {
  const int n = std::get<0>(GetParam());
  const Order order = std::get<1>(GetParam());
  TreeFixture f;
  auto t = BTree::Create(&f.pool);
  ASSERT_TRUE(t.ok());

  std::vector<uint64_t> keys(n);
  for (int i = 0; i < n; ++i) keys[i] = static_cast<uint64_t>(i) * 3 + 1;
  if (order == Order::kDescending) {
    std::reverse(keys.begin(), keys.end());
  } else if (order == Order::kRandom) {
    Random rng(n);
    for (int i = n - 1; i > 0; --i) {
      std::swap(keys[i], keys[rng.Uniform(i + 1)]);
    }
  }
  for (uint64_t k : keys) ASSERT_TRUE(t->Insert(k, P(k * 10)).ok());
  EXPECT_EQ(t->size(), static_cast<uint64_t>(n));
  ASSERT_TRUE(t->CheckInvariants().ok());

  // Point lookups.
  for (uint64_t k : keys) {
    auto v = t->Get(k);
    ASSERT_TRUE(v.ok()) << "key " << k;
    EXPECT_EQ(v->v1, k * 10);
  }
  // Misses between keys.
  EXPECT_FALSE(t->Get(0).ok());
  EXPECT_FALSE(t->Get(2).ok());

  // Full scan is sorted and complete.
  std::vector<uint64_t> scanned;
  ASSERT_TRUE(t->ScanRange(0, UINT64_MAX,
                           [&](uint64_t k, const BTreePayload& p) {
                             EXPECT_EQ(p.v1, k * 10);
                             scanned.push_back(k);
                             return true;
                           })
                  .ok());
  ASSERT_EQ(scanned.size(), static_cast<size_t>(n));
  EXPECT_TRUE(std::is_sorted(scanned.begin(), scanned.end()));

  // Sub-range scan.
  scanned.clear();
  ASSERT_TRUE(t->ScanRange(10, 40,
                           [&](uint64_t k, const BTreePayload&) {
                             scanned.push_back(k);
                             return true;
                           })
                  .ok());
  for (uint64_t k : scanned) {
    EXPECT_GE(k, 10u);
    EXPECT_LE(k, 40u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BTreeInsertTest,
    ::testing::Combine(::testing::Values(1, 10, 200, 2000, 20000),
                       ::testing::Values(Order::kAscending, Order::kDescending,
                                         Order::kRandom)));

TEST(BTreeTest, GrowsBeyondOneLevel) {
  TreeFixture f;
  auto t = BTree::Create(&f.pool);
  ASSERT_TRUE(t.ok());
  for (uint64_t k = 0; k < 5000; ++k) ASSERT_TRUE(t->Insert(k, P(k)).ok());
  EXPECT_GE(t->height(), 2u);
  ASSERT_TRUE(t->CheckInvariants().ok());
}

TEST(BTreeTest, DeleteFromLeafNoUnderflow) {
  TreeFixture f;
  auto t = BTree::Create(&f.pool);
  ASSERT_TRUE(t.ok());
  for (uint64_t k = 0; k < 50; ++k) ASSERT_TRUE(t->Insert(k, P(k)).ok());
  ASSERT_TRUE(t->Delete(25).ok());
  EXPECT_EQ(t->size(), 49u);
  EXPECT_FALSE(t->Get(25).ok());
  EXPECT_TRUE(t->Get(24).ok());
  EXPECT_TRUE(t->Get(26).ok());
  EXPECT_EQ(t->Delete(25).code(), StatusCode::kNotFound);
  ASSERT_TRUE(t->CheckInvariants().ok());
}

TEST(BTreeTest, DeleteEverythingForwards) {
  TreeFixture f;
  auto t = BTree::Create(&f.pool);
  ASSERT_TRUE(t.ok());
  const uint64_t n = 3000;
  for (uint64_t k = 0; k < n; ++k) ASSERT_TRUE(t->Insert(k, P(k)).ok());
  for (uint64_t k = 0; k < n; ++k) {
    ASSERT_TRUE(t->Delete(k).ok()) << "key " << k;
  }
  EXPECT_EQ(t->size(), 0u);
  ASSERT_TRUE(t->CheckInvariants().ok());
  for (uint64_t k = 0; k < n; k += 37) EXPECT_FALSE(t->Get(k).ok());
}

TEST(BTreeTest, DeleteEverythingBackwards) {
  TreeFixture f;
  auto t = BTree::Create(&f.pool);
  ASSERT_TRUE(t.ok());
  const uint64_t n = 3000;
  for (uint64_t k = 0; k < n; ++k) ASSERT_TRUE(t->Insert(k, P(k)).ok());
  for (uint64_t k = n; k-- > 0;) {
    ASSERT_TRUE(t->Delete(k).ok()) << "key " << k;
  }
  EXPECT_EQ(t->size(), 0u);
  ASSERT_TRUE(t->CheckInvariants().ok());
}

TEST(BTreeTest, RandomInsertDeleteAgainstReferenceMap) {
  TreeFixture f;
  auto t = BTree::Create(&f.pool);
  ASSERT_TRUE(t.ok());
  std::map<uint64_t, uint64_t> reference;
  Random rng(77);
  for (int step = 0; step < 20000; ++step) {
    const uint64_t key = rng.Uniform(500);
    if (rng.Bernoulli(0.6)) {
      const uint64_t val = rng.Next64();
      ASSERT_TRUE(t->Upsert(key, P(val)).ok());
      reference[key] = val;
    } else {
      Status s = t->Delete(key);
      if (reference.erase(key) > 0) {
        ASSERT_TRUE(s.ok());
      } else {
        ASSERT_EQ(s.code(), StatusCode::kNotFound);
      }
    }
    if (step % 2500 == 0) ASSERT_TRUE(t->CheckInvariants().ok());
  }
  ASSERT_TRUE(t->CheckInvariants().ok());
  EXPECT_EQ(t->size(), reference.size());
  for (const auto& [k, v] : reference) {
    auto got = t->Get(k);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->v1, v);
  }
}

TEST(BTreeTest, BulkLoadMatchesPointInserts) {
  TreeFixture f;
  auto t = BTree::Create(&f.pool);
  ASSERT_TRUE(t.ok());
  std::vector<std::pair<uint64_t, BTreePayload>> input;
  for (uint64_t k = 0; k < 10000; ++k) input.emplace_back(k * 2, P(k));
  ASSERT_TRUE(t->BulkLoad(input).ok());
  EXPECT_EQ(t->size(), 10000u);
  ASSERT_TRUE(t->CheckInvariants().ok());
  for (uint64_t k = 0; k < 10000; k += 113) {
    auto v = t->Get(k * 2);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->v1, k);
    EXPECT_FALSE(t->Get(k * 2 + 1).ok());
  }
}

TEST(BTreeTest, BulkLoadRejectsUnsortedAndNonEmpty) {
  TreeFixture f;
  auto t = BTree::Create(&f.pool);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->BulkLoad({{3, P(0)}, {2, P(0)}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t->BulkLoad({{3, P(0)}, {3, P(0)}}).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(t->Insert(1, P(0)).ok());
  EXPECT_EQ(t->BulkLoad({{2, P(0)}}).code(), StatusCode::kInvalidArgument);
}

TEST(BTreeTest, BulkLoadedTreeAcceptsFurtherInsertsAndDeletes) {
  TreeFixture f;
  auto t = BTree::Create(&f.pool);
  ASSERT_TRUE(t.ok());
  std::vector<std::pair<uint64_t, BTreePayload>> input;
  for (uint64_t k = 0; k < 5000; ++k) input.emplace_back(k * 2, P(k));
  ASSERT_TRUE(t->BulkLoad(input).ok());
  for (uint64_t k = 1; k < 2000; k += 2) ASSERT_TRUE(t->Insert(k, P(k)).ok());
  for (uint64_t k = 0; k < 1000; k += 2) ASSERT_TRUE(t->Delete(k).ok());
  ASSERT_TRUE(t->CheckInvariants().ok());
  EXPECT_EQ(t->size(), 5000u + 1000u - 500u);
}

TEST(BTreeTest, PersistsAcrossReopen) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 256);
  uint32_t file_id;
  {
    auto t = BTree::Create(&pool);
    ASSERT_TRUE(t.ok());
    file_id = t->file_id();
    for (uint64_t k = 0; k < 1000; ++k) ASSERT_TRUE(t->Insert(k, P(k)).ok());
    ASSERT_TRUE(t->SyncMeta().ok());
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  auto t = BTree::Open(&pool, file_id);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->size(), 1000u);
  for (uint64_t k = 0; k < 1000; k += 97) {
    auto v = t->Get(k);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->v1, k);
  }
  ASSERT_TRUE(t->CheckInvariants().ok());
}

TEST(BTreeTest, ScanEarlyStop) {
  TreeFixture f;
  auto t = BTree::Create(&f.pool);
  ASSERT_TRUE(t.ok());
  for (uint64_t k = 0; k < 1000; ++k) ASSERT_TRUE(t->Insert(k, P(k)).ok());
  int visited = 0;
  ASSERT_TRUE(t->ScanRange(0, UINT64_MAX,
                           [&](uint64_t, const BTreePayload&) {
                             return ++visited < 10;
                           })
                  .ok());
  EXPECT_EQ(visited, 10);
}

TEST(BTreeTest, ScanEmptyRange) {
  TreeFixture f;
  auto t = BTree::Create(&f.pool);
  ASSERT_TRUE(t.ok());
  for (uint64_t k = 100; k < 200; ++k) ASSERT_TRUE(t->Insert(k, P(k)).ok());
  int visited = 0;
  ASSERT_TRUE(t->ScanRange(300, 400,
                           [&](uint64_t, const BTreePayload&) {
                             ++visited;
                             return true;
                           })
                  .ok());
  EXPECT_EQ(visited, 0);
  // lo > hi is a no-op, not an error.
  ASSERT_TRUE(t->ScanRange(50, 10,
                           [&](uint64_t, const BTreePayload&) {
                             ++visited;
                             return true;
                           })
                  .ok());
  EXPECT_EQ(visited, 0);
}

// ------------------------------- GetSorted ----------------------------------

using Hits = std::vector<std::pair<uint64_t, BTreePayload>>;

Hits GetSortedHits(BTree& t, const std::vector<uint64_t>& keys) {
  Hits out;
  EXPECT_TRUE(t.GetSorted(keys, [&out](uint64_t k, const BTreePayload& p) {
                 out.emplace_back(k, p);
               }).ok());
  return out;
}

Hits PerKeyHits(BTree& t, const std::vector<uint64_t>& keys) {
  Hits out;
  for (const uint64_t k : keys) {
    auto v = t.Get(k);
    if (v.ok()) {
      out.emplace_back(k, *v);
    } else {
      EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
    }
  }
  return out;
}

uint64_t Fetches(const BufferPool& pool) {
  const auto s = pool.stats();
  return s.hits + s.misses;
}

// A bulk-loaded leaf holds (4096 - 16) / 24 = 170 entries and an internal
// node 340 children, so these sizes give trees of height 1, 2 and 3.
uint64_t KeysForHeight(uint32_t height) {
  return height == 1 ? 150 : height == 2 ? 6000 : 60000;
}

class BTreeGetSortedTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BTreeGetSortedTest, AgreesWithPerKeyGetOnSparseKeys) {
  const uint32_t height = GetParam();
  TreeFixture f;
  auto t = BTree::Create(&f.pool);
  ASSERT_TRUE(t.ok());
  Random rng(height * 31 + 5);
  // Sparse keys with random gaps: absent keys sit below the first key,
  // between keys of one leaf, between leaves and past the last leaf.
  std::vector<std::pair<uint64_t, BTreePayload>> input;
  uint64_t key = 10;
  for (uint64_t i = 0; i < KeysForHeight(height); ++i) {
    key += 1 + rng.Uniform(7);
    input.emplace_back(key, P(i, key));
  }
  ASSERT_TRUE(t->BulkLoad(input).ok());
  ASSERT_EQ(t->height(), height);
  const uint64_t max_key = input.back().first;

  auto random_query = [&](size_t n) {
    std::vector<uint64_t> q;
    for (size_t i = 0; i < n; ++i) {
      const double roll = rng.NextDouble();
      if (roll < 0.5) {
        q.push_back(input[rng.Uniform(input.size())].first);  // present
      } else if (roll < 0.9) {
        q.push_back(rng.Uniform(max_key + 1));  // mostly absent
      } else {
        q.push_back(max_key + 1 + rng.Uniform(100));  // past the last leaf
      }
      if (rng.NextDouble() < 0.1) q.push_back(q.back());  // duplicate
    }
    std::sort(q.begin(), q.end());
    return q;
  };

  EXPECT_TRUE(GetSortedHits(*t, {}).empty());
  for (int trial = 0; trial < 30; ++trial) {
    const auto q = random_query(rng.Uniform(400));
    ASSERT_EQ(GetSortedHits(*t, q), PerKeyHits(*t, q)) << "trial " << trial;
  }
  // Only absent keys: below the first key, and past the last leaf.
  const std::vector<uint64_t> below = {0, 1, 2, 3};
  EXPECT_TRUE(GetSortedHits(*t, below).empty());
  const std::vector<uint64_t> past = {max_key + 1, max_key + 5, max_key + 5};
  EXPECT_TRUE(GetSortedHits(*t, past).empty());

  // Deleting keys leaves separators that no longer exist as entries.
  for (size_t i = 0; i < input.size(); i += 3) {
    ASSERT_TRUE(t->Delete(input[i].first).ok());
  }
  ASSERT_TRUE(t->CheckInvariants().ok());
  for (int trial = 0; trial < 30; ++trial) {
    const auto q = random_query(rng.Uniform(400));
    ASSERT_EQ(GetSortedHits(*t, q), PerKeyHits(*t, q))
        << "after deletes, trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Heights, BTreeGetSortedTest,
                         ::testing::Values(1u, 2u, 3u));

TEST(BTreeGetSortedBoundTest, KeysInOneLeafCostOneDescent) {
  TreeFixture f;
  auto t = BTree::Create(&f.pool);
  ASSERT_TRUE(t.ok());
  std::vector<std::pair<uint64_t, BTreePayload>> input;
  for (uint64_t k = 0; k < KeysForHeight(3); ++k) {
    input.emplace_back(k * 2, P(k));
  }
  ASSERT_TRUE(t->BulkLoad(input).ok());
  ASSERT_EQ(t->height(), 3u);
  // Keys 0..98 (present and absent) all live in the first leaf.
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 99; ++k) keys.push_back(k);
  uint64_t before = Fetches(f.pool);
  EXPECT_EQ(GetSortedHits(*t, keys).size(), 50u);
  EXPECT_LE(Fetches(f.pool) - before, t->height());
  // The per-key path pays one descent per key.
  before = Fetches(f.pool);
  EXPECT_EQ(PerKeyHits(*t, keys).size(), 50u);
  EXPECT_EQ(Fetches(f.pool) - before, keys.size() * t->height());
}

TEST(BTreeGetSortedBoundTest, CostIsOneDescentPerLeafTouched) {
  TreeFixture f;
  auto t = BTree::Create(&f.pool);
  ASSERT_TRUE(t.ok());
  std::vector<std::pair<uint64_t, BTreePayload>> input;
  for (uint64_t k = 0; k < KeysForHeight(3); ++k) {
    input.emplace_back(k, P(k));
  }
  ASSERT_TRUE(t->BulkLoad(input).ok());
  // Bulk load fills leaves with 170 consecutive keys each.
  constexpr uint64_t kPerLeaf = 170;
  Random rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<uint64_t> keys;
    for (int i = 0; i < 500; ++i) keys.push_back(rng.Uniform(input.size()));
    std::sort(keys.begin(), keys.end());
    std::vector<uint64_t> leaves;
    for (const uint64_t k : keys) leaves.push_back(k / kPerLeaf);
    leaves.erase(std::unique(leaves.begin(), leaves.end()), leaves.end());
    const uint64_t before = Fetches(f.pool);
    EXPECT_EQ(GetSortedHits(*t, keys).size(), keys.size());
    EXPECT_EQ(Fetches(f.pool) - before, leaves.size() * t->height());
  }
}

TEST(BTreeGetSortedBoundTest, RejectsDescendingKeys) {
  TreeFixture f;
  auto t = BTree::Create(&f.pool);
  ASSERT_TRUE(t.ok());
  for (uint64_t k = 0; k < 1000; ++k) ASSERT_TRUE(t->Insert(k, P(k)).ok());
  const std::vector<uint64_t> keys = {5, 9, 7};
  EXPECT_EQ(t->GetSorted(keys, [](uint64_t, const BTreePayload&) {}).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace chunkcache::index
