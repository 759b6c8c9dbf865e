#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/fact_file.h"

namespace chunkcache::storage {
namespace {

// ------------------------------ DiskManager ---------------------------------

TEST(InMemoryDiskManagerTest, CreateAllocateReadWrite) {
  InMemoryDiskManager dm;
  const uint32_t f = dm.CreateFile();
  EXPECT_EQ(f, 1u);
  auto pid = dm.AllocatePage(f);
  ASSERT_TRUE(pid.ok());
  EXPECT_EQ(pid->page_no, 0u);

  Page p;
  p.Zero();
  p.data[0] = 0xAB;
  p.data[kPageSize - 1] = 0xCD;
  ASSERT_TRUE(dm.WritePage(*pid, p).ok());

  Page q;
  ASSERT_TRUE(dm.ReadPage(*pid, &q).ok());
  EXPECT_EQ(q.data[0], 0xAB);
  EXPECT_EQ(q.data[kPageSize - 1], 0xCD);
  EXPECT_EQ(dm.stats().reads, 1u);
  EXPECT_EQ(dm.stats().writes, 1u);
}

TEST(InMemoryDiskManagerTest, FreshPageIsZeroed) {
  InMemoryDiskManager dm;
  const uint32_t f = dm.CreateFile();
  auto pid = dm.AllocatePage(f);
  ASSERT_TRUE(pid.ok());
  Page p;
  ASSERT_TRUE(dm.ReadPage(*pid, &p).ok());
  for (uint32_t i = 0; i < kPageSize; i += 512) EXPECT_EQ(p.data[i], 0);
}

TEST(InMemoryDiskManagerTest, ErrorsOnBadIds) {
  InMemoryDiskManager dm;
  Page p;
  EXPECT_EQ(dm.ReadPage(PageId{1, 0}, &p).code(), StatusCode::kIoError);
  EXPECT_EQ(dm.AllocatePage(7).status().code(), StatusCode::kInvalidArgument);
  const uint32_t f = dm.CreateFile();
  EXPECT_EQ(dm.ReadPage(PageId{f, 3}, &p).code(), StatusCode::kIoError);
  EXPECT_EQ(dm.WritePage(PageId{f, 3}, p).code(), StatusCode::kIoError);
}

TEST(InMemoryDiskManagerTest, MultipleFilesAreIndependent) {
  InMemoryDiskManager dm;
  const uint32_t f1 = dm.CreateFile();
  const uint32_t f2 = dm.CreateFile();
  ASSERT_TRUE(dm.AllocatePage(f1).ok());
  ASSERT_TRUE(dm.AllocatePage(f2).ok());
  Page a, b;
  a.Zero();
  b.Zero();
  a.data[7] = 1;
  b.data[7] = 2;
  ASSERT_TRUE(dm.WritePage(PageId{f1, 0}, a).ok());
  ASSERT_TRUE(dm.WritePage(PageId{f2, 0}, b).ok());
  Page out;
  ASSERT_TRUE(dm.ReadPage(PageId{f1, 0}, &out).ok());
  EXPECT_EQ(out.data[7], 1);
  ASSERT_TRUE(dm.ReadPage(PageId{f2, 0}, &out).ok());
  EXPECT_EQ(out.data[7], 2);
  EXPECT_EQ(dm.FilePageCount(f1), 1u);
  EXPECT_EQ(dm.FilePageCount(f2), 1u);
}

TEST(FileDiskManagerTest, RoundTripsAcrossReopen) {
  const std::string path = testing::TempDir() + "/chunkcache_fdm_test.db";
  std::remove(path.c_str());
  uint32_t f1, f2;
  {
    auto dm = FileDiskManager::Open(path);
    ASSERT_TRUE(dm.ok());
    f1 = (*dm)->CreateFile();
    f2 = (*dm)->CreateFile();
    Page p;
    p.Zero();
    for (int i = 0; i < 5; ++i) {
      auto pid = (*dm)->AllocatePage(f1);
      ASSERT_TRUE(pid.ok());
      p.data[0] = static_cast<uint8_t>(i);
      ASSERT_TRUE((*dm)->WritePage(*pid, p).ok());
    }
    auto pid2 = (*dm)->AllocatePage(f2);
    ASSERT_TRUE(pid2.ok());
    p.data[0] = 99;
    ASSERT_TRUE((*dm)->WritePage(*pid2, p).ok());
    ASSERT_TRUE((*dm)->Sync().ok());
  }
  {
    auto dm = FileDiskManager::Open(path);
    ASSERT_TRUE(dm.ok());
    EXPECT_EQ((*dm)->FilePageCount(f1), 5u);
    EXPECT_EQ((*dm)->FilePageCount(f2), 1u);
    Page p;
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          (*dm)->ReadPage(PageId{f1, static_cast<uint32_t>(i)}, &p).ok());
      EXPECT_EQ(p.data[0], static_cast<uint8_t>(i));
    }
    ASSERT_TRUE((*dm)->ReadPage(PageId{f2, 0}, &p).ok());
    EXPECT_EQ(p.data[0], 99);
  }
  std::remove(path.c_str());
}

TEST(FileDiskManagerTest, LargeDirectorySpansMultiplePages) {
  // 3000 pages across several files make the serialized directory larger
  // than one 4 KiB page, exercising the multi-page directory path.
  const std::string path = testing::TempDir() + "/chunkcache_fdm_large.db";
  std::remove(path.c_str());
  std::vector<uint32_t> files;
  {
    auto dm = FileDiskManager::Open(path);
    ASSERT_TRUE(dm.ok());
    Page p;
    p.Zero();
    for (int f = 0; f < 3; ++f) {
      files.push_back((*dm)->CreateFile());
      for (int i = 0; i < 1000; ++i) {
        auto pid = (*dm)->AllocatePage(files.back());
        ASSERT_TRUE(pid.ok());
        *p.As<uint32_t>() = static_cast<uint32_t>(f * 1000 + i);
        ASSERT_TRUE((*dm)->WritePage(*pid, p).ok());
      }
    }
    ASSERT_TRUE((*dm)->Sync().ok());
  }
  {
    auto dm = FileDiskManager::Open(path);
    ASSERT_TRUE(dm.ok());
    Page p;
    for (int f = 0; f < 3; ++f) {
      ASSERT_EQ((*dm)->FilePageCount(files[f]), 1000u);
      for (uint32_t i = 0; i < 1000; i += 331) {
        ASSERT_TRUE((*dm)->ReadPage(PageId{files[f], i}, &p).ok());
        EXPECT_EQ(*p.As<uint32_t>(), static_cast<uint32_t>(f * 1000 + i));
      }
    }
  }
  std::remove(path.c_str());
}

TEST(FileDiskManagerTest, DestructorPersistsWithoutExplicitSync) {
  const std::string path = testing::TempDir() + "/chunkcache_fdm_dtor.db";
  std::remove(path.c_str());
  uint32_t file_id;
  {
    auto dm = FileDiskManager::Open(path);
    ASSERT_TRUE(dm.ok());
    file_id = (*dm)->CreateFile();
    auto pid = (*dm)->AllocatePage(file_id);
    ASSERT_TRUE(pid.ok());
    Page p;
    p.Zero();
    p.data[17] = 99;
    ASSERT_TRUE((*dm)->WritePage(*pid, p).ok());
    // No Sync(): the destructor must save the directory.
  }
  auto dm = FileDiskManager::Open(path);
  ASSERT_TRUE(dm.ok());
  EXPECT_EQ((*dm)->FilePageCount(file_id), 1u);
  Page p;
  ASSERT_TRUE((*dm)->ReadPage(PageId{file_id, 0}, &p).ok());
  EXPECT_EQ(p.data[17], 99);
  std::remove(path.c_str());
}

TEST(FileDiskManagerTest, ConcurrentAllocateReadWriteOfDistinctPages) {
  // The DiskManager contract: page reads and writes of distinct pages run
  // concurrently with each other and with allocation.
  const std::string path =
      testing::TempDir() + "/chunkcache_fdm_concurrent.db";
  std::remove(path.c_str());
  constexpr int kThreads = 4;
  constexpr uint32_t kPages = 150;
  std::vector<uint32_t> files(kThreads);
  {
    auto dm = FileDiskManager::Open(path);
    ASSERT_TRUE(dm.ok());
    for (auto& f : files) f = (*dm)->CreateFile();
    std::vector<int> errors(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Random rng(7 + t);
        Page p;
        p.Zero();
        for (uint32_t i = 0; i < kPages; ++i) {
          auto pid = (*dm)->AllocatePage(files[t]);
          if (!pid.ok() || pid->page_no != i) {
            ++errors[t];
            return;
          }
          *p.As<uint32_t>() = files[t] * 1000 + i;
          if (!(*dm)->WritePage(*pid, p).ok()) ++errors[t];
          const uint32_t back = static_cast<uint32_t>(rng.Uniform(i + 1));
          Page out;
          if (!(*dm)->ReadPage({files[t], back}, &out).ok() ||
              *out.As<uint32_t>() != files[t] * 1000 + back) {
            ++errors[t];
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) EXPECT_EQ(errors[t], 0);
    EXPECT_EQ((*dm)->stats().allocations, kThreads * kPages);
    ASSERT_TRUE((*dm)->Sync().ok());
  }
  auto dm = FileDiskManager::Open(path);
  ASSERT_TRUE(dm.ok());
  Page out;
  for (const uint32_t f : files) {
    ASSERT_EQ((*dm)->FilePageCount(f), kPages);
    for (uint32_t i = 0; i < kPages; ++i) {
      ASSERT_TRUE((*dm)->ReadPage({f, i}, &out).ok());
      EXPECT_EQ(*out.As<uint32_t>(), f * 1000 + i);
    }
  }
  std::remove(path.c_str());
}

// ------------------------------ BufferPool ----------------------------------

TEST(BufferPoolTest, HitAvoidsPhysicalRead) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 4);
  const uint32_t f = dm.CreateFile();
  PageId pid;
  {
    auto g = pool.Allocate(f);
    ASSERT_TRUE(g.ok());
    pid = g->id();
    g->page()->data[0] = 42;
    g->MarkDirty();
  }
  dm.ResetStats();
  {
    auto g = pool.Fetch(pid);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g->page()->data[0], 42);
  }
  EXPECT_EQ(dm.stats().reads, 0u);  // still cached
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(BufferPoolTest, EvictionWritesBackDirtyPage) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 2);
  const uint32_t f = dm.CreateFile();
  PageId first;
  {
    auto g = pool.Allocate(f);
    ASSERT_TRUE(g.ok());
    first = g->id();
    g->page()->data[100] = 7;
    g->MarkDirty();
  }
  // Fill the pool with more pages so `first` gets evicted.
  for (int i = 0; i < 4; ++i) {
    auto g = pool.Allocate(f);
    ASSERT_TRUE(g.ok());
  }
  // Read back through a fresh fetch: the data must have been written back.
  auto g = pool.Fetch(first);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->page()->data[100], 7);
  EXPECT_GT(pool.stats().evictions, 0u);
  EXPECT_GT(pool.stats().dirty_writebacks, 0u);
}

TEST(BufferPoolTest, AllPinnedExhaustsPool) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 2);
  const uint32_t f = dm.CreateFile();
  auto g1 = pool.Allocate(f);
  auto g2 = pool.Allocate(f);
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  auto g3 = pool.Allocate(f);
  EXPECT_FALSE(g3.ok());
  EXPECT_EQ(g3.status().code(), StatusCode::kResourceExhausted);
  // Releasing one pin makes room again.
  g1->Release();
  auto g4 = pool.Allocate(f);
  EXPECT_TRUE(g4.ok());
}

TEST(BufferPoolTest, RefetchAfterUnpinCountsHit) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 8);
  const uint32_t f = dm.CreateFile();
  PageId pid;
  {
    auto g = pool.Allocate(f);
    ASSERT_TRUE(g.ok());
    pid = g->id();
  }
  const uint64_t misses_before = pool.stats().misses;
  for (int i = 0; i < 5; ++i) {
    auto g = pool.Fetch(pid);
    ASSERT_TRUE(g.ok());
  }
  EXPECT_EQ(pool.stats().misses, misses_before);
  EXPECT_GE(pool.stats().hits, 5u);
}

TEST(BufferPoolTest, EvictAllDropsCleanAndDirtyPages) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 8);
  const uint32_t f = dm.CreateFile();
  PageId pid;
  {
    auto g = pool.Allocate(f);
    ASSERT_TRUE(g.ok());
    pid = g->id();
    g->page()->data[3] = 9;
    g->MarkDirty();
  }
  ASSERT_TRUE(pool.EvictAll().ok());
  dm.ResetStats();
  auto g = pool.Fetch(pid);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->page()->data[3], 9);
  EXPECT_EQ(dm.stats().reads, 1u);  // truly refetched from "disk"
}

TEST(BufferPoolTest, GuardMoveTransfersPin) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 2);
  const uint32_t f = dm.CreateFile();
  auto g1 = pool.Allocate(f);
  ASSERT_TRUE(g1.ok());
  PageGuard moved = std::move(*g1);
  EXPECT_TRUE(moved.valid());
  moved.Release();
  // After release both frames are available again.
  auto g2 = pool.Allocate(f);
  auto g3 = pool.Allocate(f);
  EXPECT_TRUE(g2.ok());
  EXPECT_TRUE(g3.ok());
}

// ------------------------- partitioned BufferPool ---------------------------

TEST(PartitionedPoolTest, PartitionCountFollowsFrameCount) {
  InMemoryDiskManager dm;
  // Largest power of two <= 16 that leaves >= 64 frames per partition.
  const std::vector<std::pair<uint32_t, uint32_t>> expected = {
      {1, 1},    {2, 1},    {127, 1},  {128, 2},  {255, 2},
      {256, 4},  {512, 8},  {1024, 16}, {2048, 16}, {4096, 16}};
  for (const auto& [frames, partitions] : expected) {
    BufferPool pool(&dm, frames);
    EXPECT_EQ(pool.num_partitions(), partitions) << frames << " frames";
    EXPECT_EQ(pool.capacity(), frames);
  }
}

TEST(PartitionedPoolTest, StatsSumThePartitionsExactly) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 4096);
  ASSERT_EQ(pool.num_partitions(), 16u);
  const uint32_t f = dm.CreateFile();
  const uint32_t n = 1000;
  std::vector<PageId> ids;
  for (uint32_t i = 0; i < n; ++i) {
    auto g = pool.Allocate(f);
    ASSERT_TRUE(g.ok());
    ids.push_back(g->id());
  }
  ASSERT_TRUE(pool.EvictAll().ok());
  BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.dirty_writebacks, n);  // every fresh page was dirty
  EXPECT_EQ(s.hits + s.misses, 0u);
  for (int round = 0; round < 3; ++round) {
    for (const PageId id : ids) ASSERT_TRUE(pool.Fetch(id).ok());
  }
  s = pool.stats();
  EXPECT_EQ(s.misses, n);  // one cold miss per page, in whatever partition
  EXPECT_EQ(s.hits, 2 * n);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(dm.stats().reads, n);
  pool.ResetStats();
  s = pool.stats();
  EXPECT_EQ(s.hits + s.misses + s.evictions + s.dirty_writebacks, 0u);
}

TEST(PartitionedPoolTest, FlushAllAndEvictAllCoverEveryPartition) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 4096);
  const uint32_t f = dm.CreateFile();
  const uint32_t n = 2000;
  std::vector<PageId> ids;
  for (uint32_t i = 0; i < n; ++i) {
    auto g = pool.Allocate(f);
    ASSERT_TRUE(g.ok());
    *g->page()->As<uint32_t>() = i + 1;
    g->MarkDirty();
    ids.push_back(g->id());
  }
  dm.ResetStats();
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(dm.stats().writes, n);
  // Every page reached the disk, whichever partition held it.
  Page out;
  for (uint32_t i = 0; i < n; ++i) {
    ASSERT_TRUE(dm.ReadPage(ids[i], &out).ok());
    ASSERT_EQ(*out.As<uint32_t>(), i + 1);
  }
  // A second flush finds nothing dirty; the pages stay cached.
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(dm.stats().writes, n);
  pool.ResetStats();
  for (const PageId id : ids) ASSERT_TRUE(pool.Fetch(id).ok());
  EXPECT_EQ(pool.stats().hits, n);

  ASSERT_TRUE(pool.EvictAll().ok());
  pool.ResetStats();
  for (uint32_t i = 0; i < n; ++i) {
    auto g = pool.Fetch(ids[i]);
    ASSERT_TRUE(g.ok());
    ASSERT_EQ(*g->page()->As<uint32_t>(), i + 1);
  }
  EXPECT_EQ(pool.stats().misses, n);  // no partition kept a page
}

TEST(PartitionedPoolTest, SmallPoolExhaustsOnlyWhenEveryFrameIsPinned) {
  for (const uint32_t frames : {64u, 127u}) {
    InMemoryDiskManager dm;
    BufferPool pool(&dm, frames);
    ASSERT_EQ(pool.num_partitions(), 1u);
    const uint32_t f = dm.CreateFile();
    std::vector<PageGuard> pinned;
    for (uint32_t i = 0; i < frames; ++i) {
      auto g = pool.Allocate(f);
      ASSERT_TRUE(g.ok()) << "pin " << i << " of " << frames;
      pinned.push_back(std::move(*g));
    }
    auto over = pool.Allocate(f);
    EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
    pinned[frames / 2].Release();
    EXPECT_TRUE(pool.Allocate(f).ok());
  }
}

TEST(PartitionedPoolTest, ExhaustionIsPerPartition) {
  // Two partitions of 64 frames: pinning fails once the new page's own
  // partition is full, which takes at least 64 pins and at most 128.
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 128);
  ASSERT_EQ(pool.num_partitions(), 2u);
  const uint32_t f = dm.CreateFile();
  std::vector<PageGuard> pinned;
  Status last = Status::OK();
  while (last.ok()) {
    auto g = pool.Allocate(f);
    last = g.status();
    if (g.ok()) pinned.push_back(std::move(*g));
  }
  EXPECT_EQ(last.code(), StatusCode::kResourceExhausted);
  EXPECT_GE(pinned.size(), 64u);
  EXPECT_LT(pinned.size(), 128u);
  pinned.clear();
  EXPECT_TRUE(pool.Allocate(f).ok());
}

TEST(PartitionedPoolTest, UncontendedAccessRecordsNoLockWait) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 4096);
  MetricsRegistry metrics;
  pool.BindMetrics(&metrics);
  const uint32_t f = dm.CreateFile();
  for (int i = 0; i < 500; ++i) {
    auto g = pool.Allocate(f);
    ASSERT_TRUE(g.ok());
    g->MarkDirty();
  }
  ASSERT_TRUE(pool.EvictAll().ok());
  for (uint32_t i = 0; i < 500; ++i) ASSERT_TRUE(pool.Fetch({f, i}).ok());
  EXPECT_EQ(metrics.GetHistogram("pool.lock_wait_ns")->Snapshot().count, 0u);
  EXPECT_EQ(metrics.GetHistogram("disk.read_ns")->Snapshot().count, 500u);
  pool.UnbindMetrics(&metrics);
}

// Threads fetch a shared read-only page set (larger than the pool, so
// partitions evict under contention) while each allocates, overwrites and
// re-reads pages of its own: allocation mutates the disk's page directory
// while other partitions read and write pages. Every read checks the page's stamp, and the
// summed partition stats must account for every Fetch exactly.
TEST(PartitionedPoolTest, MultiThreadStressKeepsContentsAndCounts) {
  constexpr int kThreads = 4;
  constexpr int kOps = 6000;
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 1024);
  ASSERT_EQ(pool.num_partitions(), 16u);
  const uint32_t shared_file = dm.CreateFile();
  const uint32_t kShared = 1500;
  auto stamp_of = [](PageId id, uint64_t version) {
    return id.AsU64() * 0x9E3779B97F4A7C15ULL + version;
  };
  for (uint32_t i = 0; i < kShared; ++i) {
    auto g = pool.Allocate(shared_file);
    ASSERT_TRUE(g.ok());
    *g->page()->As<uint64_t>() = stamp_of(g->id(), 0);
    g->MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  pool.ResetStats();

  struct Owned {
    PageId id;
    uint64_t version;
  };
  std::vector<std::vector<Owned>> owned(kThreads);
  std::vector<uint64_t> fetches(kThreads, 0);
  std::vector<int> errors(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rng(1000 + t);
      for (int op = 0; op < kOps; ++op) {
        const double roll = rng.NextDouble();
        if (roll < 0.6) {
          const PageId id{shared_file,
                          static_cast<uint32_t>(rng.Uniform(kShared))};
          auto g = pool.Fetch(id);
          ++fetches[t];
          if (!g.ok() || *g->page()->As<uint64_t>() != stamp_of(id, 0)) {
            ++errors[t];
          }
        } else if (roll < 0.7 || owned[t].empty()) {
          auto g = pool.Allocate(shared_file);
          if (!g.ok()) {
            ++errors[t];
            continue;
          }
          *g->page()->As<uint64_t>() = stamp_of(g->id(), 1);
          g->MarkDirty();
          owned[t].push_back({g->id(), 1});
        } else {
          Owned& o = owned[t][rng.Uniform(owned[t].size())];
          auto g = pool.Fetch(o.id);
          ++fetches[t];
          if (!g.ok() ||
              *g->page()->As<uint64_t>() != stamp_of(o.id, o.version)) {
            ++errors[t];
            continue;
          }
          if (roll < 0.85) {
            *g->page()->As<uint64_t>() = stamp_of(o.id, ++o.version);
            g->MarkDirty();
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  uint64_t total_fetches = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(errors[t], 0) << "thread " << t;
    total_fetches += fetches[t];
  }
  const BufferPoolStats s = pool.stats();
  EXPECT_EQ(s.hits + s.misses, total_fetches);
  EXPECT_GT(s.evictions, 0u);
  // Everything written must survive a full write-back and cold re-read.
  ASSERT_TRUE(pool.EvictAll().ok());
  for (uint32_t i = 0; i < kShared; ++i) {
    const PageId id{shared_file, i};
    auto g = pool.Fetch(id);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(*g->page()->As<uint64_t>(), stamp_of(id, 0));
  }
  for (const auto& list : owned) {
    for (const Owned& o : list) {
      auto g = pool.Fetch(o.id);
      ASSERT_TRUE(g.ok());
      EXPECT_EQ(*g->page()->As<uint64_t>(), stamp_of(o.id, o.version));
    }
  }
}

// -------------------------------- FactFile ----------------------------------

Tuple MakeTuple(uint32_t a, uint32_t b, double m) {
  Tuple t;
  t.keys[0] = a;
  t.keys[1] = b;
  t.measure = m;
  return t;
}

TEST(FactFileTest, AppendAndGet) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 64);
  auto file = FactFile::Create(&pool, TupleDesc{2});
  ASSERT_TRUE(file.ok());
  for (uint32_t i = 0; i < 1000; ++i) {
    auto rid = file->Append(MakeTuple(i, i * 2, i * 0.5));
    ASSERT_TRUE(rid.ok());
    EXPECT_EQ(*rid, i);
  }
  EXPECT_EQ(file->num_tuples(), 1000u);
  Tuple t;
  ASSERT_TRUE(file->Get(123, &t).ok());
  EXPECT_EQ(t.keys[0], 123u);
  EXPECT_EQ(t.keys[1], 246u);
  EXPECT_DOUBLE_EQ(t.measure, 61.5);
  EXPECT_EQ(file->Get(1000, &t).code(), StatusCode::kOutOfRange);
}

TEST(FactFileTest, TuplesPerPageMatchesRecordSize) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 64);
  auto file = FactFile::Create(&pool, TupleDesc{4});
  ASSERT_TRUE(file.ok());
  // 4 dims * 4 B + 8 B = 24 B -> 170 tuples per 4096-B page.
  EXPECT_EQ(file->desc().RecordSize(), 24u);
  EXPECT_EQ(file->tuples_per_page(), 4096u / 24u);
}

TEST(FactFileTest, ScanVisitsAllInOrder) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 64);
  auto file = FactFile::Create(&pool, TupleDesc{2});
  ASSERT_TRUE(file.ok());
  const uint32_t n = 2500;
  for (uint32_t i = 0; i < n; ++i) {
    ASSERT_TRUE(file->Append(MakeTuple(i, 0, 0)).ok());
  }
  uint32_t expect = 0;
  ASSERT_TRUE(file->Scan([&](RowId rid, const Tuple& t) {
                    EXPECT_EQ(rid, expect);
                    EXPECT_EQ(t.keys[0], expect);
                    ++expect;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(expect, n);
}

TEST(FactFileTest, ScanRangeRespectsBoundsAndEarlyStop) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 64);
  auto file = FactFile::Create(&pool, TupleDesc{2});
  ASSERT_TRUE(file.ok());
  for (uint32_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(file->Append(MakeTuple(i, 0, 0)).ok());
  }
  std::vector<RowId> seen;
  ASSERT_TRUE(file->ScanRange(400, 100,
                              [&](RowId rid, const Tuple&) {
                                seen.push_back(rid);
                                return true;
                              })
                  .ok());
  ASSERT_EQ(seen.size(), 100u);
  EXPECT_EQ(seen.front(), 400u);
  EXPECT_EQ(seen.back(), 499u);

  seen.clear();
  ASSERT_TRUE(file->ScanRange(0, 1000,
                              [&](RowId rid, const Tuple&) {
                                seen.push_back(rid);
                                return rid < 9;  // stop after 10 tuples
                              })
                  .ok());
  EXPECT_EQ(seen.size(), 10u);
}

TEST(FactFileTest, ScanRangeBeyondEofClamps) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 16);
  auto file = FactFile::Create(&pool, TupleDesc{2});
  ASSERT_TRUE(file.ok());
  for (uint32_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(file->Append(MakeTuple(i, 0, 0)).ok());
  }
  int count = 0;
  ASSERT_TRUE(file->ScanRange(5, 100,
                              [&](RowId, const Tuple&) {
                                ++count;
                                return true;
                              })
                  .ok());
  EXPECT_EQ(count, 5);
  EXPECT_EQ(file->ScanRange(11, 1, [](RowId, const Tuple&) { return true; })
                .code(),
            StatusCode::kOutOfRange);
}

TEST(FactFileTest, FetchRowsCountsOnePinPerPage) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 64);
  auto file = FactFile::Create(&pool, TupleDesc{2});
  ASSERT_TRUE(file.ok());
  const uint32_t tpp = file->tuples_per_page();
  for (uint32_t i = 0; i < tpp * 4; ++i) {
    ASSERT_TRUE(file->Append(MakeTuple(i, 0, 0)).ok());
  }
  ASSERT_TRUE(pool.EvictAll().ok());
  pool.ResetStats();
  // Three rows on the same page -> one miss; one row on another page.
  std::vector<RowId> rids = {0, 1, 2, static_cast<RowId>(tpp * 2)};
  std::vector<Tuple> out;
  ASSERT_TRUE(file->FetchRows(rids, &out).ok());
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[3].keys[0], tpp * 2);
  EXPECT_EQ(pool.stats().misses, 2u);
}

TEST(FactFileTest, ReopenSeesSyncedHeader) {
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 64);
  uint32_t file_id;
  {
    auto file = FactFile::Create(&pool, TupleDesc{3});
    ASSERT_TRUE(file.ok());
    file_id = file->file_id();
    for (uint32_t i = 0; i < 500; ++i) {
      Tuple t;
      t.keys[0] = i;
      t.keys[1] = i + 1;
      t.keys[2] = i + 2;
      t.measure = i;
      ASSERT_TRUE(file->Append(t).ok());
    }
    ASSERT_TRUE(file->SyncHeader().ok());
  }
  auto reopened = FactFile::Open(&pool, file_id);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->num_tuples(), 500u);
  EXPECT_EQ(reopened->desc().num_dims, 3u);
  Tuple t;
  ASSERT_TRUE(reopened->Get(499, &t).ok());
  EXPECT_EQ(t.keys[2], 501u);
}

TEST(FactFileTest, LargeBulkLoadSurvivesSmallPool) {
  // The pool is far smaller than the file; appends and scans must still
  // work through eviction pressure.
  InMemoryDiskManager dm;
  BufferPool pool(&dm, 8);
  auto file = FactFile::Create(&pool, TupleDesc{4});
  ASSERT_TRUE(file.ok());
  const uint32_t n = 20000;
  Random rng(3);
  std::vector<double> sums(1, 0.0);
  for (uint32_t i = 0; i < n; ++i) {
    Tuple t;
    for (int d = 0; d < 4; ++d) {
      t.keys[d] = static_cast<uint32_t>(rng.Uniform(100));
    }
    t.measure = static_cast<double>(rng.Uniform(1000));
    sums[0] += t.measure;
    ASSERT_TRUE(file->Append(t).ok());
  }
  double scanned = 0;
  ASSERT_TRUE(file->Scan([&](RowId, const Tuple& t) {
                    scanned += t.measure;
                    return true;
                  })
                  .ok());
  EXPECT_DOUBLE_EQ(scanned, sums[0]);
}

}  // namespace
}  // namespace chunkcache::storage
