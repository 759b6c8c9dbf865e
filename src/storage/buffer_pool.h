#ifndef CHUNKCACHE_STORAGE_BUFFER_POOL_H_
#define CHUNKCACHE_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace chunkcache::storage {

class BufferPool;

/// Pins one page in the buffer pool for the guard's lifetime; unpins on
/// destruction. Movable, not copyable. Obtained from BufferPool::Fetch or
/// BufferPool::Allocate.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, uint32_t frame, PageId id, Page* page)
      : pool_(pool), frame_(frame), id_(id), page_(page) {}

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& o) noexcept { MoveFrom(o); }
  PageGuard& operator=(PageGuard&& o) noexcept {
    if (this != &o) {
      Release();
      MoveFrom(o);
    }
    return *this;
  }
  ~PageGuard() { Release(); }

  bool valid() const { return page_ != nullptr; }
  PageId id() const { return id_; }
  Page* page() { return page_; }
  const Page* page() const { return page_; }

  /// Marks the page dirty so eviction writes it back.
  void MarkDirty();

  /// Unpins immediately (idempotent).
  void Release();

 private:
  void MoveFrom(PageGuard& o) {
    pool_ = o.pool_;
    frame_ = o.frame_;
    id_ = o.id_;
    page_ = o.page_;
    o.page_ = nullptr;
    o.pool_ = nullptr;
  }

  BufferPool* pool_ = nullptr;
  uint32_t frame_ = 0;
  PageId id_ = kInvalidPageId;
  Page* page_ = nullptr;
};

/// Buffer-pool hit/miss statistics. A miss costs one physical read against
/// the DiskManager (plus possibly one write-back of a dirty victim).
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;
};

/// Fixed-capacity page cache over a DiskManager, with CLOCK (second chance)
/// replacement — the same policy family the paper uses for its chunk cache.
/// All page access in the backend goes through here, so the pool size is the
/// experiment knob corresponding to the paper's "8 MB buffer pool".
///
/// Thread-safe and hash-partitioned: a page lives in the partition picked by
/// PageIdHash, and each partition owns its own mutex, frame range, page
/// table, CLOCK hand and stats, so concurrent queries (the parallel
/// miss-chunk pipeline and multi-client traffic) contend only when their
/// pages share a partition. The partition count follows from the frame
/// count: the largest power of two <= 16 that leaves >= 64 frames per
/// partition, so pools under 128 frames are one partition with one global
/// CLOCK. Physical I/O runs under the page's partition lock only; different
/// partitions read and write pages concurrently (see DiskManager's
/// concurrency contract). Page *content* access is outside every lock — a
/// pinned page can never be evicted, so readers holding a PageGuard race
/// with nobody on read-only workloads. Writers of page content (bulk loads,
/// index builds) must still be externally serialized, as they always were.
class BufferPool {
 public:
  /// `num_frames` pages of capacity (e.g. 8 MiB / 4 KiB = 2048 frames).
  BufferPool(DiskManager* disk, uint32_t num_frames);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins the page `id`, reading it from disk on a miss. Fails with
  /// ResourceExhausted if every frame of the page's partition is pinned.
  Result<PageGuard> Fetch(PageId id);

  /// Allocates a fresh page in `file_id` and pins it (already zeroed).
  /// Fails with ResourceExhausted like Fetch.
  Result<PageGuard> Allocate(uint32_t file_id);

  /// Writes back all dirty pages (pages stay cached).
  Status FlushAll();

  /// Drops every unpinned page (writing back dirty ones). Used between
  /// experiment phases to start cold, mimicking the paper's raw device.
  Status EvictAll();

  /// Sum of the partitions' stats (each partition read under its lock).
  BufferPoolStats stats() const;
  void ResetStats();
  uint32_t capacity() const { return capacity_; }
  uint32_t num_partitions() const { return num_partitions_; }
  DiskManager* disk() const { return disk_; }

  /// Homes physical I/O latency ("disk.read_ns"/"disk.write_ns") and
  /// contended partition-lock waits ("pool.lock_wait_ns") on `m`. The pool
  /// times its DiskManager calls itself so DiskManager's virtual interface
  /// stays untouched (tests subclass it). Latest binding wins;
  /// UnbindMetrics(m) detaches only if `m` is still the current binding, so
  /// a middle tier that outlives another sharing this pool never yanks the
  /// survivor's histograms.
  void BindMetrics(MetricsRegistry* m);
  void UnbindMetrics(MetricsRegistry* m);

 private:
  friend class PageGuard;

  struct Frame {
    Page page;
    PageId id = kInvalidPageId;
    uint32_t pin_count = 0;
    bool dirty = false;
    bool referenced = false;
    bool in_use = false;

    /// Frees the frame without touching its page bytes (the next Fetch
    /// overwrites them, the next Allocate zeroes them).
    void Reset() {
      id = kInvalidPageId;
      pin_count = 0;
      dirty = referenced = in_use = false;
    }
  };

  /// One hash partition: a private CLOCK over its own frames. Aligned so
  /// neighbouring partitions' locks never share a cache line.
  struct alignas(64) Partition {
    std::mutex mu;
    std::vector<Frame> frames;
    std::unordered_map<PageId, uint32_t, PageIdHash> table;
    uint32_t clock_hand = 0;
    BufferPoolStats stats;
  };

  Partition& PartitionFor(PageId id) {
    return partitions_[PageIdHash{}(id) & (num_partitions_ - 1)];
  }

  /// Locks `p`, timing the wait into "pool.lock_wait_ns" only when the
  /// lock is contended and a registry is bound.
  std::unique_lock<std::mutex> Lock(Partition& p);

  void Unpin(PageId id, uint32_t frame);
  void MarkFrameDirty(PageId id, uint32_t frame);
  /// Finds a victim frame of `p` via CLOCK; writes back if dirty. Returns
  /// the frame index or ResourceExhausted. Caller must hold p.mu.
  Result<uint32_t> GrabFrame(Partition& p);

  /// DiskManager calls timed into the bound histograms (no-ops when
  /// unbound beyond one relaxed load).
  Status ReadTimed(PageId id, Page* page);
  Status WriteTimed(PageId id, const Page& page);

  DiskManager* disk_;
  uint32_t capacity_;
  uint32_t num_partitions_;
  std::unique_ptr<Partition[]> partitions_;

  std::atomic<MetricsRegistry*> bound_registry_{nullptr};
  std::atomic<Histogram*> read_ns_{nullptr};
  std::atomic<Histogram*> write_ns_{nullptr};
  std::atomic<Histogram*> lock_wait_ns_{nullptr};
};

}  // namespace chunkcache::storage

#endif  // CHUNKCACHE_STORAGE_BUFFER_POOL_H_
