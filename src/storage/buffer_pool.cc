#include "storage/buffer_pool.h"

#include <chrono>

#include "common/logging.h"

namespace chunkcache::storage {

namespace {
class HistTimer {
 public:
  explicit HistTimer(Histogram* h) : h_(h) {
    if (h_ != nullptr) t0_ = std::chrono::steady_clock::now();
  }
  ~HistTimer() {
    if (h_ != nullptr) {
      h_->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0_)
              .count()));
    }
  }

 private:
  Histogram* h_;
  std::chrono::steady_clock::time_point t0_;
};
}  // namespace

void PageGuard::MarkDirty() {
  CHUNKCACHE_DCHECK(valid());
  // Mark through the pool so the flag lives on the frame, not the guard.
  pool_->MarkFrameDirty(id_, frame_);
}

void PageGuard::Release() {
  if (page_ != nullptr) {
    pool_->Unpin(id_, frame_);
    page_ = nullptr;
    pool_ = nullptr;
  }
}

namespace {
// Largest power of two <= 16 that leaves >= 64 frames per partition.
uint32_t PartitionCount(uint32_t num_frames) {
  uint32_t n = 1;
  while (n < 16 && num_frames / (n * 2) >= 64) n *= 2;
  return n;
}
}  // namespace

BufferPool::BufferPool(DiskManager* disk, uint32_t num_frames)
    : disk_(disk),
      capacity_(num_frames),
      num_partitions_(PartitionCount(num_frames)),
      partitions_(new Partition[num_partitions_]) {
  CHUNKCACHE_CHECK(num_frames > 0);
  for (uint32_t i = 0; i < num_partitions_; ++i) {
    // Frames split as evenly as the division allows.
    const uint32_t frames =
        static_cast<uint32_t>(uint64_t{num_frames} * (i + 1) / num_partitions_ -
                              uint64_t{num_frames} * i / num_partitions_);
    partitions_[i].frames.resize(frames);
    partitions_[i].table.reserve(frames * 2);
  }
}

void BufferPool::BindMetrics(MetricsRegistry* m) {
  if (m == nullptr) return;
  read_ns_.store(m->GetHistogram("disk.read_ns"), std::memory_order_relaxed);
  write_ns_.store(m->GetHistogram("disk.write_ns"), std::memory_order_relaxed);
  lock_wait_ns_.store(m->GetHistogram("pool.lock_wait_ns"),
                      std::memory_order_relaxed);
  bound_registry_.store(m, std::memory_order_release);
}

void BufferPool::UnbindMetrics(MetricsRegistry* m) {
  MetricsRegistry* cur = m;
  if (bound_registry_.compare_exchange_strong(cur, nullptr,
                                              std::memory_order_acq_rel)) {
    read_ns_.store(nullptr, std::memory_order_relaxed);
    write_ns_.store(nullptr, std::memory_order_relaxed);
    lock_wait_ns_.store(nullptr, std::memory_order_relaxed);
  }
}

std::unique_lock<std::mutex> BufferPool::Lock(Partition& p) {
  std::unique_lock<std::mutex> lock(p.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    HistTimer t(lock_wait_ns_.load(std::memory_order_relaxed));
    lock.lock();
  }
  return lock;
}

Status BufferPool::ReadTimed(PageId id, Page* page) {
  HistTimer t(read_ns_.load(std::memory_order_relaxed));
  return disk_->ReadPage(id, page);
}

Status BufferPool::WriteTimed(PageId id, const Page& page) {
  HistTimer t(write_ns_.load(std::memory_order_relaxed));
  return disk_->WritePage(id, page);
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats sum;
  for (uint32_t i = 0; i < num_partitions_; ++i) {
    Partition& p = partitions_[i];
    std::lock_guard<std::mutex> lock(p.mu);
    sum.hits += p.stats.hits;
    sum.misses += p.stats.misses;
    sum.evictions += p.stats.evictions;
    sum.dirty_writebacks += p.stats.dirty_writebacks;
  }
  return sum;
}

void BufferPool::ResetStats() {
  for (uint32_t i = 0; i < num_partitions_; ++i) {
    Partition& p = partitions_[i];
    std::lock_guard<std::mutex> lock(p.mu);
    p.stats = BufferPoolStats();
  }
}

Result<PageGuard> BufferPool::Fetch(PageId id) {
  Partition& p = PartitionFor(id);
  auto lock = Lock(p);
  auto it = p.table.find(id);
  if (it != p.table.end()) {
    Frame& f = p.frames[it->second];
    f.pin_count++;
    f.referenced = true;
    ++p.stats.hits;
    return PageGuard(this, it->second, id, &f.page);
  }
  ++p.stats.misses;
  CHUNKCACHE_ASSIGN_OR_RETURN(uint32_t frame, GrabFrame(p));
  Frame& f = p.frames[frame];
  CHUNKCACHE_RETURN_IF_ERROR(ReadTimed(id, &f.page));
  f.id = id;
  f.pin_count = 1;
  f.dirty = false;
  f.referenced = true;
  f.in_use = true;
  p.table.emplace(id, frame);
  return PageGuard(this, frame, id, &f.page);
}

Result<PageGuard> BufferPool::Allocate(uint32_t file_id) {
  // The DiskManager serializes allocation itself; no pool lock is held, so
  // a growing file never stalls fetches in any partition.
  CHUNKCACHE_ASSIGN_OR_RETURN(PageId id, disk_->AllocatePage(file_id));
  Partition& p = PartitionFor(id);
  auto lock = Lock(p);
  CHUNKCACHE_ASSIGN_OR_RETURN(uint32_t frame, GrabFrame(p));
  Frame& f = p.frames[frame];
  f.page.Zero();
  f.id = id;
  f.pin_count = 1;
  f.dirty = true;  // fresh page must eventually reach disk
  f.referenced = true;
  f.in_use = true;
  p.table.emplace(id, frame);
  return PageGuard(this, frame, id, &f.page);
}

Status BufferPool::FlushAll() {
  for (uint32_t i = 0; i < num_partitions_; ++i) {
    Partition& p = partitions_[i];
    std::lock_guard<std::mutex> lock(p.mu);
    for (Frame& f : p.frames) {
      if (f.in_use && f.dirty) {
        CHUNKCACHE_RETURN_IF_ERROR(WriteTimed(f.id, f.page));
        f.dirty = false;
        ++p.stats.dirty_writebacks;
      }
    }
  }
  return Status::OK();
}

Status BufferPool::EvictAll() {
  for (uint32_t i = 0; i < num_partitions_; ++i) {
    Partition& p = partitions_[i];
    std::lock_guard<std::mutex> lock(p.mu);
    for (Frame& f : p.frames) {
      if (!f.in_use) continue;
      if (f.pin_count > 0) {
        return Status::Internal("EvictAll with pinned page");
      }
      if (f.dirty) {
        CHUNKCACHE_RETURN_IF_ERROR(WriteTimed(f.id, f.page));
        ++p.stats.dirty_writebacks;
      }
      p.table.erase(f.id);
      f.Reset();
    }
  }
  return Status::OK();
}

void BufferPool::Unpin(PageId id, uint32_t frame) {
  Partition& p = PartitionFor(id);
  auto lock = Lock(p);
  Frame& f = p.frames[frame];
  CHUNKCACHE_DCHECK(f.pin_count > 0);
  f.pin_count--;
}

void BufferPool::MarkFrameDirty(PageId id, uint32_t frame) {
  Partition& p = PartitionFor(id);
  auto lock = Lock(p);
  p.frames[frame].dirty = true;
}

Result<uint32_t> BufferPool::GrabFrame(Partition& p) {
  const uint32_t n = static_cast<uint32_t>(p.frames.size());
  // Two sweeps of CLOCK: the first clears reference bits, the second takes
  // the first unpinned frame. 2n+1 steps bound guarantees termination.
  for (uint32_t step = 0; step < 2 * n + 1; ++step) {
    Frame& f = p.frames[p.clock_hand];
    const uint32_t current = p.clock_hand;
    p.clock_hand = (p.clock_hand + 1) % n;
    if (!f.in_use) return current;
    if (f.pin_count > 0) continue;
    if (f.referenced) {
      f.referenced = false;
      continue;
    }
    // Victim found.
    if (f.dirty) {
      CHUNKCACHE_RETURN_IF_ERROR(WriteTimed(f.id, f.page));
      ++p.stats.dirty_writebacks;
    }
    p.table.erase(f.id);
    ++p.stats.evictions;
    f.Reset();
    return current;
  }
  return Status::ResourceExhausted(
      num_partitions_ == 1 ? "buffer pool: all frames pinned"
                           : "buffer pool: all frames of a partition pinned");
}

}  // namespace chunkcache::storage
