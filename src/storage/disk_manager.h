#ifndef CHUNKCACHE_STORAGE_DISK_MANAGER_H_
#define CHUNKCACHE_STORAGE_DISK_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/page.h"

namespace chunkcache::storage {

/// Physical I/O statistics. These are the ground truth for every cost
/// number reported by the benchmarks: a "physical read" here corresponds to
/// a raw-device read in the paper's setup.
struct DiskStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t allocations = 0;
  uint64_t checksum_failures = 0;
  /// Short writes and failed fsyncs, surfaced as Status::IoError (never
  /// swallowed) and counted here -> "disk.write_errors" on the registry.
  uint64_t write_errors = 0;
};

/// Abstraction over the physical page store. One DiskManager hosts many
/// numbered files (fact file, indexes, ...), each a dense array of pages.
///
/// Concurrency contract: every method is thread-safe. ReadPage and
/// WritePage of *distinct* pages may run concurrently with each other and
/// with CreateFile/AllocatePage (the BufferPool's partitions do exactly
/// that); concurrent access to the *same* page is the caller's to prevent
/// (the pool holds a page's partition lock across its I/O). The built-in
/// implementations guard their page directory with a shared/exclusive lock:
/// reads and writes share it, CreateFile/AllocatePage take it exclusively.
/// Subclasses must keep the same contract.
///
/// Implementations:
///  - InMemoryDiskManager: pages live in RAM with exact I/O accounting; this
///    emulates the paper's raw device (no hidden OS caching) and is what the
///    experiments use.
///  - FileDiskManager: pages live in one real file on disk; useful for
///    persistence demos and for validating that the format round-trips.
class DiskManager {
 public:
  virtual ~DiskManager() = default;

  /// Creates a new empty file and returns its id (ids start at 1).
  virtual uint32_t CreateFile() = 0;

  /// Appends a zeroed page to `file_id` and returns its PageId.
  virtual Result<PageId> AllocatePage(uint32_t file_id) = 0;

  /// Reads the page `id` into `*out`.
  virtual Status ReadPage(PageId id, Page* out) = 0;

  /// Writes `page` to `id`. The page must have been allocated.
  virtual Status WritePage(PageId id, const Page& page) = 0;

  /// Number of pages currently allocated in `file_id`.
  virtual uint32_t FilePageCount(uint32_t file_id) const = 0;

  /// Snapshot of the I/O counters. Each counter is a relaxed atomic, so
  /// counting never takes a lock on the I/O path; a snapshot taken while
  /// other threads do I/O may mix counts from slightly different instants.
  DiskStats stats() const {
    DiskStats s;
    s.reads = reads_.load(std::memory_order_relaxed);
    s.writes = writes_.load(std::memory_order_relaxed);
    s.allocations = allocations_.load(std::memory_order_relaxed);
    s.checksum_failures = checksum_failures_.load(std::memory_order_relaxed);
    s.write_errors = write_errors_.load(std::memory_order_relaxed);
    return s;
  }
  void ResetStats() {
    for (auto* c : {&reads_, &writes_, &allocations_, &checksum_failures_,
                    &write_errors_}) {
      c->store(0, std::memory_order_relaxed);
    }
  }

 protected:
  void CountRead() { reads_.fetch_add(1, std::memory_order_relaxed); }
  void CountWrite() { writes_.fetch_add(1, std::memory_order_relaxed); }
  void CountAllocation() {
    allocations_.fetch_add(1, std::memory_order_relaxed);
  }
  void CountWriteError() {
    write_errors_.fetch_add(1, std::memory_order_relaxed);
  }

  /// End-to-end page integrity: WritePage records a CRC32C of the payload
  /// in a side table keyed by PageId, ReadPage verifies against it and
  /// fails with Status::Corruption instead of serving bad bytes. Keeping
  /// the checksum out of the page keeps the on-page capacity math and the
  /// file format unchanged; the cost is that checksums do not persist
  /// across a FileDiskManager re-open (the first write re-establishes
  /// coverage — VerifyPageChecksum treats an absent entry as OK).
  void RecordPageChecksum(PageId id, const Page& page);
  Status VerifyPageChecksum(PageId id, const Page& page);

 private:
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> allocations_{0};
  std::atomic<uint64_t> checksum_failures_{0};
  std::atomic<uint64_t> write_errors_{0};
  mutable std::mutex crc_mu_;
  std::unordered_map<uint64_t, uint32_t> page_crc_;  // PageId::AsU64() -> crc
};

/// RAM-backed DiskManager with exact physical-I/O accounting.
class InMemoryDiskManager final : public DiskManager {
 public:
  InMemoryDiskManager() = default;

  InMemoryDiskManager(const InMemoryDiskManager&) = delete;
  InMemoryDiskManager& operator=(const InMemoryDiskManager&) = delete;

  uint32_t CreateFile() override;
  Result<PageId> AllocatePage(uint32_t file_id) override;
  Status ReadPage(PageId id, Page* out) override;
  Status WritePage(PageId id, const Page& page) override;
  uint32_t FilePageCount(uint32_t file_id) const override;

 private:
  /// The stored page `id`, or nullptr if it was never allocated.
  Page* Lookup(PageId id) const;

  // Shared by page reads/writes, exclusive for CreateFile/AllocatePage.
  mutable std::shared_mutex dir_mu_;
  // files_[file_id - 1] is the page vector of that file.
  std::vector<std::vector<std::unique_ptr<Page>>> files_;
};

/// DiskManager backed by one OS file. Pages of all logical files are
/// interleaved in allocation order; a small in-memory directory maps
/// (file_id, page_no) to the physical slot. The directory is rebuilt on
/// open from a trailer, making the format self-describing.
class FileDiskManager final : public DiskManager {
 public:
  /// Opens (creating if necessary) the backing file at `path`.
  static Result<std::unique_ptr<FileDiskManager>> Open(
      const std::string& path);

  ~FileDiskManager() override;

  FileDiskManager(const FileDiskManager&) = delete;
  FileDiskManager& operator=(const FileDiskManager&) = delete;

  uint32_t CreateFile() override;
  Result<PageId> AllocatePage(uint32_t file_id) override;
  Status ReadPage(PageId id, Page* out) override;
  Status WritePage(PageId id, const Page& page) override;
  uint32_t FilePageCount(uint32_t file_id) const override;

  /// Flushes the page directory and fsyncs the backing file so a re-open
  /// sees all logical files. Short writes and a failed fsync both surface
  /// as Status::IoError (and count in DiskStats::write_errors).
  Status Sync();

 private:
  explicit FileDiskManager(int fd) : fd_(fd) {}

  Status LoadDirectory();
  Status SaveDirectory();
  /// Physical slot of `id`, or IoError naming `op` if it does not exist.
  Result<uint64_t> SlotOf(PageId id, const char* op) const;

  int fd_;
  // Shared by page reads/writes, exclusive for CreateFile/AllocatePage and
  // Sync (which serializes the directory).
  mutable std::shared_mutex dir_mu_;
  // directory_[file_id - 1][page_no] = physical page slot in the OS file.
  std::vector<std::vector<uint64_t>> directory_;
  uint64_t next_slot_ = 0;
};

}  // namespace chunkcache::storage

#endif  // CHUNKCACHE_STORAGE_DISK_MANAGER_H_
