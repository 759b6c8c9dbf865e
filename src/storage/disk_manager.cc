#include "storage/disk_manager.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/crc32c.h"
#include "common/fault_injector.h"

namespace chunkcache::storage {

// ---------------------------------------------------------------------------
// Page checksums (shared by all DiskManager implementations)
// ---------------------------------------------------------------------------

void DiskManager::RecordPageChecksum(PageId id, const Page& page) {
  const uint32_t crc = Crc32c(page.data.data(), kPageSize);
  std::lock_guard<std::mutex> lock(crc_mu_);
  page_crc_[id.AsU64()] = crc;
}

Status DiskManager::VerifyPageChecksum(PageId id, const Page& page) {
  uint32_t expected;
  {
    std::lock_guard<std::mutex> lock(crc_mu_);
    auto it = page_crc_.find(id.AsU64());
    if (it == page_crc_.end()) return Status::OK();  // no coverage yet
    expected = it->second;
  }
  if (Crc32c(page.data.data(), kPageSize) == expected) return Status::OK();
  checksum_failures_.fetch_add(1, std::memory_order_relaxed);
  return Status::Corruption("page checksum mismatch at file " +
                            std::to_string(id.file_id) + " page " +
                            std::to_string(id.page_no));
}

// ---------------------------------------------------------------------------
// InMemoryDiskManager
// ---------------------------------------------------------------------------

uint32_t InMemoryDiskManager::CreateFile() {
  std::unique_lock<std::shared_mutex> lock(dir_mu_);
  files_.emplace_back();
  return static_cast<uint32_t>(files_.size());  // ids start at 1
}

Result<PageId> InMemoryDiskManager::AllocatePage(uint32_t file_id) {
  CHUNKCACHE_FAULT_POINT(FaultSite::kDiskAlloc);
  std::unique_lock<std::shared_mutex> lock(dir_mu_);
  if (file_id == 0 || file_id > files_.size()) {
    return Status::InvalidArgument("AllocatePage: unknown file id " +
                                   std::to_string(file_id));
  }
  auto& pages = files_[file_id - 1];
  auto page = std::make_unique<Page>();
  page->Zero();
  const PageId id{file_id, static_cast<uint32_t>(pages.size())};
  RecordPageChecksum(id, *page);
  pages.push_back(std::move(page));
  CountAllocation();
  return id;
}

Page* InMemoryDiskManager::Lookup(PageId id) const {
  std::shared_lock<std::shared_mutex> lock(dir_mu_);
  if (id.file_id == 0 || id.file_id > files_.size()) return nullptr;
  const auto& pages = files_[id.file_id - 1];
  if (id.page_no >= pages.size()) return nullptr;
  // Pages are never freed or moved, so the pointer outlives the lock.
  return pages[id.page_no].get();
}

Status InMemoryDiskManager::ReadPage(PageId id, Page* out) {
  CHUNKCACHE_FAULT_POINT(FaultSite::kDiskRead);
  const Page* page = Lookup(id);
  if (page == nullptr) {
    return Status::IoError("ReadPage: page " + std::to_string(id.page_no) +
                           " of file " + std::to_string(id.file_id) +
                           " does not exist");
  }
  *out = *page;
  CountRead();
  // Corrupt only the returned copy — the store stays clean, so a retry of
  // the same read recovers (models a transient bus/DMA flip).
  FaultInjector& fi = FaultInjector::Global();
  if (fi.armed() && fi.ShouldInject(FaultSite::kDiskCorrupt)) {
    fi.CorruptBuffer(out->data.data(), kPageSize);
  }
  return VerifyPageChecksum(id, *out);
}

Status InMemoryDiskManager::WritePage(PageId id, const Page& page) {
  CHUNKCACHE_FAULT_POINT(FaultSite::kDiskWrite);
  Page* dst = Lookup(id);
  if (dst == nullptr) {
    return Status::IoError("WritePage: page " + std::to_string(id.page_no) +
                           " of file " + std::to_string(id.file_id) +
                           " does not exist");
  }
  *dst = page;
  RecordPageChecksum(id, page);
  CountWrite();
  return Status::OK();
}

uint32_t InMemoryDiskManager::FilePageCount(uint32_t file_id) const {
  std::shared_lock<std::shared_mutex> lock(dir_mu_);
  if (file_id == 0 || file_id > files_.size()) return 0;
  return static_cast<uint32_t>(files_[file_id - 1].size());
}

// ---------------------------------------------------------------------------
// FileDiskManager
//
// Physical layout: slot 0 is a superblock holding the slot number of the
// directory run and the directory size in bytes; data/directory slots
// follow. The directory is serialized as:
//   u32 num_files, then per file: u32 num_pages, u64 slots[num_pages].
// ---------------------------------------------------------------------------

namespace {

struct Superblock {
  uint64_t magic;
  uint64_t dir_slot;
  uint64_t dir_bytes;
  uint64_t next_slot;
};

constexpr uint64_t kMagic = 0x43484E4B43414348ULL;  // "CHNKCACH"

Status PReadPage(int fd, uint64_t slot, Page* out) {
  const off_t off = static_cast<off_t>(slot) * kPageSize;
  ssize_t n = ::pread(fd, out->data.data(), kPageSize, off);
  if (n != static_cast<ssize_t>(kPageSize)) {
    return Status::IoError("pread failed: " +
                           std::string(n < 0 ? std::strerror(errno)
                                             : "short read"));
  }
  return Status::OK();
}

Status PWritePage(int fd, uint64_t slot, const Page& page) {
  const off_t off = static_cast<off_t>(slot) * kPageSize;
  ssize_t n = ::pwrite(fd, page.data.data(), kPageSize, off);
  if (n != static_cast<ssize_t>(kPageSize)) {
    return Status::IoError("pwrite failed: " +
                           std::string(n < 0 ? std::strerror(errno)
                                             : "short write"));
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<FileDiskManager>> FileDiskManager::Open(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IoError("open(" + path + "): " + std::strerror(errno));
  }
  auto dm = std::unique_ptr<FileDiskManager>(new FileDiskManager(fd));
  off_t size = ::lseek(fd, 0, SEEK_END);
  if (size >= static_cast<off_t>(kPageSize)) {
    CHUNKCACHE_RETURN_IF_ERROR(dm->LoadDirectory());
  } else {
    // Fresh file: reserve slot 0 for the superblock.
    dm->next_slot_ = 1;
    Page zero;
    zero.Zero();
    CHUNKCACHE_RETURN_IF_ERROR(PWritePage(fd, 0, zero));
    CHUNKCACHE_RETURN_IF_ERROR(dm->SaveDirectory());
  }
  return dm;
}

FileDiskManager::~FileDiskManager() {
  // A destructor cannot return a Status, but a failed final flush must not
  // vanish: it is counted (disk.write_errors via Sync -> CountWriteError)
  // and reported, so tests and operators can see the file may be stale.
  Status s = Sync();
  if (!s.ok()) {
    std::fprintf(stderr, "FileDiskManager: final sync failed: %s\n",
                 s.message().c_str());
  }
  ::close(fd_);
}

Status FileDiskManager::LoadDirectory() {
  Page super;
  CHUNKCACHE_RETURN_IF_ERROR(PReadPage(fd_, 0, &super));
  const auto* sb = super.As<Superblock>();
  if (sb->magic != kMagic) {
    return Status::Corruption("bad superblock magic");
  }
  next_slot_ = sb->next_slot;
  std::vector<uint8_t> buf(sb->dir_bytes);
  uint64_t remaining = sb->dir_bytes;
  uint64_t slot = sb->dir_slot;
  uint64_t pos = 0;
  Page page;
  while (remaining > 0) {
    CHUNKCACHE_RETURN_IF_ERROR(PReadPage(fd_, slot++, &page));
    const uint64_t take = remaining < kPageSize ? remaining : kPageSize;
    std::memcpy(buf.data() + pos, page.data.data(), take);
    pos += take;
    remaining -= take;
  }
  directory_.clear();
  const uint8_t* p = buf.data();
  uint32_t num_files;
  std::memcpy(&num_files, p, sizeof(num_files));
  p += sizeof(num_files);
  directory_.resize(num_files);
  for (uint32_t f = 0; f < num_files; ++f) {
    uint32_t num_pages;
    std::memcpy(&num_pages, p, sizeof(num_pages));
    p += sizeof(num_pages);
    directory_[f].resize(num_pages);
    std::memcpy(directory_[f].data(), p, num_pages * sizeof(uint64_t));
    p += num_pages * sizeof(uint64_t);
  }
  return Status::OK();
}

Status FileDiskManager::SaveDirectory() {
  // Serialize the directory.
  std::vector<uint8_t> buf;
  auto append = [&buf](const void* src, size_t n) {
    const auto* b = static_cast<const uint8_t*>(src);
    buf.insert(buf.end(), b, b + n);
  };
  uint32_t num_files = static_cast<uint32_t>(directory_.size());
  append(&num_files, sizeof(num_files));
  for (const auto& pages : directory_) {
    uint32_t num_pages = static_cast<uint32_t>(pages.size());
    append(&num_pages, sizeof(num_pages));
    append(pages.data(), pages.size() * sizeof(uint64_t));
  }
  // Write the directory at the end of the data region.
  const uint64_t dir_slot = next_slot_;
  uint64_t slot = dir_slot;
  Page page;
  for (size_t pos = 0; pos < buf.size(); pos += kPageSize) {
    page.Zero();
    const size_t take = std::min<size_t>(kPageSize, buf.size() - pos);
    std::memcpy(page.data.data(), buf.data() + pos, take);
    CHUNKCACHE_RETURN_IF_ERROR(PWritePage(fd_, slot++, page));
  }
  // Publish via the superblock.
  Page super;
  super.Zero();
  auto* sb = super.As<Superblock>();
  sb->magic = kMagic;
  sb->dir_slot = dir_slot;
  sb->dir_bytes = buf.size();
  sb->next_slot = next_slot_;
  return PWritePage(fd_, 0, super);
}

Status FileDiskManager::Sync() {
  std::unique_lock<std::shared_mutex> lock(dir_mu_);
  Status s = SaveDirectory();
  if (!s.ok()) {
    CountWriteError();
    return s;
  }
  if (::fsync(fd_) != 0) {
    CountWriteError();
    return Status::IoError(std::string("fsync failed: ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

uint32_t FileDiskManager::CreateFile() {
  std::unique_lock<std::shared_mutex> lock(dir_mu_);
  directory_.emplace_back();
  return static_cast<uint32_t>(directory_.size());
}

Result<PageId> FileDiskManager::AllocatePage(uint32_t file_id) {
  CHUNKCACHE_FAULT_POINT(FaultSite::kDiskAlloc);
  std::unique_lock<std::shared_mutex> lock(dir_mu_);
  if (file_id == 0 || file_id > directory_.size()) {
    return Status::InvalidArgument("AllocatePage: unknown file id");
  }
  auto& pages = directory_[file_id - 1];
  const uint64_t slot = next_slot_++;
  Page zero;
  zero.Zero();
  Status ws = PWritePage(fd_, slot, zero);
  if (!ws.ok()) {
    CountWriteError();
    return ws;
  }
  pages.push_back(slot);
  const PageId id{file_id, static_cast<uint32_t>(pages.size() - 1)};
  RecordPageChecksum(id, zero);
  CountAllocation();
  return id;
}

Result<uint64_t> FileDiskManager::SlotOf(PageId id, const char* op) const {
  std::shared_lock<std::shared_mutex> lock(dir_mu_);
  if (id.file_id == 0 || id.file_id > directory_.size()) {
    return Status::IoError(std::string(op) + ": unknown file id");
  }
  const auto& pages = directory_[id.file_id - 1];
  if (id.page_no >= pages.size()) {
    return Status::IoError(std::string(op) + ": page beyond EOF");
  }
  return pages[id.page_no];
}

Status FileDiskManager::ReadPage(PageId id, Page* out) {
  CHUNKCACHE_FAULT_POINT(FaultSite::kDiskRead);
  CHUNKCACHE_ASSIGN_OR_RETURN(uint64_t slot, SlotOf(id, "ReadPage"));
  CountRead();
  CHUNKCACHE_RETURN_IF_ERROR(PReadPage(fd_, slot, out));
  FaultInjector& fi = FaultInjector::Global();
  if (fi.armed() && fi.ShouldInject(FaultSite::kDiskCorrupt)) {
    fi.CorruptBuffer(out->data.data(), kPageSize);
  }
  return VerifyPageChecksum(id, *out);
}

Status FileDiskManager::WritePage(PageId id, const Page& page) {
  CHUNKCACHE_FAULT_POINT(FaultSite::kDiskWrite);
  CHUNKCACHE_ASSIGN_OR_RETURN(uint64_t slot, SlotOf(id, "WritePage"));
  CountWrite();
  Status ws = PWritePage(fd_, slot, page);
  if (!ws.ok()) {
    CountWriteError();
    return ws;
  }
  RecordPageChecksum(id, page);
  return Status::OK();
}

uint32_t FileDiskManager::FilePageCount(uint32_t file_id) const {
  std::shared_lock<std::shared_mutex> lock(dir_mu_);
  if (file_id == 0 || file_id > directory_.size()) return 0;
  return static_cast<uint32_t>(directory_[file_id - 1].size());
}

}  // namespace chunkcache::storage
