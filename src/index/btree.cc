#include "index/btree.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace chunkcache::index {

using storage::Page;
using storage::PageGuard;

// ---------------------------------------------------------------------------
// Node accessors.
//
// Layout within a 4 KiB page:
//   [0,16)  NodeHeader
//   leaf:     keys[kLeafCapacity] at 16, payloads[kLeafCapacity] after keys
//   internal: keys[kInternalCapacity] at 16, children[kInternalCapacity+1]
//             after keys
//
// Routing convention (upper_bound): in an internal node, children[j] covers
// keys k with keys[j-1] <= k < keys[j] (keys[-1] = -inf, keys[count] = +inf).
// ---------------------------------------------------------------------------

BTree::NodeHeader* BTree::Header(Page* p) { return p->As<NodeHeader>(); }
uint64_t* BTree::Keys(Page* p) { return p->As<uint64_t>(kHeaderSize); }
BTreePayload* BTree::Payloads(Page* p) {
  return p->As<BTreePayload>(kHeaderSize + kLeafCapacity * 8);
}
uint32_t* BTree::Children(Page* p) {
  return p->As<uint32_t>(kHeaderSize + kInternalCapacity * 8);
}

namespace {

uint32_t MinLeafKeys() { return 2; }
uint32_t MinInternalKeys() { return 2; }

}  // namespace

// Fill-factor note: we rebalance below a small constant rather than
// capacity/2. The chunk index is bulk-loaded and rarely shrinks, so
// aggressive merging buys nothing; the invariant checker enforces the
// weaker bound.

Result<BTree> BTree::Create(storage::BufferPool* pool) {
  const uint32_t file_id = pool->disk()->CreateFile();
  BTree t(pool, file_id);
  // Page 0: meta.
  CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard meta, pool->Allocate(file_id));
  // Page 1: empty leaf root.
  CHUNKCACHE_ASSIGN_OR_RETURN(uint32_t root, t.NewNode(/*leaf=*/true));
  t.root_page_ = root;
  t.height_ = 1;
  auto* m = meta.page()->As<MetaPage>();
  m->magic = kMagic;
  m->root_page = t.root_page_;
  m->height = t.height_;
  m->size = 0;
  meta.MarkDirty();
  return t;
}

Result<BTree> BTree::Open(storage::BufferPool* pool, uint32_t file_id) {
  CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard meta,
                              pool->Fetch(storage::PageId{file_id, 0}));
  const auto* m = meta.page()->As<MetaPage>();
  if (m->magic != kMagic) return Status::Corruption("BTree: bad magic");
  BTree t(pool, file_id);
  t.root_page_ = m->root_page;
  t.height_ = m->height;
  t.size_ = m->size;
  return t;
}

Status BTree::SyncMeta() {
  CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard meta, pool_->Fetch(Pid(0)));
  auto* m = meta.page()->As<MetaPage>();
  m->root_page = root_page_;
  m->height = height_;
  m->size = size_;
  meta.MarkDirty();
  return Status::OK();
}

Result<uint32_t> BTree::NewNode(bool leaf) {
  CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard guard, pool_->Allocate(file_id_));
  auto* h = Header(guard.page());
  h->is_leaf = leaf ? 1 : 0;
  h->count = 0;
  h->right_sibling = 0;
  guard.MarkDirty();
  return guard.id().page_no;
}

Status BTree::Insert(uint64_t key, BTreePayload value) {
  return InsertInternal(key, value, /*allow_replace=*/false);
}

Status BTree::Upsert(uint64_t key, BTreePayload value) {
  return InsertInternal(key, value, /*allow_replace=*/true);
}

// Preemptive-split insert: any full node on the root-to-leaf path is split
// before we descend into it, so an insertion into the leaf always has room
// and never needs to backtrack.
Status BTree::InsertInternal(uint64_t key, BTreePayload value,
                             bool allow_replace) {
  // Split a full root first (the only place the tree grows in height).
  {
    CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard root, pool_->Fetch(Pid(root_page_)));
    auto* h = Header(root.page());
    const uint32_t cap = h->is_leaf ? kLeafCapacity : kInternalCapacity;
    if (h->count == cap) {
      CHUNKCACHE_ASSIGN_OR_RETURN(uint32_t new_root_no,
                                  NewNode(/*leaf=*/false));
      CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard new_root,
                                  pool_->Fetch(Pid(new_root_no)));
      Header(new_root.page())->count = 0;
      Children(new_root.page())[0] = root_page_;
      new_root.MarkDirty();
      root.Release();
      const uint32_t old_root = root_page_;
      root_page_ = new_root_no;
      ++height_;
      CHUNKCACHE_RETURN_IF_ERROR(SplitChild(new_root_no, 0, old_root));
    }
  }

  uint32_t cur = root_page_;
  while (true) {
    CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard node, pool_->Fetch(Pid(cur)));
    auto* h = Header(node.page());
    uint64_t* keys = Keys(node.page());
    if (h->is_leaf) {
      uint64_t* end = keys + h->count;
      uint64_t* it = std::lower_bound(keys, end, key);
      const uint32_t pos = static_cast<uint32_t>(it - keys);
      if (it != end && *it == key) {
        if (!allow_replace) {
          return Status::AlreadyExists("BTree: duplicate key " +
                                       std::to_string(key));
        }
        Payloads(node.page())[pos] = value;
        node.MarkDirty();
        return Status::OK();
      }
      CHUNKCACHE_DCHECK(h->count < kLeafCapacity);
      BTreePayload* pays = Payloads(node.page());
      std::memmove(keys + pos + 1, keys + pos, (h->count - pos) * 8);
      std::memmove(pays + pos + 1, pays + pos,
                   (h->count - pos) * sizeof(BTreePayload));
      keys[pos] = key;
      pays[pos] = value;
      ++h->count;
      node.MarkDirty();
      ++size_;
      return Status::OK();
    }
    // Internal: choose branch, pre-splitting a full child.
    uint32_t idx = static_cast<uint32_t>(
        std::upper_bound(keys, keys + h->count, key) - keys);
    uint32_t child = Children(node.page())[idx];
    {
      CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard cg, pool_->Fetch(Pid(child)));
      auto* ch = Header(cg.page());
      const uint32_t cap = ch->is_leaf ? kLeafCapacity : kInternalCapacity;
      if (ch->count == cap) {
        cg.Release();
        node.Release();
        CHUNKCACHE_RETURN_IF_ERROR(SplitChild(cur, idx, child));
        continue;  // re-fetch `cur` and re-route around the new separator
      }
    }
    cur = child;
  }
}

// Splits the full node `child_no` (= Children(parent)[idx]); the parent must
// have room for one more separator.
Status BTree::SplitChild(uint32_t parent_no, uint32_t idx, uint32_t child_no) {
  CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard parent, pool_->Fetch(Pid(parent_no)));
  CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard child, pool_->Fetch(Pid(child_no)));
  auto* ph = Header(parent.page());
  auto* ch = Header(child.page());
  CHUNKCACHE_DCHECK(ph->is_leaf == 0);
  CHUNKCACHE_DCHECK(ph->count < kInternalCapacity);

  CHUNKCACHE_ASSIGN_OR_RETURN(uint32_t right_no, NewNode(ch->is_leaf != 0));
  CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard right, pool_->Fetch(Pid(right_no)));
  auto* rh = Header(right.page());

  uint64_t separator;
  if (ch->is_leaf) {
    const uint32_t mid = ch->count / 2;
    const uint32_t right_count = ch->count - mid;
    std::memcpy(Keys(right.page()), Keys(child.page()) + mid, right_count * 8);
    std::memcpy(Payloads(right.page()), Payloads(child.page()) + mid,
                right_count * sizeof(BTreePayload));
    rh->count = right_count;
    ch->count = mid;
    rh->right_sibling = ch->right_sibling;
    ch->right_sibling = right_no;
    separator = Keys(right.page())[0];
  } else {
    const uint32_t mid = ch->count / 2;
    separator = Keys(child.page())[mid];
    const uint32_t right_count = ch->count - mid - 1;
    std::memcpy(Keys(right.page()), Keys(child.page()) + mid + 1,
                right_count * 8);
    std::memcpy(Children(right.page()), Children(child.page()) + mid + 1,
                (right_count + 1) * 4);
    rh->count = right_count;
    ch->count = mid;
  }

  // Insert separator into the parent at idx.
  uint64_t* pkeys = Keys(parent.page());
  uint32_t* pchildren = Children(parent.page());
  std::memmove(pkeys + idx + 1, pkeys + idx, (ph->count - idx) * 8);
  std::memmove(pchildren + idx + 2, pchildren + idx + 1,
               (ph->count - idx) * 4);
  pkeys[idx] = separator;
  pchildren[idx + 1] = right_no;
  ++ph->count;

  parent.MarkDirty();
  child.MarkDirty();
  right.MarkDirty();
  return Status::OK();
}

Result<BTreePayload> BTree::Get(uint64_t key) {
  uint32_t cur = root_page_;
  for (uint32_t level = 0;; ++level) {
    CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard node, pool_->Fetch(Pid(cur)));
    auto* h = Header(node.page());
    uint64_t* keys = Keys(node.page());
    if (h->is_leaf) {
      uint64_t* end = keys + h->count;
      uint64_t* it = std::lower_bound(keys, end, key);
      if (it == end || *it != key) {
        return Status::NotFound("BTree: key " + std::to_string(key));
      }
      return Payloads(node.page())[it - keys];
    }
    const uint32_t idx = static_cast<uint32_t>(
        std::upper_bound(keys, keys + h->count, key) - keys);
    cur = Children(node.page())[idx];
    if (level > height_) return Status::Corruption("BTree: cycle in descent");
  }
}

Status BTree::GetSorted(
    const std::vector<uint64_t>& keys,
    const std::function<void(uint64_t, const BTreePayload&)>& fn) {
  size_t i = 0;
  while (i < keys.size()) {
    // Descend for keys[i], narrowing `hi` to the exclusive upper bound of
    // the leaf's key range: the last separator right of the path taken.
    uint32_t cur = root_page_;
    uint64_t hi = 0;
    bool has_hi = false;
    for (uint32_t level = 0;; ++level) {
      CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard node, pool_->Fetch(Pid(cur)));
      auto* h = Header(node.page());
      uint64_t* nkeys = Keys(node.page());
      if (h->is_leaf) {
        // Every key from keys[i] up to `hi` routes to this leaf. keys[i]
        // itself is always consumed, so absent keys between leaves cannot
        // make the loop spin.
        uint32_t pos = 0;
        do {
          if (i > 0 && keys[i] < keys[i - 1]) {
            return Status::InvalidArgument("GetSorted: keys not ascending");
          }
          pos = static_cast<uint32_t>(
              std::lower_bound(nkeys + pos, nkeys + h->count, keys[i]) -
              nkeys);
          if (pos < h->count && nkeys[pos] == keys[i]) {
            fn(keys[i], Payloads(node.page())[pos]);
          }
          ++i;
        } while (i < keys.size() && (!has_hi || keys[i] < hi));
        break;
      }
      const uint32_t idx = static_cast<uint32_t>(
          std::upper_bound(nkeys, nkeys + h->count, keys[i]) - nkeys);
      if (idx < h->count) {
        hi = nkeys[idx];
        has_hi = true;
      }
      cur = Children(node.page())[idx];
      if (level > height_) return Status::Corruption("BTree: cycle in descent");
    }
  }
  return Status::OK();
}

Status BTree::FindLeaf(uint64_t key, std::vector<uint32_t>* path,
                       std::vector<uint32_t>* child_idx) {
  path->clear();
  child_idx->clear();
  uint32_t cur = root_page_;
  while (true) {
    path->push_back(cur);
    CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard node, pool_->Fetch(Pid(cur)));
    auto* h = Header(node.page());
    if (h->is_leaf) return Status::OK();
    uint64_t* keys = Keys(node.page());
    const uint32_t idx = static_cast<uint32_t>(
        std::upper_bound(keys, keys + h->count, key) - keys);
    child_idx->push_back(idx);
    cur = Children(node.page())[idx];
  }
}

Status BTree::Delete(uint64_t key) {
  std::vector<uint32_t> path, child_idx;
  CHUNKCACHE_RETURN_IF_ERROR(FindLeaf(key, &path, &child_idx));
  {
    CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard leaf,
                                pool_->Fetch(Pid(path.back())));
    auto* h = Header(leaf.page());
    uint64_t* keys = Keys(leaf.page());
    uint64_t* end = keys + h->count;
    uint64_t* it = std::lower_bound(keys, end, key);
    if (it == end || *it != key) {
      return Status::NotFound("BTree: key " + std::to_string(key));
    }
    const uint32_t pos = static_cast<uint32_t>(it - keys);
    BTreePayload* pays = Payloads(leaf.page());
    std::memmove(keys + pos, keys + pos + 1, (h->count - pos - 1) * 8);
    std::memmove(pays + pos, pays + pos + 1,
                 (h->count - pos - 1) * sizeof(BTreePayload));
    --h->count;
    leaf.MarkDirty();
    --size_;
  }
  return RebalanceUp(path, child_idx);
}

// Walks from the leaf toward the root repairing underfull nodes by borrowing
// from or merging with an adjacent sibling.
Status BTree::RebalanceUp(std::vector<uint32_t>& path,
                          std::vector<uint32_t>& child_idx) {
  for (size_t depth = path.size() - 1; depth > 0; --depth) {
    const uint32_t node_no = path[depth];
    const uint32_t parent_no = path[depth - 1];
    const uint32_t i = child_idx[depth - 1];

    bool underfull, is_leaf;
    {
      CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard node, pool_->Fetch(Pid(node_no)));
      auto* h = Header(node.page());
      is_leaf = h->is_leaf != 0;
      underfull =
          h->count < (is_leaf ? MinLeafKeys() : MinInternalKeys());
    }
    if (!underfull) break;

    CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard parent, pool_->Fetch(Pid(parent_no)));
    auto* ph = Header(parent.page());
    uint64_t* pkeys = Keys(parent.page());
    uint32_t* pchildren = Children(parent.page());

    // Try to borrow from the left sibling, then the right.
    if (i > 0) {
      CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard left,
                                  pool_->Fetch(Pid(pchildren[i - 1])));
      auto* lh = Header(left.page());
      const uint32_t min =
          is_leaf ? MinLeafKeys() : MinInternalKeys();
      if (lh->count > min) {
        CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard node,
                                    pool_->Fetch(Pid(node_no)));
        auto* h = Header(node.page());
        uint64_t* nkeys = Keys(node.page());
        uint64_t* lkeys = Keys(left.page());
        if (is_leaf) {
          BTreePayload* npays = Payloads(node.page());
          BTreePayload* lpays = Payloads(left.page());
          std::memmove(nkeys + 1, nkeys, h->count * 8);
          std::memmove(npays + 1, npays, h->count * sizeof(BTreePayload));
          nkeys[0] = lkeys[lh->count - 1];
          npays[0] = lpays[lh->count - 1];
          ++h->count;
          --lh->count;
          pkeys[i - 1] = nkeys[0];
        } else {
          uint32_t* nchildren = Children(node.page());
          uint32_t* lchildren = Children(left.page());
          std::memmove(nkeys + 1, nkeys, h->count * 8);
          std::memmove(nchildren + 1, nchildren, (h->count + 1) * 4);
          nkeys[0] = pkeys[i - 1];
          nchildren[0] = lchildren[lh->count];
          pkeys[i - 1] = lkeys[lh->count - 1];
          ++h->count;
          --lh->count;
        }
        node.MarkDirty();
        left.MarkDirty();
        parent.MarkDirty();
        return Status::OK();
      }
    }
    if (i < ph->count) {
      CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard right,
                                  pool_->Fetch(Pid(pchildren[i + 1])));
      auto* rh = Header(right.page());
      const uint32_t min =
          is_leaf ? MinLeafKeys() : MinInternalKeys();
      if (rh->count > min) {
        CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard node,
                                    pool_->Fetch(Pid(node_no)));
        auto* h = Header(node.page());
        uint64_t* nkeys = Keys(node.page());
        uint64_t* rkeys = Keys(right.page());
        if (is_leaf) {
          BTreePayload* npays = Payloads(node.page());
          BTreePayload* rpays = Payloads(right.page());
          nkeys[h->count] = rkeys[0];
          npays[h->count] = rpays[0];
          ++h->count;
          std::memmove(rkeys, rkeys + 1, (rh->count - 1) * 8);
          std::memmove(rpays, rpays + 1,
                       (rh->count - 1) * sizeof(BTreePayload));
          --rh->count;
          pkeys[i] = rkeys[0];
        } else {
          uint32_t* nchildren = Children(node.page());
          uint32_t* rchildren = Children(right.page());
          nkeys[h->count] = pkeys[i];
          nchildren[h->count + 1] = rchildren[0];
          pkeys[i] = rkeys[0];
          ++h->count;
          std::memmove(rkeys, rkeys + 1, (rh->count - 1) * 8);
          std::memmove(rchildren, rchildren + 1, rh->count * 4);
          --rh->count;
        }
        node.MarkDirty();
        right.MarkDirty();
        parent.MarkDirty();
        return Status::OK();
      }
    }

    // Merge: fold children[li+1] into children[li], where li keeps the pair
    // adjacent to `i`.
    const uint32_t li = (i > 0) ? i - 1 : i;
    CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard left,
                                pool_->Fetch(Pid(pchildren[li])));
    CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard right,
                                pool_->Fetch(Pid(pchildren[li + 1])));
    auto* lh = Header(left.page());
    auto* rh = Header(right.page());
    uint64_t* lkeys = Keys(left.page());
    uint64_t* rkeys = Keys(right.page());
    if (is_leaf) {
      std::memcpy(lkeys + lh->count, rkeys, rh->count * 8);
      std::memcpy(Payloads(left.page()) + lh->count, Payloads(right.page()),
                  rh->count * sizeof(BTreePayload));
      lh->count += rh->count;
      lh->right_sibling = rh->right_sibling;
    } else {
      lkeys[lh->count] = pkeys[li];
      std::memcpy(lkeys + lh->count + 1, rkeys, rh->count * 8);
      std::memcpy(Children(left.page()) + lh->count + 1,
                  Children(right.page()), (rh->count + 1) * 4);
      lh->count += 1 + rh->count;
    }
    // Remove separator li and child li+1 from the parent. (The orphaned
    // right page is leaked on disk; this index never shrinks its file. A
    // free list is deliberate future work — see DESIGN.md.)
    std::memmove(pkeys + li, pkeys + li + 1, (ph->count - li - 1) * 8);
    std::memmove(pchildren + li + 1, pchildren + li + 2,
                 (ph->count - li - 1) * 4);
    --ph->count;
    left.MarkDirty();
    right.MarkDirty();
    parent.MarkDirty();
    // Parent may now be underfull; continue the sweep at depth-1.
  }

  // Shrink the root if it became an empty internal node.
  CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard root, pool_->Fetch(Pid(root_page_)));
  auto* h = Header(root.page());
  if (!h->is_leaf && h->count == 0) {
    root_page_ = Children(root.page())[0];
    --height_;
  }
  return Status::OK();
}

Status BTree::ScanRange(
    uint64_t lo, uint64_t hi,
    const std::function<bool(uint64_t, const BTreePayload&)>& fn) {
  if (lo > hi) return Status::OK();
  std::vector<uint32_t> path, child_idx;
  CHUNKCACHE_RETURN_IF_ERROR(FindLeaf(lo, &path, &child_idx));
  uint32_t cur = path.back();
  while (cur != 0) {
    CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard node, pool_->Fetch(Pid(cur)));
    auto* h = Header(node.page());
    uint64_t* keys = Keys(node.page());
    BTreePayload* pays = Payloads(node.page());
    const uint32_t start = static_cast<uint32_t>(
        std::lower_bound(keys, keys + h->count, lo) - keys);
    for (uint32_t j = start; j < h->count; ++j) {
      if (keys[j] > hi) return Status::OK();
      if (!fn(keys[j], pays[j])) return Status::OK();
    }
    cur = h->right_sibling;
  }
  return Status::OK();
}

Status BTree::BulkLoad(
    const std::vector<std::pair<uint64_t, BTreePayload>>& sorted) {
  if (size_ != 0) return Status::InvalidArgument("BulkLoad: tree not empty");
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i - 1].first >= sorted[i].first) {
      return Status::InvalidArgument("BulkLoad: input not strictly sorted");
    }
  }
  if (sorted.empty()) return Status::OK();

  // Build the leaf level; remember (first key, page) of every node.
  std::vector<std::pair<uint64_t, uint32_t>> level;
  {
    size_t pos = 0;
    uint32_t prev_leaf = 0;
    while (pos < sorted.size()) {
      const uint32_t take = static_cast<uint32_t>(
          std::min<size_t>(kLeafCapacity, sorted.size() - pos));
      CHUNKCACHE_ASSIGN_OR_RETURN(uint32_t leaf_no, NewNode(/*leaf=*/true));
      CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard leaf, pool_->Fetch(Pid(leaf_no)));
      auto* h = Header(leaf.page());
      uint64_t* keys = Keys(leaf.page());
      BTreePayload* pays = Payloads(leaf.page());
      for (uint32_t j = 0; j < take; ++j) {
        keys[j] = sorted[pos + j].first;
        pays[j] = sorted[pos + j].second;
      }
      h->count = take;
      leaf.MarkDirty();
      if (prev_leaf != 0) {
        CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard prev,
                                    pool_->Fetch(Pid(prev_leaf)));
        Header(prev.page())->right_sibling = leaf_no;
        prev.MarkDirty();
      }
      level.emplace_back(sorted[pos].first, leaf_no);
      prev_leaf = leaf_no;
      pos += take;
    }
  }
  uint32_t levels = 1;

  // Build internal levels until one node remains. Separator for child j
  // (j >= 1) is that child's smallest key, matching the routing convention.
  while (level.size() > 1) {
    std::vector<std::pair<uint64_t, uint32_t>> next;
    size_t pos = 0;
    while (pos < level.size()) {
      const uint32_t take = static_cast<uint32_t>(
          std::min<size_t>(kInternalCapacity + 1, level.size() - pos));
      CHUNKCACHE_ASSIGN_OR_RETURN(uint32_t node_no, NewNode(/*leaf=*/false));
      CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard node, pool_->Fetch(Pid(node_no)));
      auto* h = Header(node.page());
      uint64_t* keys = Keys(node.page());
      uint32_t* children = Children(node.page());
      for (uint32_t j = 0; j < take; ++j) {
        children[j] = level[pos + j].second;
        if (j > 0) keys[j - 1] = level[pos + j].first;
      }
      h->count = take - 1;
      node.MarkDirty();
      next.emplace_back(level[pos].first, node_no);
      pos += take;
    }
    level = std::move(next);
    ++levels;
  }

  root_page_ = level[0].second;
  height_ = levels;
  size_ = sorted.size();
  return SyncMeta();
}

Status BTree::CheckInvariants() {
  struct StackEntry {
    uint32_t page;
    uint64_t lo;
    bool has_lo;
    uint64_t hi;
    bool has_hi;
    uint32_t depth;
  };
  std::vector<StackEntry> stack{{root_page_, 0, false, 0, false, 0}};
  uint64_t seen = 0;
  uint32_t leaf_depth = 0;
  bool leaf_depth_set = false;
  while (!stack.empty()) {
    StackEntry e = stack.back();
    stack.pop_back();
    CHUNKCACHE_ASSIGN_OR_RETURN(PageGuard node, pool_->Fetch(Pid(e.page)));
    auto* h = Header(node.page());
    uint64_t* keys = Keys(node.page());
    for (uint32_t j = 1; j < h->count; ++j) {
      if (keys[j - 1] >= keys[j]) {
        return Status::Corruption("BTree: keys out of order");
      }
    }
    if (h->count > 0) {
      if (e.has_lo && keys[0] < e.lo) {
        return Status::Corruption("BTree: key below subtree bound");
      }
      if (e.has_hi && keys[h->count - 1] >= e.hi) {
        return Status::Corruption("BTree: key above subtree bound");
      }
    }
    const bool is_root = e.page == root_page_;
    if (h->is_leaf) {
      if (!is_root && h->count < MinLeafKeys()) {
        return Status::Corruption("BTree: underfull leaf");
      }
      if (leaf_depth_set && e.depth != leaf_depth) {
        return Status::Corruption("BTree: leaves at different depths");
      }
      leaf_depth = e.depth;
      leaf_depth_set = true;
      seen += h->count;
    } else {
      if (!is_root && h->count < MinInternalKeys()) {
        return Status::Corruption("BTree: underfull internal node");
      }
      if (is_root && h->count == 0) {
        return Status::Corruption("BTree: empty internal root");
      }
      uint32_t* children = Children(node.page());
      for (uint32_t j = 0; j <= h->count; ++j) {
        StackEntry c;
        c.page = children[j];
        c.depth = e.depth + 1;
        c.has_lo = j > 0 || e.has_lo;
        c.lo = j > 0 ? keys[j - 1] : e.lo;
        c.has_hi = j < h->count || e.has_hi;
        c.hi = j < h->count ? keys[j] : e.hi;
        stack.push_back(c);
      }
    }
  }
  if (seen != size_) {
    return Status::Corruption("BTree: size mismatch: counted " +
                              std::to_string(seen) + " expected " +
                              std::to_string(size_));
  }
  return Status::OK();
}

}  // namespace chunkcache::index
