#include "cache/replacement.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace chunkcache::cache {

// ----------------------------------- LRU ------------------------------------

void LruPolicy::OnInsert(uint64_t handle, double /*benefit*/) {
  CHUNKCACHE_DCHECK(map_.find(handle) == map_.end());
  order_.push_front(handle);
  map_[handle] = order_.begin();
}

void LruPolicy::OnAccess(uint64_t handle) {
  auto it = map_.find(handle);
  if (it == map_.end()) return;
  order_.splice(order_.begin(), order_, it->second);
}

void LruPolicy::OnErase(uint64_t handle) {
  auto it = map_.find(handle);
  if (it == map_.end()) return;
  order_.erase(it->second);
  map_.erase(it);
}

std::optional<uint64_t> LruPolicy::PickVictim(double /*incoming_benefit*/) {
  if (order_.empty()) return std::nullopt;
  return order_.back();
}

// --------------------------------- ClockBase --------------------------------

void ClockBase::OnInsert(uint64_t handle, double benefit) {
  CHUNKCACHE_DCHECK(map_.find(handle) == map_.end());
  uint32_t idx = free_;
  if (idx != kNil) {
    free_ = slots_[idx].next;
  } else {
    CHUNKCACHE_CHECK(slots_.size() < kNil);
    idx = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[idx];
  slot.handle = handle;
  slot.weight = benefit;
  slot.benefit = benefit;
  if (arm_ == kNil) {
    slot.prev = slot.next = idx;
    arm_ = idx;
  } else {
    // Link just behind the arm so the new entry is examined last in the
    // current sweep, wherever the arm happens to sit.
    Slot& at_arm = slots_[arm_];
    slot.prev = at_arm.prev;
    slot.next = arm_;
    slots_[at_arm.prev].next = idx;
    at_arm.prev = idx;
  }
  map_.emplace(handle, idx);
}

void ClockBase::OnAccess(uint64_t handle) {
  auto it = map_.find(handle);
  if (it == map_.end()) return;
  // "The weight is reset to its initial benefit value whenever the chunk is
  // reaccessed." For plain CLOCK that benefit is the reference bit, 1.
  Slot& slot = slots_[it->second];
  slot.weight = slot.benefit;
}

void ClockBase::OnErase(uint64_t handle) {
  auto it = map_.find(handle);
  if (it == map_.end()) return;
  const uint32_t idx = it->second;
  map_.erase(it);
  Slot& slot = slots_[idx];
  if (slot.next == idx) {
    arm_ = kNil;
  } else {
    slots_[slot.prev].next = slot.next;
    slots_[slot.next].prev = slot.prev;
    if (arm_ == idx) arm_ = slot.next;
  }
  slot.next = free_;
  free_ = idx;
}

std::optional<uint64_t> ClockBase::PickVictim(double incoming_benefit) {
  if (arm_ == kNil) return std::nullopt;
  if (incoming_benefit <= 0) incoming_benefit = 1.0;
  // Sweep, decrementing weights by the incoming chunk's benefit; an entry
  // whose weight was already exhausted is the victim. The sweep is bounded:
  // if no weight drains within a few cycles (a stream of tiny chunks
  // hitting a cache of expensive ones), evict the minimum-weight entry seen
  // rather than spinning.
  const size_t max_steps = 4 * map_.size() + 4;
  std::optional<uint64_t> min_handle;
  double min_weight = 0;
  for (size_t steps = 0; steps < max_steps; ++steps) {
    Slot& s = slots_[arm_];
    arm_ = s.next;
    if (s.weight <= 0) return s.handle;
    if (!min_handle || s.weight < min_weight) {
      min_handle = s.handle;
      min_weight = s.weight;
    }
    s.weight -= incoming_benefit;
  }
  return min_handle;
}

// ----------------------------------- CLOCK ----------------------------------

void ClockPolicy::OnInsert(uint64_t handle, double /*benefit*/) {
  ClockBase::OnInsert(handle, /*benefit=*/1.0);  // reference bit set
}

std::optional<uint64_t> ClockPolicy::PickVictim(double /*incoming*/) {
  // Classic second chance is the benefit sweep over 0/1 weights: a set
  // reference bit drains to 0 as the arm passes, and an entry found at 0
  // is the victim (within two laps, so the step bound never binds).
  return ClockBase::PickVictim(1.0);
}

// ------------------------------------ ARC -----------------------------------

void ArcPolicy::OnInsertKeyed(uint64_t handle, uint64_t key_id,
                              double /*benefit*/) {
  CHUNKCACHE_DCHECK(map_.find(handle) == map_.end());
  auto git = ghosts_.find(key_id);
  if (git != ghosts_.end()) {
    // Ghost hit: the key was evicted recently, so the eviction was a
    // mistake of the current recency/frequency split — adapt p toward the
    // list that remembered it, and admit straight into T2.
    const double b1 = static_cast<double>(b1_.size());
    const double b2 = static_cast<double>(b2_.size());
    if (git->second.first == kT1) {  // remembered by B1 (recency ghost)
      p_ = std::min(static_cast<double>(c_),
                    p_ + std::max(1.0, b2 / std::max(1.0, b1)));
    } else {  // remembered by B2 (frequency ghost)
      p_ = std::max(0.0, p_ - std::max(1.0, b1 / std::max(1.0, b2)));
    }
    EraseGhost(key_id);
    t2_.push_front(handle);
    map_[handle] = Pos{kT2, t2_.begin(), key_id};
  } else {
    t1_.push_front(handle);
    map_[handle] = Pos{kT1, t1_.begin(), key_id};
  }
  c_ = std::max(c_, map_.size());
  TrimGhosts();
}

void ArcPolicy::OnAccess(uint64_t handle) {
  auto it = map_.find(handle);
  if (it == map_.end()) return;
  Pos& pos = it->second;
  if (pos.where == kT1) {
    t1_.erase(pos.it);
    t2_.push_front(handle);
    pos.where = kT2;
    pos.it = t2_.begin();
  } else {
    t2_.splice(t2_.begin(), t2_, pos.it);
  }
}

void ArcPolicy::OnErase(uint64_t handle) {
  auto it = map_.find(handle);
  if (it == map_.end()) return;
  const Pos pos = it->second;
  if (pos.where == kT1) {
    t1_.erase(pos.it);
  } else {
    t2_.erase(pos.it);
  }
  map_.erase(it);
  // Every departure leaves a ghost so a prompt re-fetch is recognized.
  EraseGhost(pos.key_id);
  if (pos.where == kT1) {
    b1_.push_front(pos.key_id);
    ghosts_[pos.key_id] = {kT1, b1_.begin()};
  } else {
    b2_.push_front(pos.key_id);
    ghosts_[pos.key_id] = {kT2, b2_.begin()};
  }
  TrimGhosts();
}

std::optional<uint64_t> ArcPolicy::PickVictim(double /*incoming_benefit*/) {
  if (map_.empty()) return std::nullopt;
  const size_t target = std::max<size_t>(1, static_cast<size_t>(p_));
  if (!t1_.empty() && (t1_.size() > target || t2_.empty())) {
    return t1_.back();
  }
  if (!t2_.empty()) return t2_.back();
  return t1_.back();
}

void ArcPolicy::TrimGhosts() {
  while (b1_.size() > c_) {
    ghosts_.erase(b1_.back());
    b1_.pop_back();
  }
  while (b2_.size() > c_) {
    ghosts_.erase(b2_.back());
    b2_.pop_back();
  }
}

void ArcPolicy::EraseGhost(uint64_t key_id) {
  auto it = ghosts_.find(key_id);
  if (it == ghosts_.end()) return;
  if (it->second.first == kT1) {
    b1_.erase(it->second.second);
  } else {
    b2_.erase(it->second.second);
  }
  ghosts_.erase(it);
}

// -------------------------------- LFU + aging -------------------------------

LfuAgingPolicy::Rank LfuAgingPolicy::RankOf(uint64_t handle, const Entry& e,
                                            bool aged_out) const {
  if (aged_out) {
    return Rank{std::numeric_limits<int64_t>::min(), 0.0, e.seq, handle};
  }
  // freq x 2^-(epoch_ - e.epoch) x benefit, scaled by 2^epoch_. Scaling by
  // a power of two commutes with rounding for normal doubles, so comparing
  // these ranks compares the aged scores exactly.
  const double score = weight_by_benefit_ ? e.freq * e.benefit : e.freq;
  if (std::isinf(score)) {
    return Rank{std::numeric_limits<int64_t>::max(), score, e.seq, handle};
  }
  int exp = 0;
  const double mant = std::frexp(score, &exp);
  return Rank{exp + static_cast<int64_t>(e.epoch), mant, e.seq, handle};
}

void LfuAgingPolicy::Unindex(uint64_t handle, const Entry& e) {
  ranked_.erase(RankOf(handle, e, epoch_ - e.epoch > kMaxAge));
  by_epoch_.erase({e.epoch, handle});
}

void LfuAgingPolicy::Tick() {
  ++ops_;
  if (ops_ % age_period_ != 0) return;
  ++epoch_;
  // Re-rank the entries this tick ages past the clamp.
  while (!by_epoch_.empty() && epoch_ - by_epoch_.begin()->first > kMaxAge) {
    const uint64_t handle = by_epoch_.begin()->second;
    const Entry& e = map_.at(handle);
    ranked_.erase(RankOf(handle, e, false));
    ranked_.insert(RankOf(handle, e, true));
    by_epoch_.erase(by_epoch_.begin());
  }
}

void LfuAgingPolicy::OnInsert(uint64_t handle, double benefit) {
  CHUNKCACHE_DCHECK(map_.find(handle) == map_.end());
  Tick();
  Entry e;
  e.freq = 1.0;
  e.epoch = epoch_;
  e.benefit = benefit > 0 ? benefit : 1.0;
  e.seq = seq_++;
  map_[handle] = e;
  ranked_.insert(RankOf(handle, e, false));
  by_epoch_.emplace(e.epoch, handle);
}

void LfuAgingPolicy::OnAccess(uint64_t handle) {
  auto it = map_.find(handle);
  if (it == map_.end()) return;
  Tick();
  Entry& e = it->second;
  Unindex(handle, e);
  // Rebase the lazily-aged count to the current epoch, then bump it.
  const uint64_t delta = epoch_ - e.epoch;
  e.freq = (delta > kMaxAge ? 0.0
                            : std::ldexp(e.freq, -static_cast<int>(delta))) +
           1.0;
  e.epoch = epoch_;
  ranked_.insert(RankOf(handle, e, false));
  by_epoch_.emplace(e.epoch, handle);
}

void LfuAgingPolicy::OnErase(uint64_t handle) {
  auto it = map_.find(handle);
  if (it == map_.end()) return;
  Unindex(handle, it->second);
  map_.erase(it);
}

std::optional<uint64_t> LfuAgingPolicy::PickVictim(double /*incoming*/) {
  if (ranked_.empty()) return std::nullopt;
  return ranked_.begin()->handle;
}

// ----------------------------------- SLRU -----------------------------------

void SlruPolicy::OnInsert(uint64_t handle, double /*benefit*/) {
  CHUNKCACHE_DCHECK(map_.find(handle) == map_.end());
  prob_.push_front(handle);
  map_[handle] = Pos{false, prob_.begin()};
}

void SlruPolicy::OnAccess(uint64_t handle) {
  auto it = map_.find(handle);
  if (it == map_.end()) return;
  Pos& pos = it->second;
  if (pos.prot) {
    prot_.splice(prot_.begin(), prot_, pos.it);
  } else {
    prob_.erase(pos.it);
    prot_.push_front(handle);
    pos.prot = true;
    pos.it = prot_.begin();
    EnforceProtectedCap();
  }
}

void SlruPolicy::OnErase(uint64_t handle) {
  auto it = map_.find(handle);
  if (it == map_.end()) return;
  if (it->second.prot) {
    prot_.erase(it->second.it);
  } else {
    prob_.erase(it->second.it);
  }
  map_.erase(it);
  EnforceProtectedCap();
}

std::optional<uint64_t> SlruPolicy::PickVictim(double /*incoming*/) {
  if (!prob_.empty()) return prob_.back();
  if (!prot_.empty()) return prot_.back();
  return std::nullopt;
}

void SlruPolicy::EnforceProtectedCap() {
  const size_t cap = std::max<size_t>(1, (4 * map_.size()) / 5);
  while (prot_.size() > cap) {
    const uint64_t demoted = prot_.back();
    prot_.pop_back();
    prob_.push_front(demoted);
    auto it = map_.find(demoted);
    CHUNKCACHE_DCHECK(it != map_.end());
    it->second.prot = false;
    it->second.it = prob_.begin();
  }
}

// ------------------------------------ 2Q ------------------------------------

void TwoQPolicy::OnInsertKeyed(uint64_t handle, uint64_t key_id,
                               double /*benefit*/) {
  CHUNKCACHE_DCHECK(map_.find(handle) == map_.end());
  auto git = ghosts_.find(key_id);
  if (git != ghosts_.end()) {
    // A1out ghost hit: the key came back after leaving the FIFO, so it is
    // genuinely re-referenced — admit straight into the real LRU (Am).
    a1out_.erase(git->second);
    ghosts_.erase(git);
    am_.push_front(handle);
    map_[handle] = Pos{kAm, am_.begin(), key_id};
  } else {
    a1in_.push_front(handle);
    map_[handle] = Pos{kA1in, a1in_.begin(), key_id};
  }
  c_ = std::max(c_, map_.size());
  TrimGhosts();
}

void TwoQPolicy::OnAccess(uint64_t handle) {
  auto it = map_.find(handle);
  if (it == map_.end()) return;
  // A1in hits deliberately do nothing: a burst of accesses during one scan
  // must not promote a one-shot entry.
  if (it->second.where == kAm) {
    am_.splice(am_.begin(), am_, it->second.it);
  }
}

void TwoQPolicy::OnErase(uint64_t handle) {
  auto it = map_.find(handle);
  if (it == map_.end()) return;
  const Pos pos = it->second;
  map_.erase(it);
  if (pos.where == kA1in) {
    a1in_.erase(pos.it);
    // Only A1in departures are ghosted (classic 2Q): a second miss on the
    // key within the A1out window proves re-reference.
    auto git = ghosts_.find(pos.key_id);
    if (git != ghosts_.end()) a1out_.erase(git->second);
    a1out_.push_front(pos.key_id);
    ghosts_[pos.key_id] = a1out_.begin();
    TrimGhosts();
  } else {
    am_.erase(pos.it);
  }
}

std::optional<uint64_t> TwoQPolicy::PickVictim(double /*incoming*/) {
  if (map_.empty()) return std::nullopt;
  if (a1in_.empty()) return am_.back();
  if (am_.empty()) return a1in_.back();
  const size_t kin = std::max<size_t>(1, c_ / 4);
  if (a1in_.size() > kin) return a1in_.back();
  return am_.back();
}

void TwoQPolicy::TrimGhosts() {
  while (a1out_.size() > c_) {
    ghosts_.erase(a1out_.back());
    a1out_.pop_back();
  }
}

// ---------------------------------- Factory ---------------------------------

const std::vector<std::string>& KnownPolicyNames() {
  static const std::vector<std::string> kNames = {
      "lru",  "clock",     "benefit-clock",     "arc",
      "slru", "2q",        "lfu-aging",         "benefit-lfu-aging",
  };
  return kNames;
}

std::unique_ptr<ReplacementPolicy> MakePolicy(const std::string& name) {
  if (name == "lru") return std::make_unique<LruPolicy>();
  if (name == "clock") return std::make_unique<ClockPolicy>();
  if (name == "benefit-clock") return std::make_unique<BenefitClockPolicy>();
  if (name == "arc") return std::make_unique<ArcPolicy>();
  if (name == "slru") return std::make_unique<SlruPolicy>();
  if (name == "2q") return std::make_unique<TwoQPolicy>();
  if (name == "lfu-aging") {
    return std::make_unique<LfuAgingPolicy>(/*weight_by_benefit=*/false);
  }
  if (name == "benefit-lfu-aging") {
    return std::make_unique<LfuAgingPolicy>(/*weight_by_benefit=*/true);
  }
  return nullptr;
}

std::unique_ptr<ReplacementPolicy> MakePolicyOrDie(const std::string& name) {
  auto policy = MakePolicy(name);
  if (!policy) {
    std::string known;
    for (const auto& n : KnownPolicyNames()) {
      known += known.empty() ? n : (", " + n);
    }
    std::fprintf(stderr,
                 "unknown replacement policy \"%s\"; valid policies: %s\n",
                 name.c_str(), known.c_str());
    std::abort();
  }
  return policy;
}

}  // namespace chunkcache::cache
