#include "xdp/rt/proc_table.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "xdp/net/wire.hpp"
#include "xdp/support/check.hpp"

namespace xdp::rt {

namespace {
/// Below this many segments a linear scan beats the binary search setup.
constexpr std::size_t kLinearScanThreshold = 8;
}  // namespace

const char* elemTypeName(ElemType t) {
  switch (t) {
    case ElemType::F64:
      return "f64";
    case ElemType::I64:
      return "i64";
    case ElemType::C128:
      return "c128";
  }
  return "?";
}

const char* segStateName(SegState s) {
  switch (s) {
    case SegState::Unowned:
      return "unowned";
    case SegState::Transitional:
      return "transitional";
    case SegState::Accessible:
      return "accessible";
  }
  return "?";
}

std::size_t ProcTable::Pool::allocate(std::size_t elems) {
  // First fit over the free list; split oversized blocks.
  for (auto it = freeList.begin(); it != freeList.end(); ++it) {
    if (it->second >= elems) {
      std::size_t off = it->first;
      if (it->second == elems) {
        freeList.erase(it);
      } else {
        it->first += elems;
        it->second -= elems;
      }
      stats.allocs += 1;
      stats.currentElems += elems;
      stats.peakElems = std::max(stats.peakElems, stats.currentElems);
      std::memset(bytes.data() + off * elemSz, 0, elems * elemSz);
      return off;
    }
  }
  std::size_t off = bytes.size() / elemSz;
  bytes.resize(bytes.size() + elems * elemSz, std::byte{0});
  stats.allocs += 1;
  stats.currentElems += elems;
  stats.peakElems = std::max(stats.peakElems, stats.currentElems);
  stats.poolElems = bytes.size() / elemSz;
  return off;
}

void ProcTable::Pool::release(std::size_t offset, std::size_t elems) {
  if (elems == 0) return;
  stats.frees += 1;
  stats.currentElems -= elems;
  // Keep the free list sorted by offset and coalesce with both neighbours,
  // so freed segment storage can back later allocations of any shape
  // (the paper's storage-reuse claim, section 2.6).
  auto it = std::lower_bound(
      freeList.begin(), freeList.end(), offset,
      [](const auto& blk, std::size_t off) { return blk.first < off; });
  it = freeList.insert(it, {offset, elems});
  if (it != freeList.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second == it->first) {
      prev->second += it->second;
      it = freeList.erase(it);
      it = std::prev(it);
    }
  }
  auto next = std::next(it);
  if (next != freeList.end() && it->first + it->second == next->first) {
    it->second += next->second;
    freeList.erase(next);
  }
}

void ProcTable::rebuildIndexLocked(Entry& e) {
  const std::size_t n = e.segs.size();
  e.order.resize(n);
  e.prefixMaxUb.resize(n);
  for (std::size_t i = 0; i < n; ++i) e.order[i] = static_cast<int>(i);
  if (n == 0) return;
  // Rank-0 symbols (scalars) have at most one segment; the index is only
  // consulted for rank >= 1 queries, where dim 0 is always present.
  if (e.segs.front().bounds.rank() == 0) return;
  std::sort(e.order.begin(), e.order.end(), [&](int a, int b) {
    return e.segs[static_cast<std::size_t>(a)].bounds.dim(0).lb() <
           e.segs[static_cast<std::size_t>(b)].bounds.dim(0).lb();
  });
  Index running = kMinInt;
  for (std::size_t i = 0; i < n; ++i) {
    running = std::max(
        running, e.segs[static_cast<std::size_t>(e.order[i])].bounds.dim(0).ub());
    e.prefixMaxUb[i] = running;
  }
}

template <typename Fn>
void ProcTable::forEachCandidateLocked(const Entry& e, const Section& s,
                                       Fn&& fn) const {
  const std::size_t n = e.segs.size();
  if (s.rank() == 0 || n <= kLinearScanThreshold) {
    for (const SegmentDesc& seg : e.segs) fn(seg);
    return;
  }
  const Index qlb = s.dim(0).lb();
  const Index qub = s.dim(0).ub();
  // First position (in lb order) whose segment starts beyond the query;
  // everything at or after it cannot overlap. Walk backwards from there
  // until the running max upper bound drops below the query start —
  // everything earlier cannot overlap either.
  auto past = std::upper_bound(
      e.order.begin(), e.order.end(), qub, [&](Index v, int idx) {
        return v < e.segs[static_cast<std::size_t>(idx)].bounds.dim(0).lb();
      });
  for (auto j = static_cast<std::size_t>(past - e.order.begin()); j-- > 0;) {
    if (e.prefixMaxUb[j] < qlb) break;
    const SegmentDesc& seg = e.segs[static_cast<std::size_t>(e.order[j])];
    if (seg.bounds.dim(0).ub() >= qlb) fn(seg);
  }
}

ProcTable::ProcTable(int pid, const std::vector<SymbolDecl>& decls,
                     bool debugChecks)
    : pid_(pid), debugChecks_(debugChecks), decls_(decls) {
  for (std::size_t i = 0; i < decls_.size(); ++i) {
    const SymbolDecl& d = decls_[i];
    XDP_CHECK(d.index == static_cast<int>(i), "symbol index mismatch");
    Entry& e = entries_.emplace_back();
    e.pool.elemSz = elemSize(d.type);
    for (const Section& bounds :
         dist::segmentsOf(d.dist, pid, d.segShape)) {
      SegmentDesc seg;
      seg.status = SegState::Accessible;
      seg.bounds = bounds;
      seg.elemOffset =
          e.pool.allocate(static_cast<std::size_t>(bounds.count()));
      e.segs.push_back(std::move(seg));
    }
    rebuildIndexLocked(e);
  }
}

const SymbolDecl& ProcTable::decl(int sym) const {
  XDP_CHECK(sym >= 0 && sym < numSymbols(), "bad symbol index");
  return decls_[static_cast<std::size_t>(sym)];
}

const ProcTable::Entry& ProcTable::entry(int sym) const {
  XDP_CHECK(sym >= 0 && sym < numSymbols(), "bad symbol index");
  return entries_[static_cast<std::size_t>(sym)];
}

ProcTable::Entry& ProcTable::entry(int sym) {
  XDP_CHECK(sym >= 0 && sym < numSymbols(), "bad symbol index");
  return entries_[static_cast<std::size_t>(sym)];
}

bool ProcTable::pendingOverlapsLocked(const Entry& e, const Section& s) {
  for (const Section& p : e.pendingRecvs) {
    if (p.rank() != s.rank()) continue;
    if (!Section::intersect(p, s).empty()) return true;
  }
  return false;
}

int ProcTable::stateOfLocked(int sym, const Section& s,
                             double* arrival) const {
  // The paper's iown() algorithm: intersect the query with every segment
  // that can overlap it; since segments are disjoint, coverage holds iff
  // the intersection cardinalities sum to the query cardinality.
  // Accessibility is then a per-section property: no uncompleted receive
  // may overlap the query. The arrival fold is skipped unless asked for.
  const Entry& e = entry(sym);
  Index covered = 0;
  double maxArrival = 0.0;
  forEachCandidateLocked(e, s, [&](const SegmentDesc& seg) {
    Section i = Section::intersect(seg.bounds, s);
    if (i.empty()) return;
    covered += i.count();
    if (arrival != nullptr) maxArrival = std::max(maxArrival, seg.arrival);
  });
  if (covered != s.count()) return -1;
  if (arrival != nullptr) *arrival = maxArrival;
  if (e.pendingRecvs.empty()) return 1;  // common case: nothing in flight
  return pendingOverlapsLocked(e, s) ? 0 : 1;
}

bool ProcTable::cacheLookup(const Entry& e, const Section& s,
                            bool wantArrival, int* state,
                            double* arrival) const {
  // Epoch-validated hit, lock-free w.r.t. mu_: slot contents are guarded
  // by the leaf cacheMu; validity is "entry epoch still equals the epoch
  // recorded at fill time". Mutators bump the epoch under the exclusive
  // lock, so an equal epoch proves the cached answer is current (or
  // linearizes immediately before an in-flight mutation, which is an
  // equally legal serialization of the racing query).
  const std::uint64_t cur = e.epoch.load(std::memory_order_acquire);
  std::lock_guard lk(e.cacheMu);
  for (const CacheSlot& slot : e.cache) {
    if (!slot.valid || slot.epoch != cur) continue;
    if (wantArrival && !slot.hasArrival) continue;
    if (!(slot.key == s)) continue;
    *state = slot.state;
    if (arrival != nullptr && slot.hasArrival) *arrival = slot.arrival;
    cacheHits_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  cacheMisses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void ProcTable::cacheStore(const Entry& e, const Section& s,
                           std::uint64_t epoch, int state, bool hasArrival,
                           double arrival) const {
  std::lock_guard lk(e.cacheMu);
  CacheSlot* victim = nullptr;
  for (CacheSlot& slot : e.cache) {
    if (slot.valid && slot.key == s) {
      victim = &slot;  // refresh in place so hot keys never evict each other
      break;
    }
  }
  if (victim == nullptr) {
    victim = &e.cache[static_cast<std::size_t>(e.cacheHand)];
    e.cacheHand = (e.cacheHand + 1) % static_cast<int>(e.cache.size());
  }
  victim->key = s;
  victim->epoch = epoch;
  victim->state = static_cast<std::int8_t>(state);
  victim->hasArrival = hasArrival;
  victim->arrival = arrival;
  victim->valid = true;
}

int ProcTable::stateCached(int sym, const Section& s, double* arrival) const {
  const Entry& e = entry(sym);
  int st = 0;
  if (cacheLookup(e, s, arrival != nullptr, &st, arrival)) return st;
  std::shared_lock lk(mu_);
  const std::uint64_t ep = e.epoch.load(std::memory_order_relaxed);
  double arr = 0.0;
  st = stateOfLocked(sym, s, arrival != nullptr ? &arr : nullptr);
  if (arrival != nullptr) *arrival = arr;
  cacheStore(e, s, ep, st, arrival != nullptr, arr);
  return st;
}

bool ProcTable::iown(int sym, const Section& s) const {
  return stateCached(sym, s, nullptr) >= 0;
}

bool ProcTable::accessible(int sym, const Section& s) const {
  return stateCached(sym, s, nullptr) == 1;
}

sec::RegionList ProcTable::ownedRanges(int sym, const Section& s,
                                       bool excludeTransitional) const {
  std::shared_lock lk(mu_);
  const Entry& e = entry(sym);
  std::vector<Section> pieces;
  forEachCandidateLocked(e, s, [&](const SegmentDesc& seg) {
    Section i = Section::intersect(seg.bounds, s);
    if (!i.empty()) pieces.push_back(std::move(i));
  });
  // Segments are pairwise disjoint, so their intersections with `s` are
  // too — RegionList can adopt them without re-diffing.
  sec::RegionList out(std::move(pieces));
  if (excludeTransitional && !out.empty()) {
    for (const Section& p : e.pendingRecvs) {
      if (p.rank() == s.rank()) out.subtract(p);
    }
  }
  return out;
}

bool ProcTable::await(int sym, const Section& s, double* arrival) {
  // Fast path: an epoch-valid memo of a decided state needs no lock and
  // no park bookkeeping. A transitional memo falls through to the slow
  // path, as does any abort (so the throw happens under the lock with the
  // abort fields stable).
  if (!aborted_.load(std::memory_order_acquire)) {
    const Entry& e = entry(sym);
    int st = 0;
    if (cacheLookup(e, s, arrival != nullptr, &st, arrival) && st != 0) {
      return st == 1;
    }
  }
  std::unique_lock lk(mu_);
  Entry& e = entry(sym);
  while (true) {
    if (aborted_.load(std::memory_order_relaxed))
      throwAbortLocked("blocked in await");
    // Checkpoint rollback/preempt: the hook throws out of the blocked
    // await (the restart point was published before this statement).
    if (waitInterrupt_) waitInterrupt_();
    double arr = 0.0;
    int st = stateOfLocked(sym, s, arrival != nullptr ? &arr : nullptr);
    if (arrival != nullptr) *arrival = arr;
    if (st != 0) {
      cacheStore(e, s, e.epoch.load(std::memory_order_relaxed), st,
                 arrival != nullptr, arr);
      return st == 1;  // unowned: await returns false (Fig. 1)
    }
    // Transitional: park. Publish what we wait on so the watchdog can tell
    // a genuinely blocked processor from a running one.
    wait_.parked = true;
    wait_.sym = sym;
    wait_.section = s;
    waitEpoch_.fetch_add(1, std::memory_order_relaxed);
    cv_.wait(lk);
    wait_.parked = false;
    waitEpoch_.fetch_add(1, std::memory_order_relaxed);
  }
}

ProcTable::WaitState ProcTable::waitState() const {
  std::shared_lock lk(mu_);
  WaitState w;
  w.epoch = waitEpoch_.load(std::memory_order_relaxed);
  if (!wait_.parked) return w;
  // Re-derive blockedness from the actual table state: if the awaited
  // section has become accessible (or unowned), the thread has a wake-up
  // pending and is not stuck, however long the OS takes to schedule it.
  if (stateOfLocked(wait_.sym, wait_.section, nullptr) != 0) return w;
  w.blocked = true;
  w.sym = wait_.sym;
  w.section = wait_.section;
  return w;
}

void ProcTable::abortWaits(std::string summary,
                           std::shared_ptr<const std::string> report) {
  std::lock_guard lk(mu_);
  abortSummary_ = std::move(summary);
  abortReport_ = std::move(report);
  aborted_.store(true, std::memory_order_release);
  cv_.notify_all();
}

void ProcTable::throwAbortLocked(const char* where) const {
  throw DeadlockError(
      abortSummary_ + " [p" + std::to_string(pid_) + " " + where + "]",
      abortReport_ ? *abortReport_ : std::string());
}

ProcTable::CacheStats ProcTable::cacheStats() const {
  CacheStats c;
  c.hits = cacheHits_.load(std::memory_order_relaxed);
  c.misses = cacheMisses_.load(std::memory_order_relaxed);
  return c;
}

Index ProcTable::mylb(int sym, const Section& s, int d) const {
  std::shared_lock lk(mu_);
  const Entry& e = entry(sym);
  Index best = kMaxInt;
  forEachCandidateLocked(e, s, [&](const SegmentDesc& seg) {
    Section i = Section::intersect(seg.bounds, s);
    if (i.empty()) return;
    best = std::min(best, i.dim(d).lb());
  });
  return best;
}

Index ProcTable::myub(int sym, const Section& s, int d) const {
  std::shared_lock lk(mu_);
  const Entry& e = entry(sym);
  Index best = kMinInt;
  forEachCandidateLocked(e, s, [&](const SegmentDesc& seg) {
    Section i = Section::intersect(seg.bounds, s);
    if (i.empty()) return;
    best = std::max(best, i.dim(d).ub());
  });
  return best;
}

void ProcTable::readElemsLocked(const Entry& e, int sym, const Section& s,
                                std::byte* out) const {
  const std::size_t sz = e.pool.elemSz;
  if (debugChecks_ && pendingOverlapsLocked(e, s)) {
    std::ostringstream os;
    os << "read of transitional section " << s.str() << " of symbol '"
       << decl(sym).name << "' on p" << pid_
       << " (an initiated receive has not completed)";
    XDP_USAGE_FAIL(os.str());
  }
  Index covered = 0;
  forEachCandidateLocked(e, s, [&](const SegmentDesc& seg) {
    Section i = Section::intersect(seg.bounds, s);
    if (i.empty()) return;
    covered += i.count();
    const std::byte* base = e.pool.bytes.data() + seg.elemOffset * sz;
    i.forEach([&](const Point& p) {
      std::memcpy(out + static_cast<std::size_t>(s.fortranPos(p)) * sz,
                  base + static_cast<std::size_t>(seg.bounds.fortranPos(p)) * sz,
                  sz);
    });
  });
  if (debugChecks_ && covered != s.count()) {
    std::ostringstream os;
    os << "read of unowned elements: " << s.str() << " of '"
       << decl(sym).name << "' on p" << pid_;
    XDP_USAGE_FAIL(os.str());
  }
}

int ProcTable::segmentAtLocked(const Entry& e, const Point& p) const {
  const int hint = e.segHint.load(std::memory_order_relaxed);
  if (hint >= 0 && hint < static_cast<int>(e.segs.size()) &&
      e.segs[static_cast<std::size_t>(hint)].bounds.contains(p))
    return hint;
  std::array<sec::Triplet, sec::kMaxRank> dims{};
  for (int d = 0; d < p.rank(); ++d)
    dims[static_cast<std::size_t>(d)] = sec::Triplet(p[d]);
  const Section ps(p.rank(), dims);
  int found = -1;
  forEachCandidateLocked(e, ps, [&](const SegmentDesc& seg) {
    if (found < 0 && seg.bounds.contains(p))
      found = static_cast<int>(&seg - e.segs.data());
  });
  if (found >= 0) e.segHint.store(found, std::memory_order_relaxed);
  return found;
}

bool ProcTable::tryReadElemAt(int sym, const Point& p, std::byte* out) const {
  std::shared_lock lk(mu_);
  const Entry& e = entry(sym);
  if (!e.pendingRecvs.empty()) return false;
  const int idx = segmentAtLocked(e, p);
  if (idx < 0) return false;
  const SegmentDesc& seg = e.segs[static_cast<std::size_t>(idx)];
  const std::size_t sz = e.pool.elemSz;
  std::memcpy(out,
              e.pool.bytes.data() +
                  (seg.elemOffset +
                   static_cast<std::size_t>(seg.bounds.fortranPos(p))) *
                      sz,
              sz);
  return true;
}

bool ProcTable::tryWriteElemAt(int sym, const Point& p, const std::byte* in) {
  // Exclusive, like writeElems: concurrent shared-locked readers (gather,
  // monitoring) must never observe a mid-write element.
  std::lock_guard lk(mu_);
  Entry& e = entry(sym);
  if (!e.pendingRecvs.empty()) return false;
  const int idx = segmentAtLocked(e, p);
  if (idx < 0) return false;
  SegmentDesc& seg = e.segs[static_cast<std::size_t>(idx)];
  const std::size_t sz = e.pool.elemSz;
  std::memcpy(e.pool.bytes.data() +
                  (seg.elemOffset +
                   static_cast<std::size_t>(seg.bounds.fortranPos(p))) *
                      sz,
              in, sz);
  return true;
}

ProcTable::ElemLease::ElemLease(ProcTable& t)
    : t_(&t), lk_(t.mu_), win_(t.entries_.size()) {}

/// Address of the element at `p`, window-first. A window hit is pure
/// local arithmetic; a miss re-resolves through the segment index and
/// re-fills the window when the covering segment is contiguous. Returns
/// nullptr when the point is not plainly accessible.
std::byte* ProcTable::ElemLease::resolve(int sym, const Point& p, Window& w) {
  if (w.base != nullptr) {
    std::size_t pos = 0;
    int d = 0;
    for (; d < w.rank; ++d) {
      const Index x = p[d];
      if (x < w.lb[static_cast<std::size_t>(d)] ||
          x > w.ub[static_cast<std::size_t>(d)])
        break;
      pos += static_cast<std::size_t>(
                 (x - w.lb[static_cast<std::size_t>(d)]) *
                 w.mult[static_cast<std::size_t>(d)]);
    }
    if (d == w.rank) return w.base + pos * w.sz;
  }
  Entry& e = t_->entry(sym);
  if (!e.pendingRecvs.empty()) return nullptr;
  const int idx = t_->segmentAtLocked(e, p);
  if (idx < 0) return nullptr;
  const SegmentDesc& seg = e.segs[static_cast<std::size_t>(idx)];
  const std::size_t sz = e.pool.elemSz;
  std::byte* addr =
      e.pool.bytes.data() +
      (seg.elemOffset + static_cast<std::size_t>(seg.bounds.fortranPos(p))) *
          sz;
  bool contiguous = true;
  for (int d = 0; d < seg.bounds.rank(); ++d)
    contiguous = contiguous && seg.bounds.dim(d).stride() == 1;
  if (contiguous) {
    w.base = e.pool.bytes.data() + seg.elemOffset * sz;
    w.sz = sz;
    w.rank = seg.bounds.rank();
    Index mult = 1;
    for (int d = 0; d < w.rank; ++d) {
      const sec::Triplet& tr = seg.bounds.dim(d);
      w.lb[static_cast<std::size_t>(d)] = tr.lb();
      w.ub[static_cast<std::size_t>(d)] = tr.ub();
      w.mult[static_cast<std::size_t>(d)] = mult;
      mult *= tr.count();
    }
  }
  return addr;
}

bool ProcTable::ElemLease::tryRead(int sym, const Point& p, std::byte* out) {
  Window& w = win_[static_cast<std::size_t>(sym)];
  const std::byte* addr = resolve(sym, p, w);
  if (addr == nullptr) return false;
  std::memcpy(out, addr, w.sz != 0 ? w.sz : t_->entry(sym).pool.elemSz);
  return true;
}

bool ProcTable::ElemLease::tryWrite(int sym, const Point& p,
                                    const std::byte* in) {
  Window& w = win_[static_cast<std::size_t>(sym)];
  std::byte* addr = resolve(sym, p, w);
  if (addr == nullptr) return false;
  std::memcpy(addr, in, w.sz != 0 ? w.sz : t_->entry(sym).pool.elemSz);
  return true;
}

// Window-miss halves of the inline rank-1 accessors: fall back to the
// generic resolve(), which also refills the window for the next hit.
bool ProcTable::ElemLease::readSlow1(int sym, Index x, std::byte* out) {
  std::array<Index, sec::kMaxRank> idx{};
  idx[0] = x;
  return tryRead(sym, Point(1, idx), out);
}

bool ProcTable::ElemLease::writeSlow1(int sym, Index x, const std::byte* in) {
  std::array<Index, sec::kMaxRank> idx{};
  idx[0] = x;
  return tryWrite(sym, Point(1, idx), in);
}

void ProcTable::readElems(int sym, const Section& s, std::byte* out) const {
  // Shared lock: element bytes are only written by the owning processor's
  // thread (writeElems) and by completeReceive, which takes the exclusive
  // lock — so a shared-locked read never races a byte write it could see.
  std::shared_lock lk(mu_);
  readElemsLocked(entry(sym), sym, s, out);
}

void ProcTable::writeElems(int sym, const Section& s, const std::byte* in) {
  // Exclusive: scatters into pool bytes, which concurrent shared-locked
  // readers (gather, monitoring) might otherwise observe mid-write.
  std::lock_guard lk(mu_);
  Entry& e = entry(sym);
  const std::size_t sz = e.pool.elemSz;
  if (debugChecks_ && pendingOverlapsLocked(e, s)) {
    std::ostringstream os;
    os << "write to transitional section " << s.str() << " of '"
       << decl(sym).name << "' on p" << pid_;
    XDP_USAGE_FAIL(os.str());
  }
  Index covered = 0;
  forEachCandidateLocked(e, s, [&](const SegmentDesc& seg) {
    Section i = Section::intersect(seg.bounds, s);
    if (i.empty()) return;
    covered += i.count();
    std::byte* base = e.pool.bytes.data() + seg.elemOffset * sz;
    i.forEach([&](const Point& p) {
      std::memcpy(base + static_cast<std::size_t>(seg.bounds.fortranPos(p)) * sz,
                  in + static_cast<std::size_t>(s.fortranPos(p)) * sz, sz);
    });
  });
  if (debugChecks_ && covered != s.count()) {
    std::ostringstream os;
    os << "write to unowned elements: " << s.str() << " of '"
       << decl(sym).name << "' on p" << pid_;
    XDP_USAGE_FAIL(os.str());
  }
}

void ProcTable::beginReceive(int sym, const Section& s) {
  std::lock_guard lk(mu_);
  Entry& e = entry(sym);
  if (debugChecks_) {
    Index covered = 0;
    for (const SegmentDesc& seg : e.segs)
      covered += Section::intersect(seg.bounds, s).count();
    if (covered != s.count()) {
      std::ostringstream os;
      os << "receive initiated into unowned section " << s.str() << " of '"
         << decl(sym).name << "' on p" << pid_;
      XDP_USAGE_FAIL(os.str());
    }
  }
  e.pendingRecvs.push_back(s);
  e.epoch.fetch_add(1, std::memory_order_release);
}

void ProcTable::completeReceive(int sym, const Section& s,
                                const std::byte* payload,
                                double arrivalTime) {
  std::lock_guard lk(mu_);
  Entry& e = entry(sym);
  const std::size_t sz = e.pool.elemSz;
  forEachCandidateLocked(e, s, [&](const SegmentDesc& cseg) {
    auto& seg = const_cast<SegmentDesc&>(cseg);
    Section i = Section::intersect(seg.bounds, s);
    if (i.empty()) return;
    if (payload != nullptr) {
      std::byte* base = e.pool.bytes.data() + seg.elemOffset * sz;
      i.forEach([&](const Point& p) {
        std::memcpy(
            base + static_cast<std::size_t>(seg.bounds.fortranPos(p)) * sz,
            payload + static_cast<std::size_t>(s.fortranPos(p)) * sz, sz);
      });
    }
    seg.arrival = std::max(seg.arrival, arrivalTime);
  });
  // Retire exactly one outstanding receive for this section (several may
  // legally target the same name, per paper section 2.7).
  for (auto it = e.pendingRecvs.begin(); it != e.pendingRecvs.end(); ++it) {
    if (*it == s) {
      e.pendingRecvs.erase(it);
      break;
    }
  }
  e.epoch.fetch_add(1, std::memory_order_release);
  cv_.notify_all();
}

std::vector<std::byte> ProcTable::takeOwnershipOut(int sym, const Section& s,
                                                   bool withValue) {
  std::lock_guard lk(mu_);
  Entry& e = entry(sym);
  const std::size_t sz = e.pool.elemSz;

  std::vector<std::byte> payload;
  if (withValue) {
    payload.resize(static_cast<std::size_t>(s.count()) * sz);
    readElemsLocked(e, sym, s, payload.data());
  } else if (debugChecks_) {
    // Validate full ownership even when no value travels.
    if (stateOfLocked(sym, s, nullptr) < 0) {
      std::ostringstream os;
      os << "ownership send of not-fully-owned section " << s.str()
         << " of '" << decl(sym).name << "' on p" << pid_;
      XDP_USAGE_FAIL(os.str());
    }
  }

  // Split/remove segments. New descriptors for remainder pieces get fresh
  // storage; the transferred elements' storage is released — this is the
  // paper's storage-reuse benefit (section 2.6).
  XDP_CHECK(!pendingOverlapsLocked(e, s),
            "ownership transfer of a transitional section (missing await)");
  std::vector<SegmentDesc> kept;
  std::vector<SegmentDesc> added;
  for (SegmentDesc& seg : e.segs) {
    Section i = Section::intersect(seg.bounds, s);
    if (i.empty()) {
      kept.push_back(std::move(seg));
      continue;
    }
    for (const Section& piece : Section::subtract(seg.bounds, s)) {
      SegmentDesc nd;
      nd.status = SegState::Accessible;
      nd.bounds = piece;
      nd.arrival = seg.arrival;
      nd.elemOffset = e.pool.allocate(static_cast<std::size_t>(piece.count()));
      // Copy the surviving values old segment -> new piece.
      const std::byte* src = e.pool.bytes.data() + seg.elemOffset * sz;
      std::byte* dst = e.pool.bytes.data() + nd.elemOffset * sz;
      piece.forEach([&](const Point& p) {
        std::memcpy(
            dst + static_cast<std::size_t>(piece.fortranPos(p)) * sz,
            src + static_cast<std::size_t>(seg.bounds.fortranPos(p)) * sz, sz);
      });
      added.push_back(std::move(nd));
    }
    e.pool.release(seg.elemOffset, static_cast<std::size_t>(seg.count()));
  }
  e.segs = std::move(kept);
  e.segs.insert(e.segs.end(), std::make_move_iterator(added.begin()),
                std::make_move_iterator(added.end()));
  rebuildIndexLocked(e);
  e.epoch.fetch_add(1, std::memory_order_release);
  cv_.notify_all();
  return payload;
}

void ProcTable::beginOwnershipReceive(int sym, const Section& s) {
  std::lock_guard lk(mu_);
  Entry& e = entry(sym);
  if (debugChecks_) {
    for (const SegmentDesc& seg : e.segs) {
      if (!Section::intersect(seg.bounds, s).empty()) {
        std::ostringstream os;
        os << "ownership receive of already-owned section " << s.str()
           << " of '" << decl(sym).name << "' on p" << pid_
           << " (overlaps segment " << seg.bounds.str() << ")";
        XDP_USAGE_FAIL(os.str());
      }
    }
  }
  SegmentDesc seg;
  seg.status = SegState::Transitional;
  seg.bounds = s;
  seg.elemOffset = e.pool.allocate(static_cast<std::size_t>(s.count()));
  e.segs.push_back(std::move(seg));
  e.pendingRecvs.push_back(s);
  rebuildIndexLocked(e);
  e.epoch.fetch_add(1, std::memory_order_release);
}

std::vector<SegmentDesc> ProcTable::segments(int sym) const {
  std::shared_lock lk(mu_);
  const Entry& e = entry(sym);
  std::vector<SegmentDesc> out = e.segs;
  // Statuses are snapshots: a segment is transitional iff an uncompleted
  // receive overlaps it (Figure 1's per-section state, segment-projected).
  for (SegmentDesc& seg : out)
    seg.status = pendingOverlapsLocked(e, seg.bounds)
                     ? SegState::Transitional
                     : SegState::Accessible;
  return out;
}

StorageStats ProcTable::storageStats(int sym) const {
  std::shared_lock lk(mu_);
  return entry(sym).pool.stats;
}

std::size_t ProcTable::totalOwnedElems() const {
  std::shared_lock lk(mu_);
  std::size_t n = 0;
  for (const Entry& e : entries_) n += e.pool.stats.currentElems;
  return n;
}

std::size_t ProcTable::residentBytes() const {
  std::shared_lock lk(mu_);
  std::size_t n = 0;
  for (const Entry& e : entries_)
    n += e.pool.stats.currentElems * e.pool.elemSz;
  return n;
}

void ProcTable::setWaitInterrupt(std::function<void()> fn) {
  std::lock_guard lk(mu_);
  waitInterrupt_ = std::move(fn);
}

void ProcTable::notifyWaiters() {
  std::lock_guard lk(mu_);
  cv_.notify_all();
}

std::vector<std::byte> ProcTable::exportImage() const {
  std::shared_lock lk(mu_);
  ckpt::Writer w;
  w.u32(static_cast<std::uint32_t>(entries_.size()));
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    const std::size_t sz = e.pool.elemSz;
    w.u32(static_cast<std::uint32_t>(e.segs.size()));
    for (const SegmentDesc& seg : e.segs) {
      net::wire::putSection(w, seg.bounds);
      w.f64(seg.arrival);
      w.bytes(e.pool.bytes.data() + seg.elemOffset * sz,
              static_cast<std::size_t>(seg.count()) * sz);
    }
    w.u32(static_cast<std::uint32_t>(e.pendingRecvs.size()));
    for (const Section& s : e.pendingRecvs) net::wire::putSection(w, s);
    w.u64(e.epoch.load(std::memory_order_relaxed));
  }
  return w.take();
}

void ProcTable::restoreImage(const std::vector<std::byte>& image) {
  struct SegImg {
    Section bounds;
    double arrival;
    std::vector<std::byte> payload;
  };
  struct EntryImg {
    std::vector<SegImg> segs;
    std::vector<Section> pendingRecvs;
  };
  // Decode and validate fully before touching live entries, so a corrupt
  // image throws with the table unchanged.
  ckpt::Reader r(image);
  if (r.u32() != entries_.size())
    throw ckpt::CkptError("table image symbol count mismatch");
  std::vector<EntryImg> imgs;
  imgs.reserve(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const std::size_t sz = elemSize(decls_[i].type);
    EntryImg img;
    const std::uint32_t nsegs = r.u32();
    for (std::uint32_t k = 0; k < nsegs; ++k) {
      SegImg seg;
      seg.bounds = net::wire::getSection(r);
      seg.arrival = r.f64();
      seg.payload = r.bytes();
      if (seg.payload.size() !=
          static_cast<std::size_t>(seg.bounds.count()) * sz)
        throw ckpt::CkptError("table image segment payload size mismatch");
      img.segs.push_back(std::move(seg));
    }
    const std::uint32_t npend = r.u32();
    for (std::uint32_t k = 0; k < npend; ++k)
      img.pendingRecvs.push_back(net::wire::getSection(r));
    (void)r.u64();  // epoch at capture — diagnostic only, see below
    imgs.push_back(std::move(img));
  }

  std::lock_guard lk(mu_);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    Entry& e = entries_[i];
    EntryImg& img = imgs[i];
    const std::size_t sz = elemSize(decls_[i].type);
    e.pool = Pool{};
    e.pool.elemSz = sz;
    e.segs.clear();
    for (SegImg& si : img.segs) {
      SegmentDesc seg;
      seg.status = SegState::Accessible;
      seg.bounds = std::move(si.bounds);
      seg.arrival = si.arrival;
      seg.elemOffset =
          e.pool.allocate(static_cast<std::size_t>(seg.bounds.count()));
      std::memcpy(e.pool.bytes.data() + seg.elemOffset * sz,
                  si.payload.data(), si.payload.size());
      e.segs.push_back(std::move(seg));
    }
    e.pendingRecvs = std::move(img.pendingRecvs);
    rebuildIndexLocked(e);
    e.segHint.store(-1, std::memory_order_relaxed);
    // The epoch keeps running FORWARD across a rollback (never restored):
    // epochs from the abandoned timeline may live on in memo-cache slots,
    // and re-entering an already-used epoch value with different table
    // contents would validate those stale answers. Invalidate the slots
    // too, for belt and braces.
    e.epoch.fetch_add(1, std::memory_order_release);
    {
      std::lock_guard ck(e.cacheMu);
      for (CacheSlot& slot : e.cache) slot.valid = false;
    }
  }
  cv_.notify_all();
}

}  // namespace xdp::rt
