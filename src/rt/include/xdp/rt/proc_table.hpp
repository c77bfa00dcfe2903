// The per-processor run-time XDP symbol table (paper section 3.1).
//
// "Each processor must maintain and update its own local copy of the XDP
// symbol table structure at run-time, unless all uses of the table have
// been optimized away. In contrast to a regular symbol table, the run-time
// XDP symbol table only contains information about exclusive sections."
//
// The table holds, per symbol, a dynamic array of segment descriptors and
// a storage pool. Ownership transfer removes/creates descriptors (the
// paper's "shaded" run-time fields); a section is *unowned* exactly when
// some element of it is covered by no descriptor. Segments are split when
// ownership of a sub-section leaves, so transfers work at any granularity
// the compiler chooses (the language permits single elements; segments are
// the efficiency mechanism).
//
// Ownership fast path (DESIGN.md "Ownership fast path"): the paper's
// iown() sits on the hot path of every owner-computes guard, so the table
// keeps three accelerating structures per symbol:
//   * a sorted dim-0 interval index over the segment descriptors, so
//     coverage queries intersect O(log n + k) candidates instead of every
//     segment;
//   * an *ownership epoch*, bumped under the writer lock by every mutating
//     transition (receive initiation/completion, ownership send/receive),
//     which timestamps any derived result;
//   * a small epoch-validated memo cache, so a repeated iown/accessible/
//     await query on the same section is one atomic epoch compare.
//
// Thread-safety: reads (iown, accessible, the read half of await, mylb,
// myub, readElems, introspection) take a shared lock; mutations take the
// exclusive lock and bump the entry epoch before returning. Cache hits are
// lock-free with respect to mu_ (see stateCached). Fabric completion
// callbacks call back into beginReceive/completeReceive; the lock order is
// always fabric -> table (see Fabric docs).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "xdp/rt/symbol.hpp"
#include "xdp/sections/region_list.hpp"

namespace xdp::rt {

/// Storage accounting, for the paper's "storage it had occupied can be
/// reused for a newly acquired section" claim (section 2.6).
struct StorageStats {
  std::size_t currentElems = 0;
  std::size_t peakElems = 0;
  std::size_t poolElems = 0;  ///< backing pool size (high-water allocation)
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
};

class ProcTable {
 public:
  ProcTable(int pid, const std::vector<SymbolDecl>& decls, bool debugChecks);

  int pid() const { return pid_; }
  const SymbolDecl& decl(int sym) const;
  int numSymbols() const { return static_cast<int>(decls_.size()); }

  // --- intrinsics (paper Figure 1) ------------------------------------
  bool iown(int sym, const Section& s) const;
  bool accessible(int sym, const Section& s) const;
  /// Returns false immediately if `s` is unowned; otherwise blocks until
  /// accessible and returns true. If `arrival` is non-null it receives the
  /// max virtual arrival time over the segments covering `s`.
  bool await(int sym, const Section& s, double* arrival = nullptr);
  Index mylb(int sym, const Section& s, int d) const;
  Index myub(int sym, const Section& s, int d) const;

  /// The maximal owned sub-sections of `s`, as disjoint sections, computed
  /// in one indexed pass (the query API behind interpreter guard
  /// range-splitting). With `excludeTransitional`, sub-sections overlapped
  /// by an uncompleted receive are removed, i.e. the result is the
  /// *accessible* part of `s`.
  sec::RegionList ownedRanges(int sym, const Section& s,
                              bool excludeTransitional = false) const;

  // --- element access --------------------------------------------------
  /// Gather the owned elements of `s` into `out` (count()*elemSize bytes),
  /// in `s`'s Fortran order. Unowned positions are left untouched. In
  /// debug-checks mode, reading an incompletely-owned or non-accessible
  /// section is a usage error.
  void readElems(int sym, const Section& s, std::byte* out) const;
  /// Scatter `in` (Fortran order of `s`) into the owned elements of `s`.
  void writeElems(int sym, const Section& s, const std::byte* in);

  /// Single-element fast path for the interpreters' point accesses: copy
  /// the one element at `p`, resolving the covering segment via a
  /// per-symbol last-segment hint instead of the generic candidate walk
  /// and per-point intersection. Returns false — touching nothing — when
  /// the element is not plainly accessible (uncovered, or any receive
  /// outstanding on the symbol); callers then fall back to
  /// readElems/writeElems, which implement the exact unowned and
  /// transitional semantics and diagnostics.
  bool tryReadElemAt(int sym, const Point& p, std::byte* out) const;
  bool tryWriteElemAt(int sym, const Point& p, const std::byte* in);

  /// Exclusive element lease for compiled pure loops. The bytecode
  /// backend proves at compile time that a loop body performs only
  /// register arithmetic and point element accesses — no communication,
  /// no cold callbacks, nothing blocking — takes the table lock once for
  /// the whole loop, and touches elements directly. (The tree walker
  /// cannot: it discovers statement kinds dynamically.) Holding the
  /// exclusive lock across the loop is deadlock-free because leased code
  /// acquires nothing else: the table is the innermost lock in the
  /// fabric -> table order, so concurrent deliveries into this table
  /// simply wait out the loop (wall-clock only; virtual times are
  /// computed at send). A failed try* means the access needs the generic
  /// path — the caller must DROP the lease first (same mutex).
  class ElemLease {
   public:
    explicit ElemLease(ProcTable& t);
    bool tryRead(int sym, const Point& p, std::byte* out);
    bool tryWrite(int sym, const Point& p, const std::byte* in);

    /// Rank-1 access with the window-hit path inlined at the call site:
    /// a hit is two compares, one multiply-add, and a fixed 8-byte copy
    /// (all XDP element types are 8 bytes wide) — no out-of-line call.
    bool tryRead1(int sym, Index x, std::byte* out) {
      const Window& w = win_[static_cast<std::size_t>(sym)];
      if (w.base != nullptr && w.rank == 1 && x >= w.lb[0] && x <= w.ub[0]) {
        copy8(out, w.base + static_cast<std::size_t>(x - w.lb[0]) * w.sz,
              w.sz);
        return true;
      }
      return readSlow1(sym, x, out);
    }
    bool tryWrite1(int sym, Index x, const std::byte* in) {
      const Window& w = win_[static_cast<std::size_t>(sym)];
      if (w.base != nullptr && w.rank == 1 && x >= w.lb[0] && x <= w.ub[0]) {
        copy8(w.base + static_cast<std::size_t>(x - w.lb[0]) * w.sz, in,
              w.sz);
        return true;
      }
      return writeSlow1(sym, x, in);
    }

   private:
    static void copy8(std::byte* dst, const std::byte* src, std::size_t sz) {
      if (sz == 8)
        std::memcpy(dst, src, 8);  // compiles to one load/store pair
      else
        std::memcpy(dst, src, sz);
    }
    bool readSlow1(int sym, Index x, std::byte* out);
    bool writeSlow1(int sym, Index x, const std::byte* in);
    /// Per-symbol window onto the last-hit contiguous segment: bounds
    /// and Fortran multipliers unpacked into flat arrays so the hot
    /// access is pure local arithmetic (no Section calls, no lookups).
    /// Strided segments are never cached — they resolve per access.
    struct Window {
      std::byte* base = nullptr;  ///< storage for the segment's first elem
      std::size_t sz = 0;
      int rank = 0;
      std::array<Index, sec::kMaxRank> lb{}, ub{}, mult{};
    };
    std::byte* resolve(int sym, const Point& p, Window& w);

    ProcTable* t_;
    std::unique_lock<std::shared_mutex> lk_;
    std::vector<Window> win_;  ///< by symbol
  };

  // --- transfer-engine hooks (used by Proc, not by node programs) ------
  /// Receive initiation: put every segment intersecting `s` in state
  /// transitional (paper section 2.7). `s` must be owned.
  void beginReceive(int sym, const Section& s);
  /// Receive completion: optionally scatter `payload` (Fortran order of
  /// `s`), restore segments to accessible, record `arrivalTime`, wake
  /// awaiters.
  void completeReceive(int sym, const Section& s, const std::byte* payload,
                       double arrivalTime);
  /// Ownership-send bookkeeping: remove `s` from the owned set, splitting
  /// boundary segments; returns the serialized values of `s` when
  /// `withValue` (empty vector otherwise). Caller must have awaited
  /// accessibility of `s` first.
  std::vector<std::byte> takeOwnershipOut(int sym, const Section& s,
                                          bool withValue);
  /// Ownership-receive initiation: `s` must be entirely unowned; creates a
  /// transitional segment (zero-initialized storage) covering `s`.
  void beginOwnershipReceive(int sym, const Section& s);

  // --- introspection ----------------------------------------------------
  std::vector<SegmentDesc> segments(int sym) const;
  StorageStats storageStats(int sym) const;
  /// Sum of currently owned elements over all symbols (storage footprint).
  std::size_t totalOwnedElems() const;

  /// Bytes currently resident (owned elements x element size, summed over
  /// all symbols) — the figure per-session memory quotas are enforced
  /// against (see xdp::serve::Quotas::maxResidentBytes).
  std::size_t residentBytes() const;

  /// Memo-cache effectiveness over this table's lifetime (all symbols).
  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  CacheStats cacheStats() const;

  // --- hang diagnostics (used by the runtime watchdog) ------------------
  /// What this processor's thread is blocked on, if anything. `blocked` is
  /// true only when the thread is parked in await() AND the awaited
  /// section is still transitional *right now* (re-checked under the
  /// table lock), so a woken-but-not-yet-scheduled thread never reads as
  /// blocked. `epoch` increments on every park/unpark; two observations
  /// with equal epochs and blocked=true mean the thread never moved.
  struct WaitState {
    bool blocked = false;
    int sym = -1;
    Section section;
    std::uint64_t epoch = 0;
  };
  WaitState waitState() const;

  /// Fail the current await (and every later one on this table) with a
  /// DeadlockError carrying `summary` and `report`. Called by the
  /// watchdog once a deadlock is certain; sticky for this table's life.
  void abortWaits(std::string summary,
                  std::shared_ptr<const std::string> report);

  // --- checkpoint image (DESIGN.md §11) ---------------------------------
  /// Serialize this table's run-time contents: per symbol, the segment
  /// descriptors (bounds, arrival, element payload) and the outstanding
  /// receive sections, plus the ownership epoch. Shared lock; callers
  /// export only at a capture point.
  std::vector<std::byte> exportImage() const;
  /// Inverse of exportImage: rebuild every entry from the image under the
  /// exclusive lock. Storage is reallocated, indexes rebuilt, memo caches
  /// invalidated, epochs advanced past every value ever handed out (so no
  /// stale epoch-validated cache entry can survive the rollback), and
  /// waiters woken. Throws CkptError on a malformed image.
  void restoreImage(const std::vector<std::byte>& image);

  /// Install a hook polled by blocked awaits on every wake-up, before the
  /// state re-check. The runtime points it at the checkpoint controller so
  /// a rollback/preempt signal can unwind a blocked processor (the hook
  /// throws; the continuation image for this position was published
  /// before the blocking statement). Set while no node threads run.
  void setWaitInterrupt(std::function<void()> fn);
  /// Wake every blocked await so it re-polls the interrupt hook.
  void notifyWaiters();

 private:
  struct Pool {
    std::vector<std::byte> bytes;
    std::vector<std::pair<std::size_t, std::size_t>> freeList;  // offset,elems
    std::size_t elemSz = 1;
    StorageStats stats;

    std::size_t allocate(std::size_t elems);
    void release(std::size_t offset, std::size_t elems);
  };
  /// One memo slot: the state (and optionally arrival fold) of a query
  /// section, valid while the entry epoch still equals `epoch`.
  struct CacheSlot {
    Section key;
    std::uint64_t epoch = 0;
    double arrival = 0.0;
    std::int8_t state = 0;        // -1 unowned / 0 transitional / 1 accessible
    bool valid = false;
    bool hasArrival = false;      // arrival fold was computed for this fill
  };
  struct Entry {
    std::vector<SegmentDesc> segs;
    /// Outstanding (initiated, uncompleted) receive sections. A section of
    /// the symbol is transitional iff it intersects one of these — exact
    /// per-section state, so disjoint concurrent receives do not shadow
    /// each other the way coarse per-segment flags would.
    std::vector<Section> pendingRecvs;
    Pool pool;

    // --- ownership fast path ------------------------------------------
    /// Seg indices sorted by dim-0 lower bound, plus the running max of
    /// dim-0 upper bound over that order: candidates overlapping a query
    /// [qlb,qub] are a binary search plus a bounded backward walk.
    std::vector<int> order;
    std::vector<Index> prefixMaxUb;
    /// Bumped (under the exclusive lock) by every mutation that can change
    /// the answer of a state query: segs or pendingRecvs edits, arrival
    /// updates. Readable lock-free.
    std::atomic<std::uint64_t> epoch{0};
    /// Leaf lock guarding the memo slots; never held together with mu_
    /// acquisition (taken while holding mu_ on fills, alone on hits).
    mutable std::mutex cacheMu;
    mutable std::array<CacheSlot, 4> cache;
    mutable int cacheHand = 0;
    /// Hint for the single-element fast path: index of the segment that
    /// served the last point access. Pure accelerator — always
    /// re-validated against the live descriptor before use. Atomic so
    /// concurrent shared-lock holders may refresh it racelessly.
    mutable std::atomic<int> segHint{-1};
  };

  const Entry& entry(int sym) const;
  Entry& entry(int sym);

  /// Coverage of `s` by this table's segments: -1 if some element unowned,
  /// 0 if owned but an uncompleted receive overlaps `s` (transitional),
  /// 1 if accessible. Folds the max arrival only when `arrival` is
  /// non-null. Caller holds mu_ (shared suffices).
  int stateOfLocked(int sym, const Section& s, double* arrival) const;

  /// Cached state query: memo hit (lock-free w.r.t. mu_) or shared-locked
  /// compute + fill. Returns the state; fills `*arrival` when non-null.
  int stateCached(int sym, const Section& s, double* arrival) const;

  /// Visit the segments that can intersect `s`, via the dim-0 index when
  /// profitable. Caller holds mu_.
  template <typename Fn>
  void forEachCandidateLocked(const Entry& e, const Section& s,
                              Fn&& fn) const;

  /// Recompute `order`/`prefixMaxUb` after a segs mutation. Caller holds
  /// mu_ exclusively.
  static void rebuildIndexLocked(Entry& e);

  /// True iff an outstanding receive overlaps `s`. Caller holds mu_.
  static bool pendingOverlapsLocked(const Entry& e, const Section& s);

  bool cacheLookup(const Entry& e, const Section& s, bool wantArrival,
                   int* state, double* arrival) const;
  void cacheStore(const Entry& e, const Section& s, std::uint64_t epoch,
                  int state, bool hasArrival, double arrival) const;

  void readElemsLocked(const Entry& e, int sym, const Section& s,
                       std::byte* out) const;

  /// Index of the segment containing `p`, hint-first; -1 if uncovered.
  /// Caller holds mu_ (shared suffices).
  int segmentAtLocked(const Entry& e, const Point& p) const;

  const int pid_;
  const bool debugChecks_;
  std::vector<SymbolDecl> decls_;

  [[noreturn]] void throwAbortLocked(const char* where) const;

  mutable std::shared_mutex mu_;
  std::condition_variable_any cv_;
  /// Deque: entries hold atomics/mutexes (immovable) and references must
  /// stay stable for the lock-free cache-hit path.
  std::deque<Entry> entries_;

  mutable std::atomic<std::uint64_t> cacheHits_{0};
  mutable std::atomic<std::uint64_t> cacheMisses_{0};

  // Watchdog state (wait_ guarded by mu_; epoch also readable lock-free).
  struct CurrentWait {
    bool parked = false;
    int sym = -1;
    Section section;
  };
  CurrentWait wait_;
  std::atomic<std::uint64_t> waitEpoch_{0};
  std::atomic<bool> aborted_{false};
  std::string abortSummary_;
  std::shared_ptr<const std::string> abortReport_;
  std::function<void()> waitInterrupt_;  ///< polled in await's wait loop
};

}  // namespace xdp::rt
