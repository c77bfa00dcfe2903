// The simulated message-passing machine.
//
// A Fabric has P endpoints (one per simulated processor). All operations
// are non-blocking: XDP's blocking semantics (await, blocked owner-sends)
// live in the runtime layer, which waits on its symbol table's condition
// variable; the fabric merely matches messages to posted receives and runs
// a completion callback when a match happens.
//
// Two delivery routes exist, reflecting the paper's delayed communication
// binding (section 3.2):
//
//   * direct    — the send named its destination set ("E -> S", or the
//                 CommBinding pass annotated the receiver). One hop.
//   * rendezvous— "send to an unspecified processor" ("E ->", "E -=>").
//                 Sender and receiver meet at a matchmaker, FCFS per name;
//                 the message pays an extra control hop (CostModel::
//                 matchHop). This is also what makes the paper's
//                 section 2.7 pattern work: several processors may have
//                 receives outstanding for the *same* name, and each
//                 matching send is handed to the first waiter in line.
//
// Delivery is synchronous and has one path: the sending thread delivers
// inline, so send() returns only after its message completed a receive or
// was parked (as unexpected, or at the matcher). Apart from messages a
// reorder fault holds back, nothing is ever in flight between endpoints,
// which is what lets the runtime read "every processor blocked" as a
// deadlock (DESIGN.md §12).
//
// Locking: one mutex guards all fabric state — clocks, stats, pending
// receives, unexpected queues, the rendezvous matcher, the duplicate set,
// the barrier and the whole fault injector — and one condition variable
// over it parks barrier waiters. A send is one critical section: account,
// decide faults, route, complete. A fabric serves one session's few node
// threads; DESIGN.md §5 has the measurements behind the single lock.
//
//   * Hooks run outside the lock: the send hook before the send takes it,
//     the crash hook after it is released (it reaches into the checkpoint
//     controller). The barrier interrupt hook runs under it; it only reads
//     the controller's atomic signal.
//   * Completion callbacks run under the lock and may take the
//     destination symbol table's lock (lock order: fabric -> symtab).
//     Callers must never invoke fabric operations while holding a symbol
//     table lock, and completion callbacks must never re-enter the fabric.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "xdp/net/cost_model.hpp"
#include "xdp/net/fault.hpp"
#include "xdp/net/message.hpp"

namespace xdp::net {

/// Traffic counters, kept per endpoint. `read()`-style accessors
/// (`Fabric::stats`, `Fabric::totalStats`) copy them under the fabric
/// lock, so they are safe — and one consistent cut — at any time,
/// including mid-run from a monitoring thread.
struct NetStats {
  std::uint64_t messagesSent = 0;
  std::uint64_t bytesSent = 0;
  std::uint64_t messagesReceived = 0;
  std::uint64_t bytesReceived = 0;
  std::uint64_t rendezvousSends = 0;   ///< sends routed via the matcher
  std::uint64_t directSends = 0;       ///< sends with a bound destination
  std::uint64_t ownershipTransfers = 0;///< ownership(+value) messages sent
  std::uint64_t unexpectedMessages = 0;///< arrived before a receive posted

  NetStats& operator+=(const NetStats& o);
};

/// Invoked (under the fabric lock) when a posted receive
/// is matched. The callback must copy the payload out and update runtime
/// state; it must not call back into the fabric.
using CompletionFn = std::function<void(const Message&)>;

/// Invoked at the top of every send (before any accounting or fault
/// decision) with the source pid and payload size. Throwing aborts the
/// send with no fabric state changed — the mechanism per-tenant traffic
/// quotas hang off (see xdp::serve). Must not call back into the fabric.
using SendHook = std::function<void(int src, std::size_t bytes)>;

/// Invoked (with no fabric lock held) when a crash-plan endpoint with
/// CrashFate::Recover exhausts its send budget, just before the sending
/// thread unwinds with ckpt::RollbackSignal. The runtime's checkpoint
/// controller hangs its rollback request off this. Must not send.
using CrashHook = std::function<void(int src)>;

/// Rebuild recipe for a posted receive's completion callback. Closures do
/// not serialize, so every receive posted by the runtime carries the data
/// needed to re-create its `fn` when a checkpoint image is restored:
/// scatter the payload into `dsts` of `dstSym` (data receives), or
/// complete the transitional segments (ownership receives, `withValue`
/// deciding whether the payload carries element values).
struct RecvDesc {
  int dstSym = -1;
  std::vector<sec::Section> dsts;  ///< destination sections, payload order
  bool withValue = false;          ///< ownership receives: scatter payload
};

/// Builds a CompletionFn back from its RecvDesc during image restore.
/// `name`/`kind` are the receive's match criteria, as originally posted.
using CompletionFactory = std::function<CompletionFn(
    int pid, const RecvDesc& desc, const Name& name, TransferKind kind)>;

/// What a drain (session/region teardown) actually reclaimed, for
/// hygiene reporting: nonzero counts after a *clean* run indicate leaked
/// match state (an XDP usage error or a faulted session's residue).
struct DrainReport {
  std::size_t unmatchedMessages = 0;  ///< parked at matcher + unexpected
  std::size_t unmatchedReceives = 0;  ///< posted, never completed
  std::size_t heldFaults = 0;         ///< reorder holdbacks discarded
  /// Duplicate-suppression entries reclaimed. Informational: a clean run
  /// under duplicate faults legitimately accumulates these.
  std::size_t dupEntries = 0;

  /// Leaked state proper (excludes the informational dup bookkeeping).
  std::size_t leaked() const {
    return unmatchedMessages + unmatchedReceives + heldFaults;
  }
};

/// Identifies a posted receive, for cancellation of rendezvous interest.
using ReceiveId = std::uint64_t;

/// Point-in-time picture of the fabric's matching state, for failure
/// diagnostics: what every hung receive is waiting for and where every
/// unmatched message is parked.
struct FabricSnapshot {
  struct RecvInfo {
    int pid = -1;
    Name name;
    TransferKind kind = TransferKind::Data;
  };
  struct MsgInfo {
    int src = -1;
    int dst = -1;  ///< -1 = parked at the rendezvous matcher
    Name name;
    TransferKind kind = TransferKind::Data;
    std::size_t bytes = 0;
  };
  std::vector<RecvInfo> pendingReceives;
  std::vector<MsgInfo> undelivered;
  std::size_t heldFaults = 0;  ///< messages parked inside the fault injector
  int barrierWaiters = 0;      ///< entrants of the current incomplete barrier
};

class Fabric {
 public:
  /// If a FaultScope is live, the new fabric adopts its plan.
  Fabric(int nprocs, CostModel model = {});
  ~Fabric();

  int nprocs() const { return nprocs_; }
  const CostModel& model() const { return model_; }

  /// --- virtual time ---------------------------------------------------
  /// All clock operations validate `pid` and throw UsageError on an
  /// out-of-range value.
  double clock(int pid) const;
  void advance(int pid, double dt);
  /// clock(pid) = max(clock(pid), t) — used when a processor synchronizes
  /// on a message that arrived at virtual time t.
  void syncClock(int pid, double t);
  /// Max clock over all endpoints (the modeled makespan). Call after the
  /// region joined for a final figure.
  double makespan() const;
  void resetClocks();

  /// --- point-to-point -------------------------------------------------

  /// Send `payload` under `name`. If `dest` is set, route directly;
  /// otherwise go through the rendezvous matcher. Advances the sender's
  /// clock by the send overhead. Non-blocking.
  void send(int src, const Name& name, TransferKind kind,
            std::vector<std::byte> payload, std::optional<int> dest);

  /// Broadcast/multicast form "E -> S": one message per destination.
  void sendToSet(int src, const Name& name, TransferKind kind,
                 const std::vector<std::byte>& payload,
                 const std::vector<int>& dests);

  /// Post a receive for `name` at `pid`. If a matching message is already
  /// queued (directly addressed or waiting at the matcher), `fn` runs
  /// before this returns. Otherwise `fn` runs later, on the delivering
  /// thread. Returns an id usable only for diagnostics.
  ReceiveId postReceive(int pid, const Name& name, TransferKind kind,
                        CompletionFn fn);

  /// postReceive carrying the rebuild recipe for checkpoint images. The
  /// runtime's Proc layer always uses this form so every pending receive
  /// in a snapshot can be re-posted on restore.
  ReceiveId postReceive(int pid, const Name& name, TransferKind kind,
                        CompletionFn fn, RecvDesc desc);

  /// --- collectives ----------------------------------------------------

  /// Rendezvous of all endpoints; clocks advance to max + barrierCost.
  void barrier(int pid);

  /// No-op for perfbench/src/trace.cpp: delivery is inline, nothing to reap.
  void poll(int /*pid*/) {}
  /// No-op for perfbench/src/trace.cpp: delivery is inline, nothing to reap.
  void pollAll() {}

  /// --- accounting -----------------------------------------------------
  /// Safe to call at any time, including concurrently with traffic: the
  /// counters are copied under the fabric lock, so a mid-run read never
  /// observes a torn snapshot.
  NetStats stats(int pid) const;
  NetStats totalStats() const;
  void resetStats();

  /// Number of messages parked at the matcher / in unexpected queues
  /// (diagnostic; nonzero after a run usually means a send had no
  /// matching receive — an XDP usage error).
  std::size_t undeliveredCount() const;

  /// Number of posted receives not yet matched (diagnostic, as above).
  std::size_t pendingReceiveCount() const;

  /// Drop all unmatched messages and posted receives (used at SPMD region
  /// boundaries so a leaked receive can never fire into a later region).
  /// Also drops fault-injector holdbacks and duplicate-suppression state.
  void clearMatchState();

  /// clearMatchState that reports what it reclaimed — the endpoint-drain
  /// half of session teardown (xdp::serve). A session that ended cleanly
  /// drains to an all-zero report; anything else is leaked state the
  /// session left behind, now reclaimed.
  DrainReport drain();

  /// Install (or, with nullptr, remove) the send admission hook. NOT
  /// thread-safe against in-flight sends: set it while no traffic is
  /// running (before an SPMD region starts); thread creation publishes it
  /// to the node threads.
  void setSendHook(SendHook hook);

  /// --- fault injection -------------------------------------------------

  /// Install (or replace) a fault plan; takes effect on the next send.
  /// Replacing a plan first releases any held-back messages.
  void setFaultPlan(const FaultPlan& plan);
  /// Remove the plan, releasing any held-back messages first.
  void clearFaultPlan();
  bool hasFaultPlan() const;
  /// True iff a plan is installed and it can lose messages (see
  /// FaultPlan::lossy) — the runtime waives end-of-run usage checks then.
  bool faultPlanLossy() const;
  FaultStats faultStats() const;
  /// Deliver every message the injector is holding back (reorder faults).
  /// Returns how many were released. Called at quiescence by the watchdog
  /// and at the end of an SPMD region.
  std::size_t flushHeldFaults();
  std::size_t heldFaultCount() const;

  /// --- hang diagnostics ------------------------------------------------

  /// One consistent cut of every endpoint, the matcher, the injector and
  /// the barrier, taken under the fabric lock.
  FabricSnapshot snapshot() const;

  /// --- checkpoint image ------------------------------------------------

  /// Serialize the in-flight state: per-endpoint clocks, stats,
  /// unexpected queues and pending receives (with their RecvDescs),
  /// matcher-parked messages and FCFS interest order, duplicate
  /// bookkeeping, and the fault injector's dynamic state, as one cut under
  /// the fabric lock — callers invoke this only at a capture point (no
  /// traffic in flight). Receives posted
  /// without a RecvDesc make the export fail with CkptError (the image
  /// could not be restored faithfully).
  std::vector<std::byte> exportImage() const;

  /// Inverse of exportImage: drop all current match state, then rebuild
  /// from `image`, re-creating each pending receive's completion callback
  /// via `factory` (fresh ReceiveIds are assigned; FCFS matcher order is
  /// preserved). Throws CkptError on a malformed or mismatched image,
  /// leaving the fabric unchanged.
  void restoreImage(const std::vector<std::byte>& image,
                    const CompletionFactory& factory);

  /// Install (or clear) the crash-recovery hook; same discipline as
  /// setSendHook (set while no traffic runs).
  void setCrashHook(CrashHook hook);

  /// Install a hook polled by barrier waiters on entry and on every
  /// wake-up; it may throw (the checkpoint controller's signal check), so
  /// a rollback/preempt can unwind a processor parked in a barrier. Set
  /// while no traffic runs. Entrant counts left behind by an unwound
  /// barrier are reset by clearAbort between rounds.
  void setBarrierInterrupt(std::function<void()> check);
  /// Wake barrier waiters so they re-poll the interrupt hook.
  void notifyBarrierWaiters();

  /// Clear the injector's crash flags after a successful rollback (counts
  /// one absorbed crash). No-op without a plan.
  void disarmCrashes();
  /// Entrants of the current *incomplete* barrier (0 when no barrier is in
  /// progress). Waiters of an already-released barrier do not count.
  int barrierWaiters() const;
  /// Generation counter; advances when a barrier completes. Stable value +
  /// stable waiter count across two observations = a genuinely stuck wait.
  std::uint64_t barrierEpoch() const;
  /// Fail every current and future barrier wait with a DeadlockError built
  /// from `summary`/`report` (watchdog teardown). Sticky until clearAbort.
  void abortBlockedOps(const std::string& summary,
                       std::shared_ptr<const std::string> report);
  void clearAbort();

 private:
  struct PendingReceive {
    ReceiveId id;
    Name name;
    TransferKind kind;
    CompletionFn fn;
    double postClock = 0.0;  ///< receiver's virtual clock at post time
    std::optional<RecvDesc> desc;  ///< rebuild recipe (checkpoint images)
  };
  /// One simulated processor's mailbox.
  struct Endpoint {
    std::deque<Message> unexpected;      // arrived before a receive posted
    std::deque<PendingReceive> pending;  // posted, not yet matched
    NetStats stats;
    double clock = 0.0;
  };
  struct MatcherEntry {  // receive interest registered for unspecified sends
    ReceiveId id;
    int pid;
    Name name;
    TransferKind kind;
  };

  // Every member function below named *Locked requires mu_ held.

  Endpoint& ep(int pid) { return eps_[static_cast<std::size_t>(pid)]; }
  const Endpoint& ep(int pid) const {
    return eps_[static_cast<std::size_t>(pid)];
  }
  /// Throws UsageError unless 0 <= pid < nprocs.
  void checkPid(int pid, const char* what) const;

  /// Route a message: deliver directly or via the rendezvous matcher.
  void routeLocked(Message msg, std::optional<int> dest);

  /// Complete the first matching pending receive at dst, or park msg as
  /// unexpected.
  void deliverDirectLocked(int dst, Message msg);

  /// Hand msg to the first live registered receive interest with a
  /// matching name, or park it at the matcher.
  void routeRendezvousLocked(Message msg);

  /// Complete `pr` at endpoint `e` with `msg`, applying the
  /// unexpected-message penalty when the message's (virtual) arrival
  /// precedes the receive's (virtual) post time — a deterministic
  /// criterion independent of real thread scheduling. A completed
  /// duplicate retires its pair: the twin is purged from every parking
  /// queue. The caller removes `pr` from its queue.
  void completeLocked(Endpoint& e, const PendingReceive& pr, Message msg);

  /// True iff this message is a fault-injected duplicate whose twin has
  /// already completed a receive; counts the suppression.
  bool dupSuppressedLocked(const Message& msg);

  /// Retire a completed receive's matcher interest, if it registered any
  /// (O(1): erase from the live-id set; the FCFS deque entry goes dead
  /// and is skipped/compacted lazily).
  void cancelMatcherInterestLocked(ReceiveId id);

  /// Reclaim dead FCFS entries.
  void compactMatcherLocked();

  /// The fault-injected half of send(): crash, drop, duplicate, delay,
  /// hold, routing every surviving message. Returns true iff the sender
  /// crashed with CrashFate::Recover (the caller runs the crash hook once
  /// the lock is released).
  bool faultSendLocked(int src, Message msg, std::optional<int> dest);

  ReceiveId postReceiveImpl(int pid, const Name& name, TransferKind kind,
                            CompletionFn fn, std::optional<RecvDesc> desc);

  static bool matches(const Name& a, TransferKind ka, const Name& b,
                      TransferKind kb);

  const int nprocs_;
  const CostModel model_;

  /// Send admission hook; set only while no traffic runs (see
  /// setSendHook), read by every sending thread.
  SendHook sendHook_;

  /// Crash-recovery hook; same publication discipline as sendHook_.
  CrashHook crashHook_;

  /// Barrier interrupt hook; same publication discipline as sendHook_.
  std::function<void()> barrierInterrupt_;

  /// The fabric lock: guards every member below.
  mutable std::mutex mu_;
  std::condition_variable barrierCv_;

  std::vector<Endpoint> eps_;

  /// Rendezvous matcher. Retiring a completed receive's interest is O(1):
  /// erase its id from matcherLive_; its deque entry becomes dead weight
  /// that pairing scans skip and compactMatcherLocked() reclaims once
  /// dead entries outnumber live ones (amortized O(1) per cancel).
  /// Scanning the FCFS deque on every direct completion instead is
  /// quadratic under oversubscription: the seed bench collapsed from 482k
  /// (P=16) to 147k msgs/s (P=64) that way.
  std::deque<Message> matcherMsgs_;        // unspecified sends, unmatched
  std::deque<MatcherEntry> matcherRecvs_;  // receive interest, FCFS
  std::unordered_set<ReceiveId> matcherLive_;  // ids with a live entry
  std::size_t matcherDead_ = 0;  // dead entries still in matcherRecvs_

  ReceiveId nextId_ = 1;

  /// Exactly-once bookkeeping for fault-injected duplicates.
  std::unordered_set<std::uint64_t> completedDups_;
  std::uint64_t dupSuppressedCount_ = 0;

  std::unique_ptr<FaultInjector> injector_;  // null = no faults

  // Reusable barrier.
  int barrierCount_ = 0;
  std::uint64_t barrierGen_ = 0;
  double barrierMax_ = 0.0;

  // Watchdog teardown (sticky until clearAbort).
  bool aborted_ = false;
  std::string abortSummary_;
  std::shared_ptr<const std::string> abortReport_;
};

}  // namespace xdp::net
