#include "xdp/net/fabric.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "xdp/net/wire.hpp"
#include "xdp/support/check.hpp"

// Rendezvous protocol (two locks, never held together)
// ----------------------------------------------------
// The matcher lock serializes the *pairing decision* for unspecified
// sends; an endpoint lock serializes *completion* at that endpoint. A
// matching message/receive pair can therefore never be lost:
//
//   * postReceive first posts the receive at its endpoint (under the
//     endpoint lock), then — under the matcher lock — either registers
//     interest or takes a parked message; it never leaves the matcher
//     critical section unpublished and unmatched.
//   * a rendezvous send — under the matcher lock — either takes a
//     registered interest or parks its message; same invariant.
//
// Because completion happens after the pairing decision, an interest
// entry can be *stale*: the receive it names may have been completed by
// a direct send in between. Staleness is detected when the completion
// step finds no pending receive with the entry's id; the sender then
// simply retries the next matching entry (and the direct-delivery path
// cancels the stale interest itself, so entries do not accumulate).
//
// Exactly-once for fault-injected duplicates moves to a leaf lock
// (dupMu_): the twin-suppression test-and-mark runs at every completion
// attempt and at every park, so no interleaving can complete both copies
// or strand a suppressed copy in a queue (a parked copy whose twin
// completes afterwards is purged under the queue's own lock, which the
// purge acquires after the completion marked the pair done).

namespace xdp::net {

const char* transferKindName(TransferKind k) {
  switch (k) {
    case TransferKind::Data:
      return "data";
    case TransferKind::Ownership:
      return "ownership";
    case TransferKind::OwnershipAndValue:
      return "ownership+value";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, const Name& n) {
  return os << "sym#" << n.symbol << n.section;
}

NetStats& NetStats::operator+=(const NetStats& o) {
  messagesSent += o.messagesSent;
  bytesSent += o.bytesSent;
  messagesReceived += o.messagesReceived;
  bytesReceived += o.bytesReceived;
  rendezvousSends += o.rendezvousSends;
  directSends += o.directSends;
  ownershipTransfers += o.ownershipTransfers;
  unexpectedMessages += o.unexpectedMessages;
  return *this;
}

Fabric::Fabric(int nprocs, CostModel model)
    : nprocs_(nprocs), model_(model), eps_(static_cast<std::size_t>(nprocs)) {
  XDP_CHECK(nprocs >= 1, "fabric needs at least one endpoint");
  if (auto plan = currentGlobalFaultPlan()) {
    injector_ = std::make_unique<FaultInjector>(*plan, nprocs_);
    faultsActive_.store(true, std::memory_order_release);
  }
}

Fabric::~Fabric() = default;

void Fabric::checkPid(int pid, const char* what) const {
  if (pid < 0 || pid >= nprocs_) {
    std::ostringstream os;
    os << what << ": pid " << pid << " out of range [0, " << nprocs_ << ")";
    XDP_USAGE_FAIL(os.str());
  }
}

double Fabric::clock(int pid) const {
  checkPid(pid, "clock");
  const Endpoint& e = ep(pid);
  std::lock_guard lk(e.mu);
  return e.clock;
}

void Fabric::advance(int pid, double dt) {
  checkPid(pid, "advance");
  Endpoint& e = ep(pid);
  std::lock_guard lk(e.mu);
  e.clock += dt;
}

void Fabric::syncClock(int pid, double t) {
  checkPid(pid, "syncClock");
  Endpoint& e = ep(pid);
  std::lock_guard lk(e.mu);
  e.clock = std::max(e.clock, t);
}

double Fabric::makespan() const {
  double m = 0.0;
  for (const auto& e : eps_) {
    std::lock_guard lk(e.mu);
    m = std::max(m, e.clock);
  }
  return m;
}

void Fabric::resetClocks() {
  for (auto& e : eps_) {
    std::lock_guard lk(e.mu);
    e.clock = 0.0;
  }
}

bool Fabric::matches(const Name& a, TransferKind ka, const Name& b,
                     TransferKind kb) {
  return ka == kb && a == b;
}

bool Fabric::dupSuppressed(const Message& msg) {
  if (msg.dupId == 0) return false;
  std::lock_guard lk(dupMu_);
  if (completedDups_.count(msg.dupId) == 0) return false;
  dupSuppressedCount_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool Fabric::tryCompleteLocked(Endpoint& e, const PendingReceive& pr,
                               Message msg) {
  if (msg.dupId != 0) {
    // First of a duplicated pair to get here wins; marking the pair done
    // under dupMu_ makes sure the twin can never complete too
    // (exactly-once semantics). The loser is counted and discarded.
    std::lock_guard lk(dupMu_);
    if (!completedDups_.insert(msg.dupId).second) {
      dupSuppressedCount_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  e.stats.messagesReceived += 1;
  e.stats.bytesReceived += msg.payload.size();
  // Unexpected-message criterion in *virtual* time: the message landed
  // before the receive was posted, so the transport buffered it and the
  // completion pays an extra copy — receiver CPU time, so it accumulates
  // on the receiver's clock, and the data only becomes usable once the
  // copy is done. Judged on deterministic clocks, not on real thread
  // scheduling.
  if (msg.arrival < pr.postClock) {
    e.stats.unexpectedMessages += 1;
    const double copy = model_.unexpectedCost(msg.payload.size());
    e.clock += copy;
    msg.arrival = pr.postClock + copy;
  }
  pr.fn(msg);
  return true;
}

void Fabric::purgeDuplicate(std::uint64_t dupId) {
  auto drop = [&](std::deque<Message>& q) {
    for (auto it = q.begin(); it != q.end(); ++it) {
      if (it->dupId == dupId) {
        q.erase(it);
        dupSuppressedCount_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  };
  {
    std::lock_guard mk(matcherMu_);
    if (drop(matcherMsgs_)) return;
  }
  for (auto& e : eps_) {
    std::lock_guard lk(e.mu);
    if (drop(e.unexpected)) return;
  }
}

void Fabric::cancelMatcherInterest(ReceiveId id) {
  std::lock_guard mk(matcherMu_);
  if (matcherLive_.erase(id) == 0) return;  // never registered, or taken
  ++matcherDead_;
  if (matcherDead_ * 2 > matcherRecvs_.size() && matcherRecvs_.size() >= 64)
    compactMatcherLocked();
}

void Fabric::compactMatcherLocked() {
  std::deque<MatcherEntry> keep;
  for (MatcherEntry& me : matcherRecvs_)
    if (matcherLive_.count(me.id) != 0) keep.push_back(std::move(me));
  matcherRecvs_ = std::move(keep);
  matcherDead_ = 0;
}

void Fabric::deliverDirect(int dst, Message msg) {
  Endpoint& e = ep(dst);
  const std::uint64_t dupId = msg.dupId;
  ReceiveId cancelId = 0;
  {
    std::lock_guard lk(e.mu);
    bool consumed = false;
    for (auto it = e.pending.begin(); it != e.pending.end(); ++it) {
      if (!matches(it->name, it->kind, msg.name, msg.kind)) continue;
      if (tryCompleteLocked(e, *it, std::move(msg))) {
        cancelId = it->id;
        e.pending.erase(it);
      }
      // On suppression the receive stays posted (its real message is the
      // twin that already completed elsewhere or is still in flight for
      // another receive); this copy is simply gone.
      consumed = true;
      break;
    }
    // Park-or-suppress under the endpoint lock: a copy whose twin
    // completes after this check is removed by that completion's purge,
    // which takes e.mu after us.
    if (!consumed && !dupSuppressed(msg))
      e.unexpected.push_back(std::move(msg));
  }
  if (cancelId == 0) return;
  // The completed receive may have registered rendezvous interest;
  // retiring it (and purging a completed duplicate's twin) takes the
  // matcher / other endpoints' locks, so both wait until e.mu is released.
  cancelMatcherInterest(cancelId);
  if (dupId != 0) purgeDuplicate(dupId);
}

void Fabric::routeRendezvous(Message msg) {
  if (dupSuppressed(msg)) return;  // twin already completed a receive
  for (;;) {
    std::optional<MatcherEntry> entry;
    {
      std::lock_guard mk(matcherMu_);
      // FCFS: hand to the first *live* registered receive interest with
      // this name. Dead entries (retired in O(1) by a direct completion —
      // see cancelMatcherInterest) are reclaimed in passing.
      for (auto it = matcherRecvs_.begin(); it != matcherRecvs_.end();) {
        if (matcherLive_.count(it->id) == 0) {
          it = matcherRecvs_.erase(it);
          if (matcherDead_ > 0) --matcherDead_;
          continue;
        }
        if (matches(it->name, it->kind, msg.name, msg.kind)) {
          entry = *it;
          matcherLive_.erase(it->id);
          matcherRecvs_.erase(it);
          break;
        }
        ++it;
      }
      if (!entry.has_value()) {
        // Park-or-suppress inside the matcher critical section (same
        // reasoning as the unexpected-queue park in deliverDirect).
        if (!dupSuppressed(msg)) matcherMsgs_.push_back(std::move(msg));
        return;
      }
    }
    const std::uint64_t dupId = msg.dupId;
    Endpoint& e = ep(entry->pid);
    bool completed = false;
    bool suppressed = false;
    {
      std::lock_guard lk(e.mu);
      for (auto it = e.pending.begin(); it != e.pending.end(); ++it) {
        if (it->id != entry->id) continue;
        if (tryCompleteLocked(e, *it, std::move(msg))) {
          e.pending.erase(it);
          completed = true;
        } else {
          suppressed = true;
        }
        break;
      }
    }
    if (completed) {
      if (dupId != 0) purgeDuplicate(dupId);
      return;
    }
    if (suppressed) {
      // The twin won the completion race while we held the entry; the
      // receive is still live, so restore its interest where it was
      // (front keeps it first among same-name entries).
      std::lock_guard mk(matcherMu_);
      matcherRecvs_.push_front(*entry);
      matcherLive_.insert(entry->id);
      return;
    }
    // Stale entry: the receive was completed by a direct send after
    // registering interest. Discard it and try the next waiter.
  }
}

void Fabric::route(Message msg, std::optional<int> dest) {
  if (dest.has_value()) {
    deliverDirect(*dest, std::move(msg));
    return;
  }
  routeRendezvous(std::move(msg));
}

void Fabric::send(int src, const Name& name, TransferKind kind,
                  std::vector<std::byte> payload, std::optional<int> dest) {
  checkPid(src, "send source");
  if (dest.has_value()) checkPid(*dest, "send destination");
  const std::size_t bytes = payload.size();
  // Admission first, with no lock held and no state changed: a rejected
  // send (quota throw) costs the fabric nothing.
  if (sendHook_) sendHook_(src, bytes);

  Message msg;
  msg.name = name;
  msg.kind = kind;
  msg.src = src;
  msg.payload = std::move(payload);
  {
    Endpoint& s = ep(src);
    std::lock_guard lk(s.mu);
    s.clock += model_.sendCost(bytes);
    s.stats.messagesSent += 1;
    s.stats.bytesSent += bytes;
    if (kind != TransferKind::Data) s.stats.ownershipTransfers += 1;
    msg.arrival = s.clock + model_.latency;
    if (dest.has_value()) {
      s.stats.directSends += 1;
    } else {
      s.stats.rendezvousSends += 1;
      msg.arrival += model_.matchHop;  // extra control hop via the matchmaker
    }
  }
  if (faultsActive_.load(std::memory_order_acquire)) {
    faultSend(src, std::move(msg), dest);
    return;
  }
  route(std::move(msg), dest);
}

void Fabric::faultSend(int src, Message msg, std::optional<int> dest) {
  // Decide every fate under the injector's per-source lock (faultMu_ held
  // shared, for injector-pointer stability only — concurrent sources no
  // longer serialize here), releasing both before any routing so no
  // injector lock is ever held together with endpoint/matcher locks.
  // `out` preserves the required delivery order.
  std::vector<std::pair<Message, std::optional<int>>> out;
  bool crashRecover = false;
  {
    std::shared_lock fk(faultMu_);
    if (!injector_) {
      out.emplace_back(std::move(msg), dest);
    } else {
      FaultInjector& in = *injector_;
      std::lock_guard sk(in.sourceMu(src));
      if (in.crashNow(src)) {
        // The fate is decided here, but a recovery unwinds outside
        // faultMu_: the crash hook reaches into the checkpoint
        // controller, which must never run under a fabric lock.
        if (in.plan().crashFate != CrashFate::Recover || !crashHook_) {
          std::ostringstream os;
          os << "fault injection: endpoint p" << src
             << " crashed (plan allows " << in.plan().crashAfterSends
             << " sends)";
          throw FaultAbort(os.str());
        }
        crashRecover = true;  // the crashed endpoint's send is lost
      } else {
        const FaultInjector::Outcome o = in.classify(src);
        msg.arrival += o.extraDelay;

        // Never let two same-name messages from one source overtake each
        // other (MPI's non-overtaking rule): release a held twin-channel
        // message first.
        if (in.hasHeld(src) && in.heldName(src) == msg.name) {
          FaultInjector::Held h = in.takeHeld(src);
          out.emplace_back(std::move(h.msg), h.dest);
        }
        if (!o.drop) {  // on drop: sender paid for it; the fabric lost it
          std::optional<Message> dup;
          if (o.duplicate) {
            msg.dupId = in.newDupId();
            dup = msg;  // deep copy, including the shared dupId
          }
          if (o.hold && !in.hasHeld(src)) {
            in.hold(src, std::move(msg), dest);
            if (dup.has_value()) out.emplace_back(std::move(*dup), dest);
          } else {
            out.emplace_back(std::move(msg), dest);
            if (dup.has_value()) out.emplace_back(std::move(*dup), dest);
            if (in.hasHeld(src)) {
              // This send releases the previously held message *after*
              // the new one: the adjacent pair has been reordered.
              FaultInjector::Held h = in.takeHeld(src);
              out.emplace_back(std::move(h.msg), h.dest);
            }
          }
        }
      }
    }
  }
  if (crashRecover) {
    crashHook_(src);
    throw ckpt::RollbackSignal{src};
  }
  for (auto& [m, d] : out) route(std::move(m), d);
}

void Fabric::sendToSet(int src, const Name& name, TransferKind kind,
                       const std::vector<std::byte>& payload,
                       const std::vector<int>& dests) {
  XDP_CHECK(!dests.empty(), "sendToSet: empty destination set");
  for (int d : dests) send(src, name, kind, payload, d);
}

ReceiveId Fabric::postReceive(int pid, const Name& name, TransferKind kind,
                              CompletionFn fn) {
  return postReceiveImpl(pid, name, kind, std::move(fn), std::nullopt);
}

ReceiveId Fabric::postReceive(int pid, const Name& name, TransferKind kind,
                              CompletionFn fn, RecvDesc desc) {
  return postReceiveImpl(pid, name, kind, std::move(fn), std::move(desc));
}

ReceiveId Fabric::postReceiveImpl(int pid, const Name& name,
                                  TransferKind kind, CompletionFn fn,
                                  std::optional<RecvDesc> desc) {
  checkPid(pid, "postReceive");
  Endpoint& e = ep(pid);
  const ReceiveId id = nextId_.fetch_add(1, std::memory_order_relaxed);

  // Phase 1 (endpoint lock): complete from the unexpected queue, or post
  // the receive so a concurrent direct send can find it.
  {
    bool done = false;
    std::uint64_t purgeId = 0;
    {
      std::lock_guard lk(e.mu);
      PendingReceive pr{id, name, kind, std::move(fn), e.clock,
                       std::move(desc)};
      for (auto it = e.unexpected.begin(); it != e.unexpected.end();) {
        if (!matches(name, kind, it->name, it->kind)) {
          ++it;
          continue;
        }
        // A directly-addressed message may already have arrived
        // (physically); whether it counts as "unexpected" is decided on
        // virtual clocks inside tryCompleteLocked.
        const std::uint64_t dupId = it->dupId;
        Message msg = std::move(*it);
        it = e.unexpected.erase(it);
        if (tryCompleteLocked(e, pr, std::move(msg))) {
          done = true;
          purgeId = dupId;
          break;
        }
        // Suppressed duplicate dropped from the queue; keep scanning.
      }
      if (!done) e.pending.push_back(std::move(pr));
    }
    if (done) {
      if (purgeId != 0) purgeDuplicate(purgeId);
      return id;
    }
  }

  // Phase 2 (matcher lock): pair with a parked unspecified send, or
  // register interest. The pairing decision is serialized by matcherMu_;
  // completion happens afterwards under the endpoint lock and re-routes
  // the message if a direct send completed this receive in between.
  for (;;) {
    std::optional<Message> paired;
    {
      std::lock_guard mk(matcherMu_);
      for (auto it = matcherMsgs_.begin(); it != matcherMsgs_.end(); ++it) {
        if (matches(name, kind, it->name, it->kind)) {
          paired = std::move(*it);
          matcherMsgs_.erase(it);
          break;
        }
      }
      if (!paired.has_value()) {
        matcherRecvs_.push_back(MatcherEntry{id, pid, name, kind});
        matcherLive_.insert(id);
        return id;
      }
    }
    const std::uint64_t dupId = paired->dupId;
    bool completed = false;
    bool stale = true;
    {
      std::lock_guard lk(e.mu);
      for (auto it = e.pending.begin(); it != e.pending.end(); ++it) {
        if (it->id != id) continue;
        stale = false;
        if (tryCompleteLocked(e, *it, std::move(*paired))) {
          e.pending.erase(it);
          completed = true;
        }
        // else: suppressed duplicate; the receive stays pending and we
        // retry the matcher for another parked message.
        break;
      }
    }
    if (completed) {
      if (dupId != 0) purgeDuplicate(dupId);
      return id;
    }
    if (stale) {
      // A direct send completed this receive between phases; the parked
      // message we took must go back into rendezvous circulation.
      routeRendezvous(std::move(*paired));
      return id;
    }
  }
}

void Fabric::barrier(int pid) {
  checkPid(pid, "barrier");
  // A processor entering a barrier will not send again until released;
  // anything the injector held back for it must land now.
  if (faultsActive_.load(std::memory_order_acquire)) {
    std::optional<FaultInjector::Held> due;
    {
      std::shared_lock fk(faultMu_);
      if (injector_) {
        std::lock_guard sk(injector_->sourceMu(pid));
        if (injector_->hasHeld(pid)) due = injector_->takeHeld(pid);
      }
    }
    if (due.has_value()) route(std::move(due->msg), due->dest);
  }
  double myClock;
  {
    Endpoint& e = ep(pid);
    std::lock_guard lk(e.mu);
    myClock = e.clock;
  }
  std::unique_lock lk(barrierMu_);
  if (aborted_)
    throw DeadlockError(abortSummary_ + " [p" + std::to_string(pid) +
                            " entering barrier]",
                        abortReport_ ? *abortReport_ : std::string());
  // Polled before joining so a rollback/preempt unwinds the entrant with
  // its continuation still pointing at the barrier statement.
  if (barrierInterrupt_) barrierInterrupt_();
  barrierMax_ = std::max(barrierMax_, myClock);
  std::uint64_t gen = barrierGen_;
  if (++barrierCount_ == nprocs_) {
    barrierCount_ = 0;
    double release = barrierMax_ + model_.barrierCost;
    barrierMax_ = 0.0;
    // Lock order barrierMu_ -> endpoint is taken only here; barrier
    // entrants never hold an endpoint lock when acquiring barrierMu_, so
    // this cannot deadlock.
    for (auto& e : eps_) {
      std::lock_guard g(e.mu);
      e.clock = std::max(e.clock, release);
    }
    ++barrierGen_;
    barrierCv_.notify_all();
    return;
  }
  while (barrierGen_ == gen && !aborted_) {
    // May throw a rollback/preempt signal; the leaked entrant count is
    // reset by clearAbort at the start of the next recovery round.
    if (barrierInterrupt_) barrierInterrupt_();
    barrierCv_.wait(lk);
  }
  if (barrierGen_ == gen && aborted_)
    throw DeadlockError(abortSummary_ + " [p" + std::to_string(pid) +
                            " blocked at barrier]",
                        abortReport_ ? *abortReport_ : std::string());
}

void Fabric::setBarrierInterrupt(std::function<void()> check) {
  barrierInterrupt_ = std::move(check);
}

void Fabric::notifyBarrierWaiters() {
  std::lock_guard lk(barrierMu_);
  barrierCv_.notify_all();
}

NetStats Fabric::stats(int pid) const {
  checkPid(pid, "stats");
  const Endpoint& e = ep(pid);
  std::lock_guard lk(e.mu);
  return e.stats;
}

NetStats Fabric::totalStats() const {
  NetStats total;
  for (const auto& e : eps_) {
    std::lock_guard lk(e.mu);
    total += e.stats;
  }
  return total;
}

void Fabric::resetStats() {
  for (auto& e : eps_) {
    std::lock_guard lk(e.mu);
    e.stats = NetStats{};
  }
}

std::size_t Fabric::undeliveredCount() const {
  std::size_t n = 0;
  {
    std::lock_guard mk(matcherMu_);
    n += matcherMsgs_.size();
  }
  for (const auto& e : eps_) {
    std::lock_guard lk(e.mu);
    n += e.unexpected.size();
  }
  return n;
}

std::size_t Fabric::pendingReceiveCount() const {
  std::size_t n = 0;
  for (const auto& e : eps_) {
    std::lock_guard lk(e.mu);
    n += e.pending.size();
  }
  return n;
}

void Fabric::clearMatchState() { (void)drain(); }

DrainReport Fabric::drain() {
  DrainReport r;
  {
    std::lock_guard mk(matcherMu_);
    r.unmatchedMessages += matcherMsgs_.size();
    // Matcher interest entries mirror posted receives; the receive itself
    // is counted once, at its endpoint below. Dead entries mirror nothing.
    matcherMsgs_.clear();
    matcherRecvs_.clear();
    matcherLive_.clear();
    matcherDead_ = 0;
  }
  for (auto& e : eps_) {
    std::lock_guard lk(e.mu);
    r.unmatchedMessages += e.unexpected.size();
    r.unmatchedReceives += e.pending.size();
    e.unexpected.clear();
    e.pending.clear();
  }
  {
    std::lock_guard dk(dupMu_);
    r.dupEntries = completedDups_.size();
    completedDups_.clear();
  }
  std::lock_guard fk(faultMu_);
  if (injector_) r.heldFaults = injector_->takeAllHeld().size();  // discard
  return r;
}

void Fabric::setSendHook(SendHook hook) { sendHook_ = std::move(hook); }

void Fabric::setFaultPlan(const FaultPlan& plan) {
  std::vector<FaultInjector::Held> due;
  {
    std::lock_guard fk(faultMu_);
    if (injector_) due = injector_->takeAllHeld();
    injector_ = std::make_unique<FaultInjector>(plan, nprocs_);
    dupSuppressedCount_.store(0, std::memory_order_relaxed);
    faultsActive_.store(true, std::memory_order_release);
  }
  for (auto& h : due) route(std::move(h.msg), h.dest);
}

void Fabric::clearFaultPlan() {
  std::vector<FaultInjector::Held> due;
  {
    std::lock_guard fk(faultMu_);
    if (!injector_) return;
    due = injector_->takeAllHeld();
    injector_.reset();
    faultsActive_.store(false, std::memory_order_release);
  }
  for (auto& h : due) route(std::move(h.msg), h.dest);
}

bool Fabric::hasFaultPlan() const {
  std::shared_lock fk(faultMu_);
  return injector_ != nullptr;
}

bool Fabric::faultPlanLossy() const {
  std::shared_lock fk(faultMu_);
  return injector_ != nullptr && injector_->plan().lossy();
}

FaultStats Fabric::faultStats() const {
  std::shared_lock fk(faultMu_);
  if (!injector_) return FaultStats{};
  FaultStats s = injector_->stats();
  s.suppressedDuplicates +=
      dupSuppressedCount_.load(std::memory_order_relaxed);
  return s;
}

std::size_t Fabric::flushHeldFaults() {
  std::vector<FaultInjector::Held> due;
  {
    std::shared_lock fk(faultMu_);
    if (injector_) due = injector_->takeAllHeld();
  }
  for (auto& h : due) route(std::move(h.msg), h.dest);
  return due.size();
}

std::size_t Fabric::heldFaultCount() const {
  std::shared_lock fk(faultMu_);
  return injector_ ? injector_->heldCount() : 0;
}

FabricSnapshot Fabric::snapshot() const {
  FabricSnapshot snap;
  {
    // All endpoint locks at once, ascending pid order, so the pending /
    // unexpected picture is a single consistent cut across endpoints.
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(eps_.size());
    for (const auto& e : eps_) locks.emplace_back(e.mu);
    for (std::size_t p = 0; p < eps_.size(); ++p) {
      const Endpoint& e = eps_[p];
      for (const auto& pr : e.pending) {
        FabricSnapshot::RecvInfo r;
        r.pid = static_cast<int>(p);
        r.name = pr.name;
        r.kind = pr.kind;
        snap.pendingReceives.push_back(std::move(r));
      }
      for (const auto& m : e.unexpected) {
        snap.undelivered.push_back(FabricSnapshot::MsgInfo{
            m.src, static_cast<int>(p), m.name, m.kind, m.payload.size()});
      }
    }
  }
  {
    std::lock_guard mk(matcherMu_);
    for (const auto& m : matcherMsgs_) {
      snap.undelivered.push_back(
          FabricSnapshot::MsgInfo{m.src, -1, m.name, m.kind, m.payload.size()});
    }
  }
  {
    std::shared_lock fk(faultMu_);
    snap.heldFaults = injector_ ? injector_->heldCount() : 0;
  }
  {
    std::lock_guard lk(barrierMu_);
    snap.barrierWaiters = barrierCount_;
  }
  return snap;
}

int Fabric::barrierWaiters() const {
  std::lock_guard lk(barrierMu_);
  return barrierCount_;
}

std::uint64_t Fabric::barrierEpoch() const {
  std::lock_guard lk(barrierMu_);
  return barrierGen_;
}

void Fabric::abortBlockedOps(const std::string& summary,
                             std::shared_ptr<const std::string> report) {
  std::lock_guard lk(barrierMu_);
  aborted_ = true;
  abortSummary_ = summary;
  abortReport_ = std::move(report);
  barrierCv_.notify_all();
}

namespace {

void putNetStats(ckpt::Writer& w, const NetStats& s) {
  w.u64(s.messagesSent);
  w.u64(s.bytesSent);
  w.u64(s.messagesReceived);
  w.u64(s.bytesReceived);
  w.u64(s.rendezvousSends);
  w.u64(s.directSends);
  w.u64(s.ownershipTransfers);
  w.u64(s.unexpectedMessages);
}

NetStats getNetStats(ckpt::Reader& r) {
  NetStats s;
  s.messagesSent = r.u64();
  s.bytesSent = r.u64();
  s.messagesReceived = r.u64();
  s.bytesReceived = r.u64();
  s.rendezvousSends = r.u64();
  s.directSends = r.u64();
  s.ownershipTransfers = r.u64();
  s.unexpectedMessages = r.u64();
  return s;
}

}  // namespace

void Fabric::setCrashHook(CrashHook hook) { crashHook_ = std::move(hook); }

void Fabric::disarmCrashes() {
  std::lock_guard fk(faultMu_);
  if (injector_) injector_->disarmCrashes();
}

std::vector<std::byte> Fabric::exportImage() const {
  ckpt::Writer w;
  w.u32(static_cast<std::uint32_t>(nprocs_));
  // Pending-receive id -> (pid, position) so the matcher's FCFS interest
  // order can be stored positionally (ReceiveIds are regenerated on
  // restore and must not leak into the image).
  std::vector<std::pair<int, std::uint32_t>> posOf;  // indexed by id lookup
  std::vector<ReceiveId> idOf;
  {
    // All endpoint locks at once, ascending pid order — one consistent cut
    // (callers only export at a capture point, with no traffic running).
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(eps_.size());
    for (const auto& e : eps_) locks.emplace_back(e.mu);
    for (std::size_t p = 0; p < eps_.size(); ++p) {
      const Endpoint& e = eps_[p];
      w.f64(e.clock);
      putNetStats(w, e.stats);
      w.u32(static_cast<std::uint32_t>(e.unexpected.size()));
      for (const Message& m : e.unexpected) wire::putMessage(w, m);
      w.u32(static_cast<std::uint32_t>(e.pending.size()));
      std::uint32_t idx = 0;
      for (const PendingReceive& pr : e.pending) {
        if (!pr.desc.has_value())
          throw ckpt::CkptError(
              "pending receive without a rebuild recipe; cannot export "
              "fabric image");
        wire::putName(w, pr.name);
        w.u8(static_cast<std::uint8_t>(pr.kind));
        w.f64(pr.postClock);
        w.i64(pr.desc->dstSym);
        w.u32(static_cast<std::uint32_t>(pr.desc->dsts.size()));
        for (const sec::Section& s : pr.desc->dsts) wire::putSection(w, s);
        w.boolean(pr.desc->withValue);
        idOf.push_back(pr.id);
        posOf.emplace_back(static_cast<int>(p), idx++);
      }
    }
  }
  {
    std::lock_guard mk(matcherMu_);
    w.u32(static_cast<std::uint32_t>(matcherMsgs_.size()));
    for (const Message& m : matcherMsgs_) wire::putMessage(w, m);
    // Interest entries, FCFS order, as (pid, pending-position). Dead and
    // stale entries (their receive already completed) are dropped here —
    // they carry no information a restore could use.
    std::vector<std::pair<int, std::uint32_t>> entries;
    for (const MatcherEntry& me : matcherRecvs_) {
      if (matcherLive_.count(me.id) == 0) continue;
      for (std::size_t k = 0; k < idOf.size(); ++k) {
        if (idOf[k] == me.id) {
          entries.push_back(posOf[k]);
          break;
        }
      }
    }
    w.u32(static_cast<std::uint32_t>(entries.size()));
    for (const auto& [pid, idx] : entries) {
      w.i64(pid);
      w.u32(idx);
    }
  }
  {
    std::lock_guard dk(dupMu_);
    std::vector<std::uint64_t> dups(completedDups_.begin(),
                                    completedDups_.end());
    std::sort(dups.begin(), dups.end());
    w.u32(static_cast<std::uint32_t>(dups.size()));
    for (std::uint64_t d : dups) w.u64(d);
    w.u64(dupSuppressedCount_.load(std::memory_order_relaxed));
  }
  {
    std::shared_lock fk(faultMu_);
    w.boolean(injector_ != nullptr);
    if (injector_) injector_->exportState(w);
  }
  return w.take();
}

void Fabric::restoreImage(const std::vector<std::byte>& image,
                          const CompletionFactory& factory) {
  XDP_CHECK(factory != nullptr, "restoreImage needs a completion factory");
  ckpt::Reader r(image);
  if (r.u32() != static_cast<std::uint32_t>(nprocs_))
    throw ckpt::CkptError("fabric image endpoint count mismatch");

  struct PendingImg {
    Name name;
    TransferKind kind;
    double postClock;
    RecvDesc desc;
  };
  struct EpImg {
    double clock;
    NetStats stats;
    std::deque<Message> unexpected;
    std::vector<PendingImg> pending;
  };
  // Decode (and validate) everything before touching live state, so a
  // malformed image throws without leaving the fabric half-restored.
  std::vector<EpImg> eps;
  eps.reserve(eps_.size());
  for (int p = 0; p < nprocs_; ++p) {
    EpImg e;
    e.clock = r.f64();
    e.stats = getNetStats(r);
    const std::uint32_t nu = r.u32();
    for (std::uint32_t k = 0; k < nu; ++k)
      e.unexpected.push_back(wire::getMessage(r));
    const std::uint32_t np = r.u32();
    for (std::uint32_t k = 0; k < np; ++k) {
      PendingImg pi;
      pi.name = wire::getName(r);
      pi.kind = static_cast<TransferKind>(r.u8());
      pi.postClock = r.f64();
      pi.desc.dstSym = static_cast<int>(r.i64());
      const std::uint32_t nd = r.u32();
      for (std::uint32_t j = 0; j < nd; ++j)
        pi.desc.dsts.push_back(wire::getSection(r));
      pi.desc.withValue = r.boolean();
      e.pending.push_back(std::move(pi));
    }
    eps.push_back(std::move(e));
  }
  std::deque<Message> mMsgs;
  const std::uint32_t nm = r.u32();
  for (std::uint32_t k = 0; k < nm; ++k) mMsgs.push_back(wire::getMessage(r));
  std::vector<std::pair<int, std::uint32_t>> mEntries;
  const std::uint32_t ne = r.u32();
  for (std::uint32_t k = 0; k < ne; ++k) {
    const int pid = static_cast<int>(r.i64());
    const std::uint32_t idx = r.u32();
    if (pid < 0 || pid >= nprocs_ ||
        idx >= eps[static_cast<std::size_t>(pid)].pending.size())
      throw ckpt::CkptError("fabric image matcher entry out of range");
    mEntries.emplace_back(pid, idx);
  }
  std::vector<std::uint64_t> dups;
  const std::uint32_t ndup = r.u32();
  for (std::uint32_t k = 0; k < ndup; ++k) dups.push_back(r.u64());
  const std::uint64_t dupSuppressed = r.u64();
  const bool hasInjector = r.boolean();

  // Apply. Restore runs between rounds with no traffic in flight; locks
  // are still taken so the store is clean under TSan.
  std::vector<std::vector<MatcherEntry>> reposted(
      static_cast<std::size_t>(nprocs_));  // (pid, idx) -> rebuilt entry
  for (int p = 0; p < nprocs_; ++p) {
    Endpoint& e = ep(p);
    EpImg& img = eps[static_cast<std::size_t>(p)];
    std::lock_guard lk(e.mu);
    e.clock = img.clock;
    e.stats = img.stats;
    e.unexpected = std::move(img.unexpected);
    e.pending.clear();
    for (PendingImg& pi : img.pending) {
      const ReceiveId id = nextId_.fetch_add(1, std::memory_order_relaxed);
      CompletionFn fn = factory(p, pi.desc, pi.name, pi.kind);
      XDP_CHECK(fn != nullptr, "completion factory returned no callback");
      reposted[static_cast<std::size_t>(p)].push_back(
          MatcherEntry{id, p, pi.name, pi.kind});
      e.pending.push_back(PendingReceive{id, std::move(pi.name), pi.kind,
                                         std::move(fn), pi.postClock,
                                         std::move(pi.desc)});
    }
  }
  {
    // Endpoint locks are released: entries are rebuilt from the `reposted`
    // mirror, so the endpoint/matcher never-held-together rule holds even
    // here.
    std::lock_guard mk(matcherMu_);
    matcherMsgs_ = std::move(mMsgs);
    matcherRecvs_.clear();
    matcherLive_.clear();
    matcherDead_ = 0;
    for (const auto& [pid, idx] : mEntries) {
      const MatcherEntry& me = reposted[static_cast<std::size_t>(pid)][idx];
      matcherRecvs_.push_back(me);
      matcherLive_.insert(me.id);
    }
  }
  {
    std::lock_guard dk(dupMu_);
    completedDups_.clear();
    completedDups_.insert(dups.begin(), dups.end());
    dupSuppressedCount_.store(dupSuppressed, std::memory_order_relaxed);
  }
  {
    std::lock_guard fk(faultMu_);
    if (hasInjector && injector_) injector_->restoreState(r);
  }
}

void Fabric::clearAbort() {
  std::lock_guard lk(barrierMu_);
  aborted_ = false;
  abortSummary_.clear();
  abortReport_.reset();
  // Threads that threw out of an aborted barrier left their entrant counts
  // behind; between runs nobody is inside, so reset the incomplete barrier.
  barrierCount_ = 0;
  barrierMax_ = 0.0;
}

}  // namespace xdp::net
