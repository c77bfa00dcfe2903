#include "xdp/net/fabric.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "xdp/net/wire.hpp"
#include "xdp/support/check.hpp"

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
  if (auto plan = currentGlobalFaultPlan())
    injector_ = std::make_unique<FaultInjector>(*plan, nprocs_);
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
  std::lock_guard lk(mu_);
  return ep(pid).clock;
}

void Fabric::advance(int pid, double dt) {
  checkPid(pid, "advance");
  std::lock_guard lk(mu_);
  ep(pid).clock += dt;
}

void Fabric::syncClock(int pid, double t) {
  checkPid(pid, "syncClock");
  std::lock_guard lk(mu_);
  Endpoint& e = ep(pid);
  e.clock = std::max(e.clock, t);
}

double Fabric::makespan() const {
  std::lock_guard lk(mu_);
  double m = 0.0;
  for (const auto& e : eps_) m = std::max(m, e.clock);
  return m;
}

void Fabric::resetClocks() {
  std::lock_guard lk(mu_);
  for (auto& e : eps_) e.clock = 0.0;
}

bool Fabric::matches(const Name& a, TransferKind ka, const Name& b,
                     TransferKind kb) {
  return ka == kb && a == b;
}

bool Fabric::dupSuppressedLocked(const Message& msg) {
  if (msg.dupId == 0 || completedDups_.count(msg.dupId) == 0) return false;
  dupSuppressedCount_ += 1;
  return true;
}

void Fabric::completeLocked(Endpoint& e, const PendingReceive& pr,
                            Message msg) {
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
  if (msg.dupId != 0) {
    // Exactly-once: the first copy of a duplicated pair to complete wins.
    // A parked twin is purged now; one still to be routed is suppressed
    // when it arrives (dupSuppressedLocked).
    completedDups_.insert(msg.dupId);
    auto purge = [&](std::deque<Message>& q) {
      auto it = std::find_if(q.begin(), q.end(), [&](const Message& m) {
        return m.dupId == msg.dupId;
      });
      if (it == q.end()) return false;
      q.erase(it);
      dupSuppressedCount_ += 1;
      return true;
    };
    if (!purge(matcherMsgs_))
      for (auto& other : eps_)
        if (purge(other.unexpected)) break;
  }
  pr.fn(msg);
}

void Fabric::cancelMatcherInterestLocked(ReceiveId id) {
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

void Fabric::deliverDirectLocked(int dst, Message msg) {
  if (dupSuppressedLocked(msg)) return;  // twin already completed a receive
  Endpoint& e = ep(dst);
  auto it = std::find_if(
      e.pending.begin(), e.pending.end(), [&](const PendingReceive& pr) {
        return matches(pr.name, pr.kind, msg.name, msg.kind);
      });
  if (it == e.pending.end()) {
    e.unexpected.push_back(std::move(msg));
    return;
  }
  PendingReceive pr = std::move(*it);
  e.pending.erase(it);
  // The completed receive may have registered rendezvous interest.
  cancelMatcherInterestLocked(pr.id);
  completeLocked(e, pr, std::move(msg));
}

void Fabric::routeRendezvousLocked(Message msg) {
  if (dupSuppressedLocked(msg)) return;  // twin already completed a receive
  // FCFS: hand to the first *live* registered receive interest with this
  // name. Dead entries (retired in O(1) by a direct completion — see
  // cancelMatcherInterestLocked) are reclaimed in passing.
  for (auto it = matcherRecvs_.begin(); it != matcherRecvs_.end();) {
    if (matcherLive_.count(it->id) == 0) {
      it = matcherRecvs_.erase(it);
      if (matcherDead_ > 0) --matcherDead_;
      continue;
    }
    if (!matches(it->name, it->kind, msg.name, msg.kind)) {
      ++it;
      continue;
    }
    const ReceiveId id = it->id;
    Endpoint& e = ep(it->pid);
    matcherLive_.erase(id);
    matcherRecvs_.erase(it);
    // Every completion retires its interest under this same lock, so a
    // live entry always names a posted receive.
    auto pit = std::find_if(
        e.pending.begin(), e.pending.end(),
        [&](const PendingReceive& pr) { return pr.id == id; });
    XDP_CHECK(pit != e.pending.end(), "live matcher interest has no receive");
    PendingReceive pr = std::move(*pit);
    e.pending.erase(pit);
    completeLocked(e, pr, std::move(msg));
    return;
  }
  matcherMsgs_.push_back(std::move(msg));
}

void Fabric::routeLocked(Message msg, std::optional<int> dest) {
  if (dest.has_value()) {
    deliverDirectLocked(*dest, std::move(msg));
    return;
  }
  routeRendezvousLocked(std::move(msg));
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
    std::lock_guard lk(mu_);
    Endpoint& s = ep(src);
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
    if (!injector_) {
      routeLocked(std::move(msg), dest);
      return;
    }
    if (!faultSendLocked(src, std::move(msg), dest)) return;
  }
  // The crashed endpoint's send is lost. The recovery unwinds outside the
  // lock: the crash hook reaches into the checkpoint controller, which
  // must never run under the fabric lock.
  crashHook_(src);
  throw ckpt::RollbackSignal{src};
}

bool Fabric::faultSendLocked(int src, Message msg, std::optional<int> dest) {
  FaultInjector& in = *injector_;
  if (in.crashNow(src)) {
    if (in.plan().crashFate == CrashFate::Recover && crashHook_) return true;
    std::ostringstream os;
    os << "fault injection: endpoint p" << src << " crashed (plan allows "
       << in.plan().crashAfterSends << " sends)";
    throw FaultAbort(os.str());
  }
  const FaultInjector::Outcome o = in.classify(src);
  msg.arrival += o.extraDelay;

  // Never let two same-name messages from one source overtake each other
  // (MPI's non-overtaking rule): release a held twin-channel message first.
  if (in.hasHeld(src) && in.heldName(src) == msg.name) {
    FaultInjector::Held h = in.takeHeld(src);
    routeLocked(std::move(h.msg), h.dest);
  }
  if (o.drop) return false;  // the sender paid for it; the fabric lost it
  std::optional<Message> dup;
  if (o.duplicate) {
    msg.dupId = in.newDupId();
    dup = msg;  // deep copy, including the shared dupId
  }
  if (o.hold && !in.hasHeld(src)) {
    in.hold(src, std::move(msg), dest);
    if (dup.has_value()) routeLocked(std::move(*dup), dest);
    return false;
  }
  routeLocked(std::move(msg), dest);
  if (dup.has_value()) routeLocked(std::move(*dup), dest);
  if (in.hasHeld(src)) {
    // This send releases the previously held message *after* the new
    // one: the adjacent pair has been reordered.
    FaultInjector::Held h = in.takeHeld(src);
    routeLocked(std::move(h.msg), h.dest);
  }
  return false;
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
  std::lock_guard lk(mu_);
  Endpoint& e = ep(pid);
  const ReceiveId id = nextId_++;
  PendingReceive pr{id, name, kind, std::move(fn), e.clock, std::move(desc)};
  // Complete from a parked message if one matches: directly addressed
  // ones first, then unspecified sends at the matcher. A direct message
  // may already have arrived (physically); whether it counts as
  // "unexpected" is decided on virtual clocks inside completeLocked.
  auto take = [&](std::deque<Message>& q) -> std::optional<Message> {
    for (auto it = q.begin(); it != q.end();) {
      if (!matches(name, kind, it->name, it->kind)) {
        ++it;
        continue;
      }
      Message m = std::move(*it);
      it = q.erase(it);
      if (!dupSuppressedLocked(m)) return m;
    }
    return std::nullopt;
  };
  std::optional<Message> msg = take(e.unexpected);
  if (!msg.has_value()) msg = take(matcherMsgs_);
  if (msg.has_value()) {
    completeLocked(e, pr, std::move(*msg));
    return id;
  }
  // Post the receive and register its rendezvous interest.
  e.pending.push_back(std::move(pr));
  matcherRecvs_.push_back(MatcherEntry{id, pid, name, kind});
  matcherLive_.insert(id);
  return id;
}

void Fabric::barrier(int pid) {
  checkPid(pid, "barrier");
  std::unique_lock lk(mu_);
  // A processor entering a barrier will not send again until released;
  // anything the injector held back for it must land now.
  if (injector_ && injector_->hasHeld(pid)) {
    FaultInjector::Held h = injector_->takeHeld(pid);
    routeLocked(std::move(h.msg), h.dest);
  }
  if (aborted_)
    throw DeadlockError(abortSummary_ + " [p" + std::to_string(pid) +
                            " entering barrier]",
                        abortReport_ ? *abortReport_ : std::string());
  // Polled before joining so a rollback/preempt unwinds the entrant with
  // its continuation still pointing at the barrier statement.
  if (barrierInterrupt_) barrierInterrupt_();
  barrierMax_ = std::max(barrierMax_, ep(pid).clock);
  const std::uint64_t gen = barrierGen_;
  if (++barrierCount_ == nprocs_) {
    barrierCount_ = 0;
    const double release = barrierMax_ + model_.barrierCost;
    barrierMax_ = 0.0;
    for (auto& e : eps_) e.clock = std::max(e.clock, release);
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
  std::lock_guard lk(mu_);
  barrierCv_.notify_all();
}

NetStats Fabric::stats(int pid) const {
  checkPid(pid, "stats");
  std::lock_guard lk(mu_);
  return ep(pid).stats;
}

NetStats Fabric::totalStats() const {
  std::lock_guard lk(mu_);
  NetStats total;
  for (const auto& e : eps_) total += e.stats;
  return total;
}

void Fabric::resetStats() {
  std::lock_guard lk(mu_);
  for (auto& e : eps_) e.stats = NetStats{};
}

std::size_t Fabric::undeliveredCount() const {
  std::lock_guard lk(mu_);
  std::size_t n = matcherMsgs_.size();
  for (const auto& e : eps_) n += e.unexpected.size();
  return n;
}

std::size_t Fabric::pendingReceiveCount() const {
  std::lock_guard lk(mu_);
  std::size_t n = 0;
  for (const auto& e : eps_) n += e.pending.size();
  return n;
}

void Fabric::clearMatchState() { (void)drain(); }

DrainReport Fabric::drain() {
  std::lock_guard lk(mu_);
  DrainReport r;
  // Matcher interest entries mirror posted receives; the receive itself
  // is counted once, at its endpoint below. Dead entries mirror nothing.
  r.unmatchedMessages += matcherMsgs_.size();
  matcherMsgs_.clear();
  matcherRecvs_.clear();
  matcherLive_.clear();
  matcherDead_ = 0;
  for (auto& e : eps_) {
    r.unmatchedMessages += e.unexpected.size();
    r.unmatchedReceives += e.pending.size();
    e.unexpected.clear();
    e.pending.clear();
  }
  r.dupEntries = completedDups_.size();
  completedDups_.clear();
  if (injector_) r.heldFaults = injector_->takeAllHeld().size();  // discard
  return r;
}

void Fabric::setSendHook(SendHook hook) { sendHook_ = std::move(hook); }

void Fabric::setFaultPlan(const FaultPlan& plan) {
  auto next = std::make_unique<FaultInjector>(plan, nprocs_);
  std::lock_guard lk(mu_);
  std::vector<FaultInjector::Held> due;
  if (injector_) due = injector_->takeAllHeld();
  injector_ = std::move(next);
  dupSuppressedCount_ = 0;
  for (auto& h : due) routeLocked(std::move(h.msg), h.dest);
}

void Fabric::clearFaultPlan() {
  std::lock_guard lk(mu_);
  if (!injector_) return;
  std::vector<FaultInjector::Held> due = injector_->takeAllHeld();
  injector_.reset();
  for (auto& h : due) routeLocked(std::move(h.msg), h.dest);
}

bool Fabric::hasFaultPlan() const {
  std::lock_guard lk(mu_);
  return injector_ != nullptr;
}

bool Fabric::faultPlanLossy() const {
  std::lock_guard lk(mu_);
  return injector_ != nullptr && injector_->plan().lossy();
}

FaultStats Fabric::faultStats() const {
  std::lock_guard lk(mu_);
  if (!injector_) return FaultStats{};
  FaultStats s = injector_->stats();
  s.suppressedDuplicates += dupSuppressedCount_;
  return s;
}

std::size_t Fabric::flushHeldFaults() {
  std::lock_guard lk(mu_);
  if (!injector_) return 0;
  std::vector<FaultInjector::Held> due = injector_->takeAllHeld();
  for (auto& h : due) routeLocked(std::move(h.msg), h.dest);
  return due.size();
}

std::size_t Fabric::heldFaultCount() const {
  std::lock_guard lk(mu_);
  return injector_ ? injector_->heldCount() : 0;
}

FabricSnapshot Fabric::snapshot() const {
  std::lock_guard lk(mu_);
  FabricSnapshot snap;
  for (std::size_t p = 0; p < eps_.size(); ++p) {
    const Endpoint& e = eps_[p];
    for (const auto& pr : e.pending)
      snap.pendingReceives.push_back(
          FabricSnapshot::RecvInfo{static_cast<int>(p), pr.name, pr.kind});
    for (const auto& m : e.unexpected)
      snap.undelivered.push_back(FabricSnapshot::MsgInfo{
          m.src, static_cast<int>(p), m.name, m.kind, m.payload.size()});
  }
  for (const auto& m : matcherMsgs_)
    snap.undelivered.push_back(
        FabricSnapshot::MsgInfo{m.src, -1, m.name, m.kind, m.payload.size()});
  snap.heldFaults = injector_ ? injector_->heldCount() : 0;
  snap.barrierWaiters = barrierCount_;
  return snap;
}

int Fabric::barrierWaiters() const {
  std::lock_guard lk(mu_);
  return barrierCount_;
}

std::uint64_t Fabric::barrierEpoch() const {
  std::lock_guard lk(mu_);
  return barrierGen_;
}

void Fabric::abortBlockedOps(const std::string& summary,
                             std::shared_ptr<const std::string> report) {
  std::lock_guard lk(mu_);
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
  std::lock_guard lk(mu_);
  if (injector_) injector_->disarmCrashes();
}

std::vector<std::byte> Fabric::exportImage() const {
  std::lock_guard lk(mu_);
  ckpt::Writer w;
  w.u32(static_cast<std::uint32_t>(nprocs_));
  // Pending-receive id -> (pid, position) so the matcher's FCFS interest
  // order can be stored positionally (ReceiveIds are regenerated on
  // restore and must not leak into the image).
  std::unordered_map<ReceiveId, std::pair<int, std::uint32_t>> posOf;
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
      posOf.emplace(pr.id, std::make_pair(static_cast<int>(p), idx++));
    }
  }
  w.u32(static_cast<std::uint32_t>(matcherMsgs_.size()));
  for (const Message& m : matcherMsgs_) wire::putMessage(w, m);
  // Live interest entries, FCFS order, as (pid, pending-position). Dead
  // entries (their receive already completed) carry nothing to restore.
  std::vector<std::pair<int, std::uint32_t>> entries;
  for (const MatcherEntry& me : matcherRecvs_)
    if (matcherLive_.count(me.id) != 0) entries.push_back(posOf.at(me.id));
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& [pid, idx] : entries) {
    w.i64(pid);
    w.u32(idx);
  }
  std::vector<std::uint64_t> dups(completedDups_.begin(),
                                  completedDups_.end());
  std::sort(dups.begin(), dups.end());
  w.u32(static_cast<std::uint32_t>(dups.size()));
  for (std::uint64_t d : dups) w.u64(d);
  w.u64(dupSuppressedCount_);
  w.boolean(injector_ != nullptr);
  if (injector_) injector_->exportState(w);
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
    CompletionFn fn;
  };
  struct EpImg {
    double clock;
    NetStats stats;
    std::deque<Message> unexpected;
    std::vector<PendingImg> pending;
  };
  // Decode, validate and rebuild every callback before touching live
  // state, so a malformed image throws with the fabric unchanged.
  std::vector<EpImg> eps(eps_.size());
  for (int p = 0; p < nprocs_; ++p) {
    EpImg& e = eps[static_cast<std::size_t>(p)];
    e.clock = r.f64();
    e.stats = getNetStats(r);
    const std::uint32_t nu = r.u32();
    for (std::uint32_t k = 0; k < nu; ++k)
      e.unexpected.push_back(wire::getMessage(r));
    const std::uint32_t np = r.u32();
    for (std::uint32_t k = 0; k < np; ++k) {
      PendingImg pi;
      pi.name = wire::getName(r);
      pi.kind = wire::getKind(r);
      pi.postClock = r.f64();
      pi.desc.dstSym = static_cast<int>(r.i64());
      const std::uint32_t nd = r.u32();
      for (std::uint32_t j = 0; j < nd; ++j)
        pi.desc.dsts.push_back(wire::getSection(r));
      pi.desc.withValue = r.boolean();
      pi.fn = factory(p, pi.desc, pi.name, pi.kind);
      XDP_CHECK(pi.fn != nullptr, "completion factory returned no callback");
      e.pending.push_back(std::move(pi));
    }
  }
  std::deque<Message> mMsgs;
  const std::uint32_t nm = r.u32();
  for (std::uint32_t k = 0; k < nm; ++k) mMsgs.push_back(wire::getMessage(r));
  std::vector<std::pair<int, std::uint32_t>> mEntries;
  const std::uint32_t ne = r.u32();
  for (std::uint32_t k = 0; k < ne; ++k) {
    const std::int64_t pid = r.i64();
    const std::uint32_t idx = r.u32();
    if (pid < 0 || pid >= nprocs_ ||
        idx >= eps[static_cast<std::size_t>(pid)].pending.size())
      throw ckpt::CkptError("fabric image matcher entry out of range");
    mEntries.emplace_back(static_cast<int>(pid), idx);
  }
  std::vector<std::uint64_t> dups;
  const std::uint32_t ndup = r.u32();
  for (std::uint32_t k = 0; k < ndup; ++k) dups.push_back(r.u64());
  const std::uint64_t dupSuppressed = r.u64();
  const bool hasInjector = r.boolean();

  std::lock_guard lk(mu_);
  // The injector decodes the rest of the image and commits only if it is
  // valid, so it goes first.
  if (hasInjector && injector_) injector_->restoreState(r);
  for (std::size_t p = 0; p < eps_.size(); ++p) {
    Endpoint& e = eps_[p];
    EpImg& img = eps[p];
    e.clock = img.clock;
    e.stats = img.stats;
    e.unexpected = std::move(img.unexpected);
    e.pending.clear();
    for (PendingImg& pi : img.pending)
      e.pending.push_back(PendingReceive{nextId_++, std::move(pi.name),
                                         pi.kind, std::move(pi.fn),
                                         pi.postClock, std::move(pi.desc)});
  }
  matcherMsgs_ = std::move(mMsgs);
  matcherRecvs_.clear();
  matcherLive_.clear();
  matcherDead_ = 0;
  for (const auto& [pid, idx] : mEntries) {
    const PendingReceive& pr = ep(pid).pending[idx];
    matcherRecvs_.push_back(MatcherEntry{pr.id, pid, pr.name, pr.kind});
    matcherLive_.insert(pr.id);
  }
  completedDups_.clear();
  completedDups_.insert(dups.begin(), dups.end());
  dupSuppressedCount_ = dupSuppressed;
}

void Fabric::clearAbort() {
  std::lock_guard lk(mu_);
  aborted_ = false;
  abortSummary_.clear();
  abortReport_.reset();
  // Threads that threw out of an aborted barrier left their entrant counts
  // behind; between runs nobody is inside, so reset the incomplete barrier.
  barrierCount_ = 0;
  barrierMax_ = 0.0;
}

}  // namespace xdp::net
