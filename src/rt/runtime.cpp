#include "xdp/rt/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "xdp/net/spmd.hpp"
#include "xdp/rt/dump.hpp"
#include "xdp/rt/proc.hpp"
#include "xdp/support/check.hpp"

namespace xdp::rt {

namespace {

/// Parse a non-negative integer environment variable; nullopt when unset
/// or malformed.
std::optional<int> envInt(const char* name) {
  const char* env = std::getenv(name);
  if (!env) return std::nullopt;
  char* end = nullptr;
  long v = std::strtol(env, &end, 10);
  if (end != env && *end == '\0' && v >= 0 && v <= 1000 * 1000 * 1000)
    return static_cast<int>(v);
  return std::nullopt;
}

}  // namespace

int resolveWatchdogMs(int configured) {
  if (configured >= 0) return configured;
  if (auto v = envInt("XDP_WATCHDOG_MS")) return *v;
  return 10000;
}

int resolveWatchdogPollMs(int configured, int watchdogMs) {
  if (configured > 0) return configured;
  if (configured < 0) {
    if (auto v = envInt("XDP_WATCHDOG_POLL_MS"); v.has_value() && *v > 0)
      return *v;
  }
  return std::clamp(watchdogMs / 8, 1, 200);
}

Runtime::Runtime(int nprocs, RuntimeOptions opts)
    : nprocs_(nprocs),
      opts_(opts),
      fabric_(nprocs, opts.costModel) {
  if (opts_.faultPlan.has_value()) fabric_.setFaultPlan(*opts_.faultPlan);
}

Runtime::~Runtime() = default;

int Runtime::effectiveWatchdogMs() const {
  return resolveWatchdogMs(watchdogMsOverride_.value_or(opts_.watchdogMs));
}

int Runtime::declareArray(std::string name, ElemType type, Section global,
                          Distribution dist, SegmentShape segShape) {
  XDP_CHECK(dist.nprocs() <= nprocs_,
            "distribution uses more processors than the machine has");
  XDP_CHECK(dist.global() == global,
            "distribution global shape must equal the array's global shape");
  SymbolDecl d;
  d.index = static_cast<int>(decls_.size());
  d.name = std::move(name);
  d.type = type;
  d.global = std::move(global);
  d.dist = std::move(dist);
  d.segShape = segShape;
  decls_.push_back(std::move(d));
  return decls_.back().index;
}

namespace {

/// One watchdog observation of the whole machine. The machine is certainly
/// deadlocked when every processor is accounted for as finished, genuinely
/// blocked in an await (re-verified against table state under its lock),
/// or an entrant of an incomplete barrier — then no thread can ever run
/// again — and two observations a poll apart agree on every epoch (so no
/// thread moved in between and the non-atomic multi-lock snapshot is
/// consistent).
///
/// This stays sound with the sharded fabric because delivery is
/// synchronous on the sending thread: send() returns only after the
/// message completed a receive or was parked, so when every thread is
/// blocked or finished no message is in flight between endpoint shards
/// that could still wake a blocked await. The one exception, messages a
/// reorder fault holds back, is flushed before an observation counts.
struct QuiescenceSnapshot {
  std::vector<ProcTable::WaitState> waits;  // by pid
  std::vector<char> finished;               // by pid
  int barrierWaiters = 0;
  std::uint64_t barrierEpoch = 0;

  int blockedCount() const {
    int n = 0;
    for (const auto& w : waits) n += w.blocked ? 1 : 0;
    return n;
  }
  int finishedCount() const {
    int n = 0;
    for (char f : finished) n += f ? 1 : 0;
    return n;
  }
  bool quiescent(int nprocs) const {
    const int blocked = blockedCount() + barrierWaiters;
    return blocked > 0 && blocked + finishedCount() == nprocs;
  }
  static bool stable(const QuiescenceSnapshot& a, const QuiescenceSnapshot& b) {
    if (a.barrierWaiters != b.barrierWaiters ||
        a.barrierEpoch != b.barrierEpoch)
      return false;
    for (std::size_t i = 0; i < a.waits.size(); ++i) {
      if (a.waits[i].blocked != b.waits[i].blocked ||
          a.waits[i].epoch != b.waits[i].epoch ||
          a.finished[i] != b.finished[i])
        return false;
    }
    return true;
  }
};

}  // namespace

void Runtime::run(const std::function<void(Proc&)>& node) {
  preempted_ = false;
  preemptSnap_.reset();
  std::vector<ckpt::ContImage> resume;
  bool restored = false;
  if (ctrl_ && pendingRestore_.has_value()) {
    ckpt::Snapshot snap = std::move(*pendingRestore_);
    pendingRestore_.reset();
    resume = applySnapshot(snap);
    restored = true;
  }
  int rollbacks = 0;
  for (;;) {
    if (!restored) {
      // Region hygiene: drop any match state leaked by a previous (buggy
      // or faulted) run so stale completion callbacks and leaked receives
      // can never touch the fresh tables, and clear a previous watchdog
      // abort.
      fabric_.clearAbort();
      fabric_.clearMatchState();
      tables_.clear();
      tables_.resize(static_cast<std::size_t>(nprocs_));
      for (int p = 0; p < nprocs_; ++p)
        tables_[static_cast<std::size_t>(p)] =
            std::make_unique<ProcTable>(p, decls_, opts_.debugChecks);
    }
    restored = false;
    if (ctrl_) {
      // Blocked awaits poll the controller so a rollback/preempt unwinds
      // them; their restart point was published before they blocked.
      for (auto& t : tables_)
        t->setWaitInterrupt([this] { ctrl_->checkSignal(); });
      ctrl_->beginRound(std::move(resume));
      resume.clear();
      // Genesis snapshot, taken before any node thread runs: a crash
      // before the first interval capture rolls back to the start.
      if (store_->empty()) store_->add(buildSnapshot());
    }
    const bool completed = runRound(node);
    if (!ctrl_) break;
    const int sig = ctrl_->signal();
    if (sig == 1) {
      recoveries_ += 1;
      if (++rollbacks > ctrl_->options().maxRecoveries) {
        std::ostringstream os;
        os << "recovery budget exhausted (" << ctrl_->options().maxRecoveries
           << " rollbacks in one run)";
        throw ckpt::CkptError(os.str());
      }
      resume = applySnapshot(store_->loadLatestGood());
      fabric_.disarmCrashes();
      restored = true;
      continue;
    }
    if (sig == 2) {
      // Every unwound processor republished at its throw point (or was
      // blocked with its image already on file), so the machine state is
      // a consistent statement-boundary cut.
      preemptSnap_ = buildSnapshot();
      preempted_ = true;
      return;
    }
    (void)completed;
    break;
  }

  if (opts_.debugChecks && !fabric_.faultPlanLossy()) {
    if (fabric_.undeliveredCount() != 0) {
      XDP_USAGE_FAIL("SPMD region ended with undelivered messages: a send "
                     "had no matching receive");
    }
    if (fabric_.pendingReceiveCount() != 0) {
      XDP_USAGE_FAIL("SPMD region ended with unmatched posted receives: a "
                     "receive had no matching send");
    }
  }
}

bool Runtime::runRound(const std::function<void(Proc&)>& node) {
  const int watchdogMs = effectiveWatchdogMs();
  auto finished = std::make_unique<std::atomic<bool>[]>(
      static_cast<std::size_t>(nprocs_));

  std::mutex wdMu;
  std::condition_variable wdCv;
  bool wdStop = false;

  auto gather = [&] {
    QuiescenceSnapshot s;
    s.waits.reserve(static_cast<std::size_t>(nprocs_));
    s.finished.reserve(static_cast<std::size_t>(nprocs_));
    for (int p = 0; p < nprocs_; ++p) {
      s.finished.push_back(
          finished[static_cast<std::size_t>(p)].load() ? 1 : 0);
      s.waits.push_back(tables_[static_cast<std::size_t>(p)]->waitState());
    }
    s.barrierWaiters = fabric_.barrierWaiters();
    s.barrierEpoch = fabric_.barrierEpoch();
    return s;
  };

  auto fireWatchdog = [&](const QuiescenceSnapshot& snap) {
    DeadlockDiagnostics diag;
    for (const auto& d : decls_) diag.symbolNames.push_back(d.name);
    for (int p = 0; p < nprocs_; ++p) {
      const auto& w = snap.waits[static_cast<std::size_t>(p)];
      DeadlockDiagnostics::ProcState ps;
      ps.pid = p;
      if (w.blocked) {
        ps.status = DeadlockDiagnostics::ProcStatus::BlockedAwait;
        ps.sym = w.sym;
        ps.symName = decls_[static_cast<std::size_t>(w.sym)].name;
        ps.section = w.section.str();
        diag.symbolTables.push_back(
            dumpSymbolTable(*tables_[static_cast<std::size_t>(p)]));
      } else if (snap.finished[static_cast<std::size_t>(p)]) {
        ps.status = DeadlockDiagnostics::ProcStatus::Finished;
      } else {
        // Quiescence accounting says every non-finished, non-awaiting
        // processor is an entrant of the incomplete barrier.
        ps.status = DeadlockDiagnostics::ProcStatus::AtBarrier;
      }
      diag.procs.push_back(std::move(ps));
    }
    diag.fabric = fabric_.snapshot();

    std::ostringstream sum;
    sum << "XDP deadlock detected by watchdog: "
        << (snap.blockedCount() + snap.barrierWaiters) << " of " << nprocs_
        << " processors blocked with no deliverable message";
    auto report = std::make_shared<const std::string>(dumpDeadlock(diag));
    for (auto& t : tables_) t->abortWaits(sum.str(), report);
    fabric_.abortBlockedOps(sum.str(), report);
  };

  std::thread watchdog;
  if (watchdogMs > 0) {
    const auto poll = std::chrono::milliseconds(
        resolveWatchdogPollMs(opts_.watchdogPollMs, watchdogMs));
    watchdog = std::thread([&, poll] {
      std::optional<QuiescenceSnapshot> prev;
      std::unique_lock lk(wdMu);
      while (!wdCv.wait_for(lk, poll, [&] { return wdStop; })) {
        lk.unlock();
        QuiescenceSnapshot snap = gather();
        if (!snap.quiescent(nprocs_)) {
          prev.reset();
        } else if (fabric_.flushHeldFaults() != 0) {
          // Reordering holdbacks were still parked; delivering them may
          // unblock the machine, so this round does not count.
          prev.reset();
        } else if (prev.has_value() &&
                   QuiescenceSnapshot::stable(*prev, snap)) {
          fireWatchdog(snap);
          return;
        } else {
          prev = std::move(snap);
        }
        lk.lock();
      }
    });
  }

  std::exception_ptr failure;
  try {
    net::runSpmd(nprocs_, [&](int pid) {
      struct FinishGuard {
        std::atomic<bool>& flag;
        ~FinishGuard() { flag.store(true); }
      } guard{finished[static_cast<std::size_t>(pid)]};
      try {
        Proc proc(*this, pid);
        node(proc);
        if (ctrl_) ctrl_->finish(pid);
      } catch (const ckpt::RollbackSignal&) {
        // Recovery unwind, not a failure: the round loop rolls the whole
        // machine back to the last good snapshot.
      } catch (const ckpt::PreemptSignal&) {
        // Preemption unwind: the round loop snapshots and returns.
      }
    });
  } catch (...) {
    failure = std::current_exception();
  }

  if (watchdog.joinable()) {
    {
      std::lock_guard lk(wdMu);
      wdStop = true;
    }
    wdCv.notify_all();
    watchdog.join();
  }
  fabric_.flushHeldFaults();
  // A rollback discards the round wholesale, including any failure another
  // processor hit while the crash unwound it (the restored timeline
  // re-executes deterministically and re-raises anything real).
  if (failure && !(ctrl_ && ctrl_->signal() == 1))
    std::rethrow_exception(failure);
  return failure == nullptr;
}

ProcTable& Runtime::table(int pid) {
  XDP_CHECK(pid >= 0 && pid < nprocs_, "bad pid");
  XDP_CHECK(tables_.size() == static_cast<std::size_t>(nprocs_),
            "tables not materialized; call run() first");
  return *tables_[static_cast<std::size_t>(pid)];
}

void Runtime::enableCheckpointing(const ckpt::CkptOptions& opts) {
  XDP_CHECK(!ctrl_, "checkpointing already enabled");
  ctrl_ = std::make_unique<ckpt::Controller>(nprocs_, opts);
  store_ = std::make_unique<ckpt::CheckpointStore>(opts.dir);
  ctrl_->setCaptureFn([this] { return captureAttempt(); });
  // Wake every blocked wait so it re-polls the pending signal.
  ctrl_->setInterruptFn([this] {
    for (auto& t : tables_)
      if (t) t->notifyWaiters();
    fabric_.notifyBarrierWaiters();
  });
  fabric_.setCrashHook([this](int src) { ctrl_->requestRollback(src); });
  fabric_.setBarrierInterrupt([this] { ctrl_->checkSignal(); });
}

std::vector<ckpt::ContImage> Runtime::applySnapshot(
    const ckpt::Snapshot& snap) {
  if (snap.nprocs != nprocs_) {
    std::ostringstream os;
    os << "snapshot is for " << snap.nprocs << " processors, machine has "
       << nprocs_;
    throw ckpt::CkptError(os.str());
  }
  if (snap.tables.size() != static_cast<std::size_t>(nprocs_) ||
      snap.conts.size() != static_cast<std::size_t>(nprocs_))
    throw ckpt::CkptError(
        "snapshot image count disagrees with its processor count");
  fabric_.clearAbort();
  tables_.clear();
  tables_.resize(static_cast<std::size_t>(nprocs_));
  for (int p = 0; p < nprocs_; ++p) {
    auto& t = tables_[static_cast<std::size_t>(p)];
    t = std::make_unique<ProcTable>(p, decls_, opts_.debugChecks);
    t->restoreImage(snap.tables[static_cast<std::size_t>(p)]);
  }
  // Rebuild each restored pending receive's completion callback from its
  // RecvDesc, mirroring the closures Proc's receive operations install: a
  // sectioned scatter into the destination table, valueless for plain
  // ownership transfers.
  net::CompletionFactory factory =
      [this](int pid, const net::RecvDesc& d, const net::Name& name,
             net::TransferKind kind) -> net::CompletionFn {
    ProcTable* tp = tables_[static_cast<std::size_t>(pid)].get();
    const int sym = d.dstSym >= 0 ? d.dstSym : name.symbol;
    const std::size_t sz = elemSize(tp->decl(sym).type);
    const bool value = kind == net::TransferKind::Data || d.withValue;
    auto dsts = d.dsts;
    return [tp, sym, dsts, sz, value](const net::Message& msg) {
      std::size_t off = 0;
      for (const Section& s : dsts) {
        tp->completeReceive(sym, s,
                            value ? msg.payload.data() + off : nullptr,
                            msg.arrival);
        off += static_cast<std::size_t>(s.count()) * sz;
      }
    };
  };
  fabric_.restoreImage(snap.fabric, factory);
  return snap.conts;
}

ckpt::Snapshot Runtime::buildSnapshot() {
  XDP_CHECK(ctrl_ != nullptr, "checkpointing not enabled");
  XDP_CHECK(tables_.size() == static_cast<std::size_t>(nprocs_),
            "tables not materialized");
  ckpt::Snapshot s;
  s.version = ckpt::kSnapshotVersion;
  s.backend = ckptBackend_;
  s.nprocs = nprocs_;
  s.programHash = ckptProgramHash_;
  s.conts.reserve(static_cast<std::size_t>(nprocs_));
  s.tables.reserve(static_cast<std::size_t>(nprocs_));
  for (int p = 0; p < nprocs_; ++p) {
    ckpt::ContImage img = ctrl_->slotImage(p);
    if (img.unsafe) {
      std::ostringstream os;
      os << "continuation for p" << p << " is not a clean re-execution point";
      throw ckpt::CkptError(os.str());
    }
    s.captureStep = std::max(s.captureStep, img.stats[2]);
    s.conts.push_back(std::move(img));
  }
  for (int p = 0; p < nprocs_; ++p)
    s.tables.push_back(tables_[static_cast<std::size_t>(p)]->exportImage());
  s.fabric = fabric_.exportImage();
  return s;
}

bool Runtime::captureAttempt() {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(ctrl_->options().captureTimeoutMs);
  std::vector<ProcTable::WaitState> waits(static_cast<std::size_t>(nprocs_));
  for (;;) {
    // A capturable state: every processor parked *for this capture*,
    // finished, or blocked in an await (its restart point was published
    // before it blocked), and nobody inside a barrier. A Parked slot left
    // over from a previous generation is NOT a pin — its waiter's wake
    // predicate is already true and it may start running (and sending)
    // at any moment, poisoning the export.
    bool settled = true;
    std::vector<char> blocked(static_cast<std::size_t>(nprocs_), 0);
    for (int p = 0; p < nprocs_ && settled; ++p) {
      if (ctrl_->pinned(p)) continue;
      waits[static_cast<std::size_t>(p)] =
          tables_[static_cast<std::size_t>(p)]->waitState();
      blocked[static_cast<std::size_t>(p)] = 1;
      if (!waits[static_cast<std::size_t>(p)].blocked) settled = false;
    }
    if (settled && fabric_.barrierWaiters() == 0) {
      // Double-observe: every blocked processor must still be in the same
      // wait (same epoch) after a settle delay. Parked processors cannot
      // move while the leader holds the rendezvous, so a stable second
      // observation means the export below reads frozen state.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      bool stable = true;
      for (int p = 0; p < nprocs_ && stable; ++p) {
        if (!blocked[static_cast<std::size_t>(p)]) continue;
        const auto w = tables_[static_cast<std::size_t>(p)]->waitState();
        if (!w.blocked || w.epoch != waits[static_cast<std::size_t>(p)].epoch)
          stable = false;
      }
      if (stable && fabric_.barrierWaiters() == 0) {
        try {
          store_->add(buildSnapshot());
        } catch (const ckpt::CkptError&) {
          return false;  // e.g. an unsafe continuation; retry next interval
        }
        return true;
      }
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

ckpt::Snapshot Runtime::checkpoint() { return buildSnapshot(); }

void Runtime::restoreFrom(ckpt::Snapshot snap) {
  XDP_CHECK(ctrl_ != nullptr, "enableCheckpointing before restoreFrom");
  if (snap.version != ckpt::kSnapshotVersion) {
    std::ostringstream os;
    os << "snapshot version " << snap.version << " does not match "
       << ckpt::kSnapshotVersion;
    throw ckpt::CkptError(os.str());
  }
  if (snap.nprocs != nprocs_) {
    std::ostringstream os;
    os << "snapshot is for " << snap.nprocs << " processors, machine has "
       << nprocs_;
    throw ckpt::CkptError(os.str());
  }
  if (snap.programHash != 0 && ckptProgramHash_ != 0 &&
      snap.programHash != ckptProgramHash_)
    throw ckpt::CkptError("snapshot was taken from a different program");
  store_->add(snap);
  pendingRestore_ = std::move(snap);
}

void Runtime::requestPreempt() {
  if (ctrl_) ctrl_->requestPreempt();
}

ckpt::Snapshot Runtime::takePreemptSnapshot() {
  XDP_CHECK(preemptSnap_.has_value(), "no preemption snapshot pending");
  ckpt::Snapshot s = std::move(*preemptSnap_);
  preemptSnap_.reset();
  return s;
}

}  // namespace xdp::rt
