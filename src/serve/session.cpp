#include "xdp/serve/session.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "xdp/analysis/verifier.hpp"
#include "xdp/ckpt/io.hpp"
#include "xdp/apps/fft.hpp"
#include "xdp/apps/programs.hpp"
#include "xdp/il/parser.hpp"
#include "xdp/opt/passes.hpp"
#include "xdp/rt/runtime.hpp"
#include "xdp/support/check.hpp"

namespace xdp::serve {

const char* outcomeName(SessionOutcome o) {
  switch (o) {
    case SessionOutcome::Completed:
      return "completed";
    case SessionOutcome::RejectedParse:
      return "rejected-parse";
    case SessionOutcome::RejectedAnalysis:
      return "rejected-analysis";
    case SessionOutcome::QuotaExceeded:
      return "quota-exceeded";
    case SessionOutcome::Crashed:
      return "crashed";
    case SessionOutcome::Deadlocked:
      return "deadlocked";
    case SessionOutcome::Preempted:
      return "preempted";
    case SessionOutcome::Failed:
      return "failed";
  }
  return "?";
}

namespace {

using Clock = std::chrono::steady_clock;

/// The containment boundary of one execution attempt (see the header
/// comment). Shared by every processor thread of the attempt: the step
/// hook and the fabric send hook call into it concurrently.
///
/// Breach protocol: the first thread to detect any breach wins a CAS,
/// records which quota fell, wakes every parked peer out of await/barrier
/// (the watchdog's abort mechanism, reused as a cancellation point), and
/// throws QuotaExceeded. Every other thread sees the breached flag at its
/// next statement (or send) and throws too, so the whole session unwinds
/// within one statement per processor. Parked peers surface as
/// DeadlockError — which is why the session classifies its outcome by
/// breached(), not by which exception type won the SPMD aggregation.
class SessionScope {
 public:
  SessionScope(const Quotas& q, Clock::time_point sessionStart,
               std::uint64_t preemptAfterSteps = 0)
      : quotas_(q), preemptAfter_(preemptAfterSteps) {
    if (q.wallBudgetMs > 0)
      deadline_ = sessionStart + std::chrono::milliseconds(q.wallBudgetMs);
  }

  /// Bind the attempt's interpreter so a breach can reach its runtime to
  /// cancel parked peers. Must be called before run().
  void attach(interp::Interpreter* in) { interp_ = in; }

  void onStep(rt::Proc& proc) {
    if (breached_.load(std::memory_order_acquire)) throwCancelled();
    const std::uint64_t steps =
        steps_.fetch_add(1, std::memory_order_relaxed) + 1;
    // Preemption pressure: unlike a breach, this is a graceful unwind —
    // the runtime checkpoints at the statement-boundary cut and the
    // session is spilled for later resume, not failed.
    if (preemptAfter_ != 0 && steps > preemptAfter_ &&
        !preemptRequested_.exchange(true, std::memory_order_acq_rel))
      interp_->runtime().requestPreempt();
    if (quotas_.maxSteps != 0 && steps > quotas_.maxSteps)
      breach("steps", "logical step budget of " +
                          std::to_string(quotas_.maxSteps) + " exhausted");
    // Wall clock and table residency are sampled, not checked per step:
    // both move slowly relative to statements and the syscalls/locks are
    // too expensive for the hot loop.
    if ((steps & 63u) == 0u) {
      if (quotas_.wallBudgetMs > 0 && Clock::now() > deadline_)
        breach("wall-time", "wall-clock budget of " +
                                std::to_string(quotas_.wallBudgetMs) +
                                " ms exhausted");
      if (quotas_.maxResidentBytes != 0) {
        const std::size_t resident = proc.table().residentBytes();
        if (resident > quotas_.maxResidentBytes)
          breach("memory",
                 "p" + std::to_string(proc.table().pid()) + " holds " +
                     std::to_string(resident) + " resident bytes (limit " +
                     std::to_string(quotas_.maxResidentBytes) + ")");
      }
    }
  }

  /// Fabric send hook; runs before the send changes any fabric state, so
  /// a rejected send costs the session nothing.
  void onSend(int /*src*/, std::size_t bytes) {
    if (breached_.load(std::memory_order_acquire)) throwCancelled();
    const std::uint64_t msgs =
        msgs_.fetch_add(1, std::memory_order_relaxed) + 1;
    const std::uint64_t sent =
        sentBytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (quotas_.maxMessages != 0 && msgs > quotas_.maxMessages)
      breach("messages", "message budget of " +
                             std::to_string(quotas_.maxMessages) +
                             " exhausted");
    if (quotas_.maxSendBytes != 0 && sent > quotas_.maxSendBytes)
      breach("send-bytes", "payload budget of " +
                               std::to_string(quotas_.maxSendBytes) +
                               " bytes exhausted");
  }

  bool breached() const { return breached_.load(std::memory_order_acquire); }
  /// The quota that fell ("" if none). Valid once the run has joined.
  const char* resource() const {
    const char* r = resource_.load(std::memory_order_acquire);
    return r ? r : "";
  }

 private:
  [[noreturn]] void breach(const char* resource, std::string detail) {
    bool expected = false;
    if (breached_.compare_exchange_strong(expected, true,
                                          std::memory_order_acq_rel)) {
      resource_.store(resource, std::memory_order_release);
      if (interp_) {
        auto& rt = interp_->runtime();
        std::string summary =
            "session quota exceeded [" + std::string(resource) + "]";
        auto report = std::make_shared<const std::string>(detail);
        for (int p = 0; p < rt.nprocs(); ++p)
          rt.table(p).abortWaits(summary, report);
        rt.fabric().abortBlockedOps(summary, report);
      }
    }
    throw QuotaExceeded(resource, std::move(detail));
  }

  [[noreturn]] void throwCancelled() {
    const char* r = resource_.load(std::memory_order_acquire);
    throw QuotaExceeded(r ? r : "cancelled",
                        "session cancelled after quota breach");
  }

  const Quotas quotas_;
  const std::uint64_t preemptAfter_;
  Clock::time_point deadline_{};
  interp::Interpreter* interp_ = nullptr;

  std::atomic<bool> preemptRequested_{false};
  std::atomic<bool> breached_{false};
  std::atomic<const char*> resource_{nullptr};
  std::atomic<std::uint64_t> steps_{0};
  std::atomic<std::uint64_t> msgs_{0};
  std::atomic<std::uint64_t> sentBytes_{0};
};

/// FNV-1a over every declared array's final contents, gathered into the
/// global Fortran order — canonical with respect to how ownership happens
/// to be segmented, so two runs that computed the same values digest
/// identically even if their segment descriptors differ.
std::uint64_t digestState(rt::Runtime& rt) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const std::byte* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<std::uint64_t>(std::to_integer<unsigned>(p[i]));
      h *= 1099511628211ULL;
    }
  };
  std::vector<std::byte> buf;
  std::vector<std::byte> seg;
  for (const auto& d : rt.decls()) {
    const std::size_t esz = rt::elemSize(d.type);
    buf.assign(static_cast<std::size_t>(d.global.count()) * esz,
               std::byte{0});
    for (int p = 0; p < rt.nprocs(); ++p) {
      for (const auto& sg : rt.table(p).segments(d.index)) {
        if (sg.status != rt::SegState::Accessible) continue;
        seg.resize(static_cast<std::size_t>(sg.count()) * esz);
        rt.table(p).readElems(d.index, sg.bounds, seg.data());
        std::size_t i = 0;
        sg.bounds.forEach([&](const sec::Point& pt) {
          const std::size_t pos =
              static_cast<std::size_t>(d.global.fortranPos(pt));
          std::memcpy(buf.data() + pos * esz, seg.data() + i * esz, esz);
          ++i;
        });
      }
    }
    mix(buf.data(), buf.size());
  }
  return h;
}

/// Retry only helps when a fresh fault stream can make the failure not
/// recur: a transient (lossy/perturbing) plan that produced a deadlock.
/// Crashes, quota breaches, and fault-free deadlocks (program bugs)
/// deterministically recur and are never retried.
bool planIsTransient(const std::optional<net::FaultPlan>& plan) {
  if (!plan.has_value()) return false;
  return plan->dropProb > 0.0 || plan->dupProb > 0.0 ||
         plan->delayProb > 0.0 || plan->reorderProb > 0.0 ||
         !plan->stallPids.empty();
}

/// SplitMix64: the deterministic jitter source for retry backoff.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

SessionReport runSession(const SessionRequest& req, const SessionOptions& opts,
                         std::uint64_t id) {
  const auto sessionStart = Clock::now();
  SessionReport rep;
  rep.id = id;
  rep.name = req.name;

  auto finish = [&](SessionReport& r) -> SessionReport& {
    r.wallMs = std::chrono::duration<double, std::milli>(Clock::now() -
                                                         sessionStart)
                   .count();
    return r;
  };

  // --- front end: parse, optimize, static gate --------------------------
  il::Program prog;
  if (req.program) {
    prog = *req.program;
  } else {
    try {
      prog = il::parseProgram(req.source);
    } catch (const std::exception& e) {
      rep.outcome = SessionOutcome::RejectedParse;
      rep.error = e.what();
      return finish(rep);
    }
  }
  rep.nprocs = prog.nprocs;

  if (req.usePipeline) {
    try {
      opt::PassManager pm;
      for (const auto& p : opt::standardPipeline()) pm.add(p);
      prog = pm.run(prog, nullptr);
    } catch (const std::exception& e) {
      rep.outcome = SessionOutcome::Failed;
      rep.error = e.what();
      return finish(rep);
    }
  }

  if (req.analyze) {
    try {
      analysis::VerifyResult r = analysis::verifyProgram(prog);
      if (r.errors() > 0) {
        rep.outcome = SessionOutcome::RejectedAnalysis;
        rep.error = analysis::formatDiagnostics(prog, r, req.name);
        return finish(rep);
      }
    } catch (const std::exception& e) {
      rep.outcome = SessionOutcome::Failed;
      rep.error = e.what();
      return finish(rep);
    }
  }

  // --- execution attempts ----------------------------------------------
  const int maxAttempts = std::max(1, opts.retry.maxAttempts);
  const bool transient = planIsTransient(req.faultPlan);

  for (int attempt = 1; attempt <= maxAttempts; ++attempt) {
    rep.attempts = attempt;
    if (attempt > 1) {
      int ms = opts.retry.backoffBaseMs << (attempt - 2);
      ms = std::min(std::max(ms, 0), opts.retry.backoffCapMs);
      // Deterministic full jitter (SplitMix64 over session id + attempt):
      // tenants retrying after a shared fault burst spread out instead of
      // re-hitting the fabric in lockstep, and a given (id, attempt)
      // always waits the same time, so chaos runs stay reproducible.
      if (ms > 0)
        ms = 1 + static_cast<int>(
                     splitmix64(id * 0x9E3779B97F4A7C15ULL +
                                static_cast<std::uint64_t>(attempt)) %
                     static_cast<std::uint64_t>(ms));
      if (ms > 0) {
        if (opts.stopLatch) {
          // Shutdown-interruptible: teardown cuts the wait short and the
          // final attempt runs immediately (queued sessions still finish).
          opts.stopLatch->waitFor(ms);
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(ms));
        }
      }
    }

    rt::RuntimeOptions ropts;
    ropts.debugChecks = opts.debugChecks;
    ropts.costModel = opts.costModel;
    ropts.watchdogMs = opts.watchdogMs;
    ropts.watchdogPollMs = opts.watchdogPollMs;
    if (req.faultPlan.has_value()) {
      ropts.faultPlan = *req.faultPlan;
      // A deterministic plan replays the exact same faults, which would
      // make retry pointless: reseed every attempt after the first.
      if (attempt > 1)
        ropts.faultPlan->seed ^=
            0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(attempt);
    }

    SessionScope scope(req.quotas, sessionStart, req.preemptAfterSteps);
    interp::InterpOptions iopts;
    iopts.splitGuardedLoops = opts.splitGuardedLoops;
    iopts.backend = opts.backend;
    iopts.stepHook = [&scope](rt::Proc& p) { scope.onStep(p); };

    const bool wantCkpt = req.checkpointIntervalSteps > 0 ||
                          req.preemptAfterSteps > 0 || !req.resumeFrom.empty();

    SessionOutcome outcome = SessionOutcome::Completed;
    std::string error;
    try {
      interp::Interpreter interp(prog, ropts, iopts);
      scope.attach(&interp);
      rt::Runtime& rt = interp.runtime();
      rt.fabric().setSendHook(
          [&scope](int src, std::size_t bytes) { scope.onSend(src, bytes); });
      apps::registerFillKernel(interp, req.fillSeed);
      apps::registerFftKernels(interp);
      if (wantCkpt) {
        ckpt::CkptOptions co;
        co.intervalSteps = req.checkpointIntervalSteps;
        rt.enableCheckpointing(co);
        // Snapshot identity: the source text's digest, so a resume into a
        // different program (or a torn spill) is rejected structurally.
        rt.setCkptProgram(
            static_cast<std::uint8_t>(opts.backend),
            req.source.empty()
                ? 0
                : ckpt::fnv1a(
                      reinterpret_cast<const std::byte*>(req.source.data()),
                      req.source.size()));
      }

      bool deadlocked = false;
      try {
        if (!req.resumeFrom.empty()) {
          // Restore inside the attempt boundary: a defective spill file
          // surfaces as a contained session failure, never a throw.
          SpillFile sp = readSpillFile(req.resumeFrom);
          rt.restoreFrom(ckpt::decodeSnapshot(sp.snapshot));
          rep.recovery.resumed = true;
        }
        interp.run();
      } catch (const DeadlockError& e) {
        deadlocked = true;
        error = e.summary();
      } catch (const std::exception& e) {
        error = e.what();
      }

      // Final-attempt accounting (overwritten by any later attempt).
      rep.stats = interp.totalStats();
      net::Fabric& fab = rt.fabric();
      rep.net = fab.totalStats();
      rep.faults = fab.faultStats();
      rep.makespan = fab.makespan();
      rep.residentBytesAtTeardown = 0;
      for (int p = 0; p < rt.nprocs(); ++p)
        rep.residentBytesAtTeardown += rt.table(p).residentBytes();
      if (rt.checkpointingEnabled()) {
        rep.recovery.recoveries = rt.recoveries();
        rep.recovery.captureFailures = rt.ckptController()->captureFailures();
        if (const auto* st = rt.ckptStore()) {
          rep.recovery.snapshots = st->stats().snapshots;
          rep.recovery.snapshotBytes = st->stats().lastBytes;
          rep.recovery.snapshotRecords = st->stats().lastRecords;
          rep.recovery.fallbacks = st->stats().fallbacks;
        }
      }

      if (error.empty() && !deadlocked && rt.preempted()) {
        outcome = SessionOutcome::Preempted;
        ckpt::Snapshot snap = rt.takePreemptSnapshot();
        if (!opts.spillDir.empty() && !req.source.empty()) {
          SpillFile sp;
          sp.id = id;
          sp.name = req.name;
          sp.fillSeed = req.fillSeed;
          sp.usePipeline = req.usePipeline;
          sp.analyze = req.analyze;
          sp.checkpointIntervalSteps = req.checkpointIntervalSteps;
          sp.backend = static_cast<std::uint8_t>(opts.backend);
          sp.source = req.source;
          sp.snapshot = ckpt::encodeSnapshot(snap);
          rep.recovery.spillPath = spillFilePath(opts.spillDir, id, req.name);
          writeSpillFile(rep.recovery.spillPath, sp);
        }
      } else if (error.empty() && !deadlocked) {
        outcome = SessionOutcome::Completed;
        rep.resultDigest = digestState(rt);
      } else if (scope.breached()) {
        // Parked peers woken by the breach surface as DeadlockError and
        // win the SPMD aggregation; the scope knows better.
        outcome = SessionOutcome::QuotaExceeded;
        rep.quotaResource = scope.resource();
      } else if (rep.faults.crashed > 0) {
        outcome = SessionOutcome::Crashed;
      } else if (deadlocked) {
        outcome = SessionOutcome::Deadlocked;
      } else {
        outcome = SessionOutcome::Failed;
      }

      // Teardown reclamation, success or not: drain the session fabric
      // and re-check that nothing survived the drain.
      rep.drained = fab.drain();
      rep.hygieneClean = fab.undeliveredCount() == 0 &&
                         fab.pendingReceiveCount() == 0 &&
                         fab.heldFaultCount() == 0;
    } catch (const std::exception& e) {
      // Interpreter construction (bad program semantics) — nothing ran.
      outcome = SessionOutcome::Failed;
      error = e.what();
      rep.hygieneClean = true;
    }

    rep.outcome = outcome;
    rep.error = error;

    if (outcome == SessionOutcome::Completed) break;
    if (outcome == SessionOutcome::Deadlocked && transient &&
        attempt < maxAttempts)
      continue;  // transient faults absorbed by retry
    break;
  }

  // A resumed session that ran to completion consumes its spill file, so
  // re-admission is exactly-once across server restarts.
  if (rep.outcome == SessionOutcome::Completed && !req.resumeFrom.empty())
    std::remove(req.resumeFrom.c_str());

  return finish(rep);
}

// --- preemption spill files ---------------------------------------------

namespace {
constexpr char kSpillMagic[8] = {'X', 'D', 'P', 'S', 'P', 'I', 'L', '1'};
}  // namespace

std::string spillFilePath(const std::string& dir, std::uint64_t id,
                          const std::string& name) {
  std::string safe;
  safe.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.';
    safe.push_back(ok ? c : '_');
  }
  return dir + "/" + safe + "-" + std::to_string(id) + ".xdpspill";
}

void writeSpillFile(const std::string& path, const SpillFile& s) {
  ckpt::Writer w;
  for (char c : kSpillMagic) w.u8(static_cast<std::uint8_t>(c));
  w.str(s.name);
  w.u64(s.id);
  w.u64(s.fillSeed);
  w.boolean(s.usePipeline);
  w.boolean(s.analyze);
  w.u64(s.checkpointIntervalSteps);
  w.u8(s.backend);
  w.str(s.source);
  w.bytes(s.snapshot);
  const std::uint64_t sum = ckpt::fnv1a(w.buffer());
  w.u64(sum);
  ckpt::saveSnapshotFile(path, w.buffer());
}

SpillFile readSpillFile(const std::string& path) {
  const std::vector<std::byte> buf = ckpt::loadSnapshotFile(path);
  if (buf.size() < sizeof(kSpillMagic) + 8)
    throw ckpt::CkptError("spill file too short: " + path);
  if (std::memcmp(buf.data(), kSpillMagic, sizeof(kSpillMagic)) != 0)
    throw ckpt::CkptError("not a spill file (bad magic): " + path);
  const std::size_t body = buf.size() - 8;
  ckpt::Reader trailer(buf.data() + body, 8);
  if (trailer.u64() != ckpt::fnv1a(buf.data(), body))
    throw ckpt::CkptError("spill file checksum mismatch (torn write?): " +
                          path);
  ckpt::Reader r(buf.data() + sizeof(kSpillMagic),
                 body - sizeof(kSpillMagic));
  SpillFile s;
  s.name = r.str();
  s.id = r.u64();
  s.fillSeed = r.u64();
  s.usePipeline = r.boolean();
  s.analyze = r.boolean();
  s.checkpointIntervalSteps = r.u64();
  s.backend = r.u8();
  s.source = r.str();
  s.snapshot = r.bytes();
  if (!r.atEnd())
    throw ckpt::CkptError("spill file has trailing bytes: " + path);
  return s;
}

}  // namespace xdp::serve
