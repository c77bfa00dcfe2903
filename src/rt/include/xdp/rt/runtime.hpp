// The XDP runtime: compile-time symbol declarations + the simulated
// machine + per-processor run-time tables, tied together by an SPMD
// launcher.
//
// Typical use:
//
//   xdp::rt::Runtime rt(4);                       // 4 processors
//   int A = rt.declareArray<double>("A", global, distBlock, segShape);
//   rt.run([&](xdp::rt::Proc& p) {                // the node program
//     if (p.iown(A, sec)) { ... }
//   });
//
// Each run() materializes fresh per-processor symbol tables from the
// declarations (initial ownership = the declared distribution, all
// segments accessible, zero-initialized), runs the node program on every
// processor, and joins. Fabric statistics and virtual clocks persist
// across runs so callers control when to reset them.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "xdp/ckpt/controller.hpp"
#include "xdp/ckpt/io.hpp"
#include "xdp/net/fabric.hpp"
#include "xdp/rt/proc_table.hpp"

namespace xdp::rt {

/// Empty (delivery has one path); perfbench/src/trace.cpp still names it.
struct TransportOptions {};

struct RuntimeOptions {
  /// Validate the XDP usage rules at run time (reads of transitional
  /// sections, mismatched transfers, double ownership). The paper's
  /// position is that the *compiler* guarantees these; debug mode is the
  /// belt-and-braces configuration used by our tests.
  bool debugChecks = false;
  net::CostModel costModel{};
  /// Hang watchdog window in wall-clock milliseconds. Within this window a
  /// run in which every processor is blocked (await / blocked owner-send /
  /// barrier) with no deliverable message is aborted: blocked waits fail
  /// with a DeadlockError carrying a full diagnostic dump instead of the
  /// process hanging forever. 0 disables the watchdog (set it — or
  /// XDP_WATCHDOG_MS=0 — for debugger runs, where a paused process looks
  /// quiescent only because nothing is scheduled); -1 (default) reads the
  /// XDP_WATCHDOG_MS environment variable, falling back to 10000.
  /// Detection is based on quiescence (every processor provably parked),
  /// not elapsed time, so sanitizer slowdown cannot cause false
  /// positives; under heavy slowdown raise the window only to reduce
  /// polling overhead.
  int watchdogMs = -1;
  /// Watchdog poll period in milliseconds. -1 (default) reads
  /// XDP_WATCHDOG_POLL_MS, falling back to watchdogMs/8 clamped to
  /// [1, 200] — raise it when polling itself is too intrusive (e.g.
  /// hundreds of concurrent session runtimes under TSan).
  int watchdogPollMs = -1;
  /// Fault plan to install on the fabric at construction (fault injection
  /// can also be enabled for unmodified drivers via net::FaultScope).
  std::optional<net::FaultPlan> faultPlan;
  /// Field-less; only perfbench/src/trace.cpp still assigns it.
  TransportOptions transport{};
};

/// The effective watchdog window: `configured` if >= 0, else
/// XDP_WATCHDOG_MS from the environment, else 10000 ms.
int resolveWatchdogMs(int configured);

/// The effective watchdog poll period: `configured` if > 0, else
/// XDP_WATCHDOG_POLL_MS from the environment, else watchdogMs/8 clamped
/// to [1, 200] ms.
int resolveWatchdogPollMs(int configured, int watchdogMs);

class Proc;

class Runtime {
 public:
  explicit Runtime(int nprocs, RuntimeOptions opts = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  int nprocs() const { return nprocs_; }
  net::Fabric& fabric() { return fabric_; }
  const RuntimeOptions& options() const { return opts_; }

  /// Programmatic watchdog knob: override the construction-time window
  /// for subsequent run() calls (same semantics as
  /// RuntimeOptions::watchdogMs; 0 disables, -1 re-reads the
  /// environment). Call between runs, not during one.
  void setWatchdogMs(int ms) { watchdogMsOverride_ = ms; }
  int effectiveWatchdogMs() const;

  /// Declare an exclusively-owned distributed array. Must be called before
  /// run(). Returns the symtab index.
  int declareArray(std::string name, ElemType type, Section global,
                   Distribution dist, SegmentShape segShape = {});

  template <typename T>
  int declareArray(std::string name, Section global, Distribution dist,
                   SegmentShape segShape = {}) {
    return declareArray(std::move(name), elemTypeOf<T>(), std::move(global),
                        std::move(dist), segShape);
  }

  const std::vector<SymbolDecl>& decls() const { return decls_; }

  /// Run the node program on every simulated processor; joins before
  /// returning. Node failures are rethrown (aggregated across nodes, see
  /// net::runSpmd); a diagnosed hang surfaces as a DeadlockError. Match
  /// state is cleared at region entry, and under debugChecks the region
  /// must end with no undelivered message and no unmatched receive
  /// (waived when a lossy fault plan is installed).
  void run(const std::function<void(Proc&)>& node);

  /// The per-processor table of the most recent/current run (valid during
  /// run() and, for inspection, after it returns).
  ProcTable& table(int pid);

  // --- checkpoint/restore (DESIGN.md §11) ------------------------------
  /// Enable deterministic checkpoint/restore and crash recovery for
  /// subsequent run() calls. Wires the controller, snapshot store, crash
  /// hook, and blocked-wait interrupts. Call before run(), once.
  void enableCheckpointing(const ckpt::CkptOptions& opts);
  bool checkpointingEnabled() const { return ctrl_ != nullptr; }
  /// The capture controller (engines publish continuations through it);
  /// null unless enableCheckpointing was called.
  ckpt::Controller* ckptController() { return ctrl_.get(); }
  /// The snapshot store; null unless checkpointing is enabled.
  ckpt::CheckpointStore* ckptStore() { return store_.get(); }

  /// Identity stamped into every snapshot; restoreFrom() rejects a
  /// snapshot whose hash disagrees (0 = unchecked).
  void setCkptProgram(std::uint8_t backend, std::uint64_t programHash) {
    ckptBackend_ = backend;
    ckptProgramHash_ = programHash;
  }

  /// Build a snapshot of the current machine state (tables + fabric +
  /// continuation slots). Valid between runs or from the capture leader;
  /// requires checkpointing enabled and materialized tables.
  ckpt::Snapshot checkpoint();
  /// Seed the next run() to resume from `snap` instead of starting fresh
  /// (also stores it, so an immediate crash can roll back to it). Throws
  /// CkptError when the snapshot does not fit this runtime.
  void restoreFrom(ckpt::Snapshot snap);

  /// Ask the current run to stop at the next statement boundaries and
  /// return with preempted() == true and a resumable snapshot pending in
  /// takePreemptSnapshot(). Callable from any thread.
  void requestPreempt();
  bool preempted() const { return preempted_; }
  /// The snapshot captured when a preempted run unwound (consume once).
  ckpt::Snapshot takePreemptSnapshot();

  /// Completed crash recoveries across all runs of this runtime.
  std::uint64_t recoveries() const { return recoveries_; }

 private:
  /// One watchdog-supervised SPMD execution over the current tables.
  /// Returns true when every node ran to completion (no failure); recovery
  /// signals are absorbed (read ctrl_->signal() afterwards).
  bool runRound(const std::function<void(Proc&)>& node);
  std::vector<ckpt::ContImage> applySnapshot(const ckpt::Snapshot& snap);
  ckpt::Snapshot buildSnapshot();
  bool captureAttempt();

  const int nprocs_;
  const RuntimeOptions opts_;
  std::optional<int> watchdogMsOverride_;
  net::Fabric fabric_;
  std::vector<SymbolDecl> decls_;
  std::vector<std::unique_ptr<ProcTable>> tables_;

  std::unique_ptr<ckpt::Controller> ctrl_;
  std::unique_ptr<ckpt::CheckpointStore> store_;
  std::optional<ckpt::Snapshot> pendingRestore_;
  std::optional<ckpt::Snapshot> preemptSnap_;
  bool preempted_ = false;
  std::uint64_t recoveries_ = 0;
  std::uint8_t ckptBackend_ = 0;
  std::uint64_t ckptProgramHash_ = 0;
};

}  // namespace xdp::rt
