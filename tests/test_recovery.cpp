// Differential crash-tolerance tests (DESIGN.md §11): a run that crashes
// mid-way and recovers from a checkpoint must produce a result digest and
// logical counters bit-identical to the uninterrupted run, on both
// execution engines, for every example program. Preemption must likewise
// round-trip: a run preempted to a snapshot and resumed — in the same
// runtime or in a freshly constructed one fed the serialized bytes —
// finishes with the fault-free digest.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "xdp/apps/programs.hpp"
#include "xdp/ckpt/io.hpp"
#include "xdp/il/parser.hpp"
#include "xdp/interp/interpreter.hpp"
#include "xdp/support/check.hpp"

namespace xdp::interp {
namespace {

using sec::Index;
using sec::Section;

il::Program loadExample(const std::string& name) {
  std::string path = std::string(XDP_PROGRAMS_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return il::parseProgram(buf.str());
}

/// FNV-1a over every array's final contents in global Fortran order
/// (same digest as test_vm_differential and the serve layer).
std::uint64_t digestState(rt::Runtime& rt) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const std::byte* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<std::uint64_t>(std::to_integer<unsigned>(p[i]));
      h *= 1099511628211ULL;
    }
  };
  std::vector<std::byte> buf, seg;
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

struct RunResult {
  std::uint64_t digest = 0;
  InterpStats stats;
  std::uint64_t messagesSent = 0, bytesSent = 0, ownershipTransfers = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t snapshots = 0;
};

RunResult gather(Interpreter& in) {
  RunResult r;
  r.digest = digestState(in.runtime());
  r.stats = in.totalStats();
  auto net = in.runtime().fabric().totalStats();
  r.messagesSent = net.messagesSent;
  r.bytesSent = net.bytesSent;
  r.ownershipTransfers = net.ownershipTransfers;
  r.recoveries = in.runtime().recoveries();
  if (in.runtime().ckptStore() != nullptr)
    r.snapshots = in.runtime().ckptStore()->stats().snapshots;
  return r;
}

RunResult baselineRun(const il::Program& prog, Backend be) {
  InterpOptions io;
  io.backend = be;
  Interpreter in(prog, {}, io);
  apps::registerFillKernel(in, 42);
  apps::registerFftKernels(in);
  in.run();
  return gather(in);
}

RunResult crashRecoverRun(const il::Program& prog, Backend be,
                          std::uint64_t crashAfterSends,
                          std::uint64_t intervalSteps) {
  rt::RuntimeOptions opts;
  net::FaultPlan plan;
  // Arm every pid: which processor sends first (or at all) differs per
  // program, and the budget counts each endpoint's own sends.
  for (int p = 0; p < prog.nprocs; ++p) plan.crashPids.push_back(p);
  plan.crashAfterSends = crashAfterSends;
  plan.crashFate = net::CrashFate::Recover;
  opts.faultPlan = plan;
  InterpOptions io;
  io.backend = be;
  Interpreter in(prog, opts, io);
  ckpt::CkptOptions co;
  co.intervalSteps = intervalSteps;
  in.runtime().enableCheckpointing(co);
  apps::registerFillKernel(in, 42);
  apps::registerFftKernels(in);
  in.run();
  return gather(in);
}

/// The six logical counters both engines and every recovery path must
/// reproduce exactly. Fast-path counters (guardCacheHits, rangeSplits,
/// guardedItersSaved) are excluded by design: range splitting is disabled
/// under checkpointing and cache hits depend on table lifetimes.
void expectLogicalEq(const RunResult& a, const RunResult& b,
                     const std::string& what) {
  EXPECT_EQ(a.digest, b.digest) << what << ": result digests differ";
  EXPECT_EQ(a.stats.stmtsExecuted, b.stats.stmtsExecuted) << what;
  EXPECT_EQ(a.stats.loopIterations, b.stats.loopIterations) << what;
  EXPECT_EQ(a.stats.rulesEvaluated, b.stats.rulesEvaluated) << what;
  EXPECT_EQ(a.stats.rulesTrue, b.stats.rulesTrue) << what;
  EXPECT_EQ(a.stats.elemAssigns, b.stats.elemAssigns) << what;
  EXPECT_EQ(a.stats.kernelCalls, b.stats.kernelCalls) << what;
  EXPECT_EQ(a.messagesSent, b.messagesSent) << what;
  EXPECT_EQ(a.bytesSent, b.bytesSent) << what;
  EXPECT_EQ(a.ownershipTransfers, b.ownershipTransfers) << what;
}

class RecoveryDifferential : public ::testing::TestWithParam<const char*> {};

TEST_P(RecoveryDifferential, CrashRecoverMatchesFaultFreeTreeWalk) {
  il::Program prog = loadExample(GetParam());
  RunResult base = baselineRun(prog, Backend::TreeWalk);
  RunResult rec = crashRecoverRun(prog, Backend::TreeWalk, 0, 32);
  // A program with no communication (vecadd) never trips a send-triggered
  // crash; the differential still checks the checkpointing machinery is
  // inert on its results.
  if (base.messagesSent > 0)
    EXPECT_GE(rec.recoveries, 1u) << "crash never triggered";
  expectLogicalEq(base, rec, std::string(GetParam()) + " (tree)");
}

TEST_P(RecoveryDifferential, CrashRecoverMatchesFaultFreeBytecode) {
  il::Program prog = loadExample(GetParam());
  RunResult base = baselineRun(prog, Backend::Bytecode);
  RunResult rec = crashRecoverRun(prog, Backend::Bytecode, 0, 32);
  if (base.messagesSent > 0)
    EXPECT_GE(rec.recoveries, 1u) << "crash never triggered";
  expectLogicalEq(base, rec, std::string(GetParam()) + " (vm)");
}

TEST_P(RecoveryDifferential, LateCrashRecoversFromMidRunSnapshot) {
  // A later crash budget lets periodic captures land first, so recovery
  // restores a mid-run snapshot rather than the genesis one.
  il::Program prog = loadExample(GetParam());
  for (Backend be : {Backend::TreeWalk, Backend::Bytecode}) {
    RunResult base = baselineRun(prog, be);
    RunResult rec = crashRecoverRun(prog, be, 3, 16);
    if (rec.recoveries == 0) continue;  // p1 sent too few messages to die
    EXPECT_GE(rec.snapshots, 1u);
    expectLogicalEq(base, rec, std::string(GetParam()) + " (late crash)");
  }
}

INSTANTIATE_TEST_SUITE_P(Examples, RecoveryDifferential,
                         ::testing::Values("vecadd.xdp", "jacobi.xdp",
                                           "cannon.xdp", "ownership.xdp",
                                           "taskfarm.xdp"));

class PreemptResume : public ::testing::TestWithParam<Backend> {};

TEST_P(PreemptResume, PreemptThenResumeSameRuntimeMatchesFaultFree) {
  il::Program prog = loadExample("jacobi.xdp");
  RunResult base = baselineRun(prog, GetParam());

  rt::Runtime* rtp = nullptr;
  std::atomic<bool> armed{true};
  InterpOptions io;
  io.backend = GetParam();
  io.stepHook = [&](rt::Proc& p) {
    if (p.mypid() == 0 && armed.exchange(false)) rtp->requestPreempt();
  };
  Interpreter in(prog, {}, io);
  rtp = &in.runtime();
  in.runtime().enableCheckpointing({});
  apps::registerFillKernel(in, 42);
  apps::registerFftKernels(in);

  in.run();
  ASSERT_TRUE(in.runtime().preempted());
  ckpt::Snapshot snap = in.runtime().takePreemptSnapshot();
  EXPECT_EQ(snap.nprocs, prog.nprocs);

  in.runtime().restoreFrom(std::move(snap));
  in.run();
  EXPECT_FALSE(in.runtime().preempted());
  expectLogicalEq(base, gather(in), "preempt+resume");
}

TEST_P(PreemptResume, SnapshotSurvivesSerializationIntoFreshRuntime) {
  // Simulates resume in a different process: the snapshot goes through
  // the checksummed wire format and is restored into a runtime that
  // shares no state with the preempted one.
  il::Program prog = loadExample("jacobi.xdp");
  RunResult base = baselineRun(prog, GetParam());

  std::vector<std::byte> encoded;
  {
    rt::Runtime* rtp = nullptr;
    std::atomic<bool> armed{true};
    InterpOptions io;
    io.backend = GetParam();
    io.stepHook = [&](rt::Proc& p) {
      if (p.mypid() == 0 && armed.exchange(false)) rtp->requestPreempt();
    };
    Interpreter in(prog, {}, io);
    rtp = &in.runtime();
    in.runtime().enableCheckpointing({});
    apps::registerFillKernel(in, 42);
    apps::registerFftKernels(in);
    in.run();
    ASSERT_TRUE(in.runtime().preempted());
    encoded = ckpt::encodeSnapshot(in.runtime().takePreemptSnapshot());
  }

  InterpOptions io2;
  io2.backend = GetParam();
  Interpreter in2(prog, {}, io2);
  in2.runtime().enableCheckpointing({});
  apps::registerFillKernel(in2, 42);
  apps::registerFftKernels(in2);
  in2.runtime().restoreFrom(ckpt::decodeSnapshot(encoded));
  in2.run();
  expectLogicalEq(base, gather(in2), "serialized resume");
}

INSTANTIATE_TEST_SUITE_P(Backends, PreemptResume,
                         ::testing::Values(Backend::TreeWalk,
                                           Backend::Bytecode));

TEST(Recovery, CrossEngineResumeIsRejected) {
  il::Program prog = loadExample("vecadd.xdp");
  std::vector<std::byte> encoded;
  {
    rt::Runtime* rtp = nullptr;
    std::atomic<bool> armed{true};
    InterpOptions io;  // tree walker
    io.stepHook = [&](rt::Proc& p) {
      if (p.mypid() == 0 && armed.exchange(false)) rtp->requestPreempt();
    };
    Interpreter in(prog, {}, io);
    rtp = &in.runtime();
    in.runtime().enableCheckpointing({});
    apps::registerFillKernel(in, 42);
    in.run();
    ASSERT_TRUE(in.runtime().preempted());
    encoded = ckpt::encodeSnapshot(in.runtime().takePreemptSnapshot());
  }
  InterpOptions io2;
  io2.backend = Backend::Bytecode;
  Interpreter in2(prog, {}, io2);
  in2.runtime().enableCheckpointing({});
  apps::registerFillKernel(in2, 42);
  in2.runtime().restoreFrom(ckpt::decodeSnapshot(encoded));
  // The per-node CkptError is aggregated by the SPMD failure handler into
  // a single XdpError naming the failed processors.
  try {
    in2.run();
    FAIL() << "cross-engine resume was not rejected";
  } catch (const xdp::XdpError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "cannot resume a continuation captured by another engine"),
              std::string::npos)
        << e.what();
  }
}

TEST(Recovery, ProgramHashMismatchIsRejected) {
  il::Program prog = loadExample("vecadd.xdp");
  Interpreter in(prog, {}, {});
  in.runtime().enableCheckpointing({});
  in.runtime().setCkptProgram(0, 111);
  apps::registerFillKernel(in, 42);
  in.run();
  ckpt::Snapshot snap = in.runtime().checkpoint();
  EXPECT_EQ(snap.programHash, 111u);
  snap.programHash = 222;
  EXPECT_THROW(in.runtime().restoreFrom(std::move(snap)), ckpt::CkptError);
}

TEST(Recovery, CheckpointingRunWithoutFaultsMatchesPlainRun) {
  // Steady state: enabling checkpointing (with periodic captures) must
  // not perturb results or logical counters.
  il::Program prog = loadExample("cannon.xdp");
  for (Backend be : {Backend::TreeWalk, Backend::Bytecode}) {
    RunResult base = baselineRun(prog, be);
    InterpOptions io;
    io.backend = be;
    Interpreter in(prog, {}, io);
    ckpt::CkptOptions co;
    co.intervalSteps = 64;
    in.runtime().enableCheckpointing(co);
    apps::registerFillKernel(in, 42);
    apps::registerFftKernels(in);
    in.run();
    RunResult r = gather(in);
    EXPECT_EQ(r.recoveries, 0u);
    expectLogicalEq(base, r, "steady-state ckpt");
  }
}

// A coordinated capture needs every other processor parked for it or
// blocked in an await. One waiting in a barrier never qualifies, so the
// capture leader gives up after captureTimeoutMs and the controller counts
// exactly one failed capture (and no successful one).
TEST(Recovery, CaptureBlockedByBarrierCountsOneFailure) {
  rt::Runtime rt(2);
  ckpt::CkptOptions co;
  co.captureTimeoutMs = 1;
  rt.enableCheckpointing(co);
  rt.run([&](rt::Proc& p) {
    if (p.mypid() == 0) {
      while (rt.fabric().barrierWaiters() != 1) std::this_thread::yield();
      rt.ckptController()->parkAtBoundary(0, ckpt::ContImage{});
    }
    p.barrier();
  });
  EXPECT_EQ(rt.ckptController()->captureFailures(), 1u);
  EXPECT_EQ(rt.ckptController()->captures(), 0u);
}

}  // namespace
}  // namespace xdp::interp
