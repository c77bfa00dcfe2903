// Structure-aware restore fuzz (DESIGN.md §11). Snapshots taken from the
// five example programs on both engines are mutated inside their fabric,
// table and continuation records, re-encoded with encodeSnapshot so every
// checksum passes, then decoded and resumed in a fresh runtime — which is
// what drives the structural decoders (Fabric::restoreImage,
// ProcTable::restoreImage, both continuation codecs).
//
// A restore treats its image as untrusted bytes: decodeSnapshot and
// Runtime::restoreFrom either succeed or throw CkptError, and the resumed
// run either completes, fails with CkptError, or fails the way a program
// with that (now different) state legitimately can — a watchdog deadlock,
// a usage error, the step budget below. It never throws bad_alloc, never
// fails an internal XDP_CHECK, and (under the asan preset) never touches
// memory it does not own. The campaign seed is fixed and every case
// draws its mutations from its own case seed, so a failure names the
// seed that replays it; each defect this found is pinned by a seeded
// regression case at the bottom.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <new>
#include <optional>
#include <sstream>

#include "xdp/apps/programs.hpp"
#include "xdp/ckpt/io.hpp"
#include "xdp/il/parser.hpp"
#include "xdp/interp/interpreter.hpp"
#include "xdp/support/check.hpp"
#include "xdp/support/rng.hpp"

namespace xdp::interp {
namespace {

constexpr const char* kExamples[] = {"vecadd.xdp", "jacobi.xdp",
                                     "cannon.xdp", "ownership.xdp",
                                     "taskfarm.xdp"};

/// Logical steps (all processors together) a resumed run may take before
/// it is stopped: a mutated loop bound or step must not spin forever.
constexpr long kStepBudget = 20000;

il::Program loadExample(const std::string& name) {
  std::ifstream in(std::string(XDP_PROGRAMS_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << name;
  std::stringstream buf;
  buf << in.rdbuf();
  return il::parseProgram(buf.str());
}

void setUp(Interpreter& in, const ckpt::CkptOptions& co = {}) {
  in.runtime().enableCheckpointing(co);
  apps::registerFillKernel(in, 42);
  apps::registerFftKernels(in);
}

/// Base snapshot of `prog`: the coordinated capture every processor parks
/// for at its `atStep`-th statement (p0 then asks for a preemption so the
/// run stops right after it), or nothing if the program finishes first.
/// Parking at fixed statement counts keeps the cut independent of thread
/// scheduling, so a case seed replays against the same bytes.
std::optional<ckpt::Snapshot> captureAt(const il::Program& prog, Backend b,
                                        long atStep) {
  rt::Runtime* rtp = nullptr;
  std::atomic<long> steps{0};
  InterpOptions io;
  io.backend = b;
  io.stepHook = [&](rt::Proc& p) {
    if (p.mypid() == 0 && ++steps == atStep + 1) rtp->requestPreempt();
  };
  Interpreter in(prog, {}, io);
  rtp = &in.runtime();
  ckpt::CkptOptions co;
  co.intervalSteps = static_cast<std::uint64_t>(atStep);
  setUp(in, co);
  in.run();
  if (!in.runtime().preempted()) return std::nullopt;
  return in.runtime().ckptStore()->loadLatestGood();
}

/// Decode `encoded` and resume it in a fresh runtime. Returns an empty
/// string for every acceptable outcome, else what went wrong.
std::string resume(const il::Program& prog, Backend b,
                   const std::vector<std::byte>& encoded) {
  rt::RuntimeOptions ro;
  ro.watchdogMs = 100;
  InterpOptions io;
  io.backend = b;
  std::atomic<long> steps{0};
  io.stepHook = [&](rt::Proc&) {
    if (++steps > kStepBudget)
      throw QuotaExceeded("steps", "restore fuzz step budget");
  };
  try {
    ckpt::Snapshot snap = ckpt::decodeSnapshot(encoded);
    Interpreter in(prog, ro, io);
    setUp(in);
    in.runtime().restoreFrom(std::move(snap));
    in.run();
  } catch (const ckpt::CkptError&) {
  } catch (const std::bad_alloc&) {
    return "std::bad_alloc";
  } catch (const XdpError& e) {
    // Node failures arrive aggregated into one XdpError; look inside.
    const std::string what = e.what();
    for (const char* bad : {"XDP_CHECK(", "bad_alloc", "unknown error",
                            "std::"})
      if (what.find(bad) != std::string::npos) return what;
  } catch (const std::exception& e) {
    return std::string("non-XDP exception: ") + e.what();
  }
  return "";
}

/// Overwrite `width` bytes at `pos` (little-endian) with `v`.
void poke(std::vector<std::byte>& buf, std::size_t pos, unsigned width,
          std::uint64_t v) {
  for (unsigned i = 0; i < width && pos + i < buf.size(); ++i)
    buf[pos + i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
}

/// Values that sit on the edges decoders get wrong: zero, one, all-ones,
/// sign boundaries, and counts far larger than any image.
std::uint64_t interesting(SplitMix64& g) {
  static constexpr std::uint64_t kVals[] = {
      0,          1,          2,           3,          4,
      0x7f,       0x80,       0xff,        0xffff,     0x7fffffff,
      0x80000000, 0xffffffff, 1ull << 40,  1ull << 62, 0x7fffffffffffffff,
      0x8000000000000000ull,  0xffffffffffffffffull};
  const std::uint64_t pick = g.next();
  if (pick % 4 == 0) return g.next() % 64;  // small, plausible
  return kVals[(pick >> 8) % (sizeof kVals / sizeof kVals[0])];
}

/// Mutate one field-sized window of `rec`: a u8, u32 or u64 at a random
/// offset set to an edge value, a bit flip, or a truncation.
void mutate(std::vector<std::byte>& rec, SplitMix64& g) {
  if (rec.empty()) return;
  const std::size_t pos = g.next() % rec.size();
  switch (g.next() % 5) {
    case 0:
      poke(rec, pos, 1, interesting(g));
      break;
    case 1:
      poke(rec, pos, 4, interesting(g));
      break;
    case 2:
      poke(rec, pos, 8, interesting(g));
      break;
    case 3:
      rec[pos] ^= static_cast<std::byte>(1u << (g.next() % 8));
      break;
    default:
      rec.resize(pos);
      break;
  }
}

/// Damage `snap` as `caseSeed` dictates: one to three mutations of its
/// fabric record, one table or one continuation (weighted toward the
/// fabric). Returns which record was hit, for failure messages.
std::string damage(ckpt::Snapshot& snap, std::uint64_t caseSeed) {
  SplitMix64 g(caseSeed);
  const std::uint64_t which = g.next() % 4;
  const std::size_t p = g.next() % snap.tables.size();
  std::vector<std::byte>& rec = which <= 1   ? snap.fabric
                                : which == 2 ? snap.tables[p]
                                             : snap.conts[p].payload;
  const std::uint64_t hits = 1 + g.next() % 3;
  for (std::uint64_t h = 0; h < hits; ++h) mutate(rec, g);
  if (which <= 1) return "fabric";
  return (which == 2 ? "table p" : "continuation p") + std::to_string(p);
}

/// Replay one case: damage a copy of `base`, re-encode it (so every
/// checksum passes) and resume it. Empty on an acceptable outcome.
std::string runCase(const il::Program& prog, Backend b,
                    const ckpt::Snapshot& base, std::uint64_t caseSeed) {
  ckpt::Snapshot snap = base;
  const std::string where = damage(snap, caseSeed);
  const std::string bad = resume(prog, b, ckpt::encodeSnapshot(snap));
  return bad.empty() ? bad : where + ": " + bad;
}

class RestoreFuzz : public ::testing::TestWithParam<Backend> {};

TEST_P(RestoreFuzz, MutatedImagesRestoreOrFailWithCkptError) {
  constexpr int kCasesPerSnapshot = 60;
  SplitMix64 campaign(0x5eed0000u + static_cast<unsigned>(GetParam()));
  int snapshots = 0;
  for (const char* ex : kExamples) {
    const il::Program prog = loadExample(ex);
    for (long atStep : {2L, 11L}) {
      std::optional<ckpt::Snapshot> base = captureAt(prog, GetParam(), atStep);
      if (!base.has_value()) continue;
      snapshots += 1;
      for (int m = 0; m < kCasesPerSnapshot; ++m) {
        const std::uint64_t caseSeed = campaign.next();
        EXPECT_EQ(runCase(prog, GetParam(), *base, caseSeed), "")
            << ex << " captured at step " << atStep << ", case seed 0x"
            << std::hex << caseSeed;
      }
    }
  }
  EXPECT_GE(snapshots, 5);
}

INSTANTIATE_TEST_SUITE_P(Backends, RestoreFuzz,
                         ::testing::Values(Backend::TreeWalk,
                                           Backend::Bytecode));

// Cases the fuzz found, one per defect, replayed from their case seeds.
TEST(RestoreFuzzRegression, SeededCases) {
  struct Case {
    const char* example;
    Backend backend;
    long atStep;
    std::uint64_t seed;
    const char* defect;  ///< what the case did before its fix
  };
  const Case cases[] = {
      {"vecadd.xdp", Backend::TreeWalk, 2, 0x09aa91c4ba62caadull,
       "tree continuation depth reserved unchecked: std::bad_alloc"},
      {"jacobi.xdp", Backend::TreeWalk, 11, 0x3d6cd4b70c469dd6ull,
       "name section count reserved unchecked: std::bad_alloc"},
      {"jacobi.xdp", Backend::TreeWalk, 11, 0x6a95d615ac97589aull,
       "receive for an undeclared symbol: failed XDP_CHECK"},
      {"cannon.xdp", Backend::TreeWalk, 2, 0x61c073dad43fa386ull,
       "table section outside its array: segmentation fault"},
      {"cannon.xdp", Backend::TreeWalk, 11, 0x2096974b9fa40b39ull,
       "undefined tree-walker scalar: failed XDP_CHECK"},
      {"vecadd.xdp", Backend::Bytecode, 2, 0x96ee5a68d3ff0a62ull,
       "non-positive VM loop step: failed XDP_CHECK"},
      {"jacobi.xdp", Backend::Bytecode, 2, 0x0922ea1832d9615cull,
       "undefined live VM temporary: failed XDP_CHECK"},
  };
  for (const Case& c : cases) {
    const il::Program prog = loadExample(c.example);
    std::optional<ckpt::Snapshot> base = captureAt(prog, c.backend, c.atStep);
    ASSERT_TRUE(base.has_value()) << c.example;
    EXPECT_EQ(runCase(prog, c.backend, *base, c.seed), "") << c.defect;
  }
}

}  // namespace
}  // namespace xdp::interp
