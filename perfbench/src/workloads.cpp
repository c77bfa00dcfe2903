#include "workloads.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "reference.hpp"

namespace perfbench {

using xdp::serve::SessionOutcome;
using xdp::serve::SessionReport;

namespace {

/// Fisher-Yates with the benchmark's generator.
template <class T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.below(i)]);
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

Session completed(std::string family, std::string source,
                  std::uint64_t fillSeed, const Arrays& expected) {
  Session s;
  s.family = family;
  s.req.name = std::move(family);
  s.req.source = std::move(source);
  s.req.fillSeed = fillSeed;
  s.expect.digest = digestOf(expected);
  return s;
}

// --- generated program families -------------------------------------------

/// examples/programs/jacobi.xdp with 4-cell blocks widened to `block`
/// cells and 3 sweeps to `sweeps`.
std::string stencilSource(long block, int sweeps) {
  const std::string b = std::to_string(block);
  std::ostringstream os;
  os << "procs 4\n"
     << "array U  f64 [1:" << 4 * block << "] (BLOCK)\n"
     << "array HL f64 [0:3] (BLOCK)\n"
     << "array HR f64 [0:3] (BLOCK)\n\n"
     << "fill(U[1:" << 4 * block << "])\n"
     << "do t = 1, " << sweeps << "\n"
     << "  (mypid < nprocs - 1) : { U[" << b << " * mypid + " << b
     << "] -> {mypid + 1} }\n"
     << "  (mypid > 0) : { U[" << b << " * mypid + 1] -> {mypid - 1} }\n"
     << "  (mypid > 0) : { HL[mypid] <- U[" << b << " * mypid] }\n"
     << "  (mypid < nprocs - 1) : { HR[mypid] <- U[" << b << " * mypid + "
     << block + 1 << "] }\n"
     << "  (mypid > 0) : {\n"
     << "    await(HL[mypid])\n"
     << "    U[" << b << " * mypid + 1] = 0.25 * HL[mypid] + 0.5 * U[" << b
     << " * mypid + 1] + 0.25 * U[" << b << " * mypid + 2]\n"
     << "  }\n"
     << "  (mypid < nprocs - 1) : {\n"
     << "    await(HR[mypid])\n"
     << "    U[" << b << " * mypid + " << b << "] = 0.25 * U[" << b
     << " * mypid + " << block - 1 << "] + 0.5 * U[" << b << " * mypid + "
     << b << "] + 0.25 * HR[mypid]\n"
     << "  }\n"
     << "  do i = " << b << " * mypid + 2, " << b << " * mypid + "
     << block - 1 << "\n"
     << "    iown(U[i]) : { U[i] = 0.25 * U[i - 1] + 0.5 * U[i] + 0.25 * "
        "U[i + 1] }\n"
     << "  enddo\n"
     << "enddo\n";
  return os.str();
}

/// Section 2.7 task farm (examples/programs/taskfarm.xdp) on `nprocs`
/// processors with `jobs` jobs; workers also count the jobs they drew.
std::string farmSource(int nprocs, long jobs) {
  std::ostringstream os;
  os << "procs " << nprocs << "\n"
     << "array W f64 [0:0] (BLOCK:1)\n"
     << "array M f64 [0:" << nprocs - 1 << "] (BLOCK)\n"
     << "array C f64 [0:" << nprocs - 1 << "] (BLOCK)\n\n"
     << "(mypid == 0) : {\n"
     << "  do t = 1, " << jobs << "\n"
     << "    W[0] = t\n"
     << "    W[0] ->\n"
     << "  enddo\n"
     << "}\n"
     << "(mypid > 0) : {\n"
     << "  do t = mypid, " << jobs << ", " << nprocs - 1 << "\n"
     << "    M[mypid] <- W[0]\n"
     << "    await(M[mypid])\n"
     << "    compute(M[mypid] * 0.000001)\n"
     << "    C[mypid] = C[mypid] + 1\n"
     << "  enddo\n"
     << "  M[mypid] = 0.0\n"
     << "}\n";
  return os.str();
}

/// examples/programs/vecadd.xdp as lower-owner-computes leaves it: one
/// rendezvous message per element.
std::string vecaddLoweredSource(int nprocs, long n) {
  std::ostringstream os;
  os << "procs " << nprocs << "\n"
     << "array A f64 [1:" << n << "] (BLOCK)\n"
     << "array B f64 [1:" << n << "] (CYCLIC)\n"
     << "array T0 f64 [0:" << nprocs - 1 << "] (BLOCK)\n\n"
     << "fill(A[1:" << n << "], B[1:" << n << "])\n"
     << "do i = 1, " << n << "\n"
     << "  iown(B[i]) : {\n"
     << "    B[i] ->\n"
     << "  }\n"
     << "  iown(A[i]) : {\n"
     << "    T0[mypid] <- B[i]\n"
     << "    await(T0[mypid])\n"
     << "    A[i] = A[i] + T0[mypid]\n"
     << "  }\n"
     << "enddo\n";
  return os.str();
}

/// examples/programs/cannon.xdp with `block`-element vector blocks that
/// make `rounds` full trips around the ring.
std::string cannonSource(int nprocs, long block, int rounds) {
  const long n = nprocs * block;
  const int steps = rounds * nprocs;
  const std::string b = std::to_string(block);
  const std::string p = std::to_string(nprocs);
  std::ostringstream os;
  os << "procs " << nprocs << "\n"
     << "array A f64 [0:" << n - 1 << ",0:" << n - 1 << "] (BLOCK, *)\n"
     << "array X f64 [0:" << n - 1 << "] (BLOCK)\n"
     << "array Y f64 [0:" << n - 1 << "] (BLOCK)\n\n"
     << "fill(A[0:" << n - 1 << ",0:" << n - 1 << "], X[0:" << n - 1
     << "])\n"
     << "do s = 0, " << steps - 1 << "\n"
     << "  j = (mypid + s) % " << p << "\n"
     << "  await(X[" << b << " * j:" << b << " * j + " << block - 1
     << "]) : {\n"
     << "    do r = " << b << " * mypid, " << b << " * mypid + " << block - 1
     << "\n"
     << "      do c = " << b << " * j, " << b << " * j + " << block - 1
     << "\n"
     << "        Y[r] = Y[r] + A[r, c] * X[c]\n"
     << "      enddo\n"
     << "    enddo\n"
     << "  }\n"
     << "  (s < " << steps - 1 << ") : {\n"
     << "    X[" << b << " * j:" << b << " * j + " << block - 1
     << "] -=> {(mypid + " << nprocs - 1 << ") % " << p << "}\n"
     << "    k = (mypid + s + 1) % " << p << "\n"
     << "    X[" << b << " * k:" << b << " * k + " << block - 1 << "] <=-\n"
     << "  }\n"
     << "enddo\n";
  return os.str();
}

// --- sessions that must be refused -------------------------------------------

/// A halo send whose receive was forgotten: the static verifier reports
/// an unmatched send, so the analysis gate refuses the session.
const char* kUnmatchedHalo =
    "procs 4\n"
    "array U f64 [1:16] (BLOCK)\n"
    "array H f64 [0:3] (BLOCK)\n\n"
    "fill(U[1:16])\n"
    "(mypid < nprocs - 1) : { U[4 * mypid + 4] -> {mypid + 1} }\n"
    "iown(H[mypid]) : { H[mypid] = 1.0 }\n";

/// A clean relaxation loop that runs far past the session's step quota.
const char* kRunaway =
    "procs 2\n"
    "array A f64 [1:32] (BLOCK)\n\n"
    "fill(A[1:32])\n"
    "do t = 1, 40\n"
    "  do i = 16 * mypid + 1, 16 * mypid + 16\n"
    "    A[i] = 0.5 * A[i]\n"
    "  enddo\n"
    "enddo\n";
constexpr std::uint64_t kRunawayStepQuota = 300;

Session refusedAnalysis() {
  Session s;
  s.family = "refused-analysis";
  s.req.name = s.family;
  s.req.source = kUnmatchedHalo;
  s.expect.outcome = SessionOutcome::RejectedAnalysis;
  return s;
}

Session refusedQuota() {
  Session s;
  s.family = "refused-quota";
  s.req.name = s.family;
  s.req.source = kRunaway;
  s.req.quotas.maxSteps = kRunawayStepQuota;
  s.expect.outcome = SessionOutcome::QuotaExceeded;
  s.expect.quotaResource = "steps";
  return s;
}

// --- workloads -----------------------------------------------------------------

Workload serveMix(std::uint64_t seed, const std::string& dir) {
  Rng rng(seed);
  const std::string vecadd = readFile(dir + "/vecadd.xdp");
  const std::string jacobi = readFile(dir + "/jacobi.xdp");
  const std::string cannon = readFile(dir + "/cannon.xdp");
  const std::string farm = readFile(dir + "/taskfarm.xdp");
  const std::string own = readFile(dir + "/ownership.xdp");

  auto make = [&](int kind, std::uint64_t fs) {
    switch (kind) {
      case 0: {
        Session s = completed("vecadd", vecadd, fs,
                              refVecAddPipelined(fs, 4, 64));
        s.req.usePipeline = true;
        return s;
      }
      case 1:
        return completed("jacobi", jacobi, fs, refJacobi(fs, 4, 4, 3));
      case 2:
        return completed("cannon", cannon, fs, refCannon(fs, 4, 1, 1));
      case 3:
        return completed("taskfarm", farm, fs, refTaskFarm(4, 12, false));
      case 4:
        return completed("ownership", own, fs, refOwnership(fs));
      case 5:
        return refusedAnalysis();
      default:
        return refusedQuota();
    }
  };

  Workload w;
  w.name = "serve_mix";
  w.clients = 4;
  w.tailPercent = 80;
  // Outside load moves these sub-ms sessions most; slices let the run
  // set the disturbed part aside (see main.cpp).
  w.slices = 6;
  // Fixed composition, seeded order and fills: 38 of each shipped
  // program and 5 of each refusal per 200 sessions (5% refused).
  std::vector<int> kinds;
  for (int k = 0; k < 5; ++k) kinds.insert(kinds.end(), 38, k);
  kinds.insert(kinds.end(), 5, 5);
  kinds.insert(kinds.end(), 5, 6);
  shuffle(kinds, rng);
  for (int k : kinds) w.sessions.push_back(make(k, rng.next()));
  // Set-up runs every kind three times: one pass of these sub-ms sessions
  // is too short to time steadily.
  for (int pass = 0; pass < 3; ++pass)
    for (int k = 0; k < 7; ++k) w.warmup.push_back(make(k, rng.next()));
  return w;
}

Workload stencilLong(std::uint64_t seed) {
  Rng rng(seed);
  constexpr long kCellSweeps = 65536;  // ~100 ms per session
  constexpr int kSessions = 64;
  constexpr int kCrashing = 16;  // 25% carry a crash-and-recover plan
  constexpr int kSnapshotsPerSession = 6;

  auto make = [&](long block, bool crash) {
    const int sweeps =
        static_cast<int>(std::max<long>(2, kCellSweeps / (4 * block)));
    const std::uint64_t fs = rng.next();
    Session s = completed("stencil", stencilSource(block, sweeps), fs,
                          refJacobi(fs, 4, block, sweeps));
    // Every session checkpoints. Each processor executes about four
    // statements per cell of its block per sweep; the interval spreads
    // them over kSnapshotsPerSession captures, the start-up one included.
    s.req.checkpointIntervalSteps = static_cast<std::uint64_t>(
        4 * block * sweeps / (kSnapshotsPerSession - 1));
    if (crash) {
      // One interior processor dies part-way through its halo sends (two
      // per sweep) and the session rolls back to its last snapshot.
      xdp::net::FaultPlan plan;
      plan.seed = rng.next();
      plan.crashPids = {1 + static_cast<int>(rng.below(2))};
      plan.crashAfterSends = 1 + rng.below(2 * sweeps - 1);
      plan.crashFate = xdp::net::CrashFate::Recover;
      s.req.faultPlan = plan;
      s.family = "stencil-crash";
    }
    return s;
  };

  Workload w;
  w.name = "stencil_long";
  w.clients = 4;
  w.tailPercent = 90;
  // One slice each: a crash-and-recover session can stall for 2 s, most
  // of a short slice, and every slice boundary waits for it.
  w.slices = 1;
  // Block sizes 768..1272 cells in steps of 8, one each, every fourth
  // with a crash plan, in seeded order; the sweep count keeps every
  // session at about kCellSweeps.
  std::vector<std::pair<long, bool>> picks;
  for (int i = 0; i < kSessions; ++i)
    picks.emplace_back(768 + 8 * i, i % (kSessions / kCrashing) == 0);
  shuffle(picks, rng);
  for (auto [block, crash] : picks) w.sessions.push_back(make(block, crash));
  w.warmup.push_back(make(1024, false));
  w.warmup.push_back(make(1024, true));
  return w;
}

Workload commHeavy(std::uint64_t seed) {
  Rng rng(seed);
  constexpr int kPerFamily = 40;

  auto make = [&](int family, int i) {
    const std::uint64_t fs = rng.next();
    Session s;
    switch (family) {
      case 0: {  // task farm, 4..8 processors, 256..480 jobs
        const int p = 4 + i % 5;
        const long jobs = 256 + 8 * (i % 29);
        s = completed("farm", farmSource(p, jobs), fs,
                      refTaskFarm(p, jobs, true));
        break;
      }
      case 1: {  // per-element vecadd, 4 or 8 processors, 1024..2048 cells
        const int p = i % 2 == 0 ? 4 : 8;
        const long n = 1024 + 64 * (i % 17);
        s = completed("vecadd-lowered", vecaddLoweredSource(p, n), fs,
                      refVecAddLowered(fs, p, n));
        break;
      }
      default: {  // Cannon ring, 4..8 processors, 2..8-element blocks
        const int p = 4 + i % 5;
        const long block = 2 + 2 * (i % 4);
        const int rounds = 4;
        s = completed("cannon-ring", cannonSource(p, block, rounds), fs,
                      refCannon(fs, p, block, rounds));
        break;
      }
    }
    s.req.analyze = false;  // the trusted compile-and-run path
    return s;
  };

  Workload w;
  w.name = "comm_heavy";
  w.clients = 4;
  w.tailPercent = 99;
  std::vector<std::pair<int, int>> picks;
  for (int f = 0; f < 3; ++f)
    for (int i = 0; i < kPerFamily; ++i) picks.emplace_back(f, i);
  shuffle(picks, rng);
  for (auto [f, i] : picks) w.sessions.push_back(make(f, i));
  for (int pass = 0; pass < 3; ++pass)
    for (int f = 0; f < 3; ++f) w.warmup.push_back(make(f, 3 * pass + f));
  return w;
}

}  // namespace

Workload makeWorkload(const std::string& name, std::uint64_t seed,
                      const std::string& programsDir) {
  if (name == "serve_mix") return serveMix(seed, programsDir);
  if (name == "stencil_long") return stencilLong(seed);
  if (name == "comm_heavy") return commHeavy(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

bool matchesExpectation(const Session& s, const SessionReport& rep,
                        std::string* why) {
  const Expectation& e = s.expect;
  std::ostringstream os;
  if (rep.outcome != e.outcome) {
    os << s.family << ": outcome " << xdp::serve::outcomeName(rep.outcome)
       << ", expected " << xdp::serve::outcomeName(e.outcome);
    if (!rep.error.empty()) os << " (" << rep.error.substr(0, 200) << ")";
  } else if (e.outcome == SessionOutcome::Completed &&
             rep.resultDigest != e.digest) {
    os << s.family << ": digest " << std::hex << rep.resultDigest
       << ", reference " << e.digest;
  } else if (e.outcome == SessionOutcome::QuotaExceeded &&
             rep.quotaResource != e.quotaResource) {
    os << s.family << ": quota '" << rep.quotaResource << "', expected '"
       << e.quotaResource << "'";
  } else {
    return true;
  }
  if (why) *why = os.str();
  return false;
}

}  // namespace perfbench
