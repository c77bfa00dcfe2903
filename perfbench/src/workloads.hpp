// The benchmark's workloads: seeded lists of .xdp sessions, each paired
// with the outcome an independent reference model expects.
//
//   serve_mix     the five shipped example programs at their shipped
//                 sizes (vecadd through the standard pipeline) plus a
//                 small share of sessions that must be refused: one fails
//                 the static analysis gate, one breaches a step quota.
//   stencil_long  generated 4-processor Jacobi halo-exchange stencils of
//                 ~100 ms each, all checkpointed, a share of them with a
//                 crash-and-recover fault plan.
//   comm_heavy    generated communication-bound programs on the trusted
//                 path (no analysis gate): task farms, per-element
//                 lowered vector adds and Cannon-style ring circulation,
//                 on 4 to 8 processors.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "xdp/serve/session.hpp"

namespace perfbench {

/// SplitMix64: the benchmark's own input generator, kept independent of
/// the library so both sides of a comparison draw identical inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

/// What the reference model says a session must end with.
struct Expectation {
  xdp::serve::SessionOutcome outcome = xdp::serve::SessionOutcome::Completed;
  std::uint64_t digest = 0;   ///< Completed sessions only
  std::string quotaResource;  ///< QuotaExceeded sessions only
};

struct Session {
  std::string family;  ///< program family, e.g. "stencil" or "farm"
  xdp::serve::SessionRequest req;
  Expectation expect;
};

struct Workload {
  std::string name;
  int clients = 1;        ///< closed-loop client threads (<= nproc)
  /// latency_tail_ms percentile; a run has at least ten sessions beyond it.
  double tailPercent = 99;
  /// Throughput and latency slices per run (each kind gets this many).
  int slices = 1;
  /// Timed sessions, cycled in order for the length of the run.
  std::vector<Session> sessions;
  /// Sessions of every family, run while the server is set up.
  std::vector<Session> warmup;
};

/// Build a workload's session list from `seed`; `programsDir` holds the
/// shipped .xdp programs serve_mix runs. Throws std::invalid_argument on
/// an unknown name.
Workload makeWorkload(const std::string& name, std::uint64_t seed,
                      const std::string& programsDir);

/// Does `rep` match the session's expectation? On a mismatch `why` says
/// what differed.
bool matchesExpectation(const Session& s,
                        const xdp::serve::SessionReport& rep,
                        std::string* why);

}  // namespace perfbench
