// The traced run: each workload session replayed as a sequence of timed
// public calls into the layers (parse, each pipeline pass, verify,
// Interpreter construction, Interpreter::run, digest and drain), beside a
// plain serve::runSession call on the same request that is timed only as
// a whole. Stand-alone probes cover what the defaults do not reach
// (flatten + bytecode compile, snapshot encode/decode) and the net layer.
//
// Spans are taken in this file only, around the calls; nothing inside
// src/ is instrumented. What a span cannot see — the part of runSession
// the named phases do not cover — is reported as 1 - attributed_share.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

/// One per-layer metric, in BENCHMARK.json order.
struct LayerMetric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// One traced session, kept for the run record.
struct TracedSample {
  std::string family;
  double runSessionMs = 0.0;  ///< serve::runSession, untraced
  double tracedMs = 0.0;      ///< the same session as timed phase calls
  double attributedMs = 0.0;  ///< sum of the named phases
  bool ok = false;
};

struct TraceResult {
  std::vector<LayerMetric> metrics;  ///< every layer metric except serve.*
  std::vector<TracedSample> samples;
  std::vector<std::string> errors;   ///< reference mismatches
};

/// Replay `w.sessions` (cycled) for `seconds`, one session at a time.
TraceResult runTraced(const Workload& w, double seconds, std::uint64_t seed);

}  // namespace perfbench
