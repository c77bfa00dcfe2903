#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <optional>
#include <thread>

#include "xdp/analysis/verifier.hpp"
#include "xdp/apps/fft.hpp"
#include "xdp/apps/programs.hpp"
#include "xdp/ckpt/io.hpp"
#include "xdp/il/flat.hpp"
#include "xdp/il/parser.hpp"
#include "xdp/interp/bytecode.hpp"
#include "xdp/interp/interpreter.hpp"
#include "xdp/net/fabric.hpp"
#include "xdp/net/spmd.hpp"
#include "xdp/opt/passes.hpp"
#include "xdp/rt/runtime.hpp"
#include "xdp/serve/session.hpp"
#include "reference.hpp"

namespace perfbench {

using namespace xdp;
using Clock = std::chrono::steady_clock;

namespace {

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Per-layer sums over the traced sessions.
struct Totals {
  long sessions = 0;
  double parseMs = 0, verifyMs = 0, setupMs = 0, runMs = 0;
  std::vector<double> passMs;
  double flattenMs = 0, compileMs = 0;
  double irNodes = 0, verifyStmts = 0, hotStmts = 0, coldStmts = 0;
  double logicalOps = 0, guardHits = 0, rangeSplits = 0, residentKb = 0;
  double msgs = 0, bytes = 0, rendezvous = 0, unexpected = 0, received = 0;
  double ownershipTransfers = 0;
  double snapshots = 0, snapshotKb = 0, encodeMs = 0, decodeMs = 0;
  double recoveries = 0;
  long encodes = 0;
  /// Messages per processor count, for the replay probe's shape.
  std::map<int, double> msgsByProcs;
  std::map<int, long> sessionsByProcs;
};

/// Mirrors the step accounting runSession's containment scope installs:
/// a shared statement counter that throws once a step quota is spent.
struct StepCounter {
  std::uint64_t limit = 0;
  std::atomic<std::uint64_t> steps{0};
  std::atomic<bool> breached{false};
  void onStep() {
    const auto n = steps.fetch_add(1, std::memory_order_relaxed) + 1;
    if (limit != 0 && n > limit) {
      breached.store(true, std::memory_order_relaxed);
      throw QuotaExceeded("steps", "step budget exhausted");
    }
  }
};

/// One session as timed public calls. Returns the outcome the phases
/// reached; adds every layer's time and counters into `t`.
serve::SessionReport tracedSession(const Session& s, Totals& t,
                                   TracedSample& sample) {
  const serve::SessionRequest& req = s.req;
  const serve::SessionOptions opts;  // library defaults, as the server uses
  serve::SessionReport rep;
  const auto start = Clock::now();

  auto t0 = Clock::now();
  il::Program prog;
  try {
    prog = il::parseProgram(req.source);
  } catch (const std::exception&) {
    rep.outcome = serve::SessionOutcome::RejectedParse;
    return rep;
  }
  const double parseMs = msSince(t0);
  t.parseMs += parseMs;
  sample.attributedMs += parseMs;

  if (req.usePipeline) {
    const auto passes = opt::standardPipeline();
    t.passMs.resize(passes.size(), 0.0);
    for (std::size_t i = 0; i < passes.size(); ++i) {
      t0 = Clock::now();
      prog = passes[i].fn(prog);
      const double ms = msSince(t0);
      t.passMs[i] += ms;
      sample.attributedMs += ms;
    }
  }

  if (req.analyze) {
    t0 = Clock::now();
    const analysis::VerifyResult vr = analysis::verifyProgram(prog);
    const double ms = msSince(t0);
    t.verifyMs += ms;
    sample.attributedMs += ms;
    t.verifyStmts += static_cast<double>(vr.stmtsAnalyzed);
    if (vr.errors() > 0) {
      rep.outcome = serve::SessionOutcome::RejectedAnalysis;
      sample.tracedMs = msSince(start);
      return rep;
    }
  }

  // --- runtime construction, as runSession builds each attempt ---------
  t0 = Clock::now();
  rt::RuntimeOptions ropts;
  ropts.debugChecks = opts.debugChecks;
  ropts.costModel = opts.costModel;
  ropts.transport = opts.transport;
  ropts.watchdogMs = opts.watchdogMs;
  ropts.watchdogPollMs = opts.watchdogPollMs;
  ropts.faultPlan = req.faultPlan;
  StepCounter counter;
  counter.limit = req.quotas.maxSteps;
  interp::InterpOptions iopts;
  iopts.splitGuardedLoops = opts.splitGuardedLoops;
  iopts.backend = opts.backend;
  iopts.stepHook = [&counter](rt::Proc&) { counter.onStep(); };
  interp::Interpreter in(prog, ropts, iopts);
  rt::Runtime& rt = in.runtime();
  // runSession always installs a send hook (its traffic quotas); so does
  // the replay, so both pay for the call.
  std::atomic<std::uint64_t> sent{0};
  rt.fabric().setSendHook([&sent](int, std::size_t bytes) {
    sent.fetch_add(bytes, std::memory_order_relaxed);
  });
  apps::registerFillKernel(in, req.fillSeed);
  apps::registerFftKernels(in);
  if (req.checkpointIntervalSteps > 0) {
    ckpt::CkptOptions co;
    co.intervalSteps = req.checkpointIntervalSteps;
    rt.enableCheckpointing(co);
    rt.setCkptProgram(
        static_cast<std::uint8_t>(opts.backend),
        ckpt::fnv1a(reinterpret_cast<const std::byte*>(req.source.data()),
                    req.source.size()));
  }
  const double setupMs = msSince(t0);
  t.setupMs += setupMs;
  sample.attributedMs += setupMs;

  t0 = Clock::now();
  rep.outcome = serve::SessionOutcome::Completed;
  try {
    in.run();
  } catch (const std::exception& e) {
    // Several processors may breach at once; the SPMD layer then
    // aggregates their QuotaExceeded errors into one generic error.
    if (counter.breached) {
      rep.outcome = serve::SessionOutcome::QuotaExceeded;
      rep.quotaResource = "steps";
    } else {
      rep.outcome = serve::SessionOutcome::Failed;
      rep.error = e.what();
    }
  }
  const double runMs = msSince(t0);
  t.runMs += runMs;
  sample.attributedMs += runMs;

  // Digest and teardown: runSession does these too, but no public call
  // names them, so they stay unattributed.
  if (rep.outcome == serve::SessionOutcome::Completed) {
    Arrays arrays;
    for (const auto& d : rt.decls())
      arrays.push_back(apps::gatherF64(rt, d.index, d.global));
    rep.resultDigest = digestOf(arrays);
  }
  rt.fabric().drain();
  sample.tracedMs = msSince(start);

  // --- counters and stand-alone probes (outside the traced span) -------
  const interp::InterpStats st = in.totalStats();
  t.logicalOps += static_cast<double>(st.stmtsExecuted + st.loopIterations +
                                      st.rulesEvaluated + st.elemAssigns);
  t.guardHits += static_cast<double>(st.guardCacheHits);
  t.rangeSplits += static_cast<double>(st.rangeSplits);
  std::size_t resident = 0;
  for (int p = 0; p < rt.nprocs(); ++p) resident += rt.table(p).residentBytes();
  t.residentKb += static_cast<double>(resident) / 1024.0;

  const net::NetStats ns = rt.fabric().totalStats();
  t.msgs += static_cast<double>(ns.messagesSent);
  t.bytes += static_cast<double>(ns.bytesSent);
  t.rendezvous += static_cast<double>(ns.rendezvousSends);
  t.unexpected += static_cast<double>(ns.unexpectedMessages);
  t.received += static_cast<double>(ns.messagesReceived);
  t.ownershipTransfers += static_cast<double>(ns.ownershipTransfers);
  t.msgsByProcs[prog.nprocs] += static_cast<double>(ns.messagesSent);
  t.sessionsByProcs[prog.nprocs] += 1;

  if (rt.checkpointingEnabled()) {
    t.recoveries += static_cast<double>(rt.recoveries());
    if (ckpt::CheckpointStore* store = rt.ckptStore();
        store && !store->empty()) {
      t.snapshots += static_cast<double>(store->stats().snapshots);
      t.snapshotKb += static_cast<double>(store->stats().lastBytes) / 1024.0;
      const ckpt::Snapshot snap = store->loadLatestGood();
      t0 = Clock::now();
      const std::vector<std::byte> bytes = ckpt::encodeSnapshot(snap);
      t.encodeMs += msSince(t0);
      t0 = Clock::now();
      const ckpt::Snapshot back = ckpt::decodeSnapshot(bytes);
      t.decodeMs += msSince(t0);
      ++t.encodes;
    }
  }

  t0 = Clock::now();
  il::flat::FlatProgram fp = il::flat::flatten(prog);
  t.flattenMs += msSince(t0);
  t.irNodes += static_cast<double>(fp.nodeCount());
  t0 = Clock::now();
  const interp::bc::Module mod = interp::bc::compile(std::move(fp));
  t.compileMs += msSince(t0);
  t.hotStmts += mod.hotStmts;
  t.coldStmts += mod.coldStmts;
  return rep;
}

/// Median wall time of spawning and joining `nprocs` empty SPMD nodes.
double spawnUs(int nprocs) {
  for (int i = 0; i < 20; ++i) net::runSpmd(nprocs, [](int) {});
  std::vector<double> us;
  for (int i = 0; i < 200; ++i) {
    const auto t0 = Clock::now();
    net::runSpmd(nprocs, [](int) {});
    us.push_back(1000.0 * msSince(t0));
  }
  return median(us);
}

/// Replays a traffic shape through the raw fabric from `nprocs` threads:
/// message k goes from k % P to another processor, through the matcher
/// with probability `rendezvousShare`, carrying `payload` bytes. Each
/// thread interleaves its receives with its sends, so some messages
/// arrive unexpected as in the programs. Returns the median msgs/s over
/// a few regions of `count` messages.
double replayMsgsPerS(int nprocs, long count, double rendezvousShare,
                      std::size_t payload, std::uint64_t seed) {
  if (nprocs < 2 || count < 1) return 0.0;
  struct Msg {
    int src, dst;
    bool rendezvous;
    net::Name name;
  };
  std::vector<Msg> msgs;
  std::uint64_t h = seed;
  for (long k = 0; k < count; ++k) {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    const int src = static_cast<int>(k % nprocs);
    const int hop = 1 + static_cast<int>((k / nprocs) % (nprocs - 1));
    net::Name name;
    name.symbol = 0;
    name.section = sec::Section{sec::Triplet(k)};
    msgs.push_back({src, (src + hop) % nprocs,
                    static_cast<double>(h >> 11) * 0x1.0p-53 < rendezvousShare,
                    std::move(name)});
  }
  std::vector<std::vector<const Msg*>> sends(nprocs), recvs(nprocs);
  for (const Msg& m : msgs) {
    sends[m.src].push_back(&m);
    recvs[m.dst].push_back(&m);
  }

  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    net::Fabric fab(nprocs);
    std::vector<std::atomic<long>> got(nprocs);
    const auto t0 = Clock::now();
    net::runSpmd(nprocs, [&](int p) {
      const auto& mine = sends[p];
      const auto& want = recvs[p];
      for (std::size_t i = 0; i < std::max(mine.size(), want.size()); ++i) {
        if (i < want.size())
          fab.postReceive(p, want[i]->name, net::TransferKind::Data,
                          [&got, p](const net::Message&) {
                            got[p].fetch_add(1, std::memory_order_relaxed);
                          });
        if (i < mine.size())
          fab.send(p, mine[i]->name, net::TransferKind::Data,
                   std::vector<std::byte>(payload),
                   mine[i]->rendezvous ? std::nullopt
                                       : std::optional<int>(mine[i]->dst));
      }
      while (got[p].load(std::memory_order_relaxed) <
             static_cast<long>(want.size())) {
        fab.poll(p);
        std::this_thread::yield();
      }
    });
    fab.pollAll();
    rates.push_back(static_cast<double>(count) / (msSince(t0) / 1000.0));
  }
  return median(rates);
}

}  // namespace

TraceResult runTraced(const Workload& w, double seconds, std::uint64_t seed) {
  TraceResult out;
  Totals t;
  const serve::SessionOptions opts;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(seconds);
  for (std::size_t i = 0; Clock::now() < deadline; ++i) {
    const Session& s = w.sessions[i % w.sessions.size()];
    TracedSample sample;
    sample.family = s.family;

    // Alternate which of the pair runs first, so neither always finds the
    // caches warmed by the other.
    serve::SessionReport plain, traced;
    auto runPlain = [&] {
      const auto t0 = Clock::now();
      plain = serve::runSession(s.req, opts, i + 1);
      sample.runSessionMs = msSince(t0);
    };
    if (i % 2 == 0) runPlain();
    traced = tracedSession(s, t, sample);
    if (i % 2 == 1) runPlain();

    std::string why;
    bool ok = matchesExpectation(s, plain, &why);
    if (!ok) out.errors.push_back("runSession " + why);
    if (!matchesExpectation(s, traced, &why)) {
      ok = false;
      out.errors.push_back("traced " + why);
    }
    sample.ok = ok;
    ++t.sessions;
    out.samples.push_back(sample);
  }

  // --- per-layer metrics: per-session means unless noted ---------------
  const double n = static_cast<double>(std::max<long>(1, t.sessions));
  auto add = [&out](std::string name, std::string unit, double v) {
    out.metrics.push_back({std::move(name), std::move(unit), v});
  };
  add("il.parse_ms", "ms", t.parseMs / n);
  const auto passes = opt::standardPipeline();
  t.passMs.resize(passes.size(), 0.0);
  for (std::size_t i = 0; i < passes.size(); ++i)
    add("opt." + passes[i].name + "_ms", "ms", t.passMs[i] / n);
  add("opt.ir_nodes_out", "count", t.irNodes / n);
  add("analysis.verify_ms", "ms", t.verifyMs / n);
  add("analysis.verify_stmts", "count", t.verifyStmts / n);
  add("analysis.verify_stmts_per_ms", "1/ms",
      t.verifyMs > 0 ? t.verifyStmts / t.verifyMs : 0.0);
  add("interp.flatten_ms", "ms", t.flattenMs / n);
  add("interp.compile_ms", "ms", t.compileMs / n);
  add("interp.hot_stmts", "count", t.hotStmts / n);
  add("interp.cold_stmts", "count", t.coldStmts / n);
  add("interp.run_ms", "ms", t.runMs / n);
  add("interp.logical_ops", "count", t.logicalOps / n);
  add("interp.logical_ops_per_s", "1/s",
      t.runMs > 0 ? t.logicalOps / (t.runMs / 1000.0) : 0.0);
  add("rt.setup_ms", "ms", t.setupMs / n);
  add("rt.guard_cache_hits", "count", t.guardHits / n);
  add("rt.range_splits", "count", t.rangeSplits / n);
  add("rt.resident_kb", "KiB", t.residentKb / n);

  // Net probes at this workload's processor counts and traffic shape.
  double spawn = 0.0;
  for (const auto& [procs, sessions] : t.sessionsByProcs)
    spawn += spawnUs(procs) * static_cast<double>(sessions);
  add("net.spmd_spawn_us", "us", spawn / n);
  add("net.msgs", "count", t.msgs / n);
  add("net.bytes", "B", t.bytes / n);
  add("net.rendezvous_share", "share",
      t.msgs > 0 ? t.rendezvous / t.msgs : 0.0);
  add("net.unexpected_share", "share",
      t.received > 0 ? t.unexpected / t.received : 0.0);
  add("net.ownership_transfers", "count", t.ownershipTransfers / n);
  double weightedProcs = 0.0;
  for (const auto& [procs, m] : t.msgsByProcs) weightedProcs += procs * m;
  const int shapeProcs =
      t.msgs > 0 ? static_cast<int>(std::lround(weightedProcs / t.msgs)) : 0;
  add("net.replay_msgs_per_s", "1/s",
      replayMsgsPerS(
          shapeProcs, std::max<long>(8192, std::lround(t.msgs / n)),
          t.msgs > 0 ? t.rendezvous / t.msgs : 0.0,
          t.msgs > 0 ? static_cast<std::size_t>(t.bytes / t.msgs) : 0,
          seed));

  const double enc = static_cast<double>(std::max<long>(1, t.encodes));
  add("ckpt.snapshots_per_session", "count", t.snapshots / n);
  add("ckpt.snapshot_kb", "KiB", t.encodes ? t.snapshotKb / enc : 0.0);
  add("ckpt.encode_ms", "ms", t.encodes ? t.encodeMs / enc : 0.0);
  add("ckpt.decode_ms", "ms", t.encodes ? t.decodeMs / enc : 0.0);
  add("ckpt.recoveries", "count", t.recoveries / n);

  double plainMs = 0.0, tracedMs = 0.0, attributedMs = 0.0;
  for (const TracedSample& s : out.samples) {
    plainMs += s.runSessionMs;
    tracedMs += s.tracedMs;
    attributedMs += s.attributedMs;
  }
  add("trace.attributed_share", "share",
      plainMs > 0 ? attributedMs / plainMs : 0.0);
  add("trace.overhead_share", "share",
      plainMs > 0 ? (tracedMs - plainMs) / plainMs : 0.0);
  return out;
}

}  // namespace perfbench
