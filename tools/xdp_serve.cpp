// xdp_serve — the multi-tenant serving driver.
//
// Admits .xdp programs as sessions onto a shared server (bounded worker
// pool + endpoint arena), optionally injecting per-session faults and
// enforcing per-session quotas, and prints one report line per session
// plus a server summary. The point of the demo: whatever a session does
// — crash, deadlock, blow a quota — the server finishes every other
// session and exits cleanly.
//
//   xdp_serve prog.xdp                                # one session
//   xdp_serve a.xdp b.xdp --sessions 32 --workers 8   # round-robin mix
//   xdp_serve prog.xdp --drop 0.05 --retries 3        # lossy + retry
//   xdp_serve prog.xdp --max-steps 10000              # step quota
//   xdp_serve prog.xdp --spill-dir d --preempt-steps 50   # preempt+spill
//   xdp_serve --spill-dir d                           # resume the spills
//
// With --spill-dir the server re-admits any *.xdpspill files found there
// at startup (sessions preempted by an earlier, possibly killed, server)
// before running the FILE arguments — so FILE... may be empty when the
// directory has spills to resume.
//
// Exit codes: 0 = server ran every admitted session to a report,
// 1 = a session report was lost (server bug), 2 = usage error.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "xdp/serve/server.hpp"
#include "xdp/support/cli.hpp"

namespace {

using namespace xdp;

constexpr int kIntMax = std::numeric_limits<int>::max();

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s FILE... [options]\n"
               "  --sessions N       total sessions (files round-robin; "
               "default: one per file)\n"
               "  --workers N        worker threads (default 4)\n"
               "  --max-pending N    admission bound (default 64)\n"
               "  --pipeline         standard optimization pipeline\n"
               "  --no-analyze       skip the static --analyze gate\n"
               "  --seed N           fill-kernel seed (default 42)\n"
               "  --retries N        max attempts per session (default 3)\n"
               "  --watchdog-ms N    per-session watchdog window\n"
               "  --max-steps N      per-session logical step quota\n"
               "  --max-bytes N      per-processor resident-byte quota\n"
               "  --max-msgs N       per-session message quota\n"
               "  --wall-ms N        per-session wall-clock budget\n"
               "  --drop P           per-session fault: drop probability\n"
               "  --delay P          per-session fault: delay probability\n"
               "  --crash PID        per-session fault: crash endpoint PID\n"
               "  --crash-recover    crashed endpoints restore from their\n"
               "                     last snapshot instead of dying\n"
               "                     (fail-recover; implies --checkpoint-"
               "steps 64\n"
               "                     unless given)\n"
               "  --checkpoint-steps N\n"
               "                     per-session auto-checkpoint interval\n"
               "  --preempt-steps N  checkpoint + spill each session after\n"
               "                     N statements (needs --spill-dir)\n"
               "  --spill-dir DIR    spill preempted sessions to DIR and\n"
               "                     re-admit DIR's spills at startup\n"
               "  --fault-seed N     fault decision-stream seed (default 1)\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  int sessions = 0;
  serve::ServerConfig cfg;
  serve::SessionRequest proto;
  net::FaultPlan plan;
  bool anyFault = false;

  auto nextArg = [&](int& i) -> const char* {
    if (++i >= argc) {
      usage(argv[0]);
      std::exit(2);
    }
    return argv[i];
  };
  // Parse the value after flag argv[i] into `out`, within [lo, hi] when
  // given; anything else is a usage error.
  auto numArg = [&](int& i, auto& out, auto... bounds) {
    const char* flag = argv[i];
    if (!cli::parseFlagValue(flag, nextArg(i), out, bounds...)) {
      usage(argv[0]);
      std::exit(2);
    }
  };

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--sessions") numArg(i, sessions, 0, kIntMax);
    else if (arg == "--workers") numArg(i, cfg.workers, 1, kIntMax);
    else if (arg == "--max-pending") numArg(i, cfg.maxPending, 1, kIntMax);
    else if (arg == "--pipeline") proto.usePipeline = true;
    else if (arg == "--no-analyze") proto.analyze = false;
    else if (arg == "--seed") numArg(i, proto.fillSeed);
    else if (arg == "--retries") numArg(i, cfg.session.retry.maxAttempts);
    else if (arg == "--watchdog-ms") numArg(i, cfg.session.watchdogMs);
    else if (arg == "--max-steps") numArg(i, proto.quotas.maxSteps);
    else if (arg == "--max-bytes") numArg(i, proto.quotas.maxResidentBytes);
    else if (arg == "--max-msgs") numArg(i, proto.quotas.maxMessages);
    else if (arg == "--wall-ms") numArg(i, proto.quotas.wallBudgetMs);
    else if (arg == "--drop") {
      numArg(i, plan.dropProb, 0.0, 1.0);
      anyFault = true;
    } else if (arg == "--delay") {
      numArg(i, plan.delayProb, 0.0, 1.0);
      plan.maxDelay = 1e-4;
      anyFault = true;
    } else if (arg == "--crash") {
      int pid = 0;
      numArg(i, pid, 0, kIntMax);
      plan.crashPids.push_back(pid);
      anyFault = true;
    } else if (arg == "--crash-recover") {
      plan.crashFate = net::CrashFate::Recover;
      anyFault = true;
    } else if (arg == "--checkpoint-steps")
      numArg(i, proto.checkpointIntervalSteps);
    else if (arg == "--preempt-steps") numArg(i, proto.preemptAfterSteps);
    else if (arg == "--spill-dir") cfg.session.spillDir = nextArg(i);
    else if (arg == "--fault-seed") numArg(i, plan.seed);
    else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return usage(argv[0]);
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty() && cfg.session.spillDir.empty()) return usage(argv[0]);
  if (sessions <= 0) sessions = static_cast<int>(files.size());
  if (anyFault) proto.faultPlan = plan;
  // Fail-recover needs snapshots to roll back to.
  if (plan.crashFate == net::CrashFate::Recover &&
      proto.checkpointIntervalSteps == 0)
    proto.checkpointIntervalSteps = 64;
  if (!cfg.session.spillDir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(cfg.session.spillDir, ec);
    if (ec) {
      std::fprintf(stderr, "xdp_serve: cannot create spill dir %s: %s\n",
                   cfg.session.spillDir.c_str(), ec.message().c_str());
      return 2;
    }
  }

  std::vector<std::string> sources;
  for (const auto& f : files) {
    std::ifstream in(f);
    if (!in) {
      std::fprintf(stderr, "xdp_serve: cannot open %s\n", f.c_str());
      return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    sources.push_back(buf.str());
  }

  serve::Server server(cfg);
  if (!cfg.session.spillDir.empty()) {
    int n = server.readmitSpilled(cfg.session.spillDir);
    if (n > 0)
      std::printf("xdp_serve: re-admitted %d spilled session%s from %s\n",
                  n, n == 1 ? "" : "s", cfg.session.spillDir.c_str());
  }
  std::vector<std::future<serve::SessionReport>> futs;
  for (int s = 0; s < sessions; ++s) {
    serve::SessionRequest req = proto;
    const std::size_t fi = static_cast<std::size_t>(s) % files.size();
    req.name = files[fi] + "#" + std::to_string(s);
    req.source = sources[fi];
    try {
      futs.push_back(server.submit(std::move(req)));
    } catch (const serve::AdmissionRejected& e) {
      std::printf("session %-28s SHED      %s\n",
                  (files[fi] + "#" + std::to_string(s)).c_str(), e.what());
    }
  }

  int lost = 0;
  serve::ServerStats drained{};
  for (auto& fut : futs) {
    serve::SessionReport r;
    try {
      r = fut.get();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "xdp_serve: lost a session report: %s\n",
                   e.what());
      ++lost;
      continue;
    }
    std::string tail;
    if (!r.quotaResource.empty()) tail += " quota=" + r.quotaResource;
    if (r.recovery.recoveries > 0)
      tail += " recoveries=" + std::to_string(r.recovery.recoveries);
    if (r.recovery.captureFailures > 0)
      tail += " capture-failures=" + std::to_string(r.recovery.captureFailures);
    if (r.recovery.resumed) tail += " resumed";
    if (!r.recovery.spillPath.empty())
      tail += " spill=" + r.recovery.spillPath;
    if (!r.hygieneClean) tail += " HYGIENE-LEAK";
    if (r.outcome != serve::SessionOutcome::Completed && !r.error.empty()) {
      std::string first = r.error.substr(0, r.error.find('\n'));
      if (first.size() > 120) first = first.substr(0, 117) + "...";
      tail += " error: " + first;
    }
    std::printf(
        "session %-28s %-10s attempts=%d procs=%d msgs=%llu digest=%016llx%s\n",
        r.name.c_str(), serve::outcomeName(r.outcome), r.attempts, r.nprocs,
        static_cast<unsigned long long>(r.net.messagesSent),
        static_cast<unsigned long long>(r.resultDigest), tail.c_str());
  }
  server.shutdown();
  drained = server.stats();
  std::printf(
      "xdp_serve: %llu admitted (%llu re-admitted), %llu completed, "
      "%llu failed, %llu shed, %llu retries; arena in use at exit: %d\n",
      static_cast<unsigned long long>(drained.admitted),
      static_cast<unsigned long long>(drained.readmitted),
      static_cast<unsigned long long>(drained.completed),
      static_cast<unsigned long long>(drained.failed),
      static_cast<unsigned long long>(drained.rejected),
      static_cast<unsigned long long>(drained.retries),
      server.endpointsInUse());
  return lost == 0 ? 0 : 1;
}
