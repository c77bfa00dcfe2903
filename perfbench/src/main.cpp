// xdp_perfbench: the end-to-end session benchmark (see ../README.md).
//
//   xdp_perfbench --workload serve_mix|stencil_long|comm_heavy --seed N
//                 --seconds S --trace 0|1 [--record FILE]
//                 [--commit ID] [--source-id ID] [--repo-build-type T]
//
// --trace 0: set up a serve::Server (median of several set-ups), run the
// workload's sessions through it in closed loops, alternating slices with
// the workload's clients (throughput) and with one client (latency), and
// report the end-to-end metrics. --trace 1: the same
// throughput loop (for the serve.* layer metrics), then sessions replayed
// as timed calls into each layer (trace.hpp); reports the per-layer
// metrics.
// Every session is checked against its reference model. The last stdout
// line is one JSON object: {"correct","attempted","failed","metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"
#include "xdp/serve/server.hpp"

using namespace perfbench;
using Clock = std::chrono::steady_clock;

namespace {

/// Set-ups per run; set-up time is their median.
constexpr int kSetups = 9;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string record;
  std::string commit = "unknown";
  std::string sourceId = "unknown";
  std::string repoBuildType = "unknown";
};

[[noreturn]] void usage(const std::string& msg) {
  std::cerr << "xdp_perfbench: " << msg
            << "\nusage: xdp_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--record FILE]\n";
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v);
      else if (k == "--record") a.record = v;
      else if (k == "--commit") a.commit = v;
      else if (k == "--source-id") a.sourceId = v;
      else if (k == "--repo-build-type") a.repoBuildType = v;
      else usage("unknown option " + k);
    } catch (const std::logic_error&) {
      usage("bad value '" + v + "' for " + k);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

/// Share of all CPU time the host gave to other guests (the "steal"
/// column of /proc/stat) since `since`, which holds the column values
/// from an earlier call; -1 where /proc/stat is unreadable.
double stealShare(std::vector<double>& since) {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::vector<double> now;
  double v = 0;
  if (in >> cpu)
    while (now.size() < 8 && in >> v) now.push_back(v);
  if (cpu != "cpu" || now.size() < 8) return -1.0;
  double total = 0, steal = now[7] - (since.empty() ? 0 : since[7]);
  for (std::size_t i = 0; i < now.size(); ++i)
    total += now[i] - (since.empty() ? 0 : since[i]);
  since = now;
  return total > 0 ? steal / total : -1.0;
}

/// High-water mark of this process's resident memory (VmHWM), in MiB.
/// Not ru_maxrss: Linux carries that across exec, so under run.py it
/// would report the Python parent's footprint whenever that is larger.
double peakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Linear-interpolated percentile (numpy's default) of unsorted samples.
double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = pct / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string jsonEscape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// One completed session of the closed loop.
struct Sample {
  std::size_t index = 0;     ///< position in the cycled session list
  double doneMs = 0.0;       ///< completion time since the slice started
  double latencyMs = 0.0;    ///< submit to report
  double wallMs = 0.0;       ///< SessionReport::wallMs
  int attempts = 0;
  double modeledMs = 0.0;
  double msgs = 0.0;
  double bytes = 0.0;
  bool ok = false;
};

/// A uniform sample of at most `capacity` values from a stream (reservoir
/// sampling); exact while fewer values have arrived. Its storage is
/// allocated and written when it is made, so it does not grow while the
/// sessions run.
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed)
      : v_(capacity, 0.0), rng_(seed) {}
  void add(double x) {
    if (v_.empty()) return;
    const std::uint64_t k = seen_++;
    const std::uint64_t j = k < v_.size() ? k : rng_.next() % seen_;
    if (j < v_.size()) v_[j] = x;
  }
  void appendTo(std::vector<double>& out) const {
    const std::size_t n = std::min<std::uint64_t>(seen_, v_.size());
    out.insert(out.end(), v_.begin(), v_.begin() + static_cast<long>(n));
  }

 private:
  std::vector<double> v_;
  Rng rng_;
  std::uint64_t seen_ = 0;
};

/// Values kept per timed slice for the latency percentiles and the queue
/// wait; at ~0.5 ms per session a 2.5 s one-client slice holds ~5000.
constexpr std::size_t kReservoir = std::size_t{1} << 15;

/// The run record (README.md, "Run record"). Sessions are written as they
/// complete, so the harness holds no per-session state and peak_rss_mb
/// does not grow with the number of sessions a run completes.
class Record {
 public:
  explicit Record(const std::string& path) {
    if (path.empty()) return;
    os_.open(path);
    if (!os_) std::cerr << "xdp_perfbench: cannot write record " << path << "\n";
    else os_ << "{\n  \"sessions\": [";
  }
  bool on() const { return os_.is_open(); }
  void session(int slice, const std::string& family, const Sample& s) {
    if (!on()) return;
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "{\"slice\": %d, \"index\": %zu, \"family\": \"%s\", "
                  "\"latency_ms\": %.17g, \"wall_ms\": %.17g, "
                  "\"done_ms\": %.17g, \"attempts\": %d, \"ok\": %s}",
                  slice, s.index, family.c_str(), s.latencyMs, s.wallMs,
                  s.doneMs, s.attempts, s.ok ? "true" : "false");
    std::lock_guard lk(mu_);
    os_ << (first_ ? "\n    " : ",\n    ") << buf;
    first_ = false;
  }
  /// The stream after the session list, for the rest of the record.
  std::ostream& rest() {
    os_ << "],\n";
    return os_;
  }

 private:
  std::ofstream os_;
  std::mutex mu_;
  bool first_ = true;
};

/// Tallies of one timed slice of the closed loop.
struct Slice {
  Slice(int id, int clients, bool keepLatency, bool keepWait,
        std::uint64_t seed)
      : id(id),
        clients(clients),
        latency(keepLatency ? kReservoir : 0, seed),
        wait(keepWait ? kReservoir : 0, ~seed) {}

  void add(const Sample& s) {
    std::lock_guard lk(mu);
    ++sessions;
    ok += s.ok ? 1 : 0;
    attempts += s.attempts;
    modeledMs += s.modeledMs;
    msgs += s.msgs;
    bytes += s.bytes;
    latency.add(s.latencyMs);
    wait.add(s.latencyMs - s.wallMs);
  }

  const int id;
  const int clients;
  std::mutex mu;
  std::size_t sessions = 0;
  double ok = 0, attempts = 0, modeledMs = 0, msgs = 0, bytes = 0;
  Reservoir latency;  ///< submit to report
  Reservoir wait;     ///< latency minus SessionReport::wallMs
  double elapsedS = 0.0;
  double cpuS = 0.0;
  double steal = -1.0;  ///< host steal share during the slice
  std::vector<std::string> errors;
};

/// Run one session through the server and check it.
Sample runOne(xdp::serve::Server& server, const Session& s, std::size_t index,
              std::vector<std::string>& errors, std::mutex& mu) {
  Sample out;
  out.index = index;
  xdp::serve::SessionRequest req = s.req;
  const auto t0 = Clock::now();
  xdp::serve::SessionReport rep;
  std::string why;
  try {
    rep = server.submit(std::move(req)).get();
    out.ok = matchesExpectation(s, rep, &why);
  } catch (const std::exception& e) {
    why = s.family + ": submit failed: " + e.what();
  }
  out.latencyMs = msBetween(t0, Clock::now());
  out.wallMs = rep.wallMs;
  out.attempts = rep.attempts;
  out.modeledMs = 1000.0 * rep.makespan;
  out.msgs = static_cast<double>(rep.net.messagesSent);
  out.bytes = static_cast<double>(rep.net.bytesSent);
  if (!out.ok) {
    std::lock_guard lk(mu);
    errors.push_back(why);
  }
  return out;
}

/// Closed loop: the slice's clients each submit their next session only
/// after the previous one completed, until `seconds` have passed. The
/// sessions taken are `w.sessions` cycled from position `first` on.
void closedLoop(xdp::serve::Server& server, const Workload& w, Slice& r,
                double seconds, std::size_t first, Record& rec) {
  std::atomic<std::size_t> next{first};
  std::vector<double> procStat;
  stealShare(procStat);
  const double cpu0 = cpuSeconds();
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(seconds);
  std::vector<std::thread> threads;
  for (int c = 0; c < r.clients; ++c) {
    threads.emplace_back([&] {
      while (Clock::now() < deadline) {
        const std::size_t i = next.fetch_add(1);
        const Session& s = w.sessions[i % w.sessions.size()];
        Sample x = runOne(server, s, i, r.errors, r.mu);
        x.doneMs = msBetween(start, Clock::now());
        r.add(x);
        rec.session(r.id, s.family, x);
      }
    });
  }
  for (auto& t : threads) t.join();
  r.elapsedS = msBetween(start, Clock::now()) / 1000.0;
  r.cpuS = cpuSeconds() - cpu0;
  r.steal = stealShare(procStat);
}

/// The half of `slices` (rounded up) during which the host stole the least
/// CPU time. Outside load comes in spells; the slices it hit are set aside
/// for every metric but the CPU cost and the correctness counts.
std::vector<const Slice*> quietHalf(const std::vector<const Slice*>& slices) {
  std::vector<const Slice*> out = slices;
  std::stable_sort(out.begin(), out.end(), [](const Slice* a, const Slice* b) {
    return a->steal < b->steal;
  });
  out.resize((out.size() + 1) / 2);
  return out;
}

struct Metric {
  std::string name, unit;
  double value;
};

/// What each per-layer metric should move, and where (README.md).
std::string movesWhat(const std::string& name) {
  struct Row {
    const char* prefix;
    const char* moves;
  };
  static const Row rows[] = {
      {"il.", "latency_p50_ms on serve_mix"},
      {"opt.ir_nodes_out", "msgs_per_session, modeled_ms_per_session on serve_mix"},
      {"opt.", "latency_p50_ms on serve_mix"},
      {"analysis.", "sessions_per_s on stencil_long, serve_mix"},
      {"interp.run_ms", "sessions_per_s, cpu_ms_per_session on stencil_long"},
      {"interp.logical_ops", "sessions_per_s, cpu_ms_per_session on stencil_long"},
      {"interp.", "latency_p50_ms on serve_mix"},
      {"rt.", "latency_p50_ms on serve_mix, sessions_per_s on stencil_long"},
      {"net.spmd_spawn_us", "latency_p50_ms on serve_mix"},
      {"net.", "sessions_per_s on serve_mix (and comm_heavy, not gated)"},
      {"ckpt.", "latency_p50_ms on stencil_long"},
      {"serve.", "latency_tail_ms on serve_mix"},
      {"trace.", "(checks the trace itself)"},
  };
  for (const Row& r : rows)
    if (name.rfind(r.prefix, 0) == 0) return r.moves;
  return "";
}

void writeRecord(Record& rec, const Args& a, const Workload& w, double steal,
                 const std::vector<double>& setups,
                 const std::deque<Slice>& slices, const TraceResult* traced,
                 const std::vector<Metric>& metrics,
                 const std::vector<std::string>& errors) {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::ostream& os = rec.rest();
  os << "  \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": \"" << jsonEscape(__VERSION__)
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"optimized\": " << (optimized ? "true" : "false")
     << ", \"commit\": \"" << jsonEscape(a.commit) << "\", \"source_id\": \""
     << jsonEscape(a.sourceId) << "\", \"repo_build_dir_build_type\": \""
     << jsonEscape(a.repoBuildType)
     << "\", \"steal_share\": " << num(steal) << "},\n"
     << "  \"workload\": \"" << w.name << "\", \"seed\": " << a.seed
     << ", \"seconds\": " << num(a.seconds) << ", \"trace\": " << a.trace
     << ", \"clients\": " << w.clients
     << ", \"tail_percent\": " << w.tailPercent << ",\n";
  os << "  \"setup_s\": [";
  for (std::size_t i = 0; i < setups.size(); ++i)
    os << (i ? ", " : "") << num(setups[i]);
  os << "],\n  \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": "
       << num(metrics[i].value);
  os << "},\n  \"slices\": [";
  for (const Slice& s : slices)
    os << (s.id ? "," : "") << "\n    {\"slice\": " << s.id
       << ", \"clients\": " << s.clients << ", \"steal\": " << num(s.steal)
       << ", \"seconds\": " << num(s.elapsedS) << ", \"cpu_s\": " << num(s.cpuS)
       << ", \"sessions\": " << s.sessions << "}";
  os << "],\n  \"traced_sessions\": [";
  if (traced) {
    for (std::size_t i = 0; i < traced->samples.size(); ++i) {
      const TracedSample& s = traced->samples[i];
      os << (i ? ",\n    " : "\n    ") << "{\"family\": \"" << s.family
         << "\", \"run_session_ms\": " << num(s.runSessionMs)
         << ", \"traced_ms\": " << num(s.tracedMs)
         << ", \"attributed_ms\": " << num(s.attributedMs)
         << ", \"ok\": " << (s.ok ? "true" : "false") << "}";
    }
  }
  os << "],\n  \"errors\": [";
  for (std::size_t i = 0; i < errors.size() && i < 50; ++i)
    os << (i ? ", " : "") << "\"" << jsonEscape(errors[i]) << "\"";
  os << "]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  Workload w;
  try {
    w = makeWorkload(args.workload, args.seed, PERFBENCH_PROGRAMS_DIR);
  } catch (const std::exception& e) {
    usage(e.what());
  }
  std::vector<std::string> errors;
  std::mutex mu;
  std::vector<double> procStat;
  stealShare(procStat);
  Record rec(args.record);

  // Throughput is measured with the workload's clients keeping every core
  // busy; latency with one client, so it is the sessions' own latency and
  // not time spent queueing for a core (on a shared host that queueing
  // multiplies every outside disturbance). The two alternate in slices,
  // so both sample the same spells of outside load; throughput is the
  // median of the quieter half of its slices, latency is taken over the
  // quieter half of its. --trace 1 runs one throughput loop and then the
  // traced replay. The slices are made before set-up, so their storage
  // is in every figure of peak_rss_mb alike.
  std::deque<Slice> slices;
  std::vector<const Slice*> tputSlices, latSlices;
  if (args.trace) {
    tputSlices.push_back(&slices.emplace_back(0, w.clients, false, true, args.seed));
  } else {
    for (int k = 0; k < w.slices; ++k) {
      tputSlices.push_back(
          &slices.emplace_back(2 * k, w.clients, false, false, args.seed + 2 * k));
      latSlices.push_back(
          &slices.emplace_back(2 * k + 1, 1, true, false, args.seed + 2 * k + 1));
    }
  }

  // --- set-up: server up and the warm-up sessions run ------------------
  xdp::serve::ServerConfig cfg;
  cfg.workers = w.clients;
  std::unique_ptr<xdp::serve::Server> server;
  std::vector<double> setups;
  for (int r = 0; r < kSetups; ++r) {
    server.reset();
    const auto t0 = Clock::now();
    server = std::make_unique<xdp::serve::Server>(cfg);
    for (std::size_t i = 0; i < w.warmup.size(); ++i)
      runOne(*server, w.warmup[i], i, errors, mu);
    setups.push_back(msBetween(t0, Clock::now()) / 1000.0);
  }

  // --- timed closed loops ---------------------------------------------
  const double sliceS = args.trace ? args.seconds / 4
                                   : args.seconds / static_cast<double>(slices.size());
  std::size_t done = 0;
  for (Slice& s : slices) {
    closedLoop(*server, w, s, sliceS, done, rec);
    done += s.sessions;
  }
  // Read before anything below allocates, so the figure is the sessions'.
  const double peakRss = peakRssMb();
  server.reset();

  std::vector<double> rates, lat, wait;
  for (const Slice* s : quietHalf(tputSlices))
    rates.push_back(static_cast<double>(s->sessions) / s->elapsedS);
  for (const Slice* s : quietHalf(latSlices)) s->latency.appendTo(lat);
  double cpuS = 0, attempts = 0, modeled = 0, msgs = 0, bytes = 0, ok = 0;
  for (const Slice& s : slices) {
    s.wait.appendTo(wait);
    cpuS += s.cpuS;
    attempts += s.attempts;
    modeled += s.modeledMs;
    msgs += s.msgs;
    bytes += s.bytes;
    ok += s.ok;
    errors.insert(errors.end(), s.errors.begin(), s.errors.end());
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, done));
  std::vector<Metric> e2e = {
      {"setup_s", "s", percentile(setups, 50)},
      {"sessions_per_s", "1/s", percentile(rates, 50)},
      {"latency_p50_ms", "ms", percentile(lat, 50)},
      {"latency_tail_ms", "ms", percentile(lat, w.tailPercent)},
      {"cpu_ms_per_session", "ms", 1000.0 * cpuS / n},
      {"correct_share", "share", ok / n},
      {"peak_rss_mb", "MiB", peakRss},
      {"modeled_ms_per_session", "ms", modeled / n},
      {"msgs_per_session", "count", msgs / n},
      {"bytes_per_session", "B", bytes / n},
  };
  long attempted = static_cast<long>(done);
  long failed = attempted - static_cast<long>(ok);

  std::vector<Metric> layer;
  TraceResult traced;
  if (args.trace) {
    layer.push_back({"serve.queue_wait_ms", "ms", percentile(wait, 50)});
    layer.push_back({"serve.attempts_per_session", "count", attempts / n});
    traced = runTraced(w, args.seconds * 3 / 4, args.seed);
    for (const LayerMetric& m : traced.metrics)
      layer.push_back({m.name, m.unit, m.value});
    errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
    for (const TracedSample& s : traced.samples) {
      ++attempted;
      if (!s.ok) ++failed;
    }
  }

  // --- report ----------------------------------------------------------
  // Time the host ran other guests on our vCPUs: the run's interference.
  const double steal = stealShare(procStat);
  std::cout << "workload " << w.name << "  seed " << args.seed << "  clients "
            << w.clients << "  sessions " << done
            << "  tail p" << w.tailPercent << "  error_rate "
            << num(static_cast<double>(failed) /
                   static_cast<double>(std::max(1L, attempted)))
            << "  host_steal " << num(steal) << "\n";
  for (const Metric& m : e2e)
    std::printf("  %-34s %14.6g %-6s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  for (const Metric& m : layer)
    std::printf("  %-34s %14.6g %-6s moves %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), movesWhat(m.name).c_str());
  for (std::size_t i = 0; i < errors.size() && i < 10; ++i)
    std::cout << "  mismatch: " << errors[i] << "\n";

  const std::vector<Metric>& reported = args.trace ? layer : e2e;
  if (rec.on()) {
    std::vector<Metric> metrics = e2e;
    metrics.insert(metrics.end(), layer.begin(), layer.end());
    writeRecord(rec, args, w, steal, setups, slices,
                args.trace ? &traced : nullptr, metrics, errors);
  }
  std::ostringstream js;
  js << "{\"correct\": " << (errors.empty() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i)
    js << (i ? ", " : "") << "\"" << reported[i].name << "\": {\"value\": "
       << num(reported[i].value) << ", \"unit\": \"" << reported[i].unit
       << "\"}";
  js << "}}";
  std::cout << js.str() << std::endl;
  return 0;
}
