// Fabric lock contention under real multi-threaded traffic.
//
// The pre-shard fabric serialized every operation — sends, receives,
// clock ticks, stats — on one mutex, so P threads measured lock handoff
// latency, not the XDP cost model. With per-endpoint mailbox locks plus a
// separate rendezvous-matcher lock, disjoint direct traffic should scale
// with the thread count; the Mixed variant prices the one shared matcher
// critical section against that baseline.
//
// Each benchmark runs P OS threads (Arg: P = 4/16/64/256). Every thread
// posts a receive for its own name and sends to its partner's (pid ^ 1),
// so traffic is balanced per endpoint and everything drains inside the
// iteration — msgs_per_sec means completed deliveries. The `delivered`
// counter is the deterministic per-iteration completion count that
// PERF_TRAJECTORY.json tracks; never gate on the wall-clock rate.
#include <benchmark/benchmark.h>

#include <optional>
#include <vector>

#include "xdp/net/fabric.hpp"
#include "xdp/net/spmd.hpp"

using namespace xdp;
using net::Fabric;
using net::Message;
using net::Name;
using net::TransferKind;
using sec::Section;
using sec::Triplet;

namespace {

constexpr int kMsgsPerThread = 2000;

Name threadName(int pid) { return Name{pid, Section{Triplet(0, 7)}, {}}; }

// rendezvousEvery = 0 disables rendezvous; N routes every Nth send through
// the matchmaker instead of directly to the partner.
void runTrafficLoop(benchmark::State& state, int rendezvousEvery) {
  const int nprocs = static_cast<int>(state.range(0));
  Fabric f(nprocs);
  const std::vector<std::byte> payload(64);
  for (auto _ : state) {
    net::runSpmd(nprocs, [&](int pid) {
      const int partner = nprocs > 1 ? (pid ^ 1) : 0;
      const Name mine = threadName(pid);
      const Name theirs = threadName(partner);
      for (int i = 0; i < kMsgsPerThread; ++i) {
        f.postReceive(pid, mine, TransferKind::Data, [](const Message&) {});
        const bool rendezvous =
            rendezvousEvery > 0 && i % rendezvousEvery == rendezvousEvery - 1;
        f.send(pid, theirs, TransferKind::Data, payload,
               rendezvous ? std::nullopt : std::optional<int>(partner));
      }
    });
    f.clearMatchState();  // hygiene between iterations; queues are empty
    f.resetClocks();
  }
  const double msgs = static_cast<double>(state.iterations()) *
                      static_cast<double>(nprocs) * kMsgsPerThread;
  state.SetItemsProcessed(static_cast<std::int64_t>(msgs));
  state.counters["msgs_per_sec"] =
      benchmark::Counter(msgs, benchmark::Counter::kIsRate);
  // Deterministic completions per iteration: every send must have been
  // delivered. Gated by PERF_TRAJECTORY.json.
  state.counters["delivered"] = benchmark::Counter(
      static_cast<double>(f.totalStats().messagesReceived) /
      static_cast<double>(state.iterations()));
}

// Disjoint pairwise direct traffic: touches only the two endpoint locks
// involved, so throughput should rise with P
// until cores run out.
void BM_FabricContention_Direct(benchmark::State& state) {
  runTrafficLoop(state, 0);
}

// Mixed 3:1 direct:rendezvous — every fourth send goes through the
// matchmaker, putting the shared matcher critical section on the hot path.
void BM_FabricContention_Mixed(benchmark::State& state) {
  runTrafficLoop(state, 4);
}

}  // namespace

BENCHMARK(BM_FabricContention_Direct)
    ->RangeMultiplier(4)
    ->Range(4, 256)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_FabricContention_Mixed)
    ->RangeMultiplier(4)
    ->Range(4, 256)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
