// Stress suite for the fabric's single lock: many real threads hammering
// the direct, rendezvous, snapshot, stats and fault paths at once. Meant
// to run under -DXDP_SANITIZE=thread (ctest -L sanitize); the assertions
// check conservation (every send completes exactly one receive), and TSan
// checks the locking.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "xdp/net/fabric.hpp"
#include "xdp/net/spmd.hpp"

namespace xdp::net {
namespace {

using sec::Index;
using sec::Section;
using sec::Triplet;

Name name(int sym, Index i) { return Name{sym, Section{Triplet(i, i)}, {}}; }

std::vector<std::byte> payload(int v) {
  return {static_cast<std::byte>(v & 0xff),
          static_cast<std::byte>((v >> 8) & 0xff)};
}

// Disjoint pairs (2k, 2k+1) exchange direct messages concurrently; each
// pair's traffic must be invisible to every other pair.
TEST(FabricConcurrency, ConcurrentDirectPairs) {
  constexpr int kProcs = 8;
  constexpr int kMsgs = 500;
  Fabric f(kProcs);
  std::atomic<int> received{0};
  runSpmd(kProcs, [&](int pid) {
    const int partner = pid ^ 1;
    for (int i = 0; i < kMsgs; ++i) {
      if (pid % 2 == 0) {
        f.send(pid, name(pid, i), TransferKind::Data, payload(i), partner);
      } else {
        f.postReceive(pid, name(partner, i), TransferKind::Data,
                      [&](const Message&) {
                        received.fetch_add(1, std::memory_order_relaxed);
                      });
      }
    }
  });
  EXPECT_EQ(received.load(), (kProcs / 2) * kMsgs);
  EXPECT_EQ(f.undeliveredCount(), 0u);
  EXPECT_EQ(f.pendingReceiveCount(), 0u);
  NetStats t = f.totalStats();
  EXPECT_EQ(t.messagesSent, t.messagesReceived);
  EXPECT_EQ(t.directSends, static_cast<std::uint64_t>((kProcs / 2) * kMsgs));
}

// All senders publish to ONE name, all receivers post interest for it:
// maximum pressure on the rendezvous matcher's FCFS pairing.
// Conservation must hold exactly.
TEST(FabricConcurrency, RendezvousManyToManySameName) {
  constexpr int kProcs = 8;
  constexpr int kMsgs = 300;
  Fabric f(kProcs);
  std::atomic<int> received{0};
  runSpmd(kProcs, [&](int pid) {
    for (int i = 0; i < kMsgs; ++i) {
      if (pid % 2 == 0) {
        f.send(pid, name(7, 0), TransferKind::Data, payload(i), std::nullopt);
      } else {
        f.postReceive(pid, name(7, 0), TransferKind::Data,
                      [&](const Message&) {
                        received.fetch_add(1, std::memory_order_relaxed);
                      });
      }
    }
  });
  EXPECT_EQ(received.load(), (kProcs / 2) * kMsgs);
  EXPECT_EQ(f.undeliveredCount(), 0u);
  EXPECT_EQ(f.pendingReceiveCount(), 0u);
}

// Mixed traffic: every thread's receives use its own pid as the name, and
// its partner sends to that name both directly and through the matcher —
// so direct completions continuously race the receive's registered
// rendezvous interest (retired in O(1) on direct completion), while
// traffic stays balanced per endpoint and must drain completely.
TEST(FabricConcurrency, DirectAndRendezvousRaceOnOneName) {
  constexpr int kProcs = 6;
  constexpr int kRounds = 200;
  Fabric f(kProcs);
  std::atomic<int> received{0};
  runSpmd(kProcs, [&](int pid) {
    const int partner = pid ^ 1;
    for (int i = 0; i < kRounds; ++i) {
      // Two receives on my name, then one direct + one rendezvous send to
      // the partner's name: each endpoint's in/out totals match.
      for (int r = 0; r < 2; ++r)
        f.postReceive(pid, name(pid, 0), TransferKind::Data,
                      [&](const Message&) {
                        received.fetch_add(1, std::memory_order_relaxed);
                      });
      f.send(pid, name(partner, 0), TransferKind::Data, payload(i), partner);
      f.send(pid, name(partner, 0), TransferKind::Data, payload(i),
             std::nullopt);
    }
  });
  EXPECT_EQ(received.load(), kProcs * kRounds * 2);
  EXPECT_EQ(f.undeliveredCount(), 0u);
  EXPECT_EQ(f.pendingReceiveCount(), 0u);
}

// Monitoring thread reads stats/clock/makespan/undeliveredCount while the
// SPMD region is live — the reads must be data-race-free and per-endpoint
// consistent (satellite: NetStats readable mid-run).
TEST(FabricConcurrency, StatsAndClocksReadableMidRun) {
  constexpr int kProcs = 4;
  constexpr int kMsgs = 400;
  Fabric f(kProcs);
  std::atomic<bool> done{false};
  std::atomic<int> received{0};
  std::thread monitor([&] {
    while (!done.load(std::memory_order_acquire)) {
      // Per-endpoint stats() reads are separate critical sections, so
      // cross-endpoint inequalities need an ordered read: sum the
      // receivers (odd pids) BEFORE the senders. Receive counts can only
      // lag their sends, and send counts only grow, so summing in this
      // order keeps received <= sent even mid-run.
      NetStats recv, sent;
      for (int p = 1; p < kProcs; p += 2) recv += f.stats(p);
      for (int p = 0; p < kProcs; p += 2) sent += f.stats(p);
      EXPECT_LE(recv.messagesReceived, sent.messagesSent);
      EXPECT_LE(recv.bytesReceived, sent.bytesSent);
      (void)f.totalStats();
      for (int p = 0; p < kProcs; ++p) EXPECT_GE(f.clock(p), 0.0);
      (void)f.makespan();
      (void)f.undeliveredCount();
      (void)f.pendingReceiveCount();
    }
  });
  runSpmd(kProcs, [&](int pid) {
    const int partner = pid ^ 1;
    for (int i = 0; i < kMsgs; ++i) {
      if (pid % 2 == 0) {
        f.send(pid, name(pid, i), TransferKind::Data, payload(i), partner);
        f.advance(pid, 0.25);
      } else {
        f.postReceive(pid, name(partner, i), TransferKind::Data,
                      [&](const Message&) {
                        received.fetch_add(1, std::memory_order_relaxed);
                      });
      }
    }
  });
  done.store(true, std::memory_order_release);
  monitor.join();
  EXPECT_EQ(received.load(), (kProcs / 2) * kMsgs);
}

// snapshot() reads every endpoint mid-traffic; it must not deadlock
// against senders/receivers and must observe a consistent cut.
TEST(FabricConcurrency, SnapshotDuringTraffic) {
  constexpr int kProcs = 6;
  constexpr int kMsgs = 300;
  Fabric f(kProcs);
  std::atomic<bool> done{false};
  std::atomic<int> received{0};
  std::thread snapper([&] {
    while (!done.load(std::memory_order_acquire)) {
      FabricSnapshot s = f.snapshot();
      for (const auto& r : s.pendingReceives) {
        EXPECT_GE(r.pid, 0);
        EXPECT_LT(r.pid, kProcs);
      }
      for (const auto& m : s.undelivered) {
        EXPECT_GE(m.src, 0);
        EXPECT_LT(m.src, kProcs);
      }
    }
  });
  runSpmd(kProcs, [&](int pid) {
    const int partner = pid ^ 1;
    for (int i = 0; i < kMsgs; ++i) {
      f.postReceive(pid, name(pid, 0), TransferKind::Data,
                    [&](const Message&) {
                      received.fetch_add(1, std::memory_order_relaxed);
                    });
      const bool direct = (i % 2 == 0);
      f.send(pid, name(partner, 0), TransferKind::Data, payload(i),
             direct ? std::optional<int>(partner) : std::nullopt);
    }
  });
  done.store(true, std::memory_order_release);
  snapper.join();
  EXPECT_EQ(received.load(), kProcs * kMsgs);
  EXPECT_EQ(f.undeliveredCount(), 0u);
}

// Every message duplicated (dupProb = 1) under full concurrency: the
// dedup layer must deliver exactly once per original send, and the
// suppressed/purged twins must not leak into any queue.
TEST(FabricConcurrency, ExactlyOnceUnderConcurrentDuplication) {
  constexpr int kProcs = 8;
  constexpr int kMsgs = 200;
  FaultPlan plan;
  plan.seed = 42;
  plan.dupProb = 1.0;
  Fabric f(kProcs);
  f.setFaultPlan(plan);
  std::atomic<int> received{0};
  runSpmd(kProcs, [&](int pid) {
    const int partner = pid ^ 1;
    for (int i = 0; i < kMsgs; ++i) {
      if (pid % 2 == 0) {
        const bool direct = (i % 3 != 0);
        f.send(pid, name(pid, i), TransferKind::Data, payload(i),
               direct ? std::optional<int>(partner) : std::nullopt);
      } else {
        f.postReceive(pid, name(partner, i), TransferKind::Data,
                      [&](const Message&) {
                        received.fetch_add(1, std::memory_order_relaxed);
                      });
      }
    }
  });
  const int expected = (kProcs / 2) * kMsgs;
  EXPECT_EQ(received.load(), expected);  // exactly once, never twice
  EXPECT_EQ(f.undeliveredCount(), 0u);   // no twin stranded in a queue
  EXPECT_EQ(f.pendingReceiveCount(), 0u);
  FaultStats fs = f.faultStats();
  EXPECT_EQ(fs.duplicated, static_cast<std::uint64_t>(expected));
  EXPECT_EQ(fs.suppressedDuplicates, fs.duplicated);  // every twin killed
}

// Fault decisions are keyed by each source's own send ordinal, so they may
// not depend on how threads interleave: two runs of the same plan, racing
// each other on the same cores, must drop, duplicate and delay the same
// messages and complete the same receives.
TEST(FabricConcurrency, FaultDecisionsIndependentOfInterleaving) {
  constexpr int kProcs = 8;
  constexpr int kMsgs = 300;
  FaultPlan plan;
  plan.seed = 7;
  plan.dropProb = 0.25;
  plan.dupProb = 0.25;
  plan.delayProb = 0.25;
  plan.maxDelay = 1e-4;
  struct Observed {
    int received = 0;
    FaultStats faults{};
    std::uint64_t messagesReceived = 0;
    std::size_t pendingReceives = 0;
  };
  auto run = [&](Observed& o) {
    Fabric f(kProcs);
    f.setFaultPlan(plan);
    std::atomic<int> received{0};
    runSpmd(kProcs, [&](int pid) {
      const int partner = pid ^ 1;
      for (int i = 0; i < kMsgs; ++i) {
        if (pid % 2 == 0) {
          f.send(pid, name(pid, i), TransferKind::Data, payload(i), partner);
        } else {
          f.postReceive(pid, name(partner, i), TransferKind::Data,
                        [&](const Message&) {
                          received.fetch_add(1, std::memory_order_relaxed);
                        });
        }
      }
    });
    o.received = received.load();
    o.faults = f.faultStats();
    o.messagesReceived = f.totalStats().messagesReceived;
    o.pendingReceives = f.pendingReceiveCount();
  };
  Observed a, b;
  std::thread other([&] { run(b); });
  run(a);
  other.join();
  EXPECT_GT(a.faults.dropped, 0u);
  EXPECT_GT(a.faults.duplicated, 0u);
  EXPECT_EQ(a.received, b.received);
  EXPECT_EQ(a.faults.dropped, b.faults.dropped);
  EXPECT_EQ(a.faults.duplicated, b.faults.duplicated);
  EXPECT_EQ(a.faults.suppressedDuplicates, b.faults.suppressedDuplicates);
  EXPECT_EQ(a.faults.delayed, b.faults.delayed);
  EXPECT_EQ(a.messagesReceived, b.messagesReceived);
  // Receives whose message was dropped strand identically.
  EXPECT_EQ(a.pendingReceives, b.pendingReceives);
}

// Barriers interleaved with traffic and concurrent makespan/stats reads:
// exercises the barrier's wait/release path (a condition variable over
// the fabric lock) against concurrent readers.
TEST(FabricConcurrency, BarrierWithConcurrentReaders) {
  constexpr int kProcs = 8;
  constexpr int kRounds = 50;
  Fabric f(kProcs);
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)f.makespan();
      (void)f.totalStats();
      (void)f.barrierWaiters();
      (void)f.barrierEpoch();
    }
  });
  std::atomic<int> received{0};
  runSpmd(kProcs, [&](int pid) {
    const int partner = pid ^ 1;
    for (int r = 0; r < kRounds; ++r) {
      if (pid % 2 == 0) {
        f.send(pid, name(pid, r), TransferKind::Data, payload(r), partner);
      } else {
        f.postReceive(pid, name(partner, r), TransferKind::Data,
                      [&](const Message&) {
                        received.fetch_add(1, std::memory_order_relaxed);
                      });
      }
      f.advance(pid, 0.5 + pid);
      f.barrier(pid);
    }
  });
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(received.load(), (kProcs / 2) * kRounds);
  EXPECT_EQ(f.barrierEpoch(), static_cast<std::uint64_t>(kRounds));
  // After each barrier all clocks align to max + barrierCost, so at the
  // join every clock is at least kRounds * barrierCost.
  for (int p = 0; p < kProcs; ++p)
    EXPECT_GE(f.clock(p), kRounds * f.model().barrierCost);
}

// Hot per-endpoint clock churn from every thread at once; totals must be
// exact (each advance is applied under the fabric lock).
TEST(FabricConcurrency, ClockAdvancesAreNotLost) {
  constexpr int kProcs = 4;
  constexpr int kTicks = 2000;
  Fabric f(kProcs);
  runSpmd(kProcs, [&](int pid) {
    for (int i = 0; i < kTicks; ++i) f.advance(pid, 1.0);
  });
  for (int p = 0; p < kProcs; ++p)
    EXPECT_DOUBLE_EQ(f.clock(p), static_cast<double>(kTicks));
  EXPECT_DOUBLE_EQ(f.makespan(), static_cast<double>(kTicks));
}

}  // namespace
}  // namespace xdp::net
