// Mutation tests for the static XDP verifier (xdp::analysis): a known-good
// two-processor transfer program is seeded with one defect per diagnostic
// class, and the verifier must (a) flag exactly that class, (b) anchor the
// diagnostic to the defective source line, and (c) keep the unmutated
// program spotless. The LoopReplay suite then runs the same mutants, a
// Jacobi stencil and a task farm inside long loops to pin that replayed
// loop iterations change no result, and covers the counting matcher and
// loop bounds at the edge of the integer range.
#include <gtest/gtest.h>

#include <string>

#include "loop_programs.hpp"
#include "xdp/analysis/verifier.hpp"
#include "xdp/il/parser.hpp"
#include "xdp/il/printer.hpp"

namespace xdp::analysis {
namespace {

using testprogs::farm;
using testprogs::stencil;

VerifyResult verifySrc(const std::string& src) {
  il::Program prog = il::parseProgram(src);
  return verifyProgram(prog);
}

const Diagnostic* findKind(const VerifyResult& r, DiagKind k) {
  for (const Diagnostic& d : r.diagnostics)
    if (d.kind == k) return &d;
  return nullptr;
}

std::string dump(const std::string& src, const VerifyResult& r) {
  il::Program prog = il::parseProgram(src);
  return formatDiagnostics(prog, r);
}

// Processor 0 sends its left half of A; processor 1 stages it into the
// tail of B and waits for it. Statically clean, fully decidable.
const char* kBase = R"(procs 2
array A f64 [1:8] (BLOCK)
array B f64 [1:8] (BLOCK)

fill(A[1:8], B[1:8])
(mypid == 0) : { A[1:4] -> {1} }
(mypid == 1) : {
  B[5:8] <- A[1:4]
  await(B[5:8])
}
)";

TEST(AnalysisMutations, BaseProgramIsCleanAndExhaustive) {
  VerifyResult r = verifySrc(kBase);
  EXPECT_TRUE(r.clean()) << dump(kBase, r);
  EXPECT_TRUE(r.exhaustive);
  EXPECT_GT(r.stmtsAnalyzed, 0u);
}

const char* kDroppedReceive = R"(procs 2
array A f64 [1:8] (BLOCK)

fill(A[1:8])
(mypid == 0) : { A[1:4] -> {1} }
)";

TEST(AnalysisMutations, DroppedReceiveIsUnmatchedSend) {
  VerifyResult r = verifySrc(kDroppedReceive);
  const Diagnostic* d = findKind(r, DiagKind::UnmatchedSend);
  ASSERT_NE(d, nullptr) << dump(kDroppedReceive, r);
  EXPECT_EQ(d->severity, Severity::Error);
  EXPECT_EQ(d->pid, 0);
  EXPECT_EQ(d->loc.line, 5);
}

const char* kDroppedSend = R"(procs 2
array A f64 [1:8] (BLOCK)
array B f64 [1:8] (BLOCK)

fill(A[1:8], B[1:8])
(mypid == 1) : {
  B[5:8] <- A[1:4]
  await(B[5:8])
}
)";

TEST(AnalysisMutations, DroppedSendIsOrphanReceive) {
  VerifyResult r = verifySrc(kDroppedSend);
  const Diagnostic* d = findKind(r, DiagKind::OrphanRecv);
  ASSERT_NE(d, nullptr) << dump(kDroppedSend, r);
  EXPECT_EQ(d->severity, Severity::Error);
  EXPECT_EQ(d->pid, 1);
  EXPECT_EQ(d->loc.line, 7);
}

const char* kDuplicatedSend = R"(procs 2
array A f64 [1:8] (BLOCK)
array B f64 [1:8] (BLOCK)

fill(A[1:8], B[1:8])
(mypid == 0) : {
  A[1:4] -> {1}
  A[1:4] -> {1}
}
(mypid == 1) : {
  B[5:8] <- A[1:4]
  await(B[5:8])
}
)";

TEST(AnalysisMutations, DuplicatedSendIsUnmatchedSend) {
  VerifyResult r = verifySrc(kDuplicatedSend);
  ASSERT_NE(findKind(r, DiagKind::UnmatchedSend), nullptr)
      << dump(kDuplicatedSend, r);
  EXPECT_EQ(findKind(r, DiagKind::OrphanRecv), nullptr)
      << dump(kDuplicatedSend, r);
}

const char* kAwaitBeforeReceive = R"(procs 2
array A f64 [1:8] (BLOCK)
array B f64 [1:8] (BLOCK)

fill(A[1:8], B[1:8])
(mypid == 0) : { A[1:4] -> {1} }
(mypid == 1) : {
  await(B[5:8])
  B[5:8] <- A[1:4]
}
)";

TEST(AnalysisMutations, AwaitBeforeReceiveInitiationWarns) {
  VerifyResult r = verifySrc(kAwaitBeforeReceive);
  const Diagnostic* d = findKind(r, DiagKind::AwaitMismatch);
  ASSERT_NE(d, nullptr) << dump(kAwaitBeforeReceive, r);
  EXPECT_EQ(d->severity, Severity::Warning);
  EXPECT_EQ(d->loc.line, 8);
  EXPECT_NE(d->message.find("precedes"), std::string::npos) << d->message;
}

const char* kSendUnowned = R"(procs 2
array A f64 [1:8] (BLOCK)
array B f64 [1:8] (BLOCK)

fill(A[1:8], B[1:8])
(mypid == 0) : { A[5:8] -> {1} }
(mypid == 1) : {
  B[5:8] <- A[5:8]
  await(B[5:8])
}
)";

TEST(AnalysisMutations, SendOfUnownedSection) {
  VerifyResult r = verifySrc(kSendUnowned);
  const Diagnostic* d = findKind(r, DiagKind::SendUnowned);
  ASSERT_NE(d, nullptr) << dump(kSendUnowned, r);
  EXPECT_EQ(d->severity, Severity::Error);
  EXPECT_EQ(d->pid, 0);
  EXPECT_EQ(d->loc.line, 6);
}

const char* kOwnershipSentTwice = R"(procs 2
array A f64 [1:8] (BLOCK)

fill(A[1:8])
(mypid == 0) : {
  A[1:4] => {1}
  A[1:4] => {1}
}
(mypid == 1) : { A[1:4] <= }
)";

TEST(AnalysisMutations, OwnershipSentTwiceIsDoubleOwnership) {
  VerifyResult r = verifySrc(kOwnershipSentTwice);
  const Diagnostic* d = findKind(r, DiagKind::DoubleOwnership);
  ASSERT_NE(d, nullptr) << dump(kOwnershipSentTwice, r);
  EXPECT_EQ(d->loc.line, 7);
  EXPECT_NE(d->message.find("twice"), std::string::npos) << d->message;
  // The refused second send never leaves, so the 1:1 pairing is intact.
  EXPECT_EQ(findKind(r, DiagKind::UnmatchedSend), nullptr)
      << dump(kOwnershipSentTwice, r);
}

const char* kReceiveWhileOwned = R"(procs 2
array A f64 [1:8] (BLOCK)

fill(A[1:8])
(mypid == 1) : { A[5:8] <= }
)";

TEST(AnalysisMutations, OwnershipReceiveWhileStillOwned) {
  VerifyResult r = verifySrc(kReceiveWhileOwned);
  const Diagnostic* d = findKind(r, DiagKind::DoubleOwnership);
  ASSERT_NE(d, nullptr) << dump(kReceiveWhileOwned, r);
  EXPECT_EQ(d->pid, 1);
  EXPECT_NE(d->message.find("already owns"), std::string::npos) << d->message;
}

const char* kReceiveIntoUnowned = R"(procs 2
array A f64 [1:8] (BLOCK)
array B f64 [1:8] (BLOCK)

fill(A[1:8], B[1:8])
(mypid == 0) : { A[1:4] -> {1} }
(mypid == 1) : { B[1:4] <- A[1:4] }
)";

TEST(AnalysisMutations, ReceiveIntoUnownedSection) {
  VerifyResult r = verifySrc(kReceiveIntoUnowned);
  const Diagnostic* d = findKind(r, DiagKind::NotAccessible);
  ASSERT_NE(d, nullptr) << dump(kReceiveIntoUnowned, r);
  EXPECT_EQ(d->pid, 1);
  EXPECT_EQ(d->loc.line, 7);
  EXPECT_NE(d->message.find("receive into"), std::string::npos) << d->message;
}

const char* kUseAfterTransfer = R"(procs 2
array A f64 [1:8] (BLOCK)

fill(A[1:8])
(mypid == 0) : { A[1:4] => {1} }
(mypid == 1) : { A[1:4] <= }
(mypid == 0) : { A[2] = 1.0 }
)";

TEST(AnalysisMutations, UseAfterOwnershipTransfer) {
  VerifyResult r = verifySrc(kUseAfterTransfer);
  const Diagnostic* d = findKind(r, DiagKind::NotAccessible);
  ASSERT_NE(d, nullptr) << dump(kUseAfterTransfer, r);
  EXPECT_EQ(d->pid, 0);
  EXPECT_EQ(d->loc.line, 7);
  EXPECT_NE(d->message.find("transferred away"), std::string::npos)
      << d->message;
}

const char* kTransitionalRead = R"(procs 2
array A f64 [1:8] (BLOCK)
array B f64 [1:8] (BLOCK)

fill(A[1:8], B[1:8])
(mypid == 0) : { A[1:4] -> {1} }
(mypid == 1) : {
  B[5:8] <- A[1:4]
  x = B[6] + 1.0
  await(B[5:8])
}
)";

TEST(AnalysisMutations, ReadOfTransitionalSection) {
  VerifyResult r = verifySrc(kTransitionalRead);
  const Diagnostic* d = findKind(r, DiagKind::NotAccessible);
  ASSERT_NE(d, nullptr) << dump(kTransitionalRead, r);
  EXPECT_EQ(d->loc.line, 9);
  EXPECT_NE(d->message.find("transitional"), std::string::npos) << d->message;
}

const char* kSizeMismatch = R"(procs 2
array A f64 [1:8] (BLOCK)
array B f64 [1:8] (BLOCK)

fill(A[1:8], B[1:8])
(mypid == 0) : { A[1:4] -> {1} }
(mypid == 1) : {
  B[5:6] <- A[1:4]
  await(B[5:6])
}
)";

TEST(AnalysisMutations, SizeMismatchedReceive) {
  VerifyResult r = verifySrc(kSizeMismatch);
  const Diagnostic* d = findKind(r, DiagKind::TransferMismatch);
  ASSERT_NE(d, nullptr) << dump(kSizeMismatch, r);
  EXPECT_EQ(d->loc.line, 8);
  EXPECT_NE(d->message.find("differ in size"), std::string::npos)
      << d->message;
}

const char* kAwaitUnowned = R"(procs 2
array A f64 [1:8] (BLOCK)

fill(A[1:8])
(mypid == 0) : { await(A[5:8]) }
)";

TEST(AnalysisMutations, AwaitOfUnownedSectionWarns) {
  VerifyResult r = verifySrc(kAwaitUnowned);
  const Diagnostic* d = findKind(r, DiagKind::AwaitMismatch);
  ASSERT_NE(d, nullptr) << dump(kAwaitUnowned, r);
  EXPECT_EQ(d->severity, Severity::Warning);
  EXPECT_NE(d->message.find("does not own"), std::string::npos) << d->message;
}

const char* kDestOutOfRange = R"(procs 2
array A f64 [1:8] (BLOCK)

fill(A[1:8])
(mypid == 0) : { A[1:4] -> {5} }
)";

TEST(AnalysisMutations, SendDestinationOutOfRange) {
  VerifyResult r = verifySrc(kDestOutOfRange);
  const Diagnostic* d = findKind(r, DiagKind::TransferMismatch);
  ASSERT_NE(d, nullptr) << dump(kDestOutOfRange, r);
  EXPECT_NE(d->message.find("outside"), std::string::npos) << d->message;
}

TEST(AnalysisMutations, FormattedDiagnosticCarriesFileAndLine) {
  const char* src = R"(procs 2
array A f64 [1:8] (BLOCK)

fill(A[1:8])
(mypid == 0) : { A[1:4] -> {1} }
)";
  il::Program prog = il::parseProgram(src);
  VerifyResult r = verifyProgram(prog);
  ASSERT_FALSE(r.clean());
  std::string line = formatDiagnostic(prog, r.diagnostics[0], "prog.xdp");
  EXPECT_NE(line.find("prog.xdp:5:"), std::string::npos) << line;
  EXPECT_NE(line.find("error:"), std::string::npos) << line;
  EXPECT_NE(line.find("[unmatched-send"), std::string::npos) << line;
}

// The guard depends on an array value the analysis does not track, so
// the violation inside it is possible-but-not-proven: Warning, and the
// conditional send's matching group goes silent instead of guessing.
const char* kUnknownGuard = R"(procs 2
array A f64 [1:8] (BLOCK)

fill(A[1:8])
x = 0.0
(mypid == 1) : { x = A[5] }
(x > 0.5) : { A[1:4] -> {0} }
)";

TEST(AnalysisMutations, UnknownGuardDowngradesToWarningAndClearsExhaustive) {
  VerifyResult r = verifySrc(kUnknownGuard);
  EXPECT_FALSE(r.exhaustive);
  const Diagnostic* d = findKind(r, DiagKind::SendUnowned);
  ASSERT_NE(d, nullptr) << dump(kUnknownGuard, r);
  EXPECT_EQ(d->severity, Severity::Warning);
  EXPECT_EQ(findKind(r, DiagKind::UnmatchedSend), nullptr)
      << dump(kUnknownGuard, r);
}

TEST(AnalysisMutations, EmptySectionTransfersAreNoOps) {
  // Mirrors the runtime exactly: empty sends/receives/awaits do nothing,
  // so per-pid boundary guards that evaluate to empty sections are fine.
  const char* src = R"(procs 2
array A f64 [1:8] (BLOCK)

fill(A[1:8])
do i = 1, 0
  A[1:4] -> {1}
enddo
await(A[5:4])
)";
  VerifyResult r = verifySrc(src);
  EXPECT_TRUE(r.clean()) << dump(src, r);
}

TEST(AnalysisMutations, MatchingRespectsBoundDestinations) {
  // Two sends of the same message name to *different* bound destinations
  // and two receives: destination constraints make the pairing unique and
  // satisfiable, so no diagnostic.
  const char* src = R"(procs 3
array W f64 [0:0] (BLOCK:1)
array M f64 [0:2] (BLOCK)

fill(W[0:0], M[0:2])
(mypid == 0) : {
  W[0] -> {1}
  W[0] -> {2}
}
(mypid > 0) : {
  M[mypid] <- W[0]
  await(M[mypid])
}
)";
  VerifyResult r = verifySrc(src);
  EXPECT_TRUE(r.clean()) << dump(src, r);
}

// Both sends are bound to processor 1, but only one receive exists
// there; the second send can never be delivered.
const char* kUnsatisfiableDests = R"(procs 3
array W f64 [0:0] (BLOCK:1)
array M f64 [0:2] (BLOCK)

fill(W[0:0], M[0:2])
(mypid == 0) : {
  W[0] -> {1}
  W[0] -> {1}
}
(mypid > 0) : {
  M[mypid] <- W[0]
  await(M[mypid])
}
)";

TEST(AnalysisMutations, MatchingDetectsUnsatisfiableDestinations) {
  VerifyResult r = verifySrc(kUnsatisfiableDests);
  EXPECT_NE(findKind(r, DiagKind::UnmatchedSend), nullptr)
      << dump(kUnsatisfiableDests, r);
  EXPECT_NE(findKind(r, DiagKind::OrphanRecv), nullptr)
      << dump(kUnsatisfiableDests, r);
}

// --- loop replay ------------------------------------------------------------
//
// A loop whose body never names its variable and whose iteration leaves the
// abstract state unchanged is replayed instead of re-executed. Replay must
// be invisible: every expected value below is what full per-iteration
// execution produces.

// `src` with everything after its `fill(...)` line repeated `reps` times
// by an outer loop that never names its variable.
std::string inLoop(const std::string& src, int reps) {
  const std::size_t at = src.find('\n', src.find("fill(")) + 1;
  return src.substr(0, at) + "do rep = 1, " + std::to_string(reps) + "\n" +
         src.substr(at) + "enddo\n";
}

// Every diagnostic in order, with each field replay must preserve.
std::string diagLines(const VerifyResult& r) {
  std::string out;
  for (const Diagnostic& d : r.diagnostics)
    out += std::string(kindName(d.kind)) + " " + severityName(d.severity) +
           " p" + std::to_string(d.pid) + " L" + std::to_string(d.loc.line) +
           " " + d.message + "\n";
  return out;
}

TEST(LoopReplay, StencilSweepsCountEveryIteration) {
  const std::pair<int, std::uint64_t> cases[] = {
      {3, 330}, {17, 1814}, {200, 21212}};
  for (const auto& [sweeps, stmts] : cases) {
    VerifyResult r = verifySrc(stencil(sweeps));
    EXPECT_EQ(r.stmtsAnalyzed, stmts) << sweeps << " sweeps";
    EXPECT_TRUE(r.clean()) << dump(stencil(sweeps), r);
    EXPECT_TRUE(r.exhaustive) << sweeps << " sweeps";
  }
  // Each processor executes sweeps 1 and 2 and replays the other 198.
  EXPECT_EQ(verifySrc(stencil(200)).itersReplayed, 4u * 198u);
}

TEST(LoopReplay, MutantsInsideAnOuterLoopKeepTheirDiagnostics) {
  struct Case {
    const char* src;
    std::uint64_t stmts;
    bool exhaustive;
    const char* diags;
  };
  const Case cases[] = {
      {kBase, 226, true, ""},
      {kDroppedReceive, 126, true,
       "unmatched-send error p0 L6 send of [1:4] of 'A' has no matching "
       "receive (20 times): the message would go undelivered\n"},
      {kDroppedSend, 146, true,
       "orphan-recv error p1 L8 receive of [1:4] of 'A' has no matching "
       "send: it never completes and awaiting it deadlocks\n"},
      {kDuplicatedSend, 246, true,
       "unmatched-send error p0 L8 send of [1:4] of 'A' has no matching "
       "receive (10 times): the message would go undelivered\n"
       "unmatched-send error p0 L9 send of [1:4] of 'A' has no matching "
       "receive (10 times): the message would go undelivered\n"},
      {kAwaitBeforeReceive, 226, true,
       "await-mismatch warning p1 L9 await of section [5:8] of 'B' precedes "
       "the receive that initiates it (initiated at line 10): the await "
       "synchronizes with nothing\n"},
      {kSendUnowned, 226, true,
       "send-unowned error p0 L7 data send of section [5:8] of 'A' that "
       "this processor does not own\n"},
      {kOwnershipSentTwice, 226, true,
       "double-ownership error p0 L7 ownership of section [1:4] of 'A' "
       "transferred away twice (already sent)\n"
       "double-ownership error p0 L8 ownership of section [1:4] of 'A' "
       "transferred away twice (already sent)\n"
       "double-ownership error p1 L10 ownership receive of section [1:4] of "
       "'A' this processor already owns\n"},
      {kReceiveWhileOwned, 126, true,
       "double-ownership error p1 L6 ownership receive of section [5:8] of "
       "'A' this processor already owns\n"},
      {kReceiveIntoUnowned, 206, true,
       "unmatched-send error p0 L7 send of [1:4] of 'A' has no matching "
       "receive (20 times): the message would go undelivered\n"
       "not-accessible error p1 L8 receive into section [1:4] of 'B' that "
       "this processor does not own\n"},
      {kUseAfterTransfer, 286, true,
       "double-ownership error p0 L6 ownership of section [1:4] of 'A' "
       "transferred away twice (already sent)\n"
       "double-ownership error p1 L7 ownership receive of section [1:4] of "
       "'A' this processor already owns\n"
       "not-accessible error p0 L8 write to section [2:2] of 'A' after its "
       "ownership was transferred away\n"},
      {kTransitionalRead, 246, true,
       "not-accessible error p1 L10 read of transitional section [6:6] of "
       "'B' (overlaps an uncompleted receive; await it first)\n"},
      {kSizeMismatch, 226, true,
       "unmatched-send error p0 L7 send of [1:4] of 'A' has no matching "
       "receive (20 times): the message would go undelivered\n"
       "transfer-mismatch error p1 L9 receive destination [5:6] of 'B' and "
       "name [1:4] of 'A' differ in size (2 vs 4 elements)\n"},
      {kAwaitUnowned, 126, true,
       "await-mismatch warning p0 L6 await of section [5:8] of 'A' this "
       "processor does not own: it returns false immediately and "
       "synchronizes nothing\n"},
      {kDestOutOfRange, 126, true,
       "transfer-mismatch error p0 L6 send destination processor 5 is "
       "outside 0..1\n"},
      {kUnknownGuard, 246, false,
       "send-unowned warning p1 L8 data send of section [1:4] of 'A' that "
       "this processor does not own (in conditionally-executed code)\n"},
      {kUnsatisfiableDests, 369, true,
       "unmatched-send error p0 L8 send of [0:0] of 'W' has no matching "
       "receive (10 times): the message would go undelivered\n"
       "unmatched-send error p0 L9 send of [0:0] of 'W' has no matching "
       "receive (10 times): the message would go undelivered\n"
       "orphan-recv error p2 L12 receive of [0:0] of 'W' has no matching "
       "send: it never completes and awaiting it deadlocks\n"},
  };
  for (const Case& c : cases) {
    const std::string src = inLoop(c.src, 20);
    VerifyResult r = verifySrc(src);
    EXPECT_EQ(diagLines(r), c.diags) << src;
    EXPECT_EQ(r.stmtsAnalyzed, c.stmts) << src;
    EXPECT_EQ(r.exhaustive, c.exhaustive) << src;
  }
}

TEST(LoopReplay, OnlyLoopsThatNeitherNameTheirVariableNorChangeStateReplay) {
  const std::string head = "procs 2\narray A f64 [1:8] (BLOCK)\n\n"
                           "fill(A[1:8])\nx = 0.0\ndo t = 1, 30\n";
  // The guard reads t, and the frame stays the same until t = 26.
  VerifyResult names = verifySrc(head + "  (t > 25) : { x = 1 }\nenddo\n");
  VerifyResult changes = verifySrc(head + "  x = x + 1\nenddo\n");
  VerifyResult stable = verifySrc(head + "  x = 1\nenddo\n");
  // x flips between 0.0 and -0.0, which compare equal but make the guard
  // alternate: only a bit-for-bit frame comparison sees the change.
  VerifyResult signedZero = verifySrc(
      head + "  x = -x\n  (1.0 / x > 0.0) : { y = 1 }\nenddo\n");
  EXPECT_EQ(names.itersReplayed, 0u);
  EXPECT_EQ(changes.itersReplayed, 0u);
  EXPECT_EQ(signedZero.itersReplayed, 0u);
  EXPECT_EQ(stable.itersReplayed, 2u * 28u);
  EXPECT_EQ(names.stmtsAnalyzed, 148u);
  EXPECT_EQ(changes.stmtsAnalyzed, 128u);
  EXPECT_EQ(signedZero.stmtsAnalyzed, 248u);
  EXPECT_EQ(stable.stmtsAnalyzed, 128u);
  for (const VerifyResult* r : {&names, &changes, &signedZero, &stable}) {
    EXPECT_TRUE(r->clean());
    EXPECT_TRUE(r->exhaustive);
  }
}

TEST(LoopReplay, StepBudgetTripsAtTheSameStatement) {
  // Full counts are 1814 (stencil) and 2823 (farm); stmtsAnalyzed past
  // the budget includes the one refused step of every remaining pid.
  const struct {
    std::string src;
    std::uint64_t maxSteps, stmts;
  } cases[] = {{stencil(17), 1813, 1814},
               {stencil(17), 1700, 1701},
               {stencil(17), 907, 909},
               {stencil(17), 300, 304},
               {farm(400, 400), 2822, 2823},
               {farm(400, 400), 1400, 1403}};
  for (const auto& c : cases) {
    VerifyOptions o;
    o.maxSteps = c.maxSteps;
    VerifyResult r = verifyProgram(il::parseProgram(c.src), o);
    EXPECT_EQ(r.stmtsAnalyzed, c.stmts) << "maxSteps " << c.maxSteps;
    EXPECT_FALSE(r.exhaustive) << "maxSteps " << c.maxSteps;
    EXPECT_TRUE(r.clean()) << dump(c.src, r);
  }
}

TEST(LoopReplay, BoundsNearInt64MaxTerminate) {
  // `i += step` would overflow past these bounds; like both engines, the
  // verifier runs exactly two iterations and stays exact.
  for (const char* bounds : {"9223372036854775806, 9223372036854775807",
                             "9223372036854775800, 9223372036854775807, 5"}) {
    const std::string src = std::string("procs 2\n"
                                        "array A f64 [1:8] (BLOCK)\n"
                                        "\n"
                                        "fill(A[1:8])\n"
                                        "do i = ") +
                            bounds +
                            "\n"
                            "  (mypid == 0) : { A[1:4] -> {1} }\n"
                            "  (mypid == 1) : {\n"
                            "    A[5:8] <- A[1:4]\n"
                            "    await(A[5:8])\n"
                            "  }\n"
                            "enddo\n";
    VerifyOptions o;
    o.collectCost = true;
    VerifyResult r = verifyProgram(il::parseProgram(src), o);
    EXPECT_TRUE(r.exhaustive) << bounds;
    EXPECT_TRUE(r.clean()) << dump(src, r);
    EXPECT_EQ(r.stmtsAnalyzed, 28u) << bounds;
    EXPECT_EQ(r.costEvents.size(), 2u) << bounds;
  }
}

TEST(LoopReplay, CountingMatcherPinsFarmDiagnostics) {
  // No send of a farm binds a destination, so its one message name is
  // matched by counting.
  EXPECT_TRUE(verifySrc(farm(12, 12)).clean());
  const char* unmatched =
      "unmatched-send error p0 L8 send of [0:0] of 'W' has no matching "
      "receive: the message would go undelivered\n";
  VerifyResult extraSend = verifySrc(farm(13, 12));
  EXPECT_EQ(diagLines(extraSend), unmatched);
  EXPECT_EQ(extraSend.stmtsAnalyzed, 110u);
  VerifyResult droppedRecv = verifySrc(farm(12, 11));
  EXPECT_EQ(diagLines(droppedRecv), unmatched);
  EXPECT_EQ(droppedRecv.stmtsAnalyzed, 103u);
  VerifyResult big = verifySrc(farm(800, 800));
  EXPECT_TRUE(big.clean());
  EXPECT_EQ(big.stmtsAnalyzed, 5623u);
}

}  // namespace
}  // namespace xdp::analysis
