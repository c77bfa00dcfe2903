// End-to-end tests of the xdpc driver's exit-code contract and diagnostic
// formatting: 0 = success, 1 = diagnostics or a compile/run failure,
// 2 = usage error (bad flag, bad numeric value, unknown pass, missing file
// operand). Runs the real binary (XDPC_PATH) against the shipped programs
// and against seeded defect programs written to a temp directory. The
// xdp_serve driver (XDP_SERVE_PATH) shares the numeric-flag contract.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <sys/wait.h>

#include "loop_programs.hpp"

namespace {

struct RunResult {
  int exitCode = -1;
  std::string output;  // stdout + stderr interleaved
};

RunResult runTool(const char* path, const std::string& args) {
  std::string cmd = std::string(path) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  RunResult r;
  char buf[4096];
  while (pipe && std::fgets(buf, sizeof buf, pipe)) r.output += buf;
  if (pipe) {
    int status = pclose(pipe);
    r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  return r;
}

RunResult runXdpc(const std::string& args) { return runTool(XDPC_PATH, args); }

std::string programPath(const std::string& name) {
  return std::string(XDP_PROGRAMS_DIR) + "/" + name;
}

std::string writeTemp(const std::string& name, const std::string& text) {
  std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << text;
  return path;
}

TEST(XdpcDriver, CleanProgramAnalyzesWithExitZero) {
  RunResult r = runXdpc(programPath("vecadd.xdp") + " --analyze");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("0 errors"), std::string::npos) << r.output;
}

TEST(XdpcDriver, AnalyzeComposesWithThePipeline) {
  RunResult r =
      runXdpc(programPath("jacobi.xdp") + " --pipeline --analyze");
  EXPECT_EQ(r.exitCode, 0) << r.output;
}

TEST(XdpcDriver, VerifyPassesExitsZeroOnCleanPrograms) {
  RunResult r =
      runXdpc(programPath("cannon.xdp") + " --pipeline --verify-passes");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("no introduced violations"), std::string::npos)
      << r.output;
}

TEST(XdpcDriver, DefectiveProgramExitsOneWithFileLineDiagnostic) {
  std::string path = writeTemp("xdpc_defect.xdp",
                               "procs 2\n"
                               "array A f64 [1:8] (BLOCK)\n"
                               "\n"
                               "fill(A[1:8])\n"
                               "(mypid == 0) : { A[1:4] -> {1} }\n");
  RunResult r = runXdpc(path + " --analyze");
  EXPECT_EQ(r.exitCode, 1) << r.output;
  EXPECT_NE(r.output.find(path + ":5:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("unmatched-send"), std::string::npos) << r.output;
}

TEST(XdpcDriver, EachDiagnosticClassReportsItsKind) {
  struct Case {
    const char* kind;
    const char* body;
  };
  const Case cases[] = {
      {"unmatched-send", "(mypid == 0) : { A[1:4] -> {1} }\n"},
      {"orphan-recv", "(mypid == 1) : { B[5:8] <- A[1:4]\nawait(B[5:8]) }\n"},
      {"send-unowned",
       "(mypid == 0) : { A[5:8] -> {1} }\n"
       "(mypid == 1) : { B[5:8] <- A[5:8]\nawait(B[5:8]) }\n"},
      {"double-ownership",
       "(mypid == 0) : { A[1:4] => {1}\nA[1:4] => {1} }\n"
       "(mypid == 1) : { A[1:4] <= }\n"},
      {"not-accessible",
       "(mypid == 0) : { A[1:4] -> {1} }\n"
       "(mypid == 1) : { B[5:8] <- A[1:4]\nx = B[6]\nawait(B[5:8]) }\n"},
      {"transfer-mismatch",
       "(mypid == 0) : { A[1:4] -> {1} }\n"
       "(mypid == 1) : { B[5:6] <- A[1:4]\nawait(B[5:6]) }\n"},
  };
  for (const Case& c : cases) {
    std::string src = std::string("procs 2\n") +
                      "array A f64 [1:8] (BLOCK)\n" +
                      "array B f64 [1:8] (BLOCK)\n\n" +
                      "fill(A[1:8], B[1:8])\n" + c.body;
    std::string path =
        writeTemp(std::string("xdpc_") + c.kind + ".xdp", src);
    RunResult r = runXdpc(path + " --analyze");
    EXPECT_EQ(r.exitCode, 1) << c.kind << "\n" << r.output;
    EXPECT_NE(r.output.find(c.kind), std::string::npos)
        << c.kind << "\n" << r.output;
    EXPECT_NE(r.output.find(path + ":"), std::string::npos)
        << c.kind << "\n" << r.output;
  }
}

TEST(XdpcDriver, AwaitMismatchWarnsWithoutFailing) {
  std::string path = writeTemp("xdpc_await.xdp",
                               "procs 2\n"
                               "array A f64 [1:8] (BLOCK)\n"
                               "array B f64 [1:8] (BLOCK)\n\n"
                               "fill(A[1:8], B[1:8])\n"
                               "(mypid == 0) : { A[1:4] -> {1} }\n"
                               "(mypid == 1) : {\n"
                               "await(B[5:8])\n"
                               "B[5:8] <- A[1:4]\n"
                               "}\n");
  RunResult r = runXdpc(path + " --analyze");
  EXPECT_EQ(r.exitCode, 0) << r.output;  // warnings do not fail the build
  EXPECT_NE(r.output.find("await-mismatch"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("warning:"), std::string::npos) << r.output;
}

TEST(XdpcDriver, UsageErrorsExitTwo) {
  EXPECT_EQ(runXdpc("").exitCode, 2);
  EXPECT_EQ(runXdpc("--analyze").exitCode, 2);  // no file operand
  EXPECT_EQ(runXdpc(programPath("vecadd.xdp") + " --no-such-flag").exitCode,
            2);
  EXPECT_EQ(runXdpc(programPath("vecadd.xdp") + " --passes no-such-pass")
                .exitCode,
            2);
}

// Every numeric flag must be one whole number in range: trailing junk, a
// sign on an unsigned value, and overflow are usage errors, not aborts or
// silently wrapped values.
TEST(XdpcDriver, MalformedNumericFlagsExitTwo) {
  const std::string run = programPath("vecadd.xdp") + " --run ";
  for (const char* bad :
       {"--seed abc", "--seed 42x", "--seed -1", "--seed +1",
        "--seed 18446744073709551616", "--checkpoint-interval -3",
        "--checkpoint-interval 1e3", "--checkpoint-interval \"\""}) {
    RunResult r = runXdpc(run + bad);
    EXPECT_EQ(r.exitCode, 2) << bad << "\n" << r.output;
    EXPECT_NE(r.output.find("invalid value for"), std::string::npos)
        << bad << "\n" << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos) << r.output;
  }
  EXPECT_EQ(runXdpc(run + "--seed").exitCode, 2);  // value missing
}

TEST(XdpcDriver, WellFormedNumericFlagsRun) {
  RunResult r = runXdpc(programPath("vecadd.xdp") +
                        " --run --seed 7 --checkpoint-interval 16");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find(" capture failures"), std::string::npos)
      << r.output;
}

TEST(XdpServeDriver, MalformedNumericFlagsExitTwo) {
  const std::string prog = programPath("vecadd.xdp") + " ";
  for (const char* bad :
       {"--workers abc", "--workers 0", "--sessions 2x", "--sessions -1",
        "--checkpoint-steps -1", "--seed 1.5", "--drop 1.5", "--drop nan",
        "--max-steps 99999999999999999999", "--crash -2", "--wall-ms 3ms"}) {
    RunResult r = runTool(XDP_SERVE_PATH, prog + bad);
    EXPECT_EQ(r.exitCode, 2) << bad << "\n" << r.output;
    EXPECT_NE(r.output.find("invalid value for"), std::string::npos)
        << bad << "\n" << r.output;
  }
  RunResult ok =
      runTool(XDP_SERVE_PATH, prog + "--pipeline --sessions 2 --workers 1");
  EXPECT_EQ(ok.exitCode, 0) << ok.output;
  EXPECT_NE(ok.output.find("2 completed"), std::string::npos) << ok.output;
}

TEST(XdpcDriver, MissingFileExitsOne) {
  RunResult r = runXdpc("/nonexistent/nope.xdp --analyze");
  EXPECT_EQ(r.exitCode, 1) << r.output;
}

TEST(XdpcDriver, ParseErrorExitsOne) {
  std::string path = writeTemp("xdpc_bad.xdp", "procs procs procs\n");
  RunResult r = runXdpc(path + " --print");
  EXPECT_EQ(r.exitCode, 1) << r.output;
}

/// "<key>: <digits>" extracted from a line like "cost: 144 bytes in ...",
/// or -1 when absent.
long long numberAfter(const std::string& text, const std::string& tag) {
  auto pos = text.find(tag);
  if (pos == std::string::npos) return -1;
  return std::strtoll(text.c_str() + pos + tag.size(), nullptr, 10);
}

TEST(XdpcDriver, CostReportMatchesRuntimeTrafficBitExactly) {
  // The tentpole contract: on every shipped program, under the standard
  // pipeline, the static model's bytes and messages equal the NetStats
  // counters --run prints — on both backends.
  const char* programs[] = {"vecadd.xdp", "jacobi.xdp", "cannon.xdp",
                            "ownership.xdp", "taskfarm.xdp"};
  for (const char* name : programs) {
    for (const char* extra : {"", " --pipeline"}) {
      RunResult cost =
          runXdpc(programPath(name) + extra + " --cost");
      ASSERT_EQ(cost.exitCode, 0) << name << extra << "\n" << cost.output;
      const long long bytes = numberAfter(cost.output, "cost: ");
      ASSERT_GE(bytes, 0) << name << extra << "\n" << cost.output;
      EXPECT_NE(cost.output.find("(exact)"), std::string::npos)
          << name << extra << "\n" << cost.output;
      for (const char* backend : {"tree", "vm"}) {
        RunResult run = runXdpc(programPath(name) + extra +
                                " --run --backend=" + backend);
        ASSERT_EQ(run.exitCode, 0) << name << extra << "\n" << run.output;
        // "..., <bytes> bytes, ..." from the run summary.
        auto pos = run.output.find("unexpected), ");
        ASSERT_NE(pos, std::string::npos) << run.output;
        const long long measured =
            std::strtoll(run.output.c_str() + pos + 13, nullptr, 10);
        EXPECT_EQ(bytes, measured)
            << name << extra << " backend=" << backend << "\n"
            << cost.output << run.output;
      }
    }
  }
}

TEST(XdpcDriver, CostJsonHasStableKeys) {
  RunResult r =
      runXdpc(programPath("jacobi.xdp") + " --cost --format=json");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  for (const char* key :
       {"\"file\"", "\"exact\"", "\"bytes_moved\"", "\"messages\"",
        "\"lower_bound\"", "\"invariant_bound\"", "\"parametric_bound\"",
        "\"pct_of_optimal\"", "\"per_proc\"", "\"per_symbol\"",
        "\"per_stmt\"", "\"line\"", "\"col\""}) {
    EXPECT_NE(r.output.find(key), std::string::npos) << key << "\n"
                                                     << r.output;
  }
  EXPECT_EQ(numberAfter(r.output, "\"bytes_moved\":"), 144) << r.output;
  EXPECT_EQ(numberAfter(r.output, "\"lower_bound\":"), 144) << r.output;
}

TEST(XdpcDriver, AnalyzeJsonKeepsTheExitContract) {
  // Clean program: exit 0, machine-readable summary on stdout.
  RunResult clean =
      runXdpc(programPath("vecadd.xdp") + " --analyze --format=json");
  EXPECT_EQ(clean.exitCode, 0) << clean.output;
  EXPECT_NE(clean.output.find("\"errors\":0"), std::string::npos)
      << clean.output;
  EXPECT_NE(clean.output.find("\"diagnostics\":["), std::string::npos)
      << clean.output;

  // Defective program: still exit 1, and the diagnostic carries the
  // stable class/file/line/col/message keys.
  std::string path = writeTemp("xdpc_json_defect.xdp",
                               "procs 2\n"
                               "array A f64 [1:8] (BLOCK)\n"
                               "\n"
                               "fill(A[1:8])\n"
                               "(mypid == 0) : { A[1:4] -> {1} }\n");
  RunResult bad = runXdpc(path + " --analyze --format=json");
  EXPECT_EQ(bad.exitCode, 1) << bad.output;
  for (const char* key : {"\"class\":\"unmatched-send\"", "\"file\"",
                          "\"line\":5", "\"col\"", "\"message\"",
                          "\"severity\":\"error\""}) {
    EXPECT_NE(bad.output.find(key), std::string::npos) << key << "\n"
                                                       << bad.output;
  }
}

TEST(XdpcDriver, AnalyzeReportsReplayedLoopIterations) {
  // 20 sweeps on 4 processors: each executes sweeps 1 and 2 and replays
  // the remaining 18.
  const std::string path =
      writeTemp("xdpc_replay.xdp", xdp::testprogs::stencil(20));
  RunResult text = runXdpc(path + " --analyze");
  EXPECT_EQ(text.exitCode, 0) << text.output;
  EXPECT_NE(text.output.find("(72 loop iterations replayed)"),
            std::string::npos)
      << text.output;
  RunResult json = runXdpc(path + " --analyze --format=json");
  EXPECT_EQ(json.exitCode, 0) << json.output;
  EXPECT_EQ(numberAfter(json.output, "\"iters_replayed\":"), 72)
      << json.output;
  EXPECT_EQ(numberAfter(json.output, "\"stmts_analyzed\":"),
            numberAfter(text.output, "analyzed "))
      << json.output << text.output;
}

TEST(XdpcDriver, AutoPlaceAlignsVecaddAndComposesWithRun) {
  RunResult r = runXdpc(programPath("vecadd.xdp") + " --auto-place");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  EXPECT_NE(r.output.find("modeled 0 bytes"), std::string::npos)
      << r.output;
  // The rewritten placement then actually runs with zero traffic.
  RunResult run = runXdpc(programPath("vecadd.xdp") +
                          " --auto-place --pipeline --run");
  EXPECT_EQ(run.exitCode, 0) << run.output;
  EXPECT_NE(run.output.find(" 0 bytes"), std::string::npos) << run.output;
}

TEST(XdpcDriver, AutoPlaceJsonReportsOriginalAndBest) {
  RunResult r =
      runXdpc(programPath("vecadd.xdp") + " --auto-place --format=json");
  EXPECT_EQ(r.exitCode, 0) << r.output;
  for (const char* key :
       {"\"candidates_tried\"", "\"candidates_valid\"", "\"original\"",
        "\"best\"", "\"dists\"", "\"lower_bound\"", "\"pct_of_optimal\""}) {
    EXPECT_NE(r.output.find(key), std::string::npos) << key << "\n"
                                                     << r.output;
  }
}

}  // namespace
