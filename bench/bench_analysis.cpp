// Throughput of the static verifier (analysis::verifyProgram): abstract
// statements per second over the section 2.2 vector-add program at growing
// sizes, raw and after lowering (the lowered form has ~6x the statements
// plus the send/receive matching work). The verifier runs once per
// processor, so stmts/sec is the end-to-end figure a compile would see.
// The Jacobi sweep and task-farm rows grow a loop whose iterations the
// verifier replays rather than executes (DESIGN.md §7); the farm's one
// message name also exercises the counting matcher.
//
// Reported counters (per run):
//   stmts_analyzed  logical abstract statements across all processors
//                   (deterministic; replayed iterations count in full)
//   iters_replayed  loop iterations replayed instead of executed
//   stmts/s         verification throughput, in logical statements
//   diags           diagnostics produced (0 on these programs)
#include <benchmark/benchmark.h>

#include "loop_programs.hpp"
#include "xdp/analysis/verifier.hpp"
#include "xdp/apps/programs.hpp"
#include "xdp/il/parser.hpp"
#include "xdp/opt/passes.hpp"

using namespace xdp;

namespace {

void runVerify(benchmark::State& state, const il::Program& prog) {
  std::uint64_t stmts = 0;
  std::uint64_t replayed = 0;
  std::size_t diags = 0;
  for (auto _ : state) {
    analysis::VerifyResult r = analysis::verifyProgram(prog);
    benchmark::DoNotOptimize(r);
    stmts += r.stmtsAnalyzed;
    replayed += r.itersReplayed;
    diags += r.diagnostics.size();
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["stmts_analyzed"] =
      benchmark::Counter(static_cast<double>(stmts) / iters);
  state.counters["iters_replayed"] =
      benchmark::Counter(static_cast<double>(replayed) / iters);
  state.counters["stmts/s"] = benchmark::Counter(
      static_cast<double>(stmts), benchmark::Counter::kIsRate);
  state.counters["diags"] =
      benchmark::Counter(static_cast<double>(diags) / iters);
}

void BM_VerifyVecAddRaw(benchmark::State& state) {
  apps::VecAddConfig cfg =
      apps::vecAddMisaligned(state.range(0), 4);
  il::Program prog = apps::buildVecAdd(cfg);
  runVerify(state, prog);
}
BENCHMARK(BM_VerifyVecAddRaw)->Arg(64)->Arg(256)->Arg(1024);

void BM_VerifyVecAddLowered(benchmark::State& state) {
  apps::VecAddConfig cfg =
      apps::vecAddMisaligned(state.range(0), 4);
  il::Program prog = opt::lowerOwnerComputes(apps::buildVecAdd(cfg));
  runVerify(state, prog);
}
BENCHMARK(BM_VerifyVecAddLowered)->Arg(64)->Arg(256)->Arg(1024);

void BM_VerifyFft3dStage1(benchmark::State& state) {
  apps::Fft3dConfig cfg;
  cfg.n = state.range(0);
  il::Program prog = apps::buildFft3dStage1(cfg);
  runVerify(state, prog);
}
BENCHMARK(BM_VerifyFft3dStage1)->Arg(8)->Arg(16);

void BM_VerifyStencilSweeps(benchmark::State& state) {
  il::Program prog = il::parseProgram(
      testprogs::stencil(static_cast<int>(state.range(0))));
  runVerify(state, prog);
}
BENCHMARK(BM_VerifyStencilSweeps)->Arg(4)->Arg(64);

void BM_VerifyTaskFarm(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  il::Program prog = il::parseProgram(testprogs::farm(jobs, jobs));
  runVerify(state, prog);
}
BENCHMARK(BM_VerifyTaskFarm)->Arg(200)->Arg(800);

}  // namespace
