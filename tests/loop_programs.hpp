// Loop-heavy .xdp programs shared by the verifier and cost tests: the
// sweep count and job count are parameters, so a test can put many
// identical loop iterations in front of the analysis.
#pragma once

#include <string>

namespace xdp::testprogs {

// Section 2.3 Jacobi (examples/programs/jacobi.xdp) with `sweeps` sweeps.
inline std::string stencil(int sweeps) {
  return "procs 4\n"
         "array U  f64 [1:16] (BLOCK)\n"
         "array HL f64 [0:3] (BLOCK)\n"
         "array HR f64 [0:3] (BLOCK)\n"
         "\n"
         "fill(U[1:16])\n"
         "do t = 1, " +
         std::to_string(sweeps) +
         "\n"
         "  (mypid < nprocs - 1) : { U[4 * mypid + 4] -> {mypid + 1} }\n"
         "  (mypid > 0) : { U[4 * mypid + 1] -> {mypid - 1} }\n"
         "  (mypid > 0) : { HL[mypid] <- U[4 * mypid] }\n"
         "  (mypid < nprocs - 1) : { HR[mypid] <- U[4 * mypid + 5] }\n"
         "  (mypid > 0) : {\n"
         "    await(HL[mypid])\n"
         "    U[4 * mypid + 1] = 0.25 * HL[mypid] + 0.5 * U[4 * mypid + 1] "
         "+ 0.25 * U[4 * mypid + 2]\n"
         "  }\n"
         "  (mypid < nprocs - 1) : {\n"
         "    await(HR[mypid])\n"
         "    U[4 * mypid + 4] = 0.25 * U[4 * mypid + 3] + 0.5 * "
         "U[4 * mypid + 4] + 0.25 * HR[mypid]\n"
         "  }\n"
         "  do i = 4 * mypid + 2, 4 * mypid + 3\n"
         "    iown(U[i]) : { U[i] = 0.25 * U[i - 1] + 0.5 * U[i] + 0.25 * "
         "U[i + 1] }\n"
         "  enddo\n"
         "enddo\n";
}

// Section 2.7 task farm on 4 processors: processor 0 sends `sends` jobs
// under one name, workers receive jobs mypid, mypid + 3, ... up to
// `lastJob`.
inline std::string farm(int sends, int lastJob) {
  return "procs 4\n"
         "array W f64 [0:0] (BLOCK:1)\n"
         "array M f64 [0:3] (BLOCK)\n"
         "\n"
         "(mypid == 0) : {\n"
         "  do t = 1, " +
         std::to_string(sends) +
         "\n"
         "    W[0] = t\n"
         "    W[0] ->\n"
         "  enddo\n"
         "}\n"
         "(mypid > 0) : {\n"
         "  do t = mypid, " +
         std::to_string(lastJob) +
         ", 3\n"
         "    M[mypid] <- W[0]\n"
         "    await(M[mypid])\n"
         "    compute(M[mypid] * 0.001)\n"
         "  enddo\n"
         "  M[mypid] = 0.0\n"
         "}\n";
}

}  // namespace xdp::testprogs
