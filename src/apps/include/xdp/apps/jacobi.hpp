// 2-D Jacobi relaxation on the XDP runtime — the archetypal
// distributed-memory workload of the paper's era (its related-work
// compilers [4,8,21] all lead with stencils).
//
// The grid A[1:n, 1:m] is row-BLOCK distributed; each sweep reads the
// north/south neighbour rows, so every processor exchanges its boundary
// rows with its neighbours each iteration. Halos live in exclusive halo
// arrays (HN/HS) so the receive statement's destination is owner-local,
// exactly as XDP requires.
//
// Two communication plans, selectable per run:
//   * ElementWise — one message per halo element ("A[i,j] ->"), the naive
//     owner-computes shape;
//   * RowSections — one message per boundary row ("A[i,1:m] ->"), the
//     message-vectorized shape.
// Both compute identical results; the bench quantifies the difference.
#pragma once

#include <cstdint>
#include <vector>

#include "xdp/rt/proc.hpp"

namespace xdp::apps {

enum class HaloPlan { ElementWise, RowSections };

struct JacobiConfig {
  sec::Index rows = 32;
  sec::Index cols = 32;
  int nprocs = 4;
  int iterations = 10;
  HaloPlan plan = HaloPlan::RowSections;
  bool bindDestinations = true;  ///< direct sends vs matchmaker routing
  std::uint64_t seed = 11;
  double flopCost = 0.0;  ///< modeled cost per stencil point
};

struct JacobiResult {
  std::vector<double> grid;  ///< final A, Fortran order
  net::NetStats net;
  double makespan = 0.0;
};

/// Run the SPMD Jacobi solver on a fresh simulated machine.
JacobiResult runJacobi(const JacobiConfig& cfg);

/// Sequential reference with identical initial conditions.
std::vector<double> jacobiReference(const JacobiConfig& cfg);

}  // namespace xdp::apps
