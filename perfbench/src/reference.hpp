// Independent reference results for every program family the benchmark
// runs. Each model is plain sequential C++: it starts from the same fill
// values the `fill` kernel writes (apps::cellValueAt) and replays the
// program's arithmetic in the order the program performs it, without any
// part of the system under test. The result is every declared array, in
// declaration order and global Fortran order, which is what
// SessionReport::resultDigest hashes.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Final contents of every declared array, in declaration order; each
/// array in global Fortran order (first dimension fastest).
using Arrays = std::vector<std::vector<double>>;

/// FNV-1a over the arrays' bytes, as SessionReport::resultDigest defines
/// it (one hash state carried across the arrays).
std::uint64_t digestOf(const Arrays& arrays);

/// Section 2.2 vector add (A = A + B over [1:n], A BLOCK, B CYCLIC) after
/// the standard pass pipeline. The pipeline's output also declares the
/// per-processor temporary T0[0:P-1] (never written) and the vectorized
/// receive buffer TB0[1:n] (a copy of B), and the digest covers them.
Arrays refVecAddPipelined(std::uint64_t fillSeed, int nprocs, long n);

/// The same vector add, owner-computes lowered per element: T0[p] ends
/// with the last B value processor p received, i.e. B at the end of p's
/// BLOCK part of A.
Arrays refVecAddLowered(std::uint64_t fillSeed, int nprocs, long n);

/// 1-D Jacobi with halo cells on `nprocs` BLOCK parts of `block` cells,
/// `sweeps` sweeps: arrays U[1:nprocs*block], HL[0:P-1], HR[0:P-1].
Arrays refJacobi(std::uint64_t fillSeed, int nprocs, long block, int sweeps);

/// Cannon-style ring matrix-vector product: A[0:n-1,0:n-1] (BLOCK,*),
/// X[0:n-1] and Y[0:n-1] BLOCK with n = nprocs*block; the X blocks make
/// `rounds` full trips around the ring and every step accumulates
/// Y[r] += A[r,c] * X[c] over the block held.
Arrays refCannon(std::uint64_t fillSeed, int nprocs, long block, int rounds);

/// Task farm: W[0:0], M[0:P-1] and, when `counted`, C[0:P-1] holding how
/// many jobs each worker drew (a fixed trip count, so the result does not
/// depend on which worker the matchmaker paired with which job).
Arrays refTaskFarm(int nprocs, long jobs, bool counted);

/// Section 2.6 hand migration (examples/programs/ownership.xdp): the
/// migrated half of A[1:8] is doubled by its new owner.
Arrays refOwnership(std::uint64_t fillSeed);

}  // namespace perfbench
