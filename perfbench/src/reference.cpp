#include "reference.hpp"

#include <cstring>

#include "xdp/apps/programs.hpp"

namespace perfbench {
namespace {

double fill1(std::uint64_t seed, int sym, long i) {
  return xdp::apps::cellValueAt(seed, sym, xdp::sec::Point{i});
}

double fill2(std::uint64_t seed, int sym, long i, long j) {
  return xdp::apps::cellValueAt(seed, sym, xdp::sec::Point{i, j});
}

/// fill(X[lb:ub]) of symbol `sym`, as a Fortran-order vector.
std::vector<double> filled(std::uint64_t seed, int sym, long lb, long ub) {
  std::vector<double> v;
  for (long i = lb; i <= ub; ++i) v.push_back(fill1(seed, sym, i));
  return v;
}

}  // namespace

std::uint64_t digestOf(const Arrays& arrays) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& a : arrays) {
    for (double d : a) {
      unsigned char b[sizeof(double)];
      std::memcpy(b, &d, sizeof d);
      for (unsigned char c : b) {
        h ^= c;
        h *= 1099511628211ULL;
      }
    }
  }
  return h;
}

Arrays refVecAddPipelined(std::uint64_t fillSeed, int nprocs, long n) {
  std::vector<double> a = filled(fillSeed, 0, 1, n);
  const std::vector<double> b = filled(fillSeed, 1, 1, n);
  for (long i = 0; i < n; ++i) a[i] = a[i] + b[i];
  return {a, b, std::vector<double>(nprocs, 0.0), b};
}

Arrays refVecAddLowered(std::uint64_t fillSeed, int nprocs, long n) {
  std::vector<double> a = filled(fillSeed, 0, 1, n);
  const std::vector<double> b = filled(fillSeed, 1, 1, n);
  for (long i = 0; i < n; ++i) a[i] = a[i] + b[i];
  const long part = n / nprocs;
  std::vector<double> t(nprocs);
  for (int p = 0; p < nprocs; ++p) t[p] = b[(p + 1) * part - 1];
  return {a, b, t};
}

Arrays refJacobi(std::uint64_t fillSeed, int nprocs, long block,
                 int sweeps) {
  const long n = nprocs * block;
  std::vector<double> u = filled(fillSeed, 0, 1, n);
  std::vector<double> hl(nprocs, 0.0), hr(nprocs, 0.0);
  // U is 1-based in the program; at(i) maps to the vector.
  auto at = [&u](long i) -> double& { return u[i - 1]; };
  for (int t = 0; t < sweeps; ++t) {
    // Halos carry the neighbours' boundary values from before the sweep.
    for (int p = 0; p < nprocs; ++p) {
      if (p > 0) hl[p] = at(block * p);
      if (p < nprocs - 1) hr[p] = at(block * p + block + 1);
    }
    for (int p = 0; p < nprocs; ++p) {
      const long lo = block * p + 1, hi = block * p + block;
      if (p > 0)
        at(lo) = 0.25 * hl[p] + 0.5 * at(lo) + 0.25 * at(lo + 1);
      if (p < nprocs - 1)
        at(hi) = 0.25 * at(hi - 1) + 0.5 * at(hi) + 0.25 * hr[p];
      for (long i = lo + 1; i <= hi - 1; ++i)
        at(i) = 0.25 * at(i - 1) + 0.5 * at(i) + 0.25 * at(i + 1);
    }
  }
  return {u, hl, hr};
}

Arrays refCannon(std::uint64_t fillSeed, int nprocs, long block,
                 int rounds) {
  const long n = nprocs * block;
  std::vector<double> a(n * n);
  for (long j = 0; j < n; ++j)
    for (long i = 0; i < n; ++i) a[i + n * j] = fill2(fillSeed, 0, i, j);
  const std::vector<double> x = filled(fillSeed, 1, 0, n - 1);
  std::vector<double> y(n, 0.0);
  for (int p = 0; p < nprocs; ++p) {
    for (int s = 0; s < rounds * nprocs; ++s) {
      const long j = (p + s) % nprocs;
      for (long r = block * p; r < block * p + block; ++r)
        for (long c = block * j; c < block * j + block; ++c)
          y[r] = y[r] + a[r + n * c] * x[c];
    }
  }
  return {a, x, y};
}

Arrays refTaskFarm(int nprocs, long jobs, bool counted) {
  Arrays out{{static_cast<double>(jobs)}, std::vector<double>(nprocs, 0.0)};
  if (counted) {
    std::vector<double> c(nprocs, 0.0);
    for (int p = 1; p < nprocs; ++p)
      for (long t = p; t <= jobs; t += nprocs - 1) c[p] = c[p] + 1;
    out.push_back(c);
  }
  return out;
}

Arrays refOwnership(std::uint64_t fillSeed) {
  std::vector<double> a = filled(fillSeed, 0, 1, 8);
  for (int i = 0; i < 4; ++i) a[i] = a[i] * 2.0;
  return {a};
}

}  // namespace perfbench
