#include "xdp/apps/jacobi.hpp"

#include "xdp/apps/programs.hpp"
#include "xdp/support/check.hpp"

namespace xdp::apps {

using dist::DimSpec;
using dist::Distribution;
using sec::Index;
using sec::Point;
using sec::Section;
using sec::Triplet;

namespace {

double initValue(const JacobiConfig& cfg, Index i, Index j) {
  return cellValueAt(cfg.seed, 0, Point{i, j});
}

}  // namespace

JacobiResult runJacobi(const JacobiConfig& cfg) {
  XDP_CHECK(cfg.rows >= cfg.nprocs && cfg.cols >= 3,
            "jacobi grid too small for the processor count");
  const Index n = cfg.rows, m = cfg.cols;
  const int P = cfg.nprocs;

  rt::Runtime runtime(P);
  Section g{Triplet(1, n), Triplet(1, m)};
  Distribution rowBlock(g, {DimSpec::block(P), DimSpec::collapsed()});
  const int A = runtime.declareArray<double>("A", g, rowBlock);
  const int B = runtime.declareArray<double>("B", g, rowBlock);
  // Halo rows: HN[p,*] caches the row just above p's block of the current
  // buffer; HS[p,*] the row just below.
  Section gh{Triplet(0, P - 1), Triplet(1, m)};
  Distribution haloDist(gh, {DimSpec::block(P), DimSpec::collapsed()});
  const int HN = runtime.declareArray<double>("HN", gh, haloDist);
  const int HS = runtime.declareArray<double>("HS", gh, haloDist);

  runtime.run([&](rt::Proc& p) {
    const int me = p.mypid();
    const sec::RegionList part = rowBlock.localPart(me);
    if (part.empty()) return;
    const Index rlo = part.sections()[0].dim(0).lb();
    const Index rhi = part.sections()[0].dim(0).ub();

    // Both buffers start from the initial condition, so global boundary
    // rows/columns stay correct without ever being rewritten.
    for (Index i = rlo; i <= rhi; ++i) {
      std::vector<double> row(static_cast<std::size_t>(m));
      for (Index j = 1; j <= m; ++j)
        row[static_cast<std::size_t>(j - 1)] = initValue(cfg, i, j);
      Section rowSec{Triplet(i), Triplet(1, m)};
      p.write<double>(A, rowSec, row);
      p.write<double>(B, rowSec, row);
    }
    p.barrier();  // neighbours' initial rows must exist before exchange

    auto dests = [&](int q) -> std::optional<std::vector<int>> {
      if (!cfg.bindDestinations) return std::nullopt;
      return std::vector<int>{q};
    };

    int cur = A, nxt = B;
    for (int it = 0; it < cfg.iterations; ++it) {
      Section myTop{Triplet(rlo), Triplet(1, m)};
      Section myBot{Triplet(rhi), Triplet(1, m)};
      Section haloN{Triplet(me), Triplet(1, m)};
      Section haloS{Triplet(me), Triplet(1, m)};
      // --- send boundary rows, post halo receives -----------------------
      if (cfg.plan == HaloPlan::RowSections) {
        if (me > 0) p.send(cur, myTop, dests(me - 1));
        if (me < P - 1) p.send(cur, myBot, dests(me + 1));
        if (me > 0)
          p.recv(HN, haloN, cur, Section{Triplet(rlo - 1), Triplet(1, m)});
        if (me < P - 1)
          p.recv(HS, haloS, cur, Section{Triplet(rhi + 1), Triplet(1, m)});
        if (me > 0) p.await(HN, haloN);
        if (me < P - 1) p.await(HS, haloS);
      } else {  // ElementWise: one message per halo element
        for (Index j = 1; j <= m; ++j) {
          if (me > 0)
            p.send(cur, Section{Triplet(rlo), Triplet(j)}, dests(me - 1));
          if (me < P - 1)
            p.send(cur, Section{Triplet(rhi), Triplet(j)}, dests(me + 1));
        }
        for (Index j = 1; j <= m; ++j) {
          if (me > 0)
            p.recv(HN, Section{Triplet(me), Triplet(j)}, cur,
                   Section{Triplet(rlo - 1), Triplet(j)});
          if (me < P - 1)
            p.recv(HS, Section{Triplet(me), Triplet(j)}, cur,
                   Section{Triplet(rhi + 1), Triplet(j)});
        }
        if (me > 0) p.await(HN, haloN);
        if (me < P - 1) p.await(HS, haloS);
      }

      // --- relax the interior rows of my block --------------------------
      auto readRow = [&](Index i) {
        if (i < rlo) return p.read<double>(HN, haloN);
        if (i > rhi) return p.read<double>(HS, haloS);
        return p.read<double>(cur, Section{Triplet(i), Triplet(1, m)});
      };
      const Index lo = std::max<Index>(2, rlo);
      const Index hi = std::min<Index>(n - 1, rhi);
      for (Index i = lo; i <= hi; ++i) {
        const std::vector<double> north = readRow(i - 1);
        const std::vector<double> mid = readRow(i);
        const std::vector<double> south = readRow(i + 1);
        std::vector<double> out = mid;  // boundary columns keep old values
        for (Index j = 2; j <= m - 1; ++j) {
          const auto ju = static_cast<std::size_t>(j - 1);
          out[ju] =
              0.25 * (north[ju] + south[ju] + mid[ju - 1] + mid[ju + 1]);
        }
        p.write<double>(nxt, Section{Triplet(i), Triplet(1, m)}, out);
      }
      if (cfg.flopCost > 0.0)
        p.compute(cfg.flopCost * static_cast<double>((hi - lo + 1) * m));
      std::swap(cur, nxt);
      p.barrier();  // iteration boundary: halo slots are reused
    }
  });

  JacobiResult r;
  const int finalSym = (cfg.iterations % 2 == 0) ? A : B;
  r.grid = gatherF64(runtime, finalSym, g);
  r.net = runtime.fabric().totalStats();
  r.makespan = runtime.fabric().makespan();
  return r;
}

std::vector<double> jacobiReference(const JacobiConfig& cfg) {
  const Index n = cfg.rows, m = cfg.cols;
  std::vector<double> cur(static_cast<std::size_t>(n * m));
  Section g{Triplet(1, n), Triplet(1, m)};
  g.forEach([&](const Point& pt) {
    cur[static_cast<std::size_t>(g.fortranPos(pt))] =
        initValue(cfg, pt[0], pt[1]);
  });
  std::vector<double> nxt = cur;
  auto at = [&](std::vector<double>& v, Index i, Index j) -> double& {
    return v[static_cast<std::size_t>((i - 1) + n * (j - 1))];
  };
  for (int it = 0; it < cfg.iterations; ++it) {
    for (Index i = 2; i <= n - 1; ++i)
      for (Index j = 2; j <= m - 1; ++j)
        at(nxt, i, j) = 0.25 * (at(cur, i - 1, j) + at(cur, i + 1, j) +
                                at(cur, i, j - 1) + at(cur, i, j + 1));
    std::swap(cur, nxt);
  }
  return cur;
}

}  // namespace xdp::apps
