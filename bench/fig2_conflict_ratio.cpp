// FIG2 — reproduces Figure 2 of the paper: the conflict-ratio function
// r̄(m) for graphs with n = 2000 nodes and average degree d = 16:
//   (i)   the worst-case upper bound (Cor. 2 approximation, plus our exact
//         Thm. 3 evaluation),
//   (ii)  a random graph (edges uniform until the target degree),
//   (iii) a union of cliques and disconnected nodes.
// Expected shape (paper): all curves share the initial slope d/(2(n−1))
// (Prop. 2); the bound dominates both empirical curves; curve (iii) rises
// toward 1 faster than the random graph once m is large.
//
// Usage: fig2_conflict_ratio [--n=2000] [--d=16] [--trials=200]
//                            [--csv=fig2.csv]
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "model/conflict_ratio.hpp"
#include "model/theory.hpp"
#include "support/ascii_plot.hpp"

using namespace optipar;

int main(int argc, char** argv) {
  const Options opt(argc, argv);
  const auto n = static_cast<NodeId>(opt.get_int("n", 2000));
  const auto d = static_cast<std::uint32_t>(opt.get_int("d", 16));
  const auto trials = static_cast<std::uint32_t>(opt.get_int("trials", 200));
  const std::uint64_t seed = opt.get_int("seed", 42);

  bench::banner("Fig. 2 — conflict ratio r̄(m), n=" + std::to_string(n) +
                ", d=" + std::to_string(d));

  Rng rng(seed);
  const auto random_g = gen::random_with_average_degree(n, d, rng);
  const auto mix_g = bench::cliques_and_isolated_with_degree(n, d, 20);
  // The exact Thm. 3 curve needs (d+1) | n; round n down for it.
  const NodeId n_exact = n - n % (d + 1);

  bench::note("random graph: d=" + std::to_string(random_g.average_degree()));
  bench::note("cliques+isolated: d=" + std::to_string(mix_g.average_degree()));

  const auto curve_random = estimate_conflict_curve(random_g, trials, rng);
  const auto curve_mix = estimate_conflict_curve(mix_g, trials, rng);

  Table table({"m", "bound_thm3_exact", "bound_cor2", "r_random",
               "r_random_ci95", "r_cliques_isolated", "r_cliq_ci95"});
  std::vector<std::uint32_t> ms;
  for (std::uint32_t m = 1; m <= n; m = std::max(m + 1, m * 9 / 8)) {
    ms.push_back(std::min(m, n));
  }
  if (ms.back() != n) ms.push_back(n);
  for (const auto m : ms) {
    const auto m_exact = std::min(m, n_exact);
    // Cells are built in place: GCC 12 at -O3 reports the string member of
    // an initializer list's numeric variant temporaries as uninitialized.
    std::vector<Table::Cell> row;
    row.reserve(7);
    row.emplace_back(static_cast<std::int64_t>(m));
    row.emplace_back(theory::conflict_ratio_bound_exact(n_exact, d, m_exact));
    row.emplace_back(theory::conflict_ratio_bound_approx(n, d, m));
    row.emplace_back(curve_random.r_bar(m));
    row.emplace_back(curve_random.r_bar_ci95(m));
    row.emplace_back(curve_mix.r_bar(m));
    row.emplace_back(curve_mix.r_bar_ci95(m));
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  // Terminal rendering of the figure itself.
  {
    AsciiPlot plot(72, 20);
    std::vector<double> xs, bound_ys, rnd_ys, mix_ys;
    for (const auto m : ms) {
      xs.push_back(m);
      bound_ys.push_back(theory::conflict_ratio_bound_exact(
          n_exact, d, std::min(m, n_exact)));
      rnd_ys.push_back(curve_random.r_bar(m));
      mix_ys.push_back(curve_mix.r_bar(m));
    }
    plot.add_series("worst-case bound (Thm. 3)", '#', xs, bound_ys);
    plot.add_series("random graph (MC)", '*', xs, rnd_ys);
    plot.add_series("cliques + isolated (MC)", 'o', xs, mix_ys);
    std::cout << "\nr̄(m) vs m:\n";
    plot.render(std::cout);
  }

  // Shape assertions the paper's figure makes visually.
  const double slope = theory::initial_derivative(n, d);
  bench::banner("shape checks");
  // The initial slope needs far more samples than the whole-curve MC, so
  // measure r̄(2) separately at high trial count (r̄(1) = 0 exactly).
  const auto r2_random = estimate_r_at(random_g, 2, 60000, rng);
  const auto r2_mix = estimate_r_at(mix_g, 2, 60000, rng);
  std::cout << "initial slope (Prop. 2, all curves): d/(2(n-1)) = " << slope
            << "\n  measured random:            " << r2_random.mean()
            << " +/- " << r2_random.ci95()
            << "\n  measured cliques+isolated:  " << r2_mix.mean()
            << " +/- " << r2_mix.ci95() << "\n";
  std::size_t bound_violations = 0;
  for (const auto m : ms) {
    const auto m_exact = std::min(m, n_exact);
    const double bound =
        theory::conflict_ratio_bound_exact(n_exact, d, m_exact);
    if (curve_random.r_bar(m) >
        bound + 3 * curve_random.r_bar_ci95(m) + 0.02) {
      ++bound_violations;
    }
  }
  std::cout << "bound dominates random-graph curve: "
            << (bound_violations == 0 ? "YES" : "NO") << " ("
            << bound_violations << " violations)\n";
  std::cout << "mid-range (m=n/8): cliques+isolated=" << curve_mix.r_bar(n / 8)
            << " vs random=" << curve_random.r_bar(n / 8)
            << " (clique structure conflicts harder at moderate m; the "
               "isolated nodes cap its saturation at m=n: "
            << curve_mix.r_bar(n) << " vs " << curve_random.r_bar(n)
            << ")\n";

  if (opt.has("csv")) {
    table.write_csv(opt.get("csv", "fig2.csv"));
    bench::note("wrote " + opt.get("csv", "fig2.csv"));
  }
  return 0;
}
