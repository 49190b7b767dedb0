#include "model/adaptive_estimator.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "graph/algos.hpp"
#include "model/permutation_sweep.hpp"
#include "support/telemetry/telemetry.hpp"

namespace optipar {

namespace {

void validate_config(const AdaptiveConfig& cfg) {
  if (!(cfg.epsilon > 0.0)) {
    throw std::invalid_argument("AdaptiveConfig: epsilon must be > 0");
  }
  if (cfg.min_samples < 2) {
    throw std::invalid_argument("AdaptiveConfig: min_samples must be >= 2");
  }
  if (cfg.batch_samples == 0) {
    throw std::invalid_argument("AdaptiveConfig: batch_samples must be >= 1");
  }
  if (cfg.max_sweeps < 2 * cfg.sweeps_per_sample()) {
    throw std::invalid_argument(
        "AdaptiveConfig: max_sweeps admits fewer than two samples");
  }
}

/// The sampler's mutable state: RNG stream plus every scratch buffer a
/// sweep needs, allocated once and reused across all batches.
struct SamplingState {
  explicit SamplingState(Rng stream) : rng(stream) {}

  Rng rng;
  std::vector<std::uint32_t> perm;
  SweepScratch scratch;
  PrefixSweep sweep;
  std::vector<double> sample_a;  // adjusted aborts per prefix, first sweep
  std::vector<double> sample_b;  // second sweep of an antithetic pair
  std::vector<std::uint32_t> comp_epoch;  // CV "component seen" stamps
  std::uint32_t epoch = 0;
};

/// Sweep one full permutation and write the control-variate-adjusted abort
/// count per prefix m into `out` (size n+1). Without an active CV this is
/// just the raw aborts_at_prefix cast to double.
void adjusted_sweep(const CsrGraph& g, std::span<const NodeId> perm,
                    const CliqueControlVariate* cv, SamplingState& st,
                    std::vector<double>& out) {
  sweep_full_permutation(g, perm, st.scratch, st.sweep);
  const NodeId n = g.num_nodes();
  out.resize(static_cast<std::size_t>(n) + 1);
  out[0] = 0.0;
  if (cv == nullptr) {
    for (std::uint32_t m = 1; m <= n; ++m) {
      out[m] = static_cast<double>(st.sweep.aborts_at_prefix[m]);
    }
    return;
  }
  if (st.comp_epoch.size() < cv->num_clique_comps) {
    st.comp_epoch.resize(cv->num_clique_comps, 0);
  }
  if (++st.epoch == 0) {
    std::fill(st.comp_epoch.begin(), st.comp_epoch.end(), 0u);
    st.epoch = 1;
  }
  // Within a clique component the first launched member commits and every
  // later member aborts, so the per-sweep clique abort count at prefix m is
  // (#clique nodes seen) − (#distinct clique components seen).
  std::uint32_t nodes_seen = 0;
  std::uint32_t comps_seen = 0;
  for (std::uint32_t m = 1; m <= n; ++m) {
    const auto c = cv->clique_comp[perm[m - 1]];
    if (c != CliqueControlVariate::kNotClique) {
      ++nodes_seen;
      if (st.comp_epoch[c] != st.epoch) {
        st.comp_epoch[c] = st.epoch;
        ++comps_seen;
      }
    }
    out[m] = static_cast<double>(st.sweep.aborts_at_prefix[m]) -
             static_cast<double>(nodes_seen - comps_seen) +
             cv->expected_aborts[m];
  }
}

/// One statistical sample: a sweep, or an antithetic pair averaged.
void draw_curve_sample(const CsrGraph& g, const AdaptiveConfig& cfg,
                       const CliqueControlVariate* cv, SamplingState& st,
                       std::vector<StreamingStats>& stats) {
  const NodeId n = g.num_nodes();
  st.rng.permutation_into(n, st.perm);
  adjusted_sweep(g, st.perm, cv, st, st.sample_a);
  if (cfg.antithetic) {
    std::reverse(st.perm.begin(), st.perm.end());  // no RNG draws
    adjusted_sweep(g, st.perm, cv, st, st.sample_b);
    for (std::uint32_t m = 0; m <= n; ++m) {
      stats[m].add(0.5 * (st.sample_a[m] + st.sample_b[m]));
    }
  } else {
    for (std::uint32_t m = 0; m <= n; ++m) stats[m].add(st.sample_a[m]);
  }
}

}  // namespace

CliqueControlVariate build_clique_control_variate(const CsrGraph& g) {
  CliqueControlVariate cv;
  const NodeId n = g.num_nodes();
  cv.clique_comp.assign(n, CliqueControlVariate::kNotClique);
  cv.expected_aborts.assign(static_cast<std::size_t>(n) + 1, 0.0);
  if (n == 0) return cv;

  const Components comps = connected_components(g);
  std::vector<std::uint32_t> size(comps.count, 0);
  for (NodeId v = 0; v < n; ++v) ++size[comps.id[v]];
  // A connected component of size c is a clique iff every member has degree
  // c−1 (neighbor lists are deduplicated, so the count is exact).
  std::vector<std::uint8_t> is_clique(comps.count, 1);
  for (NodeId v = 0; v < n; ++v) {
    if (g.degree(v) + 1 != size[comps.id[v]]) is_clique[comps.id[v]] = 0;
  }
  // Size-1 components never abort: their contribution (both per sweep and
  // in expectation) is identically zero, so they stay unmarked.
  std::vector<std::uint32_t> dense(comps.count,
                                   CliqueControlVariate::kNotClique);
  for (std::uint32_t c = 0; c < comps.count; ++c) {
    if (is_clique[c] && size[c] >= 2) dense[c] = cv.num_clique_comps++;
  }
  if (cv.num_clique_comps == 0) return cv;
  for (NodeId v = 0; v < n; ++v) {
    const auto d = dense[comps.id[v]];
    if (d != CliqueControlVariate::kNotClique) {
      cv.clique_comp[v] = d;
      ++cv.clique_nodes;
    }
  }

  // E[aborts from one size-c clique at prefix m]
  //   = E[#members in prefix] − Pr[>= 1 member in prefix]
  //   = m·c/n − (1 − Π_{i=0..m−1} (n−c−i)/(n−i)),
  // accumulated per distinct size with a running hypergeometric product.
  std::map<std::uint32_t, std::uint32_t> count_by_size;
  for (std::uint32_t c = 0; c < comps.count; ++c) {
    if (dense[c] != CliqueControlVariate::kNotClique) ++count_by_size[size[c]];
  }
  const double dn = static_cast<double>(n);
  for (const auto& [c, count] : count_by_size) {
    double absent = 1.0;  // Pr[no member in prefix m], running over m
    const double dc = static_cast<double>(c);
    for (std::uint32_t m = 1; m <= n; ++m) {
      const double numer = dn - dc - static_cast<double>(m - 1);
      absent = numer <= 0.0 ? 0.0
                            : absent * numer / (dn - static_cast<double>(m - 1));
      const double per_comp =
          static_cast<double>(m) * dc / dn - (1.0 - absent);
      cv.expected_aborts[m] += static_cast<double>(count) * per_comp;
    }
  }
  return cv;
}

AdaptiveCurve estimate_conflict_curve_adaptive(const CsrGraph& input,
                                               const AdaptiveConfig& cfg,
                                               std::uint64_t seed) {
  validate_config(cfg);
  RelabeledGraph rg = relabel(input, cfg.relabel);
  const CsrGraph& g = rg.graph;
  const NodeId n = g.num_nodes();

  CliqueControlVariate cv_store;
  const CliqueControlVariate* cv = nullptr;
  if (cfg.control_variates) {
    cv_store = build_clique_control_variate(g);
    if (cv_store.active()) cv = &cv_store;
  }

  Rng root(seed);
  SamplingState state(root.split());
  std::vector<StreamingStats> stats(static_cast<std::size_t>(n) + 1);

  AdaptiveCurve out;
  out.clique_node_fraction =
      n == 0 ? 0.0
             : static_cast<double>(cv_store.clique_nodes) /
                   static_cast<double>(n);
  const std::uint32_t per_sample = cfg.sweeps_per_sample();
  // Resolve the profiling accumulators once; nullptr means no clock reads
  // anywhere in the loop (ScopedTimer's disabled contract).
  TimerAccumulator* const acc_sweeps =
      cfg.timers != nullptr ? &cfg.timers->at("estimator.sweeps") : nullptr;
  TimerAccumulator* const acc_scan =
      cfg.timers != nullptr ? &cfg.timers->at("estimator.merge") : nullptr;

  while (true) {
    const std::uint32_t want =
        out.samples == 0 ? cfg.min_samples : cfg.batch_samples;
    const std::uint32_t budget = (cfg.max_sweeps - out.sweeps) / per_sample;
    const std::uint32_t batch = std::min(want, budget);
    if (batch == 0) break;

    {
      ScopedTimer sweep_timer(acc_sweeps);
      for (std::uint32_t i = 0; i < batch; ++i) {
        draw_curve_sample(g, cfg, cv, state, stats);
      }
    }
    out.samples += batch;
    out.sweeps += batch * per_sample;

    ScopedTimer scan_timer(acc_scan);
    out.worst_ci = 0.0;
    out.worst_m = 0;
    for (std::uint32_t m = 1; m <= n; ++m) {
      const double ci = stats[m].ci95() / m;
      if (ci > out.worst_ci) {
        out.worst_ci = ci;
        out.worst_m = m;
      }
    }
    scan_timer.stop();
    if (out.samples >= 2 && out.worst_ci <= cfg.epsilon) {
      out.converged = true;
      break;
    }
  }

  out.curve.abort_stats = std::move(stats);
  out.map = std::move(rg.map);
  return out;
}

AdaptivePoint estimate_round_point_adaptive(const CsrGraph& g,
                                            std::uint32_t m,
                                            const AdaptiveConfig& config,
                                            std::uint64_t seed) {
  validate_config(config);
  if (m == 0 || m > g.num_nodes()) {
    throw std::invalid_argument("estimate_round_point_adaptive: bad m");
  }
  RelabeledGraph rg = relabel(g, config.relabel);
  const CsrGraph& gr = rg.graph;
  const NodeId n = gr.num_nodes();

  CliqueControlVariate cv_store;
  const CliqueControlVariate* cv = nullptr;
  if (config.control_variates) {
    cv_store = build_clique_control_variate(gr);
    if (cv_store.active()) cv = &cv_store;
  }

  Rng root(seed);
  Rng rng = root.split();  // the same stream as the curve engine
  Rng::SampleScratch sample_scratch;
  SweepScratch sweep_scratch;
  std::vector<NodeId> active;
  std::vector<std::uint8_t> outcome;
  std::vector<std::uint32_t> comp_epoch;
  std::uint32_t epoch = 0;

  // Aborts of one round over `active` (commit order), CV-adjusted.
  const auto adjusted_round = [&](std::span<const NodeId> order) {
    round_outcome(gr, order, sweep_scratch, outcome);
    std::uint32_t committed = 0;
    for (const auto c : outcome) committed += (c == 1);
    double k = static_cast<double>(m - committed);
    if (cv != nullptr) {
      if (comp_epoch.size() < cv->num_clique_comps) {
        comp_epoch.resize(cv->num_clique_comps, 0);
      }
      if (++epoch == 0) {
        std::fill(comp_epoch.begin(), comp_epoch.end(), 0u);
        epoch = 1;
      }
      std::uint32_t nodes_hit = 0, comps_hit = 0;
      for (const NodeId v : order) {
        const auto c = cv->clique_comp[v];
        if (c != CliqueControlVariate::kNotClique) {
          ++nodes_hit;
          if (comp_epoch[c] != epoch) {
            comp_epoch[c] = epoch;
            ++comps_hit;
          }
        }
      }
      k += cv->expected_aborts[m] -
           static_cast<double>(nodes_hit - comps_hit);
    }
    return k;
  };

  AdaptivePoint out;
  const std::uint32_t per_sample = config.sweeps_per_sample();
  while (true) {
    const std::uint32_t want =
        out.samples == 0 ? config.min_samples : config.batch_samples;
    const std::uint32_t budget = (config.max_sweeps - out.rounds) / per_sample;
    const std::uint32_t batch = std::min(want, budget);
    if (batch == 0) break;
    for (std::uint32_t i = 0; i < batch; ++i) {
      rng.sample_without_replacement_into(n, m, sample_scratch, active);
      double k = adjusted_round(active);
      if (config.antithetic) {
        std::reverse(active.begin(), active.end());  // same set, reversed
        k = 0.5 * (k + adjusted_round(active));      // commit order
      }
      out.r.add(k / static_cast<double>(m));
      out.committed.add(static_cast<double>(m) - k);
    }
    out.samples += batch;
    out.rounds += batch * per_sample;
    if (out.samples >= 2 && out.r.ci95() <= config.epsilon) {
      out.converged = true;
      break;
    }
  }
  return out;
}

MuEstimate find_mu_adaptive(const CsrGraph& g, double rho,
                            const AdaptiveConfig& config,
                            std::uint64_t seed) {
  MuEstimate est;
  est.curve = estimate_conflict_curve_adaptive(g, config, seed);
  est.mu = find_mu(est.curve.curve, rho);
  return est;
}

}  // namespace optipar
