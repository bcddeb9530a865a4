// Tests for the DSE layer: design-space enumeration validity, Pareto
// front invariants (including randomized property sweeps), explorer
// pruning soundness, and decision-maker preset behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <set>
#include <string>

#include "dse/decision_maker.hpp"
#include "dse/design_space.hpp"
#include "dse/explorer.hpp"
#include "dse/pareto.hpp"
#include "estimator/profile_collector.hpp"
#include "runtime/templates.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace gnav::dse {
namespace {

TEST(DesignSpace, EnumerationIsValidAndDeduplicated) {
  const DesignSpace space = DesignSpace::full(BaseSettings{});
  const auto configs = space.enumerate();
  EXPECT_GT(configs.size(), 500u);
  EXPECT_LT(configs.size(), space.raw_size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_NO_THROW(configs[i].validate());
  }
  // Every pair is distinct: a summary names every knob the space sets,
  // so distinct summaries mean distinct configs.
  std::vector<std::string> summaries;
  for (const auto& c : configs) summaries.push_back(c.summary());
  std::sort(summaries.begin(), summaries.end());
  EXPECT_EQ(std::adjacent_find(summaries.begin(), summaries.end()),
            summaries.end());
}

TEST(DesignSpace, ReducedSpaceIsExhaustivelyTrainable) {
  const DesignSpace space = DesignSpace::reduced(BaseSettings{});
  const auto configs = space.enumerate();
  EXPECT_GE(configs.size(), 20u);
  EXPECT_LE(configs.size(), 120u);
}

TEST(DesignSpace, BaseSettingsArePinned) {
  BaseSettings base;
  base.model = nn::ModelKind::kGat;
  base.num_layers = 3;
  for (const auto& c : DesignSpace::reduced(base).enumerate()) {
    EXPECT_EQ(c.model, nn::ModelKind::kGat);
    EXPECT_EQ(c.num_layers, 3u);
  }
}

TEST(DesignSpace, MaterializeRejectsInvalidCombos) {
  const DesignSpace space = DesignSpace::full(BaseSettings{});
  // bias level > 0 with cache level 0 (policy none) must be invalid.
  std::vector<std::size_t> levels(space.axes().size(), 0);
  levels[4] = 1;  // bias axis
  runtime::TrainConfig out;
  EXPECT_FALSE(space.materialize(levels, &out));
  levels[4] = 0;
  EXPECT_TRUE(space.materialize(levels, &out));
  levels[0] = 999;
  EXPECT_THROW(space.materialize(levels, &out), Error);
}

TEST(Pareto, DominanceDefinition) {
  const PerfPoint a{1.0, 1.0, 0.9};
  const PerfPoint b{2.0, 1.0, 0.9};
  const PerfPoint c{1.0, 1.0, 0.9};
  EXPECT_TRUE(dominates(a, b));
  EXPECT_FALSE(dominates(b, a));
  EXPECT_FALSE(dominates(a, c));  // equal points do not dominate
  const PerfPoint d{0.5, 2.0, 0.8};
  EXPECT_FALSE(dominates(a, d));
  EXPECT_FALSE(dominates(d, a));  // incomparable
}

TEST(Pareto, FrontInvariantsOnRandomClouds) {
  Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<PerfPoint> points;
    for (int i = 0; i < 120; ++i) {
      points.push_back(
          {rng.uniform(1, 10), rng.uniform(1, 10), rng.uniform(0.3, 1.0)});
    }
    const auto front = pareto_front(points);
    ASSERT_FALSE(front.empty());
    std::set<std::size_t> front_set(front.begin(), front.end());
    // 1. no front member dominates another front member
    for (auto i : front) {
      for (auto j : front) {
        if (i != j) {
          EXPECT_FALSE(dominates(points[i], points[j]));
        }
      }
    }
    // 2. every non-front point is dominated by some front member
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (front_set.contains(i)) continue;
      bool dominated = false;
      for (auto j : front) {
        if (dominates(points[j], points[i])) {
          dominated = true;
          break;
        }
      }
      EXPECT_TRUE(dominated) << "point " << i << " not dominated";
    }
  }
}

TEST(Pareto, TwoDimensionalProjections) {
  const std::vector<PerfPoint> points = {
      {1.0, 5.0, 0.5},  // best time
      {5.0, 1.0, 0.5},  // best memory
      {3.0, 3.0, 0.9},  // best accuracy
      {4.0, 4.0, 0.4},  // dominated everywhere
  };
  const auto tm = pareto_front_2d(points, Plane::kTimeMemory);
  EXPECT_EQ(std::set<std::size_t>(tm.begin(), tm.end()),
            (std::set<std::size_t>{0, 1, 2}));
  const auto ma = pareto_front_2d(points, Plane::kMemoryAccuracy);
  EXPECT_TRUE(std::set<std::size_t>(ma.begin(), ma.end()).contains(1));
  EXPECT_TRUE(std::set<std::size_t>(ma.begin(), ma.end()).contains(2));
  const auto ta = pareto_front_2d(points, Plane::kTimeAccuracy);
  EXPECT_TRUE(std::set<std::size_t>(ta.begin(), ta.end()).contains(0));
  EXPECT_FALSE(std::set<std::size_t>(ta.begin(), ta.end()).contains(3));
}

// The all-pairs scans that pareto_front and pareto_front_2d replaced,
// kept verbatim as the reference their index vectors must equal.
std::vector<std::size_t> quadratic_front(const std::vector<PerfPoint>& points) {
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < points.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < points.size() && !dominated; ++j) {
      if (j != i && dominates(points[j], points[i])) dominated = true;
    }
    if (!dominated) front.push_back(i);
  }
  return front;
}

std::pair<double, double> quadratic_project(const PerfPoint& p, Plane plane) {
  switch (plane) {
    case Plane::kTimeMemory:
      return {p.time_s, p.memory_gb};
    case Plane::kMemoryAccuracy:
      return {p.memory_gb, -p.accuracy};
    case Plane::kTimeAccuracy:
      return {p.time_s, -p.accuracy};
  }
  return {0.0, 0.0};
}

std::vector<std::size_t> quadratic_front_2d(
    const std::vector<PerfPoint>& points, Plane plane) {
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto [xi, yi] = quadratic_project(points[i], plane);
    bool dominated = false;
    for (std::size_t j = 0; j < points.size() && !dominated; ++j) {
      if (j == i) continue;
      const auto [xj, yj] = quadratic_project(points[j], plane);
      const bool no_worse = xj <= xi && yj <= yi;
      const bool strictly = xj < xi || yj < yi;
      if (no_worse && strictly) dominated = true;
    }
    if (!dominated) front.push_back(i);
  }
  return front;
}

double& coordinate(PerfPoint& p, int c) {
  return c == 0 ? p.time_s : c == 1 ? p.memory_gb : p.accuracy;
}

/// n points whose coordinates are drawn from `values` (index c holds the
/// choices for coordinate c), so small choice sets give many ties.
std::vector<PerfPoint> drawn_points(
    std::size_t n, const std::vector<std::vector<double>>& values, Rng& rng) {
  std::vector<PerfPoint> points(n);
  for (PerfPoint& p : points) {
    for (int c = 0; c < 3; ++c) {
      const auto& choices = values[static_cast<std::size_t>(c)];
      coordinate(p, c) = choices[rng.uniform_index(choices.size())];
    }
  }
  return points;
}

TEST(Pareto, FrontMatchesQuadraticReference) {
  std::vector<std::pair<std::string, std::vector<PerfPoint>>> inputs;
  Rng rng(29);
  for (const int n : {0, 1, 2, 17, 500, 4000}) {
    std::vector<PerfPoint> cloud;
    for (int i = 0; i < n; ++i) {
      cloud.push_back(
          {rng.uniform(1, 10), rng.uniform(1, 10), rng.uniform(0.3, 1.0)});
    }
    inputs.emplace_back("random cloud n=" + std::to_string(n), cloud);
  }
  const std::vector<std::vector<double>> grid = {
      {1.0, 2.0, 3.0}, {1.0, 2.0, 3.0}, {0.5, 0.7, 0.9}};
  inputs.emplace_back("3x3x3 grid", drawn_points(300, grid, rng));
  const std::vector<double> zeros = {-0.0, 0.0, 1.0};
  inputs.emplace_back("signed zeros",
                      drawn_points(200, {zeros, zeros, zeros}, rng));
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int c = 0; c < 3; ++c) {
    std::vector<std::vector<double>> with_inf = grid;
    with_inf[static_cast<std::size_t>(c)].push_back(inf);
    with_inf[static_cast<std::size_t>(c)].push_back(-inf);
    inputs.emplace_back("inf in coordinate " + std::to_string(c),
                        drawn_points(200, with_inf, rng));
    std::vector<std::vector<double>> with_nan = grid;
    with_nan[static_cast<std::size_t>(c)].push_back(nan);
    inputs.emplace_back("NaN in coordinate " + std::to_string(c),
                        drawn_points(200, with_nan, rng));
  }
  inputs.emplace_back("all equal",
                      std::vector<PerfPoint>(50, PerfPoint{2.0, 3.0, 0.8}));
  std::vector<PerfPoint> anti;
  for (int i = 0; i < 100; ++i) {
    anti.push_back({1.0 + i, 100.0 - i, 0.5 + 0.001 * i});
  }
  inputs.emplace_back("anti-correlated", anti);
  ASSERT_EQ(quadratic_front(anti).size(), anti.size());  // all on the front

  for (const auto& [what, points] : inputs) {
    SCOPED_TRACE(what);
    EXPECT_EQ(pareto_front(points), quadratic_front(points));
    for (const Plane plane : {Plane::kTimeMemory, Plane::kMemoryAccuracy,
                              Plane::kTimeAccuracy}) {
      SCOPED_TRACE("plane " + std::to_string(static_cast<int>(plane)));
      EXPECT_EQ(pareto_front_2d(points, plane),
                quadratic_front_2d(points, plane));
    }
  }
}

TEST(DecisionMaker, PresetsEmphasizeTheirMetrics) {
  // Construct a tiny feasible set with clear winners per priority.
  ExplorationResult result;
  auto add = [&](double t, double m, double a) {
    Candidate c;
    c.config = runtime::template_pyg();
    c.predicted.time_s = t;
    c.predicted.memory_gb = m;
    c.predicted.accuracy = a;
    result.feasible.push_back(c);
  };
  add(1.0, 4.0, 0.70);  // fast, hungry, ok       (Ex-T* favorite)
  add(4.0, 1.0, 0.72);  // slow, lean             (Ex-M* candidate)
  add(2.0, 2.0, 0.71);  // balanced knee
  add(3.5, 3.5, 0.90);  // accurate but expensive (Ex-*A candidate)
  for (std::size_t i = 0; i < result.feasible.size(); ++i) {
    result.pareto.push_back(i);
  }

  const auto pick = [&](const ExploreTargets& t) {
    return DecisionMaker(t).decide(result).feasible_index;
  };
  const auto tm = pick(targets_extreme_time_memory());
  const auto ma = pick(targets_extreme_memory_accuracy());
  const auto ta = pick(targets_extreme_time_accuracy());
  // Ex-TM must not pick the accuracy-at-all-costs point.
  EXPECT_NE(tm, 3u);
  // Ex-MA must not pick the memory-hungry fast point.
  EXPECT_NE(ma, 0u);
  // Ex-TA must not pick the slowest point.
  EXPECT_NE(ta, 1u);
  // Different priorities should not all collapse to one choice.
  EXPECT_FALSE(tm == ma && ma == ta);
}

TEST(DecisionMaker, FittedOverlapFlipsWinnerVsAnalytic) {
  // Two Pareto-incomparable candidates. A looks faster under Eq. 4's
  // analytic overlap (time_s already folds a 0.5 ratio in), but the
  // fitted overlap model says the async executor only reaches a 1.4
  // wall/serial ratio — its REAL wall is 0.9 / 0.5 * 1.4 = 2.52 s,
  // slower than B. Ranking must follow predict_pipelined_wall_s's
  // rescaling (effective_time_s), not the analytic optimum.
  const auto make_result = [](bool fitted) {
    ExplorationResult result;
    Candidate a;
    a.config = runtime::template_pagraph_full();
    a.config.pipeline_overlap = true;
    a.predicted.time_s = 0.9;
    a.predicted.memory_gb = 2.0;
    a.predicted.accuracy = 0.7;
    a.predicted.overlap_ratio_analytic = 0.5;
    a.predicted.overlap_ratio = fitted ? 1.4 : 0.5;
    a.predicted.overlap_fitted = fitted;
    Candidate b;
    b.config = runtime::template_pyg();
    b.predicted.time_s = 1.0;
    b.predicted.memory_gb = 1.0;
    b.predicted.accuracy = 0.7;
    result.feasible = {a, b};
    result.pareto = {0, 1};
    return result;
  };

  ExploreTargets targets{1.0, 0.1, 0.0, "time-first"};
  const DecisionMaker maker(targets);

  // Analytic-only arm (overlap model unfitted): A's optimistic 0.9 s wins.
  const Decision analytic = maker.decide(make_result(false));
  EXPECT_EQ(analytic.feasible_index, 0u);
  EXPECT_DOUBLE_EQ(analytic.ranked_time_s, 0.9);

  // Fitted arm: the measured-overlap correction flips the winner to B.
  const Decision fitted = maker.decide(make_result(true));
  EXPECT_EQ(fitted.feasible_index, 1u);
  EXPECT_DOUBLE_EQ(fitted.ranked_time_s, 1.0);
  // The losing candidate's effective time is exactly the pipelined-wall
  // rescaling serve admission uses.
  EXPECT_DOUBLE_EQ(effective_time_s(make_result(true).feasible[0].predicted),
                   0.9 * (1.4 / 0.5));
}

TEST(DecisionMaker, ThrowsOnEmptyAndValidatesWeights) {
  ExplorationResult empty;
  EXPECT_THROW(DecisionMaker(targets_balance()).decide(empty), Error);
  ExploreTargets bad;
  bad.time_weight = -1.0;
  EXPECT_THROW(DecisionMaker{bad}, Error);
  ExploreTargets zero{0.0, 0.0, 0.0, "zero"};
  EXPECT_THROW(DecisionMaker{zero}, Error);
}

/// Explorer tests need a fitted estimator; build a small corpus once.
class ExplorerFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    hw_ = new hw::HardwareProfile(hw::make_profile("rtx4090"));
    dataset_ = new graph::Dataset(graph::make_power_law_augmentation(1, 4));
    // Predictions target the reddit2 analogue: its real-scale
    // extrapolation gives cache levels that actually stress a memory
    // budget, which the pruning tests rely on.
    stats_ = new estimator::DatasetStats(estimator::compute_dataset_stats(
        graph::load_dataset("reddit2")));
    estimator::CollectorOptions opts;
    opts.configs_per_dataset = 16;
    opts.epochs = 1;
    est_ = new estimator::PerfEstimator(*hw_);
    est_->fit(estimator::collect_profiles(*dataset_, *hw_, opts));
  }
  static void TearDownTestSuite() {
    delete est_;
    delete stats_;
    delete dataset_;
    delete hw_;
  }
  static hw::HardwareProfile* hw_;
  static graph::Dataset* dataset_;
  static estimator::DatasetStats* stats_;
  static estimator::PerfEstimator* est_;
};

hw::HardwareProfile* ExplorerFixture::hw_ = nullptr;
graph::Dataset* ExplorerFixture::dataset_ = nullptr;
estimator::DatasetStats* ExplorerFixture::stats_ = nullptr;
estimator::PerfEstimator* ExplorerFixture::est_ = nullptr;

TEST_F(ExplorerFixture, DfsMatchesExhaustiveWhenUnconstrained) {
  const DesignSpace space = DesignSpace::reduced(BaseSettings{});
  const Explorer explorer(space, *est_, *stats_);
  RuntimeConstraints none;
  const auto dfs = explorer.explore(none, {});
  const auto exhaustive = explorer.explore_exhaustive(none);
  // Without constraints nothing may be pruned: same feasible count.
  EXPECT_EQ(dfs.stats.subtrees_pruned, 0u);
  EXPECT_EQ(dfs.feasible.size(), exhaustive.feasible.size());
  EXPECT_FALSE(dfs.pareto.empty());
}

TEST_F(ExplorerFixture, MemoryConstraintPrunesAndStaysSound) {
  const DesignSpace space = DesignSpace::full(BaseSettings{});
  const Explorer explorer(space, *est_, *stats_);
  RuntimeConstraints unconstrained;
  RuntimeConstraints tight;
  tight.max_memory_gb = 0.8;
  const auto all = explorer.explore(unconstrained, {});
  const auto constrained = explorer.explore(tight, {});
  EXPECT_GT(constrained.stats.subtrees_pruned, 0u);
  EXPECT_LT(constrained.stats.leaves_evaluated,
            all.stats.leaves_evaluated);
  EXPECT_LT(constrained.feasible.size(), all.feasible.size());
  for (const auto& c : constrained.feasible) {
    EXPECT_LE(c.predicted.memory_gb, tight.max_memory_gb);
  }
  // Soundness: pruning removes only infeasible subtrees, so DFS and the
  // exhaustive sweep agree exactly on the feasible set size.
  const auto exhaustive = explorer.explore_exhaustive(tight);
  EXPECT_EQ(constrained.feasible.size(), exhaustive.feasible.size());
}

TEST_F(ExplorerFixture, TraversalCountsArePinned) {
  // Read when the Γ bound was evaluated at every node below the cache
  // axis too; it now runs at cache-axis nodes only, which must leave
  // every count unchanged.
  struct Pinned {
    double budget_gb;
    std::size_t visited;
    std::size_t pruned;
    std::size_t leaves;
  };
  const DesignSpace space = DesignSpace::full(BaseSettings{});
  const Explorer explorer(space, *est_, *stats_);
  for (const Pinned& p : {Pinned{0.0, 30100, 0, 10944},
                          Pinned{0.8, 26932, 48, 9216},
                          Pinned{0.65, 17428, 192, 4032}}) {
    RuntimeConstraints budget;
    budget.max_memory_gb = p.budget_gb;
    const ExplorationStats stats = explorer.explore(budget, {}).stats;
    EXPECT_EQ(stats.nodes_visited, p.visited) << p.budget_gb << " GB";
    EXPECT_EQ(stats.subtrees_pruned, p.pruned) << p.budget_gb << " GB";
    EXPECT_EQ(stats.leaves_evaluated, p.leaves) << p.budget_gb << " GB";
  }
}

/// What the explorer's wave must reproduce bit for bit: the templates
/// (pinned to the space's base settings as the explorer pins them) when
/// `with_templates`, then every enumerated config, each predicted alone
/// and kept when it meets `c`.
std::vector<Candidate> serial_reference(const DesignSpace& space,
                                        const estimator::PerfEstimator& est,
                                        const estimator::DatasetStats& stats,
                                        const RuntimeConstraints& c,
                                        bool with_templates) {
  std::vector<runtime::TrainConfig> configs;
  if (with_templates) {
    for (runtime::TrainConfig t : runtime::all_templates()) {
      t.model = space.base().model;
      t.num_layers = space.base().num_layers;
      t.dropout = space.base().dropout;
      t.learning_rate = space.base().learning_rate;
      configs.push_back(t);
    }
  }
  for (const runtime::TrainConfig& config : space.enumerate()) {
    configs.push_back(config);
  }
  std::vector<Candidate> kept;
  for (const runtime::TrainConfig& config : configs) {
    const estimator::PerfPrediction p = est.predict(config, stats);
    if (c.max_epoch_time_s > 0.0 && p.time_s > c.max_epoch_time_s) continue;
    if (c.max_memory_gb > 0.0 && p.memory_gb > c.max_memory_gb) continue;
    if (c.min_accuracy > 0.0 && p.accuracy < c.min_accuracy) continue;
    kept.push_back({config, p});
  }
  return kept;
}

/// Asserts `got` is `want` bit for bit: configs, all nine prediction
/// fields, the front and the stats.
void expect_same_result(const ExplorationResult& got,
                        const std::vector<Candidate>& want,
                        const ExplorationStats& want_stats) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  ASSERT_EQ(got.feasible.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const Candidate& g = got.feasible[i];
    const Candidate& w = want[i];
    ASSERT_TRUE(g.config == w.config) << i << ": " << g.config.summary();
    ASSERT_EQ(g.config.summary(), w.config.summary()) << i;
    const estimator::PerfPrediction& a = g.predicted;
    const estimator::PerfPrediction& b = w.predicted;
    ASSERT_EQ(bits(a.time_s), bits(b.time_s)) << i;
    ASSERT_EQ(bits(a.memory_gb), bits(b.memory_gb)) << i;
    ASSERT_EQ(bits(a.accuracy), bits(b.accuracy)) << i;
    ASSERT_EQ(bits(a.batch_nodes), bits(b.batch_nodes)) << i;
    ASSERT_EQ(bits(a.batch_edges), bits(b.batch_edges)) << i;
    ASSERT_EQ(bits(a.cache_hit_rate), bits(b.cache_hit_rate)) << i;
    ASSERT_EQ(bits(a.overlap_ratio), bits(b.overlap_ratio)) << i;
    ASSERT_EQ(bits(a.overlap_ratio_analytic), bits(b.overlap_ratio_analytic))
        << i;
    ASSERT_EQ(a.overlap_fitted, b.overlap_fitted) << i;
  }
  std::vector<PerfPoint> points;
  for (const Candidate& c : want) points.push_back(c.point());
  EXPECT_EQ(got.pareto, pareto_front(points));
  EXPECT_EQ(got.stats.nodes_visited, want_stats.nodes_visited);
  EXPECT_EQ(got.stats.subtrees_pruned, want_stats.subtrees_pruned);
  EXPECT_EQ(got.stats.leaves_evaluated, want_stats.leaves_evaluated);
  EXPECT_EQ(got.stats.feasible, want_stats.feasible);
}

TEST_F(ExplorerFixture, ExploreMatchesSerialReferenceBitwise) {
  // The wave's parts, concatenated, are the serial DFS: its candidates
  // and predictions in order, its front, and the traversal counts
  // pinned below (plus one leaf per template), at any pool size.
  struct Budget {
    double gb;
    std::size_t visited;
    std::size_t pruned;
    std::size_t leaves;
  };
  const DesignSpace space = DesignSpace::full(BaseSettings{});
  const std::size_t templates = runtime::all_templates().size();
  support::ThreadPool pool1(1);
  support::ThreadPool pool4(4);
  for (const Budget& b : {Budget{0.0, 30100, 0, 10944},
                          Budget{0.8, 26932, 48, 9216},
                          Budget{0.65, 17428, 192, 4032}}) {
    RuntimeConstraints budget;
    budget.max_memory_gb = b.gb;
    const std::vector<Candidate> want =
        serial_reference(space, *est_, *stats_, budget, true);
    for (support::ThreadPool* pool : {&pool1, &pool4}) {
      SCOPED_TRACE(std::to_string(b.gb) + " GB, " +
                   std::to_string(pool->size()) + " workers");
      Explorer explorer(space, *est_, *stats_);
      explorer.set_pool(pool);
      expect_same_result(
          explorer.explore(budget, runtime::all_templates()), want,
          {b.visited, b.pruned, b.leaves + templates, want.size()});
    }
  }
}

TEST_F(ExplorerFixture, ExhaustiveMatchesSerialReferenceBitwise) {
  // The same wave with the bound off: every valid config is a leaf and
  // a visited node, and none is pruned.
  const DesignSpace space = DesignSpace::full(BaseSettings{});
  const std::size_t valid = space.enumerate().size();
  support::ThreadPool pool1(1);
  support::ThreadPool pool4(4);
  for (const double gb : {0.0, 0.8, 0.65}) {
    RuntimeConstraints budget;
    budget.max_memory_gb = gb;
    const std::vector<Candidate> want =
        serial_reference(space, *est_, *stats_, budget, false);
    for (support::ThreadPool* pool : {&pool1, &pool4}) {
      SCOPED_TRACE(std::to_string(gb) + " GB, " +
                   std::to_string(pool->size()) + " workers");
      Explorer explorer(space, *est_, *stats_);
      explorer.set_pool(pool);
      expect_same_result(explorer.explore_exhaustive(budget), want,
                         {valid, 0, valid, want.size()});
    }
  }
}

TEST_F(ExplorerFixture, TemplateSeedingIncludesBaselines) {
  const DesignSpace space = DesignSpace::reduced(BaseSettings{});
  const Explorer explorer(space, *est_, *stats_);
  RuntimeConstraints none;
  const auto seeded =
      explorer.explore(none, runtime::all_templates());
  const auto unseeded = explorer.explore(none, {});
  EXPECT_EQ(seeded.feasible.size(),
            unseeded.feasible.size() + runtime::all_templates().size());
}

TEST_F(ExplorerFixture, AccuracyFloorFiltersCandidates) {
  const DesignSpace space = DesignSpace::reduced(BaseSettings{});
  const Explorer explorer(space, *est_, *stats_);
  RuntimeConstraints floor;
  floor.min_accuracy = 0.99;  // unreachable on this noisy dataset
  const auto result = explorer.explore(floor, {});
  EXPECT_TRUE(result.feasible.empty());
}

}  // namespace
}  // namespace gnav::dse
