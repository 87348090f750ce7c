#include "ytopt/bayes_opt.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>

#include "configspace/divisors.h"
#include "kernels/polybench.h"
#include "runtime/swing_sim.h"
#include "tuners/random_tuner.h"

namespace tvmbo::ytopt {
namespace {

cs::ConfigurationSpace paper_space(std::int64_t extent = 2000) {
  cs::ConfigurationSpace space;
  space.add(cs::tile_factor_param("P0", extent));
  space.add(cs::tile_factor_param("P1", extent));
  return space;
}

double synthetic_runtime(const cs::Configuration& config) {
  const double i0 = static_cast<double>(config.index(0));
  const double i1 = static_cast<double>(config.index(1));
  return 1.0 + 0.01 * ((i0 - 16.0) * (i0 - 16.0) +
                       (i1 - 9.0) * (i1 - 9.0));
}

double run_bo(BayesianOptimizer& bo, std::size_t budget) {
  for (std::size_t i = 0; i < budget; ++i) {
    if (!bo.has_next()) break;
    const cs::Configuration config = bo.ask();
    bo.tell(config, synthetic_runtime(config));
  }
  return bo.best() ? bo.best()->runtime_s
                   : std::numeric_limits<double>::infinity();
}

TEST(BayesOpt, WarmupIsRandomThenSurrogateKicksIn) {
  const auto space = paper_space();
  BoOptions options;
  options.initial_points = 10;
  BayesianOptimizer bo(&space, 1, options);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(bo.surrogate_ready());
    const auto config = bo.ask();
    bo.tell(config, synthetic_runtime(config));
  }
  bo.ask();
  EXPECT_TRUE(bo.surrogate_ready());
}

TEST(BayesOpt, NeverProposesDuplicates) {
  const auto space = paper_space();
  BayesianOptimizer bo(&space, 2);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 80; ++i) {
    const auto config = bo.ask();
    EXPECT_TRUE(seen.insert(config.hash()).second) << "iteration " << i;
    bo.tell(config, synthetic_runtime(config));
  }
}

TEST(BayesOpt, FindsNearOptimalConfiguration) {
  const auto space = paper_space();
  BayesianOptimizer bo(&space, 3);
  const double best = run_bo(bo, 100);
  EXPECT_LT(best, 1.05);  // optimum 1.0 over a 400-config space
}

TEST(BayesOpt, BeatsRandomSearchAtEqualBudget) {
  const auto space = paper_space();
  // Average over a few seeds to keep the comparison robust.
  double bo_total = 0.0, random_total = 0.0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    BayesianOptimizer bo(&space, seed);
    bo_total += run_bo(bo, 60);

    tuners::RandomTuner random(&space, seed);
    for (int i = 0; i < 60; ++i) {
      const auto batch = random.next_batch(1);
      if (batch.empty()) break;
      tuners::Trial trial{batch[0], synthetic_runtime(batch[0]), true};
      random.update({&trial, 1});
    }
    random_total += random.best()->runtime_s;
  }
  EXPECT_LE(bo_total, random_total);
}

TEST(BayesOpt, PredictionApproximatesSurface) {
  const auto space = paper_space();
  BayesianOptimizer bo(&space, 5);
  run_bo(bo, 80);
  ASSERT_TRUE(bo.surrogate_ready());
  Rng rng(6);
  double err = 0.0;
  for (int i = 0; i < 40; ++i) {
    const auto config = space.sample(rng);
    err += std::fabs(bo.predict(config).mean - synthetic_runtime(config));
  }
  EXPECT_LT(err / 40.0, 0.6);
}

TEST(BayesOpt, AcquisitionIsOptimistic) {
  // LCB = mean - kappa*std must never exceed the mean.
  const auto space = paper_space();
  BayesianOptimizer bo(&space, 7);
  run_bo(bo, 30);
  ASSERT_TRUE(bo.surrogate_ready());
  Rng rng(8);
  for (int i = 0; i < 20; ++i) {
    const auto config = space.sample(rng);
    const auto pred = bo.predict(config);
    // acquisition works in log space; compare to the log-space mean.
    EXPECT_LE(bo.acquisition(config), std::log(pred.mean) + 1e-9);
  }
}

TEST(BayesOpt, InvalidResultsArePenalizedNotCopied) {
  const auto space = paper_space();
  BayesianOptimizer bo(&space, 9);
  // Feed mostly-good results plus invalid ones; best must ignore invalid.
  for (int i = 0; i < 15; ++i) {
    const auto config = bo.ask();
    bo.tell(config, 0.001, /*valid=*/(i % 3 != 0));
  }
  ASSERT_NE(bo.best(), nullptr);
  EXPECT_TRUE(bo.best()->valid);
}

TEST(BayesOpt, NextBatchHonorsRequestedSize) {
  const auto space = paper_space();
  BayesianOptimizer bo(&space, 10);
  EXPECT_EQ(bo.next_batch(1).size(), 1u);
  EXPECT_EQ(bo.next_batch(8).size(), 8u);
  EXPECT_TRUE(bo.next_batch(0).empty());
}

TEST(BayesOpt, QlcbBatchIsDistinctAndCompetitive) {
  const auto space = paper_space();
  BayesianOptimizer bo(&space, 14);
  // Warm up past the initial design so the surrogate drives proposals.
  for (int i = 0; i < 20; ++i) {
    const auto config = bo.ask();
    bo.tell(config, synthetic_runtime(config));
  }
  const auto batch = bo.next_batch(6);
  ASSERT_EQ(batch.size(), 6u);
  std::set<std::uint64_t> unique;
  for (const auto& config : batch) unique.insert(config.hash());
  EXPECT_EQ(unique.size(), 6u);
  // Feed them back and keep going: the batched flow must still converge.
  std::vector<tuners::Trial> trials;
  for (const auto& config : batch) {
    trials.push_back({config, synthetic_runtime(config), true});
  }
  bo.update(trials);
  for (int round = 0; round < 8; ++round) {
    const auto more = bo.next_batch(6);
    std::vector<tuners::Trial> feedback;
    for (const auto& config : more) {
      feedback.push_back({config, synthetic_runtime(config), true});
    }
    bo.update(feedback);
  }
  EXPECT_LT(bo.best()->runtime_s, 1.15);
}

TEST(BayesOpt, ExhaustsTinySpace) {
  const auto space = paper_space(4);  // 9 configs
  BayesianOptimizer bo(&space, 11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 9; ++i) {
    const auto config = bo.ask();
    seen.insert(config.hash());
    bo.tell(config, synthetic_runtime(config));
  }
  EXPECT_EQ(seen.size(), 9u);
  EXPECT_FALSE(bo.has_next());
}

TEST(BayesOpt, ExhaustedNonDiscreteSpaceReturnsShortBatch) {
  // Regression: a space containing a continuous parameter is never
  // "fully discrete", so the exhaustion break in random_fill never
  // fires — but a continuous parameter can still be effectively
  // exhausted (here: a float range holding exactly two representable
  // doubles). Once every distinct configuration is visited,
  // sample_unvisited's fallback returns visited configs forever and
  // next_batch used to spin in random_fill without terminating.
  cs::ConfigurationSpace space;
  space.add(std::make_shared<cs::OrdinalHyperparameter>(
      "P0", std::vector<double>{1.0, 2.0, 4.0}));
  space.add(std::make_shared<cs::UniformFloatHyperparameter>(
      "F", 1.0, 1.0 + 0x1.0p-52));
  ASSERT_FALSE(space.fully_discrete());

  BayesianOptimizer bo(&space, 21);
  const auto first = bo.next_batch(16);
  // Short batch: the ~6 distinct configurations, not the requested 16.
  EXPECT_GE(first.size(), 3u);
  EXPECT_LE(first.size(), 6u);
  for (const auto& config : first) {
    bo.tell(config, 1.0 + static_cast<double>(config.index(0)));
  }
  // Space exhausted: must terminate with an empty batch, not hang.
  const auto second = bo.next_batch(16);
  EXPECT_TRUE(second.empty());
}

TEST(BayesOpt, KappaZeroIsPureExploitation) {
  // With kappa = 0 the acquisition equals the predicted mean.
  const auto space = paper_space();
  BoOptions options;
  options.kappa = 0.0;
  BayesianOptimizer bo(&space, 12, options);
  run_bo(bo, 30);
  Rng rng(13);
  const auto config = space.sample(rng);
  EXPECT_NEAR(bo.acquisition(config), std::log(bo.predict(config).mean),
              1e-9);
}

TEST(BayesOpt, FailurePenaltyIsScaleRelative) {
  // Regression: failed trials used to be imputed at max(2x worst, 1.0 s)
  // — an absolute floor ~6 orders of magnitude off for a
  // microsecond-scale kernel, warping the log-space surrogate around
  // every failure. The penalty must stay on the kernel's own scale.
  const auto space = paper_space();
  BoOptions options;
  options.initial_points = 4;
  BayesianOptimizer bo(&space, 41, options);
  for (int i = 0; i < 60; ++i) {
    const auto config = bo.ask();
    const bool fails = config.index(0) >= 10;
    const double runtime =
        1.0e-6 * (1.0 + 0.05 * static_cast<double>(config.index(1)));
    bo.tell(config, fails ? 0.0 : runtime, !fails);
  }
  ASSERT_TRUE(bo.surrogate_ready());
  Rng rng(42);
  for (int i = 0; i < 30; ++i) {
    const auto config = space.sample(rng);
    // Every prediction is bounded by the 2x-worst-valid penalty — far
    // below the old 1 s floor.
    EXPECT_LT(bo.predict(config).mean, 1.0e-3);
  }
}

TEST(BayesOpt, AllInvalidHistoryStaysRandom) {
  // With no valid observation an all-imputed dataset would anchor the
  // forest at an arbitrary constant; the optimizer must stay in the
  // random design instead of fitting one.
  const auto space = paper_space();
  BoOptions options;
  options.initial_points = 3;
  BayesianOptimizer bo(&space, 51, options);
  for (int i = 0; i < 20; ++i) {
    const auto config = bo.ask();
    bo.tell(config, 0.0, /*valid=*/false);
  }
  EXPECT_FALSE(bo.surrogate_ready());
  EXPECT_TRUE(bo.has_next());
}

TEST(BayesOpt, PendingTrackedAndClearedOnTell) {
  const auto space = paper_space();
  BayesianOptimizer bo(&space, 61);
  EXPECT_EQ(bo.pending_count(), 0u);
  std::vector<cs::Configuration> flight;
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 6; ++i) {
    flight.push_back(bo.ask());
    // A config still in flight is never proposed a second time.
    EXPECT_TRUE(seen.insert(flight.back().hash()).second) << "ask " << i;
  }
  EXPECT_EQ(bo.pending_count(), 6u);
  for (const auto& config : flight) bo.tell(config, 1.0);
  EXPECT_EQ(bo.pending_count(), 0u);
}

TEST(BayesOpt, StreamingAsksWithPendingUseConstantLiar) {
  const auto space = paper_space();
  BoOptions options;
  options.initial_points = 8;
  BayesianOptimizer bo(&space, 62, options);
  for (int i = 0; i < 12; ++i) {
    const auto config = bo.ask();
    bo.tell(config, synthetic_runtime(config));
  }
  // Past the initial design every ask refits; with results still in
  // flight the pending configs enter the dataset as cl-max liars rather
  // than blocking the ask or being re-proposed.
  std::vector<cs::Configuration> flight;
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5; ++i) {
    const auto config = bo.ask();
    EXPECT_TRUE(seen.insert(config.hash()).second)
        << "config proposed twice while in flight";
    flight.push_back(config);
    EXPECT_EQ(bo.pending_count(), static_cast<std::size_t>(i) + 1);
  }
  ASSERT_TRUE(bo.surrogate_ready());
  for (const auto& config : flight) {
    bo.tell(config, synthetic_runtime(config));
  }
  EXPECT_EQ(bo.pending_count(), 0u);
}

TEST(BayesOpt, LocalFractionSurvivesVisitedNeighborhoods) {
  // Regression: local-exploitation candidates whose neighbour draw was
  // already visited used to be dropped without replacement, so late in a
  // run — when the incumbents' whole neighbourhood is measured — the
  // local share of the candidate pool silently shrank toward zero and
  // the search degraded to pure uniform sampling. Visit a 7x7 index
  // block whose centre holds the 5 best runtimes: every 1-2-hop
  // neighbour of every incumbent is visited, so the old code admitted
  // exactly zero local candidates; the bounded extra hops must still
  // find unvisited configurations outside the block.
  const auto space = paper_space();  // 20x20 index grid
  BoOptions options;
  options.initial_points = 5;
  BayesianOptimizer bo(&space, 31, options);
  Rng rng(32);
  cs::Configuration proto = space.sample(rng);
  std::vector<tuners::Trial> prior;
  for (std::int64_t i = 7; i <= 13; ++i) {
    for (std::int64_t j = 7; j <= 13; ++j) {
      cs::Configuration config = proto;
      config.set_index(0, i);
      config.set_index(1, j);
      const double dist =
          static_cast<double>(std::abs(i - 10) + std::abs(j - 10));
      prior.push_back({config, 1.0 + 0.1 * dist, true});
    }
  }
  bo.warm_start(prior);
  bo.ask();
  EXPECT_GE(bo.last_local_candidates(), 5u);
}

TEST(BayesOpt, GoldenTrajectory) {
  // Fixed-seed ytopt on the paper's lu/large surface: the hash of the
  // proposal sequence pins the search bit for bit (RNG draws, forest
  // structure, acquisition ranking). The hashes come from a plain serial
  // implementation (row-indirect tree builder, one predict per candidate);
  // any drift means a speedup changed the search.
  const runtime::Workload workload =
      kernels::make_workload("lu", kernels::Dataset::kLarge);
  const cs::ConfigurationSpace space =
      kernels::build_space("lu", workload.dims);
  const std::uint64_t expected[] = {0x3f0f36f0a8bb6342ull,
                                    0x3251669890715f7cull,
                                    0x557937567ab5f21dull};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    runtime::SwingSimDevice device(2023 + seed);
    BayesianOptimizer bo(&space, seed);
    runtime::MeasureOption option;
    option.repeat = 1;
    std::uint64_t hash = 0;
    for (int i = 0; i < 120; ++i) {
      const cs::Configuration config = bo.ask();
      hash = hash_combine(hash, config.hash());
      runtime::MeasureInput input;
      input.workload = workload;
      input.tiles = space.values_int(config);
      bo.tell(config, device.measure(input, option).runtime_s);
    }
    EXPECT_EQ(hash, expected[seed - 1]) << "seed " << seed;
  }
}

// One streaming session on the lu/large surface: warm_start and
// seed_proposals first, then asks kept two deep before each tell (so every
// refit carries a constant-liar row), a next_batch(4) every seventh step,
// and a refit only every third tell. Returns the hash of every proposal.
std::uint64_t streaming_trajectory_hash(std::uint64_t seed,
                                        bool parallel_fit) {
  const runtime::Workload workload =
      kernels::make_workload("lu", kernels::Dataset::kLarge);
  const cs::ConfigurationSpace space =
      kernels::build_space("lu", workload.dims);
  runtime::SwingSimDevice device(4046 + seed);
  runtime::MeasureOption option;
  option.repeat = 1;
  auto measure = [&](const cs::Configuration& config) {
    runtime::MeasureInput input;
    input.workload = workload;
    input.tiles = space.values_int(config);
    return device.measure(input, option).runtime_s;
  };
  BoOptions options;
  options.refit_interval = 3;
  options.forest.parallel_fit = parallel_fit;
  BayesianOptimizer bo(&space, seed, options);

  Rng prior_rng(seed + 100);
  std::vector<tuners::Trial> prior;
  for (int i = 0; i < 6; ++i) {
    const cs::Configuration config = space.sample(prior_rng);
    prior.push_back({config, measure(config), i != 2});
  }
  bo.warm_start(prior);
  // The first seed repeats a prior point and must be dropped.
  bo.seed_proposals({prior[0].config, space.sample(prior_rng),
                     space.sample(prior_rng)});

  std::uint64_t hash = 0;
  std::vector<cs::Configuration> flight;
  for (int step = 0; step < 60; ++step) {
    if (step % 7 == 6) {
      for (const cs::Configuration& config : bo.next_batch(4)) {
        hash = hash_combine(hash, config.hash());
        bo.tell(config, measure(config));
      }
      continue;
    }
    flight.push_back(bo.ask());
    hash = hash_combine(hash, flight.back().hash());
    if (flight.size() == 2) {
      bo.tell(flight.front(), measure(flight.front()));
      flight.erase(flight.begin());
    }
  }
  return hash;
}

TEST(BayesOpt, GoldenStreamingTrajectory) {
  // Pins the streaming paths beyond GoldenTrajectory's strict ask/tell:
  // liar rows, a refit interval, qLCB batches, warm start and transfer
  // seeds. A serial forest fit must give the same proposals. The hashes
  // come from the fit-then-predict implementation (separate refit, pool
  // draw and scoring dispatches).
  const std::uint64_t expected[] = {0x0ab90831e3903248ull,
                                    0xf1e5d260557e8accull,
                                    0x7d88a833a5e95d8full};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    EXPECT_EQ(streaming_trajectory_hash(seed, true), expected[seed - 1])
        << "seed " << seed;
    EXPECT_EQ(streaming_trajectory_hash(seed, false), expected[seed - 1])
        << "seed " << seed << ", serial fit";
  }
}

TEST(BayesOpt, InvalidOptionsThrow) {
  const auto space = paper_space();
  BoOptions bad;
  bad.initial_points = 0;
  EXPECT_THROW(BayesianOptimizer(&space, 1, bad), CheckError);
  BoOptions bad2;
  bad2.local_fraction = 1.5;
  EXPECT_THROW(BayesianOptimizer(&space, 1, bad2), CheckError);
}

}  // namespace
}  // namespace tvmbo::ytopt
