// ytopt-style Bayesian optimization — the paper's proposed search (§2.2,
// §3): sample a small initial design, then iterate
//
//   Step1 select a configuration via the LCB acquisition over a
//         dynamically refit Random-Forest surrogate,
//   Step2-4 configure + compile + run the kernel (done by the caller),
//   Step5 feed the runtime back (tell), updating the performance model.
//
// One configuration per iteration (AMBS), unlike AutoTVM's batches.
//
// Exploration/exploitation is balanced by the lower-confidence-bound
// acquisition: lcb(x) = mu(x) - kappa * sigma(x), minimized over sampled
// candidates; sigma comes from the spread of per-tree predictions.
//
// Streaming ask/tell: every proposed configuration is tracked as
// *pending* until its measurement is told back. While pending, the
// configuration is hallucinated into the surrogate at the worst valid
// runtime seen (constant-liar, cl-max), so an asynchronous driver can
// keep asking while trials are still in flight — ask() never blocks on a
// pending measurement, never re-proposes one (the visited set covers
// in-flight trials), and steers away from their neighborhoods. With the
// strictly alternating ask/tell of the paper's sequential AMBS loop the
// pending set is always empty at refit time, so batch-mode trajectories
// are untouched.
#pragma once

#include "surrogate/dataset.h"
#include "surrogate/random_forest.h"
#include "tuners/tuner.h"

namespace tvmbo::ytopt {

struct BoOptions {
  std::size_t initial_points = 10;  ///< random warmup configurations
  std::size_t candidates_per_iteration = 512;
  double kappa = 1.96;  ///< LCB exploration weight
  /// Fraction of candidates sampled as neighbours of the incumbent best
  /// configurations (local refinement); the rest are uniform.
  double local_fraction = 0.25;
  std::size_t local_seeds = 5;  ///< how many top configs spawn neighbours
  surrogate::ForestOptions forest{.num_trees = 100};
  /// Refit the surrogate every k tells (1 = every iteration, as ytopt).
  std::size_t refit_interval = 1;
};

class BayesianOptimizer final : public tuners::Tuner {
 public:
  BayesianOptimizer(const cs::ConfigurationSpace* space, std::uint64_t seed,
                    BoOptions options = {});

  std::string name() const override { return "ytopt"; }

  /// Selects the single next configuration (Step 1); the paper's ytopt
  /// flow is strictly sequential (the session uses batch size 1).
  cs::Configuration ask();

  /// Multi-point proposal (qLCB): ranks one candidate pool by the
  /// acquisition and returns the n best distinct configurations. Useful
  /// when several evaluators are available.
  std::vector<cs::Configuration> next_batch(std::size_t n) override;

  /// Records a measured result (Step 5).
  void tell(const cs::Configuration& config, double runtime_s,
            bool valid = true);

  /// Transfer learning: seeds the optimizer with prior measurements from
  /// the same space (e.g. a performance database saved by an earlier
  /// run). Prior points count toward the initial design, train the first
  /// surrogate, and are never proposed again.
  void warm_start(std::span<const tuners::Trial> prior);
  void update(std::span<const tuners::Trial> trials) override;

  /// Transfer learning (model-ranked seeding): queues configurations to
  /// be proposed *first*, ahead of the random initial design — typically
  /// the cross-kernel cost model's predicted top-k for this task. Seeds
  /// are measured through the normal ask/tell cycle (so their results
  /// count toward the initial design and train the first surrogate);
  /// already-visited seeds are dropped at proposal time.
  void seed_proposals(std::vector<cs::Configuration> seeds);
  /// Seeds still queued for proposal.
  std::size_t seed_count() const { return seeds_.size(); }

  bool surrogate_ready() const { return forest_.fitted(); }
  /// Surrogate prediction in runtime seconds (requires surrogate_ready()).
  surrogate::Prediction predict(const cs::Configuration& config) const;
  /// The acquisition value used for selection (log-runtime units).
  double acquisition(const cs::Configuration& config) const;

  /// Configurations proposed but not yet told back — the streaming
  /// drivers' in-flight set, liar-imputed at the next refit.
  std::size_t pending_count() const { return pending_.size(); }
  /// Local-exploitation candidates admitted into the last
  /// surrogate-driven proposal's pool (diagnostics: local_fraction must
  /// be honored even on well-explored spaces).
  std::size_t last_local_candidates() const { return last_local_; }

 private:
  double worst_valid_runtime() const;
  /// The forest's training set: every trial (failures imputed at twice
  /// the worst valid runtime) plus every pending configuration as a liar
  /// at the worst valid runtime.
  surrogate::Dataset surrogate_data(double worst) const;
  /// Draws an ask's candidate pool: neighbours of the best trials, then
  /// uniform samples, none of them visited.
  void draw_candidates(std::vector<cs::Configuration>& candidates);
  cs::Configuration sample_unvisited();
  std::vector<cs::Configuration> propose(std::size_t n);
  void remember_pending(const cs::Configuration& config);
  void forget_pending(const cs::Configuration& config);

  BoOptions options_;
  surrogate::FeatureEncoder encoder_;
  surrogate::RandomForest forest_;
  std::size_t fitted_on_ = 0;
  /// Insertion-ordered (a set keyed by Configuration::hash would make
  /// refit's liar rows — and thus the forest's bootstrap draws —
  /// nondeterministic).
  std::vector<cs::Configuration> pending_;
  /// Transfer seeds awaiting proposal, best-predicted first.
  std::vector<cs::Configuration> seeds_;
  std::size_t last_local_ = 0;
};

}  // namespace tvmbo::ytopt
