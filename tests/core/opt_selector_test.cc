#include "core/opt_selector.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/random.h"
#include "core/greedy_selector.h"
#include "core/running_example.h"
#include "core/utility.h"
#include "support/oracles.h"

namespace crowdfusion::core {
namespace {

constexpr double kTol = 1e-9;

CrowdModel MakeCrowd(double pc) {
  auto crowd = CrowdModel::Create(pc);
  EXPECT_TRUE(crowd.ok());
  return std::move(crowd).value();
}

JointDistribution RandomJoint(int n, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> dense(1ULL << n);
  for (double& p : dense) p = rng.NextDouble() + 1e-3;
  common::Normalize(dense);
  auto joint = JointDistribution::FromDense(n, dense);
  EXPECT_TRUE(joint.ok());
  return std::move(joint).value();
}

SelectionRequest MakeRequest(const JointDistribution& joint,
                             const CrowdModel& crowd, int k) {
  SelectionRequest request;
  request.joint = &joint;
  request.crowd = &crowd;
  request.k = k;
  return request;
}

Selection SelectOrDie(TaskSelector& selector, const SelectionRequest& request) {
  auto selection = selector.Select(request);
  EXPECT_TRUE(selection.ok()) << selection.status().ToString();
  return std::move(selection).value();
}

/// Figure 2's qualitative claim on the paper's running example: the exact
/// brute-force OPT never does worse than the greedy approximation, at any
/// budget k.
TEST(OptSelectorTest, OptDominatesGreedyOnRunningExample) {
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = RunningExample::Crowd();
  OptSelector opt;
  GreedySelector greedy;
  for (int k = 1; k <= 3; ++k) {
    const Selection opt_sel = SelectOrDie(opt, MakeRequest(joint, crowd, k));
    const Selection greedy_sel =
        SelectOrDie(greedy, MakeRequest(joint, crowd, k));
    EXPECT_GE(opt_sel.entropy_bits, greedy_sel.entropy_bits - kTol)
        << "k=" << k;
    EXPECT_EQ(static_cast<int>(opt_sel.tasks.size()), k);
  }
}

/// For k = 1 the greedy's single pick IS the argmax over candidates, so
/// both selectors are exact and must agree on the achieved entropy.
TEST(OptSelectorTest, GreedyIsExactForSingleTask) {
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = RunningExample::Crowd();
  OptSelector opt;
  GreedySelector greedy;
  const Selection opt_sel = SelectOrDie(opt, MakeRequest(joint, crowd, 1));
  const Selection greedy_sel =
      SelectOrDie(greedy, MakeRequest(joint, crowd, 1));
  ASSERT_EQ(opt_sel.tasks.size(), 1u);
  ASSERT_EQ(greedy_sel.tasks.size(), 1u);
  EXPECT_NEAR(opt_sel.entropy_bits, greedy_sel.entropy_bits, kTol);
  EXPECT_EQ(opt_sel.tasks[0], greedy_sel.tasks[0]);
}

/// Parity holds beyond the running example and regardless of the greedy's
/// acceleration flags (pruning/preprocessing must not change its answer
/// enough to beat the exact optimum).
TEST(OptSelectorTest, OptDominatesAcceleratedGreedyOnRandomJoints) {
  const CrowdModel crowd = MakeCrowd(0.8);
  OptSelector opt;
  GreedySelector::Options accelerated;
  accelerated.use_pruning = true;
  accelerated.use_preprocessing = true;
  GreedySelector greedy(accelerated);
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const JointDistribution joint = RandomJoint(6, seed);
    for (int k = 1; k <= 3; ++k) {
      const Selection opt_sel = SelectOrDie(opt, MakeRequest(joint, crowd, k));
      const Selection greedy_sel =
          SelectOrDie(greedy, MakeRequest(joint, crowd, k));
      EXPECT_GE(opt_sel.entropy_bits, greedy_sel.entropy_bits - kTol)
          << "seed=" << seed << " k=" << k;
    }
  }
}

/// Theorem 2's approximation guarantee, checked against the exhaustive
/// optimum on every seed: H(T) is monotone submodular with H(∅) = 0, so
/// the greedy's entropy is at least (1 - 1/e) of OPT's — for the exact
/// selector and for both accelerated variants.
TEST(OptSelectorTest, GreedyAchievesSubmodularBoundOnEverySeed) {
  const double kBound = 1.0 - 1.0 / std::exp(1.0);
  const CrowdModel crowd = MakeCrowd(0.75);
  OptSelector opt;
  GreedySelector plain;
  GreedySelector::Options accelerated;
  accelerated.use_pruning = true;
  accelerated.use_preprocessing = true;
  GreedySelector fast(accelerated);
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    const int n = 6 + static_cast<int>(seed % 7);  // 6..12 facts
    const JointDistribution joint = RandomJoint(n, seed * 131);
    for (int k = 2; k <= 3; ++k) {
      const Selection opt_sel = SelectOrDie(opt, MakeRequest(joint, crowd, k));
      for (GreedySelector* greedy : {&plain, &fast}) {
        const Selection greedy_sel =
            SelectOrDie(*greedy, MakeRequest(joint, crowd, k));
        EXPECT_GE(greedy_sel.entropy_bits,
                  kBound * opt_sel.entropy_bits - kTol)
            << greedy->name() << " seed=" << seed << " n=" << n
            << " k=" << k;
        EXPECT_LE(greedy_sel.entropy_bits, opt_sel.entropy_bits + kTol)
            << greedy->name() << " seed=" << seed << " n=" << n
            << " k=" << k;
      }
    }
  }
}

/// Algorithm 1's early stop (K* < k): when some facts carry no
/// information — deterministic facts asked by a perfect crowd — the greedy
/// must stop after exhausting the informative ones rather than padding the
/// selection with zero-gain tasks.
TEST(OptSelectorTest, EarlyStopNeverSelectsZeroGainTask) {
  const CrowdModel perfect = MakeCrowd(1.0);
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    common::Rng rng(seed * 977);
    const int n = 5 + static_cast<int>(seed % 4);  // 5..8 facts
    // Facts with marginal 0 or 1 are deterministic: zero gain at Pc = 1.
    std::vector<double> marginals(static_cast<size_t>(n));
    std::vector<int> informative;
    for (int f = 0; f < n; ++f) {
      if (rng.NextBernoulli(0.5)) {
        marginals[static_cast<size_t>(f)] = rng.NextBernoulli(0.5) ? 1.0 : 0.0;
      } else {
        marginals[static_cast<size_t>(f)] = rng.NextUniform(0.3, 0.7);
        informative.push_back(f);
      }
    }
    auto joint = JointDistribution::FromIndependentMarginals(marginals);
    ASSERT_TRUE(joint.ok()) << joint.status().ToString();

    GreedySelector::Options options;
    options.use_preprocessing = seed % 2 == 0;  // exercise both paths
    GreedySelector greedy(options);
    const Selection selection =
        SelectOrDie(greedy, MakeRequest(*joint, perfect, n));  // k = n
    EXPECT_EQ(selection.tasks.size(), informative.size()) << "seed=" << seed;
    for (int fact : selection.tasks) {
      EXPECT_TRUE(std::find(informative.begin(), informative.end(), fact) !=
                  informative.end())
          << "seed=" << seed << " selected deterministic fact " << fact;
    }
    // Every selected prefix must have strictly grown H(T).
    double previous = 0.0;
    for (size_t prefix = 1; prefix <= selection.tasks.size(); ++prefix) {
      const std::vector<int> tasks(
          selection.tasks.begin(),
          selection.tasks.begin() + static_cast<std::ptrdiff_t>(prefix));
      const double h = TaskEntropyBits(*joint, tasks, perfect);
      EXPECT_GT(h, previous + 1e-12) << "seed=" << seed;
      previous = h;
    }
  }
}

/// OPT returns k distinct, in-range fact ids.
TEST(OptSelectorTest, SelectionIsDistinctAndInRange) {
  const JointDistribution joint = RunningExample::Joint();
  const CrowdModel crowd = RunningExample::Crowd();
  OptSelector opt;
  const Selection selection = SelectOrDie(opt, MakeRequest(joint, crowd, 3));
  std::vector<int> tasks = selection.tasks;
  std::sort(tasks.begin(), tasks.end());
  EXPECT_TRUE(std::adjacent_find(tasks.begin(), tasks.end()) == tasks.end());
  for (int id : tasks) {
    EXPECT_GE(id, 0);
    EXPECT_LT(id, joint.num_facts());
  }
}

/// The max_subsets cap rejects runaway instances instead of hanging.
TEST(OptSelectorTest, SubsetCapRejectsOversizedInstances) {
  const JointDistribution joint = RandomJoint(8, 11);
  const CrowdModel crowd = MakeCrowd(0.8);
  OptSelector::Options options;
  options.max_subsets = 10;  // C(8,3) = 56 > 10
  OptSelector opt(options);
  auto selection = opt.Select(MakeRequest(joint, crowd, 3));
  EXPECT_FALSE(selection.ok());
}

}  // namespace
}  // namespace crowdfusion::core
