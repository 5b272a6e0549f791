#include "core/greedy_selector.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/answer_model.h"
#include "core/sparse_refiner.h"

namespace crowdfusion::core {

namespace {

/// Offset added to a candidate's entropy in the Theorem 3 prune test; see
/// the PruningBound comments in the header. `remaining_slots` counts the
/// selections still to be made after the current iteration's commit.
double PruneOffsetBits(GreedySelector::PruningBound bound,
                       int remaining_slots) {
  switch (bound) {
    case GreedySelector::PruningBound::kPaperLog2:
      return remaining_slots >= 1
                 ? std::log2(static_cast<double>(remaining_slots))
                 : 0.0;
    case GreedySelector::PruningBound::kSoundAdditive:
      return static_cast<double>(remaining_slots);
    case GreedySelector::PruningBound::kAggressiveZero:
      return 0.0;
  }
  return 0.0;
}

/// Shared greedy loop. `evaluate_all(active)` returns H(T ∪ {fact}) for
/// every active candidate under the current committed set T (batched so a
/// refinement engine can shard the scan across threads); `commit(fact)`
/// extends T. The final pick is not committed and builds no next active
/// list: nothing reads them.
void RunGreedyLoop(
    const GreedySelector::Options& options, std::vector<int> active, int k,
    const std::function<std::vector<double>(const std::vector<int>&)>&
        evaluate_all,
    const std::function<void(int)>& commit, Selection& selection) {
  double current_entropy = 0.0;  // H(∅) = 0.
  for (int iteration = 0; iteration < k; ++iteration) {
    int best_fact = -1;
    double best_entropy = -1.0;
    const std::vector<double> entropies = evaluate_all(active);
    selection.stats.evaluations += static_cast<int64_t>(active.size());
    for (size_t c = 0; c < active.size(); ++c) {
      const double h = entropies[c];
      if (h > best_entropy) {
        best_entropy = h;
        best_fact = active[c];
      }
    }
    if (best_fact < 0) break;  // No candidates remain.
    const double gain = best_entropy - current_entropy;
    if (gain <= options.min_gain_bits) break;  // K* < k (Algorithm 1, line 6).

    if (iteration + 1 < k) commit(best_fact);
    selection.tasks.push_back(best_fact);
    selection.entropy_bits = best_entropy;
    current_entropy = best_entropy;

    // Rebuild the active list: drop the committed fact and, if pruning is
    // on, every fact whose achievable total entropy can no longer reach
    // this iteration's maximum (Theorem 3). Regardless of the bound, at
    // least `remaining_slots` candidates are kept so the greedy can always
    // fill k tasks — Theorem 2 guarantees K* = k whenever uncertainty
    // remains, so pruning must never empty the pool (the paper leaves
    // this guard implicit).
    const int remaining_slots = k - iteration - 1;
    const double prune_offset =
        PruneOffsetBits(options.pruning_bound, remaining_slots);
    const auto prunable_at = [&](size_t c) {
      return options.use_pruning &&
             entropies[c] + prune_offset < best_entropy - 1e-12;
    };
    if (remaining_slots == 0) {
      // After the final pick only the prune count is read.
      for (size_t c = 0; c < active.size(); ++c) {
        if (active[c] != best_fact && prunable_at(c)) ++selection.stats.pruned;
      }
      break;
    }
    std::vector<size_t> survivors;
    std::vector<size_t> prunable;
    for (size_t c = 0; c < active.size(); ++c) {
      if (active[c] == best_fact) continue;
      if (prunable_at(c)) {
        prunable.push_back(c);
      } else {
        survivors.push_back(c);
      }
    }
    if (static_cast<int>(survivors.size()) < remaining_slots &&
        !prunable.empty()) {
      // Refill from the best prunable candidates.
      std::sort(prunable.begin(), prunable.end(), [&](size_t a, size_t b) {
        return entropies[a] > entropies[b];
      });
      while (static_cast<int>(survivors.size()) < remaining_slots &&
             !prunable.empty()) {
        survivors.push_back(prunable.front());
        prunable.erase(prunable.begin());
      }
      std::sort(survivors.begin(), survivors.end());
    }
    selection.stats.pruned += static_cast<int64_t>(prunable.size());
    std::vector<int> next_active;
    next_active.reserve(survivors.size());
    for (size_t c : survivors) next_active.push_back(active[c]);
    active = std::move(next_active);
  }
}

}  // namespace

common::Result<Selection> GreedySelector::Select(
    const SelectionRequest& request) {
  CF_ASSIGN_OR_RETURN(std::vector<int> candidates,
                      ResolveCandidates(request));
  const int k = std::min(request.k, static_cast<int>(candidates.size()));
  const common::Stopwatch timer;
  Selection selection;

  if (options_.use_preprocessing) {
    if (k > SparsePartitionRefiner::kMaxCommittedTasks) {
      return common::Status::InvalidArgument(common::StrFormat(
          "greedy with preprocessing caps k at %d tasks, got %d",
          SparsePartitionRefiner::kMaxCommittedTasks, k));
    }
    const common::Stopwatch preprocessing_timer;
    SparsePartitionRefiner::Options refiner_options;
    refiner_options.num_threads = options_.preprocessing_threads;
    refiner_options.simd = options_.simd;
    SparsePartitionRefiner refiner(*request.joint, *request.crowd,
                                   refiner_options);
    selection.stats.preprocessing_seconds =
        preprocessing_timer.ElapsedSeconds();
    RunGreedyLoop(
        options_, std::move(candidates), k,
        [&refiner](const std::vector<int>& active) {
          return refiner.EntropiesWithCandidates(active);
        },
        [&refiner](int fact) { refiner.Commit(fact); }, selection);
  } else {
    std::vector<int> selected;
    RunGreedyLoop(
        options_, std::move(candidates), k,
        [&](const std::vector<int>& active) {
          std::vector<double> entropies(active.size());
          for (size_t c = 0; c < active.size(); ++c) {
            std::vector<int> extended = selected;
            extended.push_back(active[c]);
            entropies[c] = AnswerEntropyBitsBruteForce(*request.joint,
                                                       extended,
                                                       *request.crowd);
          }
          return entropies;
        },
        [&selected](int fact) { selected.push_back(fact); }, selection);
  }

  selection.stats.elapsed_seconds = timer.ElapsedSeconds();
  return selection;
}

std::string GreedySelector::name() const {
  std::string n = "Approx.";
  if (options_.use_pruning) n += "&Prune";
  if (options_.use_preprocessing) n += "&Pre.";
  return n;
}

}  // namespace crowdfusion::core
