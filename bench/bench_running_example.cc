/// Reproduces the paper's running-example tables exactly:
///   Table I   — facts with marginal probabilities,
///   Table II  — the 16-output joint distribution,
///   Table III — fact entropy vs task entropy for every 2-subset
///               (printed under the paper's reversed pair labels; see the
///               note in tests/core/running_example_test.cc),
///   Table IV  — the answer joint distribution at Pc = 0.8.

#include <cstdio>
#include <iostream>

#include "common/math_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/answer_model.h"
#include "core/bayes.h"
#include "core/running_example.h"
#include "core/utility.h"

using namespace crowdfusion;

namespace {

std::string RowPattern(int row) {
  std::string out;
  for (int b = 3; b >= 0; --b) out += ((row >> b) & 1) ? 'T' : 'F';
  return out;
}

uint64_t RowToMask(int row) {
  uint64_t mask = 0;
  for (int i = 0; i < 4; ++i) {
    if ((row >> (3 - i)) & 1) mask |= 1ULL << i;
  }
  return mask;
}

}  // namespace

int main() {
  const core::FactSet facts = core::RunningExample::Facts();
  const core::JointDistribution joint = core::RunningExample::Joint();
  const core::CrowdModel crowd = core::RunningExample::Crowd();

  std::printf("TABLE I — facts with uncertainty\n");
  common::TablePrinter t1({"Fid", "Entity", "Attribute", "Value", "P(f)"});
  for (int i = 0; i < facts.size(); ++i) {
    t1.AddRow({common::StrFormat("f%d", i + 1), facts.at(i).subject,
               facts.at(i).predicate, facts.at(i).object,
               common::StrFormat("%.2f", joint.Marginal(i))});
  }
  t1.Print(std::cout);

  std::printf("\nTABLE II — output joint distribution\n");
  common::TablePrinter t2({"Oid", "f1f2f3f4", "P(o)"});
  for (int row = 0; row < 16; ++row) {
    t2.AddRow({common::StrFormat("o%d", row + 1), RowPattern(row),
               common::StrFormat("%.2f", joint.Probability(RowToMask(row)))});
  }
  t2.Print(std::cout);

  std::printf(
      "\nTABLE III — entropy of tasks vs facts, Pc = %.1f\n"
      "(paper labels; paper f_i maps to Table II fact f_%d-i, see tests)\n",
      crowd.pc(), 5);
  common::TablePrinter t3({"T (paper labels)", "H({fi|fi in T})", "H(T)"});
  const struct {
    const char* label;
    int a, b;
  } kPairs[] = {{"{f1,f2}", 3, 2}, {"{f1,f3}", 3, 1}, {"{f1,f4}", 3, 0},
                {"{f2,f3}", 2, 1}, {"{f2,f4}", 2, 0}, {"{f3,f4}", 1, 0}};
  for (const auto& pair : kPairs) {
    const std::vector<int> tasks = {pair.a, pair.b};
    t3.AddRow({pair.label,
               common::StrFormat(
                   "%.3f", common::Entropy(joint.MarginalizeOnto(tasks))),
               common::StrFormat(
                   "%.3f", core::TaskEntropyBits(joint, tasks, crowd))});
  }
  t3.Print(std::cout);

  std::printf("\nTABLE IV — answer joint distribution, Pc = %.1f\n",
              crowd.pc());
  const std::vector<int> all_facts = {0, 1, 2, 3};
  const std::vector<double> answer_table =
      core::AnswerDistribution(joint, all_facts, crowd);
  common::TablePrinter t4({"Ansi", "f1f2f3f4", "P(a)"});
  for (int row = 0; row < 16; ++row) {
    t4.AddRow({common::StrFormat("a%d", row + 1), RowPattern(row),
               common::StrFormat("%.3f", answer_table[RowToMask(row)])});
  }
  t4.Print(std::cout);

  const core::AnswerSet e{{0}, {true}};
  auto p_e = core::AnswerSetProbability(joint, e, crowd);
  auto posterior = core::PosteriorGivenAnswers(joint, e, crowd);
  if (!p_e.ok() || !posterior.ok()) return 1;
  std::printf(
      "\nWorked update (Section III-A): ask {f1}, answer \"yes\":\n"
      "  P(e)      = %.3f   (paper: 0.5)\n",
      p_e.value());
  std::printf("  P(o1|e)   = %.3f   (paper: 0.012)\n",
              posterior->Probability(RowToMask(0)));
  std::printf("  P(o9|e)   = %.3f   (paper: 0.064)\n",
              posterior->Probability(RowToMask(8)));
  return 0;
}
