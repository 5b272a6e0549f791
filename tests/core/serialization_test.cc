#include "core/serialization.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "core/running_example.h"
#include "support/status_printing.h"
#include "temp_path.h"

namespace crowdfusion::core {
namespace {

class SerializationTest : public ::testing::Test {
 protected:
  std::string path_ = UniqueTempPath("cf_serialization_test.txt");

  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(SerializationTest, JointRoundTripIsExact) {
  const JointDistribution joint = RunningExample::Joint();
  ASSERT_TRUE(SaveJointDistribution(joint, path_).ok());
  auto loaded = LoadJointDistribution(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded, joint);
}

TEST_F(SerializationTest, SparseJointRoundTrip) {
  auto joint = JointDistribution::FromEntries(
      40, {{1ULL << 39, 0.125}, {5, 0.5}, {0, 0.375}});
  ASSERT_TRUE(joint.ok());
  ASSERT_TRUE(SaveJointDistribution(*joint, path_).ok());
  auto loaded = LoadJointDistribution(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, *joint);
}

TEST_F(SerializationTest, JointLoadRejectsGarbage) {
  {
    std::ofstream out(path_);
    out << "not a joint file\n";
  }
  EXPECT_FALSE(LoadJointDistribution(path_).ok());
  {
    std::ofstream out(path_);
    out << "crowdfusion-joint v1\nentry 0 1.0\n";  // missing facts line
  }
  EXPECT_FALSE(LoadJointDistribution(path_).ok());
  {
    std::ofstream out(path_);
    out << "crowdfusion-joint v1\nfacts 2\nbogus 1 2\n";
  }
  EXPECT_FALSE(LoadJointDistribution(path_).ok());
  {
    std::ofstream out(path_);
    out << "crowdfusion-joint v1\nfacts 1\nentry 0 0.9\n";  // mass != 1
  }
  EXPECT_FALSE(LoadJointDistribution(path_).ok());
  // Each body is a valid joint but for one malformed line: a negative
  // mask (not 2^64 - 1), a trailing token, a number with a suffix.
  for (const char* body : {"facts 64\nentry 0 0.5\nentry -1 0.5\n",
                           "facts 2\nentry 0 0.75\nentry 3 0.25 junk\n",
                           "facts 2\nentry 0 0.75\nentry 3 0.25junk\n",
                           "facts 4 x\nentry 0 0.75\nentry 3 0.25\n"}) {
    {
      std::ofstream out(path_);
      out << "crowdfusion-joint v1\n" << body;
    }
    EXPECT_FALSE(LoadJointDistribution(path_).ok()) << body;
  }
}

TEST_F(SerializationTest, JointLoadMissingFile) {
  EXPECT_FALSE(LoadJointDistribution("/nonexistent/joint.txt").ok());
}

TEST_F(SerializationTest, JointFileAllowsComments) {
  {
    std::ofstream out(path_);
    out << "crowdfusion-joint v1\n# a comment\nfacts 1\n\nentry 1 1.0\n";
  }
  auto loaded = LoadJointDistribution(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_DOUBLE_EQ(loaded->Probability(1), 1.0);
}

}  // namespace
}  // namespace crowdfusion::core
