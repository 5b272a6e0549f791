#ifndef CROWDFUSION_TESTS_TEMP_PATH_H_
#define CROWDFUSION_TESTS_TEMP_PATH_H_

#include <unistd.h>

#include <string>

#include <gtest/gtest.h>

namespace crowdfusion {

/// A scratch file path no other test process can collide with:
/// TempDir()/<suite>.<test>.<pid>.<name>. ctest runs every discovered test
/// as its own process, concurrently under -j, so a fixture that writes one
/// fixed file name races against its sibling tests. Call it while a test
/// is running (a fixture member initializer qualifies).
inline std::string UniqueTempPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string path = ::testing::TempDir();
  if (info != nullptr) {
    path += std::string(info->test_suite_name()) + "." + info->name() + ".";
  }
  return path + std::to_string(::getpid()) + "." + name;
}

}  // namespace crowdfusion

#endif  // CROWDFUSION_TESTS_TEMP_PATH_H_
