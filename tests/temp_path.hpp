// Per-test scratch paths.
//
// gtest_discover_tests runs every test as its own process and `ctest -j` runs
// those processes concurrently, so a fixed temp name shared by several tests
// lets one test's TearDown delete another test's files mid-run. Naming the
// path after the running test and the process id keeps them apart.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

namespace sjs::testutil {

/// `<temp dir>/<stem>_<Suite>.<Test>_<pid><suffix>`, unique per running test.
inline std::string unique_temp_path(const std::string& stem,
                                    const std::string& suffix = "") {
  std::string name = stem;
  if (const auto* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    name += std::string("_") + info->test_suite_name() + "." + info->name();
  }
  std::replace(name.begin(), name.end(), '/', '_');  // parameterized names
  name += "_" + std::to_string(::getpid()) + suffix;
  return (std::filesystem::temp_directory_path() / name).string();
}

}  // namespace sjs::testutil
