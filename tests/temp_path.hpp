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
#include <system_error>
#include <vector>

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

/// unique_temp_path(stem), emptied now and removed when the test process
/// exits: a journal directory (or output file) the test writes and reads
/// back.
inline std::string fresh_dir(const std::string& stem) {
  struct Registry {
    std::vector<std::string> paths;
    ~Registry() {
      std::error_code ignored;
      for (const std::string& p : paths) {
        std::filesystem::remove_all(p, ignored);
      }
    }
  };
  static Registry registry;
  std::string path = unique_temp_path(stem);
  std::filesystem::remove_all(path);
  registry.paths.push_back(path);
  return path;
}

}  // namespace sjs::testutil
