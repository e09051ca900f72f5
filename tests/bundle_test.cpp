// Instance-bundle persistence tests: bit-exact replay of archived inputs.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "capacity/capacity_process.hpp"
#include "jobs/bundle.hpp"
#include "jobs/workload_gen.hpp"
#include "sched/factory.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "temp_path.hpp"

namespace sjs {
namespace {

class BundleTest : public ::testing::Test {
 protected:
  std::string dir_ = sjs::testutil::unique_temp_path("sjs_bundle_test");
  void TearDown() override { std::filesystem::remove_all(dir_); }
};

Instance random_instance(std::uint64_t seed) {
  Rng rng(seed);
  gen::PaperSetup setup;
  setup.lambda = 5.0;
  setup.expected_jobs = 40.0;
  return gen::generate_paper_instance(setup, rng);
}

TEST_F(BundleTest, RoundTripPreservesEverything) {
  auto original = random_instance(1);
  save_instance_bundle(original, dir_);
  auto loaded = load_instance_bundle(dir_);

  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded.jobs()[i], original.jobs()[i]);
  }
  EXPECT_EQ(loaded.capacity().breakpoints(),
            original.capacity().breakpoints());
  EXPECT_EQ(loaded.capacity().rates(), original.capacity().rates());
  EXPECT_DOUBLE_EQ(loaded.c_lo(), original.c_lo());
  EXPECT_DOUBLE_EQ(loaded.c_hi(), original.c_hi());
}

TEST_F(BundleTest, ReplayIsBitExact) {
  auto original = random_instance(2);
  save_instance_bundle(original, dir_);
  auto loaded = load_instance_bundle(dir_);

  auto run = [](const Instance& instance) {
    auto factory = sched::make_vdover();
    auto scheduler = factory.make();
    sim::Engine engine(instance, *scheduler);
    return engine.run_to_completion();
  };
  auto a = run(original);
  auto b = run(loaded);
  EXPECT_DOUBLE_EQ(a.completed_value, b.completed_value);
  EXPECT_EQ(a.completed_count, b.completed_count);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.outcomes, b.outcomes);
}

TEST_F(BundleTest, CreatesNestedDirectories) {
  auto nested = dir_ + "/deep/nested/path";
  save_instance_bundle(random_instance(3), nested);
  EXPECT_NO_THROW(load_instance_bundle(nested));
}

TEST_F(BundleTest, MissingFilesThrow) {
  std::filesystem::create_directories(dir_);
  EXPECT_THROW(load_instance_bundle(dir_), std::runtime_error);
}

TEST_F(BundleTest, MalformedBandThrows) {
  save_instance_bundle(random_instance(4), dir_);
  {
    std::ofstream band(dir_ + "/band.csv");
    band << "c_lo,c_hi\nnot,numeric\n";
  }
  EXPECT_THROW(load_instance_bundle(dir_), std::runtime_error);
}

TEST_F(BundleTest, InconsistentBandThrows) {
  save_instance_bundle(random_instance(5), dir_);
  {
    std::ofstream band(dir_ + "/band.csv");
    // Band narrower than the saved capacity path.
    band << "c_lo,c_hi\n2.0,3.0\n";
  }
  EXPECT_THROW(load_instance_bundle(dir_), std::runtime_error);
}

}  // namespace
}  // namespace sjs
