// Tests for the lockstep analyzer.

#include <gtest/gtest.h>

#include "asm/assembler.h"
#include "core/lockstep.h"
#include "sim/platform.h"

namespace ulpsync::core {
namespace {

assembler::Program compile(std::string_view source) {
  auto result = assembler::assemble(source);
  EXPECT_TRUE(result.ok()) << result.error_text();
  return std::move(result.program);
}

sim::PlatformConfig config_no_stagger() {
  auto config = sim::PlatformConfig::with_synchronizer();
  config.start_stagger_cycles = 0;
  return config;
}

TEST(LockstepAnalyzer, FullLockstepOnStraightLineCode) {
  sim::Platform platform(config_no_stagger());
  platform.load_program(compile(R"(
      movi r1, 1
      movi r2, 2
      movi r3, 3
      movi r4, 4
      halt
  )"));
  LockstepAnalyzer analyzer;
  analyzer.attach(platform);
  ASSERT_TRUE(platform.run(100).ok());
  const auto& metrics = analyzer.metrics();
  EXPECT_GT(metrics.lockstep_fraction(), 0.6);
  EXPECT_EQ(metrics.observed_cycles, platform.counters().cycles);
  // Every cycle but the last, in which the cores halt together.
  EXPECT_EQ(metrics.full_lockstep_cycles, metrics.observed_cycles - 1);
}

TEST(LockstepAnalyzer, DivergenceEndsFullLockstep) {
  auto config = config_no_stagger();
  config.features = sim::SyncFeatures::disabled();
  sim::Platform platform(config);
  platform.load_program(compile(R"(
      csrr r1, #0
      cmpi r1, 0
      beq  a
      movi r2, 1
      movi r3, 1
      movi r4, 1
      halt
  a:
      movi r2, 2
      movi r3, 2
      movi r4, 2
      halt
  )"));
  LockstepAnalyzer analyzer;
  analyzer.attach(platform);
  ASSERT_TRUE(platform.run(1000).ok());
  const auto& metrics = analyzer.metrics();
  // In lockstep up to the branch, out of it once core 0 takes it.
  EXPECT_GT(metrics.full_lockstep_cycles, 0u);
  EXPECT_LT(2 * metrics.full_lockstep_cycles, metrics.observed_cycles);
}

TEST(LockstepAnalyzer, ResetClearsMetrics) {
  sim::Platform platform(config_no_stagger());
  platform.load_program(compile("halt\n"));
  LockstepAnalyzer analyzer;
  analyzer.attach(platform);
  (void)platform.run(10);
  EXPECT_GT(analyzer.metrics().observed_cycles, 0u);
  analyzer.reset();
  EXPECT_EQ(analyzer.metrics().observed_cycles, 0u);
}

}  // namespace
}  // namespace ulpsync::core
