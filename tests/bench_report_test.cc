// Tests for the bench verdict contract (bench/bench_common.h): every
// hand-rolled bench's exit code comes from one BenchReport.
#include <gtest/gtest.h>

#include "bench/bench_common.h"

namespace guillotine {
namespace {

constexpr bool kFull = false;
constexpr bool kSmoke = true;

TEST(BenchReportTest, FailedGatePrintsOneBreachLineAndExitsOne) {
  BenchReport report(kFull);
  testing::internal::CaptureStderr();
  EXPECT_TRUE(report.Gate(true, "never printed"));
  EXPECT_FALSE(report.Gate(false, "hosts=", 2, " lost ", 3, " requests"));
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "SLO BREACH: hosts=2 lost 3 requests\n");
  EXPECT_EQ(report.Finish("observation"), 1);
}

TEST(BenchReportTest, TimingGateIsEnforcedInFullModeOnly) {
  BenchReport full(kFull);
  EXPECT_FALSE(full.TimingGate(false, "ratio too low"));
  EXPECT_EQ(full.Finish("full"), 1);

  BenchReport smoke(kSmoke);
  testing::internal::CaptureStderr();
  EXPECT_TRUE(smoke.TimingGate(false, "ratio too low"));
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(smoke.Finish("smoke"), 0);
  // Smoke mode relaxes only the timing gates.
  smoke.Gate(false, "a simulated claim");
  EXPECT_EQ(smoke.Finish("smoke"), 1);
}

TEST(BenchReportTest, RerunMarksDivergenceAndFailsTheRun) {
  BenchReport report(kSmoke);
  EXPECT_STREQ(report.Rerun(u64{7}, u64{7}), "=");
  EXPECT_STREQ(report.Rerun(std::string("digest"), std::string("digest")), "=");
  EXPECT_EQ(report.Finish("same"), 0);
  testing::internal::CaptureStderr();
  EXPECT_STREQ(report.Rerun(u64{7}, u64{8}), "!");
  EXPECT_NE(testing::internal::GetCapturedStderr().find("SLO BREACH"), std::string::npos);
  EXPECT_EQ(report.Finish("diverged"), 1);
}

TEST(BenchReportTest, AllPassExitsZeroAndPrintsTheFooter) {
  BenchReport report(kFull);
  EXPECT_TRUE(report.Gate(true, "claim"));
  EXPECT_TRUE(report.TimingGate(true, "ratio"));
  EXPECT_STREQ(report.Mark(true, "equivalence"), "=");
  EXPECT_STREQ(GateCell(true), "ok");
  testing::internal::CaptureStdout();
  EXPECT_EQ(report.Finish("every gate held"), 0);
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "\nobservation: every gate held\n\n");
}

}  // namespace
}  // namespace guillotine
