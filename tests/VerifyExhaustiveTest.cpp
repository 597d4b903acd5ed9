//===- tests/VerifyExhaustiveTest.cpp - Parameterized-N full sweeps -------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The heavyweight end of the differential harness: every property at
/// N in [9, 12] over the complete (n, d) state space — about 17 million
/// input pairs and 800 million comparisons at N = 12 — and the
/// service-scalar property through the registry at N = 8 and 16. Widths
/// 4 through 8 run in VerifyHarnessTest.cpp so the fast suite still
/// exercises the machinery; these carry the `exhaustive` ctest label
/// and a longer timeout.
///
//===----------------------------------------------------------------------===//

#include "verify/Verify.h"

#include <gtest/gtest.h>

using namespace gmdiv::verify;

namespace {

void expectWidthClean(int WordBits) {
  const VerifyReport Report = verifyWidth(WordBits);
  EXPECT_GT(Report.checks(), 0u);
  EXPECT_TRUE(Report.clean()) << reportJson(Report);
}

TEST(VerifyExhaustive, Width9) { expectWidthClean(9); }
TEST(VerifyExhaustive, Width10) { expectWidthClean(10); }
TEST(VerifyExhaustive, Width11) { expectWidthClean(11); }
TEST(VerifyExhaustive, Width12) { expectWidthClean(12); }

void expectServiceWidthClean(int WordBits) {
  const VerifyReport Report = verifyServiceWidth(WordBits);
  EXPECT_GT(Report.checks(), 0u);
  EXPECT_EQ(Report.checks(), Report.Properties.back().Checks)
      << "only service-scalar runs in a service sweep";
  EXPECT_TRUE(Report.clean()) << reportJson(Report);
}

TEST(VerifyServiceScalar, Exhaustive8) { expectServiceWidthClean(8); }
TEST(VerifyServiceScalar, Width16EachAxis) {
  expectServiceWidthClean(16);
}

} // namespace
