//===- perfbench/src/SelfTest.h - The benchmark's own checks ----*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SELFTEST_H
#define PERFBENCH_SELFTEST_H

namespace perfbench {

/// Percentile, median, residual and Zipf arithmetic on fixed inputs.
/// Cheap; every run performs them, printing only failures unless
/// \p Verbose. Returns the number of failures.
int runArithmeticSelfTests(bool Verbose);

/// Seed reproducibility of every workload's request stream (builds each
/// workload three times). Returns the number of failures.
int runStreamSelfTests();

} // namespace perfbench

#endif // PERFBENCH_SELFTEST_H
