//===- verify/Verify.h - Differential verification driver -------*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checking side of the differential verification harness. Every
/// divider in src/core, every generated sequence in src/codegen (run
/// through the IR interpreter) and, at native widths, every batch
/// backend is compared bit-for-bit against the wide-integer oracle
/// (verify/Oracle.h), grouped into named *properties* so a report can
/// say exactly which algorithm diverged and on which inputs.
///
/// verifyWidth(N) checks one width exhaustively over all 2^N * (2^N - 1)
/// (n, d) pairs — practical for N in [4, 12], where the theorems'
/// corner cases (d near 2^(N-1), m >= 2^N, the INT_MIN row) all occur
/// within milliseconds of search space. The same per-divisor checkers
/// back the boundary-biased fuzzer (verify/Fuzzer.h) at N = 16/32/64.
///
/// Failures are recorded as standalone repro strings
///   gmdiv:v1:<property>:N=<bits>:d=<divisor>:n=<dividend>[:n2=<extra>]
///     [:f=<family>]
/// (signed properties print signed decimals; n2 carries the high word
/// for doubleword properties; f names the divider family for the
/// successor-family properties — "fastmod", "roundup", "narrow32" — and
/// is omitted for the paper's own "gm" algorithms). checkOne() replays
/// one repro against exactly that family, which is also how the fuzzer
/// minimizes failures.
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_VERIFY_VERIFY_H
#define GMDIV_VERIFY_VERIFY_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace gmdiv {

namespace telemetry {
namespace json {
class Writer;
} // namespace json
} // namespace telemetry

namespace verify {

/// Checks/mismatch tally for one named property ("unsigned-divider",
/// "codegen-floor", ...). The full property list is fixed; properties
/// that cannot run at a width (e.g. batch backends at non-native N)
/// simply report zero checks.
struct PropertyCount {
  std::string Name;
  uint64_t Checks = 0;
  uint64_t Mismatches = 0;
};

/// Outcome of one verification sweep (exhaustive or fuzz).
struct VerifyReport {
  int WordBits = 0;
  std::vector<PropertyCount> Properties;
  /// Standalone repro strings, deduplicated, capped (see FailureCap).
  std::vector<std::string> Failures;

  uint64_t checks() const;
  uint64_t mismatches() const;
  bool clean() const { return mismatches() == 0; }

  /// Mismatch count for one property (0 when absent).
  uint64_t mismatches(const std::string &Property) const;

  /// Merges another report's tallies into this one (same width layout).
  void merge(const VerifyReport &Other);
};

/// Most failures kept per report; later ones only bump the counters.
inline constexpr size_t FailureCap = 32;

/// Exhaustively verifies every property at \p WordBits (4 <= N <= 12)
/// over all divisors and all dividends.
VerifyReport verifyWidth(int WordBits);

/// The service-scalar property alone at native width \p WordBits (8 or
/// 16): every divisor of both key kinds is admitted through a
/// DividerRegistry and its entry's scalar and array calls are checked
/// against the Oracle. N = 8 covers every (n, d) pair. N = 16 covers
/// each axis in full instead of all 2^32 pairs: every divisor over a
/// boundary dividend set, and every dividend for the smallest divisors
/// of both signs and all powers of two and their neighbours. (The
/// fuzzer covers 32 and 64 through checkDivisor.)
VerifyReport verifyServiceWidth(int WordBits);

/// Checks one divisor over the given dividend bit patterns: all scalar
/// dividers and generated sequences per dividend, the per-divisor
/// CHOOSE_MULTIPLIER / doubleword checks once, \p DwordPairs as extra
/// (high, low) doubleword dividends (pairs with high >= d are skipped),
/// and — at native widths — every batch backend over \p Ns. This is the
/// fuzzer's entry point into the shared checker.
VerifyReport
checkDivisor(int WordBits, uint64_t DBits, const std::vector<uint64_t> &Ns,
             const std::vector<std::pair<uint64_t, uint64_t>> &DwordPairs);

/// One report as a JSON object (word_bits, totals, per-property counts,
/// failure repro strings).
std::string reportJson(const VerifyReport &Report);

/// Same, written into an existing JSON writer (for embedding in a
/// larger document, e.g. the fuzzer's per-width array).
void reportJsonInto(telemetry::json::Writer &W, const VerifyReport &Report);

/// A parsed repro string.
struct Repro {
  std::string Property;
  int WordBits = 0;
  uint64_t DBits = 0;  ///< Divisor bit pattern (low WordBits bits).
  uint64_t NBits = 0;  ///< Dividend bit pattern.
  uint64_t N2Bits = 0; ///< Extra operand (doubleword high part).
  bool HasN2 = false;
  /// Divider family tag ("gm", "fastmod", "roundup", "narrow32").
  /// Empty means unspecified; when set it must match the property's
  /// registered family or checkOne() rejects the repro.
  std::string Family;
};

/// Formats \p R as a gmdiv:v1 repro string (signed properties print
/// sign-extended decimals).
std::string reproString(const Repro &R);

/// Parses a gmdiv:v1 repro string; returns false on malformed input.
bool parseRepro(const std::string &Text, Repro &Out);

/// Re-runs the checks behind one repro. Returns true when the named
/// property now passes on those inputs; \p DetailOut (optional) receives
/// a human-readable account either way. Replays never emit
/// verify.mismatch remarks (so minimization does not multiply the one
/// remark a discovered failure produced).
bool checkOne(const Repro &R, std::string *DetailOut = nullptr);

/// Test hook: every \p Period-th comparison reports a deliberately
/// corrupted value, so the harness's own failure path (repro strings,
/// telemetry remarks, exit codes) can be exercised. 0 disables.
void setInjectedMismatchPeriod(uint64_t Period);

} // namespace verify
} // namespace gmdiv

#endif // GMDIV_VERIFY_VERIFY_H
