// Typed environment-variable access for every FLB_* knob.
//
// Before this helper, each knob parsed its own getenv: a bad value like
// FLB_HOST_THREADS=abc silently fell back (or worse, became 0) with no
// trace of the typo. Env centralizes the parsing discipline:
//
//  * Typed getters with a fallback: Str / Flag / Int / Double.
//  * Range validation: out-of-range numerics are clamped into [min, max].
//  * One warning line to stderr per (variable, value) for malformed or
//    out-of-range input, so a typo'd knob is visible instead of silent.
//
// Reading the environment is deterministic for a fixed environment, so
// these calls are fine on simulated paths (flb_analyze FLB001/FLB002
// are about wall clocks and ambient entropy, not configuration).

#ifndef FLB_COMMON_ENV_H_
#define FLB_COMMON_ENV_H_

#include <cstdint>
#include <limits>
#include <string>

namespace flb::common {

class Env {
 public:
  // Raw getenv: nullptr when unset. Prefer the typed getters below.
  static const char* Raw(const char* name);
  static bool Has(const char* name) { return Raw(name) != nullptr; }

  // String value, or `fallback` when unset. Empty values are returned
  // as-is (an explicitly empty FLB_FAULT_PLAN means "no plan").
  static std::string Str(const char* name, const std::string& fallback = "");

  // Boolean flag. Unset -> fallback; "0" / "false" / "off" / "no" / ""
  // (case-insensitive) -> false; any other value -> true. This matches the
  // historical "set means on" convention (FLB_SMOKE=1, FLB_TRACE=1) while
  // making FLB_X=0 mean off instead of on.
  static bool Flag(const char* name, bool fallback = false);

  // Integer with range validation. Unset -> fallback. Malformed -> warn
  // once, fallback. Out of [min, max] -> warn once, clamp.
  static int Int(const char* name, int fallback,
                 int min = std::numeric_limits<int>::min(),
                 int max = std::numeric_limits<int>::max());

  // Double with range validation; same rules as Int.
  static double Double(const char* name, double fallback,
                       double min = -std::numeric_limits<double>::infinity(),
                       double max = std::numeric_limits<double>::infinity());

  // Test hooks: parse a value the way Int/Double would, without touching
  // the environment. Returns false on malformed input.
  static bool ParseInt(const std::string& value, int* out);
  static bool ParseDouble(const std::string& value, double* out);

  // Number of warnings emitted so far (tests assert malformed values are
  // reported exactly once).
  static uint64_t warnings();

 private:
  static void WarnOnce(const char* name, const std::string& value,
                       const std::string& what);
};

}  // namespace flb::common

#endif  // FLB_COMMON_ENV_H_
