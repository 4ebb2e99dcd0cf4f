// Rule implementations for e10_lint. Each rule consumes the whole-program
// model (every parsed file) and emits findings; suppressions
// (e10-lint-allow) are applied here so every rule honors them uniformly.
// The catalog, rationale and examples live in docs/static_analysis.md.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "lexer.h"
#include "model.h"

namespace e10::lint {

/// One parsed translation unit / header: the structural model plus the raw
/// tokens (the determinism rule scans tokens directly — an identifier like
/// steady_clock is banned in any position, not just call sites).
struct LintedFile {
  FileModel model;
  std::vector<Token> tokens;
};

struct RuleConfig {
  /// unwind-blocking: method/function names that ARE blocking simulator
  /// primitives (SimMutex::lock, SimEvent::wait, Mailbox::recv, ...).
  std::set<std::string> blocking_methods = {
      "lock",   "wait",       "acquire", "arrive_and_wait", "join",
      "recv",   "block",      "delay",   "advance_to",      "yield",
  };
  /// unwind-blocking: RAII types whose construction blocks (SimLock takes
  /// the mutex in its constructor).
  std::set<std::string> blocking_types = {"SimLock"};

  /// wall-clock: identifiers banned anywhere in sim-visible code.
  std::set<std::string> banned_idents = {
      "steady_clock",  "system_clock",   "high_resolution_clock",
      "random_device", "gettimeofday",   "clock_gettime",
      "timespec_get",  "srand",          "utc_clock",
      "tai_clock",     "file_clock",
  };
  /// wall-clock: banned only as a call (`rand()` — `rand` alone may be a
  /// field or parameter name).
  std::set<std::string> banned_calls = {"rand", "time", "localtime",
                                        "gmtime", "mktime"};

  /// nodiscard: return-type heads that must not be silently discarded.
  /// Satisfied by a class-level `class [[nodiscard]] T` (discovered from
  /// the parsed tree) or a `[[nodiscard]]` on some declaration of the
  /// function.
  std::set<std::string> nodiscard_types = {"Status", "Result", "Grequest"};
};

extern const std::vector<std::string> kAllRules;

/// Runs `enabled` rules over `files`; returns suppression-filtered
/// findings in deterministic (path, line, rule) order.
std::vector<Finding> run_rules(const std::vector<LintedFile>& files,
                               const RuleConfig& config,
                               const std::set<std::string>& enabled);

}  // namespace e10::lint
