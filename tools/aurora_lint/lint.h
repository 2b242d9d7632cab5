// aurora_lint — project-specific static analysis for the Aurora tree.
//
// A deliberately small, dependency-free pass (a hand-rolled tokenizer, no
// libclang) that enforces the contracts Aurora's correctness story rests on.
// Token-level families:
//
//   error-propagation  Status / Result<T> must be [[nodiscard]]; every
//                      header-declared function returning them must carry
//                      the attribute; discarding a call result requires
//                      AURORA_IGNORE_STATUS(expr, "reason") — bare (void)
//                      casts of calls are rejected.
//   determinism        src/ must not reach for wall clocks or unseeded
//                      randomness (std::chrono::{system,steady,
//                      high_resolution}_clock, time(), rand(), srand(),
//                      random_device, gettimeofday, clock_gettime,
//                      __DATE__/__TIME__). Simulated time flows through
//                      SimClock, randomness through aurora::Rng.
//   hygiene            no std::cout / printf / fprintf(stdout, ...) in
//                      library code (src/obs and the CLI are exempt), every
//                      header carries an include guard, and every lint
//                      waiver carries a written reason.
//
// Flow-sensitive families (see tools/aurora_lint/dataflow.h and DESIGN.md
// §19 for the engine):
//
//   typestate          segment lifecycle states and dedup-index refcounts in
//                      src/objstore may only change through the sanctioned
//                      transition API (SegTransition / DedupAddRef /
//                      DedupDropRef).
//   gen                non-const methods of serialize-cache generation
//                      classes must bump the generation on every path that
//                      writes a member.
//   result             Result<T>::value() / operator* / operator-> only on
//                      paths where ok() was tested (or status() consumed).
//
// A finding on a line can be suppressed with a trailing comment carrying a
// non-empty reason (reasonless waivers are themselves findings):
//   // aurora-lint: allow(<rule-or-family>): <why this is sound>
#ifndef TOOLS_AURORA_LINT_LINT_H_
#define TOOLS_AURORA_LINT_LINT_H_

#include <string>
#include <vector>

namespace aurora::lint {

struct Registry;  // defined in tools/aurora_lint/dataflow.h

// Stable rule identifiers, grouped by family.
// error-propagation family:
inline constexpr char kRuleNodiscardType[] = "error-propagation/nodiscard-type";
inline constexpr char kRuleNodiscardApi[] = "error-propagation/nodiscard-api";
inline constexpr char kRuleVoidCast[] = "error-propagation/void-cast";
inline constexpr char kRuleIgnoreReason[] = "error-propagation/ignore-reason";
// determinism family:
inline constexpr char kRuleWallClock[] = "determinism/wall-clock";
inline constexpr char kRuleUnseededRandom[] = "determinism/unseeded-random";
inline constexpr char kRuleBuildTimestamp[] = "determinism/build-timestamp";
// hygiene family:
inline constexpr char kRuleStdoutInLibrary[] = "hygiene/stdout-in-library";
inline constexpr char kRuleIncludeGuard[] = "hygiene/include-guard";
inline constexpr char kRuleWaiverReason[] = "hygiene/waiver-reason";
// typestate family:
inline constexpr char kRuleTypestateSegment[] = "typestate/segment-state";
inline constexpr char kRuleTypestateDedup[] = "typestate/dedup-refcount";
// gen family:
inline constexpr char kRuleGenMissedBump[] = "gen/missed-bump";
// result family:
inline constexpr char kRuleUncheckedValue[] = "result/unchecked-value";

// Every rule family, in display order. ci.sh gates on this list surviving.
inline constexpr const char* kFamilies[] = {"error-propagation", "determinism", "hygiene",
                                            "typestate", "gen", "result"};

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;     // one of the kRule* identifiers above
  std::string message;  // human-readable description

  [[nodiscard]] std::string ToString() const;
};

struct Options {
  // Rule families to run; empty means all. Valid entries are the kFamilies.
  std::vector<std::string> families;
  // Path substrings exempt from the stdout-in-library rule. Callers that want
  // the defaults (src/obs/, src/core/cli.cc) should call AddDefaultExemptions.
  std::vector<std::string> output_exempt_paths;
  // Path substrings the typestate family applies to. The segment/dedup
  // lifecycle lives in the object store; fixtures override this.
  std::vector<std::string> typestate_paths = {"src/objstore/"};
  // Cross-file class registry built by a prescan (LintRoots does this).
  // When null, LintFile builds a single-file registry on the fly.
  const Registry* registry = nullptr;

  void AddDefaultExemptions();
  [[nodiscard]] bool FamilyEnabled(const std::string& family) const;
};

// Lints one file whose contents are already in memory. `path` is used for
// reporting and for path-based rule decisions (headers vs sources, output
// exemptions, typestate scope).
[[nodiscard]] std::vector<Finding> LintFile(const std::string& path,
                                            const std::string& contents,
                                            const Options& opts);

// Reads `path` from disk and lints it. Returns a finding (not an error) if
// the file cannot be read, so tree runs keep going.
[[nodiscard]] std::vector<Finding> LintPath(const std::string& path,
                                            const Options& opts);

// Lints every *.h / *.cc under the given roots (files or directories) after
// a registry prescan over all of them, so out-of-line methods in one root
// see class declarations from another. Paths containing "lint_fixtures" are
// skipped: the fixtures violate the rules on purpose.
[[nodiscard]] std::vector<Finding> LintRoots(const std::vector<std::string>& roots,
                                             const Options& opts);

// Single-root convenience wrapper over LintRoots.
[[nodiscard]] std::vector<Finding> LintTree(const std::string& root,
                                            const Options& opts);

}  // namespace aurora::lint

#endif  // TOOLS_AURORA_LINT_LINT_H_
