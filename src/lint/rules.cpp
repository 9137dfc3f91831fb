#include "lint/rules.h"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <utility>

#include "util/error.h"

namespace tgi::lint {

namespace {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// Lowercase copy, ASCII only (identifier names are ASCII).
std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

void add(std::vector<Violation>& out, const SourceFile& file, std::size_t line,
         std::string_view rule, std::string message) {
  out.push_back(Violation{file.path, line, std::string(rule), std::move(message)});
}

// --- banned-random --------------------------------------------------------

/// Random-number machinery that bypasses the seeded util::Xoshiro256 policy.
/// <random> *distributions* are fine (Xoshiro256 satisfies
/// UniformRandomBitGenerator); engines and entropy sources are not.
class BannedRandomRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "banned-random"; }
  [[nodiscard]] std::string_view description() const override {
    return "unseeded / non-reproducible randomness outside util/rng "
           "(use seeded util::Xoshiro256)";
  }

  void check(const SourceFile& file, std::vector<Violation>& out) const override {
    if (starts_with(file.path, "src/util/rng")) return;  // the one sanctioned home
    static constexpr std::string_view kBannedCalls[] = {
        "rand", "srand", "rand_r", "drand48", "lrand48", "srand48",
    };
    static constexpr std::string_view kBannedTypes[] = {
        "mt19937",       "mt19937_64",           "minstd_rand",
        "minstd_rand0",  "default_random_engine", "random_device",
        "ranlux24",      "ranlux48",              "knuth_b",
    };
    for (std::size_t i = 0; i < file.code.size(); ++i) {
      const std::string& line = file.code[i];
      for (std::string_view name : kBannedCalls) {
        if (contains_call(line, name)) {
          add(out, file, i + 1, id(),
              std::string(name) +
                  "() is not reproducible; use seeded util::Xoshiro256");
        }
      }
      for (std::string_view name : kBannedTypes) {
        if (contains_identifier(line, name)) {
          add(out, file, i + 1, id(),
              "std::" + std::string(name) +
                  " bypasses the seeded-RNG policy; use util::Xoshiro256");
        }
      }
    }
  }
};

// --- raw-unit-double ------------------------------------------------------

/// `double watts` style parameters/members in public library headers.
/// Physical quantities crossing module boundaries must use the strong types
/// in util/units.h (units::Watts, units::Joules, units::Seconds, ...).
class RawUnitDoubleRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "raw-unit-double"; }
  [[nodiscard]] std::string_view description() const override {
    return "raw double with a unit-suspicious name in a library header "
           "(use util/units.h strong types)";
  }

  void check(const SourceFile& file, std::vector<Violation>& out) const override {
    if (file.kind != FileKind::kLibraryHeader) return;
    for (std::size_t i = 0; i < file.code.size(); ++i) {
      scan_line(file, i, out);
    }
  }

 private:
  static bool suspicious_name(std::string_view name) {
    static constexpr std::string_view kUnitFragments[] = {
        "watt", "joule", "second", "energy", "power", "flops",
    };
    // Derived ratios (flops_per_watt, power_ratio, efficiency values) are
    // dimensionless-by-convention and legitimately raw doubles; only bare
    // quantities must be strong-typed.
    static constexpr std::string_view kRatioMarkers[] = {
        "per_", "_per", "ratio", "efficiency", "factor", "fraction",
    };
    const std::string lower = to_lower(name);
    for (std::string_view marker : kRatioMarkers) {
      if (lower.find(marker) != std::string::npos) return false;
    }
    for (std::string_view fragment : kUnitFragments) {
      if (lower.find(fragment) != std::string::npos) return true;
    }
    return false;
  }

  void scan_line(const SourceFile& file, std::size_t index,
                 std::vector<Violation>& out) const {
    const std::string& line = file.code[index];
    std::size_t pos = 0;
    while ((pos = line.find("double", pos)) != std::string::npos) {
      const std::size_t start = pos;
      pos += 6;  // length of "double"
      // Whole-identifier check for the keyword itself.
      if (start > 0 && is_ident_char(line[start - 1])) continue;
      if (pos < line.size() && is_ident_char(line[pos])) continue;
      // Skip whitespace, then collect the declared name, if any.
      std::size_t j = pos;
      while (j < line.size() && line[j] == ' ') ++j;
      std::size_t name_end = j;
      while (name_end < line.size() && is_ident_char(line[name_end])) {
        ++name_end;
      }
      if (name_end == j) continue;  // `double)` / `double>` / end of line
      // `double foo(` is a function returning double (conversion helpers
      // like in_megaflops), not a stored quantity — skip it.
      std::size_t after = name_end;
      while (after < line.size() && line[after] == ' ') ++after;
      if (after < line.size() && line[after] == '(') continue;
      const std::string_view name =
          std::string_view(line).substr(j, name_end - j);
      if (suspicious_name(name)) {
        add(out, file, index + 1, id(),
            "'double " + std::string(name) +
                "' in a public header; pass util/units.h strong types "
                "across module boundaries");
      }
    }
  }
};

// --- raw-aligned-alloc ----------------------------------------------------

/// Raw aligned-allocation calls outside util/simd. The aligned-lane
/// substrate (util/simd.h, DESIGN.md §14) is the one sanctioned home for
/// alignment: its AlignedAllocator flows through the sized,
/// alignment-aware global operators, so ASan tracks every byte and the
/// deallocation always matches. Ad-hoc std::aligned_alloc /
/// posix_memalign / _mm_malloc (and direct operator new with
/// std::align_val_t) reintroduce malloc/free-family mismatches and
/// scatter the alignment guarantee the kernels rely on.
class RawAlignedAllocRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override {
    return "raw-aligned-alloc";
  }
  [[nodiscard]] std::string_view description() const override {
    return "raw aligned allocation (aligned_alloc, posix_memalign, "
           "_mm_malloc, operator new with std::align_val_t) outside "
           "util/simd (use util::simd::Lane / AlignedAllocator)";
  }

  void check(const SourceFile& file, std::vector<Violation>& out) const override {
    if (!starts_with(file.path, "src/") && !starts_with(file.path, "tools/")) {
      return;
    }
    if (starts_with(file.path, "src/util/simd")) return;  // the sanctioned home
    static constexpr std::string_view kCalls[] = {
        "aligned_alloc", "posix_memalign", "_mm_malloc"};
    for (std::size_t i = 0; i < file.code.size(); ++i) {
      const std::string& line = file.code[i];
      for (std::string_view name : kCalls) {
        if (contains_call(line, name)) {
          add(out, file, i + 1, id(),
              std::string(name) +
                  "() outside util/simd; aligned lanes come from "
                  "util::simd::make_lane / AlignedAllocator");
        }
      }
      if (contains_identifier(line, "align_val_t")) {
        add(out, file, i + 1, id(),
            "operator new(std::align_val_t) outside util/simd; aligned "
            "lanes come from util::simd::make_lane / AlignedAllocator");
      }
    }
  }
};

// --- isa-specific-code ----------------------------------------------------

/// Code for one instruction set — intrinsic headers, per-function target
/// attributes, CPU-feature queries — outside util/atomic_file.cpp. The
/// CRC-32 there is the one kernel that picks an ISA path at run time (a
/// PCLMULQDQ fold, with the portable table loop beside it and a test that
/// holds both to a bitwise reference). Anywhere else, such code would be a
/// second build- or host-dependent path that the rest of the repository's
/// byte-identity contracts do not cover.
class IsaSpecificCodeRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override {
    return "isa-specific-code";
  }
  [[nodiscard]] std::string_view description() const override {
    return "ISA-specific code (<*intrin.h> / <arm_neon.h> includes, "
           "__attribute__((target(...))), __builtin_cpu_supports) outside "
           "util/atomic_file.cpp, the CRC-32's one sanctioned home";
  }

  void check(const SourceFile& file, std::vector<Violation>& out) const override {
    if (file.path == "src/util/atomic_file.cpp") return;  // the one home
    static constexpr std::string_view kBuiltins[] = {
        "__builtin_cpu_supports", "__builtin_cpu_is", "__builtin_cpu_init"};
    for (std::size_t i = 0; i < file.code.size(); ++i) {
      const std::string& line = file.code[i];
      std::string packed;  // the line without blanks
      for (const char c : line) {
        if (c != ' ' && c != '\t') packed += c;
      }
      const std::string_view why =
          " outside util/atomic_file.cpp; ISA-specific code lives in the "
          "CRC-32 alone";
      if (starts_with(packed, "#include<") &&
          (packed.find("intrin.h>") != std::string::npos ||
           packed.find("<arm_neon.h>") != std::string::npos)) {
        add(out, file, i + 1, id(),
            "intrinsics header" + std::string(why));
      }
      if (packed.find("__attribute__((target(") != std::string::npos ||
          packed.find("gnu::target(") != std::string::npos) {
        add(out, file, i + 1, id(),
            "per-function target attribute" + std::string(why));
      }
      for (std::string_view name : kBuiltins) {
        if (contains_identifier(line, name)) {
          add(out, file, i + 1, id(), std::string(name) + std::string(why));
        }
      }
    }
  }
};

// --- raw-process-spawn ----------------------------------------------------

/// Raw process-control calls outside util/subprocess. util::Subprocess is
/// the one sanctioned home for fork/exec/waitpid (DESIGN.md §8): it owns
/// the fd redirection, the non-blocking try_wait()/kill() surface, and a
/// destructor that SIGTERM→SIGKILL-escalates instead of blocking forever
/// on a hung child. Ad-hoc fork()/system()/popen() calls bypass all of
/// that, and system()/popen() additionally launder argv through an
/// unauditable shell.
class RawProcessSpawnRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override {
    return "raw-process-spawn";
  }
  [[nodiscard]] std::string_view description() const override {
    return "raw process control (fork, exec*, waitpid, system, popen, "
           "posix_spawn) outside util/subprocess (spawn children through "
           "util::Subprocess)";
  }

  void check(const SourceFile& file, std::vector<Violation>& out) const override {
    if (!starts_with(file.path, "src/") && !starts_with(file.path, "tools/")) {
      return;
    }
    // The one sanctioned home for process control.
    if (starts_with(file.path, "src/util/subprocess")) return;
    static constexpr std::string_view kCalls[] = {
        "fork",   "vfork",   "execl",       "execlp",
        "execle", "execv",   "execvp",      "execvpe",
        "execve", "fexecve", "waitpid",     "wait3",
        "wait4",  "system",  "popen",       "posix_spawn",
        "posix_spawnp"};
    for (std::size_t i = 0; i < file.code.size(); ++i) {
      const std::string& line = file.code[i];
      for (std::string_view name : kCalls) {
        if (contains_call(line, name)) {
          add(out, file, i + 1, id(),
              std::string(name) +
                  "() outside util/subprocess; spawn and supervise "
                  "children through util::Subprocess");
        }
      }
    }
  }
};

// --- raw-thread -----------------------------------------------------------

/// std::thread / std::jthread / std::async outside util/thread_pool.
/// Ad-hoc threads fragment the determinism story (unordered side effects)
/// and TSan coverage; concurrency flows through util::ThreadPool.
class RawThreadRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "raw-thread"; }
  [[nodiscard]] std::string_view description() const override {
    return "raw std::thread / std::jthread / std::async outside "
           "util/thread_pool (route concurrency through util::ThreadPool)";
  }

  void check(const SourceFile& file, std::vector<Violation>& out) const override {
    // The one sanctioned home for raw threads.
    if (starts_with(file.path, "src/util/thread_pool")) return;
    static constexpr std::string_view kBanned[] = {"thread", "jthread",
                                                   "async"};
    for (std::size_t i = 0; i < file.code.size(); ++i) {
      const std::string& line = file.code[i];
      for (std::string_view name : kBanned) {
        if (mentions_std(line, name)) {
          add(out, file, i + 1, id(),
              "std::" + std::string(name) +
                  " outside util/thread_pool; use util::ThreadPool so "
                  "sweeps stay deterministic and TSan stays meaningful");
        }
      }
    }
  }

 private:
  /// True if `line` contains `std::<name>` with whole-identifier
  /// boundaries on both `std` and `<name>` (so std::this_thread and
  /// my_thread never match).
  static bool mentions_std(std::string_view line, std::string_view name) {
    const std::string needle = "std::" + std::string(name);
    std::size_t pos = 0;
    while ((pos = line.find(needle, pos)) != std::string_view::npos) {
      const bool left_ok = pos == 0 || !is_ident_char(line[pos - 1]);
      const std::size_t end = pos + needle.size();
      const bool right_ok = end >= line.size() || !is_ident_char(line[end]);
      if (left_ok && right_ok) return true;
      pos += 1;
    }
    return false;
  }
};

// --- relative-include -----------------------------------------------------

/// `#include "../foo.h"` — include paths must be repo-relative from src/.
class RelativeIncludeRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override {
    return "relative-include";
  }
  [[nodiscard]] std::string_view description() const override {
    return "relative #include path (includes are repo-relative from src/)";
  }

  void check(const SourceFile& file, std::vector<Violation>& out) const override {
    for (std::size_t i = 0; i < file.raw.size(); ++i) {
      const std::string& line = file.raw[i];
      std::size_t pos = line.find('#');
      if (pos == std::string::npos) continue;
      // Only leading whitespace may precede the '#'.
      if (line.find_first_not_of(" \t") != pos) continue;
      std::size_t kw = line.find_first_not_of(" \t", pos + 1);
      if (kw == std::string::npos || line.compare(kw, 7, "include") != 0) {
        continue;
      }
      const std::size_t quote = line.find('"', kw + 7);
      if (quote == std::string::npos) continue;
      const std::string_view target = std::string_view(line).substr(quote + 1);
      if (starts_with(target, "../") || starts_with(target, "./")) {
        add(out, file, i + 1, id(),
            "relative include; write it repo-relative from src/ "
            "(e.g. #include \"core/tgi.h\")");
      }
    }
  }
};

// --- assert-macro ---------------------------------------------------------

/// Bare assert() in library code. assert vanishes under NDEBUG and aborts
/// instead of throwing; library invariants use TGI_REQUIRE / TGI_CHECK.
class AssertMacroRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "assert-macro"; }
  [[nodiscard]] std::string_view description() const override {
    return "assert() in library code (use TGI_REQUIRE / TGI_CHECK)";
  }

  void check(const SourceFile& file, std::vector<Violation>& out) const override {
    if (!is_library(file.kind)) return;
    for (std::size_t i = 0; i < file.code.size(); ++i) {
      // contains_call's whole-identifier check already rejects
      // static_assert, so one probe suffices.
      if (contains_call(file.code[i], "assert")) {
        add(out, file, i + 1, id(),
            "assert() aborts and vanishes under NDEBUG; use TGI_REQUIRE "
            "(caller bug) or TGI_CHECK (internal bug)");
      }
    }
  }
};

// --- cout-in-library ------------------------------------------------------

/// Direct stdout/stderr writes from static-library modules. Libraries
/// return values and log through util/log; only executables print.
class CoutInLibraryRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override {
    return "cout-in-library";
  }
  [[nodiscard]] std::string_view description() const override {
    return "stdout/stderr writes in a static-library module (go through "
           "util/log)";
  }

  void check(const SourceFile& file, std::vector<Violation>& out) const override {
    if (!is_library(file.kind)) return;
    if (starts_with(file.path, "src/util/log")) return;  // the sink itself
    static constexpr std::string_view kStreams[] = {"cout", "cerr"};
    static constexpr std::string_view kCalls[] = {"printf", "fprintf", "puts"};
    for (std::size_t i = 0; i < file.code.size(); ++i) {
      const std::string& line = file.code[i];
      for (std::string_view name : kStreams) {
        if (contains_identifier(line, name)) {
          add(out, file, i + 1, id(),
              "std::" + std::string(name) +
                  " in library code; use TGI_LOG_* or return the data");
        }
      }
      for (std::string_view name : kCalls) {
        if (contains_call(line, name)) {
          add(out, file, i + 1, id(),
              std::string(name) +
                  "() in library code; use TGI_LOG_* or return the data");
        }
      }
    }
  }
};

// --- nonatomic-output-write -----------------------------------------------

/// Direct std::ofstream use in the output-emitting layers (src/harness,
/// src/obs, src/serve, tools). A bare ofstream that dies mid-write (crash, SIGKILL,
/// ENOSPC) leaves a truncated file where a good one may have stood;
/// results, traces, and figure CSVs must go through util::AtomicFile /
/// util::atomic_write_file (write-to-temp + rename, DESIGN.md §11).
/// Deliberate append-mode writers (the checkpoint journal, which replaces
/// rename atomicity with per-record checksums) carry a per-line waiver.
class NonatomicOutputWriteRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override {
    return "nonatomic-output-write";
  }
  [[nodiscard]] std::string_view description() const override {
    return "direct std::ofstream in src/harness, src/obs, src/serve, or "
           "tools (publish files through util::AtomicFile)";
  }

  void check(const SourceFile& file, std::vector<Violation>& out) const override {
    if (!starts_with(file.path, "src/harness/") &&
        !starts_with(file.path, "src/obs/") &&
        !starts_with(file.path, "src/serve/") &&
        !starts_with(file.path, "tools/")) {
      return;
    }
    for (std::size_t i = 0; i < file.code.size(); ++i) {
      if (contains_identifier(file.code[i], "ofstream")) {
        add(out, file, i + 1, id(),
            "std::ofstream writes are not crash-safe; publish through "
            "util::AtomicFile (or waive a deliberate append-mode journal)");
      }
    }
  }
};

// --- unseeded-xoshiro -----------------------------------------------------

/// Default-constructed util::Xoshiro256. The defaulted seed parameter
/// makes `Xoshiro256 rng;` compile, but every such generator shares one
/// stream — a silent correlation bug in anything statistical, and a
/// determinism hazard for the fault plane, whose contract is that each
/// decision derives a fresh generator from (seed, indices).
class UnseededXoshiroRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override {
    return "unseeded-xoshiro";
  }
  [[nodiscard]] std::string_view description() const override {
    return "default-constructed util::Xoshiro256 (pass an explicit seed "
           "expression)";
  }

  void check(const SourceFile& file, std::vector<Violation>& out) const override {
    // The class itself (and its default-seed constant) lives here.
    if (starts_with(file.path, "src/util/rng")) return;
    for (std::size_t i = 0; i < file.code.size(); ++i) {
      if (default_constructs(file.code[i])) {
        add(out, file, i + 1, id(),
            "default-constructed Xoshiro256 reuses the shared default "
            "seed; pass an explicit seed expression");
      }
    }
  }

 private:
  /// True if `line` declares a Xoshiro256 without constructor arguments:
  /// `Xoshiro256 rng;` / `Xoshiro256 rng_{};` / `= Xoshiro256{};` /
  /// `Xoshiro256()`. Non-empty argument lists, parameters
  /// (`Xoshiro256 rng,` / `Xoshiro256& rng`), and return types are left
  /// alone.
  static bool default_constructs(std::string_view line) {
    std::size_t pos = 0;
    static constexpr std::string_view kType = "Xoshiro256";
    while ((pos = line.find(kType, pos)) != std::string_view::npos) {
      const std::size_t start = pos;
      pos += kType.size();
      if (start > 0 && is_ident_char(line[start - 1])) continue;
      if (pos < line.size() && is_ident_char(line[pos])) continue;
      // Optional declared name (absent for temporaries like Xoshiro256{}).
      const std::size_t name_begin = skip_spaces(line, pos);
      std::size_t name_end = name_begin;
      while (name_end < line.size() && is_ident_char(line[name_end])) {
        ++name_end;
      }
      const bool named = name_end > name_begin;
      const std::size_t j = skip_spaces(line, name_end);
      if (j >= line.size()) continue;
      // `Xoshiro256 rng;` — a named declaration ending the statement.
      if (named && line[j] == ';') return true;
      // Empty brace-init on a declaration or a temporary, and the
      // argument-less temporary `Xoshiro256()`. A *named* `rng()` is a
      // function declaration (most vexing parse), not a generator.
      if (line[j] == '{' || (!named && line[j] == '(')) {
        const char close = line[j] == '{' ? '}' : ')';
        const std::size_t k = skip_spaces(line, j + 1);
        if (k < line.size() && line[k] == close) return true;
      }
    }
    return false;
  }

  static std::size_t skip_spaces(std::string_view line, std::size_t j) {
    while (j < line.size() && line[j] == ' ') ++j;
    return j;
  }
};

// --- shared cross-line matching helpers -----------------------------------

constexpr std::size_t kNpos = std::string_view::npos;

/// Every whole-identifier occurrence of `ident` in `text`.
std::vector<std::size_t> identifier_positions(std::string_view text,
                                              std::string_view ident) {
  std::vector<std::size_t> positions;
  std::size_t pos = 0;
  while ((pos = text.find(ident, pos)) != kNpos) {
    const bool left_ok = pos == 0 || !is_ident_char(text[pos - 1]);
    const std::size_t end = pos + ident.size();
    const bool right_ok = end >= text.size() || !is_ident_char(text[end]);
    if (left_ok && right_ok) positions.push_back(pos);
    pos += 1;
  }
  return positions;
}

/// Skips spaces, tabs, and newlines (the flat stream keeps line breaks).
std::size_t skip_layout(std::string_view text, std::size_t i) {
  while (i < text.size() &&
         (text[i] == ' ' || text[i] == '\t' || text[i] == '\n')) {
    ++i;
  }
  return i;
}

/// Position of the delimiter matching the opener at `text[open]`, or npos.
std::size_t matching_close(std::string_view text, std::size_t open, char oc,
                           char cc) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == oc) {
      ++depth;
    } else if (text[i] == cc) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return kNpos;
}

/// Position of the '>' matching the '<' at `text[open]`, or npos. Counting
/// is enough for declaration-position template argument lists; `->` is
/// skipped so `map<K, decltype(f()->g())>` still balances.
std::size_t matching_angle(std::string_view text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '<') {
      ++depth;
    } else if (text[i] == '>' && (i == 0 || text[i - 1] != '-')) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return kNpos;
}

// --- unordered-iteration-in-output ----------------------------------------

/// Range-for over a std::unordered_map / std::unordered_set in the layers
/// that feed published artifacts (src/harness, src/obs, src/core,
/// src/serve, tools).
/// Hash-table iteration order is unspecified and may differ across
/// standard libraries and runs, so letting it reach a CSV row order, a
/// trace event order, or a stdout transcript silently breaks the
/// byte-reproducibility contract. Matched on the cross-line token stream:
/// container declarations are collected first (across line breaks), then
/// every range-for whose range expression names one of them — or names an
/// unordered container type directly — is flagged.
class UnorderedIterationRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override {
    return "unordered-iteration-in-output";
  }
  [[nodiscard]] std::string_view description() const override {
    return "range-for over std::unordered_map/unordered_set in an "
           "output-emitting layer (hash order could reach a published "
           "artifact; use an ordered container or sort first)";
  }

  void check(const SourceFile& file, std::vector<Violation>& out) const override {
    if (!starts_with(file.path, "src/harness/") &&
        !starts_with(file.path, "src/obs/") &&
        !starts_with(file.path, "src/core/") &&
        !starts_with(file.path, "src/serve/") &&
        !starts_with(file.path, "tools/")) {
      return;
    }
    const std::string_view flat = file.flat;
    const std::vector<std::string> names = declared_container_names(flat);
    for (const std::size_t pos : identifier_positions(flat, "for")) {
      const std::size_t open = skip_layout(flat, pos + 3);
      if (open >= flat.size() || flat[open] != '(') continue;
      const std::size_t close = matching_close(flat, open, '(', ')');
      if (close == kNpos) continue;
      const std::size_t colon = range_for_colon(flat, open + 1, close);
      if (colon == kNpos) continue;
      const std::string_view range = flat.substr(colon + 1, close - colon - 1);
      std::string culprit;
      if (contains_identifier(range, "unordered_map") ||
          contains_identifier(range, "unordered_set")) {
        culprit = "an unordered container expression";
      } else {
        for (const std::string& name : names) {
          if (contains_identifier(range, name)) {
            culprit = "'" + name + "'";
            break;
          }
        }
      }
      if (!culprit.empty()) {
        add(out, file, line_at_offset(file, pos), id(),
            "range-for over " + culprit +
                " iterates in unspecified hash order, which can reach a "
                "published artifact; use std::map/std::set or sort before "
                "emitting");
      }
    }
  }

 private:
  /// Names declared with an unordered container type anywhere in the file
  /// (variables, members, parameters) — `std::unordered_map<K, V> name`.
  static std::vector<std::string> declared_container_names(
      std::string_view flat) {
    std::vector<std::string> names;
    for (std::string_view type : {"unordered_map", "unordered_set"}) {
      for (const std::size_t pos : identifier_positions(flat, type)) {
        std::size_t i = skip_layout(flat, pos + type.size());
        if (i >= flat.size() || flat[i] != '<') continue;
        const std::size_t close = matching_angle(flat, i);
        if (close == kNpos) continue;
        i = skip_layout(flat, close + 1);
        while (i < flat.size() && (flat[i] == '&' || flat[i] == '*')) {
          i = skip_layout(flat, i + 1);
        }
        std::size_t end = i;
        while (end < flat.size() && is_ident_char(flat[end])) ++end;
        if (end > i) names.emplace_back(flat.substr(i, end - i));
      }
    }
    return names;
  }

  /// Offset of the range-for ':' at paren depth 0 inside (begin, end), or
  /// npos for a classic `for (;;)` (top-level ';') / no colon. `::` never
  /// counts.
  static std::size_t range_for_colon(std::string_view flat, std::size_t begin,
                                     std::size_t end) {
    int depth = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const char c = flat[i];
      if (c == '(' || c == '[' || c == '{') {
        ++depth;
      } else if (c == ')' || c == ']' || c == '}') {
        --depth;
      } else if (depth == 0 && c == ';') {
        return kNpos;  // classic three-clause for
      } else if (depth == 0 && c == ':') {
        if (i + 1 < end && flat[i + 1] == ':') {
          ++i;  // skip '::'
        } else if (i > begin && flat[i - 1] == ':') {
          continue;
        } else {
          return i;
        }
      }
    }
    return kNpos;
  }
};

// --- wall-clock-in-deterministic-path -------------------------------------

/// Wall-clock reads in library code or tools. Every published number lives
/// on the simulated timeline (util/sim_clock, DESIGN.md §10): a real clock
/// read in the deterministic path makes output depend on host speed and
/// scheduling. The two quarantined homes are excluded wholesale
/// (util/thread_pool's internals, the obs wall-clock profile channel that
/// is documented as non-deterministic and never byte-compared); the native
/// real-kernel timing helpers in src/kernels carry documented per-line
/// waivers because timing real execution is their entire job.
class WallClockRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override {
    return "wall-clock-in-deterministic-path";
  }
  [[nodiscard]] std::string_view description() const override {
    return "wall-clock read (system/steady/high_resolution_clock, time(), "
           "clock_gettime()) in src/ or tools outside the quarantined "
           "thread-pool and obs-profile homes";
  }

  void check(const SourceFile& file, std::vector<Violation>& out) const override {
    if (!starts_with(file.path, "src/") && !starts_with(file.path, "tools/")) {
      return;
    }
    if (starts_with(file.path, "src/util/thread_pool") ||
        starts_with(file.path, "src/obs/profile")) {
      return;  // the documented wall-clock homes
    }
    static constexpr std::string_view kClocks[] = {
        "system_clock", "steady_clock", "high_resolution_clock"};
    static constexpr std::string_view kCalls[] = {"time", "clock_gettime"};
    for (std::size_t i = 0; i < file.code.size(); ++i) {
      const std::string& line = file.code[i];
      for (std::string_view name : kClocks) {
        if (contains_identifier(line, name)) {
          add(out, file, i + 1, id(),
              "std::chrono::" + std::string(name) +
                  " in the deterministic path; results live on simulated "
                  "time — waive only documented native-timing/profiling "
                  "homes");
        }
      }
      for (std::string_view name : kCalls) {
        if (contains_call(line, name)) {
          add(out, file, i + 1, id(),
              std::string(name) +
                  "() reads the wall clock in the deterministic path; "
                  "results live on simulated time");
        }
      }
    }
  }
};

// --- ref-capture-in-parallel-task -----------------------------------------

/// A `[&]`-default-capturing lambda handed to the parallel primitives
/// (util::parallel_map / util::parallel_for / ThreadPool::submit), matched
/// across line breaks. Blanket by-reference capture is how unordered
/// side effects sneak into sweep tasks: nothing in the capture list says
/// which state the task mutates, so review and TSan triage cannot audit
/// it. Tasks must capture explicitly; deliberate [&] uses (barrier-synced
/// worker lanes that provably drain before scope exit) carry per-line
/// waivers saying why. Also catches the two-step form where the lambda is
/// first bound to a name (`auto job = [&](...)`) and the name is passed.
class RefCaptureRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override {
    return "ref-capture-in-parallel-task";
  }
  [[nodiscard]] std::string_view description() const override {
    return "[&]-default-capturing lambda (or a name bound to one) passed "
           "to parallel_map / parallel_for / ThreadPool::submit (capture "
           "explicitly so task state is auditable)";
  }

  void check(const SourceFile& file, std::vector<Violation>& out) const override {
    if (!starts_with(file.path, "src/") && !starts_with(file.path, "tools/")) {
      return;
    }
    if (starts_with(file.path, "src/util/thread_pool")) {
      return;  // the primitives' own implementation
    }
    const std::string_view flat = file.flat;

    // Pass 1: every `[&]` / `[&,` lambda introducer, plus the names bound
    // directly to one (`name = [&] ...`).
    std::vector<std::size_t> intros;
    std::vector<std::pair<std::string, std::size_t>> bound;  // name, line
    std::size_t pos = 0;
    while ((pos = flat.find('[', pos)) != kNpos) {
      const std::size_t open = pos;
      pos += 1;
      std::size_t j = skip_layout(flat, open + 1);
      if (j >= flat.size() || flat[j] != '&') continue;
      j = skip_layout(flat, j + 1);
      if (j >= flat.size() || (flat[j] != ']' && flat[j] != ',')) continue;
      intros.push_back(open);
      // Binding? Walk back over layout to '=', then collect the name.
      std::size_t b = open;
      while (b > 0 && (flat[b - 1] == ' ' || flat[b - 1] == '\t' ||
                       flat[b - 1] == '\n')) {
        --b;
      }
      if (b == 0 || flat[b - 1] != '=') continue;
      --b;
      while (b > 0 && (flat[b - 1] == ' ' || flat[b - 1] == '\t' ||
                       flat[b - 1] == '\n')) {
        --b;
      }
      std::size_t name_end = b;
      while (b > 0 && is_ident_char(flat[b - 1])) --b;
      if (name_end > b) {
        bound.emplace_back(std::string(flat.substr(b, name_end - b)),
                           line_at_offset(file, open));
      }
    }
    if (intros.empty()) return;

    // Pass 2: the argument span of every parallel-primitive call; flag any
    // default-ref introducer or bound name inside it.
    for (std::string_view fn :
         {"parallel_map", "parallel_for", "submit"}) {
      for (const std::size_t call : identifier_positions(flat, fn)) {
        const std::size_t open = skip_layout(flat, call + fn.size());
        if (open >= flat.size() || flat[open] != '(') continue;
        const std::size_t close = matching_close(flat, open, '(', ')');
        if (close == kNpos) continue;
        for (const std::size_t intro : intros) {
          if (intro > open && intro < close) {
            add(out, file, line_at_offset(file, intro), id(),
                "[&] default capture passed to " + std::string(fn) +
                    "(); capture explicitly (or waive with a comment "
                    "proving the pool drains before the captured scope "
                    "dies)");
          }
        }
        const std::string_view args = flat.substr(open + 1, close - open - 1);
        for (const auto& [name, decl_line] : bound) {
          for (const std::size_t hit : identifier_positions(args, name)) {
            add(out, file, line_at_offset(file, open + 1 + hit), id(),
                "'" + name + "' (a [&]-capturing lambda, line " +
                    std::to_string(decl_line) + ") passed to " +
                    std::string(fn) + "(); capture explicitly so task "
                    "state is auditable");
          }
        }
      }
    }
  }
};

}  // namespace

std::string format_violation(const Violation& v) {
  std::ostringstream out;
  out << v.file << ":" << v.line << ": [" << v.rule << "] " << v.message;
  return out.str();
}

bool contains_identifier(std::string_view line, std::string_view ident) {
  std::size_t pos = 0;
  while ((pos = line.find(ident, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(line[pos - 1]);
    const std::size_t end = pos + ident.size();
    const bool right_ok = end >= line.size() || !is_ident_char(line[end]);
    if (left_ok && right_ok) return true;
    pos += 1;
  }
  return false;
}

bool contains_call(std::string_view line, std::string_view ident) {
  std::size_t pos = 0;
  while ((pos = line.find(ident, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(line[pos - 1]);
    std::size_t end = pos + ident.size();
    if (left_ok && (end >= line.size() || !is_ident_char(line[end]))) {
      while (end < line.size() && line[end] == ' ') ++end;
      if (end < line.size() && line[end] == '(') return true;
    }
    pos += 1;
  }
  return false;
}

RuleSet default_rules() {
  RuleSet rules;
  rules.push_back(std::make_unique<AssertMacroRule>());
  rules.push_back(std::make_unique<BannedRandomRule>());
  rules.push_back(std::make_unique<CoutInLibraryRule>());
  rules.push_back(std::make_unique<IsaSpecificCodeRule>());
  rules.push_back(std::make_unique<NonatomicOutputWriteRule>());
  rules.push_back(std::make_unique<RawAlignedAllocRule>());
  rules.push_back(std::make_unique<RawProcessSpawnRule>());
  rules.push_back(std::make_unique<RawThreadRule>());
  rules.push_back(std::make_unique<RawUnitDoubleRule>());
  rules.push_back(std::make_unique<RefCaptureRule>());
  rules.push_back(std::make_unique<RelativeIncludeRule>());
  rules.push_back(std::make_unique<UnorderedIterationRule>());
  rules.push_back(std::make_unique<UnseededXoshiroRule>());
  rules.push_back(std::make_unique<WallClockRule>());
  return rules;
}

RuleSet rules_by_id(const std::vector<std::string>& ids) {
  RuleSet all = default_rules();
  RuleSet picked;
  for (const std::string& wanted : ids) {
    bool found = false;
    for (auto& rule : all) {
      if (rule && rule->id() == wanted) {
        picked.push_back(std::move(rule));
        found = true;
        break;
      }
    }
    if (!found) {
      std::ostringstream valid;
      const char* sep = "";
      for (const RuleInfo& info : rule_catalog()) {
        valid << sep << info.id;
        sep = ", ";
      }
      TGI_REQUIRE(found, "unknown lint rule id '" << wanted
                             << "' (valid ids: " << valid.str() << ")");
    }
  }
  return picked;
}

std::vector<RuleInfo> rule_catalog() {
  std::vector<RuleInfo> catalog;
  for (const auto& rule : default_rules()) {
    catalog.push_back(
        RuleInfo{std::string(rule->id()), std::string(rule->description())});
  }
  catalog.push_back(RuleInfo{
      "include-cycle",
      "cyclic module dependency in the src/ include graph (the module DAG "
      "in DESIGN.md §3 must stay acyclic)"});
  catalog.push_back(RuleInfo{
      "layering-violation",
      "#include crossing the declared module layering spec upward or "
      "sideways (see lint/include_graph.h and DESIGN.md §8)"});
  catalog.push_back(RuleInfo{
      "stale-waiver",
      "a `tgi-lint: allow(...)` marker that no longer suppresses any "
      "violation on its line (delete it; found by --audit-waivers)"});
  catalog.push_back(RuleInfo{
      "unknown-waiver",
      "a `tgi-lint: allow(...)` marker naming a rule id that does not "
      "exist (found by --audit-waivers)"});
  std::sort(catalog.begin(), catalog.end(),
            [](const RuleInfo& a, const RuleInfo& b) { return a.id < b.id; });
  return catalog;
}

namespace {

std::vector<Violation> run_rules_impl(const SourceFile& file,
                                      const RuleSet& rules, bool suppress) {
  std::vector<Violation> found;
  for (const auto& rule : rules) {
    TGI_CHECK(rule != nullptr, "null rule in rule set");
    rule->check(file, found);
  }
  std::vector<Violation> kept;
  kept.reserve(found.size());
  for (Violation& v : found) {
    TGI_CHECK(v.line >= 1 && v.line <= file.raw.size(),
              "rule '" << v.rule << "' reported out-of-range line " << v.line);
    // Markers are read from the comments view: a waiver quoted inside a
    // string literal must never suppress a real violation.
    if (!suppress || !line_is_suppressed(file.comments[v.line - 1], v.rule)) {
      kept.push_back(std::move(v));
    }
  }
  std::sort(kept.begin(), kept.end(),
            [](const Violation& a, const Violation& b) {
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  // A cross-line matcher can hit the same construct twice (e.g. a bound
  // lambda named in both the capture list and the body of one call);
  // report each distinct finding once.
  kept.erase(std::unique(kept.begin(), kept.end(),
                         [](const Violation& a, const Violation& b) {
                           return a.line == b.line && a.rule == b.rule &&
                                  a.message == b.message;
                         }),
             kept.end());
  return kept;
}

}  // namespace

std::vector<Violation> run_rules(const SourceFile& file, const RuleSet& rules) {
  return run_rules_impl(file, rules, /*suppress=*/true);
}

std::vector<Violation> run_rules_unsuppressed(const SourceFile& file,
                                              const RuleSet& rules) {
  return run_rules_impl(file, rules, /*suppress=*/false);
}

}  // namespace tgi::lint
