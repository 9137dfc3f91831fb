// One positive and one negative case (at least) per tgi-lint rule, plus the
// rule-set plumbing: selection by id, suppression markers, stable ordering.
#include "lint/rules.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace tgi::lint {
namespace {

/// Lints in-memory `content` as if it lived at `path`, with all rules.
std::vector<Violation> lint(const std::string& path,
                            const std::string& content) {
  return run_rules(make_source_file(path, content), default_rules());
}

bool has_rule(const std::vector<Violation>& vs, const std::string& rule) {
  for (const auto& v : vs) {
    if (v.rule == rule) return true;
  }
  return false;
}

// --- banned-random --------------------------------------------------------

TEST(BannedRandom, FlagsMt19937InLibrary) {
  const auto vs = lint("src/sim/noise.cpp", "std::mt19937 gen(42);\n");
  ASSERT_TRUE(has_rule(vs, "banned-random"));
  EXPECT_EQ(vs[0].line, 1u);
}

TEST(BannedRandom, FlagsRandCallAndRandomDeviceEverywhere) {
  EXPECT_TRUE(has_rule(lint("tests/sim/t.cpp", "int x = rand();\n"),
                       "banned-random"));
  EXPECT_TRUE(has_rule(lint("bench/b.cpp", "std::random_device rd;\n"),
                       "banned-random"));
  EXPECT_TRUE(has_rule(lint("tools/t.cpp", "srand(7);\n"), "banned-random"));
  EXPECT_TRUE(has_rule(lint("src/sim/j.cpp", "std::mt19937_64 g;\n"),
                       "banned-random"));
}

TEST(BannedRandom, AllowsUtilRngAndSeededXoshiro) {
  EXPECT_FALSE(has_rule(lint("src/util/rng.h", "std::mt19937 reference;\n"),
                        "banned-random"));
  EXPECT_FALSE(has_rule(
      lint("src/sim/noise.cpp", "util::Xoshiro256 rng(config.seed);\n"),
      "banned-random"));
}

TEST(BannedRandom, IgnoresSubstringsCommentsAndStrings) {
  EXPECT_FALSE(
      has_rule(lint("src/sim/x.cpp", "int operand(int a);\n"), "banned-random"));
  EXPECT_FALSE(has_rule(lint("src/sim/x.cpp", "// never call rand() here\n"),
                        "banned-random"));
  EXPECT_FALSE(has_rule(
      lint("src/sim/x.cpp", "const char* doc = \"std::mt19937 is banned\";\n"),
      "banned-random"));
}

// --- raw-unit-double ------------------------------------------------------

TEST(RawUnitDouble, FlagsUnitNamedDoubleParamInHeader) {
  const auto vs =
      lint("src/power/meter.h", "void record(double watts, double t);\n");
  ASSERT_TRUE(has_rule(vs, "raw-unit-double"));
  EXPECT_NE(vs[0].message.find("watts"), std::string::npos);
}

TEST(RawUnitDouble, FlagsUnitNamedMembers) {
  EXPECT_TRUE(has_rule(lint("src/power/meter.h", "double idle_power_w = 0;\n"),
                       "raw-unit-double"));
  EXPECT_TRUE(has_rule(lint("src/core/t.h", "double energy_joules;\n"),
                       "raw-unit-double"));
}

TEST(RawUnitDouble, HeadersOnlyAndNeutralNamesPass) {
  // Same text in a .cpp: implementation detail, not a public signature.
  EXPECT_FALSE(has_rule(lint("src/power/meter.cpp", "void f(double watts);\n"),
                        "raw-unit-double"));
  // Strong types and neutral names in headers are the sanctioned style.
  EXPECT_FALSE(has_rule(
      lint("src/power/meter.h", "void record(units::Watts w, double ratio);\n"),
      "raw-unit-double"));
  // Non-library headers (bench helpers) are out of scope.
  EXPECT_FALSE(has_rule(lint("bench/bench_common.h", "double watts = 0;\n"),
                        "raw-unit-double"));
}

TEST(RawUnitDouble, FunctionsAndRatiosAreNotQuantities) {
  // `double in_kilowatts(Watts w)` is a conversion helper, not a stored
  // quantity — the double is its *return* type.
  EXPECT_FALSE(has_rule(
      lint("src/util/units.h", "constexpr double in_kilowatts(Watts w);\n"),
      "raw-unit-double"));
  EXPECT_FALSE(has_rule(
      lint("src/core/e.h", "double energy_efficiency(const M& m);\n"),
      "raw-unit-double"));
  // Derived ratios are dimensionless by convention.
  EXPECT_FALSE(has_rule(lint("src/harness/r.h", "double flops_per_watt = 0;\n"),
                        "raw-unit-double"));
  EXPECT_FALSE(has_rule(lint("src/sim/m.h", "double flops_per_cycle = 4.0;\n"),
                        "raw-unit-double"));
  EXPECT_FALSE(has_rule(lint("src/sim/m.h", "double power_ratio = 1.0;\n"),
                        "raw-unit-double"));
}

// --- relative-include -----------------------------------------------------

TEST(RelativeInclude, FlagsParentAndDotIncludes) {
  EXPECT_TRUE(has_rule(lint("src/sim/a.cpp", "#include \"../util/rng.h\"\n"),
                       "relative-include"));
  EXPECT_TRUE(has_rule(lint("tests/sim/a.cpp", "  #include \"./local.h\"\n"),
                       "relative-include"));
}

TEST(RelativeInclude, AllowsRepoRelativeSystemAndCommentedIncludes) {
  EXPECT_FALSE(has_rule(lint("src/sim/a.cpp", "#include \"core/tgi.h\"\n"),
                        "relative-include"));
  EXPECT_FALSE(
      has_rule(lint("src/sim/a.cpp", "#include <vector>\n"), "relative-include"));
  EXPECT_FALSE(has_rule(lint("src/sim/a.cpp", "// #include \"../old.h\"\n"),
                        "relative-include"));
}

// --- assert-macro ---------------------------------------------------------

TEST(AssertMacro, FlagsAssertInLibraryCode) {
  const auto vs = lint("src/stats/mean.cpp", "assert(n > 0);\n");
  ASSERT_TRUE(has_rule(vs, "assert-macro"));
  EXPECT_NE(vs[0].message.find("TGI_REQUIRE"), std::string::npos);
}

TEST(AssertMacro, AllowsStaticAssertTestsAndTgiMacros) {
  EXPECT_FALSE(has_rule(
      lint("src/stats/mean.cpp", "static_assert(sizeof(int) == 4);\n"),
      "assert-macro"));
  EXPECT_FALSE(has_rule(lint("tests/stats/t.cpp", "assert(n > 0);\n"),
                        "assert-macro"));
  EXPECT_FALSE(has_rule(
      lint("src/stats/mean.cpp", "TGI_REQUIRE(n > 0, \"n\");\n"),
      "assert-macro"));
}

// --- cout-in-library ------------------------------------------------------

TEST(CoutInLibrary, FlagsStdoutWritesInLibrary) {
  EXPECT_TRUE(has_rule(lint("src/sim/sim.cpp", "std::cout << \"phase\";\n"),
                       "cout-in-library"));
  EXPECT_TRUE(has_rule(lint("src/sim/sim.cpp", "std::cerr << \"oops\";\n"),
                       "cout-in-library"));
  EXPECT_TRUE(has_rule(lint("src/sim/sim.cpp", "printf(\"%d\", x);\n"),
                       "cout-in-library"));
}

TEST(CoutInLibrary, AllowsExecutablesLogSinkAndLogging) {
  EXPECT_FALSE(has_rule(lint("tools/tgi_calc.cpp", "std::cout << tgi;\n"),
                        "cout-in-library"));
  EXPECT_FALSE(has_rule(lint("bench/fig2.cpp", "std::cout << row;\n"),
                        "cout-in-library"));
  EXPECT_FALSE(has_rule(lint("src/util/log.cpp", "std::cerr << line;\n"),
                        "cout-in-library"));
  EXPECT_FALSE(has_rule(lint("src/sim/sim.cpp", "TGI_LOG_INFO(\"phase\");\n"),
                        "cout-in-library"));
}

// --- raw-aligned-alloc ----------------------------------------------------

TEST(RawAlignedAlloc, FlagsRawAlignedAllocationInSrcAndTools) {
  EXPECT_TRUE(has_rule(
      lint("src/kernels/k.cpp",
           "double* p = static_cast<double*>(std::aligned_alloc(64, n));\n"),
      "raw-aligned-alloc"));
  EXPECT_TRUE(has_rule(
      lint("src/sim/s.cpp", "posix_memalign(&p, 64, bytes);\n"),
      "raw-aligned-alloc"));
  EXPECT_TRUE(has_rule(
      lint("tools/t.cpp", "void* p = _mm_malloc(bytes, 64);\n"),
      "raw-aligned-alloc"));
  EXPECT_TRUE(has_rule(
      lint("src/harness/h.cpp",
           "void* p = ::operator new(n, std::align_val_t{64});\n"),
      "raw-aligned-alloc"));
}

TEST(RawAlignedAlloc, AllowsSimdHomeOtherTreesAndLookalikes) {
  // The one sanctioned home.
  EXPECT_FALSE(has_rule(
      lint("src/util/simd.h",
           "::operator new(n, std::align_val_t{kAlignment});\n"),
      "raw-aligned-alloc"));
  // bench/tests may allocate however they like.
  EXPECT_FALSE(has_rule(
      lint("tests/util/t.cpp", "std::aligned_alloc(64, n);\n"),
      "raw-aligned-alloc"));
  EXPECT_FALSE(has_rule(
      lint("bench/b.cpp", "posix_memalign(&p, 64, bytes);\n"),
      "raw-aligned-alloc"));
  // Longer identifiers, comments, and strings never match.
  EXPECT_FALSE(has_rule(
      lint("src/sim/s.cpp", "my_aligned_alloc_wrapper(64, n);\n"),
      "raw-aligned-alloc"));
  EXPECT_FALSE(has_rule(
      lint("src/sim/s.cpp", "// std::aligned_alloc(64, n) is banned\n"),
      "raw-aligned-alloc"));
  EXPECT_FALSE(has_rule(
      lint("src/sim/s.cpp",
           "const char* doc = \"use std::align_val_t here\";\n"),
      "raw-aligned-alloc"));
}

TEST(RawAlignedAlloc, AllowMarkerWaives) {
  EXPECT_FALSE(has_rule(
      lint("src/kernels/k.cpp",
           "std::aligned_alloc(64, n);  // tgi-lint: allow(raw-aligned-alloc)\n"),
      "raw-aligned-alloc"));
}

// --- isa-specific-code ----------------------------------------------------

TEST(IsaSpecificCode, FlagsIntrinsicsTargetAttributesAndCpuQueries) {
  for (const char* code :
       {"#include <immintrin.h>\n", "#include <wmmintrin.h>\n",
        "#  include   <x86intrin.h>\n", "#include <arm_neon.h>\n",
        "__attribute__((target(\"pclmul\"))) int f();\n",
        "__attribute__ ((target (\"avx2\"))) int f();\n",
        "[[gnu::target(\"sse4.2\")]] int f();\n",
        "if (__builtin_cpu_supports(\"pclmul\")) {}\n",
        "__builtin_cpu_init();\n", "return __builtin_cpu_is(\"intel\");\n"}) {
    for (const char* path : {"src/util/atomic_file.h", "src/harness/h.cpp",
                             "tools/t.cpp", "tests/util/t.cpp",
                             "bench/b.cpp"}) {
      EXPECT_TRUE(has_rule(lint(path, code), "isa-specific-code"))
          << path << ": " << code;
    }
  }
}

TEST(IsaSpecificCode, AllowsTheCrcFileCommentsStringsAndLookalikes) {
  // The one sanctioned home.
  EXPECT_FALSE(has_rule(
      lint("src/util/atomic_file.cpp",
           "#include <immintrin.h>\n"
           "__attribute__((target(\"pclmul\"))) int f();\n"
           "bool b = __builtin_cpu_supports(\"pclmul\");\n"),
      "isa-specific-code"));
  // Comments, strings, other headers and longer identifiers never match.
  for (const char* code :
       {"// #include <immintrin.h> would be banned here\n",
        "const char* s = \"__builtin_cpu_supports\";\n",
        "#include <intrinsics_table.h>\n", "#include \"util/simd.h\"\n",
        "my__builtin_cpu_supports_wrapper();\n",
        "int target(int x);\n",
        "struct A { int __attribute__((aligned(16))) x; };\n"}) {
    EXPECT_FALSE(has_rule(lint("src/harness/h.cpp", code),
                          "isa-specific-code"))
        << code;
  }
}

TEST(IsaSpecificCode, AllowMarkerWaives) {
  EXPECT_FALSE(has_rule(
      lint("src/util/simd.h",
           "#include <immintrin.h>  // tgi-lint: allow(isa-specific-code)\n"),
      "isa-specific-code"));
}

// --- raw-process-spawn ----------------------------------------------------

TEST(RawProcessSpawn, FlagsRawProcessControlInSrcAndTools) {
  EXPECT_TRUE(has_rule(lint("src/serve/s.cpp", "const pid_t pid = ::fork();\n"),
                       "raw-process-spawn"));
  EXPECT_TRUE(has_rule(
      lint("src/harness/h.cpp", "::execvp(argv[0], argv.data());\n"),
      "raw-process-spawn"));
  EXPECT_TRUE(has_rule(lint("src/serve/s.cpp", "waitpid(pid, &raw, 0);\n"),
                       "raw-process-spawn"));
  EXPECT_TRUE(has_rule(lint("tools/t.cpp", "std::system(cmd.c_str());\n"),
                       "raw-process-spawn"));
  EXPECT_TRUE(has_rule(lint("tools/t.cpp", "FILE* p = popen(cmd, \"r\");\n"),
                       "raw-process-spawn"));
  EXPECT_TRUE(has_rule(
      lint("src/util/x.cpp", "posix_spawn(&pid, path, 0, 0, a, e);\n"),
      "raw-process-spawn"));
}

TEST(RawProcessSpawn, AllowsSubprocessHomeOtherTreesAndLookalikes) {
  // The one sanctioned home.
  EXPECT_FALSE(has_rule(
      lint("src/util/subprocess.cpp", "const pid_t pid = ::fork();\n"),
      "raw-process-spawn"));
  EXPECT_FALSE(has_rule(
      lint("src/util/subprocess.cpp", "got = ::waitpid(pid, &raw, 0);\n"),
      "raw-process-spawn"));
  // tests/bench may spawn however they like.
  EXPECT_FALSE(has_rule(lint("tests/serve/t.cpp", "::fork();\n"),
                        "raw-process-spawn"));
  EXPECT_FALSE(has_rule(lint("bench/b.cpp", "std::system(cmd);\n"),
                        "raw-process-spawn"));
  // Longer identifiers, non-calls, comments, and strings never match.
  EXPECT_FALSE(has_rule(
      lint("src/sim/s.cpp", "const double reference_system(16);\n"),
      "raw-process-spawn"));
  EXPECT_FALSE(has_rule(lint("src/sim/s.cpp", "my_fork_helper(tree);\n"),
                        "raw-process-spawn"));
  EXPECT_FALSE(has_rule(
      lint("src/sim/s.cpp", "// fork() is banned outside util/subprocess\n"),
      "raw-process-spawn"));
  EXPECT_FALSE(has_rule(
      lint("src/sim/s.cpp", "const char* doc = \"never call system()\";\n"),
      "raw-process-spawn"));
}

TEST(RawProcessSpawn, AllowMarkerWaives) {
  EXPECT_FALSE(has_rule(
      lint("src/serve/s.cpp",
           "::fork();  // tgi-lint: allow(raw-process-spawn)\n"),
      "raw-process-spawn"));
}

// --- raw-thread -----------------------------------------------------------

TEST(RawThread, FlagsRawThreadPrimitivesEverywhere) {
  EXPECT_TRUE(has_rule(
      lint("src/kernels/k.cpp", "std::thread worker(body);\n"), "raw-thread"));
  EXPECT_TRUE(has_rule(
      lint("src/mpisim/r.cpp", "std::vector<std::jthread> pool;\n"),
      "raw-thread"));
  EXPECT_TRUE(has_rule(
      lint("tools/t.cpp", "auto f = std::async(run);\n"), "raw-thread"));
  EXPECT_TRUE(has_rule(
      lint("tests/util/t.cpp", "std::thread t;\n"), "raw-thread"));
  EXPECT_TRUE(has_rule(
      lint("bench/b.cpp", "std::thread::hardware_concurrency();\n"),
      "raw-thread"));
}

TEST(RawThread, AllowsThreadPoolHomeAndNonThreadIdentifiers) {
  // The sanctioned home for raw threads.
  EXPECT_FALSE(has_rule(
      lint("src/util/thread_pool.cpp", "std::vector<std::jthread> w;\n"),
      "raw-thread"));
  EXPECT_FALSE(has_rule(
      lint("src/util/thread_pool.h", "std::thread worker;\n"), "raw-thread"));
  // std::this_thread is synchronization-free and fine.
  EXPECT_FALSE(has_rule(
      lint("src/kernels/k.cpp", "std::this_thread::sleep_for(ms);\n"),
      "raw-thread"));
  // Pool usage, comments, and strings are all clean.
  EXPECT_FALSE(has_rule(
      lint("src/harness/p.cpp", "util::ThreadPool pool(4);\n"), "raw-thread"));
  EXPECT_FALSE(has_rule(
      lint("src/kernels/k.cpp", "// std::thread is banned here\n"),
      "raw-thread"));
  EXPECT_FALSE(has_rule(
      lint("src/kernels/k.cpp", "const char* s = \"std::async\";\n"),
      "raw-thread"));
  // my_thread / threads / asynchrony: identifier boundaries must hold.
  EXPECT_FALSE(has_rule(
      lint("src/kernels/k.cpp", "std::vector<int> threads;\n"), "raw-thread"));
}

TEST(RawThread, AllowMarkerWaivesDocumentedExceptions) {
  const auto vs = lint(
      "src/mpisim/runtime.cpp",
      "std::vector<std::jthread> threads;  // tgi-lint: allow(raw-thread)\n");
  EXPECT_FALSE(has_rule(vs, "raw-thread"));
}

// --- unseeded-xoshiro -----------------------------------------------------

TEST(UnseededXoshiro, FlagsDefaultConstructionEverywhere) {
  EXPECT_TRUE(has_rule(lint("src/harness/f.cpp", "util::Xoshiro256 rng;\n"),
                       "unseeded-xoshiro"));
  EXPECT_TRUE(has_rule(lint("src/power/m.h", "util::Xoshiro256 rng_{};\n"),
                       "unseeded-xoshiro"));
  EXPECT_TRUE(has_rule(
      lint("tests/sim/t.cpp", "auto gen = util::Xoshiro256{};\n"),
      "unseeded-xoshiro"));
  EXPECT_TRUE(has_rule(
      lint("bench/b.cpp", "double u = util::Xoshiro256().uniform();\n"),
      "unseeded-xoshiro"));
}

TEST(UnseededXoshiro, AllowsSeededConstructionParamsAndTheRngHome) {
  // Explicit seed expressions of any shape.
  EXPECT_FALSE(has_rule(
      lint("src/harness/f.cpp", "util::Xoshiro256 rng(derive(seed, i));\n"),
      "unseeded-xoshiro"));
  EXPECT_FALSE(has_rule(
      lint("src/power/m.h", "util::Xoshiro256 rng_{config.seed};\n"),
      "unseeded-xoshiro"));
  // Passing an existing generator around is the whole point.
  EXPECT_FALSE(has_rule(
      lint("src/stats/b.h", "double resample(util::Xoshiro256& rng);\n"),
      "unseeded-xoshiro"));
  EXPECT_FALSE(has_rule(
      lint("src/stats/b.cpp", "void fill(util::Xoshiro256 rng, int n);\n"),
      "unseeded-xoshiro"));
  // The class (and its default-seed constant) lives in util/rng.
  EXPECT_FALSE(has_rule(
      lint("src/util/rng.h", "util::Xoshiro256 reference;\n"),
      "unseeded-xoshiro"));
  // Comments and strings are stripped before matching.
  EXPECT_FALSE(has_rule(
      lint("src/sim/x.cpp", "// a bare `Xoshiro256 rng;` is flagged\n"),
      "unseeded-xoshiro"));
}

TEST(UnseededXoshiro, AllowMarkerWaives) {
  EXPECT_FALSE(has_rule(
      lint("src/sim/x.cpp",
           "util::Xoshiro256 rng;  // tgi-lint: allow(unseeded-xoshiro)\n"),
      "unseeded-xoshiro"));
}

// --- nonatomic-output-write -----------------------------------------------

TEST(NonatomicOutputWrite, FlagsOfstreamInOutputLayers) {
  EXPECT_TRUE(has_rule(
      lint("src/harness/report.cpp", "std::ofstream out(path);\n"),
      "nonatomic-output-write"));
  EXPECT_TRUE(has_rule(
      lint("src/obs/trace.cpp", "std::ofstream json(dir + \"/t.json\");\n"),
      "nonatomic-output-write"));
  EXPECT_TRUE(has_rule(lint("tools/tgi_sweep.cpp",
                            "std::ofstream summary(path(\"s.csv\"));\n"),
                       "nonatomic-output-write"));
  // Member declarations count too: holding an ofstream IS a direct write
  // path.
  EXPECT_TRUE(has_rule(lint("src/harness/journal.h", "std::ofstream out_;\n"),
                       "nonatomic-output-write"));
}

TEST(NonatomicOutputWrite, OtherLayersSubstringsAndCommentsPass) {
  // util owns the atomic writer itself; bench and tests are out of scope.
  EXPECT_FALSE(has_rule(
      lint("src/util/atomic_file.cpp", "std::ofstream out(temp);\n"),
      "nonatomic-output-write"));
  EXPECT_FALSE(has_rule(lint("tests/harness/t.cpp", "std::ofstream f(p);\n"),
                        "nonatomic-output-write"));
  // Identifier boundaries: my_ofstream_like is not an ofstream; prose in
  // comments and strings is stripped before matching.
  EXPECT_FALSE(has_rule(
      lint("src/harness/x.cpp", "int my_ofstream_like = 0;\n"),
      "nonatomic-output-write"));
  EXPECT_FALSE(has_rule(
      lint("src/harness/x.cpp", "// std::ofstream would tear here\n"),
      "nonatomic-output-write"));
}

TEST(NonatomicOutputWrite, AllowMarkerWaivesAppendJournals) {
  EXPECT_FALSE(has_rule(
      lint("src/harness/journal.h",
           "std::ofstream out_;  // tgi-lint: allow(nonatomic-output-write)"
           "\n"),
      "nonatomic-output-write"));
}

// --- unordered-iteration-in-output ----------------------------------------

TEST(UnorderedIteration, FlagsRangeForOverUnorderedContainers) {
  const std::string content =
      "#include <unordered_map>\n"
      "std::unordered_map<std::string, double> totals;\n"
      "void emit() {\n"
      "  for (const auto& [k, v] : totals) {\n"
      "    write_row(k, v);\n"
      "  }\n"
      "}\n";
  const auto vs = lint("src/harness/report.cpp", content);
  ASSERT_TRUE(has_rule(vs, "unordered-iteration-in-output"));
}

TEST(UnorderedIteration, MatchesAcrossLineBreaks) {
  const std::string content =
      "std::unordered_set<int>\n"
      "    seen;\n"
      "void dump() {\n"
      "  for (const int v\n"
      "       : seen) {\n"
      "    out(v);\n"
      "  }\n"
      "}\n";
  EXPECT_TRUE(has_rule(lint("src/obs/metrics.cpp", content),
                       "unordered-iteration-in-output"));
}

TEST(UnorderedIteration, OrderedContainersClassicForsAndOtherLayersPass) {
  // Ordered containers are the sanctioned fix.
  EXPECT_FALSE(has_rule(
      lint("src/harness/r.cpp",
           "std::map<int, int> m;\nvoid f() { for (auto& [k, v] : m) g(k); }\n"),
      "unordered-iteration-in-output"));
  // A classic three-clause for over anything is fine.
  EXPECT_FALSE(has_rule(
      lint("src/harness/r.cpp",
           "std::unordered_map<int, int> m;\n"
           "void f() { for (int i = 0; i < 3; ++i) g(i); }\n"),
      "unordered-iteration-in-output"));
  // sim/ does not emit artifacts directly; out of scope.
  EXPECT_FALSE(has_rule(
      lint("src/sim/s.cpp",
           "std::unordered_map<int, int> m;\n"
           "void f() { for (auto& [k, v] : m) g(k); }\n"),
      "unordered-iteration-in-output"));
}

TEST(UnorderedIteration, AllowMarkerWaivesOnTheReportedLineOnly) {
  // A marker on the preceding line does not waive: suppression is per-line.
  const std::string preceding =
      "std::unordered_map<int, int> m;\n"
      "void f() {\n"
      "  // tgi-lint: allow(unordered-iteration-in-output)\n"
      "  for (auto& [k, v] : m) accumulate(k, v);\n"
      "}\n";
  EXPECT_TRUE(has_rule(lint("src/core/agg.cpp", preceding),
                       "unordered-iteration-in-output"));
  // Marker must sit on the line the violation is reported at (the `for`).
  const std::string waived =
      "std::unordered_map<int, int> m;\n"
      "void f() {\n"
      "  for (auto& [k, v] :  // tgi-lint: allow(unordered-iteration-in-output)\n"
      "       m) {\n"
      "    accumulate(k, v);\n"
      "  }\n"
      "}\n";
  EXPECT_FALSE(has_rule(lint("src/core/agg.cpp", waived),
                        "unordered-iteration-in-output"));
}

// --- wall-clock-in-deterministic-path -------------------------------------

TEST(WallClock, FlagsClockReadsInLibraryAndTools) {
  EXPECT_TRUE(has_rule(
      lint("src/sim/s.cpp", "auto t = std::chrono::steady_clock::now();\n"),
      "wall-clock-in-deterministic-path"));
  EXPECT_TRUE(has_rule(
      lint("src/harness/h.cpp",
           "auto t = std::chrono::high_resolution_clock::now();\n"),
      "wall-clock-in-deterministic-path"));
  EXPECT_TRUE(has_rule(lint("tools/t.cpp", "time_t now = time(nullptr);\n"),
                       "wall-clock-in-deterministic-path"));
  EXPECT_TRUE(has_rule(
      lint("src/obs/trace.cpp", "clock_gettime(CLOCK_MONOTONIC, &ts);\n"),
      "wall-clock-in-deterministic-path"));
}

TEST(WallClock, QuarantinedHomesOtherDirsAndNonClockTimePass) {
  // The two documented wall-clock homes.
  EXPECT_FALSE(has_rule(
      lint("src/util/thread_pool.cpp", "std::chrono::steady_clock::now();\n"),
      "wall-clock-in-deterministic-path"));
  EXPECT_FALSE(has_rule(
      lint("src/obs/profile.cpp", "std::chrono::steady_clock::now();\n"),
      "wall-clock-in-deterministic-path"));
  // bench/tests time things on purpose.
  EXPECT_FALSE(has_rule(
      lint("bench/micro.cpp", "std::chrono::steady_clock::now();\n"),
      "wall-clock-in-deterministic-path"));
  // `time` as part of a longer identifier, and simulated-time APIs.
  EXPECT_FALSE(has_rule(
      lint("src/sim/s.cpp", "double sim_time(const State& s);\n"),
      "wall-clock-in-deterministic-path"));
  EXPECT_FALSE(has_rule(lint("src/sim/s.cpp", "// time() is banned here\n"),
                        "wall-clock-in-deterministic-path"));
}

TEST(WallClock, AllowMarkerWaivesNativeTimingHomes) {
  EXPECT_FALSE(has_rule(
      lint("src/kernels/k.cpp",
           "using wall = std::chrono::steady_clock;  "
           "// tgi-lint: allow(wall-clock-in-deterministic-path)\n"),
      "wall-clock-in-deterministic-path"));
}

// --- ref-capture-in-parallel-task -----------------------------------------

TEST(RefCapture, FlagsDefaultRefLambdaPassedToParallelPrimitives) {
  EXPECT_TRUE(has_rule(
      lint("src/harness/p.cpp", "pool.submit([&] { work(i); });\n"),
      "ref-capture-in-parallel-task"));
  EXPECT_TRUE(has_rule(
      lint("src/harness/p.cpp",
           "util::parallel_map(pool, n, [&, k](std::size_t i) { f(i, k); });\n"),
      "ref-capture-in-parallel-task"));
}

TEST(RefCapture, MatchesAcrossLineBreaksAndBoundNames) {
  // The introducer and the call on different lines.
  const std::string wrapped =
      "util::parallel_for(pool, count,\n"
      "                   [&](std::size_t i) {\n"
      "                     run(i);\n"
      "                   });\n";
  EXPECT_TRUE(has_rule(lint("src/harness/p.cpp", wrapped),
                       "ref-capture-in-parallel-task"));
  // Two-step form: the lambda is bound to a name first.
  const std::string bound =
      "const auto job = [&](std::size_t i) { run(i); };\n"
      "util::parallel_for(pool, count, job);\n";
  EXPECT_TRUE(has_rule(lint("src/harness/p.cpp", bound),
                       "ref-capture-in-parallel-task"));
}

TEST(RefCapture, ExplicitCapturesOtherCallsAndThreadPoolHomePass) {
  // Explicit capture lists are the sanctioned style.
  EXPECT_FALSE(has_rule(
      lint("src/harness/p.cpp",
           "pool.submit([&results, k] { results[k] = f(k); });\n"),
      "ref-capture-in-parallel-task"));
  EXPECT_FALSE(has_rule(
      lint("src/harness/p.cpp",
           "const auto job = [this, &out](std::size_t i) { out[i] = g(i); };\n"
           "util::parallel_for(pool, n, job);\n"),
      "ref-capture-in-parallel-task"));
  // [&] outside a parallel primitive is ordinary C++.
  EXPECT_FALSE(has_rule(
      lint("src/harness/p.cpp", "std::sort(v.begin(), v.end(), [&](int a, int b)"
                                " { return key[a] < key[b]; });\n"),
      "ref-capture-in-parallel-task"));
  // The primitives' own implementation is exempt.
  EXPECT_FALSE(has_rule(
      lint("src/util/thread_pool.h", "submit([&] { drain(); });\n"),
      "ref-capture-in-parallel-task"));
}

TEST(RefCapture, AllowMarkerWaives) {
  EXPECT_FALSE(has_rule(
      lint("src/kernels/k.cpp",
           "pool.submit([&, t] {  // tgi-lint: allow(ref-capture-in-parallel-task)\n"
           "  body(t);\n"
           "});\n"),
      "ref-capture-in-parallel-task"));
}

// --- plumbing -------------------------------------------------------------

TEST(RuleSet, FormatViolationMatchesPromisedShape) {
  const Violation v{"src/a.cpp", 12, "assert-macro", "use TGI_CHECK"};
  EXPECT_EQ(format_violation(v), "src/a.cpp:12: [assert-macro] use TGI_CHECK");
}

TEST(RuleSet, DefaultRulesHaveStableUniqueIds) {
  const RuleSet rules = default_rules();
  ASSERT_EQ(rules.size(), 14u);
  for (std::size_t i = 1; i < rules.size(); ++i) {
    EXPECT_LT(rules[i - 1]->id(), rules[i]->id());
  }
}

TEST(RuleSet, CatalogCoversPerFileGraphAndAuditRules) {
  const std::vector<RuleInfo> catalog = rule_catalog();
  ASSERT_EQ(catalog.size(), 18u);  // 14 per-file + 2 graph + 2 audit
  for (std::size_t i = 1; i < catalog.size(); ++i) {
    EXPECT_LT(catalog[i - 1].id, catalog[i].id);
  }
  const auto has = [&](std::string_view id) {
    for (const RuleInfo& info : catalog) {
      if (info.id == id) return true;
    }
    return false;
  };
  for (const auto& rule : default_rules()) EXPECT_TRUE(has(rule->id()));
  EXPECT_TRUE(has("include-cycle"));
  EXPECT_TRUE(has("layering-violation"));
  EXPECT_TRUE(has("stale-waiver"));
  EXPECT_TRUE(has("unknown-waiver"));
}

TEST(RuleSet, RulesByIdSelectsSubsetAndRejectsUnknown) {
  const RuleSet one = rules_by_id({"banned-random"});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0]->id(), "banned-random");
  EXPECT_THROW(rules_by_id({"no-such-rule"}), util::PreconditionError);
  // The error names every valid id so typos are self-diagnosing.
  try {
    rules_by_id({"no-such-rule"});
    FAIL() << "expected PreconditionError";
  } catch (const util::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("banned-random"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("layering-violation"),
              std::string::npos);
  }
}

TEST(RuleSet, AllowMarkerSuppressesOnlyThatLineAndRule) {
  const std::string content =
      "std::mt19937 a;  // tgi-lint: allow(banned-random)\n"
      "std::mt19937 b;\n";
  const auto vs = lint("src/sim/x.cpp", content);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].line, 2u);
}

TEST(RuleSet, MarkerQuotedInStringLiteralIsInert) {
  // The marker text lives in a string literal, not a comment — it must not
  // suppress the real violation on the same line.
  const std::string content =
      "std::mt19937 a; f(\"// tgi-lint: allow(banned-random)\");\n";
  EXPECT_TRUE(has_rule(lint("src/sim/x.cpp", content), "banned-random"));
}

TEST(RuleSet, RunRulesUnsuppressedIgnoresMarkers) {
  const std::string content =
      "std::mt19937 a;  // tgi-lint: allow(banned-random)\n";
  const SourceFile file = make_source_file("src/sim/x.cpp", content);
  EXPECT_TRUE(run_rules(file, default_rules()).empty());
  const auto raw = run_rules_unsuppressed(file, default_rules());
  ASSERT_EQ(raw.size(), 1u);
  EXPECT_EQ(raw[0].rule, "banned-random");
}

TEST(RuleSet, ViolationsSortedByLineThenRule) {
  const std::string content =
      "std::cout << 1;\n"
      "assert(x);\n"
      "std::mt19937 g; assert(y);\n";
  const auto vs = lint("src/sim/x.cpp", content);
  ASSERT_EQ(vs.size(), 4u);
  EXPECT_EQ(vs[0].rule, "cout-in-library");
  EXPECT_EQ(vs[1].rule, "assert-macro");
  EXPECT_EQ(vs[2].rule, "assert-macro");
  EXPECT_EQ(vs[3].rule, "banned-random");
  EXPECT_EQ(vs[2].line, 3u);
}

TEST(RuleSet, CleanLibraryFilePasses) {
  const std::string content =
      "#include \"util/units.h\"\n"
      "#include \"util/rng.h\"\n"
      "namespace tgi::sim {\n"
      "units::Joules energy(units::Watts w, units::Seconds t) {\n"
      "  TGI_REQUIRE(w.value() >= 0, \"power must be non-negative\");\n"
      "  return w * t;\n"
      "}\n"
      "}  // namespace tgi::sim\n";
  EXPECT_TRUE(lint("src/sim/energy.cpp", content).empty());
}

}  // namespace
}  // namespace tgi::lint
