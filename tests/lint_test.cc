// shmcaffe-lint rule tests: one positive (rule fires) and one negative
// (rule stays silent) fixture per rule, run against in-memory sources, plus
// the escape hatch, the comment/string scrubber, and the output formats.
//
// Fixture code is assembled from ordinary string concatenation on purpose:
// the real linter also scans THIS file, and literal bodies are scrubbed
// before rules run, so the forbidden tokens below never trip the repo gate.
#include "tools/lint/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace shmcaffe::lint {
namespace {

std::vector<std::string> rules_fired(std::string_view path, std::string_view source) {
  std::vector<std::string> rules;
  for (const Finding& finding : lint_source(path, source)) rules.push_back(finding.rule);
  return rules;
}

bool fires(std::string_view path, std::string_view source, const std::string& rule) {
  const std::vector<std::string> fired = rules_fired(path, source);
  return std::find(fired.begin(), fired.end(), rule) != fired.end();
}

// --- rng-source ----------------------------------------------------------

TEST(RngSourceRule, FlagsRawEntropyOutsideRngModule) {
  EXPECT_TRUE(fires("src/dl/layers.cc", "int x = rand();\n", "rng-source"));
  EXPECT_TRUE(fires("src/core/trainer.cc", "srand(42);\n", "rng-source"));
  EXPECT_TRUE(fires("tests/foo_test.cc", "std::random_device rd;\n", "rng-source"));
  EXPECT_TRUE(fires("bench/bench_x.cc", "std::mt19937_64 gen(1);\n", "rng-source"));
}

TEST(RngSourceRule, AllowsTheRngModuleAndSeededRng) {
  EXPECT_FALSE(fires("src/common/rng.cc", "int x = rand();\n", "rng-source"));
  EXPECT_FALSE(fires("src/common/rng.h", "std::mt19937 reference;\n", "rng-source"));
  EXPECT_FALSE(fires("src/dl/layers.cc", "common::Rng rng(seed);\nrng.uniform();\n",
                     "rng-source"));
  // Identifiers merely containing the token are fine.
  EXPECT_FALSE(fires("src/dl/layers.cc", "int operand(int a);\n", "rng-source"));
}

// --- wall-clock ----------------------------------------------------------

TEST(WallClockRule, FlagsSystemClockEverywhere) {
  EXPECT_TRUE(fires("src/core/trainer.cc",
                    "auto t = std::chrono::system_clock::now();\n", "wall-clock"));
  EXPECT_TRUE(fires("tests/a_test.cc", "std::chrono::system_clock::now();\n", "wall-clock"));
}

TEST(WallClockRule, AllowsSteadyClockInFunctionalCode) {
  EXPECT_FALSE(fires("src/core/trainer.cc",
                     "auto t = std::chrono::steady_clock::now();\n", "wall-clock"));
}

// --- sim-wall-clock ------------------------------------------------------

TEST(SimWallClockRule, FlagsWallTimeInSimulatedCode) {
  EXPECT_TRUE(fires("src/sim/simulation.cc",
                    "auto t = std::chrono::steady_clock::now();\n", "sim-wall-clock"));
  EXPECT_TRUE(fires("src/net/fabric.cc",
                    "std::this_thread::sleep_for(std::chrono::seconds(1));\n",
                    "sim-wall-clock"));
  // Any sim_* twin counts as simulated code, wherever it lives.
  EXPECT_TRUE(fires("src/smb/sim_smb.cc", "steady_clock::now();\n", "sim-wall-clock"));
  EXPECT_TRUE(
      fires("src/baselines/sim_platforms.cc", "sleep_until(deadline);\n", "sim-wall-clock"));
  EXPECT_TRUE(fires("src/minimpi/sim_mpi.cc", "high_resolution_clock::now();\n",
                    "sim-wall-clock"));
}

TEST(SimWallClockRule, AllowsWallTimeInFunctionalCode) {
  EXPECT_FALSE(fires("src/core/trainer.cc", "steady_clock::now();\n", "sim-wall-clock"));
  EXPECT_FALSE(fires("src/smb/server.cc",
                     "std::this_thread::sleep_for(std::chrono::seconds(1));\n",
                     "sim-wall-clock"));
  EXPECT_FALSE(fires("tests/fault_test.cc", "steady_clock::now();\n", "sim-wall-clock"));
}

// --- raii-lock -----------------------------------------------------------

TEST(RaiiLockRule, FlagsBareLockAndUnlockOnMutexes) {
  EXPECT_TRUE(fires("src/smb/server.cc", "table_mutex_.lock();\n", "raii-lock"));
  EXPECT_TRUE(fires("src/smb/server.cc", "segment->data_mutex.unlock();\n", "raii-lock"));
  EXPECT_TRUE(fires("src/minimpi/minimpi.cc", "box.mutex.lock();\n", "raii-lock"));
  EXPECT_TRUE(fires("src/core/trainer.cc", "mtx->try_lock();\n", "raii-lock"));
  EXPECT_TRUE(fires("src/smb/server.cc", "table_mutex_.lock_shared();\n", "raii-lock"));
}

TEST(RaiiLockRule, AllowsRaiiGuards) {
  EXPECT_FALSE(fires("src/smb/server.cc", "std::scoped_lock lock(table_mutex_);\n",
                     "raii-lock"));
  EXPECT_FALSE(fires("src/data/loader.cc", "std::unique_lock lock(mutex_);\nlock.unlock();\n",
                     "raii-lock"));
  EXPECT_FALSE(fires("src/smb/server.cc", "std::shared_lock lock(table_mutex_);\n",
                     "raii-lock"));
}

// --- sim-ptr-container ---------------------------------------------------

TEST(SimPtrContainerRule, FlagsPointerKeyedUnorderedContainersInSim) {
  EXPECT_TRUE(fires("src/sim/simulation.h", "std::unordered_set<void*> live_roots_;\n",
                    "sim-ptr-container"));
  EXPECT_TRUE(fires("src/net/fabric.h",
                    "std::unordered_map<Flow*, int> flow_index_;\n", "sim-ptr-container"));
  EXPECT_TRUE(fires("src/smb/sim_smb.h",
                    "std::unordered_set<const Segment *> dirty_;\n", "sim-ptr-container"));
}

TEST(SimPtrContainerRule, AllowsValueKeysAndFunctionalCode) {
  EXPECT_FALSE(fires("src/sim/simulation.h", "std::unordered_set<std::uint64_t> ids_;\n",
                     "sim-ptr-container"));
  EXPECT_FALSE(fires("src/sim/simulation.h", "std::map<std::uint64_t, void*> live_roots_;\n",
                     "sim-ptr-container"));
  // Functional (non-sim) code may use pointer keys; only sim determinism
  // is at stake.
  EXPECT_FALSE(fires("src/smb/server.h", "std::unordered_set<void*> tracked_;\n",
                     "sim-ptr-container"));
}

// --- pragma-once ---------------------------------------------------------

TEST(PragmaOnceRule, FlagsHeadersWithoutPragmaOnce) {
  EXPECT_TRUE(fires("src/dl/tensor.h", "struct Tensor {};\n", "pragma-once"));
}

TEST(PragmaOnceRule, AllowsGuardedHeadersAndSources) {
  EXPECT_FALSE(fires("src/dl/tensor.h", "#pragma once\nstruct Tensor {};\n", "pragma-once"));
  EXPECT_FALSE(fires("src/dl/tensor.cc", "struct Local {};\n", "pragma-once"));
}

// --- include-hygiene -----------------------------------------------------

TEST(IncludeHygieneRule, FlagsRelativeBareAndAngleProjectIncludes) {
  EXPECT_TRUE(fires("src/smb/client.cc", "#include \"../smb/server.h\"\n",
                    "include-hygiene"));
  EXPECT_TRUE(fires("src/smb/client.cc", "#include \"./server.h\"\n", "include-hygiene"));
  EXPECT_TRUE(fires("src/smb/client.cc", "#include \"server.h\"\n", "include-hygiene"));
  EXPECT_TRUE(fires("src/smb/client.cc", "#include <smb/server.h>\n", "include-hygiene"));
}

TEST(IncludeHygieneRule, AllowsRepoRelativeAndSystemIncludes) {
  EXPECT_FALSE(fires("src/smb/client.cc", "#include \"smb/server.h\"\n", "include-hygiene"));
  EXPECT_FALSE(fires("src/smb/client.cc", "#include <vector>\n", "include-hygiene"));
  EXPECT_FALSE(
      fires("tests/smb_test.cc", "#include <gtest/gtest.h>\n", "include-hygiene"));
  EXPECT_FALSE(fires("bench/bench_x.cc", "#include \"bench/bench_util.h\"\n",
                     "include-hygiene"));
}

// --- escapes and scrubbing -----------------------------------------------

TEST(LintAllow, SuppressesTheNamedRuleOnThatLineOnly) {
  const std::string allowed = "int x = rand();  // lint:" "allow(rng-source) fixture\n";
  EXPECT_FALSE(fires("src/dl/layers.cc", allowed, "rng-source"));
  // A different rule's allowance does not suppress.
  const std::string wrong = "int x = rand();  // lint:" "allow(wall-clock) wrong rule\n";
  EXPECT_TRUE(fires("src/dl/layers.cc", wrong, "rng-source"));
  // The next line is not covered.
  const std::string next_line = "// lint:" "allow(rng-source)\nint x = rand();\n";
  EXPECT_TRUE(fires("src/dl/layers.cc", next_line, "rng-source"));
}

TEST(Scrubber, IgnoresCommentsAndStringLiterals) {
  EXPECT_FALSE(fires("src/dl/layers.cc", "// old code used rand() here\n", "rng-source"));
  EXPECT_FALSE(fires("src/dl/layers.cc", "/* rand() in a block\n   comment */\n",
                     "rng-source"));
  EXPECT_FALSE(fires("src/dl/layers.cc", "const char* s = \"rand()\";\n", "rng-source"));
  EXPECT_FALSE(fires("src/sim/simulation.cc",
                     "log(\"no steady_clock in sim\"); // steady_clock is banned\n",
                     "sim-wall-clock"));
  // But code after a comment-looking string still counts.
  EXPECT_TRUE(fires("src/dl/layers.cc", "const char* s = \"//\"; int x = rand();\n",
                    "rng-source"));
}

TEST(Scrubber, HandlesMultiLineConstructs) {
  const std::vector<std::string> lines =
      scrub_source("int a;\n/* rand()\nrand() */ int b;\nchar c = '\"'; int d = rand();\n");
  ASSERT_EQ(lines.size(), 5U);  // trailing newline yields a final empty line
  EXPECT_EQ(lines[0], "int a;");
  EXPECT_EQ(lines[1], "");
  EXPECT_EQ(lines[2], " int b;");
  EXPECT_NE(lines[3].find("int d = rand()"), std::string::npos);
}

// --- findings metadata and formats ---------------------------------------

TEST(Findings, CarryFileLineRuleAndMessage) {
  const std::vector<Finding> findings =
      lint_source("src/dl/layers.cc", "int a;\nint x = rand();\n");
  ASSERT_EQ(findings.size(), 1U);
  EXPECT_EQ(findings[0].file, "src/dl/layers.cc");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[0].rule, "rng-source");
  EXPECT_FALSE(findings[0].message.empty());
}

TEST(Findings, TextFormatIsGrepable) {
  const std::vector<Finding> findings =
      lint_source("src/dl/layers.cc", "int x = rand();\n");
  const std::string text = to_text(findings);
  EXPECT_NE(text.find("src/dl/layers.cc:1: rng-source: "), std::string::npos);
}

TEST(Findings, JsonFormatIsWellFormed) {
  const std::vector<Finding> findings =
      lint_source("src/dl/layers.cc", "int x = rand();\nsrand(7);\n");
  const std::string json = to_json(findings);
  EXPECT_NE(json.find("\"file\": \"src/dl/layers.cc\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"line\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"rng-source\""), std::string::npos);
  EXPECT_EQ(json.front(), '[');
}

TEST(Findings, CleanSourceYieldsNoFindings) {
  const std::string clean =
      "#pragma once\n#include \"common/rng.h\"\n#include <vector>\n"
      "inline int f(shmcaffe::common::Rng& rng) { return static_cast<int>(rng.next_u64()); }\n";
  EXPECT_TRUE(lint_source("src/dl/clean.h", clean).empty());
}

// --- no-naked-epoch ------------------------------------------------------

TEST(NakedEpochRule, FlagsDirectComparisonsOnServiceEpochs) {
  // Identifier on the left of the comparison.
  EXPECT_TRUE(fires("src/core/trainer.cc",
                    "if (seen_service_epoch == current) {}\n", "no-naked-epoch"));
  EXPECT_TRUE(fires("src/smb/server.cc",
                    "if (ensemble->service_epoch() != cached) {}\n", "no-naked-epoch"));
  // Identifier on the right.
  EXPECT_TRUE(fires("src/core/sharded_buffer.cc",
                    "bool stale = cached < segment_service_epoch;\n", "no-naked-epoch"));
  EXPECT_TRUE(fires("src/recovery/replicated_smb.cc",
                    "while (x <= service_epoch_) {}\n", "no-naked-epoch"));
}

TEST(NakedEpochRule, AllowsAssignmentsCallsAndTheEpochHelpers) {
  // Assignment and plain accessor calls are not comparisons.
  EXPECT_FALSE(fires("src/core/trainer.cc",
                     "service_epoch_ = next_service_epoch(service_epoch_);\n",
                     "no-naked-epoch"));
  EXPECT_FALSE(fires("src/core/trainer.cc",
                     "const auto epoch = ensemble->service_epoch();\n", "no-naked-epoch"));
  // The sanctioned fencing helpers take epochs as arguments.
  EXPECT_FALSE(fires("src/core/trainer.cc",
                     "if (epoch_is_current(seen, service_epoch_)) {}\n", "no-naked-epoch"));
  // The CamelCase type name is not an epoch value.
  EXPECT_FALSE(fires("src/recovery/replicated_smb.cc",
                     "ServiceEpoch fresh = kInitialServiceEpoch;\n", "no-naked-epoch"));
  // Streaming is not comparing.
  EXPECT_FALSE(fires("src/recovery/schedule.cc",
                     "out << service_epoch_;\n", "no-naked-epoch"));
  // The helpers themselves implement the sentinel comparison — exempt.
  EXPECT_FALSE(fires("src/recovery/epoch.h",
                     "return seen == current_service_epoch;\n", "no-naked-epoch"));
}

// --- no-raw-thread -------------------------------------------------------

TEST(RawThreadRule, FlagsThreadConstructionInLibraryCode) {
  EXPECT_TRUE(fires("src/dl/layers.cc", "std::thread t([] {});\n", "no-raw-thread"));
  EXPECT_TRUE(fires("src/smb/server.cc", "std::vector<std::thread> pool;\n",
                    "no-raw-thread"));
  EXPECT_TRUE(fires("src/data/loader.h", "std::jthread producer_;\n", "no-raw-thread"));
  EXPECT_TRUE(fires("src/baselines/async_ps.cc", "std :: thread joiner;\n",
                    "no-raw-thread"));
}

TEST(RawThreadRule, AllowsThePoolProtocolThreadsAndTestCode) {
  // The work pool itself, the Fig. 6 protocol, and the rank models.
  EXPECT_FALSE(fires("src/common/parallel.cc", "std::vector<std::thread> workers_;\n",
                     "no-raw-thread"));
  EXPECT_FALSE(fires("src/core/trainer.cc", "std::thread update_thread;\n",
                     "no-raw-thread"));
  EXPECT_FALSE(fires("src/minimpi/minimpi.cc", "std::thread rank_thread;\n",
                     "no-raw-thread"));
  EXPECT_FALSE(fires("src/sim/simulation.cc", "std::thread host;\n", "no-raw-thread"));
  // Tests and benches drive threads deliberately.
  EXPECT_FALSE(fires("tests/parallel_test.cc", "std::thread hammer([] {});\n",
                     "no-raw-thread"));
  EXPECT_FALSE(fires("bench/bench_x.cc", "std::thread t([] {});\n", "no-raw-thread"));
  // this_thread and thread-adjacent identifiers are not the thread type.
  EXPECT_FALSE(fires("src/dl/layers.cc", "std::this_thread::yield();\n", "no-raw-thread"));
  EXPECT_FALSE(fires("src/dl/layers.cc", "int thread_count = 4;\n", "no-raw-thread"));
}

// --- scrubber: raw-string prefixes, line continuations, exact line counts --

TEST(Scrubber, RecognisesEncodingPrefixedRawStrings) {
  // u8R"(...)", uR"(...)", LR"(...)", UR"(...)" are raw strings too; their
  // bodies must be scrubbed just like plain R"(...)".
  for (const char* prefix : {"", "u8", "u", "L", "U"}) {
    const std::string source =
        std::string("const auto* s = ") + prefix + "R\"(rand())\";\n";
    EXPECT_FALSE(fires("src/dl/layers.cc", source, "rng-source")) << prefix;
  }
  // An identifier ending in R is NOT a raw-string prefix: the literal after
  // it is ordinary, and code before it still scans.
  const std::string not_raw = "int x = FOOBAR\"\" + rand();\n";
  EXPECT_TRUE(fires("src/dl/layers.cc", not_raw, "rng-source"));
}

TEST(Scrubber, ContinuesLineCommentsAcrossBackslashNewline) {
  // A line comment ending in '\' splices the next physical line into the
  // comment; tokens there must not fire, and line numbers must stay exact.
  const std::string source = "// spliced comment \\\nint a = rand();\nint b = rand();\n";
  const std::vector<Finding> findings = lint_source("src/dl/layers.cc", source);
  ASSERT_EQ(findings.size(), 1U);
  EXPECT_EQ(findings[0].rule, "rng-source");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(Scrubber, KeepsLineCountsExactAcrossSplicedStrings) {
  // A backslash-newline inside a string literal continues the literal; the
  // newline must still produce a line so later findings keep their numbers.
  const std::string source = "const char* s = \"a\\\nrand()\";\nint x = rand();\n";
  const std::vector<std::string> lines = scrub_source(source);
  ASSERT_EQ(lines.size(), 4U);  // 3 physical lines + trailing empty
  const std::vector<Finding> findings = lint_source("src/dl/layers.cc", source);
  ASSERT_EQ(findings.size(), 1U);
  EXPECT_EQ(findings[0].line, 3);
}

// --- allow-list extensions -------------------------------------------------

TEST(LintAllow, CommaListSuppressesSeveralRulesAtOnce) {
  const std::string source =
      "auto t = std::chrono::system_clock::now(); int x = rand(); "
      "// lint:" "allow(rng-source,wall-clock) fixture\n";
  EXPECT_FALSE(fires("src/dl/layers.cc", source, "rng-source"));
  EXPECT_FALSE(fires("src/dl/layers.cc", source, "wall-clock"));
  // The list only names the listed rules.
  const std::string partial =
      "std::thread t; int x = rand(); // lint:" "allow(rng-source,wall-clock)\n";
  EXPECT_TRUE(fires("src/dl/layers.cc", partial, "no-raw-thread"));
}

TEST(LintAllow, NextLineVariantCoversTheFollowingLineOnly) {
  const std::string covered =
      "// lint:" "allow-next-line(rng-source) fixture\nint x = rand();\n";
  EXPECT_FALSE(fires("src/dl/layers.cc", covered, "rng-source"));
  // It does not cover its own line ...
  const std::string own_line =
      "int x = rand(); // lint:" "allow-next-line(rng-source)\nint y = 0;\n";
  EXPECT_TRUE(fires("src/dl/layers.cc", own_line, "rng-source"));
  // ... nor the line after next.
  const std::string too_far =
      "// lint:" "allow-next-line(rng-source)\nint a = 0;\nint x = rand();\n";
  EXPECT_TRUE(fires("src/dl/layers.cc", too_far, "rng-source"));
  // On the last line of a file it is simply inert (no out-of-bounds target).
  EXPECT_TRUE(lint_source("src/dl/layers.cc",
                          "// lint:" "allow-next-line(rng-source)").empty());
}

// --- pass 1: the declaration index ----------------------------------------

TEST(ClassIndex, FindsClassesFieldsAndMutexOwnership) {
  const std::string source =
      "#pragma once\n"
      "#include \"common/ordered_mutex.h\"\n"
      "namespace shmcaffe::smb {\n"
      "class Box {\n"
      " public:\n"
      "  void put(int v);\n"
      "  int get() const { return value_; }\n"
      " private:\n"
      "  mutable common::OrderedMutex mu_{\"smb.box\", 200};\n"
      "  int value_ SHMCAFFE_GUARDED_BY(mu_) = 0;\n"
      "  std::atomic<int> hits_{0};\n"
      "};\n"
      "struct Plain { int x = 0; };\n"
      "}  // namespace\n";
  const std::vector<ClassInfo> index = index_classes({{"src/smb/box.h", source}});
  ASSERT_EQ(index.size(), 2U);
  const ClassInfo& box = index[0];
  EXPECT_EQ(box.name, "Box");            // namespaces are not part of the name
  EXPECT_EQ(box.file, "src/smb/box.h");
  EXPECT_TRUE(box.owns_ordered_mutex);
  ASSERT_EQ(box.fields.size(), 3U);
  EXPECT_EQ(box.fields[0].name, "mu_");
  EXPECT_TRUE(box.fields[0].is_mutex);
  EXPECT_EQ(box.fields[1].name, "value_");
  EXPECT_TRUE(box.fields[1].guarded);
  EXPECT_EQ(box.fields[1].guard, "mu_");
  EXPECT_EQ(box.fields[2].name, "hits_");
  EXPECT_TRUE(box.fields[2].exempt);  // atomic
  EXPECT_FALSE(index[1].owns_ordered_mutex);
}

TEST(ClassIndex, QualifiesNestedClassesByEnclosingName) {
  const std::string source =
      "class Server {\n"
      "  struct Segment {\n"
      "    int refcount = 0;\n"
      "  };\n"
      "  common::OrderedMutex table_mu_{\"t\", 210};\n"
      "};\n";
  const std::vector<ClassInfo> index = index_classes({{"src/smb/server.h", source}});
  ASSERT_EQ(index.size(), 2U);
  EXPECT_EQ(index[0].name, "Server");
  EXPECT_EQ(index[1].name, "Server::Segment");
  EXPECT_EQ(index[1].enclosing, "Server");
}

TEST(ClassIndex, SkipsFunctionsMacrosAndStaticMembers) {
  const std::string source =
      "class Worker {\n"
      "  Worker() : started_{false} {}\n"
      "  Worker(const Worker&) = delete;\n"
      "  Worker& operator=(const Worker&) = delete;\n"
      "  static int live_count;\n"
      "  static constexpr int kLimit = 8;\n"
      "  int run(int n) { return n; }\n"
      "  using Clock = int;\n"
      "  common::OrderedMutex mu_{\"w\", 100};\n"
      "  bool started_ SHMCAFFE_GUARDED_BY(mu_);\n"
      "};\n";
  const std::vector<ClassInfo> index = index_classes({{"src/core/worker.h", source}});
  ASSERT_EQ(index.size(), 1U);
  ASSERT_EQ(index[0].fields.size(), 2U);
  EXPECT_EQ(index[0].fields[0].name, "mu_");
  EXPECT_EQ(index[0].fields[1].name, "started_");
}

// --- guarded-by ------------------------------------------------------------

namespace {

std::vector<std::string> repo_rules_fired(const std::vector<SourceFile>& files) {
  std::vector<std::string> rules;
  for (const Finding& finding : lint_repo(files)) rules.push_back(finding.rule);
  return rules;
}

bool repo_fires(const std::vector<SourceFile>& files, const std::string& rule) {
  const std::vector<std::string> fired = repo_rules_fired(files);
  return std::find(fired.begin(), fired.end(), rule) != fired.end();
}

}  // namespace

TEST(GuardedByRule, FlagsUnannotatedMutableFieldsInMutexOwningClasses) {
  const std::string source =
      "#pragma once\n"
      "class Cache {\n"
      "  common::OrderedMutex mu_{\"c\", 100};\n"
      "  int entries_ = 0;\n"
      "};\n";
  const std::vector<SourceFile> files = {{"src/core/cache.h", source}};
  const std::vector<Finding> findings = lint_repo(files);
  ASSERT_EQ(findings.size(), 1U);
  EXPECT_EQ(findings[0].rule, "guarded-by");
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_NE(findings[0].message.find("entries_"), std::string::npos);
  EXPECT_NE(findings[0].message.find("Cache"), std::string::npos);
}

TEST(GuardedByRule, AcceptsGuardedAndExplicitlyUnguardedFields) {
  const std::string source =
      "#pragma once\n"
      "class Cache {\n"
      "  common::OrderedMutex mu_{\"c\", 100};\n"
      "  int entries_ SHMCAFFE_GUARDED_BY(mu_) = 0;\n"
      "  int ctor_set_ SHMCAFFE_UNGUARDED = 0;\n"
      "};\n";
  EXPECT_TRUE(lint_repo({{"src/core/cache.h", source}}).empty());
}

TEST(GuardedByRule, FlagsGuardsThatNameNoMutexMember) {
  const std::string source =
      "#pragma once\n"
      "class Cache {\n"
      "  common::OrderedMutex mu_{\"c\", 100};\n"
      "  int entries_ SHMCAFFE_GUARDED_BY(other_mu_) = 0;\n"
      "};\n";
  const std::vector<Finding> findings = lint_repo({{"src/core/cache.h", source}});
  ASSERT_EQ(findings.size(), 1U);
  EXPECT_EQ(findings[0].rule, "guarded-by");
  EXPECT_NE(findings[0].message.find("other_mu_"), std::string::npos);
}

TEST(GuardedByRule, ResolvesGuardsThroughLexicallyEnclosingClasses) {
  // SmbServer::Segment's refcount is guarded by the *server's* table lock;
  // the guard must resolve through the enclosing class chain.
  const std::string source =
      "#pragma once\n"
      "class Server {\n"
      "  struct Segment {\n"
      "    common::OrderedSharedMutex data_mu{\"d\", 200};\n"
      "    int version SHMCAFFE_GUARDED_BY(data_mu) = 0;\n"
      "    int refcount SHMCAFFE_GUARDED_BY(table_mu_) = 0;\n"
      "  };\n"
      "  common::OrderedMutex table_mu_{\"t\", 210};\n"
      "  int open_ SHMCAFFE_GUARDED_BY(table_mu_) = 0;\n"
      "};\n";
  EXPECT_TRUE(lint_repo({{"src/smb/server2.h", source}}).empty());
}

TEST(GuardedByRule, ExemptsImmutableAtomicAndSynchronisationFields) {
  const std::string source =
      "#pragma once\n"
      "class Cache {\n"
      "  common::OrderedMutex mu_{\"c\", 100};\n"
      "  std::atomic<int> hits_{0};\n"
      "  std::atomic<bool> failed_{false};\n"
      "  const int capacity_ = 8;\n"
      "  std::condition_variable_any cv_;\n"
      "  std::mutex plain_mu_;\n"
      "  Registry& registry_;\n"
      "  static int live_count;\n"
      "};\n";
  EXPECT_TRUE(lint_repo({{"src/core/cache.h", source}}).empty());
}

TEST(GuardedByRule, OnlyAppliesToMutexOwningClassesUnderSrc) {
  // No ordered mutex -> no coverage obligation.
  const std::string plain =
      "#pragma once\nclass Plain { int x_ = 0; std::mutex mu_; };\n";
  EXPECT_FALSE(repo_fires({{"src/core/plain.h", plain}}, "guarded-by"));
  // Outside src/ the rule does not run (test fixtures own mutexes freely).
  const std::string fixture =
      "#pragma once\nclass F { common::OrderedMutex mu_{\"f\", 1}; int x_ = 0; };\n";
  EXPECT_FALSE(repo_fires({{"tests/fixture.h", fixture}}, "guarded-by"));
  EXPECT_TRUE(repo_fires({{"src/core/f.h", fixture}}, "guarded-by"));
}

TEST(GuardedByRule, HonoursTheAllowEscapeHatch) {
  const std::string source =
      "#pragma once\n"
      "class Cache {\n"
      "  common::OrderedMutex mu_{\"c\", 100};\n"
      "  int entries_ = 0;  // lint:" "allow(guarded-by) fixture\n"
      "};\n";
  EXPECT_TRUE(lint_repo({{"src/core/cache.h", source}}).empty());
}

// --- include-layering ------------------------------------------------------

TEST(IncludeLayeringRule, AllowsDeclaredAndSameDirectoryEdges) {
  EXPECT_FALSE(fires("src/smb/server.cc", "#include \"net/fabric.h\"\n",
                     "include-layering"));
  EXPECT_FALSE(fires("src/core/trainer.cc", "#include \"smb/service.h\"\n",
                     "include-layering"));
  EXPECT_FALSE(fires("src/recovery/replicated_smb.cc", "#include \"recovery/epoch.h\"\n",
                     "include-layering"));
  EXPECT_FALSE(fires("src/minimpi/minimpi.cc", "#include \"common/ordered_mutex.h\"\n",
                     "include-layering"));
}

TEST(IncludeLayeringRule, FlagsUpwardAndUndeclaredEdges) {
  // common is the bottom layer: it may include from nobody.
  EXPECT_TRUE(fires("src/common/parallel.cc", "#include \"smb/server.h\"\n",
                    "include-layering"));
  // net does not depend on minimpi (it is the other way around).
  EXPECT_TRUE(fires("src/net/fabric.cc", "#include \"minimpi/minimpi.h\"\n",
                    "include-layering"));
  // smb must not reach into core (core sits above smb).
  EXPECT_TRUE(fires("src/smb/server.cc", "#include \"core/trainer.h\"\n",
                    "include-layering"));
}

TEST(IncludeLayeringRule, FlagsTargetsOutsideTheSrcDag) {
  // src/ must never include from tests/, bench/ or tools/.
  EXPECT_TRUE(fires("src/smb/server.cc", "#include \"tests/util.h\"\n",
                    "include-layering"));
  EXPECT_TRUE(fires("src/core/trainer.cc", "#include \"bench/bench_util.h\"\n",
                    "include-layering"));
}

TEST(IncludeLayeringRule, DoesNotApplyOutsideSrc) {
  EXPECT_FALSE(fires("tests/smb_test.cc", "#include \"core/trainer.h\"\n",
                     "include-layering"));
  EXPECT_FALSE(fires("bench/bench_x.cc", "#include \"core/trainer.h\"\n",
                     "include-layering"));
}

TEST(IncludeLayeringRule, DeclaredDagIsAcyclic) {
  // Every edge must point strictly downward: if a includes b then b must not
  // (transitively) include a.  DFS over the declared table.
  const std::vector<std::string>& dirs = layering_dirs();
  ASSERT_FALSE(dirs.empty());
  for (const std::string& start : dirs) {
    std::vector<std::string> stack = {start};
    std::vector<std::string> seen;
    while (!stack.empty()) {
      const std::string at = stack.back();
      stack.pop_back();
      for (const std::string& next : dirs) {
        if (next == at || !layering_allows(at, next)) continue;
        EXPECT_NE(next, start) << "cycle through " << start << " -> " << at;
        if (std::find(seen.begin(), seen.end(), next) == seen.end()) {
          seen.push_back(next);
          stack.push_back(next);
        }
      }
    }
  }
  // Spot-check the spine: everything may be reached from core, nothing from
  // common.
  EXPECT_TRUE(layering_allows("core", "smb"));
  EXPECT_TRUE(layering_allows("smb", "rdma"));
  for (const std::string& dir : dirs) {
    if (dir != "common") {
      EXPECT_FALSE(layering_allows("common", dir)) << dir;
    }
  }
}

// --- the coverage report ---------------------------------------------------

TEST(CoverageReport, CountsGuardedUnguardedAndUnannotatedFields) {
  const std::string source =
      "#pragma once\n"
      "class Cache {\n"
      "  common::OrderedMutex mu_{\"c\", 100};\n"
      "  int guarded_ SHMCAFFE_GUARDED_BY(mu_) = 0;\n"
      "  int declared_ SHMCAFFE_UNGUARDED = 0;\n"
      "  int missing_ = 0;\n"
      "  std::atomic<int> exempt_{0};\n"
      "};\n";
  const std::string json = coverage_json({{"src/core/cache.h", source}});
  EXPECT_NE(json.find("\"class\": \"Cache\""), std::string::npos);
  EXPECT_NE(json.find("\"file\": \"src/core/cache.h\""), std::string::npos);
  EXPECT_NE(json.find("\"mutexes\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"fields\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"guarded\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"unguarded\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"unannotated\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"summary\""), std::string::npos);
}

TEST(CoverageReport, SkipsClassesWithoutOrderedMutexes) {
  const std::string source = "#pragma once\nclass Plain { int x_ = 0; };\n";
  const std::string json = coverage_json({{"src/core/plain.h", source}});
  EXPECT_EQ(json.find("Plain"), std::string::npos);
  EXPECT_NE(json.find("\"classes\": 0"), std::string::npos);
}

// --- lock-region (flow-sensitive) ------------------------------------------

TEST(LockRegionRule, FlagsGuardedFieldAccessOutsideTheLock) {
  const std::string source =
      "class Counter {\n"
      " public:\n"
      "  void ok() {\n"
      "    std::scoped_lock lock(mu_);\n"
      "    ++hits_;\n"
      "  }\n"
      "  void asserted() {\n"
      "    SHMCAFFE_ASSERT_HELD(mu_);\n"
      "    ++hits_;\n"
      "  }\n"
      "  void bad() { ++hits_; }\n"
      " private:\n"
      "  common::OrderedMutex mu_{\"c\", 100};\n"
      "  int hits_ SHMCAFFE_GUARDED_BY(mu_) = 0;\n"
      "};\n";
  const std::vector<Finding> findings = lint_repo({{"src/core/counter.cc", source}});
  int lock_region = 0;
  for (const Finding& finding : findings) {
    if (finding.rule == "lock-region") {
      ++lock_region;
      EXPECT_EQ(finding.line, 11);  // only bad() is outside the lock
    }
  }
  EXPECT_EQ(lock_region, 1);
}

TEST(LockRegionRule, UnlockInANestedBranchDoesNotPoisonTheOuterScope) {
  const std::string source =
      "class Counter {\n"
      " public:\n"
      "  void roundtrip(bool early) {\n"
      "    std::unique_lock lock(mu_);\n"
      "    if (early) {\n"
      "      lock.unlock();\n"
      "      return;\n"
      "    }\n"
      "    ++hits_;\n"
      "    lock.unlock();\n"
      "    hits_ = 0;\n"
      "  }\n"
      " private:\n"
      "  common::OrderedMutex mu_{\"c\", 100};\n"
      "  int hits_ SHMCAFFE_GUARDED_BY(mu_) = 0;\n"
      "};\n";
  const std::vector<Finding> findings = lint_repo({{"src/core/counter.cc", source}});
  int lock_region = 0;
  for (const Finding& finding : findings) {
    if (finding.rule == "lock-region") {
      ++lock_region;
      EXPECT_EQ(finding.line, 11);  // the write after the same-scope unlock
    }
  }
  EXPECT_EQ(lock_region, 1);
}

TEST(LockRegionRule, FlagsLockedHelperCalledWithoutTheLock) {
  const std::string source =
      "class Board {\n"
      " public:\n"
      "  void sweep() {\n"
      "    std::scoped_lock lock(mu_);\n"
      "    fold_locked();\n"
      "  }\n"
      "  void broken() { fold_locked(); }\n"
      " private:\n"
      "  void fold_locked() { ++folds_; }\n"  // requirement inferred: sole mutex
      "  common::OrderedMutex mu_{\"b\", 100};\n"
      "  int folds_ SHMCAFFE_GUARDED_BY(mu_) = 0;\n"
      "};\n";
  const std::vector<Finding> findings = lint_repo({{"src/core/board.cc", source}});
  int lock_region = 0;
  for (const Finding& finding : findings) {
    if (finding.rule == "lock-region") {
      ++lock_region;
      EXPECT_EQ(finding.line, 7);  // broken() calls the helper lock-free
    }
  }
  EXPECT_EQ(lock_region, 1);
}

TEST(LockRegionRule, PropagatesExplicitRequiresAnnotations) {
  const std::string source =
      "class Twin {\n"
      " public:\n"
      "  void good() {\n"
      "    std::scoped_lock lock(a_);\n"
      "    touch_locked();\n"
      "  }\n"
      "  void wrong() {\n"
      "    std::scoped_lock lock(b_);\n"
      "    touch_locked();\n"
      "  }\n"
      " private:\n"
      "  void touch_locked() SHMCAFFE_REQUIRES(a_) { ++val_; }\n"
      "  common::OrderedMutex a_{\"a\", 100};\n"
      "  common::OrderedMutex b_{\"b\", 110};\n"
      "  int val_ SHMCAFFE_GUARDED_BY(a_) = 0;\n"
      "};\n";
  const std::vector<Finding> findings = lint_repo({{"src/core/twin.cc", source}});
  int lock_region = 0;
  for (const Finding& finding : findings) {
    if (finding.rule == "lock-region") {
      ++lock_region;
      EXPECT_EQ(finding.line, 9);  // wrong() holds b_, the helper needs a_
    }
  }
  EXPECT_EQ(lock_region, 1);
}

TEST(LockRegionRule, RequiresAnnotationWhenSeveralMutexesPreventInference) {
  const std::string bare =
      "class Twin {\n"
      "  void tidy_locked() { }\n"
      "  common::OrderedMutex a_{\"a\", 100};\n"
      "  common::OrderedMutex b_{\"b\", 110};\n"
      "};\n";
  EXPECT_TRUE(repo_fires({{"src/core/twin.cc", bare}}, "lock-region"));
  const std::string annotated =
      "class Twin {\n"
      "  void tidy_locked() SHMCAFFE_REQUIRES(a_) { }\n"
      "  common::OrderedMutex a_{\"a\", 100};\n"
      "  common::OrderedMutex b_{\"b\", 110};\n"
      "};\n";
  EXPECT_FALSE(repo_fires({{"src/core/twin.cc", annotated}}, "lock-region"));
}

// --- determinism taint ------------------------------------------------------

TEST(DeterminismRule, FlagsUnorderedIterationInAnnotatedRoots) {
  const std::string tainted =
      "SHMCAFFE_DETERMINISTIC std::uint64_t digest(const std::unordered_map<int, int>& m) {\n"
      "  std::uint64_t h = 0;\n"
      "  for (const auto& entry : m) h += entry.second;\n"
      "  return h;\n"
      "}\n";
  EXPECT_TRUE(repo_fires({{"src/recovery/digest.cc", tainted}}, "determinism"));
  const std::string ordered =
      "SHMCAFFE_DETERMINISTIC std::uint64_t digest(const std::map<int, int>& m) {\n"
      "  std::uint64_t h = 0;\n"
      "  for (const auto& entry : m) h += entry.second;\n"
      "  return h;\n"
      "}\n";
  EXPECT_FALSE(repo_fires({{"src/recovery/digest.cc", ordered}}, "determinism"));
  // An unannotated function may iterate whatever it likes.
  const std::string unannotated =
      "std::uint64_t digest(const std::unordered_map<int, int>& m) {\n"
      "  std::uint64_t h = 0;\n"
      "  for (const auto& entry : m) h += entry.second;\n"
      "  return h;\n"
      "}\n";
  EXPECT_FALSE(repo_fires({{"src/recovery/digest.cc", unannotated}}, "determinism"));
}

TEST(DeterminismRule, PropagatesTaintThroughTheCallIndex) {
  const std::string source =
      "int seed_helper() { return std::getenv(\"SHM_SEED\") ? 1 : 0; }\n"
      "SHMCAFFE_DETERMINISTIC int schedule() { return seed_helper(); }\n";
  const std::vector<Finding> findings = lint_repo({{"src/recovery/sched.cc", source}});
  int determinism = 0;
  for (const Finding& finding : findings) {
    if (finding.rule == "determinism") {
      ++determinism;
      EXPECT_EQ(finding.line, 1);  // the taint sits in the helper's body
      EXPECT_NE(finding.message.find("schedule"), std::string::npos)
          << "message names the root: " << finding.message;
    }
  }
  EXPECT_EQ(determinism, 1);
}

TEST(DeterminismRule, FlagsClockReadsReachableFromRoots) {
  const std::string source =
      "SHMCAFFE_DETERMINISTIC double stamp() {\n"
      "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
      "}\n";
  EXPECT_TRUE(repo_fires({{"src/elastic/stamp.cc", source}}, "determinism"));
}

// --- stale-allow ------------------------------------------------------------

TEST(StaleAllowRule, ReportsSuppressionsThatCatchNothing) {
  const std::string stale = "int x = 0;  // lint:" "allow(rng-source) obsolete\n";
  EXPECT_TRUE(repo_fires({{"src/core/a.cc", stale}}, "stale-allow"));
  const std::string used = "int x = rand();  // lint:" "allow(rng-source) justified\n";
  EXPECT_FALSE(repo_fires({{"src/core/a.cc", used}}, "stale-allow"));
  EXPECT_FALSE(repo_fires({{"src/core/a.cc", used}}, "rng-source"));
}

TEST(StaleAllowRule, CountsSuppressionsFromTheRepoWidePasses) {
  // The annotation is consumed by the lock-region pass, not the per-line
  // rules, and must still count as used.
  const std::string source =
      "class Counter {\n"
      " public:\n"
      "  int peek() const { return hits_; }  // lint:" "allow(lock-region) racy probe\n"
      " private:\n"
      "  common::OrderedMutex mu_{\"c\", 100};\n"
      "  int hits_ SHMCAFFE_GUARDED_BY(mu_) = 0;\n"
      "};\n";
  EXPECT_FALSE(repo_fires({{"src/core/counter.cc", source}}, "stale-allow"));
  EXPECT_FALSE(repo_fires({{"src/core/counter.cc", source}}, "lock-region"));
}

TEST(CoverageReport, ReportsAccessAndDeterminismCounters) {
  const std::string source =
      "#pragma once\n"
      "SHMCAFFE_DETERMINISTIC int digest() { return 7; }\n"
      "class Counter {\n"
      " public:\n"
      "  void ok() { std::scoped_lock lock(mu_); ++hits_; }\n"
      "  int peek() const { return hits_; }  // lint:" "allow(lock-region) racy probe\n"
      " private:\n"
      "  common::OrderedMutex mu_{\"c\", 100};\n"
      "  int hits_ SHMCAFFE_GUARDED_BY(mu_) = 0;\n"
      "};\n";
  const std::string json = coverage_json({{"src/core/counter.h", source}});
  // Both accesses count (the justified one included); neither is unguarded.
  EXPECT_NE(json.find("\"accesses\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"unguarded_access\": 0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"deterministic_roots\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tainted\": 0"), std::string::npos) << json;
}

// --- no-blocking-under-lock ----------------------------------------------

TEST(BlockingUnderLockRule, FlagsAnnotatedBlockingCallUnderAHeldGuard) {
  const std::string source =
      "class Box {\n"
      " public:\n"
      "  SHMCAFFE_BLOCKS void drain();\n"
      "  void bad() {\n"
      "    std::scoped_lock lock(mu_);\n"
      "    drain();\n"
      "  }\n"
      "  void good() { drain(); }\n"
      " private:\n"
      "  common::OrderedMutex mu_{\"box\", 100};\n"
      "  int hits_ SHMCAFFE_GUARDED_BY(mu_) = 0;\n"
      "};\n";
  const std::vector<Finding> findings = lint_repo({{"src/core/box.cc", source}});
  int blocking = 0;
  for (const Finding& finding : findings) {
    if (finding.rule == "no-blocking-under-lock") {
      ++blocking;
      EXPECT_EQ(finding.line, 6);  // only the locked call site fires
    }
  }
  EXPECT_EQ(blocking, 1);
}

TEST(BlockingUnderLockRule, PropagatesBlockingnessThroughTheCallIndex) {
  // No annotation anywhere: nap()'s literal sleep is the root, and the
  // lock-held call reaches it two hops away.
  const std::string source =
      "class Pipe {\n"
      " public:\n"
      "  void nap() { std::this_thread::sleep_for(std::chrono::milliseconds(1)); }\n"
      "  void relay() { nap(); }\n"
      "  void bad() {\n"
      "    std::scoped_lock lock(mu_);\n"
      "    relay();\n"
      "  }\n"
      " private:\n"
      "  common::OrderedMutex mu_{\"pipe\", 100};\n"
      "};\n";
  EXPECT_TRUE(repo_fires({{"src/core/pipe.cc", source}}, "no-blocking-under-lock"));
}

TEST(BlockingUnderLockRule, WaitOnTheHeldGuardReleasesItsMutex) {
  // cv.wait(lock) names the guard it releases: the canonical shape must
  // stay silent even though the wait sits lexically inside the lock region.
  const std::string source =
      "class Gate {\n"
      " public:\n"
      "  void pass() {\n"
      "    std::unique_lock lock(mu_);\n"
      "    cv_.wait(lock);\n"
      "  }\n"
      " private:\n"
      "  common::OrderedMutex mu_{\"gate\", 100};\n"
      "  std::condition_variable_any cv_;\n"
      "};\n";
  EXPECT_FALSE(repo_fires({{"src/core/gate.cc", source}}, "no-blocking-under-lock"));
}

TEST(BlockingUnderLockRule, FlagsLiteralSleepInsideALockRegion) {
  const std::string source =
      "class Nap {\n"
      " public:\n"
      "  void bad() {\n"
      "    std::scoped_lock lock(mu_);\n"
      "    std::this_thread::sleep_for(std::chrono::milliseconds(1));\n"
      "  }\n"
      " private:\n"
      "  common::OrderedMutex mu_{\"nap\", 100};\n"
      "};\n";
  EXPECT_TRUE(repo_fires({{"src/core/nap.cc", source}}, "no-blocking-under-lock"));
}

TEST(BlockingUnderLockRule, LambdaBodyGuardCoversOnlyTheStatementsAfterIt) {
  // A guard declared inside a thread lambda holds from its declaration to
  // the lambda body's closing brace: not at the call before it, and not at
  // the statements after the enclosing statement.
  const std::string silent =
      "class Crew {\n"
      " public:\n"
      "  SHMCAFFE_BLOCKS void work(int w);\n"
      "  void run_all() {\n"
      "    std::vector<std::thread> threads;\n"
      "    for (int w = 0; w < 4; ++w) {\n"
      "      threads.emplace_back([this, w] { work(w); std::scoped_lock lock(mu_); ++exited_; });\n"
      "    }\n"
      "    work(0);\n"
      "  }\n"
      " private:\n"
      "  common::OrderedMutex mu_{\"crew\", 100};\n"
      "  int exited_ SHMCAFFE_GUARDED_BY(mu_) = 0;\n"
      "};\n";
  // The lock rules only: a raw std::thread in src/core has a rule of its own.
  const auto lock_findings = [](const std::string& source) {
    std::vector<Finding> out;
    for (const Finding& finding : lint_repo({{"src/core/crew.cc", source}})) {
      if (finding.rule == "no-blocking-under-lock" || finding.rule == "lock-region") {
        out.push_back(finding);
      }
    }
    return out;
  };
  EXPECT_TRUE(lock_findings(silent).empty());

  const std::string locked_first =
      "class Crew {\n"
      " public:\n"
      "  SHMCAFFE_BLOCKS void work(int w);\n"
      "  void run_all() {\n"
      "    std::vector<std::thread> threads;\n"
      "    for (int w = 0; w < 4; ++w) {\n"
      "      threads.emplace_back([this, w] { std::scoped_lock lock(mu_); work(w); });\n"
      "    }\n"
      "  }\n"
      " private:\n"
      "  common::OrderedMutex mu_{\"crew\", 100};\n"
      "};\n";
  const std::vector<Finding> findings = lock_findings(locked_first);
  ASSERT_EQ(findings.size(), 1U);
  EXPECT_EQ(findings[0].rule, "no-blocking-under-lock");
  EXPECT_EQ(findings[0].line, 7);

  // unlock() on the lambda's own guard ends its hold there.
  const std::string unlocked_first =
      "class Crew {\n"
      " public:\n"
      "  SHMCAFFE_BLOCKS void work(int w);\n"
      "  void run_all() {\n"
      "    std::vector<std::thread> threads;\n"
      "    for (int w = 0; w < 4; ++w) {\n"
      "      threads.emplace_back([this, w] { std::unique_lock lock(mu_); lock.unlock(); work(w); });\n"
      "    }\n"
      "  }\n"
      " private:\n"
      "  common::OrderedMutex mu_{\"crew\", 100};\n"
      "};\n";
  EXPECT_TRUE(lock_findings(unlocked_first).empty());
}

TEST(BlockingUnderLockRule, VerifiesNonblockingContracts) {
  const std::string broken =
      "class Probe {\n"
      " public:\n"
      "  SHMCAFFE_NONBLOCKING void peek() { nap(); }\n"
      "  void nap() { std::this_thread::sleep_for(std::chrono::milliseconds(1)); }\n"
      "};\n";
  EXPECT_TRUE(repo_fires({{"src/core/probe.cc", broken}}, "no-blocking-under-lock"));
  const std::string honest =
      "class Probe {\n"
      " public:\n"
      "  SHMCAFFE_NONBLOCKING int peek() const { return hits_; }\n"
      " private:\n"
      "  int hits_ = 0;\n"
      "};\n";
  EXPECT_FALSE(repo_fires({{"src/core/probe.cc", honest}}, "no-blocking-under-lock"));
}

TEST(BlockingUnderLockRule, HonoursTheAllowEscapeHatch) {
  const std::string source =
      "class Box {\n"
      " public:\n"
      "  SHMCAFFE_BLOCKS void drain();\n"
      "  void deliberate() {\n"
      "    std::scoped_lock lock(mu_);\n"
      "    drain();  // lint:" "allow(no-blocking-under-lock) drain owns the stall\n"
      "  }\n"
      " private:\n"
      "  common::OrderedMutex mu_{\"box\", 100};\n"
      "};\n";
  EXPECT_FALSE(repo_fires({{"src/core/box.cc", source}}, "no-blocking-under-lock"));
  EXPECT_FALSE(repo_fires({{"src/core/box.cc", source}}, "stale-allow"));
}

// --- pin-lifetime --------------------------------------------------------

TEST(PinLifetimeRule, FlagsPinTypedFieldsWithoutEscapeAnnotation) {
  const std::string bad =
      "struct Cache {\n"
      "  smb::PinnedFloats view;\n"
      "};\n";
  EXPECT_TRUE(repo_fires({{"src/core/cache.h", bad}}, "pin-lifetime"));
  const std::string annotated =
      "struct Cache {\n"
      "  smb::PinnedFloats view SHMCAFFE_PIN_ESCAPE;\n"
      "};\n";
  EXPECT_FALSE(repo_fires({{"src/core/cache.h", annotated}}, "pin-lifetime"));
  // Pointers/references to pin types are fine: they do not own the pin.
  const std::string pointer =
      "struct Cursor {\n"
      "  const smb::PinnedFloats* view = nullptr;\n"
      "};\n";
  EXPECT_FALSE(repo_fires({{"src/core/cursor.h", pointer}}, "pin-lifetime"));
}

TEST(PinLifetimeRule, FlagsPinReturnsWithoutEscapeAnnotation) {
  EXPECT_TRUE(repo_fires({{"src/core/grab.h", "smb::PinnedFloats grab();\n"}}, "pin-lifetime"));
  EXPECT_FALSE(repo_fires(
      {{"src/core/grab.h", "SHMCAFFE_PIN_ESCAPE smb::PinnedFloats grab();\n"}}, "pin-lifetime"));
  // Returning a reference hands out no new pin.
  EXPECT_FALSE(
      repo_fires({{"src/core/grab.h", "const smb::PinnedFloats& peek();\n"}}, "pin-lifetime"));
}

TEST(PinLifetimeRule, FlagsPinLocalsCapturedByEscapingLambdas) {
  const std::string bad =
      "SHMCAFFE_PIN_ESCAPE smb::PinnedFloats grab();\n"
      "void ship() {\n"
      "  smb::PinnedFloats view = grab();\n"
      "  defer([view] { consume(view); });\n"
      "}\n";
  EXPECT_TRUE(repo_fires({{"src/core/ship.cc", bad}}, "pin-lifetime"));
  const std::string frame_local =
      "SHMCAFFE_PIN_ESCAPE smb::PinnedFloats grab();\n"
      "void use() {\n"
      "  smb::PinnedFloats view = grab();\n"
      "  consume(view.span());\n"
      "}\n";
  EXPECT_FALSE(repo_fires({{"src/core/use.cc", frame_local}}, "pin-lifetime"));
}

TEST(PinLifetimeRule, FlagsPinAcquisitionWhileHoldingAMutex) {
  const std::string source =
      "class Table {\n"
      " public:\n"
      "  SHMCAFFE_PIN_ESCAPE smb::PinnedFloats grab();\n"
      "  void bad() {\n"
      "    std::scoped_lock lock(mu_);\n"
      "    smb::PinnedFloats view = grab();\n"
      "  }\n"
      "  void good() { smb::PinnedFloats view = grab(); }\n"
      " private:\n"
      "  common::OrderedMutex mu_{\"table\", 100};\n"
      "};\n";
  const std::vector<Finding> findings = lint_repo({{"src/core/table.cc", source}});
  int pin = 0;
  for (const Finding& finding : findings) {
    if (finding.rule == "pin-lifetime") {
      ++pin;
      EXPECT_EQ(finding.line, 6);  // pin-then-lock inversion, locked site only
    }
  }
  EXPECT_EQ(pin, 1);
}

TEST(StaleAllowRule, CoversTheBlockingAndPinRules) {
  const std::string stale =
      "int x = 0;  // lint:" "allow(no-blocking-under-lock) obsolete\n"
      "int y = 0;  // lint:" "allow(pin-lifetime) obsolete\n";
  const std::vector<Finding> findings = lint_repo({{"src/core/a.cc", stale}});
  int stale_count = 0;
  for (const Finding& finding : findings) {
    if (finding.rule == "stale-allow") ++stale_count;
  }
  EXPECT_EQ(stale_count, 2);
}

TEST(CoverageReport, ReportsBlockingAndPinCounters) {
  const std::string source =
      "#pragma once\n"
      "SHMCAFFE_BLOCKS void drain();\n"
      "SHMCAFFE_NONBLOCKING int peek();\n"
      "struct Cache {\n"
      "  smb::PinnedFloats view SHMCAFFE_PIN_ESCAPE;\n"
      "};\n"
      "SHMCAFFE_PIN_ESCAPE smb::PinnedFloats grab();\n";
  const std::string json = coverage_json({{"src/core/pins.h", source}});
  EXPECT_NE(json.find("\"blocking_roots\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"nonblocking_contracts\": 1"), std::string::npos) << json;
  // One field escape + one function escape.
  EXPECT_NE(json.find("\"pin_escapes\": 2"), std::string::npos) << json;
}

TEST(JsonOutput, EscapesControlCharactersAndNonAsciiBytes) {
  std::vector<Finding> findings;
  findings.push_back(Finding{"src/core/a.cc", 1, "rng-source",
                             std::string("ctrl\x01 tab\t byte\xc3\xa9")});
  const std::string json = to_json(findings);
  EXPECT_NE(json.find("\\u0001"), std::string::npos) << json;
  EXPECT_NE(json.find("\\t"), std::string::npos) << json;
  // Non-ASCII bytes are escaped byte-wise: apart from the structural
  // newlines of the pretty-printer, the output is pure ASCII.
  EXPECT_NE(json.find("\\u00c3"), std::string::npos) << json;
  EXPECT_NE(json.find("\\u00a9"), std::string::npos) << json;
  for (const char c : json) {
    if (c == '\n') continue;
    EXPECT_GE(c, 0x20) << "raw control/8-bit byte in JSON output";
  }
}

TEST(RuleIds, EveryRuleIsListed) {
  const std::vector<std::string>& ids = rule_ids();
  for (const char* expected : {"rng-source", "wall-clock", "sim-wall-clock", "raii-lock",
                               "sim-ptr-container", "pragma-once", "include-hygiene",
                               "no-naked-epoch", "no-raw-thread", "guarded-by",
                               "include-layering", "lock-region", "determinism",
                               "stale-allow"}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), expected), ids.end()) << expected;
  }
}

}  // namespace
}  // namespace shmcaffe::lint
