// Session-level persistence tests: save -> open -> answer must be
// byte-identical to a session that never touched disk, across all four
// answer routes and both ColumnStore backends (in-memory columnar and
// read-only mmap); the persisted soak script must replay cleanly over a
// live TCP server against the in-memory differential mirror; and the
// resource contract of `reset` — detaching a store releases every
// descriptor (journal fd, directory lock), so open/reset cycles hold no
// fds. Concurrent sessions over distinct stores run under TSan in CI.

#include <dirent.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "frontend/replay.h"
#include "frontend/server.h"
#include "frontend/session.h"
#include "gtest/gtest.h"
#include "storage/fault.h"
#include "storage/fs.h"
#include "testing/differential.h"
#include "workload/generator.h"

namespace aqv {
namespace {

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "persist_%s_%d", tag.c_str(),
                  static_cast<int>(::getpid()));
    path_ = buf;
    Wipe();
  }
  ~ScratchDir() { Wipe(); }

  const std::string& path() const { return path_; }

  void Wipe() {
    auto names = ListDir(path_);
    if (names.ok()) {
      for (const std::string& name : *names) {
        // Best-effort scratch cleanup; a leftover file fails the next run.
        AQV_DISCARD_STATUS(RemoveFile(path_ + "/" + name));
      }
    }
    ::rmdir(path_.c_str());
  }

 private:
  std::string path_;
};

/// A problem every route can answer: views mirror the base predicates, so
/// a complete (equivalent) rewriting exists.
const char* const kProblem[] = {
    "view v_edge(X, Y) :- e(X, Y).",
    "view v_good(X) :- g(X).",
    "view v_pair(X, Z) :- e(X, Y), e(Y, Z).",
    "query q(X, Z) :- e(X, Y), e(Y, Z), g(Z).",
    "fact e(1, 2).",
    "fact e(2, 3).",
    "fact e(3, 4).",
    "fact e(2, 5).",
    "fact g(3).",
    "fact g(4).",
    "fact g(5).",
};

const char* const kRoutes[] = {"direct", "complete", "inverse-rules", "cost"};

void LoadProblem(Session& session) {
  for (const char* line : kProblem) {
    CommandResult r = session.Execute(line);
    ASSERT_TRUE(r.ok()) << line << ": " << r.status.ToString();
  }
}

/// TranscriptLines of `answer route <r>` for every route, '\n'-joined.
std::string AnswerAllRoutes(Session& session) {
  std::string out;
  for (const char* route : kRoutes) {
    out += TranscriptLines(session.Execute(std::string("answer route ") +
                                           route)) +
           "\n";
  }
  return out;
}

TEST(StoragePersistenceTest, SaveOpenAnswersByteIdenticalBothBackends) {
  // Ground truth: a session that never touches disk, its extents in the
  // in-memory columnar backend; the reopened session's are mmap-backed.
  Session memory;
  LoadProblem(memory);
  std::string expected = AnswerAllRoutes(memory);
  ASSERT_NE(expected.find("(exact)"), std::string::npos);

  ScratchDir dir("mmap");
  {
    Session writer;
    LoadProblem(writer);
    CommandResult saved = writer.Execute("save " + dir.path());
    ASSERT_TRUE(saved.ok()) << saved.status.ToString();
    EXPECT_EQ(saved.output, "saved: 3 views, 7 facts, query set");
  }
  Session reader;
  CommandResult opened = reader.Execute("open " + dir.path());
  ASSERT_TRUE(opened.ok()) << opened.status.ToString();
  EXPECT_EQ(opened.output,
            "opened: 3 views, 7 facts, query set (journal: 0 commands)");
  EXPECT_EQ(AnswerAllRoutes(reader), expected);
}

// Error-discipline regression: a mutation whose journal append fails must
// surface that failure to the user — the fact applied in memory but is NOT
// durable, and reporting "ok" would quietly promise durability the disk
// never delivered. The [[nodiscard]] audit hardened exactly this path
// (Session::Journaled turns an Append error into the command's status).
TEST(StoragePersistenceTest, JournalAppendFailureSurfacesToUser) {
  ScratchDir dir("journalfail");
  Session writer;
  LoadProblem(writer);
  ASSERT_TRUE(writer.Execute("save " + dir.path()).ok());

  // Arm the injector: the next durable fault point is the journal fsync
  // of the upcoming `fact` append.
  FaultArm(0, -1);
  CommandResult mutated = writer.Execute("fact e(9, 9).");
  FaultProbe probe = FaultDisarm();
  ASSERT_GT(probe.points, 0u) << "append path traversed no fault point";
  EXPECT_FALSE(mutated.ok())
      << "journal append failed but the command reported success";
  EXPECT_EQ(mutated.status.code(), StatusCode::kInternal);

  // The session itself stays usable; the mutation is visible in memory
  // (kProblem loads 4 e-tuples; the failed-to-journal fact is the 5th).
  CommandResult shown = writer.Execute("show facts");
  EXPECT_TRUE(shown.ok());
  EXPECT_NE(shown.output.find("e: 5 tuples"), std::string::npos)
      << shown.output;
}

TEST(StoragePersistenceTest, JournaledMutationsSurviveReopen) {
  ScratchDir dir("journal");
  std::string expected;
  {
    Session writer;
    LoadProblem(writer);
    ASSERT_TRUE(writer.Execute("save " + dir.path()).ok());
    // Mutations after the snapshot ride the journal, no re-save.
    ASSERT_TRUE(writer.Execute("fact e(5, 6).").ok());
    ASSERT_TRUE(writer.Execute("fact g(6).").ok());
    ASSERT_TRUE(writer.Execute("view v_self(X) :- e(X, X).").ok());
    expected = AnswerAllRoutes(writer);
  }
  Session reader;
  CommandResult opened = reader.Execute("open " + dir.path());
  ASSERT_TRUE(opened.ok()) << opened.status.ToString();
  EXPECT_EQ(opened.output,
            "opened: 4 views, 9 facts, query set (journal: 3 commands)");
  EXPECT_EQ(AnswerAllRoutes(reader), expected);
}

TEST(StoragePersistenceTest, PersistedSoakScriptReplaysAgainstMirror) {
  // The end-to-end wiring: a generated scenario's save/open churn script
  // replayed over a real TCP server in lock-step with the in-memory
  // mirror. The mirror skips save/open, so every answer byte-compare
  // after an `open` is a persistence round trip.
  ScratchDir dir("soak");
  GeneratedScenarioSpec spec;
  spec.seed = 7;
  spec.num_predicates = 6;
  spec.num_views = 10;
  spec.query_atoms = 2;
  spec.guarantee_equivalent = true;
  spec.facts_per_predicate = 6;
  spec.domain_size = 12;
  auto scenario = GenerateScenario(spec);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();

  SoakScriptOptions sopts;
  sopts.seed = 11;
  sopts.churn_cycles = 2;
  sopts.persist_dir = dir.path();
  auto script = SoakScriptFromScenario(*scenario, sopts);
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  EXPECT_GT(script->saves, 0);
  EXPECT_GT(script->opens, 0);

  FrontendServer server;
  ASSERT_TRUE(server.Start().ok());
  auto result =
      ReplayAndCheckOverTcp(server.port(), SplitScriptLines(script->text), {});
  server.Stop();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->divergence.has_value())
      << result->divergence->ToString();
  EXPECT_GT(result->answers_checked, 0u);
}

/// Open descriptors of this process (via /proc/self/fd, Linux).
int CountOpenFds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int n = 0;
  while (::readdir(dir) != nullptr) ++n;
  ::closedir(dir);
  return n;
}

TEST(StoragePersistenceTest, OpenResetCyclesLeakNoFds) {
  ScratchDir dir("fds");
  {
    Session writer;
    LoadProblem(writer);
    ASSERT_TRUE(writer.Execute("save " + dir.path()).ok());
  }
  Session session;
  int baseline = CountOpenFds();
  if (baseline < 0) GTEST_SKIP() << "/proc/self/fd not available";
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(session.Execute("open " + dir.path()).ok()) << "cycle " << i;
    ASSERT_NE(session.store(), nullptr);
    ASSERT_TRUE(session.Execute("reset").ok()) << "cycle " << i;
    ASSERT_EQ(session.store(), nullptr);
    // Detached again: the journal fd, the lock fd, and the mmaps are gone.
    EXPECT_EQ(CountOpenFds(), baseline) << "cycle " << i;
  }
  // reset journaled each cycle; the journal is 16 resets long now, and a
  // final open replays them into an empty session.
  CommandResult opened = session.Execute("open " + dir.path());
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.output,
            "opened: 0 views, 0 facts, query unset (journal: 16 commands)");
}

TEST(StoragePersistenceTest, ConcurrentSessionsOverDistinctStores) {
  // One store per session is the concurrency contract (the directory
  // lock enforces exclusivity); N threads with N directories must not
  // interfere. This binary runs under TSan in CI.
  const int kThreads = 4;
  std::vector<ScratchDir> dirs;
  dirs.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    dirs.emplace_back("thread" + std::to_string(t));
  }
  std::vector<std::string> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &dirs, &results] {
      const std::string& dir = dirs[static_cast<size_t>(t)].path();
      {
        Session writer;
        for (const char* line : kProblem) {
          if (!writer.Execute(line).ok()) return;
        }
        if (!writer.Execute("save " + dir).ok()) return;
        // One journaled mutation past the snapshot.
        if (!writer.Execute("fact e(7, 8).").ok()) return;
        // While the writer holds the flock, nobody else can attach.
        Session contender;
        if (contender.Execute("open " + dir).ok()) return;
      }  // writer destruction releases the lock
      Session reader;
      if (!reader.Execute("open " + dir).ok()) return;
      results[static_cast<size_t>(t)] = AnswerAllRoutes(reader);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_FALSE(results[static_cast<size_t>(t)].empty()) << "thread " << t;
    EXPECT_EQ(results[static_cast<size_t>(t)], results[0]);
  }
}

TEST(StoragePersistenceTest, LockedDirectoryRejectsSecondSession) {
  ScratchDir dir("locked");
  Session first;
  LoadProblem(first);
  ASSERT_TRUE(first.Execute("save " + dir.path()).ok());
  Session second;
  CommandResult r = second.Execute("open " + dir.path());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
  // The failed open left `second` untouched and detached.
  EXPECT_EQ(second.store(), nullptr);
  // After the first session lets go, the second can attach.
  ASSERT_TRUE(first.Execute("reset").ok());
  EXPECT_TRUE(second.Execute("open " + dir.path()).ok());
}

TEST(StoragePersistenceTest, PersistCanBeDisabled) {
  SessionOptions options;
  options.enable_persist = false;
  Session session(options);
  CommandResult r = session.Execute("save anywhere");
  EXPECT_EQ(r.status.code(), StatusCode::kUnimplemented);
  EXPECT_EQ(session.Execute("open anywhere").status.code(),
            StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace aqv
