// Unit tests of the storage engine's layers below the session: filesystem
// primitives and the directory lock (storage/fs.h), the segment file
// format and its two load backends (storage/segment.h, eval/mmap_store.h),
// the manifest/journal text formats (storage/manifest.h), and the
// SessionStore snapshot/recover/append cycle (storage/store.h). The
// crash-injection sweeps live in test_storage_recovery.cc; the
// session-level round trips in test_storage_persistence.cc.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cq/catalog.h"
#include "eval/database.h"
#include "eval/mmap_store.h"
#include "eval/relation.h"
#include "eval/value.h"
#include "gtest/gtest.h"
#include "storage/fs.h"
#include "storage/manifest.h"
#include "storage/segment.h"
#include "storage/store.h"

namespace aqv {
namespace {

/// A unique scratch directory under the test's cwd, removed on teardown.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "storage_%s_%d", tag.c_str(),
                  static_cast<int>(::getpid()));
    path_ = buf;
    Wipe();
    EXPECT_TRUE(EnsureDir(path_).ok());
  }
  ~ScratchDir() { Wipe(); }

  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const { return path_ + "/" + name; }

 private:
  void Wipe() {
    auto names = ListDir(path_);
    if (names.ok()) {
      for (const std::string& name : *names) {
        Status removed = RemoveFile(path_ + "/" + name);
        (void)removed;
      }
    }
    ::rmdir(path_.c_str());
  }
  std::string path_;
};

TEST(Crc32Test, MatchesKnownVectors) {
  // The IEEE/zlib check value for "123456789".
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  // Seedable incremental use equals one-shot.
  uint32_t first = Crc32("12345", 5);
  EXPECT_EQ(Crc32("6789", 4, first), 0xCBF43926u);
}

TEST(FsTest, DurableWriteReadRoundTrip) {
  ScratchDir dir("fs");
  std::string path = dir.file("blob");
  ASSERT_TRUE(WriteFileDurable(path, "hello\nworld", /*sync=*/true).ok());
  auto read = ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "hello\nworld");
  auto size = FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 11u);
  ASSERT_TRUE(TruncateFile(path, 5).ok());
  EXPECT_EQ(*ReadFile(path), "hello");
}

TEST(FsTest, ReplaceFileAtomicLeavesNoTmp) {
  ScratchDir dir("replace");
  std::string path = dir.file("target");
  ASSERT_TRUE(ReplaceFileAtomic(path, "v1", /*sync=*/true).ok());
  ASSERT_TRUE(ReplaceFileAtomic(path, "v2", /*sync=*/true).ok());
  EXPECT_EQ(*ReadFile(path), "v2");
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST(FsTest, DirLockExcludesASecondAttachEvenInProcess) {
  ScratchDir dir("lock");
  auto first = DirLock::Acquire(dir.path());
  ASSERT_TRUE(first.ok());
  auto second = DirLock::Acquire(dir.path());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  first->Release();
  auto third = DirLock::Acquire(dir.path());
  EXPECT_TRUE(third.ok());
}

TEST(FsTest, AppendFileAccumulates) {
  ScratchDir dir("append");
  std::string path = dir.file("log");
  {
    auto log = AppendFile::Open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log->Append("a\n", /*sync=*/true).ok());
    ASSERT_TRUE(log->Append("b\n", /*sync=*/true).ok());
  }
  // Re-opening appends after the existing content.
  auto log = AppendFile::Open(path);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE(log->Append("c\n", /*sync=*/false).ok());
  EXPECT_EQ(*ReadFile(path), "a\nb\nc\n");
}

/// A small two-column relation with distinctive values.
Relation TestRelation(PredId pred, size_t rows) {
  Relation rel(pred, 2);
  for (size_t i = 0; i < rows; ++i) {
    rel.Add({static_cast<Value>(i), static_cast<Value>(i * 10 + 1)});
  }
  rel.SortDedup();
  return rel;
}

TEST(SegmentTest, EncodeLoadRoundTripBothBackends) {
  ScratchDir dir("segment");
  Relation rel = TestRelation(PredId{0}, 37);
  std::string bytes = EncodeSegment(rel);
  EXPECT_EQ(bytes.size(), kSegmentHeaderSize + 37 * 2 * sizeof(Value));
  std::string path = dir.file("r.seg");
  ASSERT_TRUE(WriteFileDurable(path, bytes, /*sync=*/false).ok());

  auto info = ParseSegmentHeader(
      reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size(),
      /*verify_checksum=*/true);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->arity, 2);
  EXPECT_EQ(info->rows, 37u);
  EXPECT_TRUE(info->sorted);

  // Written from the in-memory columnar backend, read back through mmap.
  EXPECT_STREQ(rel.StorageBackend(), "columnar");
  auto loaded = LoadSegment(path, PredId{0}, info->data_crc,
                            /*verify_checksum=*/true);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_STREQ(loaded->StorageBackend(), "mmap");
  EXPECT_TRUE(loaded->sorted());
  ASSERT_EQ(loaded->size(), rel.size());
  for (size_t i = 0; i < rel.size(); ++i) {
    EXPECT_EQ(loaded->at(i, 0), rel.at(i, 0));
    EXPECT_EQ(loaded->at(i, 1), rel.at(i, 1));
  }
}

TEST(SegmentTest, RejectsTornAndForeignFiles) {
  ScratchDir dir("torn");
  Relation rel = TestRelation(PredId{0}, 8);
  std::string bytes = EncodeSegment(rel);
  auto header = [&](const std::string& data, bool verify) {
    return ParseSegmentHeader(reinterpret_cast<const uint8_t*>(data.data()),
                              data.size(), verify);
  };
  // Truncated mid-data: geometry check fails even without checksums.
  EXPECT_EQ(header(bytes.substr(0, bytes.size() - 3), false).status().code(),
            StatusCode::kParseError);
  // Shorter than a header.
  EXPECT_EQ(header(bytes.substr(0, 10), false).status().code(),
            StatusCode::kParseError);
  // Wrong magic.
  std::string foreign = bytes;
  foreign[0] = 'X';
  EXPECT_EQ(header(foreign, false).status().code(), StatusCode::kParseError);
  // Flipped data byte: only the checksum pass notices.
  std::string corrupt = bytes;
  corrupt[kSegmentHeaderSize + 4] ^= 0x01;
  EXPECT_TRUE(header(corrupt, false).ok());
  EXPECT_EQ(header(corrupt, true).status().code(), StatusCode::kParseError);
  // A wrong-file swap: the manifest CRC cross-check fails the load.
  std::string path = dir.file("r.seg");
  ASSERT_TRUE(WriteFileDurable(path, bytes, /*sync=*/false).ok());
  auto swapped = LoadSegment(path, PredId{0}, /*expected_crc=*/0xDEADBEEF,
                             /*verify_checksum=*/false);
  EXPECT_EQ(swapped.status().code(), StatusCode::kParseError);
}

TEST(MmapStoreTest, CopyOnWriteUpgradeAndSharedClones) {
  ScratchDir dir("mmap");
  Relation rel = TestRelation(PredId{0}, 16);
  std::string path = dir.file("r.seg");
  ASSERT_TRUE(WriteFileDurable(path, EncodeSegment(rel), false).ok());
  auto map = MemMap::Open(path);
  ASSERT_TRUE(map.ok());

  auto store = MakeMmapStore(*map, kSegmentHeaderSize, 2, 16);
  EXPECT_STREQ(store->Backend(), "mmap");
  // A pre-mutation clone shares the mapping (still the mmap backend).
  auto clone = store->Clone();
  EXPECT_STREQ(clone->Backend(), "mmap");
  // Mutating the original upgrades it to heap storage without touching
  // the clone's view of the data.
  Value row[2] = {100, 200};
  store->Append(row);
  EXPECT_EQ(store->rows(), 17u);
  EXPECT_EQ(store->Column(0)[16], 100);
  EXPECT_EQ(clone->rows(), 16u);
  EXPECT_EQ(clone->Column(0)[3], rel.at(3, 0));
  // Missing file is a clean NotFound.
  EXPECT_EQ(MemMap::Open(dir.file("absent")).status().code(),
            StatusCode::kNotFound);
}

TEST(ManifestTest, EncodeParseRoundTrip) {
  Manifest m;
  m.generation = 7;
  m.journal_file = "journal.000007";
  m.constants = {"1", "alice", "-3"};
  m.preds = {{"v", 2, true}, {"e", 2, false}, {"q", 1, true}};
  m.view_rules = {"v(X, Y) :- e(X, Y)."};
  m.query_rules = {"q(X) :- e(X, Y)."};
  m.relations = {{"e", 42, 0xCAFEBABE, "e.000007.seg"}};
  std::string text = EncodeManifest(m);
  auto parsed = ParseManifest(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->generation, 7u);
  EXPECT_EQ(parsed->journal_file, "journal.000007");
  EXPECT_EQ(parsed->constants, m.constants);
  ASSERT_EQ(parsed->preds.size(), 3u);
  EXPECT_EQ(parsed->preds[1].name, "e");
  EXPECT_FALSE(parsed->preds[1].intensional);
  EXPECT_TRUE(parsed->preds[0].intensional);
  EXPECT_EQ(parsed->view_rules, m.view_rules);
  EXPECT_EQ(parsed->query_rules, m.query_rules);
  ASSERT_EQ(parsed->relations.size(), 1u);
  EXPECT_EQ(parsed->relations[0].rows, 42u);
  EXPECT_EQ(parsed->relations[0].crc, 0xCAFEBABEu);
}

TEST(ManifestTest, FailsClosedOnTampering) {
  Manifest m;
  m.generation = 1;
  m.journal_file = "journal.000001";
  std::string text = EncodeManifest(m);
  ASSERT_TRUE(ParseManifest(text).ok());
  // Any flipped byte breaks the trailing end-CRC.
  for (size_t i : {size_t{0}, text.size() / 2}) {
    std::string bad = text;
    bad[i] ^= 0x20;
    EXPECT_EQ(ParseManifest(bad).status().code(), StatusCode::kParseError)
        << "flip at " << i;
  }
  // Truncation loses the end line.
  EXPECT_EQ(ParseManifest(text.substr(0, text.size() - 2)).status().code(),
            StatusCode::kParseError);
  // Trailing junk after `end` is rejected.
  EXPECT_EQ(ParseManifest(text + "x").status().code(),
            StatusCode::kParseError);
}

TEST(JournalTest, FramingAndTornTailRecovery) {
  std::string text = EncodeJournalRecord("fact e(1, 2).") +
                     EncodeJournalRecord("view v(X) :- e(X, X).");
  JournalReplay replay = ParseJournal(text);
  ASSERT_EQ(replay.commands.size(), 2u);
  EXPECT_EQ(replay.commands[0], "fact e(1, 2).");
  EXPECT_EQ(replay.commands[1], "view v(X) :- e(X, X).");
  EXPECT_EQ(replay.valid_bytes, text.size());

  // A torn third record: replay keeps the intact prefix only.
  std::string torn = text + EncodeJournalRecord("fact e(3, 4).").substr(0, 9);
  replay = ParseJournal(torn);
  EXPECT_EQ(replay.commands.size(), 2u);
  EXPECT_EQ(replay.valid_bytes, text.size());

  // A corrupt record body: everything after it is ignored too.
  std::string corrupt = text;
  corrupt[corrupt.size() - 4] ^= 0x01;
  replay = ParseJournal(corrupt + EncodeJournalRecord("fact e(5, 6)."));
  EXPECT_EQ(replay.commands.size(), 1u);
}

/// A minimal SnapshotInput over a scratch catalog: one view, one query,
/// one binary extensional relation with `rows` facts.
struct TinyProblem {
  std::unique_ptr<Catalog> catalog = std::make_unique<Catalog>();
  Database base;
  std::vector<std::string> views = {"v(X, Y) :- e(X, Y)."};
  std::vector<std::string> query = {"q(X) :- e(X, Y)."};
  PredId e;

  explicit TinyProblem(size_t rows) : base(catalog.get()) {
    EXPECT_TRUE(catalog->GetOrAddPredicate("v", 2, PredKind::kIntensional).ok());
    e = *catalog->GetOrAddPredicate("e", 2, PredKind::kExtensional);
    EXPECT_TRUE(catalog->GetOrAddPredicate("q", 1, PredKind::kIntensional).ok());
    Relation rel = TestRelation(e, rows);
    base.Install(std::move(rel));
  }

  SnapshotInput Input() const {
    SnapshotInput input;
    input.catalog = catalog.get();
    input.view_rules = views;
    input.query_rules = query;
    input.base = &base;
    return input;
  }
};

TEST(SessionStoreTest, SnapshotRecoverAppendCycle) {
  ScratchDir dir("store");
  StoreOptions options;
  options.sync = false;  // keep the unit test fast; fsync paths are
                         // exercised by the recovery sweeps
  TinyProblem problem(21);
  {
    auto store = SessionStore::Attach(dir.path(), options);
    ASSERT_TRUE(store.ok());
    EXPECT_FALSE((*store)->has_manifest());
    // Recover before any commit: a clean NotFound, not corruption.
    EXPECT_EQ((*store)->Recover().status().code(), StatusCode::kNotFound);
    ASSERT_TRUE((*store)->Snapshot(problem.Input()).ok());
    EXPECT_EQ((*store)->generation(), 1u);
    ASSERT_TRUE((*store)->Append("fact e(90, 91).").ok());
    ASSERT_TRUE((*store)->Append("fact e(92, 93).").ok());
    EXPECT_EQ((*store)->journal_records(), 2u);
  }
  // Reattach (the destructor released the lock) and recover.
  auto store = SessionStore::Attach(dir.path(), options);
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->has_manifest());
  auto state = (*store)->Recover();
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(state->generation, 1u);
  EXPECT_EQ(state->view_rules, problem.views);
  EXPECT_EQ(state->query_rules, problem.query);
  ASSERT_EQ(state->journal_commands.size(), 2u);
  EXPECT_EQ(state->journal_commands[0], "fact e(90, 91).");
  const Relation* rel = state->base.Find(problem.e);
  ASSERT_NE(rel, nullptr);
  EXPECT_EQ(rel->size(), 21u);
  EXPECT_STREQ(rel->StorageBackend(), "mmap");
  // The journal stays open: appends after recovery land in the same log.
  ASSERT_TRUE((*store)->Append("fact e(94, 95).").ok());
  EXPECT_EQ((*store)->journal_records(), 3u);
}

TEST(SessionStoreTest, SnapshotGarbageCollectsOldGenerations) {
  ScratchDir dir("gc");
  StoreOptions options;
  options.sync = false;
  TinyProblem problem(5);
  auto store = SessionStore::Attach(dir.path(), options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Snapshot(problem.Input()).ok());
  ASSERT_TRUE((*store)->Snapshot(problem.Input()).ok());
  ASSERT_TRUE((*store)->Snapshot(problem.Input()).ok());
  EXPECT_EQ((*store)->generation(), 3u);
  auto names = ListDir(dir.path());
  ASSERT_TRUE(names.ok());
  // Exactly one generation lives on disk: LOCK, MANIFEST, one segment,
  // one journal.
  std::vector<std::string> expect = {"LOCK", "MANIFEST", "e.000003.seg",
                                     "journal.000003"};
  EXPECT_EQ(*names, expect);
}

TEST(SessionStoreTest, AttachConflictIsResourceExhausted) {
  ScratchDir dir("conflict");
  auto first = SessionStore::Attach(dir.path(), StoreOptions{});
  ASSERT_TRUE(first.ok());
  auto second = SessionStore::Attach(dir.path(), StoreOptions{});
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
}

TEST(SessionStoreTest, RecoveryPreservesSymbolicConstantDecoding) {
  // Symbolic constants persist as raw tagged Values; recovery re-interns
  // in manifest order, so the decoded text must match exactly.
  ScratchDir dir("symbolic");
  StoreOptions options;
  options.sync = false;
  auto catalog = std::make_unique<Catalog>();
  ASSERT_TRUE(catalog->GetOrAddPredicate("v", 1, PredKind::kIntensional).ok());
  PredId e = *catalog->GetOrAddPredicate("e", 2, PredKind::kExtensional);
  Value alice = SymbolicValue(catalog->InternConstant("alice"));
  Value bob = SymbolicValue(catalog->InternConstant("bob"));
  Database base(catalog.get());
  Relation rel(e, 2);
  rel.Add({alice, bob});
  rel.Add({bob, alice});
  rel.SortDedup();
  base.Install(std::move(rel));
  SnapshotInput input;
  input.catalog = catalog.get();
  input.view_rules = {"v(X) :- e(X, Y)."};
  input.base = &base;
  {
    auto store = SessionStore::Attach(dir.path(), options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Snapshot(input).ok());
  }
  auto store = SessionStore::Attach(dir.path(), options);
  ASSERT_TRUE(store.ok());
  auto state = (*store)->Recover();
  ASSERT_TRUE(state.ok());
  const Relation* loaded = state->base.Find(e);
  ASSERT_NE(loaded, nullptr);
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ(ValueToString(*state->catalog, loaded->at(0, 0)), "alice");
  EXPECT_EQ(ValueToString(*state->catalog, loaded->at(0, 1)), "bob");
}

}  // namespace
}  // namespace aqv
