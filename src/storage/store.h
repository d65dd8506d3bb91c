/// \file
/// Umbrella header of the `storage` module: the crash-safe persistence
/// engine behind the frontend's `save`/`open` commands. One *database
/// directory* holds one answering-queries-using-views problem:
///
///   LOCK             flock'd while a session is attached (fs.h DirLock)
///   MANIFEST         the committed snapshot descriptor (manifest.h),
///                    swapped atomically — recovery starts here
///   <pred>.<gen>.seg immutable columnar segment files (segment.h), one
///                    per persisted relation, generation-stamped
///   journal.<gen>    append-only mutation log since the snapshot
///
/// Durability model (ursadb's OnDiskDataset/DatabaseSnapshot shape):
/// a snapshot writes new-generation segments and a fresh empty journal,
/// fsyncs each, then commits by atomically replacing MANIFEST and
/// fsyncing the directory; only after the commit are old-generation
/// files garbage-collected. Mutations between snapshots append framed,
/// checksummed records to the journal (fsync'd per record when
/// `StoreOptions::sync`). Recovery is therefore always: parse MANIFEST
/// (old or new, never torn), mount its segments (mmap-backed), truncate
/// any torn journal tail, replay the rest. A crash at *any* write
/// position loses at most unacknowledged work.
///
/// The store knows catalogs, rule *text*, and databases — not ViewSet or
/// Session. The frontend renders rules down and parses them back up, so
/// storage sits below views/frontend in the module graph.

#ifndef AQV_STORAGE_STORE_H_
#define AQV_STORAGE_STORE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cq/catalog.h"
#include "eval/database.h"
#include "storage/fs.h"
#include "util/status.h"

namespace aqv {

/// Storage-engine knobs (threaded through SessionOptions). Persisted
/// extents are served through the read-only mmap backend
/// (eval/mmap_store.h); journal-replayed facts append on the heap (the
/// store upgrades copy-on-write).
struct StoreOptions {
  /// fsync segments, journal records, and manifest swaps. Turning this
  /// off trades crash safety on power loss for speed; the atomic-rename
  /// commit discipline is kept either way.
  bool sync = true;
  /// Re-verify segment data checksums on open. Off by default: a
  /// committed manifest only ever references fully-written segments, and
  /// eagerly reading every byte would defeat lazy mmap paging. The
  /// recovery tests turn it on.
  bool verify_checksums = false;
};

/// What a snapshot persists — rendered down by the session so storage
/// needs no views/frontend types.
struct SnapshotInput {
  const Catalog* catalog = nullptr;
  /// Parseable rule text, one per view rule, ViewSet order.
  std::vector<std::string> view_rules;
  /// Parseable rule text, one per query disjunct; empty = no query.
  std::vector<std::string> query_rules;
  const Database* base = nullptr;
};

/// What recovery yields: a rebuilt catalog (constants and predicates
/// re-interned in manifest order, so persisted tagged Values decode), the
/// mounted base database, the rule text to re-parse, and the journal tail
/// to replay through the session dispatcher.
struct RecoveredState {
  std::unique_ptr<Catalog> catalog;
  std::vector<std::string> view_rules;
  std::vector<std::string> query_rules;
  Database base;
  std::vector<std::string> journal_commands;
  uint64_t generation = 0;
};

/// \brief One session's attachment to a database directory: the exclusive
/// lock, the journal appender, and the snapshot/recover operations. Not
/// thread-safe — owned by one Session, like every other session member.
class SessionStore {
 public:
  /// Locks (creating if needed) `dir` and reads the committed generation.
  /// kResourceExhausted when another session holds the lock; a missing or
  /// unreadable manifest is *not* an error here (a fresh directory has
  /// none) — Recover reports that.
  [[nodiscard]] static Result<std::unique_ptr<SessionStore>> Attach(
      const std::string& dir, const StoreOptions& options);

  ~SessionStore() = default;
  SessionStore(const SessionStore&) = delete;
  SessionStore& operator=(const SessionStore&) = delete;

  /// True when the directory holds a committed manifest.
  bool has_manifest() const;

  /// Loads the committed snapshot plus the intact journal tail
  /// (truncating a torn one), and leaves the journal open for appending.
  /// kNotFound when nothing was ever committed; kParseError only for
  /// corruption no crash can produce (foreign or hand-edited files).
  [[nodiscard]] Result<RecoveredState> Recover();

  /// Commits `input` as the next generation: segments + fresh journal
  /// written and fsync'd, manifest swapped atomically, old generation
  /// garbage-collected. On failure the previous commit is untouched.
  [[nodiscard]] Status Snapshot(const SnapshotInput& input);

  /// Appends one acknowledged mutation command to the journal (fsync'd
  /// when options.sync). Only valid after a successful Snapshot or
  /// Recover.
  [[nodiscard]] Status Append(const std::string& command);

  const std::string& dir() const { return dir_; }
  const StoreOptions& options() const { return options_; }
  uint64_t generation() const { return generation_; }
  uint64_t journal_records() const { return journal_records_; }
  uint64_t journal_bytes() const { return journal_bytes_; }

 private:
  SessionStore(std::string dir, StoreOptions options, DirLock lock)
      : dir_(std::move(dir)), options_(options), lock_(std::move(lock)) {}

  std::string Path(const std::string& file) const { return dir_ + "/" + file; }

  /// Removes files no longer referenced after a commit (old segments and
  /// journals, stray MANIFEST.tmp). Idempotent; orphans from a crash here
  /// are collected by the next snapshot.
  [[nodiscard]] Status CollectGarbage(const std::vector<std::string>& keep);

  std::string dir_;
  StoreOptions options_;
  DirLock lock_;
  std::optional<AppendFile> journal_;
  std::string journal_file_;
  uint64_t generation_ = 0;
  uint64_t journal_records_ = 0;
  uint64_t journal_bytes_ = 0;
};

}  // namespace aqv

#endif  // AQV_STORAGE_STORE_H_
