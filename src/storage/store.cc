#include "storage/store.h"

#include <cstdio>

#include "eval/relation.h"
#include "storage/fault.h"
#include "storage/manifest.h"
#include "storage/segment.h"

namespace aqv {

namespace {

constexpr char kManifestFile[] = "MANIFEST";

std::string Gen6(uint64_t generation) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%06llu",
                static_cast<unsigned long long>(generation));
  return buf;
}

std::string JournalName(uint64_t generation) {
  return "journal." + Gen6(generation);
}

}  // namespace

Result<std::unique_ptr<SessionStore>> SessionStore::Attach(
    const std::string& dir, const StoreOptions& options) {
  if (dir.empty()) {
    return Status::InvalidArgument("empty database directory path");
  }
  AQV_RETURN_NOT_OK(EnsureDir(dir));
  AQV_ASSIGN_OR_RETURN(DirLock lock, DirLock::Acquire(dir));
  auto store = std::unique_ptr<SessionStore>(
      new SessionStore(dir, options, std::move(lock)));
  if (store->has_manifest()) {
    // Peek at the committed generation so the next snapshot stamps past
    // it. A corrupt manifest surfaces here rather than at first use.
    AQV_ASSIGN_OR_RETURN(std::string text,
                         ReadFile(store->Path(kManifestFile)));
    AQV_ASSIGN_OR_RETURN(Manifest manifest, ParseManifest(text));
    store->generation_ = manifest.generation;
    store->journal_file_ = manifest.journal_file;
  } else {
    store->journal_file_ = JournalName(0);
  }
  return store;
}

bool SessionStore::has_manifest() const {
  return FileExists(Path(kManifestFile));
}

Status SessionStore::Snapshot(const SnapshotInput& input) {
  if (input.catalog == nullptr || input.base == nullptr) {
    return Status::Internal("snapshot input missing catalog or database");
  }
  const Catalog& catalog = *input.catalog;
  uint64_t generation = generation_ + 1;

  Manifest manifest;
  manifest.generation = generation;
  manifest.journal_file = JournalName(generation);
  for (ConstId c = 0; c < catalog.num_constants(); ++c) {
    manifest.constants.push_back(catalog.constant(c).name);
  }
  for (PredId p = 0; p < catalog.num_predicates(); ++p) {
    const PredInfo& info = catalog.pred(p);
    manifest.preds.push_back(Manifest::Pred{
        info.name, info.arity, info.kind == PredKind::kIntensional});
  }
  manifest.view_rules = input.view_rules;
  manifest.query_rules = input.query_rules;

  // Segments first: a crash between here and the manifest swap leaves
  // orphan files of an uncommitted generation, never a committed manifest
  // pointing at missing data.
  for (PredId p : input.base->Predicates()) {
    const Relation* rel = input.base->Find(p);
    if (rel == nullptr || rel->empty()) continue;
    ManifestRelation entry;
    entry.pred = catalog.pred(p).name;
    entry.rows = rel->size();
    if (rel->arity() == 0) {
      entry.file = "-";  // nullary presence needs no segment
      manifest.relations.push_back(std::move(entry));
      continue;
    }
    std::string bytes = EncodeSegment(*rel);
    AQV_ASSIGN_OR_RETURN(
        SegmentInfo info,
        ParseSegmentHeader(reinterpret_cast<const uint8_t*>(bytes.data()),
                           bytes.size(), /*verify_checksum=*/false));
    entry.crc = info.data_crc;
    entry.file = entry.pred + "." + Gen6(generation) + ".seg";
    AQV_RETURN_NOT_OK(
        WriteFileDurable(Path(entry.file), bytes, options_.sync));
    manifest.relations.push_back(std::move(entry));
  }

  // A fresh empty journal, durable before the manifest that names it.
  AQV_RETURN_NOT_OK(
      WriteFileDurable(Path(manifest.journal_file), "", options_.sync));

  // The commit point: everything before this is invisible to recovery,
  // everything after is fully published.
  AQV_RETURN_NOT_OK(ReplaceFileAtomic(Path(kManifestFile),
                                      EncodeManifest(manifest),
                                      options_.sync));

  generation_ = generation;
  journal_file_ = manifest.journal_file;
  journal_records_ = 0;
  journal_bytes_ = 0;
  AQV_ASSIGN_OR_RETURN(AppendFile journal,
                       AppendFile::Open(Path(journal_file_)));
  journal_ = std::move(journal);

  std::vector<std::string> keep;
  keep.push_back(journal_file_);
  for (const ManifestRelation& rel : manifest.relations) {
    if (rel.file != "-") keep.push_back(rel.file);
  }
  return CollectGarbage(keep);
}

Status SessionStore::CollectGarbage(const std::vector<std::string>& keep) {
  if (FaultPoint("gc")) {
    // The commit already happened; dying here only leaves orphans that
    // the next snapshot collects.
    return Status::Internal("injected crash at gc");
  }
  AQV_ASSIGN_OR_RETURN(std::vector<std::string> names, ListDir(dir_));
  for (const std::string& name : names) {
    bool collectable = name == "MANIFEST.tmp" ||
                       name.rfind("journal.", 0) == 0 ||
                       (name.size() > 4 &&
                        name.compare(name.size() - 4, 4, ".seg") == 0);
    if (!collectable) continue;
    bool kept = false;
    for (const std::string& k : keep) kept = kept || k == name;
    if (!kept) AQV_RETURN_NOT_OK(RemoveFile(Path(name)));
  }
  return Status::OK();
}

Result<RecoveredState> SessionStore::Recover() {
  auto manifest_text = ReadFile(Path(kManifestFile));
  if (!manifest_text.ok()) {
    if (manifest_text.status().code() == StatusCode::kNotFound) {
      return Status::NotFound(
          "no committed database in this directory");
    }
    return manifest_text.status();
  }
  AQV_ASSIGN_OR_RETURN(Manifest manifest, ParseManifest(*manifest_text));

  RecoveredState state;
  state.generation = manifest.generation;
  state.catalog = std::make_unique<Catalog>();
  // Re-intern in recorded order: persisted Values are tagged with ConstId
  // and relations are keyed by PredId, so both id spaces must reproduce
  // exactly.
  for (size_t i = 0; i < manifest.constants.size(); ++i) {
    ConstId id = state.catalog->InternConstant(manifest.constants[i]);
    if (id != static_cast<ConstId>(i)) {
      return Status::ParseError(
          "manifest constant table has a duplicate entry: '" +
          manifest.constants[i] + "'");
    }
  }
  for (size_t i = 0; i < manifest.preds.size(); ++i) {
    const Manifest::Pred& p = manifest.preds[i];
    auto id = state.catalog->GetOrAddPredicate(
        p.name, p.arity,
        p.intensional ? PredKind::kIntensional : PredKind::kExtensional);
    if (!id.ok()) return id.status();
    if (*id != static_cast<PredId>(i)) {
      return Status::ParseError(
          "manifest predicate table has a duplicate entry: '" + p.name + "'");
    }
  }
  state.view_rules = manifest.view_rules;
  state.query_rules = manifest.query_rules;

  state.base = Database(state.catalog.get());
  for (const ManifestRelation& entry : manifest.relations) {
    auto pred = state.catalog->FindPredicate(entry.pred);
    if (!pred.ok()) {
      return Status::ParseError("manifest rel references unknown predicate '" +
                                entry.pred + "'");
    }
    if (entry.file == "-") {
      if (state.catalog->pred(*pred).arity != 0 || entry.rows != 1) {
        return Status::ParseError("bad nullary rel entry for '" + entry.pred +
                                  "'");
      }
      state.base.Add(*pred, {});
      continue;
    }
    AQV_ASSIGN_OR_RETURN(
        Relation rel,
        LoadSegment(Path(entry.file), *pred, entry.crc,
                    options_.verify_checksums));
    if (rel.arity() != state.catalog->pred(*pred).arity) {
      return Status::ParseError("segment arity disagrees with catalog for '" +
                                entry.pred + "'");
    }
    if (rel.size() != entry.rows) {
      return Status::ParseError("segment row count disagrees with manifest "
                                "for '" +
                                entry.pred + "'");
    }
    state.base.Install(std::move(rel));
  }

  // Journal tail: replay intact records, truncate a torn one (the only
  // damage a crash mid-append can do), and keep appending after it.
  std::string journal_text;
  auto journal_read = ReadFile(Path(manifest.journal_file));
  if (journal_read.ok()) {
    journal_text = std::move(*journal_read);
  } else if (journal_read.status().code() != StatusCode::kNotFound) {
    return journal_read.status();
  }
  JournalReplay replay = ParseJournal(journal_text);
  if (replay.valid_bytes < journal_text.size()) {
    AQV_RETURN_NOT_OK(
        TruncateFile(Path(manifest.journal_file), replay.valid_bytes));
  }
  state.journal_commands = std::move(replay.commands);

  generation_ = manifest.generation;
  journal_file_ = manifest.journal_file;
  journal_records_ = state.journal_commands.size();
  journal_bytes_ = replay.valid_bytes;
  AQV_ASSIGN_OR_RETURN(AppendFile journal,
                       AppendFile::Open(Path(journal_file_)));
  journal_ = std::move(journal);
  return state;
}

Status SessionStore::Append(const std::string& command) {
  if (!journal_.has_value() || !journal_->open()) {
    return Status::Internal("journal is not open (snapshot or recover first)");
  }
  std::string record = EncodeJournalRecord(command);
  AQV_RETURN_NOT_OK(journal_->Append(record, options_.sync));
  ++journal_records_;
  journal_bytes_ += record.size();
  return Status::OK();
}

}  // namespace aqv
