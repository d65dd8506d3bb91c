/// \file
/// Umbrella header of the `frontend` module: the user-facing front door of
/// the repository. A Session owns one answering-queries-using-views problem
/// — catalog, view set, base facts, and the current query — and dispatches
/// text commands (`view`, `query`, `fact`, `show`, `rewrite`, `answer`,
/// ...) through one command table (Session::Commands) onto the engine
/// registry (rewriting/engine.h), the cost planner (rewriting/planner.h),
/// and the answering pipeline (answering/answering.h). Every command
/// returns a structured CommandResult, so the session is unit-testable
/// without any I/O; the two thin transports — the `aqvsh` REPL/script
/// runner under examples/ and the TCP line-protocol server in
/// frontend/server.h — only move lines in and rendered results out. The surface syntax of rules and
/// facts is documented in docs/QUERY_LANGUAGE.md, the command set and
/// transports in docs/FRONTEND.md.

#ifndef AQV_FRONTEND_SESSION_H_
#define AQV_FRONTEND_SESSION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "answering/answering.h"
#include "cq/catalog.h"
#include "cq/query.h"
#include "eval/database.h"
#include "eval/evaluator.h"
#include "rewriting/engine.h"
#include "rewriting/planner.h"
#include "service/plan_cache.h"
#include "service/service.h"
#include "storage/store.h"
#include "util/status.h"
#include "views/view.h"

namespace aqv {

/// \brief Outcome of one dispatched command: a Status (parse errors, engine
/// and pipeline failures propagate here — the session itself never dies), a
/// human-readable payload, and whether the command asked to end the
/// session.
struct CommandResult {
  CommandResult() = default;
  /// A bare result carrying `status`, so command code can `return` a
  /// Status and use AQV_RETURN_NOT_OK / AQV_ASSIGN_OR_RETURN.
  CommandResult(Status s) : status(std::move(s)) {}  // NOLINT(runtime/explicit)

  Status status;
  /// '\n'-separated payload lines, no trailing newline; empty for commands
  /// with nothing to say (comments, blank lines, quit).
  std::string output;
  /// True for `quit` / `exit`: the transport should close the session.
  bool quit = false;

  bool ok() const { return status.ok(); }
};

/// The transcript rendering of a result: the payload lines, followed by an
/// `error: <status>` line when the command failed. This is exactly what
/// aqvsh prints (payload to stdout, the error line to stderr) and what the
/// docs doctest harness asserts fenced `aqv>` transcripts against.
std::string TranscriptLines(const CommandResult& result);

/// The wire rendering of a result (frontend/server.h protocol): the payload
/// plus '\n' when non-empty, then the terminator line `ok` or
/// `err <Code>: <message>`, each '\n'-terminated.
std::string RenderWireResponse(const CommandResult& result);

/// Construction-time knobs of a Session.
struct SessionOptions {
  /// Engine knobs (oracle, containment budgets, per-strategy limits)
  /// applied to every rewrite/answer/explain the session runs.
  EngineOptions engine;
  /// When set, `show stats` reports this service's lifetime counters.
  /// Commands still execute inline on the calling thread (the TCP server
  /// calls Execute on a pool worker, or on its event loop for a line
  /// AnswersFromMemo accepts). The pointee must outlive the session.
  RewriteService* service = nullptr;
  /// When set, `rewrite` consults and populates this shared rewriting-plan
  /// cache (service/plan_cache.h): an exact repeat of (engine, options,
  /// query text, views text) — across this or any other session sharing
  /// the cache — is answered byte-identically without an engine run. A
  /// repeat on an unchanged problem is answered from the session's own
  /// memo before any key is rendered, and counts one hit. The pointee must
  /// outlive the session.
  RewritePlanCache* plan_cache = nullptr;
  /// `load` reads files from the process's filesystem; transports serving
  /// remote clients (frontend/server.h) disable it.
  bool enable_load = true;
  /// `save <dir>` / `open <dir>` persist the session through the storage
  /// engine (storage/store.h). Unlike `load`, the TCP server keeps this
  /// on — durable server-side sessions are the point — but an embedder
  /// can turn it off.
  bool enable_persist = true;
  /// Storage-engine knobs (fsync discipline, checksum verification)
  /// applied to every store this session attaches.
  StoreOptions storage;
};

/// \brief One interactive answering-queries-using-views session: owned
/// problem state plus a text-command dispatcher. Not thread-safe — one
/// Session per client; concurrency lives in the shared RewriteService.
class Session {
 public:
  /// How the differential mirror (testing/differential.h) treats a command
  /// when it replays a server connection's command stream.
  enum class MirrorMode {
    /// Execute it and byte-compare the response: the bytes depend only on
    /// the command stream.
    kCompare,
    /// Execute it to stay in lock-step, but do not compare: the bytes
    /// depend on process-wide counters or the filesystem.
    kExecute,
    /// Do not execute it: it touches disk, and the state it reloads is
    /// the state the mirror already holds.
    kSkip,
  };

  /// One row of the command table — the only definition of the command
  /// set, read by Execute, the TCP server's auth gate, and the mirror.
  struct Command {
    /// The command word. A two-word key (`show stats`) matches only a
    /// line whose remaining text is exactly its second word.
    std::string_view word;
    /// Runs the command on the text after the word (trimmed). Execute
    /// is its only caller: it counts the command and journals it.
    CommandResult (Session::*handler)(const std::string& rest);
    /// A read-only server account is refused this command: it changes
    /// the session's problem or its store. Execute drops everything the
    /// session derived from the problem (the rewrite memo and the held
    /// view extents) before running it.
    bool refused_read_only;
    /// On success, Execute appends the line to the attached store's
    /// journal. (`reset` journals itself, before it detaches the store.)
    bool journaled;
    MirrorMode mirror;
    /// The `help` line; empty for rows `help` does not list.
    std::string_view help;
  };

  /// The command table, in `help` order.
  static const std::vector<Command>& Commands();

  /// A command line split the way Execute splits it. The views point into
  /// the parsed line, which must outlive them.
  struct CommandLine {
    /// The line without surrounding whitespace (what the journal records).
    std::string_view text;
    /// The first word; empty for a blank or `%`/`#` comment line (a no-op).
    std::string_view word;
    /// Everything after the first word, trimmed.
    std::string_view rest;
    /// The table row the line selects; nullptr for no-ops and unknown
    /// words.
    const Command* command = nullptr;

    /// True for a no-op or a definition (a row the table journals:
    /// `view`, `query`, `fact`) — the lines a problem load is made of.
    /// The TCP server runs a pipelined run of them as one task.
    bool IsDefinitionOrNoop() const {
      return word.empty() || (command != nullptr && command->journaled);
    }
  };
  static CommandLine ParseCommand(std::string_view line);

  explicit Session(SessionOptions options = {});

  /// Parses and executes one command line. Blank lines and `%`/`#` comment
  /// lines are no-ops; every other line counts as a command. Never throws,
  /// never exits: every failure is a CommandResult whose status is non-OK,
  /// and the session survives it.
  CommandResult Execute(std::string_view line);

  /// Executes `text` line by line (one command per line), returning one
  /// result per line processed. Stops after a `quit` command.
  std::vector<CommandResult> ExecuteScript(std::string_view text);

  /// True when `line` is a `rewrite` that the session's memo answers: the
  /// engine it names rewrote the current problem successfully, and no
  /// command that can change the problem has run since. Execute then
  /// answers it with no engine run, rendered key or plan-cache lookup.
  /// The test is one parse and a scan of at most one memo entry per
  /// engine, so the TCP server runs such a line on its event loop.
  bool AnswersFromMemo(std::string_view line) const;

  /// The engine a well-formed `rewrite` line runs (the default engine when
  /// it names none), or nullopt for any other line.
  static std::optional<std::string> RewriteEngineOf(std::string_view line);

  /// The `rewrite` payload for an engine run: a summary line, then one
  /// indented line per rewriting.
  static std::string RenderRewrite(const RewriteResponse& response);

  // Introspection (tests and transports).
  const Catalog& catalog() const { return *catalog_; }
  const ViewSet& views() const { return views_; }
  const Database& base() const { return base_; }
  const std::optional<UnionQuery>& query() const { return query_; }
  const SessionOptions& options() const { return options_; }
  uint64_t commands_executed() const { return commands_; }
  /// The attached database store, or nullptr while detached. Attached by
  /// `save`/`open`; released by `reset` (and by re-targeting save/open).
  const SessionStore* store() const { return store_.get(); }

 private:
  // Command handlers (the table's `handler` column). `help`, `explain`,
  // `reset`, `quit` and the stats rows ignore trailing words.
  CommandResult CmdHelp(const std::string& rest);
  CommandResult CmdView(const std::string& rest);
  CommandResult CmdQuery(const std::string& rest);
  CommandResult CmdFact(const std::string& rest);
  CommandResult CmdLoad(const std::string& rest);
  CommandResult CmdShow(const std::string& rest);
  CommandResult CmdStats(const std::string& rest);
  CommandResult CmdRewrite(const std::string& rest);
  CommandResult CmdAnswer(const std::string& rest);
  CommandResult CmdExplain(const std::string& rest);
  CommandResult CmdReset(const std::string& rest);
  CommandResult CmdSave(const std::string& rest);
  CommandResult CmdOpen(const std::string& rest);
  CommandResult CmdQuit(const std::string& rest);

  /// The shared shape of `view` and `query`: parses `rest` as rules
  /// (`usage` answers an empty program) and hands them to `commit`, which
  /// validates and applies them and returns the payload. When any step
  /// fails, predicate kinds roll back, so a failed command never strands
  /// a predicate as intensional (which would block later `fact`s).
  CommandResult DefineRules(
      const std::string& rest, const char* usage,
      CommandResult (Session::*commit)(std::vector<Query> rules));
  CommandResult AddViews(std::vector<Query> rules);
  CommandResult SetQuery(std::vector<Query> rules);

  /// The shared guard of `save` and `open`: persistence is enabled and
  /// `rest` is one directory word (else `usage`).
  [[nodiscard]] Status CheckPersistTarget(const std::string& rest,
                                          const char* usage) const;

  /// The session problem rendered for SessionStore::Snapshot.
  SnapshotInput RenderSnapshot() const;

  /// "N views, M facts, query set|unset" — the save/open summary. Counts
  /// only, no paths or generations, so transcripts stay deterministic.
  std::string ProblemSummary() const;

  /// "set a query first" / "add at least one view first" preconditions.
  [[nodiscard]] Status Ready(bool needs_views) const;

  /// The memo entry of `engine`, or nullptr.
  const RewritePlanCache::Plan* FindMemo(std::string_view engine) const;

  /// The current problem's view extents, materialized on first use.
  [[nodiscard]] Result<const Database*> Extents();

  /// One `rewrite` payload rendered for the current problem.
  struct MemoEntry {
    std::string engine;
    RewritePlanCache::Plan plan;
  };

  SessionOptions options_;
  std::unique_ptr<Catalog> catalog_;
  ViewSet views_;
  Database base_;
  std::optional<UnionQuery> query_;
  /// Search counters of the session's most recent engine call (`show
  /// stats` surfaces them).
  RewriteStats last_rewrite_;
  // What the session derived from its current problem. Execute drops both
  // before every command the table marks `refused_read_only`: those are
  // the commands that can change the problem, and that one point is their
  // only invalidation.
  /// The successful `rewrite` payloads, at most one per engine.
  std::vector<MemoEntry> rewrite_memo_;
  /// The view extents over base_, with the hash indexes and measured
  /// statistics their relations cache: materialized by the first
  /// view-based `answer` (complete, cost, inverse-rules) or `explain`,
  /// then read by every later one. They point into *catalog_, which
  /// `reset` and `open` replace after the drop.
  std::optional<Database> extents_;
  uint64_t commands_ = 0;
  int load_depth_ = 0;
  /// The attached database store (save/open). Owns the directory lock
  /// and the journal descriptor; releasing it (reset, re-targeting)
  /// closes both. Mmap-backed extents live in base_'s relations and
  /// unmap when those are replaced.
  std::unique_ptr<SessionStore> store_;
  /// True while `open` replays the journal tail: replayed mutations must
  /// not be re-journaled, and a replayed `reset` must not detach the
  /// store being opened.
  bool replaying_journal_ = false;
};

}  // namespace aqv

#endif  // AQV_FRONTEND_SESSION_H_
