/// \file
/// Umbrella header of the `testing` module: test-support code that the
/// server library (`aqv_frontend`) does not ship. It holds the
/// differential checking harness over the frontend command protocol: the
/// cross-checking half of the soak/fuzz driver (tools/soak.cc) and of the
/// differential tests. A MirrorChecker replays every command a server
/// connection executed onto an in-process *mirror* Session — same command
/// stream, but inline (no service) and with a fresh single-shard
/// containment oracle — and demands byte-identical wire responses, which
/// exercises the service-vs-inline contract end to end and checks the
/// mirror's memoized containment decisions against the server's direct
/// ones. Which commands the mirror executes and which it
/// byte-compares is the `mirror` column of the session's command table
/// (Session::Commands). On top of the byte compare, every successful `answer`
/// response is semantically cross-checked against ground truth computed
/// on the mirror's own state via the direct route: `(exact)` responses
/// must equal the direct relation, `(certain)` responses must be a subset
/// of it (answering/answering.h route semantics). A `(certain)` response
/// must also equal it when neither the query nor any view has a
/// comparison and lmss finds an equivalent rewriting of the mirror's
/// current problem: the extents are exactly views(base), so the certain
/// answers are then exactly q(base). A `rewrite` the mirror
/// answers from its memo is also re-derived by running the engine on the
/// mirror's current problem: the mirror memoizes with the server's code,
/// so a missed memo invalidation would otherwise go stale on both sides
/// alike.
///
/// The file also carries the fuzzing utilities around the checker: a
/// TCP replay loop that drives a live FrontendServer alongside a mirror
/// (problem loads pipelined, everything else lock-step), a response
/// tamperer for harness self-tests (a checker that cannot catch an
/// injected fault is worse than none), and a greedy ddmin-style script
/// shrinker that reduces a diverging script to a small standalone repro.

#ifndef AQV_TESTING_DIFFERENTIAL_H_
#define AQV_TESTING_DIFFERENTIAL_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "containment/oracle.h"
#include "frontend/session.h"
#include "util/status.h"

namespace aqv {

/// One observed disagreement between a server response and the mirror.
struct Divergence {
  /// 0-based index of the command within the replayed stream.
  int command_index = -1;
  /// The command text that diverged.
  std::string command;
  /// What kind of disagreement: "wire-mismatch" (byte compare),
  /// "exact-mismatch" (`(exact)` answer != direct route),
  /// "certain-not-subset" (`(certain)` answer has a row the direct route
  /// lacks), "certain-incomplete" (a `(certain)` answer differs from the
  /// direct route on a comparison-free problem where lmss finds an
  /// equivalent rewriting), "malformed-answer" (an ok `answer` payload
  /// that does not parse as the transcript grammar), or "stale-rewrite"
  /// (a `rewrite` answered from the memo differs from a fresh engine run
  /// on the mirror's current problem).
  std::string kind;
  /// What the mirror / ground truth expected.
  std::string expected;
  /// What the server actually sent.
  std::string actual;

  /// "cmd #N `...`: <kind>" — the one-line log rendering.
  std::string ToString() const;
};

/// A successful `answer` payload, decomposed per the transcript grammar
/// `route <name>[ (engine <e>)]: N answer(s) (exact|certain)` + one
/// sorted `(v1, v2)` row line per tuple.
struct ParsedAnswerPayload {
  std::string route;
  std::string engine;  ///< Empty for engine-independent routes.
  int count = 0;
  bool exact = false;
  std::vector<std::string> rows;
};

/// Parses the payload lines (terminator excluded) of a successful
/// `answer` command. kInvalidArgument when the header or a row line does
/// not match the transcript grammar.
[[nodiscard]] Result<ParsedAnswerPayload> ParseAnswerPayload(const std::string& payload);

/// `text` split at '\n' (a trailing final newline yields no empty line).
std::vector<std::string> SplitScriptLines(const std::string& text);

/// \brief The mirror half of the differential harness: owns an inline
/// Session (fresh single-shard oracle, no service, load disabled) and
/// checks every server response against it. Not thread-safe — one
/// MirrorChecker per replayed connection, mirroring the one-Session-per-
/// client server contract.
class MirrorChecker {
 public:
  /// `options` seeds the mirror Session; service/enable_load/oracle are
  /// overridden (inline, disabled, the checker's own single-shard oracle)
  /// regardless of what they are set to.
  explicit MirrorChecker(SessionOptions options = {});

  /// How Check treats `command`: its command-table row's `mirror`
  /// column. Blank and comment lines run (a no-op) with nothing to
  /// compare; unknown words are compared (both sides must reject them
  /// alike); `auth` is skipped — the server answers it at the boundary,
  /// before any session sees it.
  static Session::MirrorMode ModeOf(std::string_view command);

  /// Executes `command` on the mirror and compares `raw_response` — the
  /// exact bytes the server sent back, payload lines plus the
  /// `ok`/`err ...` terminator line, each '\n'-terminated. Returns the
  /// divergence, or std::nullopt when server and mirror agree.
  std::optional<Divergence> Check(const std::string& command,
                                  const std::string& raw_response);

  /// The mirror session (introspection for tests and repro dumps).
  const Session& session() const { return session_; }
  int commands() const { return index_; }
  uint64_t answers_checked() const { return answers_checked_; }
  uint64_t rewrites_checked() const { return rewrites_checked_; }
  /// Memo-answered rewrites checked against a fresh engine run.
  uint64_t rewrites_rederived() const { return rewrites_rederived_; }
  /// `(certain)` answers checked, and how many of them were held to
  /// equality with the direct route.
  uint64_t certain_checked() const { return certain_checked_; }
  uint64_t certain_held_equal() const { return certain_held_equal_; }

 private:
  /// The mirror's own single-shard oracle. Declaration order vs the
  /// session no longer matters: oracle entries are catalog-independent
  /// (containment/oracle.h), so neither side constrains the other's
  /// lifetime.
  ContainmentOracle oracle_;
  Session session_;
  int index_ = 0;
  uint64_t answers_checked_ = 0;
  uint64_t rewrites_checked_ = 0;
  uint64_t rewrites_rederived_ = 0;
  uint64_t certain_checked_ = 0;
  uint64_t certain_held_equal_ = 0;
};

/// \brief Tampers one answer response in place for harness self-tests:
/// flips the first digit after the `route ` header (the answer count or
/// a row constant), guaranteeing the bytes no longer match any honest
/// rendering. Returns false (input untouched) when `raw_response` does
/// not look like an answer response.
bool FlipOneAnswer(std::string* raw_response);

/// Knobs of ReplayAndCheckOverTcp.
struct TcpReplayOptions {
  /// Seeds the mirror (MirrorChecker constructor semantics).
  SessionOptions mirror;
  /// When >= 0: tamper the Nth (0-based) `answer` response received, as
  /// if the server had answered wrongly — the harness self-test.
  int tamper_at_answer = -1;
  /// When non-empty: tamper the response of the first command whose text
  /// equals this. Used by the shrinker to re-inject a recorded fault.
  std::string tamper_match;
  /// SO_RCVTIMEO on the client socket, seconds.
  int recv_timeout_s = 30;
};

/// Outcome of one replayed connection.
struct TcpReplayResult {
  /// The first divergence, if any (the replay stops at it).
  std::optional<Divergence> divergence;
  int commands_sent = 0;
  uint64_t answers_checked = 0;
  uint64_t rewrites_checked = 0;
  uint64_t rewrites_rederived = 0;
  uint64_t certain_checked = 0;
  uint64_t certain_held_equal = 0;
};

/// \brief Replays `lines` over a real TCP connection to a FrontendServer
/// on 127.0.0.1:`port` and checks every response against the mirror,
/// stopping at the first divergence or after a `quit`. Each run of
/// consecutive definitions and no-ops
/// (Session::CommandLine::IsDefinitionOrNoop) goes out in one write, as
/// a client sends a problem load, so the server's one-task-per-run path
/// is exercised; every other line is lock-step — send it, read its full
/// response (payload + terminator), check it. Responses are read and
/// checked one at a time, in order. Transport failures
/// (connect/send/recv/timeouts) are errors, not divergences.
[[nodiscard]] Result<TcpReplayResult> ReplayAndCheckOverTcp(int port,
                                              const std::vector<std::string>& lines,
                                              const TcpReplayOptions& options);

/// \brief Greedy ddmin-style shrinker: repeatedly deletes chunks of
/// `lines` (halving chunk size down to single lines) while
/// `still_diverges` holds on the candidate, returning a 1-minimal
/// diverging script — deleting any single remaining line loses the
/// divergence. `still_diverges(lines)` must be true on entry; the
/// predicate is invoked O(n log n) to O(n^2) times, so keep it cheap
/// (one connection replay).
std::vector<std::string> ShrinkScript(
    std::vector<std::string> lines,
    const std::function<bool(const std::vector<std::string>&)>& still_diverges);

}  // namespace aqv

#endif  // AQV_TESTING_DIFFERENTIAL_H_
