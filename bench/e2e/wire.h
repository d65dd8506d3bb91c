// The client side of the line protocol (docs/OPERATIONS.md): a blocking
// TCP connection, the server's wire rendering of a session result, and the
// correctness gate that judges responses by their bytes alone.

#ifndef AQV_BENCH_E2E_WIRE_H_
#define AQV_BENCH_E2E_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "frontend/session.h"
#include "util/status.h"

namespace aqv_e2e {

/// A blocking loopback connection to the server. Move-only; closes its
/// socket on destruction.
class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(Connection&& other) noexcept;
  Connection& operator=(Connection&& other) noexcept;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] static aqv::Result<Connection> Open(int port);

  /// Sends `text` in one write and reads `lines` responses. Each response
  /// is the raw bytes of its payload lines and its terminator line (`ok`
  /// or `err ...`), every line '\n'-terminated.
  [[nodiscard]] aqv::Status Exchange(const std::string& text, int lines,
                                     std::vector<std::string>* responses);

 private:
  explicit Connection(int fd) : fd_(fd) {}
  void Close();
  int fd_ = -1;
  std::string carry_;
};

/// True when any of `responses` ends in an `err` terminator.
bool HasError(const std::vector<std::string>& responses);

/// What the server writes for `result` (frontend/server.cc RespondTo).
std::string RenderWire(const aqv::CommandResult& result);

/// An `answer` response: `route R[ (engine E)]: N answer(s) (exact|certain)`
/// and one row line per tuple.
struct AnswerPayload {
  std::string route;
  bool exact = false;
  uint64_t count = 0;
  std::vector<std::string> rows;
};
std::optional<AnswerPayload> ParseAnswer(const std::string& response);

/// Changes one answer row of `response` so that no honest server could
/// have sent it. False when the response has no row.
bool TamperRow(std::string* response);

/// The correctness gate. Judges each unit's responses on their own:
///  - the terminator count is exact and no response is an `err`;
///  - an `(exact)` answer equals the `direct` rows of the same phase, and
///    a `(certain)` one is a subset of them (a phase ends at any command
///    that changes the problem);
///  - `rewrite with lmss` and `with ucq` agree on `equivalent=` within a
///    phase.
class ResponseChecker {
 public:
  void BeginSession() { BeginPhase(); }
  /// Returns false (and records why) when `responses` violate a rule.
  bool Check(const Unit& unit, const std::vector<std::string>& responses);
  /// Records a failure found elsewhere (transport, replay mismatch).
  void Fail(const std::string& why);

  void Merge(const ResponseChecker& other);
  uint64_t violations() const { return violations_; }
  uint64_t answers_checked() const { return answers_checked_; }
  uint64_t verdicts_checked() const { return verdicts_checked_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  void BeginPhase();

  std::optional<std::vector<std::string>> direct_;
  std::optional<bool> lmss_equivalent_;
  std::optional<bool> ucq_equivalent_;
  uint64_t violations_ = 0;
  uint64_t answers_checked_ = 0;
  uint64_t verdicts_checked_ = 0;
  std::vector<std::string> messages_;
};

}  // namespace aqv_e2e

#endif  // AQV_BENCH_E2E_WIRE_H_
