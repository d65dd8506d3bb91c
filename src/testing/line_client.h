/// \file
/// A blocking client of the frontend's line protocol (frontend/server.h)
/// over loopback TCP: connect, send, and read responses by their
/// `ok` / `err ...` terminator lines. The server tests, the differential
/// harness and the frontend benchmarks share this one copy; like the rest
/// of `testing`, the server library never links it.

#ifndef AQV_TESTING_LINE_CLIENT_H_
#define AQV_TESTING_LINE_CLIENT_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace aqv {

/// Opens a blocking TCP connection to 127.0.0.1:`port`. Returns the
/// socket, or -1 with errno set when the socket or the connect fails.
int ConnectLoopback(int port);

/// Writes all of `data` to `fd`; false (errno set) when a send fails.
bool SendAll(int fd, std::string_view data);

/// Reads one whole response — payload lines through the terminator line —
/// off `fd`. `*carry` holds bytes read but not yet returned: the call
/// consumes it first and leaves any bytes past the terminator in it.
/// kInternal when the peer closes or a receive fails first; the partial
/// response then stays in `*carry`.
[[nodiscard]] Result<std::string> ReadResponse(int fd, std::string* carry);

/// Reads until `count` whole responses arrived or the connection ended,
/// and returns every byte read.
std::string RecvResponses(int fd, size_t count);

/// Reads until the peer closes or a receive fails; returns every byte
/// read.
std::string RecvUntilEof(int fd);

/// On a new connection to 127.0.0.1:`port`: sends `commands` one per line
/// in one write, reads until as many responses arrived (or the peer
/// closed), closes, and returns every byte read.
std::string Roundtrip(int port, const std::vector<std::string>& commands);

}  // namespace aqv

#endif  // AQV_TESTING_LINE_CLIENT_H_
