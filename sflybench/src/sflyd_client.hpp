#pragma once
// A real sflyd child process and a single-threaded closed-loop client
// driving it over N connections (the frame protocol of util/net.hpp).

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"

namespace sflybench {

/// One sflyd child.  start() spawns it with SFLY_LISTEN_PORT_FILE set and
/// returns once a first connection has completed the HELLO/WELCOME
/// handshake — the moment a first request could be issued.  The
/// destructor stops (SIGTERM, then SIGKILL after a grace period) and
/// reaps the child.
class Sflyd {
 public:
  Sflyd(std::string exe, std::string workdir) : exe_(std::move(exe)), workdir_(std::move(workdir)) {}
  ~Sflyd() { stop(); }
  Sflyd(const Sflyd&) = delete;
  Sflyd& operator=(const Sflyd&) = delete;

  /// Spawn with `args` and wait (up to 120 s) until it serves.
  /// Returns seconds from spawn to the first completed handshake, or a
  /// negative value on failure (the child is reaped either way).
  double start(const std::vector<std::string>& args);
  /// Open one handshaken connection; -1 on failure.
  [[nodiscard]] int connect() const;
  /// Peak RSS of the child so far (read before stop()).
  [[nodiscard]] double peak_rss_mib() const;
  /// SIGTERM + reap (SIGKILL if it does not exit within a few seconds).
  /// Returns true when the child exited cleanly with status 0.
  bool stop();

 private:
  std::string exe_;
  std::string workdir_;
  int pid_ = -1;
  std::uint16_t port_ = 0;
};

/// One request of a closed-loop stream: its payload (with "id") and a
/// kind tag the caller uses to split latency samples.
struct Request {
  std::string body;
  int kind = 0;
};

struct LoopStats {
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;       // error frames, bad bodies, lost connections
  double wall_s = 0.0;
  std::vector<std::vector<double>> latency_us;  // indexed by Request::kind
  std::vector<double> slice_rates;  // answers/s in each whole second of the window
};

/// Closed loop: `conns` connections, one request outstanding on each,
/// the next sent as soon as the previous answer arrives, for `seconds`.
/// `make(i)` produces request i; `check(i, req, resp, rtt_us)` validates
/// each answer and returns false to count it as failed.  A connection
/// that cannot be opened counts as one failed request.
/// Requests still unanswered 30 s after the window ends count as failed.
LoopStats closed_loop(const Sflyd& server, int conns, double seconds,
                      const std::function<Request(std::uint64_t)>& make,
                      const std::function<bool(std::uint64_t, const Request&,
                                               const std::string&, double)>& check);

}  // namespace sflybench
