#include "sflyd_client.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "util/net.hpp"

extern char** environ;

namespace sflybench {

namespace {

constexpr const char* kHost = "127.0.0.1";

bool read_port_file(const std::string& path, std::uint16_t& port) {
  std::ifstream in(path);
  std::string line;
  // The server writes "<port>\n"; a line without its newline may still be
  // mid-write.
  if (!std::getline(in, line) || in.eof() || line.empty()) return false;
  const long v = std::strtol(line.c_str(), nullptr, 10);
  if (v <= 0 || v > 65535) return false;
  port = static_cast<std::uint16_t>(v);
  return true;
}

bool handshake(int fd, int timeout_ms) {
  if (!sfly::net::send_frame(fd, sfly::net::FrameType::kHello, 0,
                             sfly::net::hello_payload("query")))
    return false;
  sfly::net::FrameReader reader;
  sfly::net::Frame frame;
  return sfly::net::read_frame_blocking(fd, frame, reader, timeout_ms) &&
         frame.type == sfly::net::FrameType::kWelcome;
}

}  // namespace

double Sflyd::start(const std::vector<std::string>& args) {
  constexpr double kStartTimeoutS = 120.0;  // a cold start builds every artifact
  stop();
  const std::string port_file = workdir_ + "/sflyd.port";
  const std::string log_file = workdir_ + "/sflyd.log";
  ::unlink(port_file.c_str());

  std::vector<std::string> env_store;
  for (char** e = environ; *e; ++e) env_store.emplace_back(*e);
  env_store.push_back("SFLY_LISTEN_PORT_FILE=" + port_file);
  std::vector<char*> envp;
  for (auto& s : env_store) envp.push_back(s.data());
  envp.push_back(nullptr);

  std::vector<std::string> argv_store{exe_};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& s : argv_store) argv.push_back(s.data());
  argv.push_back(nullptr);

  const auto t0 = Clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) return -1.0;
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.  The parent-death
    // signal takes sflyd down with the benchmark however it ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int log = ::open(log_file.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log >= 0) {
      ::dup2(log, 1);
      ::dup2(log, 2);
    }
    ::execve(exe_.c_str(), argv.data(), envp.data());
    ::_exit(127);
  }
  pid_ = pid;

  while (seconds_since(t0) < kStartTimeoutS) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {  // died before serving
      pid_ = -1;
      return -1.0;
    }
    if (read_port_file(port_file, port_)) {
      const int fd = connect();
      if (fd >= 0) {
        const double ready = seconds_since(t0);
        ::close(fd);
        return ready;
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  stop();
  return -1.0;
}

int Sflyd::connect() const {
  if (port_ == 0) return -1;
  const int fd = sfly::net::tcp_connect(kHost, port_);
  if (fd < 0) return -1;
  if (!handshake(fd, 10000)) {
    ::close(fd);
    return -1;
  }
  return fd;
}

double Sflyd::peak_rss_mib() const {
  return pid_ > 0 ? sflybench::peak_rss_mib(pid_) : 0.0;
}

bool Sflyd::stop() {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const auto t0 = Clock::now();
  bool reaped = false;
  while (seconds_since(t0) < 5.0) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      reaped = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (!reaped) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  port_ = 0;
  return reaped && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

LoopStats closed_loop(const Sflyd& server, int conns, double seconds,
                      const std::function<Request(std::uint64_t)>& make,
                      const std::function<bool(std::uint64_t, const Request&,
                                               const std::string&, double)>& check) {
  constexpr double kDrainTimeoutS = 30.0;
  struct Conn {
    int fd = -1;
    sfly::net::FrameReader reader;
    std::uint32_t seq = 0;
    bool busy = false;
    std::uint64_t id = 0;
    Request req;
    Clock::time_point sent;
  };
  LoopStats st;
  std::vector<Conn> cs(static_cast<std::size_t>(conns));
  std::uint64_t next_id = 0;
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
  const auto hard_stop = deadline + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(kDrainTimeoutS));

  auto send_next = [&](Conn& c) {
    c.id = next_id++;
    c.req = make(c.id);
    c.sent = Clock::now();
    ++st.sent;
    c.busy = sfly::net::send_frame(c.fd, sfly::net::FrameType::kData, ++c.seq,
                                   c.req.body);
    if (!c.busy) {  // dead connection: the request is lost
      ++st.failed;
      ::close(c.fd);
      c.fd = -1;
    }
  };
  for (auto& c : cs) {
    c.fd = server.connect();
    if (c.fd >= 0) {
      send_next(c);
    } else {
      ++st.sent;
      ++st.failed;
    }
  }

  std::vector<std::uint64_t> per_slice;
  std::vector<pollfd> pfds;
  std::vector<Conn*> owners;
  char buf[1 << 16];
  for (;;) {
    pfds.clear();
    owners.clear();
    for (auto& c : cs)
      if (c.fd >= 0 && c.busy) {
        pfds.push_back({c.fd, POLLIN, 0});
        owners.push_back(&c);
      }
    if (pfds.empty() || Clock::now() >= hard_stop) break;
    const int n = ::poll(pfds.data(), pfds.size(), 100);
    if (n < 0 && errno != EINTR) break;
    for (std::size_t k = 0; k < pfds.size(); ++k) {
      if (!(pfds[k].revents & (POLLIN | POLLERR | POLLHUP))) continue;
      Conn& c = *owners[k];
      const ssize_t got = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
      if (got <= 0) {
        if (got < 0 && (errno == EAGAIN || errno == EINTR)) continue;
        ++st.failed;  // connection lost with a request outstanding
        ::close(c.fd);
        c.fd = -1;
        c.busy = false;
        continue;
      }
      c.reader.feed(buf, static_cast<std::size_t>(got));
      sfly::net::Frame frame;
      while (c.busy && c.reader.next(frame)) {
        const double us =
            std::chrono::duration<double, std::micro>(Clock::now() - c.sent).count();
        ++st.completed;
        const auto slice = static_cast<std::size_t>(seconds_since(t0));
        if (slice >= per_slice.size()) per_slice.resize(slice + 1, 0);
        ++per_slice[slice];
        if (frame.type == sfly::net::FrameType::kData &&
            check(c.id, c.req, frame.payload, us)) {
          const auto kind = static_cast<std::size_t>(c.req.kind);
          if (kind >= st.latency_us.size()) st.latency_us.resize(kind + 1);
          st.latency_us[kind].push_back(us);
        } else {
          ++st.failed;
        }
        c.busy = false;
        if (Clock::now() < deadline) send_next(c);
      }
      if (c.reader.corrupt()) {
        ++st.failed;
        ::close(c.fd);
        c.fd = -1;
        c.busy = false;
      }
    }
  }
  for (auto& c : cs) {
    if (c.busy) ++st.failed;  // unanswered within the timeout
    if (c.fd >= 0) ::close(c.fd);
  }
  st.wall_s = seconds_since(t0);
  // Whole seconds inside the window only (the last partial one drains).
  for (std::size_t i = 0; i < per_slice.size() && i + 1 <= seconds; ++i)
    st.slice_rates.push_back(static_cast<double>(per_slice[i]));
  return st;
}

}  // namespace sflybench
