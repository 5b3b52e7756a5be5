#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

namespace sflybench {

namespace {
thread_local std::vector<int> t_open;  // open span indices, innermost last
}  // namespace

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

int Tracer::open(const char* name, std::uint64_t request) {
  if (!enabled_) return -1;
  const double t = now();
  std::lock_guard lock(mu_);
  spans_.push_back({name, t, t, t_open.empty() ? -1 : t_open.back(), request});
  const int index = static_cast<int>(spans_.size() - 1);
  t_open.push_back(index);
  return index;
}

void Tracer::close(int index) {
  if (index < 0) return;
  const double t = now();
  std::lock_guard lock(mu_);
  spans_[static_cast<std::size_t>(index)].end = t;
  if (!t_open.empty() && t_open.back() == index) t_open.pop_back();
}

void Tracer::record(const char* name, double start_s, double end_s,
                    std::uint64_t request) {
  if (!enabled_) return;
  std::lock_guard lock(mu_);
  spans_.push_back(
      {name, start_s, end_s, t_open.empty() ? -1 : t_open.back(), request});
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::lock_guard lock(mu_);
  std::vector<double> child(spans_.size(), 0.0);
  for (const auto& s : spans_)
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double d = spans_[i].end - spans_[i].start;
    auto& t = out[spans_[i].name];
    t.total_s += d;
    // Children recorded from parallel workers can cover more than the
    // parent's interval; self time never goes negative.
    t.self_s += std::max(0.0, d - child[i]);
    ++t.count;
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::lock_guard lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                 "\"parent\":%d,\"request\":%llu}\n",
                 i, s.name, s.start, s.end, s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  std::fclose(f);
}

std::size_t Tracer::size() const {
  std::lock_guard lock(mu_);
  return spans_.size();
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double paired_loss(const std::vector<double>& rates) {
  std::vector<double> lost;
  for (std::size_t k = 0; 2 * k + 1 < rates.size(); ++k)
    lost.push_back((rates[2 * k] - rates[2 * k + 1]) / rates[2 * k]);
  return median(std::move(lost));
}

double peak_rss_mib(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      const double kib = std::strtod(line.c_str() + 6, nullptr);
      return kib / 1024.0;
    }
  }
  return 0.0;
}

std::vector<double> fresh_setups(const RunArgs& a, int reps) {
  constexpr int kTimeoutMs = 120000;
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (n <= 0) return std::vector<double>(static_cast<std::size_t>(reps), -1.0);
  exe[n] = '\0';
  std::vector<std::string> argv_store{
      exe, "--workload", a.workload, "--seed", std::to_string(a.seed),
      "--seconds", "1", "--trace", "0", "--threads", std::to_string(a.threads),
      "--workdir", a.workdir, "--setup-child", "1"};
  std::vector<char*> argv;
  for (auto& s : argv_store) argv.push_back(s.data());
  argv.push_back(nullptr);

  std::vector<double> out;
  for (int rep = 0; rep < reps; ++rep) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      out.push_back(-1.0);
      continue;
    }
    const auto t0 = Clock::now();
    const pid_t pid = ::fork();
    if (pid == 0) {
      // Child: only async-signal-safe calls until exec.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(fds[1], 1);
      ::execv(exe, argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    double ready = -1.0;
    std::string line;
    pollfd p{fds[0], POLLIN, 0};
    while (pid > 0 && line.find('\n') == std::string::npos) {
      const int left = kTimeoutMs - static_cast<int>(seconds_since(t0) * 1e3);
      if (left <= 0 || ::poll(&p, 1, left) <= 0) break;
      char buf[256];
      const ssize_t got = ::read(fds[0], buf, sizeof buf);
      if (got <= 0) break;
      line.append(buf, static_cast<std::size_t>(got));
    }
    if (line.rfind("ready\n", 0) == 0) ready = seconds_since(t0);
    ::close(fds[0]);
    if (pid > 0) {
      if (ready < 0) ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) ready = -1.0;
    }
    out.push_back(ready);
  }
  return out;
}

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace sflybench
