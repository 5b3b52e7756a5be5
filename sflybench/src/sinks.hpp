#pragma once
// Result-sink helpers shared by the engine-driven workloads.

#include <cstdio>
#include <string>

#include "common.hpp"
#include "engine/sink.hpp"

namespace sflybench {

/// Forwards to `inner` and accumulates the time spent inside it
/// (engine.sink_s: the JSONL journal's formatting and writes).
class TimedSink final : public sfly::engine::ResultSink {
 public:
  explicit TimedSink(sfly::engine::ResultSink& inner) : inner_(inner) {}
  void begin(std::size_t total) override { timed([&] { inner_.begin(total); }); }
  void consume(const sfly::engine::Result& r) override { timed([&] { inner_.consume(r); }); }
  void consume(const sfly::engine::SimResult& r) override {
    timed([&] { inner_.consume(r); });
  }
  void end() override { timed([&] { inner_.end(); }); }
  [[nodiscard]] bool wants_replay() const override { return inner_.wants_replay(); }
  [[nodiscard]] double seconds() const { return seconds_; }

 private:
  template <class F>
  void timed(F&& f) {
    const auto t0 = Clock::now();
    f();
    seconds_ += seconds_since(t0);
  }
  sfly::engine::ResultSink& inner_;
  double seconds_ = 0.0;
};

[[nodiscard]] inline std::string read_file(const std::string& path) {
  std::string out;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    char buf[1 << 16];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
    std::fclose(f);
  }
  return out;
}

}  // namespace sflybench
