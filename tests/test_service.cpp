// Service front-end pins: an sflyd-style Server over a QueryEngine
// answers route/sim/rank/stats over the frame protocol with the exact
// bytes QueryEngine::handle produces in-process; N concurrent clients
// interleaving the same requests each receive responses byte-identical
// to a single sequential client's.  A malformed request costs one error
// frame and never the connection; HELLO version skew and DATA-before-
// HELLO each get a reasoned error frame followed by a close; and a
// server warm-started from a snapshot serves the same answers as the
// cold engine without one table or index rebuild.

#include "service/server.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/query.hpp"
#include "service/snapshot.hpp"
#include "tmp_root.hpp"
#include "util/net.hpp"

namespace sfly::service {
namespace {

constexpr int kTimeoutMs = 30000;

// Minimal query client: dial, HELLO/WELCOME, then request/response pairs
// on DATA frames.  Mirrors sfly_query's transport loop.
struct Client {
  int fd = -1;
  net::FrameReader reader;

  explicit Client(std::uint16_t port) {
    fd = net::tcp_connect("127.0.0.1", port);
  }
  ~Client() {
    if (fd >= 0) ::close(fd);
  }

  bool hello(const std::string& payload) {
    net::Frame f;
    return net::send_frame(fd, net::FrameType::kHello, 0, payload) &&
           net::read_frame_blocking(fd, f, reader, kTimeoutMs) &&
           f.type == net::FrameType::kWelcome;
  }
  bool greet() { return hello(net::hello_payload("query")); }

  // One request -> one response payload; empty string on any failure.
  std::string ask(const std::string& request) {
    if (!net::send_frame(fd, net::FrameType::kData, 1, request)) return {};
    net::Frame f;
    if (!net::read_frame_blocking(fd, f, reader, kTimeoutMs)) return {};
    return f.type == net::FrameType::kData ? f.payload : std::string{};
  }

  // Next frame payload regardless of type (pre-handshake rejections).
  std::string next_payload() {
    net::Frame f;
    if (!net::read_frame_blocking(fd, f, reader, kTimeoutMs)) return {};
    return f.payload;
  }

  // True when the peer has closed (read returns EOF / no frame).
  bool closed_by_peer() {
    net::Frame f;
    return !net::read_frame_blocking(fd, f, reader, kTimeoutMs);
  }
};

std::vector<std::string> mixed_requests() {
  return {
      R"js({"id":1,"kind":"route","topo":"Paley(13)","src":0,"dst":7,"algo":"ugal-l"})js",
      R"js({"id":2,"kind":"route","topo":"Paley(13)","src":5,"dst":11,"algo":"valiant","seed":9})js",
      R"js({"id":3,"kind":"sim","topo":"Paley(13)","pattern":"random","load":0.5,"seed":42})js",
      R"js({"id":4,"kind":"sim","topo":"Paley(13)","pattern":"transpose","load":0.25,"seed":7})js",
      R"js({"id":5,"kind":"rank","topos":["Paley(13)"],"job_size":64})js",
      R"js({"id":6,"kind":"route","topo":"Paley(13)","src":1,"dst":8,"algo":"minimal"})js",
  };
}

struct Fixture {
  QueryEngine queries;
  std::unique_ptr<Server> server;

  explicit Fixture(unsigned threads = 2) {
    queries.register_spec("Paley(13)");
    ServerConfig cfg;
    cfg.threads = threads;
    server = std::make_unique<Server>(queries, cfg);
    EXPECT_TRUE(server->start());
  }
};

TEST(Service, AnswersMatchInProcessHandleByteForByte) {
  Fixture fx;
  // A second engine over the same topology gives the in-process
  // reference bytes; queries counters never leak into non-stats answers.
  QueryEngine reference;
  reference.register_spec("Paley(13)");

  Client c(fx.server->port());
  ASSERT_TRUE(c.greet());
  for (const auto& req : mixed_requests()) {
    const auto remote = c.ask(req);
    EXPECT_EQ(remote, reference.handle(req)) << req;
    EXPECT_NE(remote.find("\"ok\":true"), std::string::npos) << remote;
  }
  // And one literal pin so a format regression cannot hide behind
  // "remote equals local but both changed":
  EXPECT_EQ(
      c.ask(R"js({"id":1,"kind":"route","topo":"Paley(13)","src":0,"dst":7,"algo":"ugal-l"})js"),
      "{\"id\":1,\"ok\":true,\"kind\":\"route\",\"topology\":\"Paley(13)\","
      "\"algo\":\"ugal-l\",\"src\":0,\"dst\":7,\"valiant\":false,"
      "\"hops\":2,\"path\":[0,10,7]}");
}

TEST(Service, ConcurrentClientsGetSequentialClientBytes) {
  Fixture fx(/*threads=*/4);
  const auto requests = mixed_requests();

  // Reference pass: one client, sequential.
  std::vector<std::string> expected;
  {
    Client c(fx.server->port());
    ASSERT_TRUE(c.greet());
    for (const auto& req : requests) expected.push_back(c.ask(req));
  }

  constexpr int kClients = 4;
  constexpr int kRounds = 3;
  std::vector<std::vector<std::string>> got(kClients);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      Client c(fx.server->port());
      if (!c.greet()) return;
      // Stagger each client's starting offset so requests interleave.
      for (int r = 0; r < kRounds; ++r)
        for (std::size_t i = 0; i < requests.size(); ++i)
          got[t].push_back(
              c.ask(requests[(i + static_cast<std::size_t>(t)) % requests.size()]));
    });
  }
  for (auto& th : clients) th.join();

  for (int t = 0; t < kClients; ++t) {
    ASSERT_EQ(got[t].size(), requests.size() * kRounds) << "client " << t;
    for (int r = 0; r < kRounds; ++r)
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const auto idx = (i + static_cast<std::size_t>(t)) % requests.size();
        EXPECT_EQ(got[t][r * requests.size() + i], expected[idx])
            << "client " << t << " round " << r << " request " << idx;
      }
  }
}

TEST(Service, MalformedRequestCostsOneErrorFrameNotTheConnection) {
  Fixture fx;
  Client c(fx.server->port());
  ASSERT_TRUE(c.greet());

  const auto err = c.ask("this is not json");
  EXPECT_NE(err.find("\"ok\":false"), std::string::npos) << err;
  EXPECT_NE(err.find("\"error\""), std::string::npos) << err;

  const auto unknown = c.ask(R"js({"id":9,"kind":"frobnicate"})js");
  EXPECT_NE(unknown.find("\"ok\":false"), std::string::npos) << unknown;

  const auto bad_topo = c.ask(R"js({"id":10,"kind":"route","topo":"Nope(1)","src":0,"dst":1})js");
  EXPECT_NE(bad_topo.find("\"ok\":false"), std::string::npos) << bad_topo;

  // Same connection still answers real queries afterwards.
  const auto ok = c.ask(
      R"js({"id":11,"kind":"route","topo":"Paley(13)","src":0,"dst":7,"algo":"minimal"})js");
  EXPECT_NE(ok.find("\"ok\":true"), std::string::npos) << ok;
  EXPECT_EQ(fx.queries.errors(), 3u);
}

TEST(Service, HelloVersionSkewIsRejectedWithBothVersions) {
  Fixture fx;
  Client c(fx.server->port());
  ASSERT_GE(c.fd, 0);
  ASSERT_TRUE(net::send_frame(c.fd, net::FrameType::kHello, 0,
                              "{\"v\":99,\"role\":\"query\"}"));
  const auto err = c.next_payload();
  EXPECT_NE(err.find("version skew"), std::string::npos) << err;
  EXPECT_NE(err.find("v99"), std::string::npos) << err;
  EXPECT_NE(err.find("v" + std::to_string(net::kProtocolVersion)),
            std::string::npos)
      << err;
  EXPECT_TRUE(c.closed_by_peer());
}

TEST(Service, DataBeforeHelloIsRejectedAndClosed) {
  Fixture fx;
  Client c(fx.server->port());
  ASSERT_GE(c.fd, 0);
  ASSERT_TRUE(net::send_frame(c.fd, net::FrameType::kData, 0,
                              R"js({"id":1,"kind":"stats"})js"));
  const auto err = c.next_payload();
  EXPECT_NE(err.find("DATA before HELLO"), std::string::npos) << err;
  EXPECT_TRUE(c.closed_by_peer());
}

TEST(Service, WarmRestartedServerServesIdenticalBytesWithoutRebuilds) {
  const std::string snap_path = sfly::test::tmp_root() + "service_warm.snap";
  const auto requests = mixed_requests();

  // Cold daemon: build, serve, snapshot, remember its answers.
  std::vector<std::string> expected;
  {
    Fixture cold;
    {
      auto art = cold.queries.engine().artifacts().get("Paley(13)");
      (void)art->graph();
      (void)art->tables();
      (void)art->next_hops();
      (void)art->spectra();
    }
    write_snapshot(snap_path, cold.queries.engine().artifacts());
    Client c(cold.server->port());
    ASSERT_TRUE(c.greet());
    for (const auto& req : requests) expected.push_back(c.ask(req));
    cold.server->stop();
  }

  // Warm daemon: mmap the snapshot instead of registering topologies.
  QueryEngine warm;
  auto snap = Snapshot::open(snap_path);
  Snapshot::load_into(snap, warm.engine().artifacts());
  Server server(warm, {});
  ASSERT_TRUE(server.start());

  const auto tables_before = routing::Tables::builds();
  const auto index_before = routing::NextHopIndex::builds();
  Client c(server.port());
  ASSERT_TRUE(c.greet());
  for (std::size_t i = 0; i < requests.size(); ++i)
    EXPECT_EQ(c.ask(requests[i]), expected[i]) << requests[i];
  EXPECT_EQ(routing::Tables::builds(), tables_before);
  EXPECT_EQ(routing::NextHopIndex::builds(), index_before);
  server.stop();
}

TEST(Service, StopIsIdempotentAndStartReportsPort) {
  QueryEngine queries;
  queries.register_spec("Paley(13)");
  Server server(queries, {});
  ASSERT_TRUE(server.start());
  EXPECT_GT(server.port(), 0);
  EXPECT_TRUE(server.running());
  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // second stop is a no-op
}

}  // namespace
}  // namespace sfly::service
