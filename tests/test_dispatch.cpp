// Distributed-dispatch pins: `--workers N` must be invisible in the
// output.  A fleet run — including one whose worker is SIGKILL'd
// mid-batch and its slice reassigned — produces stdout and journal
// bytes identical to an uninterrupted single-process run; a fleet
// stopped by --max-seconds leaves a journal that resumes single-process
// to the same bytes; a worker whose binary expands the campaign
// differently from the parent (stale build) is refused, never silently
// mixed in.  Plus unit pins for the line framing the wire protocol
// rides on, and the sfly_merge output-names-an-input refusal.

#include "engine/dispatch.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "tmp_root.hpp"

namespace sfly::engine {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// Bench binaries live next to this test binary (single-directory CMake
// build); ctest may run us from anywhere, so resolve via /proc/self/exe.
std::string bin_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  buf[n] = '\0';
  std::string path(buf);
  const auto slash = path.rfind('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

std::string tmp(const char* name) {
  return sfly::test::tmp_root() + "dispatch_" + name;
}

// Runs `cmd` via the shell, returns its exit code (-1 = didn't exit).
int run(const std::string& cmd) {
  const int st = std::system(cmd.c_str());
  return WIFEXITED(st) ? WEXITSTATUS(st) : -1;
}

// The small fig6 campaign every byte-identity test replays: 96 sim
// rows over four topologies, ~0.3 s single-process.
std::string fig6(const std::string& jsonl, const std::string& stdout_path,
                 const std::string& extra) {
  return bin_dir() +
         "/bench_fig6_ugal --ranks 64 --msgs 4 --seed 1 " + extra +
         " --json " + jsonl + " > " + stdout_path + " 2> /dev/null";
}

// ---------------------------------------------------------------------
// Wire-protocol framing units.

TEST(LineBuffer, SplitsChunksAndKeepsHalfWrittenTail) {
  dispatch_detail::LineBuffer buf;
  std::vector<std::string> lines;
  auto take = [&](std::string&& l) { lines.push_back(std::move(l)); };
  buf.feed("ab", 2, take);          // no newline yet: nothing delivered
  EXPECT_TRUE(lines.empty());
  EXPECT_EQ(buf.pending(), "ab");
  buf.feed("c\nxy\npar", 8, take);  // two lines complete, "par" dangles
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "abc");
  EXPECT_EQ(lines[1], "xy");
  EXPECT_EQ(buf.pending(), "par");
  buf.feed("tial", 4, take);        // a killed worker's torn last write:
  EXPECT_EQ(lines.size(), 2u);      // the tail is never delivered as a row
  EXPECT_EQ(buf.pending(), "partial");
  buf.feed("\n", 1, take);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[2], "partial");
  EXPECT_TRUE(buf.pending().empty());
}

TEST(LineBuffer, EmptyLinesAreDeliveredNotSwallowed) {
  dispatch_detail::LineBuffer buf;
  std::vector<std::string> lines;
  buf.feed("\na\n\n", 4, [&](std::string&& l) { lines.push_back(l); });
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "");
  EXPECT_EQ(lines[1], "a");
  EXPECT_EQ(lines[2], "");
}

TEST(RowIndex, ParsesJournalRowsRejectsEverythingElse) {
  auto idx = dispatch_detail::row_index(
      R"({"index":42,"topology":"DF","ok":true})");
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(*idx, 42u);
  EXPECT_EQ(*dispatch_detail::row_index(R"({"index":0})"), 0u);
  // Meta headers, error lines, and torn fragments all lack the row
  // prefix — the dispatcher must not mistake them for results.
  EXPECT_FALSE(dispatch_detail::row_index(R"({"campaign":"fig6"})"));
  EXPECT_FALSE(dispatch_detail::row_index(R"({"error":"boom"})"));
  EXPECT_FALSE(dispatch_detail::row_index(R"({"index":)"));
  EXPECT_FALSE(dispatch_detail::row_index(""));
}

// ---------------------------------------------------------------------
// End-to-end byte identity (the ISSUE's acceptance criterion).

TEST(Dispatch, WorkersMatchSingleProcessBytes) {
  const std::string rj = tmp("ref.jsonl"), ro = tmp("ref.out");
  const std::string wj = tmp("w.jsonl"), wo = tmp("w.out");
  ASSERT_EQ(run(fig6(rj, ro, "--threads 1")), 0);
  ASSERT_EQ(run(fig6(wj, wo, "--workers 2")), 0);
  EXPECT_EQ(slurp(rj), slurp(wj));
  EXPECT_EQ(slurp(ro), slurp(wo));
}

TEST(Dispatch, SigkilledWorkerSliceIsReassignedBytesIdentical) {
  const std::string rj = tmp("kref.jsonl"), ro = tmp("kref.out");
  const std::string kj = tmp("kill.jsonl"), ko = tmp("kill.out");
  ASSERT_EQ(run(fig6(rj, ro, "--threads 1")), 0);
  // The parent SIGKILLs worker 0 after accepting 2 of its rows; the
  // remaining slice must be reassigned to a respawn with no row lost,
  // duplicated, or reordered.
  ASSERT_EQ(run("SFLY_DISPATCH_TEST_KILL=0:2 " + fig6(kj, ko, "--workers 2")),
            0);
  EXPECT_EQ(slurp(rj), slurp(kj));
  EXPECT_EQ(slurp(ro), slurp(ko));
}

TEST(Dispatch, BudgetStopsFleetGracefullyAndResumesSingleProcess) {
  const std::string big = "--ranks 512 --msgs 16 --seed 1";
  const std::string rj = tmp("bref.jsonl"), ro = tmp("bref.out");
  const std::string bj = tmp("bud.jsonl"), bo = tmp("bud.out");
  const std::string bench = bin_dir() + "/bench_fig6_ugal ";
  ASSERT_EQ(run(bench + big + " --threads 1 --json " + rj + " > " + ro +
                " 2>/dev/null"),
            0);
  // ~2 s of work, 0.4 s budget: the fleet must stop mid-campaign with
  // the resumable exit code and a journal that is a clean line-aligned
  // prefix of the reference.
  ASSERT_EQ(run(bench + big + " --workers 2 --max-seconds 0.4 --json " + bj +
                " > " + bo + " 2>/dev/null"),
            75);
  const std::string ref = slurp(rj), part = slurp(bj);
  ASSERT_LT(part.size(), ref.size());
  EXPECT_EQ(ref.compare(0, part.size(), part), 0)
      << "budget-stopped journal is not a prefix of the reference";
  EXPECT_FALSE(part.empty());
  EXPECT_EQ(part.back(), '\n');
  // A plain single-process --resume loop drives the fleet's journal to
  // completion with bytes identical to the uninterrupted run.
  int rc = 75;
  for (int i = 0; i < 32 && rc == 75; ++i)
    rc = run(bench + big + " --threads 1 --resume " + bj + " > " + bo +
             " 2>/dev/null");
  ASSERT_EQ(rc, 0);
  EXPECT_EQ(ref, slurp(bj));
  EXPECT_EQ(slurp(ro), slurp(bo));
}

TEST(Dispatch, StaleWorkerDeclarationIsRefused) {
  const std::string j = tmp("skew.jsonl"), o = tmp("skew.out");
  const std::string err = tmp("skew.err");
  // SFLY_WORKER_DECL_SKEW makes each worker report a fingerprint the
  // parent did not send — the stale-binary scenario.  The run must be
  // refused as a usage-class error, not retried into a crash loop or
  // silently filled with rows from a different campaign expansion.
  const int rc = run("SFLY_WORKER_DECL_SKEW=1 " + bin_dir() +
                     "/bench_fig6_ugal --ranks 64 --msgs 4 --seed 1 "
                     "--workers 2 --json " + j + " > " + o + " 2> " + err);
  EXPECT_EQ(rc, 2);
  EXPECT_NE(slurp(err).find("declaration mismatch"), std::string::npos)
      << slurp(err);
}

// ---------------------------------------------------------------------
// sfly_merge: -o naming an input shard must refuse, not truncate it.

TEST(Merge, RefusesOutputNamingAnInputShard) {
  const std::string s0 = tmp("s0.jsonl"), s1 = tmp("s1.jsonl");
  const std::string bench = bin_dir() + "/bench_fig6_ugal "
                            "--ranks 64 --msgs 4 --seed 1 --threads 1 ";
  ASSERT_EQ(run(bench + "--shard 0/2 --json " + s0 + " >/dev/null 2>&1"), 0);
  ASSERT_EQ(run(bench + "--shard 1/2 --json " + s1 + " >/dev/null 2>&1"), 0);
  const std::string before = slurp(s0);
  ASSERT_FALSE(before.empty());
  const std::string merge = bin_dir() + "/sfly_merge ";
  // Same path spelled directly, and the same file reached via a
  // symlink: both must be refused before any byte of output is opened.
  EXPECT_EQ(run(merge + "-o " + s0 + " " + s0 + " " + s1 + " 2>/dev/null"), 2);
  EXPECT_EQ(slurp(s0), before) << "refused merge still truncated the shard";
  const std::string link = tmp("s0_link.jsonl");
  std::remove(link.c_str());
  ASSERT_EQ(::symlink(s0.c_str(), link.c_str()), 0);
  EXPECT_EQ(run(merge + "-o " + link + " " + s0 + " " + s1 + " 2>/dev/null"),
            2);
  EXPECT_EQ(slurp(s0), before);
  // And the legitimate merge still works, reproducing the unsharded run.
  const std::string m = tmp("merged.jsonl"), rj = tmp("mref.jsonl");
  ASSERT_EQ(run(bench + "--json " + rj + " >/dev/null 2>&1"), 0);
  ASSERT_EQ(run(merge + "-o " + m + " " + s0 + " " + s1), 0);
  EXPECT_EQ(slurp(m), slurp(rj));
}

}  // namespace
}  // namespace sfly::engine
