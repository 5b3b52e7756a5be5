#pragma once
// Per-process scratch directory for tests that write files.
//
// gtest_discover_tests runs every TEST in its own process and `ctest -j`
// runs those processes concurrently, so fixed names under the shared
// ::testing::TempDir() race: one process truncates a reference file while
// another reads it.  Each test process instead gets its own mkdtemp
// directory (with a trailing '/'), created on first use and removed when
// the process that created it exits.

#include <gtest/gtest.h>
#include <stdlib.h>
#include <unistd.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace sfly::test {

inline const std::string& tmp_root() {
  struct Root {
    std::string path;
    pid_t owner = ::getpid();
    Root() {
      std::string tmpl = ::testing::TempDir() + "sfly-test-XXXXXX";
      if (::mkdtemp(tmpl.data()) == nullptr)
        throw std::runtime_error("mkdtemp failed under " + ::testing::TempDir());
      path = tmpl + "/";
    }
    ~Root() {
      // A forked child exiting must not delete its parent's files.
      if (::getpid() != owner) return;
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const Root root;
  return root.path;
}

}  // namespace sfly::test
