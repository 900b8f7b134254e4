// Per-process scratch files for tests that write to disk.
//
// ::testing::TempDir() is one directory shared by every test process on the
// machine, so a fixed file name under it collides when two builds' suites
// (say build/ and build-asan/) run at once. scratch_path() names a file in a
// directory that mkdtemp() creates once per process and that is removed,
// with its contents, when the process exits.
#ifndef WSYNC_TESTS_TESTING_SCRATCH_DIR_H_
#define WSYNC_TESTS_TESTING_SCRATCH_DIR_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <stdexcept>
#include <string>

namespace wsync::testing {

/// The process's scratch directory, with a trailing '/'.
inline const std::string& scratch_dir() {
  struct Dir {
    std::string path;
    Dir() {
      std::string pattern = ::testing::TempDir() + "wsync_test_XXXXXX";
      if (mkdtemp(pattern.data()) == nullptr) {
        throw std::runtime_error("mkdtemp failed under " +
                                 ::testing::TempDir());
      }
      path = pattern + "/";
    }
    Dir(const Dir&) = delete;
    Dir& operator=(const Dir&) = delete;
    ~Dir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static const Dir dir;
  return dir.path;
}

/// `name` inside the process's scratch directory.
inline std::string scratch_path(const std::string& name) {
  return scratch_dir() + name;
}

}  // namespace wsync::testing

#endif  // WSYNC_TESTS_TESTING_SCRATCH_DIR_H_
