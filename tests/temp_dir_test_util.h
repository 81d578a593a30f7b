// Per-test scratch directories. gtest_discover_tests runs every test case
// in its own process and `ctest -j` runs those processes concurrently, so
// a fixed file name under testing::TempDir() is shared by every case (and
// every test file) that picks it. TestTempDir() instead gives the running
// case a directory of its own, named after the suite, the test and the
// pid; the directories are removed when the test process exits.

#ifndef SPAMMASS_TESTS_TEMP_DIR_TEST_UTIL_H_
#define SPAMMASS_TESTS_TEMP_DIR_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <set>
#include <string>
#include <system_error>

namespace spammass::testutil {

/// The running test case's own scratch directory (created on first use):
/// testing::TempDir()/<suite>.<test>.<pid>, with every character outside
/// [A-Za-z0-9._-] of the suite and test names (parameterized cases carry
/// '/') replaced by '_'.
inline std::string TestTempDir() {
  // Removes every directory handed out by this process at exit.
  struct Created {
    std::set<std::string> dirs;
    ~Created() {
      std::error_code ignored;
      for (const std::string& dir : dirs) {
        std::filesystem::remove_all(dir, ignored);
      }
    }
  };
  static Created created;

  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = info == nullptr ? std::string("no_test")
                                     : std::string(info->test_suite_name()) +
                                           "." + info->name();
  for (char& ch : name) {
    const bool keep = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                      (ch >= '0' && ch <= '9') || ch == '.' || ch == '_' ||
                      ch == '-';
    if (!keep) ch = '_';
  }
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  dir += name + "." + std::to_string(::getpid());
  if (created.dirs.insert(dir).second) {
    std::filesystem::create_directories(dir);
  }
  return dir;
}

/// Path of `name` inside TestTempDir().
inline std::string TestTempPath(const std::string& name) {
  return TestTempDir() + "/" + name;
}

}  // namespace spammass::testutil

#endif  // SPAMMASS_TESTS_TEMP_DIR_TEST_UTIL_H_
