// util::WriteTextFile / CreateDirectories: missing parent directories are
// created, contents round-trip, and failures name the offending path so
// CLI users see which file could not be written.

#include "util/file_util.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "temp_dir_test_util.h"

namespace spammass::util {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream f(path);
  return std::string((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
}

TEST(UtilFileUtilTest, WriteTextFileCreatesMissingParents) {
  const std::string path = testutil::TestTempPath("a/b/c/out.txt");
  ASSERT_TRUE(WriteTextFile(path, "hello\n").ok());
  EXPECT_EQ(ReadAll(path), "hello\n");
}

TEST(UtilFileUtilTest, WriteTextFileOverwrites) {
  const std::string path = testutil::TestTempPath("over.txt");
  ASSERT_TRUE(WriteTextFile(path, "first").ok());
  ASSERT_TRUE(WriteTextFile(path, "second").ok());
  EXPECT_EQ(ReadAll(path), "second");
}

TEST(UtilFileUtilTest, WriteTextFileHandlesEmptyContent) {
  const std::string path = testutil::TestTempPath("empty.txt");
  ASSERT_TRUE(WriteTextFile(path, "").ok());
  EXPECT_EQ(ReadAll(path), "");
}

TEST(UtilFileUtilTest, WriteTextFileErrorNamesThePath) {
  // A regular file used as a directory component makes the write fail.
  const std::string blocker = testutil::TestTempPath("blocker");
  ASSERT_TRUE(WriteTextFile(blocker, "not a directory").ok());
  const std::string path = blocker + "/nested/out.txt";
  const Status status = WriteTextFile(path, "x");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find(blocker), std::string::npos)
      << status.ToString();
}

TEST(UtilFileUtilTest, CreateDirectoriesIsIdempotent) {
  const std::string dir = testutil::TestTempPath("idem/x/y");
  ASSERT_TRUE(CreateDirectories(dir).ok());
  EXPECT_TRUE(CreateDirectories(dir).ok());
}

TEST(UtilFileUtilTest, CreateDirectoriesEmptyPathIsOk) {
  EXPECT_TRUE(CreateDirectories("").ok());
}

}  // namespace
}  // namespace spammass::util
