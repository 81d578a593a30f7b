// Tests of label and node-list persistence.

#include "core/label_io.h"

#include <gtest/gtest.h>

#include <fstream>

#include "temp_dir_test_util.h"

namespace spammass {
namespace {

using core::LabelStore;
using core::NodeLabel;
using graph::NodeId;

std::string TempPath(const std::string& name) {
  return testutil::TestTempPath(name);
}

TEST(LabelIoTest, RoundTrip) {
  LabelStore labels(5);
  labels.Set(1, NodeLabel::kSpam);
  labels.Set(2, NodeLabel::kUnknown);
  labels.Set(4, NodeLabel::kNonExistent);
  std::string path = TempPath("labels.tsv");
  ASSERT_TRUE(core::WriteLabels(labels, path).ok());
  auto loaded = core::ReadLabels(path, 5);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (NodeId x = 0; x < 5; ++x) {
    EXPECT_EQ(loaded.value().Get(x), labels.Get(x)) << "node " << x;
  }
}

TEST(LabelIoTest, UnlistedNodesDefaultGood) {
  std::string path = TempPath("partial_labels.tsv");
  {
    std::ofstream f(path);
    f << "2\tspam\n";
  }
  auto loaded = core::ReadLabels(path, 4);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().IsGood(0));
  EXPECT_TRUE(loaded.value().IsSpam(2));
}

TEST(LabelIoTest, CommentsAndBlanksSkipped) {
  std::string path = TempPath("commented_labels.tsv");
  {
    std::ofstream f(path);
    f << "# ground truth\n\n0\tspam\n";
  }
  auto loaded = core::ReadLabels(path, 1);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().IsSpam(0));
}

TEST(LabelIoTest, RejectsBadInput) {
  std::string path = TempPath("bad_labels.tsv");
  {
    std::ofstream f(path);
    f << "0\tbogus-label\n";
  }
  EXPECT_FALSE(core::ReadLabels(path, 2).ok());
  {
    std::ofstream f(path);
    f << "9\tspam\n";
  }
  EXPECT_FALSE(core::ReadLabels(path, 2).ok());
  {
    std::ofstream f(path);
    f << "just-one-field\n";
  }
  EXPECT_FALSE(core::ReadLabels(path, 2).ok());
  EXPECT_FALSE(core::ReadLabels(TempPath("missing-file.tsv"), 2).ok());
}

TEST(NodeListIoTest, RoundTripSortedDeduped) {
  std::string path = TempPath("core.list");
  ASSERT_TRUE(core::WriteNodeList({5, 1, 3, 1}, path).ok());
  auto loaded = core::ReadNodeList(path, 10);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), (std::vector<NodeId>{1, 3, 5}));
}

TEST(NodeListIoTest, RejectsOutOfRangeAndGarbage) {
  std::string path = TempPath("bad_core.list");
  {
    std::ofstream f(path);
    f << "42\n";
  }
  EXPECT_FALSE(core::ReadNodeList(path, 10).ok());
  {
    std::ofstream f(path);
    f << "not-a-number\n";
  }
  EXPECT_FALSE(core::ReadNodeList(path, 10).ok());
}

TEST(NodeListIoTest, EmptyFileGivesEmptyList) {
  std::string path = TempPath("empty_core.list");
  { std::ofstream f(path); }
  auto loaded = core::ReadNodeList(path, 10);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().empty());
}

}  // namespace
}  // namespace spammass
