// Campaign-core contract tests: the resumable, cancelable run object the
// bench/sweep CLI and the fnrd daemon both drive. Covers the per-cell
// callback (order, checkpoint-flush-before-callback, from_checkpoint
// replay), cancel-at-a-cell-boundary + resume byte-identity, run-once
// enforcement, and shard selection.
#include "campaign/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace fnr::campaign {
namespace {

constexpr const char* kTinySpec = R"(
name       = tiny
trials     = 2
programs   = whiteboard, random-walk
scenarios  = sync-pair
topologies = ring, near-regular:deg=4
sizes      = 16, 32
seeds      = 1
)";

/// RAII temp file path (removed on destruction).
class TempPath {
 public:
  explicit TempPath(const std::string& name)
      : path_(testing::TempDir() + name) {
    std::remove(path_.c_str());
  }
  ~TempPath() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& str() const { return path_; }

 private:
  std::string path_;
};

/// Sequential (threads = 1): the cancel test below pins exact cell counts
/// at the cancel boundary, which only the inline path makes deterministic
/// (test_executor covers cancel at threads > 1).
CampaignOptions quiet_options() {
  CampaignOptions options;
  options.threads = 1;
  return options;
}

TEST(Campaign, CallbackFiresOncePerCellAfterItsCheckpointLine) {
  const auto spec = sweep::parse_spec(kTinySpec);
  TempPath checkpoint("campaign_cb.jsonl");
  CampaignOptions options = quiet_options();
  options.checkpoint_path = checkpoint.str();

  Campaign campaign(spec, options);
  const std::size_t total = campaign.shard_cells().size();
  ASSERT_GT(total, 0u);

  std::vector<std::string> seen_keys;
  const CampaignRun run = campaign.run([&](const CellResult& result) {
    EXPECT_FALSE(result.from_checkpoint);
    EXPECT_TRUE(result.ok) << result.error;
    // The contract: the cell's checkpoint line is already flushed when the
    // callback fires, so a crash after this point loses nothing.
    const auto entries = load_checkpoint(checkpoint.str());
    EXPECT_TRUE(entries.count(result.cell.key()))
        << "cell not yet checkpointed: " << result.cell.key();
    seen_keys.push_back(result.cell.key());
  });
  EXPECT_EQ(seen_keys.size(), total);
  EXPECT_EQ(run.executed, total);
  EXPECT_EQ(run.restored, 0u);
  EXPECT_TRUE(run.complete);
  EXPECT_FALSE(run.cancelled);
}

TEST(Campaign, RunIsOneShot) {
  const auto spec = sweep::parse_spec(kTinySpec);
  Campaign campaign(spec, quiet_options());
  (void)campaign.run();
  EXPECT_THROW((void)campaign.run(), CheckError);
}

TEST(Campaign, CancelStopsAtACellBoundaryAndResumeMatchesBytes) {
  const auto spec = sweep::parse_spec(kTinySpec);

  // The reference: one uninterrupted run.
  const std::string expected = [&] {
    Campaign reference(spec, quiet_options());
    const CampaignRun run = reference.run();
    return to_json(spec, run.cells);
  }();

  TempPath checkpoint("campaign_cancel.jsonl");
  CampaignOptions options = quiet_options();
  options.checkpoint_path = checkpoint.str();

  // Cancel from inside the callback after two cells — the same path a
  // signal handler or a daemon CANCEL verb takes, just deterministic.
  Campaign interrupted(spec, options);
  const std::size_t total = interrupted.shard_cells().size();
  std::uint64_t finished = 0;
  const CampaignRun first = interrupted.run([&](const CellResult&) {
    if (++finished == 2) interrupted.cancel();
  });
  EXPECT_TRUE(first.cancelled);
  EXPECT_FALSE(first.complete);
  EXPECT_EQ(first.cells.size(), 2u);
  ASSERT_LT(first.cells.size(), total);

  // Resume in a "fresh process": a new Campaign over the same checkpoint.
  CampaignOptions resume_options = options;
  resume_options.resume = true;
  Campaign resumed(spec, resume_options);
  std::uint64_t replayed = 0;
  const CampaignRun second = resumed.run([&](const CellResult& result) {
    if (result.from_checkpoint) ++replayed;
  });
  EXPECT_EQ(replayed, 2u);
  EXPECT_EQ(second.restored, 2u);
  EXPECT_EQ(second.executed, total - 2);
  EXPECT_TRUE(second.complete);
  EXPECT_FALSE(second.cancelled);

  // The headline determinism contract, at the campaign layer.
  EXPECT_EQ(to_json(spec, second.cells), expected);
}

TEST(Campaign, MaxCellsPausesWithoutSettingCancelled) {
  const auto spec = sweep::parse_spec(kTinySpec);
  TempPath checkpoint("campaign_maxcells.jsonl");
  CampaignOptions options = quiet_options();
  options.checkpoint_path = checkpoint.str();
  options.max_cells = 3;

  Campaign campaign(spec, options);
  const CampaignRun run = campaign.run();
  EXPECT_EQ(run.executed, 3u);
  EXPECT_FALSE(run.complete);
  EXPECT_FALSE(run.cancelled);
}

TEST(Campaign, ShardsPartitionTheGridByIndex) {
  const auto spec = sweep::parse_spec(kTinySpec);
  const auto grid = sweep::expand(spec);

  std::vector<std::string> sharded_keys;
  for (std::uint32_t shard = 0; shard < 3; ++shard) {
    CampaignOptions options = quiet_options();
    options.shard_index = shard;
    options.shard_count = 3;
    Campaign campaign(spec, options);
    for (const auto& cell : campaign.shard_cells()) {
      EXPECT_EQ(cell.index % 3, shard);
      sharded_keys.push_back(cell.key());
    }
  }
  // The three shards cover the grid exactly once (order within each shard
  // is canonical, so sorting both sides is enough to compare as sets).
  std::vector<std::string> grid_keys;
  for (const auto& cell : grid) grid_keys.push_back(cell.key());
  std::sort(grid_keys.begin(), grid_keys.end());
  std::sort(sharded_keys.begin(), sharded_keys.end());
  EXPECT_EQ(sharded_keys, grid_keys);

  CampaignOptions bad = quiet_options();
  bad.shard_index = 3;
  bad.shard_count = 3;
  EXPECT_THROW((void)Campaign(spec, bad), CheckError);
}

TEST(Campaign, CancelBeforeRunYieldsNoCells) {
  const auto spec = sweep::parse_spec(kTinySpec);
  Campaign campaign(spec, quiet_options());
  campaign.cancel();
  EXPECT_TRUE(campaign.cancel_requested());
  const CampaignRun run = campaign.run();
  EXPECT_TRUE(run.cancelled);
  EXPECT_EQ(run.executed, 0u);
  EXPECT_TRUE(run.cells.empty());
}

}  // namespace
}  // namespace fnr::campaign
