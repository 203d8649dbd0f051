// ResultJournal crash-safety: torn tails, corrupt frames, foreign digests,
// and exhaustive bit-flip/truncation sweeps over a journaled campaign result.
// Also the sparse histogram codec the journaled results carry.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "src/engine/journal.h"
#include "src/engine/wire.h"
#include "src/fault/campaign.h"
#include "src/obs/histogram.h"

namespace pmk::engine {
namespace {

namespace fs = std::filesystem;

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("pmk_journal_test_" + std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string JournalPath() const { return (fs::path(dir_) / ResultJournal::kFileName).string(); }

  std::vector<std::uint8_t> FileBytes() const {
    std::vector<std::uint8_t> data;
    std::FILE* f = std::fopen(JournalPath().c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    data.resize(static_cast<std::size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    EXPECT_EQ(std::fread(data.data(), 1, data.size(), f), data.size());
    std::fclose(f);
    return data;
  }

  void WriteFileBytes(const std::vector<std::uint8_t>& data) const {
    std::FILE* f = std::fopen(JournalPath().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (!data.empty()) {  // fwrite's buffer may not be null, even for 0 bytes
      ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
    }
    std::fclose(f);
  }

  std::string dir_;
};

constexpr std::uint64_t kDigest = 0xD1E57'CAFEull;

std::vector<std::uint8_t> Payload(std::uint8_t fill, std::size_t n = 32) {
  return std::vector<std::uint8_t>(n, fill);
}

TEST_F(JournalTest, KeyIsDeterministicAndSensitiveToEveryInput) {
  const std::uint64_t k = ResultJournal::Key(kDigest, "exhaustive|retype|pp@3", 42);
  EXPECT_EQ(k, ResultJournal::Key(kDigest, "exhaustive|retype|pp@3", 42));
  EXPECT_NE(k, ResultJournal::Key(kDigest + 1, "exhaustive|retype|pp@3", 42));
  EXPECT_NE(k, ResultJournal::Key(kDigest, "exhaustive|retype|pp@4", 42));
  EXPECT_NE(k, ResultJournal::Key(kDigest, "exhaustive|retype|pp@3", 43));
}

TEST_F(JournalTest, AppendSurvivesReopen) {
  {
    ResultJournal j(dir_, kDigest);
    EXPECT_EQ(j.size(), 0u);
    j.Append(1, Payload(0xAA));
    j.Append(2, Payload(0xBB, 1000));
  }
  ResultJournal j(dir_, kDigest);
  EXPECT_EQ(j.size(), 2u);
  EXPECT_EQ(j.truncated_bytes(), 0u);
  EXPECT_FALSE(j.invalidated());
  EXPECT_EQ(j.Lookup(1), Payload(0xAA));
  EXPECT_EQ(j.Lookup(2), Payload(0xBB, 1000));
  EXPECT_EQ(j.Lookup(3), std::nullopt);
}

TEST_F(JournalTest, DuplicateAppendKeepsFirstResult) {
  ResultJournal j(dir_, kDigest);
  j.Append(7, Payload(0x11));
  j.Append(7, Payload(0x22));
  EXPECT_EQ(j.size(), 1u);
  EXPECT_EQ(j.Lookup(7), Payload(0x11));
}

TEST_F(JournalTest, TornTailIsTruncatedOnOpen) {
  {
    ResultJournal j(dir_, kDigest);
    j.Append(1, Payload(0xAA));
    j.Append(2, Payload(0xBB));
  }
  // Simulate a mid-append kill: a fully-written entry followed by a torn one
  // (frame cut short after the header and half the payload).
  std::vector<std::uint8_t> data = FileBytes();
  WireWriter w;
  w.U64(3);
  w.Bytes(Payload(0xCC));
  std::vector<std::uint8_t> torn;
  AppendFrame(torn, FrameType::kJournalEntry, w.bytes());
  const std::size_t full_frame_size = torn.size();
  torn.resize(torn.size() / 2);
  const std::size_t intact_size = data.size();
  data.insert(data.end(), torn.begin(), torn.end());
  WriteFileBytes(data);

  {
    ResultJournal j(dir_, kDigest);
    EXPECT_EQ(j.size(), 2u);
    EXPECT_EQ(j.truncated_bytes(), torn.size());
    EXPECT_EQ(j.Lookup(1), Payload(0xAA));
    EXPECT_EQ(j.Lookup(2), Payload(0xBB));
    EXPECT_EQ(j.Lookup(3), std::nullopt);
    // Resumable after recovery: the re-executed run lands cleanly.
    j.Append(3, Payload(0xCC));
  }
  // Torn bytes were truncated away; the re-executed entry re-appended whole.
  EXPECT_EQ(FileBytes().size(), intact_size + full_frame_size);
  ResultJournal j(dir_, kDigest);
  EXPECT_EQ(j.size(), 3u);
  EXPECT_EQ(j.truncated_bytes(), 0u);
  EXPECT_EQ(j.Lookup(3), Payload(0xCC));
}

TEST_F(JournalTest, CorruptEntryDropsItAndTheTail) {
  {
    ResultJournal j(dir_, kDigest);
    j.Append(1, Payload(0xAA));
  }
  const std::size_t first_entry_end = FileBytes().size();
  {
    // Reopen to append two more (also exercises append-after-reopen).
    ResultJournal j(dir_, kDigest);
    j.Append(2, Payload(0xBB));
    j.Append(3, Payload(0xCC));
  }
  std::vector<std::uint8_t> data = FileBytes();
  data[first_entry_end + kFrameHeaderBytes + 4] ^= 0x01;  // flip a payload bit of entry 2
  WriteFileBytes(data);

  ResultJournal j(dir_, kDigest);
  EXPECT_EQ(j.size(), 1u);
  EXPECT_EQ(j.Lookup(1), Payload(0xAA));
  EXPECT_EQ(j.Lookup(2), std::nullopt);
  EXPECT_EQ(j.Lookup(3), std::nullopt);  // after the corrupt frame: unreachable, dropped
  EXPECT_EQ(j.truncated_bytes(), data.size() - first_entry_end);
}

TEST_F(JournalTest, ForeignDigestInvalidatesWholeJournal) {
  {
    ResultJournal j(dir_, kDigest);
    j.Append(1, Payload(0xAA));
  }
  ResultJournal j(dir_, kDigest + 1);  // new kernel image: old results are void
  EXPECT_TRUE(j.invalidated());
  EXPECT_EQ(j.size(), 0u);
  EXPECT_EQ(j.Lookup(1), std::nullopt);
  j.Append(1, Payload(0xDD));

  // And the rewritten journal belongs to the new digest.
  ResultJournal back(dir_, kDigest + 1);
  EXPECT_FALSE(back.invalidated());
  EXPECT_EQ(back.Lookup(1), Payload(0xDD));
}

TEST_F(JournalTest, GarbageFileRecoversEmpty) {
  fs::create_directories(dir_);
  WriteFileBytes(std::vector<std::uint8_t>(301, 0x5A));
  ResultJournal j(dir_, kDigest);
  EXPECT_TRUE(j.invalidated());
  EXPECT_EQ(j.size(), 0u);
  j.Append(9, Payload(0xEE));
  ResultJournal back(dir_, kDigest);
  EXPECT_EQ(back.Lookup(9), Payload(0xEE));
}

TEST_F(JournalTest, EmptyPayloadRoundTrips) {
  {
    ResultJournal j(dir_, kDigest);
    j.Append(5, {});
  }
  ResultJournal j(dir_, kDigest);
  EXPECT_EQ(j.Lookup(5), std::vector<std::uint8_t>{});
}

// A journal holding one wire-encoded campaign row, as the shard supervisor
// writes it, for the corruption sweeps below.
struct JournaledRow {
  std::uint64_t key = 0;
  std::vector<std::uint8_t> payload;
  std::size_t headers_end = 0;  // journal header frame + the entry's frame header
};

JournaledRow JournalOneRow(const std::string& dir) {
  ScenarioResult r;
  r.mode = "exhaustive";
  r.op = "retype";
  r.plan = "pp@3:l5";
  r.ok = true;
  r.restarts = 1;
  r.preempt_points = 12;
  r.irq_hist.Record(447);
  r.irq_hist.Record(560, 3);
  JournaledRow row;
  row.key = ResultJournal::Key(kDigest, r.mode + "|" + r.op + "|" + r.plan, 42);
  row.payload = EncodeScenarioResult(r);
  ResultJournal j(dir, kDigest);
  row.headers_end = static_cast<std::size_t>(fs::file_size(j.path())) + kFrameHeaderBytes;
  j.Append(row.key, row.payload);
  return row;
}

TEST_F(JournalTest, EveryBitFlipReturnsOriginalOrNothing) {
  const JournaledRow row = JournalOneRow(dir_);
  const std::vector<std::uint8_t> file = FileBytes();
  ASSERT_GT(file.size(), row.headers_end);

  // Every bit of both frame headers and the journal header's payload, then
  // a fixed-stride sample of the entry payload's bits (the CRC covers them
  // all; the stride keeps the sweep quick).
  std::vector<std::size_t> bits;
  for (std::size_t b = 0; b < row.headers_end * 8; ++b) {
    bits.push_back(b);
  }
  for (std::size_t b = row.headers_end * 8; b < file.size() * 8; b += 7) {
    bits.push_back(b);
  }
  bits.push_back(file.size() * 8 - 1);

  for (const std::size_t bit : bits) {
    std::vector<std::uint8_t> corrupt = file;
    corrupt[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    WriteFileBytes(corrupt);
    ResultJournal j(dir_, kDigest);
    const std::optional<std::vector<std::uint8_t>> got = j.Lookup(row.key);
    EXPECT_TRUE(!got.has_value() || *got == row.payload)
        << "byte " << bit / 8 << " bit " << bit % 8 << " replayed a different payload";
  }
}

TEST_F(JournalTest, EveryTruncationReturnsOriginalOrNothing) {
  const JournaledRow row = JournalOneRow(dir_);
  const std::vector<std::uint8_t> file = FileBytes();

  // Sampled prefix lengths, plus the boundary cases around both frames.
  std::vector<std::size_t> lengths = {0, 1, 4, 5, kFrameHeaderBytes - 1, kFrameHeaderBytes,
                                      row.headers_end - 1, row.headers_end, file.size() - 1};
  for (std::size_t len = 0; len < file.size(); len += 5) {
    lengths.push_back(len);
  }
  for (const std::size_t len : lengths) {
    WriteFileBytes(std::vector<std::uint8_t>(file.begin(), file.begin() + len));
    ResultJournal j(dir_, kDigest);
    const std::optional<std::vector<std::uint8_t>> got = j.Lookup(row.key);
    EXPECT_FALSE(got.has_value()) << "prefix " << len << " replayed a torn entry";
  }
  WriteFileBytes(file);
  EXPECT_EQ(ResultJournal(dir_, kDigest).Lookup(row.key), row.payload);
}

TEST(WireTest, HistogramRoundTripsSparsely) {
  LatencyHistogram h;
  h.Record(1);
  h.Record(1000, 3);
  h.Record(123456789);
  WireWriter w;
  WriteHistogram(w, h);
  WireReader r(w.bytes().data(), w.bytes().size());
  const LatencyHistogram back = ReadHistogram(r);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back.count(), h.count());
  EXPECT_EQ(back.min(), h.min());
  EXPECT_EQ(back.max(), h.max());
  EXPECT_EQ(back.Percentile(50), h.Percentile(50));
  EXPECT_EQ(back.Percentile(99), h.Percentile(99));
}

}  // namespace
}  // namespace pmk::engine
