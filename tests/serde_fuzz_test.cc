// Property/fuzz sweeps over the codec and the log-record formats: random
// values round-trip exactly; random truncation and corruption are always
// reported as kCorruption, never crash or mis-decode silently past a CRC.

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/random.h"
#include "common/strings.h"
#include "wal/log_reader.h"
#include "wal/log_record.h"

namespace phoenix {
namespace {

Value RandomValue(Random& rng, int depth) {
  switch (rng.Uniform(depth > 2 ? 6 : 7)) {
    case 0:
      return Value();
    case 1:
      return Value(rng.Bernoulli(0.5));
    case 2:
      return Value(static_cast<int64_t>(rng.Next()));
    case 3:
      return Value(rng.NextDouble() * 1e6 - 5e5);
    case 4: {
      std::string s;
      for (uint64_t i = 0, n = rng.Uniform(20); i < n; ++i) {
        s.push_back(static_cast<char>('a' + rng.Uniform(26)));
      }
      return Value(std::move(s));
    }
    case 5: {
      Value::Bytes b;
      for (uint64_t i = 0, n = rng.Uniform(16); i < n; ++i) {
        b.data.push_back(static_cast<uint8_t>(rng.Next()));
      }
      return Value(std::move(b));
    }
    default: {
      Value::List list;
      for (uint64_t i = 0, n = rng.Uniform(5); i < n; ++i) {
        list.push_back(RandomValue(rng, depth + 1));
      }
      return Value(std::move(list));
    }
  }
}

class ValueFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ValueFuzzTest, RandomValuesRoundTrip) {
  Random rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Value v = RandomValue(rng, 0);
    Encoder enc;
    enc.PutValue(v);
    Decoder dec(enc.buffer());
    Result<Value> out = dec.GetValue();
    ASSERT_TRUE(out.ok()) << v.ToString();
    EXPECT_EQ(*out, v);
    EXPECT_TRUE(dec.exhausted());
  }
}

TEST_P(ValueFuzzTest, TruncationNeverCrashes) {
  Random rng(GetParam() * 31 + 7);
  for (int i = 0; i < 100; ++i) {
    Value v = RandomValue(rng, 0);
    Encoder enc;
    enc.PutValue(v);
    for (size_t cut = 0; cut < enc.size(); cut += 1 + rng.Uniform(3)) {
      Decoder dec(enc.buffer().data(), cut);
      Result<Value> out = dec.GetValue();
      // Either a clean decode of a prefix-complete value (possible when the
      // cut lands exactly after a value) or corruption — never a crash.
      if (!out.ok()) {
        EXPECT_TRUE(out.status().IsCorruption());
      }
    }
  }
}

TEST_P(ValueFuzzTest, RandomRecordsRoundTripThroughFrames) {
  Random rng(GetParam() * 97 + 3);
  for (int i = 0; i < 60; ++i) {
    IncomingCallRecord rec;
    rec.context_id = rng.Uniform(1000);
    rec.call_id = CallId{
        ClientKey{StrCat("m", rng.Uniform(3)),
                  static_cast<uint32_t>(rng.Uniform(9)), rng.Uniform(50)},
        rng.Next() % 100000};
    rec.method = StrCat("method", rng.Uniform(10));
    for (uint64_t k = 0, n = rng.Uniform(6); k < n; ++k) {
      rec.args.push_back(RandomValue(rng, 1));
    }
    rec.client_kind = static_cast<ComponentKind>(rng.Uniform(5));

    Encoder enc;
    EncodeLogRecord(LogRecord(rec), enc);
    Result<LogRecord> out = DecodeLogRecord(enc.buffer().data(), enc.size());
    ASSERT_TRUE(out.ok());
    const auto* decoded = std::get_if<IncomingCallRecord>(&*out);
    ASSERT_NE(decoded, nullptr);
    EXPECT_EQ(decoded->call_id, rec.call_id);
    EXPECT_EQ(decoded->args, rec.args);
    EXPECT_EQ(decoded->client_kind, rec.client_kind);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(LogCorruptionFuzzTest, BitFlipsNeverPassTheCrc) {
  Random rng(4242);
  // Build a log of several frames, then flip one bit anywhere and verify
  // the reader stops at or before the flipped frame — never returns
  // corrupted payload bytes as a valid record.
  std::vector<uint8_t> log;
  std::vector<uint64_t> frame_starts;
  for (int i = 0; i < 10; ++i) {
    IncomingCallRecord rec;
    rec.context_id = i;
    rec.method = StrCat("m", i);
    Encoder enc;
    EncodeLogRecord(LogRecord(rec), enc);
    frame_starts.push_back(log.size());
    uint32_t len = static_cast<uint32_t>(enc.size());
    uint32_t crc = Crc32c(enc.buffer().data(), enc.size());
    for (int b = 0; b < 4; ++b) log.push_back(static_cast<uint8_t>(len >> (8 * b)));
    for (int b = 0; b < 4; ++b) log.push_back(static_cast<uint8_t>(crc >> (8 * b)));
    log.insert(log.end(), enc.buffer().begin(), enc.buffer().end());
  }

  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> mutated = log;
    size_t pos = rng.Uniform(mutated.size());
    mutated[pos] ^= static_cast<uint8_t>(1u << rng.Uniform(8));
    // Which frame did the flip land in?
    size_t flipped_frame = 0;
    while (flipped_frame + 1 < frame_starts.size() &&
           frame_starts[flipped_frame + 1] <= pos) {
      ++flipped_frame;
    }

    LogReader reader(mutated, 0);
    size_t index = 0;
    while (auto rec = reader.Next()) {
      // Every record returned must be an intact original, in order.
      const auto* in = std::get_if<IncomingCallRecord>(&rec->record);
      ASSERT_NE(in, nullptr);
      ASSERT_EQ(in->context_id, index);
      ++index;
    }
    // The scan stops exactly at the flipped frame.
    EXPECT_EQ(index, flipped_frame) << "flip at byte " << pos;
    EXPECT_TRUE(reader.tail_torn());
  }
}

}  // namespace
}  // namespace phoenix
