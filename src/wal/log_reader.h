#ifndef PHOENIX_WAL_LOG_READER_H_
#define PHOENIX_WAL_LOG_READER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "wal/log_record.h"

namespace phoenix {

// A decoded record plus its position on the log. `order` is the record's
// place in append order: the global sequence number stamped into sharded
// frames (EnableGsnPrefix(), wal/shard_router.h), and the LSN itself on the
// plain single-log format, where log position already is append order.
struct ParsedRecord {
  uint64_t lsn = 0;
  uint64_t order = 0;
  LogRecord record;
};

// A log image with its logical base: byte i of *bytes is LSN base + i.
// Head truncation (garbage collection) raises the base; LSNs stay stable.
struct LogView {
  const std::vector<uint8_t>* bytes = nullptr;
  uint64_t base = 0;
};

// A half-open LSN range [from_lsn, to_lsn) the salvaging reader could not
// parse and skipped over.
struct SkippedRange {
  uint64_t from_lsn = 0;
  uint64_t to_lsn = 0;
};

// Sequential scanner over a stable log image. Stops cleanly at end-of-log;
// stops and sets tail_torn() at a truncated frame or CRC mismatch — a torn
// tail write from the crash, which recovery treats as the end of the log.
//
// In salvage mode (EnableSalvage) a bad frame mid-log does not end the scan:
// the reader searches forward for the next offset where a frame's length,
// CRC and decode all validate, records the unreadable bytes as a
// SkippedRange, and continues from there. Only when no later frame validates
// is the tail considered torn. Frames are CRC-protected, so a false resync
// requires a 32-bit CRC collision on decodable bytes.
class LogReader {
 public:
  // `log` must outlive the reader. `start_lsn` is where scanning begins
  // (0 for the whole log). The vector overload assumes base 0 (untruncated
  // logs, unit tests); recovery uses the LogView overload.
  LogReader(const std::vector<uint8_t>& log, uint64_t start_lsn);
  LogReader(const LogView& view, uint64_t start_lsn);

  LogReader(const LogReader&) = delete;
  LogReader& operator=(const LogReader&) = delete;

  // Skip unreadable mid-log regions instead of declaring a torn tail.
  void EnableSalvage() { salvage_ = true; }

  // Sharded-log frame format: every payload starts with an 8-byte global
  // sequence number (little endian) ahead of the encoded record. The
  // prefix is inside the CRC, so frame validation is unchanged; decoding
  // skips it and reports it as ParsedRecord::order.
  void EnableGsnPrefix() { gsn_prefix_ = true; }

  // Next record, or nullopt at (clean or torn) end.
  std::optional<ParsedRecord> Next();

  bool tail_torn() const { return tail_torn_; }

  // LSN of the first unreadable byte of the torn tail (valid iff
  // tail_torn()).
  uint64_t torn_offset() const { return torn_offset_; }

  // LSN one past the last successfully parsed record.
  uint64_t end_lsn() const { return pos_; }

  // LSN one past the last byte of the image being read.
  uint64_t image_end() const { return base_ + log_.size(); }

  // Number of records returned so far.
  uint64_t records_read() const { return records_read_; }

  // Salvage-mode damage report.
  const std::vector<SkippedRange>& skipped_ranges() const {
    return skipped_ranges_;
  }
  uint64_t skipped_bytes() const { return skipped_bytes_; }

 private:
  // Validates the frame at `lsn` (length, CRC, decode) and parses it into
  // `out` on success.
  bool ValidFrameAt(uint64_t lsn, ParsedRecord* out) const;

  const std::vector<uint8_t>& log_;
  uint64_t base_;
  uint64_t pos_;  // logical LSN
  bool salvage_ = false;
  bool gsn_prefix_ = false;
  bool tail_torn_ = false;
  uint64_t torn_offset_ = 0;
  uint64_t records_read_ = 0;
  std::vector<SkippedRange> skipped_ranges_;
  uint64_t skipped_bytes_ = 0;
};

// Salvage report for one shard a LogCursor read. Offsets are composite, so
// a skipped range on shard j can never intersect a record extent on shard
// k != j — the invariant the replay planner's per-chain demotion rule
// relies on.
struct ShardDamage {
  uint32_t shard = 0;
  bool tail_torn = false;
  uint64_t torn_offset = 0;  // composite lsn of the first unreadable byte
  uint64_t image_end = 0;    // composite lsn one past the image read
  std::vector<SkippedRange> skipped;  // composite coordinates
  // resume_orders[i] is the order of the record salvage resynchronized on
  // after skipped[i]: the first readable record above the damage.
  std::vector<uint64_t> resume_orders;
};

// One salvage-mode record stream over the shards of a log, in append
// order. With one input it is a plain LogReader; with N it is a lazy k-way
// merge of N readers by record order (ties, impossible on a healthy log,
// break toward the lower shard id), holding one decoded record per shard.
// LSNs come out composite (MakeShardLsn(shard, local)), which on shard 0 is
// the local offset itself. Records with order below `from_order` are read
// but not returned.
class LogCursor {
 public:
  explicit LogCursor(uint64_t from_order = 0) : from_order_(from_order) {}

  // Adds shard `shard`'s image, read from local offset `start`.
  // `gsn_prefixed` selects the sharded frame format. The image must outlive
  // the cursor; the vector overload keeps a private copy instead.
  void AddShard(uint32_t shard, const LogView& view, uint64_t start,
                bool gsn_prefixed);
  void AddShard(uint32_t shard, std::vector<uint8_t> image, uint64_t base,
                uint64_t start, bool gsn_prefixed);

  // Next record in append order, or nullopt once every shard is exhausted.
  std::optional<ParsedRecord> Next();

  // Damage seen so far, one entry per shard with a torn tail or skips; the
  // full report once Next() has returned nullopt.
  std::vector<ShardDamage> damage() const;
  // Every unreadable range seen: the salvage skips, plus each torn tail
  // widened to the end of its image.
  std::vector<SkippedRange> unreadable() const;
  // Records read across all shards, including those below `from_order`.
  uint64_t records_read() const;
  // Adjacent records of one shard whose orders did not ascend (a healthy
  // log always yields 0).
  uint64_t inversions() const { return inversions_; }

 private:
  struct Input {
    uint32_t shard = 0;
    std::unique_ptr<std::vector<uint8_t>> owned;
    std::unique_ptr<LogReader> reader;
    std::optional<ParsedRecord> head;  // merge read-ahead of this shard
    bool primed = false;
    bool any_read = false;
    uint64_t last_order = 0;
    std::vector<uint64_t> resume_orders;
  };

  // Reads `input`'s next record, in composite coordinates, noting the
  // resume order of any range salvage skipped to reach it.
  std::optional<ParsedRecord> Pull(Input& input);

  std::vector<Input> inputs_;
  uint64_t from_order_;
  uint64_t inversions_ = 0;
};

// Reads the single record whose frame starts at `lsn`.
Result<LogRecord> ReadRecordAt(const std::vector<uint8_t>& log, uint64_t lsn);
Result<LogRecord> ReadRecordAt(const LogView& view, uint64_t lsn);

// Same, for a sharded (gsn-prefixed) frame; `lsn` is the shard-local
// offset into `view`. On success *order_out (if non-null) receives the
// frame's global sequence number.
Result<LogRecord> ReadPrefixedRecordAt(const LogView& view, uint64_t lsn,
                                       uint64_t* order_out = nullptr);

}  // namespace phoenix

#endif  // PHOENIX_WAL_LOG_READER_H_
