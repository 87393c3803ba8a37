#include "wal/log_reader.h"

#include "common/crc32c.h"
#include "common/macros.h"
#include "wal/shard_router.h"

namespace phoenix {
namespace {

uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t LoadU64(const uint8_t* p) {
  return static_cast<uint64_t>(LoadU32(p)) |
         static_cast<uint64_t>(LoadU32(p + 4)) << 32;
}

// Size of the global-sequence-number prefix inside sharded frame payloads.
constexpr size_t kGsnPrefixBytes = 8;

}  // namespace

LogReader::LogReader(const std::vector<uint8_t>& log, uint64_t start_lsn)
    : log_(log), base_(0), pos_(start_lsn) {}

LogReader::LogReader(const LogView& view, uint64_t start_lsn)
    : log_(*view.bytes), base_(view.base), pos_(start_lsn) {
  PHX_CHECK(start_lsn >= view.base);
}

bool LogReader::ValidFrameAt(uint64_t lsn, ParsedRecord* out) const {
  uint64_t end = base_ + log_.size();
  if (lsn + 8 > end) return false;
  uint64_t rel = lsn - base_;
  uint32_t len = LoadU32(&log_[rel]);
  uint32_t crc = LoadU32(&log_[rel + 4]);
  if (lsn + 8 + len > end) return false;
  const uint8_t* payload = &log_[rel + 8];
  if (Crc32c(payload, len) != crc) return false;
  uint64_t order = lsn;  // plain frames: log position is append order
  if (gsn_prefix_) {
    if (len < kGsnPrefixBytes) return false;
    order = LoadU64(payload);
    payload += kGsnPrefixBytes;
    len -= kGsnPrefixBytes;
  }
  Result<LogRecord> record = DecodeLogRecord(payload, len);
  if (!record.ok()) return false;
  out->lsn = lsn;
  out->order = order;
  out->record = std::move(record).value();
  return true;
}

std::optional<ParsedRecord> LogReader::Next() {
  if (tail_torn_) return std::nullopt;
  uint64_t end = base_ + log_.size();
  for (;;) {
    if (pos_ == end) return std::nullopt;  // clean end
    ParsedRecord out;
    if (ValidFrameAt(pos_, &out)) {
      uint64_t rel = pos_ - base_;
      uint32_t len = LoadU32(&log_[rel]);
      pos_ += 8 + len;
      ++records_read_;
      return out;
    }
    if (salvage_) {
      // Resync: the first later offset where a whole frame validates is
      // where parsing resumes; everything in between is unreadable.
      bool resynced = false;
      for (uint64_t cand = pos_ + 1; cand + 8 <= end; ++cand) {
        ParsedRecord probe;
        if (ValidFrameAt(cand, &probe)) {
          skipped_ranges_.push_back(SkippedRange{pos_, cand});
          skipped_bytes_ += cand - pos_;
          pos_ = cand;
          resynced = true;
          break;
        }
      }
      if (resynced) continue;  // parse the frame at the new position
    }
    torn_offset_ = pos_;
    tail_torn_ = true;
    return std::nullopt;
  }
}

void LogCursor::AddShard(uint32_t shard, const LogView& view, uint64_t start,
                         bool gsn_prefixed) {
  Input input;
  input.shard = shard;
  input.reader = std::make_unique<LogReader>(view, start);
  input.reader->EnableSalvage();
  if (gsn_prefixed) input.reader->EnableGsnPrefix();
  inputs_.push_back(std::move(input));
}

void LogCursor::AddShard(uint32_t shard, std::vector<uint8_t> image,
                         uint64_t base, uint64_t start, bool gsn_prefixed) {
  auto owned = std::make_unique<std::vector<uint8_t>>(std::move(image));
  AddShard(shard, LogView{owned.get(), base}, start, gsn_prefixed);
  inputs_.back().owned = std::move(owned);
}

std::optional<ParsedRecord> LogCursor::Pull(Input& input) {
  std::optional<ParsedRecord> rec = input.reader->Next();
  if (!rec.has_value()) return rec;
  rec->lsn = MakeShardLsn(input.shard, rec->lsn);
  while (input.resume_orders.size() <
         input.reader->skipped_ranges().size()) {
    input.resume_orders.push_back(rec->order);
  }
  if (input.any_read && rec->order <= input.last_order) ++inversions_;
  input.any_read = true;
  input.last_order = rec->order;
  return rec;
}

std::optional<ParsedRecord> LogCursor::Next() {
  if (inputs_.size() == 1) {  // nothing to merge: no read-ahead
    while (std::optional<ParsedRecord> rec = Pull(inputs_[0])) {
      if (rec->order >= from_order_) return rec;
    }
    return std::nullopt;
  }
  for (;;) {
    Input* best = nullptr;
    for (Input& input : inputs_) {
      if (!input.primed) {
        input.head = Pull(input);
        input.primed = true;
      }
      if (input.head.has_value() &&
          (best == nullptr || input.head->order < best->head->order)) {
        best = &input;
      }
    }
    if (best == nullptr) return std::nullopt;
    ParsedRecord rec = std::move(*best->head);
    best->head = Pull(*best);
    if (rec.order >= from_order_) return rec;
  }
}

std::vector<ShardDamage> LogCursor::damage() const {
  std::vector<ShardDamage> out;
  for (const Input& input : inputs_) {
    const LogReader& reader = *input.reader;
    if (!reader.tail_torn() && reader.skipped_ranges().empty()) continue;
    ShardDamage damage;
    damage.shard = input.shard;
    damage.tail_torn = reader.tail_torn();
    damage.torn_offset = MakeShardLsn(input.shard, reader.torn_offset());
    damage.image_end = MakeShardLsn(input.shard, reader.image_end());
    for (const SkippedRange& range : reader.skipped_ranges()) {
      damage.skipped.push_back(
          SkippedRange{MakeShardLsn(input.shard, range.from_lsn),
                       MakeShardLsn(input.shard, range.to_lsn)});
    }
    damage.resume_orders = input.resume_orders;
    out.push_back(std::move(damage));
  }
  return out;
}

std::vector<SkippedRange> LogCursor::unreadable() const {
  std::vector<SkippedRange> gaps;
  for (const ShardDamage& shard : damage()) {
    gaps.insert(gaps.end(), shard.skipped.begin(), shard.skipped.end());
    if (shard.tail_torn) {
      gaps.push_back(SkippedRange{shard.torn_offset, shard.image_end});
    }
  }
  return gaps;
}

uint64_t LogCursor::records_read() const {
  uint64_t total = 0;
  for (const Input& input : inputs_) total += input.reader->records_read();
  return total;
}

namespace {

// Validates the frame at `lsn` (bounds, length, CRC) and decodes it; with
// `gsn_prefixed`, strips the gsn prefix into *order_out.
Result<LogRecord> ReadFrameAt(const LogView& view, uint64_t lsn,
                              bool gsn_prefixed, uint64_t* order_out) {
  const std::vector<uint8_t>& log = *view.bytes;
  if (lsn < view.base) {
    return Status::Corruption("lsn before truncated log head");
  }
  uint64_t rel = lsn - view.base;
  if (rel + 8 > log.size()) return Status::Corruption("lsn out of range");
  uint32_t len = LoadU32(&log[rel]);
  uint32_t crc = LoadU32(&log[rel + 4]);
  if (rel + 8 + len > log.size()) {
    return Status::Corruption("record extends past end of log");
  }
  const uint8_t* payload = &log[rel + 8];
  if (Crc32c(payload, len) != crc) {
    return Status::Corruption("record crc mismatch");
  }
  if (!gsn_prefixed) return DecodeLogRecord(payload, len);
  if (len < kGsnPrefixBytes) {
    return Status::Corruption("sharded frame too short for gsn prefix");
  }
  if (order_out != nullptr) *order_out = LoadU64(payload);
  return DecodeLogRecord(payload + kGsnPrefixBytes, len - kGsnPrefixBytes);
}

}  // namespace

Result<LogRecord> ReadRecordAt(const LogView& view, uint64_t lsn) {
  return ReadFrameAt(view, lsn, /*gsn_prefixed=*/false, nullptr);
}

Result<LogRecord> ReadRecordAt(const std::vector<uint8_t>& log, uint64_t lsn) {
  return ReadRecordAt(LogView{&log, 0}, lsn);
}

Result<LogRecord> ReadPrefixedRecordAt(const LogView& view, uint64_t lsn,
                                       uint64_t* order_out) {
  return ReadFrameAt(view, lsn, /*gsn_prefixed=*/true, order_out);
}

}  // namespace phoenix
