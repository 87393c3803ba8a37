#ifndef PHOENIX_WAL_MERGED_LOG_READER_H_
#define PHOENIX_WAL_MERGED_LOG_READER_H_

#include <cstdint>
#include <vector>

#include "wal/log_manager.h"
#include "wal/log_reader.h"
#include "wal/log_record.h"

namespace phoenix {

// A record from one shard of a WAL, positioned both physically (composite
// lsn) and in append order.
struct OrderedRecord {
  uint64_t lsn = 0;    // composite: shard id << 48 | shard-local offset
  uint64_t order = 0;  // gsn on a sharded log, the lsn on a single log
  uint32_t shard = 0;
  LogRecord record;
};

// A whole log materialized in append order, with the cursor's salvage
// report. `inversions` counts adjacent pairs within one shard whose orders
// were NOT ascending (a healthy log always yields 0; a nonzero count means
// frames were re-stamped or the storage reordered writes).
struct MergedLogScan {
  std::vector<OrderedRecord> records;  // ascending by order
  std::vector<ShardDamage> damage;     // only shards with salvage issues
  uint64_t inversions = 0;

  bool any_salvage() const { return !damage.empty(); }
};

// Materializes log.Cursor() over the whole retained stable log — every
// shard from its head, or the single log from its head. For tools and
// tests; recovery streams the cursor instead.
MergedLogScan ScanShardedLog(const LogManager& log);

}  // namespace phoenix

#endif  // PHOENIX_WAL_MERGED_LOG_READER_H_
