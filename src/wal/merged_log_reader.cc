#include "wal/merged_log_reader.h"

#include "wal/shard_router.h"

namespace phoenix {

MergedLogScan ScanShardedLog(const LogManager& log) {
  MergedLogScan scan;
  LogCursor cursor = log.Cursor(log.head_order());
  while (auto parsed = cursor.Next()) {
    scan.records.push_back(OrderedRecord{parsed->lsn, parsed->order,
                                         ShardOfLsn(parsed->lsn),
                                         std::move(parsed->record)});
  }
  scan.damage = cursor.damage();
  scan.inversions = cursor.inversions();
  return scan;
}

}  // namespace phoenix
