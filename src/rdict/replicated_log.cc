#include "rdict/replicated_log.h"

#include <cassert>
#include <cstdio>

namespace helios::rdict {

std::string LogRecord::ToString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s(txn=%s ts=%lld origin=%d%s)",
                type == RecordType::kPreparing ? "prep" : "fin",
                body ? body->id.ToString().c_str() : "?",
                static_cast<long long>(ts), origin,
                type == RecordType::kFinished
                    ? (committed ? " committed" : " aborted")
                    : "");
  return buf;
}

ReplicatedLog::ReplicatedLog(DcId self, int n)
    : self_(self), n_(n), table_(n), log_(n) {
  assert(self >= 0 && self < n);
}

Status ReplicatedLog::AppendLocal(const LogRecord& rec) {
  if (rec.origin != self_) {
    return Status::InvalidArgument("AppendLocal with foreign origin");
  }
  if (rec.ts <= table_.Get(self_, self_)) {
    return Status::InvalidArgument(
        "record timestamps must be strictly increasing per origin");
  }
  log_.push_back(rec);
  table_.Set(self_, self_, rec.ts);
  ++total_appended_;
  return Status::Ok();
}

void ReplicatedLog::BuildMessageInto(DcId peer, LogMessage* out) const {
  out->from = self_;
  out->table = table_;
  out->records.clear();
  // Per origin, the timetable proves `peer` has everything with
  // ts <= T[peer][origin]; only the suffix above that bound is sent.
  for (DcId origin = 0; origin < n_; ++origin) {
    out->records.ShareSuffix(log_, origin, table_.Get(peer, origin));
  }
}

LogMessage ReplicatedLog::BuildMessageFor(DcId peer) const {
  LogMessage msg(n_);
  BuildMessageInto(peer, &msg);
  return msg;
}

std::vector<LogRecord> ReplicatedLog::Ingest(const LogMessage& msg) {
  assert(msg.records.origins() <= n_);
  std::vector<LogRecord> fresh;
  // Records at or below T[self][origin] are duplicates.
  msg.records.ForEachAfter(
      [this](DcId origin) { return table_.Get(self_, origin); },
      [this, &fresh](const LogRecord& rec) {
        log_.push_back(rec);
        fresh.push_back(rec);
      });
  // Note: the timetable merge below absorbs the sender's row, which covers
  // all records in the message; per-record Advance is not needed.
  table_.MergeFrom(msg.table, self_, msg.from);
  return fresh;
}

void ReplicatedLog::RestoreRecord(const LogRecord& rec) {
  // Keep the record even when knowledge already covers it (it may still
  // need retransmission to peers).
  log_.Insert(rec);
  if (table_.HasRecord(self_, rec.origin, rec.ts)) return;
  table_.Advance(self_, rec.origin, rec.ts);
  if (rec.origin == self_) ++total_appended_;
}

void ReplicatedLog::RestoreTimetable(const Timetable& table) {
  for (DcId i = 0; i < n_; ++i) {
    for (DcId j = 0; j < n_; ++j) {
      table_.Advance(i, j, table.Get(i, j));
    }
  }
}

size_t ReplicatedLog::GarbageCollect() {
  // Everything at or below MinColumn(origin) is known everywhere: drop
  // the per-origin prefix.
  size_t dropped = 0;
  for (DcId origin = 0; origin < n_; ++origin) {
    dropped += log_.DropPrefix(origin, table_.MinColumn(origin));
  }
  return dropped;
}

std::vector<LogRecord> ReplicatedLog::Snapshot() const {
  return log_.ToVector();
}

}  // namespace helios::rdict
