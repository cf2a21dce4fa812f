// Record storage shared by a datacenter's Replicated Dictionary log and the
// partial-log messages built from it.
//
// Records are kept per origin, ts-ascending, in fixed-capacity chunks whose
// slots are written once, front to back. A ChunkedLog refers to records
// through spans — (chunk, begin, end) — so a partial-log message takes span
// references out of the log instead of copying records: building one costs
// O(origins + chunks), and the log and every message in flight share the
// same immutable records. Garbage collection advances the first span's
// begin and drops whole spans; a chunk lives while any log or message still
// references it.
//
// An append writes the slot just past a chunk's last written record, so it
// happens in place only for the holder whose last span ends exactly there;
// every other holder reads only inside its own spans and never sees that
// slot. Otherwise the append starts a new chunk. One thread owns a log and
// the messages built from it.
//
// Records come out in RecordOrder through a k-way merge over the origins,
// done only where they are consumed (ingest, encode, snapshots).

#ifndef HELIOS_RDICT_CHUNKED_LOG_H_
#define HELIOS_RDICT_CHUNKED_LOG_H_

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/types.h"
#include "rdict/record.h"

namespace helios::rdict {

class ChunkedLog {
 public:
  /// Records per chunk.
  static constexpr uint32_t kChunkRecords = 64;

  explicit ChunkedLog(int origins)
      : by_origin_(static_cast<size_t>(origins)) {}

  int origins() const { return static_cast<int>(by_origin_.size()); }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Timestamp of the newest record held for `origin`, or the lowest
  /// Timestamp if none is held.
  Timestamp LastTs(DcId origin) const;

  /// Appends `rec` to its origin's sequence. `rec.origin` must be in
  /// [0, origins()) and `rec.ts` must exceed LastTs(rec.origin).
  void push_back(LogRecord rec);

  /// Inserts `rec` at its place in its origin's sequence, rebuilding that
  /// origin's chunks when it does not belong at the end (recovery replays
  /// only). Returns false if a record with the same (origin, ts) is held.
  bool Insert(const LogRecord& rec);

  /// Drops every record and chunk reference, keeping capacity.
  void clear();

  /// Makes this log's (empty) `origin` sequence refer to the records of
  /// `src` for `origin` with ts > `after`. Shares chunks; copies no record.
  void ShareSuffix(const ChunkedLog& src, DcId origin, Timestamp after);

  /// Drops the records of `origin` with ts <= `upto`. Returns how many.
  size_t DropPrefix(DcId origin, Timestamp upto);

  /// Calls `fn(rec)` in RecordOrder for every record with
  /// ts > `after(rec.origin)`.
  template <typename After, typename Fn>
  void ForEachAfter(const After& after, Fn&& fn) const;

  /// Calls `fn(rec)` for every record, in RecordOrder.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    ForEachAfter([](DcId) { return std::numeric_limits<Timestamp>::min(); },
                 fn);
  }

  /// Every record, in RecordOrder.
  std::vector<LogRecord> ToVector() const;

 private:
  struct Chunk {
    std::array<LogRecord, kChunkRecords> records;
    uint32_t written = 0;  ///< Slots [0, written) hold records.
  };
  /// A non-empty run [begin, end) of one chunk's records.
  struct Span {
    std::shared_ptr<Chunk> chunk;
    uint32_t begin = 0;
    uint32_t end = 0;

    const LogRecord& at(uint32_t i) const { return chunk->records[i]; }
    const LogRecord& back() const { return at(end - 1); }
  };
  using Spans = std::vector<Span>;
  /// A record position: span index, then slot in that span's chunk.
  struct Pos {
    size_t span = 0;
    uint32_t slot = 0;
  };

  /// Position of the first record in `spans` with ts > `after`
  /// ({spans.size(), 0} if there is none).
  static Pos UpperBound(const Spans& spans, Timestamp after);

  std::vector<Spans> by_origin_;
  size_t size_ = 0;
};

template <typename After, typename Fn>
void ChunkedLog::ForEachAfter(const After& after, Fn&& fn) const {
  struct Cursor {
    const Span* span;
    const Span* last;
    uint32_t slot;
    const LogRecord& rec() const { return span->at(slot); }
  };
  // Cursors stay in origin order, so the lowest origin wins a timestamp
  // tie, as RecordOrder requires.
  std::vector<Cursor> live;
  for (DcId o = 0; o < origins(); ++o) {
    const Spans& spans = by_origin_[static_cast<size_t>(o)];
    const Pos from = UpperBound(spans, after(o));
    if (from.span == spans.size()) continue;
    live.push_back(
        {&spans[from.span], spans.data() + spans.size(), from.slot});
  }
  // k = origins is small, so a linear scan per record beats a heap.
  while (!live.empty()) {
    size_t best = 0;
    for (size_t c = 1; c < live.size(); ++c) {
      if (live[c].rec().ts < live[best].rec().ts) best = c;
    }
    Cursor& cur = live[best];
    fn(cur.rec());
    if (++cur.slot < cur.span->end) continue;
    if (++cur.span == cur.last) {
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(best));
    } else {
      cur.slot = cur.span->begin;
    }
  }
}

}  // namespace helios::rdict

#endif  // HELIOS_RDICT_CHUNKED_LOG_H_
