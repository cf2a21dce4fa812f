#include "rdict/chunked_log.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace helios::rdict {

ChunkedLog::Pos ChunkedLog::UpperBound(const Spans& spans, Timestamp after) {
  const auto span = std::partition_point(
      spans.begin(), spans.end(),
      [after](const Span& s) { return s.back().ts <= after; });
  if (span == spans.end()) return {spans.size(), 0};
  const LogRecord* first = &span->at(span->begin);
  const LogRecord* slot = std::upper_bound(
      first, first + (span->end - span->begin), after,
      [](Timestamp ts, const LogRecord& r) { return ts < r.ts; });
  return {static_cast<size_t>(span - spans.begin()),
          span->begin + static_cast<uint32_t>(slot - first)};
}

Timestamp ChunkedLog::LastTs(DcId origin) const {
  const Spans& spans = by_origin_[static_cast<size_t>(origin)];
  return spans.empty() ? std::numeric_limits<Timestamp>::min()
                       : spans.back().back().ts;
}

void ChunkedLog::push_back(LogRecord rec) {
  assert(rec.origin >= 0 && rec.origin < origins());
  assert(rec.ts > LastTs(rec.origin));
  Spans& spans = by_origin_[static_cast<size_t>(rec.origin)];
  if (spans.empty() || spans.back().end != spans.back().chunk->written ||
      spans.back().end == kChunkRecords) {
    spans.push_back(Span{std::make_shared<Chunk>(), 0, 0});
  }
  Span& tail = spans.back();
  tail.chunk->records[tail.end] = std::move(rec);
  tail.chunk->written = ++tail.end;
  ++size_;
}

bool ChunkedLog::Insert(const LogRecord& rec) {
  if (rec.ts > LastTs(rec.origin)) {
    push_back(rec);
    return true;
  }
  Spans& spans = by_origin_[static_cast<size_t>(rec.origin)];
  const Pos at = UpperBound(spans, rec.ts - 1);
  if (spans[at.span].at(at.slot).ts == rec.ts) return false;
  std::vector<LogRecord> records;
  for (const Span& s : spans) {
    const LogRecord* first = &s.at(s.begin);
    records.insert(records.end(), first, first + (s.end - s.begin));
  }
  records.insert(std::upper_bound(records.begin(), records.end(), rec,
                                  RecordOrder()),
                 rec);
  size_ -= records.size() - 1;
  spans.clear();
  for (const LogRecord& r : records) push_back(r);
  return true;
}

void ChunkedLog::clear() {
  for (Spans& spans : by_origin_) spans.clear();
  size_ = 0;
}

void ChunkedLog::ShareSuffix(const ChunkedLog& src, DcId origin,
                             Timestamp after) {
  Spans& out = by_origin_[static_cast<size_t>(origin)];
  assert(out.empty());
  const Spans& from = src.by_origin_[static_cast<size_t>(origin)];
  const Pos first = UpperBound(from, after);
  for (size_t i = first.span; i < from.size(); ++i) {
    out.push_back(from[i]);
    if (i == first.span) out.back().begin = first.slot;
    size_ += out.back().end - out.back().begin;
  }
}

size_t ChunkedLog::DropPrefix(DcId origin, Timestamp upto) {
  Spans& spans = by_origin_[static_cast<size_t>(origin)];
  const Pos keep = UpperBound(spans, upto);
  size_t dropped = 0;
  for (size_t i = 0; i < keep.span; ++i) {
    dropped += spans[i].end - spans[i].begin;
  }
  if (keep.span < spans.size()) {
    dropped += keep.slot - spans[keep.span].begin;
    spans[keep.span].begin = keep.slot;
  }
  spans.erase(spans.begin(),
              spans.begin() + static_cast<std::ptrdiff_t>(keep.span));
  size_ -= dropped;
  return dropped;
}

std::vector<LogRecord> ChunkedLog::ToVector() const {
  std::vector<LogRecord> out;
  out.reserve(size_);
  ForEach([&out](const LogRecord& rec) { out.push_back(rec); });
  return out;
}

}  // namespace helios::rdict
