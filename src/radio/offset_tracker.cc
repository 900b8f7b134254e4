#include "src/radio/offset_tracker.h"

#include <algorithm>

namespace wsync {

namespace {

using Entry = std::pair<int64_t, int64_t>;

bool offset_less(const Entry& entry, int64_t offset) {
  return entry.first < offset;
}

}  // namespace

OffsetTracker::OffsetTracker(int n)
    : offsets_(static_cast<size_t>(n), kNone), lowest_(n) {}

void OffsetTracker::set(NodeId id, int64_t offset) {
  int64_t& slot = offsets_[static_cast<size_t>(id)];
  if (slot == offset) return;
  if (slot != kNone) {
    const auto it = std::lower_bound(counts_.begin(), counts_.end(), slot,
                                     offset_less);
    if (--it->second == 0) counts_.erase(it);
    --numbered_;
  }
  if (offset != kNone) {
    auto it = std::lower_bound(counts_.begin(), counts_.end(), offset,
                               offset_less);
    if (it == counts_.end() || it->first != offset) {
      it = counts_.insert(it, Entry{offset, 0});
    }
    ++it->second;
    ++numbered_;
    lowest_ = std::min(lowest_, id);
  }
  slot = offset;
}

int64_t OffsetTracker::count_at(int64_t offset) const {
  const auto it =
      std::lower_bound(counts_.begin(), counts_.end(), offset, offset_less);
  return it != counts_.end() && it->first == offset ? it->second : 0;
}

NodeId OffsetTracker::lowest_numbered() {
  const auto n = static_cast<NodeId>(offsets_.size());
  while (lowest_ < n && offsets_[static_cast<size_t>(lowest_)] == kNone) {
    ++lowest_;
  }
  return lowest_ < n ? lowest_ : kNoNode;
}

}  // namespace wsync
