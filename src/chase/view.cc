#include "chase/view.h"

#include <algorithm>
#include <numeric>

namespace dcer {

DatasetView DatasetView::Full(const Dataset& dataset) {
  std::vector<std::vector<uint32_t>> rows(dataset.num_relations());
  for (size_t r = 0; r < dataset.num_relations(); ++r) {
    rows[r].resize(dataset.relation(r).num_rows());
    std::iota(rows[r].begin(), rows[r].end(), 0);
  }
  return DatasetView(&dataset, std::move(rows));
}

size_t DatasetView::num_tuples() const {
  size_t total = 0;
  for (const auto& r : rows_) total += r.size();
  return total;
}

uint32_t DatasetView::RowOf(Gid gid) const {
  if (gid >= dataset_->num_tuples()) return kInvalidGid;
  const TupleLoc loc = dataset_->loc(gid);
  if (loc.relation >= rows_.size()) return kInvalidGid;
  const std::vector<uint32_t>& rows = rows_[loc.relation];
  // Sorted unique rows have rows[i] >= i, equal iff rows 0..i are all
  // present: a relation the view covers in full answers without a search.
  if (loc.row < rows.size() && rows[loc.row] == loc.row) return loc.row;
  return std::binary_search(rows.begin(), rows.end(), loc.row) ? loc.row
                                                               : kInvalidGid;
}

void DatasetView::Append(Gid gid) {
  const TupleLoc loc = dataset_->loc(gid);
  if (loc.relation >= rows_.size()) rows_.resize(loc.relation + 1);
  std::vector<uint32_t>& rows = rows_[loc.relation];
  auto it = std::lower_bound(rows.begin(), rows.end(), loc.row);
  if (it == rows.end() || *it != loc.row) rows.insert(it, loc.row);
}

}  // namespace dcer
