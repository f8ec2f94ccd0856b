#ifndef DCER_CHASE_VIEW_H_
#define DCER_CHASE_VIEW_H_

#include <vector>

#include "relational/dataset.h"

namespace dcer {

/// A view over a subset of a dataset's rows: either the whole dataset (the
/// sequential Match) or one fragment W_i produced by HyPart (each parallel
/// worker). Rows are row indices into the underlying relations, so no tuple
/// data is copied. Each relation's rows are kept sorted and unique — the
/// order gids are assigned in — so gid lookups are a binary search (O(1)
/// where the view holds a relation's whole prefix) with no side map.
class DatasetView {
 public:
  DatasetView() = default;
  /// `rows_per_relation[r]` must be sorted and unique.
  DatasetView(const Dataset* dataset,
              std::vector<std::vector<uint32_t>> rows_per_relation)
      : dataset_(dataset), rows_(std::move(rows_per_relation)) {}

  /// View covering every row of every relation.
  static DatasetView Full(const Dataset& dataset);

  const Dataset& dataset() const { return *dataset_; }
  size_t num_relations() const { return rows_.size(); }

  /// Rows of relation `rel` visible in this view, ascending.
  const std::vector<uint32_t>& rows(size_t rel) const { return rows_[rel]; }

  /// Total visible tuples.
  size_t num_tuples() const;

  /// True if the tuple with this global id is visible.
  bool Hosts(Gid gid) const { return RowOf(gid) != kInvalidGid; }

  /// Row index (into the underlying relation) of a hosted gid; kInvalidGid
  /// cast if not hosted.
  uint32_t RowOf(Gid gid) const;

  /// Adds a tuple (incremental ER over updates ΔD, Sec. V-A Remark) in
  /// sorted position; a no-op if already visible. The gid must refer to a
  /// row already appended to the underlying dataset.
  void Append(Gid gid);

 private:
  const Dataset* dataset_ = nullptr;
  std::vector<std::vector<uint32_t>> rows_;
};

}  // namespace dcer

#endif  // DCER_CHASE_VIEW_H_
