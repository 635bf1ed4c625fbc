// SpillStore: a paged, buffer-pooled row store that overflows to a temp file
// once the in-memory budget is exhausted. This is the repository's stand-in
// for the paper's BerkeleyDB backing store: local joins run at memory speed
// within budget and pay real file I/O once they overflow, reproducing the
// paper's "overflow to disk" performance cliff.

#pragma once

#include <cstdint>
#include <cstdio>
#include <list>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/tuple/row.h"

namespace ajoin {

/// Counters exposed for tests and benchmarks.
struct SpillStats {
  uint64_t appended_rows = 0;
  uint64_t page_writes = 0;   // pages written to disk
  uint64_t page_faults = 0;   // pages read back from disk
};

/// Append-only row storage with stable dense ids and page-granular spilling.
///
/// Rows are serialized into fixed-size pages. Pages beyond the memory budget
/// are flushed to a temp file and evicted LRU; Materialize() faults them back.
class SpillStore {
 public:
  /// budget_bytes: resident page budget (0 = unbounded, never spills).
  /// Spilled pages go to an anonymous std::tmpfile.
  explicit SpillStore(size_t budget_bytes = 0);
  ~SpillStore();

  SpillStore(const SpillStore&) = delete;
  SpillStore& operator=(const SpillStore&) = delete;

  /// Appends a row; returns its id (dense, starting at 0).
  uint64_t Append(const Row& row);

  /// Materializes a row by id (may fault a page in from disk).
  Row Materialize(uint64_t id);

  /// Returns a pointer to the row if its page is resident, else nullptr.
  /// The pointer is invalidated by any Append/Materialize call.
  const Row* TryGetResident(uint64_t id) const;

  /// Iterates all rows in id order (page-sequential for spilled pages).
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (uint64_t id = 0; id < index_.size(); ++id) {
      fn(id, Materialize(id));
    }
  }

  size_t size() const { return index_.size(); }
  /// Total logical bytes appended (the storage footprint a machine accounts).
  size_t logical_bytes() const { return logical_bytes_; }
  size_t resident_bytes() const { return resident_bytes_; }
  /// Number of pages currently evicted to disk.
  size_t SpilledPages() const {
    size_t n = 0;
    for (const auto& p : pages_) n += p.resident ? 0 : 1;
    return n;
  }
  const SpillStats& stats() const { return stats_; }

 private:
  static constexpr size_t kPageSize = 64 * 1024;

  struct Page {
    std::vector<uint8_t> data;     // serialized rows
    std::vector<Row> rows;         // decoded cache when resident
    bool resident = true;
    bool on_disk = false;
    long file_offset = -1;
    size_t disk_size = 0;
  };

  struct RowRef {
    uint32_t page;
    uint32_t slot;
  };

  void SealCurrentPage();
  /// Evicts LRU pages until under budget; never evicts protect_page.
  void EvictIfOverBudget(int64_t protect_page = -1);
  void FaultIn(uint32_t page_no);
  void EvictPage(uint32_t page_no);

  size_t budget_bytes_;
  std::FILE* file_ = nullptr;
  std::vector<Page> pages_;
  std::vector<RowRef> index_;
  size_t logical_bytes_ = 0;
  size_t resident_bytes_ = 0;
  std::list<uint32_t> lru_;  // resident sealed pages, front = oldest
  std::unordered_map<uint32_t, std::list<uint32_t>::iterator> lru_pos_;
  SpillStats stats_;
};

}  // namespace ajoin
