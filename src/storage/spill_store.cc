#include "src/storage/spill_store.h"

#include "src/common/logging.h"
#include "src/tuple/serde.h"

namespace ajoin {

SpillStore::SpillStore(size_t budget_bytes)
    : budget_bytes_(budget_bytes) {
  pages_.emplace_back();  // open page
}

SpillStore::~SpillStore() {
  if (file_ != nullptr) std::fclose(file_);
}

uint64_t SpillStore::Append(const Row& row) {
  Page& page = pages_.back();
  size_t before = page.data.size();
  SerializeRow(row, &page.data);
  size_t row_bytes = page.data.size() - before;
  page.rows.push_back(row);
  logical_bytes_ += row_bytes;
  resident_bytes_ += row_bytes;
  index_.push_back(RowRef{static_cast<uint32_t>(pages_.size() - 1),
                          static_cast<uint32_t>(page.rows.size() - 1)});
  stats_.appended_rows++;
  if (page.data.size() >= kPageSize) {
    SealCurrentPage();
    EvictIfOverBudget();
  }
  return index_.size() - 1;
}

void SpillStore::SealCurrentPage() {
  uint32_t sealed = static_cast<uint32_t>(pages_.size() - 1);
  lru_.push_back(sealed);
  lru_pos_[sealed] = std::prev(lru_.end());
  pages_.emplace_back();
}

void SpillStore::EvictIfOverBudget(int64_t protect_page) {
  if (budget_bytes_ == 0) return;
  auto it = lru_.begin();
  while (resident_bytes_ > budget_bytes_ && it != lru_.end()) {
    uint32_t victim = *it;
    if (static_cast<int64_t>(victim) == protect_page) {
      // Pinned: the caller is about to read from this page.
      ++it;
      continue;
    }
    it = lru_.erase(it);
    lru_pos_.erase(victim);
    EvictPage(victim);
  }
}

void SpillStore::EvictPage(uint32_t page_no) {
  Page& page = pages_[page_no];
  if (!page.resident) return;
  if (file_ == nullptr) {
    file_ = std::tmpfile();
    AJOIN_CHECK_MSG(file_ != nullptr, "failed to open spill file");
  }
  if (!page.on_disk) {
    AJOIN_CHECK(std::fseek(file_, 0, SEEK_END) == 0);
    page.file_offset = std::ftell(file_);
    page.disk_size = page.data.size();
    size_t written = std::fwrite(page.data.data(), 1, page.data.size(), file_);
    AJOIN_CHECK_MSG(written == page.data.size(), "spill write failed");
    page.on_disk = true;
    stats_.page_writes++;
  }
  resident_bytes_ -= page.data.size();
  page.data.clear();
  page.data.shrink_to_fit();
  page.rows.clear();
  page.rows.shrink_to_fit();
  page.resident = false;
}

void SpillStore::FaultIn(uint32_t page_no) {
  Page& page = pages_[page_no];
  if (page.resident) return;
  page.data.resize(page.disk_size);
  AJOIN_CHECK(std::fseek(file_, page.file_offset, SEEK_SET) == 0);
  size_t got = std::fread(page.data.data(), 1, page.disk_size, file_);
  AJOIN_CHECK_MSG(got == page.disk_size, "spill read failed");
  size_t offset = 0;
  while (offset < page.data.size()) {
    auto row = DeserializeRow(page.data, &offset);
    AJOIN_CHECK_MSG(row.ok(), "corrupt spill page");
    page.rows.push_back(row.take());
  }
  page.resident = true;
  resident_bytes_ += page.data.size();
  stats_.page_faults++;
  lru_.push_back(page_no);
  lru_pos_[page_no] = std::prev(lru_.end());
  EvictIfOverBudget(/*protect_page=*/page_no);
}

Row SpillStore::Materialize(uint64_t id) {
  const RowRef& ref = index_[id];
  Page& page = pages_[ref.page];
  if (!page.resident) {
    FaultIn(ref.page);
  } else {
    // Touch in LRU (sealed pages only; the open page is never in the list).
    auto it = lru_pos_.find(ref.page);
    if (it != lru_pos_.end()) {
      lru_.erase(it->second);
      lru_.push_back(ref.page);
      it->second = std::prev(lru_.end());
    }
  }
  return pages_[ref.page].rows[ref.slot];
}

const Row* SpillStore::TryGetResident(uint64_t id) const {
  const RowRef& ref = index_[id];
  const Page& page = pages_[ref.page];
  if (!page.resident) return nullptr;
  return &page.rows[ref.slot];
}

}  // namespace ajoin
