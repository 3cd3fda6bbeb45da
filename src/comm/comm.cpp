#include "comm/comm.h"

#include <algorithm>
#include <cstring>
#include <tuple>

namespace legate::comm {

Mode parse_comm_mode(const char* s) {
  if (s == nullptr) return Mode::Unset;
  if (std::strcmp(s, "off") == 0 || std::strcmp(s, "0") == 0) return Mode::Off;
  if (std::strcmp(s, "plan") == 0 || std::strcmp(s, "on") == 0 ||
      std::strcmp(s, "1") == 0) {
    return Mode::Plan;
  }
  if (std::strcmp(s, "overlap") == 0) return Mode::Overlap;
  return Mode::Unset;
}

const char* comm_mode_name(Mode m) {
  switch (m) {
    case Mode::Unset: return "unset";
    case Mode::Off: return "off";
    case Mode::Plan: return "plan";
    case Mode::Overlap: return "overlap";
  }
  return "?";
}

void ExchangePlan::coalesce(int colors, const std::vector<int>& mem_node, bool per_link) {
  transfers.clear();
  ghost_bytes_by_color.assign(static_cast<std::size_t>(colors), 0.0);
  total_bytes = 0;
  stores.clear();

  // One transfer per modeled link, in first-appearance order (ghost order is
  // deterministic, so so is this); without `per_link`, one per ghost. The
  // representative memory pair is the first member's: intra and nvlink
  // groups share it by construction, and the engine routes cross-node copies
  // through the node NICs, so any member pair with the right nodes charges
  // identically.
  std::map<std::tuple<int, int, int>, std::size_t> index;
  for (Ghost& g : ghosts) {
    std::size_t ti = transfers.size();
    if (per_link) {
      std::tuple<int, int, int> link;
      if (g.src_mem == g.dst_mem) {
        link = {0, g.src_mem, g.src_mem};
      } else if (mem_node[static_cast<std::size_t>(g.src_mem)] ==
                 mem_node[static_cast<std::size_t>(g.dst_mem)]) {
        link = {1, g.src_mem, g.dst_mem};
      } else {
        // Cross-node groups keep source-memory granularity: the aggregate's
        // start is gated on max(src readiness) over its members, so folding
        // a whole node's memories together would couple every destination
        // to the node's slowest producer.
        link = {2, g.src_mem, mem_node[static_cast<std::size_t>(g.dst_mem)]};
      }
      ti = index.try_emplace(link, ti).first->second;
    }
    if (ti == transfers.size()) transfers.push_back(Transfer{g.src_mem, g.dst_mem, 0.0});
    transfers[ti].bytes += g.bytes;
    g.transfer = static_cast<std::uint32_t>(ti);
    ghost_bytes_by_color[static_cast<std::size_t>(g.color)] += g.bytes;
    total_bytes += g.bytes;
  }
}

namespace {
std::uint64_t slot_of(std::uint64_t key, std::uint64_t sig) {
  Hash h;
  h.mix(key);
  h.mix(sig);
  return h.digest();
}
}  // namespace

const ExchangePlan* PlanCache::lookup(std::uint64_t key, std::uint64_t sig) {
  auto it = plans_.find(slot_of(key, sig));
  if (it == plans_.end() || it->second.signature != sig) return nullptr;
  return &it->second;
}

const ExchangePlan* PlanCache::insert(std::uint64_t key, ExchangePlan plan) {
  const std::uint64_t slot = slot_of(key, plan.signature);
  if (plans_.size() >= kMaxPlans && plans_.find(slot) == plans_.end()) {
    plans_.clear();
    by_store_.clear();
  }
  for (StoreId s : plan.stores) by_store_[s].insert(slot);
  auto [it, inserted] = plans_.insert_or_assign(slot, std::move(plan));
  (void)inserted;
  return &it->second;
}

long PlanCache::invalidate_store(StoreId id) {
  auto it = by_store_.find(id);
  if (it == by_store_.end()) return 0;
  long n = 0;
  for (std::uint64_t k : it->second) n += static_cast<long>(plans_.erase(k));
  by_store_.erase(it);
  return n;
}

void PlanCache::clear() {
  plans_.clear();
  by_store_.clear();
}

}  // namespace legate::comm
