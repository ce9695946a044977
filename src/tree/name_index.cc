#include "tree/name_index.h"

#include <algorithm>
#include <cassert>

namespace crimson {

namespace {

// FNV-1a 64; names are short (species labels), so the byte loop beats
// fancier mixers once the table is cache-resident.
uint64_t HashName(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

size_t NextPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

NameIndex NameIndex::Build(const PhyloTree& tree) {
  NameIndex index;
  if (tree.empty()) return index;
  // <= 50% load factor keeps linear-probe chains short.
  size_t cap = NextPow2(std::max<size_t>(16, tree.size() * 2));
  index.slots_.assign(cap, Slot{});
  index.mask_ = cap - 1;
  const char* arena = tree.name_arena().c_str();
  for (NodeId n = 0; n < tree.size(); ++n) {
    uint32_t off = tree.name_offset(n);
    if (off == 0) {  // empty names are not indexed
      if (tree.is_leaf(n)) index.has_unnamed_leaf_ = true;
      continue;
    }
    std::string_view name(arena + off);
    uint64_t h = HashName(name) & index.mask_;
    for (;;) {
      Slot& slot = index.slots_[h];
      if (slot.first_node == kNoNode) {
        slot.offset = off;
        slot.len = static_cast<uint32_t>(name.size());
        slot.first_node = n;
        if (tree.is_leaf(n)) slot.first_leaf = n;
        ++index.used_;
        break;
      }
      if (slot.len == name.size() &&
          std::string_view(arena + slot.offset, slot.len) == name) {
        // Ascending scan: first_node/first_leaf keep the lowest id.
        if (tree.is_leaf(n)) {
          if (slot.first_leaf == kNoNode) {
            slot.first_leaf = n;
          } else {
            // A second leaf with this name: record the span once.
            if (index.duplicate_leaf_names_.empty() ||
                index.duplicate_leaf_names_.back() != slot.offset) {
              index.duplicate_leaf_names_.push_back(slot.offset);
            }
          }
        }
        break;
      }
      h = (h + 1) & index.mask_;
    }
  }
  // The back-dedup above only catches immediate repeats; make it exact.
  std::sort(index.duplicate_leaf_names_.begin(),
            index.duplicate_leaf_names_.end());
  index.duplicate_leaf_names_.erase(
      std::unique(index.duplicate_leaf_names_.begin(),
                  index.duplicate_leaf_names_.end()),
      index.duplicate_leaf_names_.end());
  return index;
}

const NameIndex::Slot* NameIndex::Probe(const PhyloTree& tree,
                                        std::string_view name) const {
  if (slots_.empty()) return nullptr;
  const char* arena = tree.name_arena().c_str();
  uint64_t h = HashName(name) & mask_;
  for (;;) {
    const Slot& slot = slots_[h];
    if (slot.first_node == kNoNode) return nullptr;
    if (slot.len == name.size() &&
        std::string_view(arena + slot.offset, slot.len) == name) {
      return &slot;
    }
    h = (h + 1) & mask_;
  }
}

NodeId NameIndex::Find(const PhyloTree& tree, std::string_view name) const {
  if (name.empty()) return tree.FindByName(name);  // FindByName("") parity
  const Slot* slot = Probe(tree, name);
  return slot != nullptr ? slot->first_node : kNoNode;
}

NodeId NameIndex::FindLeaf(const PhyloTree& tree,
                           std::string_view name) const {
  if (name.empty()) {
    for (NodeId n = 0; n < tree.size(); ++n) {
      if (tree.is_leaf(n) && tree.name(n).empty()) return n;
    }
    return kNoNode;
  }
  const Slot* slot = Probe(tree, name);
  return slot != nullptr ? slot->first_leaf : kNoNode;
}

std::vector<std::string> NameIndex::DuplicateLeafNames(
    const PhyloTree& tree) const {
  std::vector<std::string> out;
  out.reserve(duplicate_leaf_names_.size());
  const char* arena = tree.name_arena().c_str();
  for (uint32_t off : duplicate_leaf_names_) {
    out.emplace_back(arena + off);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> NameIndex::SortedLeafNames(
    const PhyloTree& tree) const {
  // Sort views into the arena, then copy each name once.
  std::vector<std::string_view> views;
  views.reserve(used_);
  const char* arena = tree.name_arena().c_str();
  for (const Slot& slot : slots_) {
    if (slot.first_node != kNoNode && slot.first_leaf != kNoNode) {
      views.emplace_back(arena + slot.offset, slot.len);
    }
  }
  std::sort(views.begin(), views.end());
  std::vector<std::string> out;
  out.reserve(views.size() + 1);
  if (has_unnamed_leaf_) out.emplace_back();
  for (std::string_view name : views) out.emplace_back(name);
  return out;
}

}  // namespace crimson
