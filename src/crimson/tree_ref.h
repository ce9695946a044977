// TreeRef: an opaque, copyable handle to a tree loaded in a Crimson
// session. A TreeRef is bound once (at load/open time) and then used
// for every query against the tree, so the per-query string lookup of
// the old facade disappears. It carries the stored tree's id, which
// the database never hands out again: a ref names one unchanging tree
// and, once that tree is dropped, fails with NotFound even if the name
// is stored again. Refs are only meaningful within the session that
// issued them.

#ifndef CRIMSON_CRIMSON_TREE_REF_H_
#define CRIMSON_CRIMSON_TREE_REF_H_

#include <cstdint>

namespace crimson {

class Crimson;

class TreeRef {
 public:
  /// Default-constructed refs are invalid; obtain real ones from
  /// Crimson::LoadNewick/LoadNexus/LoadTree/OpenTree.
  constexpr TreeRef() = default;

  constexpr bool valid() const { return id_ != 0; }
  constexpr uint64_t id() const { return id_; }

  friend constexpr bool operator==(TreeRef a, TreeRef b) {
    return a.id_ == b.id_;
  }
  friend constexpr bool operator!=(TreeRef a, TreeRef b) {
    return a.id_ != b.id_;
  }

 private:
  friend class Crimson;
  constexpr explicit TreeRef(uint64_t id) : id_(id) {}

  uint64_t id_ = 0;
};

}  // namespace crimson

#endif  // CRIMSON_CRIMSON_TREE_REF_H_
