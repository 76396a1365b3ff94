#include "interpret/region_index.h"

#include <algorithm>

#include "util/check.h"

namespace openapi::interpret {
namespace {

constexpr int32_t kNoNode = -1;

/// Region batch size held by one k-d leaf.
constexpr size_t kLeafCapacity = 8;

}  // namespace

RegionIndex::RegionIndex(size_t dim) : dim_(dim) {
  OPENAPI_CHECK_GT(dim_, 0u);
}

bool RegionIndex::BoxContains(const double* lo, const double* hi,
                              const Vec& x) const {
  for (size_t j = 0; j < dim_; ++j) {
    if (x[j] < lo[j] || x[j] > hi[j]) return false;
  }
  return true;
}

void RegionIndex::ExpandBox(double* lo, double* hi, const double* add_lo,
                            const double* add_hi) const {
  for (size_t j = 0; j < dim_; ++j) {
    lo[j] = std::min(lo[j], add_lo[j]);
    hi[j] = std::max(hi[j], add_hi[j]);
  }
}

void RegionIndex::Insert(size_t slot, const Vec& lo, const Vec& hi) {
  OPENAPI_CHECK_EQ(lo.size(), dim_);
  OPENAPI_CHECK_EQ(hi.size(), dim_);
  OPENAPI_CHECK(!contains(slot));
  if (slot >= entries_.size()) {
    entries_.resize(slot + 1);
    entry_bounds_.resize((slot + 1) * 2 * dim_);
  }
  std::copy(lo.begin(), lo.end(), EntryLo(slot));
  std::copy(hi.begin(), hi.end(), EntryHi(slot));
  ++live_;
  InsertIntoForest(slot);
}

void RegionIndex::Remove(size_t slot) {
  OPENAPI_CHECK(contains(slot));
  // Detach from the leaf first; a rebuild below re-derives the entries
  // of the OTHER slots, so this one must already be gone from the tree.
  Entry& entry = entries_[slot];
  Tree* tree = entry.tree;
  Node& leaf = tree->nodes[entry.leaf];
  entry = Entry{};
  --live_;
  auto it = std::find(leaf.slots.begin(), leaf.slots.end(),
                      static_cast<uint32_t>(slot));
  OPENAPI_CHECK(it != leaf.slots.end());
  leaf.slots.erase(it);
  --tree->live;
  auto owner = std::find_if(
      forest_.begin(), forest_.end(),
      [tree](const std::unique_ptr<Tree>& t) { return t.get() == tree; });
  OPENAPI_CHECK(owner != forest_.end());
  if (tree->live == 0) {
    forest_.erase(owner);
  } else if (tree->live * 2 < tree->built) {
    // Over half the built slots are gone: rebuild compactly so stale
    // bounds and empty leaves cannot accumulate (amortized O(log n) per
    // removal — a slot is rebuilt only after as many removals).
    std::vector<uint32_t> survivors;
    AppendLiveSlots(*tree, &survivors);
    *owner = BuildTree(std::move(survivors));
  }
}

void RegionIndex::Expand(size_t slot, const Vec& x) { Expand(slot, x, x); }

void RegionIndex::Expand(size_t slot, const Vec& lo, const Vec& hi) {
  OPENAPI_CHECK(contains(slot));
  OPENAPI_CHECK_EQ(lo.size(), dim_);
  ExpandBox(EntryLo(slot), EntryHi(slot), lo.data(), hi.data());
  const Entry& entry = entries_[slot];
  RefitUp(entry.tree, entry.leaf, EntryLo(slot), EntryHi(slot));
}

void RegionIndex::Clear() {
  entries_.clear();
  entry_bounds_.clear();
  forest_.clear();
  live_ = 0;
}

void RegionIndex::AppendLiveSlots(const Tree& tree,
                                  std::vector<uint32_t>* out) {
  for (const Node& node : tree.nodes) {
    out->insert(out->end(), node.slots.begin(), node.slots.end());
  }
}

void RegionIndex::InsertIntoForest(size_t slot) {
  forest_.push_back(BuildTree({static_cast<uint32_t>(slot)}));
  // Binary-counter merge: combining trees of comparable size keeps every
  // slot's lifetime rebuild count logarithmic and the forest at O(log n)
  // trees, independent of insertion order.
  while (forest_.size() >= 2 &&
         forest_[forest_.size() - 2]->live <= forest_.back()->live) {
    std::vector<uint32_t> merged;
    AppendLiveSlots(*forest_[forest_.size() - 2], &merged);
    AppendLiveSlots(*forest_.back(), &merged);
    forest_.pop_back();
    forest_.pop_back();
    forest_.push_back(BuildTree(std::move(merged)));
  }
}

std::unique_ptr<RegionIndex::Tree> RegionIndex::BuildTree(
    std::vector<uint32_t> slots) {
  OPENAPI_CHECK(!slots.empty());
  auto tree = std::make_unique<Tree>();
  tree->live = tree->built = slots.size();
  // Worst-case node count of the median split: one leaf per
  // ceil(n / kLeafCapacity) plus internals — reserve so node pointers
  // handed to BuildNode's recursion stay valid (indices are used, but
  // reserving avoids reallocation churn).
  const size_t cap = 2 * (slots.size() / kLeafCapacity + 2);
  tree->nodes.reserve(cap);
  tree->bounds.reserve(cap * 2 * dim_);
  BuildNode(tree.get(), slots.data(), slots.size(), kNoNode);
  return tree;
}

int32_t RegionIndex::BuildNode(Tree* tree, uint32_t* slots, size_t count,
                               int32_t parent) {
  const int32_t id = static_cast<int32_t>(tree->nodes.size());
  tree->nodes.emplace_back();
  tree->nodes[id].parent = parent;
  tree->bounds.resize((static_cast<size_t>(id) + 1) * 2 * dim_);
  // A node's bound covers everything below it (expand-only afterwards):
  // a leaf's its slots' boxes, an internal node's its two children's.
  if (count <= kLeafCapacity) {
    double* lo = NodeLo(tree, id, dim_);
    double* hi = lo + dim_;
    std::copy(EntryLo(slots[0]), EntryLo(slots[0]) + dim_, lo);
    std::copy(EntryHi(slots[0]), EntryHi(slots[0]) + dim_, hi);
    for (size_t i = 1; i < count; ++i) {
      ExpandBox(lo, hi, EntryLo(slots[i]), EntryHi(slots[i]));
    }
    tree->nodes[id].slots.assign(slots, slots + count);
    for (size_t i = 0; i < count; ++i) entries_[slots[i]] = Entry{tree, id};
    return id;
  }
  // Median split on the dimension with the widest spread of box centers:
  // the classic balanced k-d construction, O(n log n) total.
  size_t split_dim = 0;
  double best_spread = -1.0;
  for (size_t j = 0; j < dim_; ++j) {
    double lo = EntryLo(slots[0])[j] + EntryHi(slots[0])[j];
    double hi = lo;
    for (size_t i = 1; i < count; ++i) {
      const double center2 = EntryLo(slots[i])[j] + EntryHi(slots[i])[j];
      lo = std::min(lo, center2);
      hi = std::max(hi, center2);
    }
    if (hi - lo > best_spread) {
      best_spread = hi - lo;
      split_dim = j;
    }
  }
  const size_t mid = count / 2;
  std::nth_element(slots, slots + mid, slots + count,
                   [this, split_dim](uint32_t a, uint32_t b) {
                     const double ca =
                         EntryLo(a)[split_dim] + EntryHi(a)[split_dim];
                     const double cb =
                         EntryLo(b)[split_dim] + EntryHi(b)[split_dim];
                     if (ca != cb) return ca < cb;
                     return a < b;  // deterministic tie-break
                   });
  const int32_t left = BuildNode(tree, slots, mid, id);
  const int32_t right = BuildNode(tree, slots + mid, count - mid, id);
  Node& node = tree->nodes[id];
  node.left = left;
  node.right = right;
  double* lo = NodeLo(tree, id, dim_);
  std::copy(NodeLo(tree, left, dim_), NodeLo(tree, left, dim_) + 2 * dim_,
            lo);
  const double* right_lo = NodeLo(tree, right, dim_);
  ExpandBox(lo, lo + dim_, right_lo, right_lo + dim_);
  return id;
}

void RegionIndex::RefitUp(Tree* tree, int32_t node, const double* lo,
                          const double* hi) const {
  while (node != kNoNode) {
    double* nlo = NodeLo(tree, node, dim_);
    double* nhi = nlo + dim_;
    bool covered = true;
    for (size_t j = 0; j < dim_; ++j) {
      if (lo[j] < nlo[j]) {
        nlo[j] = lo[j];
        covered = false;
      }
      if (hi[j] > nhi[j]) {
        nhi[j] = hi[j];
        covered = false;
      }
    }
    // Parent bounds always cover child bounds, so the first ancestor that
    // already covers the expansion ends the walk.
    if (covered) return;
    node = tree->nodes[node].parent;
  }
}

void RegionIndex::StabTree(const Tree& tree, const Vec& x,
                           std::vector<int32_t>* pending,
                           std::vector<size_t>* out) const {
  pending->push_back(0);
  while (!pending->empty()) {
    const int32_t id = pending->back();
    pending->pop_back();
    const double* nlo =
        tree.bounds.data() + static_cast<size_t>(id) * 2 * dim_;
    if (!BoxContains(nlo, nlo + dim_, x)) continue;
    const Node& node = tree.nodes[id];
    if (node.left == kNoNode) {
      for (uint32_t slot : node.slots) {
        if (BoxContains(EntryLo(slot), EntryHi(slot), x)) out->push_back(slot);
      }
      continue;
    }
    pending->push_back(node.left);
    pending->push_back(node.right);
  }
}

void RegionIndex::Collect(const Vec& x, std::vector<size_t>* out) const {
  OPENAPI_CHECK_EQ(x.size(), dim_);
  // One explicit stack for every tree's walk: depth is logarithmic for
  // balanced trees, but the walk should not gamble the C++ stack on it.
  std::vector<int32_t> pending;
  for (const auto& tree : forest_) StabTree(*tree, x, &pending, out);
}

size_t RegionIndex::tree_count() const { return forest_.size(); }

size_t RegionIndex::node_count() const {
  size_t count = 0;
  for (const auto& tree : forest_) count += tree->nodes.size();
  return count;
}

void RegionIndex::CheckConsistent() const {
  // Every present entry points at the leaf actually holding it, once.
  size_t present = 0;
  for (size_t slot = 0; slot < entries_.size(); ++slot) {
    const Entry& entry = entries_[slot];
    if (entry.tree == nullptr) {
      OPENAPI_CHECK_EQ(entry.leaf, kNoNode);
      continue;
    }
    ++present;
    const Node& leaf = entry.tree->nodes[entry.leaf];
    OPENAPI_CHECK(leaf.left == kNoNode);
    OPENAPI_CHECK(std::count(leaf.slots.begin(), leaf.slots.end(),
                             static_cast<uint32_t>(slot)) == 1);
  }
  OPENAPI_CHECK_EQ(present, live_);
  size_t stored_total = 0;
  for (const auto& tree : forest_) {
    size_t stored = 0;
    OPENAPI_CHECK_EQ(tree->bounds.size(), tree->nodes.size() * 2 * dim_);
    for (size_t id = 0; id < tree->nodes.size(); ++id) {
      const Node& node = tree->nodes[id];
      const double* nlo = tree->bounds.data() + id * 2 * dim_;
      const double* nhi = nlo + dim_;
      if (node.left == kNoNode) {
        OPENAPI_CHECK(node.right == kNoNode);
        stored += node.slots.size();
        for (uint32_t slot : node.slots) {
          const Entry& entry = entries_[slot];
          OPENAPI_CHECK(entry.tree == tree.get());
          OPENAPI_CHECK_EQ(entry.leaf, static_cast<int32_t>(id));
          // Node bounds cover their payload (stab soundness).
          for (size_t j = 0; j < dim_; ++j) {
            OPENAPI_CHECK_LE(nlo[j], EntryLo(slot)[j]);
            OPENAPI_CHECK_GE(nhi[j], EntryHi(slot)[j]);
          }
        }
      } else {
        for (int32_t child : {node.left, node.right}) {
          const Node& c = tree->nodes[child];
          const double* clo =
              tree->bounds.data() + static_cast<size_t>(child) * 2 * dim_;
          OPENAPI_CHECK_EQ(c.parent, static_cast<int32_t>(id));
          for (size_t j = 0; j < dim_; ++j) {
            OPENAPI_CHECK_LE(nlo[j], clo[j]);
            OPENAPI_CHECK_GE(nhi[j], clo[dim_ + j]);
          }
        }
      }
    }
    OPENAPI_CHECK_EQ(stored, tree->live);
    OPENAPI_CHECK_LE(tree->live, tree->built);
    stored_total += stored;
  }
  // Every stored slot is a present entry's leaf, so the leaves hold
  // exactly the present slots.
  OPENAPI_CHECK_EQ(stored_total, live_);
}

}  // namespace openapi::interpret
