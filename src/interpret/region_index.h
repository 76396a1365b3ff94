// RegionIndex: hierarchical point location over cached region bounding
// boxes — the session cache's candidate search.
//
// ## The problem
//
// A production audit of one endpoint accumulates 10^5-10^6 cached
// regions. EndpointSession answers "which cached region explains the API
// output at x0" — and a linear scan evaluates every cached model, so its
// cost grows with the cache. This index answers the question by point
// location:
// each cached region carries an axis-aligned bounding box of the inputs
// it is KNOWN to cover, and a stabbing query over those boxes returns the
// few regions whose box contains x0.
//
// ## Why boxes are learned, not exact
//
// A cached region is a convex polytope of the hidden model, observed only
// through the API: its true extent is unknowable black-box. What IS known
// is every point the engine has validated inside it — the extraction
// anchor with its final consistent hypercube (the solver certified the
// model on probes drawn from it) and every later scan hit. The index
// therefore keeps a LEARNED box per region: seeded with the anchor's
// hypercube, grown (monotonically, under the cache's writer lock) each
// time a point outside it validates against the region. Boxes
// under-cover their polytope until traffic teaches them, and may overlap
// or over-cover after unions — neither affects correctness, because the
// caller validates every candidate with the exact match predicate and
// falls back to the full scan when no candidate survives. The index
// prunes; it never decides. That is what keeps it DECISION-INVISIBLE:
// hit/miss outcomes and consumed query counts are those of a linear scan
// on every request (the parity fuzz test checks the session against a
// linear-scan oracle), while repeat traffic — the reason a cache ever
// reaches 10^6 regions — stabs in logarithmic time.
//
// ## Structure
//
// One forest for the whole cache. A region is identified by its local
// model, not by the class it predicts (the predicted class varies inside
// a region), so there is no per-class partition: every slot is filed
// once, in the leaf of exactly one tree, and a query stabs every tree.
//
// The forest follows Bentley's logarithmic method. Incremental k-d
// insertion degrades to a linear spine under sorted insertion orders —
// exactly what a bulk import or a sweep-shaped audit produces — so the
// forest is a set of PERFECTLY BALANCED static k-d trees with
// power-of-two-ish sizes, merged binary-counter style: an insert appends
// a singleton tree, then merges the trailing trees while the penultimate
// is no larger than the last, rebuilding the union as one median-split
// balanced tree (leaves hold small region batches). Every region takes
// part in O(log n) rebuilds over its lifetime (amortized O(log n) per
// insert, insertion-order-independent), the forest holds O(log n) trees,
// and a stabbing query descends only subtrees whose bound contains the
// query point: O(log^2 n) node visits worst case, a few hundred at
// 10^6 regions where the linear scan evaluates 10^6 models.
//
// Removals (second-chance eviction, ClearCache) erase the slot from its
// leaf immediately; a tree that falls below half its built size is
// rebuilt compactly, so dead space stays bounded. The session CHECKs
// size() == cache size after every mutation (eviction/index coherence is
// an abort, not a drift).
//
// ## Concurrency
//
// The index has no locks of its own: it is owned by EndpointSession and
// shares the session's cache lock — Collect runs under the reader lock
// (no interior mutation, safe concurrent readers), every mutator runs
// under the writer lock the cache mutation already holds. That contract
// is stated where the compiler can check it: the session declares its
// `index_` member GUARDED_BY(cache_mutex_) (util/thread_annotations.h),
// so under Clang -Werror=thread-safety any use outside the session's
// lock is a compile error. This class stays annotation-free by
// design — a capability on a lock the class does not own cannot be named
// here, and adding an internal lock would double-lock the hot stab path.

#ifndef OPENAPI_INTERPRET_REGION_INDEX_H_
#define OPENAPI_INTERPRET_REGION_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "linalg/vector_ops.h"

namespace openapi::interpret {

using linalg::Vec;

class RegionIndex {
 public:
  /// `dim` is the input dimensionality of the boxes.
  explicit RegionIndex(size_t dim);

  RegionIndex(const RegionIndex&) = delete;
  RegionIndex& operator=(const RegionIndex&) = delete;

  /// Files `slot` with learned box [lo, hi] (componentwise); Collect
  /// returns it from now on. `slot` must not be present.
  void Insert(size_t slot, const Vec& lo, const Vec& hi);

  /// Removes a present slot from its leaf.
  void Remove(size_t slot);

  /// Grows slot's box to cover x (monotone; ancestors refit expand-only).
  void Expand(size_t slot, const Vec& x);

  /// Grows slot's box to cover the whole box [lo, hi] — the union applied
  /// when a second extraction of the same region certifies a new
  /// hypercube.
  void Expand(size_t slot, const Vec& lo, const Vec& hi);

  /// Drops every slot and every tree.
  void Clear();

  /// Number of present slots. The session CHECKs this against its region
  /// count after every cache mutation.
  size_t size() const { return live_; }

  bool contains(size_t slot) const {
    return slot < entries_.size() && entries_[slot].tree != nullptr;
  }

  size_t dim() const { return dim_; }

  /// Copies a present slot's learned box into *lo / *hi (false when the
  /// slot is absent). This is how eviction exports everything traffic
  /// taught the region — the tiered store re-persists the grown box so a
  /// post-restart directory stabs as well as the live one did.
  bool ExportBox(size_t slot, Vec* lo, Vec* hi) const {
    if (!contains(slot)) return false;
    const double* l = EntryLo(slot);
    lo->assign(l, l + dim_);
    hi->assign(l + dim_, l + 2 * dim_);
    return true;
  }

  /// Approximate resident bytes: per-slot entries + learned boxes + every
  /// tree's node/bound storage. O(trees) = O(log n), cheap enough to
  /// refresh after each writer-lock mutation (the session mirrors it into
  /// the EngineStats::index_bytes gauge); per-leaf slot vectors are
  /// estimated from live counts rather than walked.
  size_t memory_bytes() const {
    size_t bytes = entries_.capacity() * sizeof(Entry) +
                   entry_bounds_.capacity() * sizeof(double);
    for (const auto& tree : forest_) {
      bytes += sizeof(Tree) + tree->nodes.capacity() * sizeof(Node) +
               tree->bounds.capacity() * sizeof(double) +
               tree->live * sizeof(uint32_t);
    }
    return bytes;
  }

  /// Appends the slots whose learned box contains x, each once (a slot
  /// sits in exactly one leaf), in a deterministic tree-by-tree order.
  /// Read-only (safe under a shared lock). The result is a conservative
  /// candidate set: a slot whose box has not yet learned to cover x is
  /// NOT returned — the caller's exact-scan fallback covers that case
  /// and teaches the box.
  void Collect(const Vec& x, std::vector<size_t>* out) const;

  /// O(n) structural audit for tests: every present slot reachable from
  /// exactly the one leaf its entry points at, node bounds containing
  /// their subtree, tree live counts exact. Aborts via OPENAPI_CHECK on
  /// any violation.
  void CheckConsistent() const;

  /// Diagnostics: number of balanced trees in the forest, and the total
  /// node count (tests assert the logarithmic-method shape).
  size_t tree_count() const;
  size_t node_count() const;

 private:
  struct Node {
    int32_t parent = -1;
    int32_t left = -1;   // < 0: leaf
    int32_t right = -1;
    std::vector<uint32_t> slots;  // leaf payload
  };

  /// One balanced static k-d tree (a logarithmic-method rank). Node
  /// bounds live in one flat array (`bounds[id * 2 * dim]` = lo then hi,
  /// expand-only between rebuilds): a stab descent reads contiguous
  /// cache lines instead of chasing two heap-allocated vectors per node
  /// — at 10^6 regions the descent runs cold and the pointer chases,
  /// not the comparisons, would dominate the lookup.
  struct Tree {
    std::vector<Node> nodes;     // nodes[0] is the root
    std::vector<double> bounds;  // [id*2*dim, id*2*dim+dim) lo, then hi
    size_t live = 0;             // slots currently stored
    size_t built = 0;            // slots at the last (re)build
  };

  /// Where one slot lives: its tree and leaf. A null tree marks an
  /// absent slot.
  struct Entry {
    Tree* tree = nullptr;
    int32_t leaf = -1;
  };

  // Flat-bounds accessors (the learned per-slot boxes live in
  // entry_bounds_, same layout as Tree::bounds).
  double* EntryLo(size_t slot) {
    return entry_bounds_.data() + slot * 2 * dim_;
  }
  const double* EntryLo(size_t slot) const {
    return entry_bounds_.data() + slot * 2 * dim_;
  }
  double* EntryHi(size_t slot) { return EntryLo(slot) + dim_; }
  const double* EntryHi(size_t slot) const { return EntryLo(slot) + dim_; }
  static double* NodeLo(Tree* tree, int32_t id, size_t dim) {
    return tree->bounds.data() + static_cast<size_t>(id) * 2 * dim;
  }

  bool BoxContains(const double* lo, const double* hi, const Vec& x) const;
  void ExpandBox(double* lo, double* hi, const double* add_lo,
                 const double* add_hi) const;

  /// Builds a balanced tree over `slots` by recursive median split on the
  /// widest center spread; points each stored slot's Entry at its leaf.
  std::unique_ptr<Tree> BuildTree(std::vector<uint32_t> slots);
  int32_t BuildNode(Tree* tree, uint32_t* slots, size_t count,
                    int32_t parent);

  /// Appends a singleton tree for `slot` to the forest, then restores
  /// the binary-counter shape (merge trailing trees while the
  /// penultimate is no larger than the last).
  void InsertIntoForest(size_t slot);

  /// Collects the live slots of a tree (for merges and rebuilds).
  static void AppendLiveSlots(const Tree& tree, std::vector<uint32_t>* out);

  /// Refits bounds on the path from `node` to the root so they cover
  /// [lo, hi]; stops early once a node already covers it.
  void RefitUp(Tree* tree, int32_t node, const double* lo,
               const double* hi) const;

  /// Appends tree's slots whose box contains x; `pending` is the
  /// caller's (empty) depth-first stack, reused across trees.
  void StabTree(const Tree& tree, const Vec& x, std::vector<int32_t>* pending,
                std::vector<size_t>* out) const;

  const size_t dim_;
  size_t live_ = 0;
  std::vector<Entry> entries_;        // indexed by slot
  std::vector<double> entry_bounds_;  // slot -> flat learned box
  std::vector<std::unique_ptr<Tree>> forest_;
};

}  // namespace openapi::interpret

#endif  // OPENAPI_INTERPRET_REGION_INDEX_H_
