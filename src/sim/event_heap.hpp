// A d-ary (d = 4) min-heap used as the simulator's event queue.
//
// std::priority_queue cannot hand out its top element by value — top() is
// const, so every pop of an Event paid a full copy (including the shared_ptr
// refcount round-trip and, before the trace rework, its strings).  This heap
// moves elements on every sift and moves the minimum out of pop().  The
// 4-ary layout halves the tree height versus a binary heap and keeps the
// children of a node in one cache line, which measurably helps the
// push/pop-dominated access pattern of a discrete-event simulator.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace vgprs {

/// Min-heap: `Before(a, b)` returns true when `a` must pop before `b`.
template <typename T, typename Before>
class QuadHeap {
 public:
  [[nodiscard]] bool empty() const { return v_.empty(); }
  [[nodiscard]] std::size_t size() const { return v_.size(); }
  void reserve(std::size_t n) { v_.reserve(n); }

  [[nodiscard]] const T& top() const {
    assert(!v_.empty());
    return v_.front();
  }

  /// Moves [first, last) into the heap in one batch.  A large batch (one
  /// window's mail from one shard) appends everything and rebuilds
  /// bottom-up in O(n); a small one falls back to individual sifts.  The
  /// internal layout may differ between the two paths, but pop order is
  /// governed by the comparator — a strict total order over events — so
  /// the choice is invisible to the simulation.
  template <typename It>
  void push_bulk(It first, It last) {
    const auto k = static_cast<std::size_t>(last - first);
    if (k == 0) return;
    if (k > v_.size() / 8) {
      v_.insert(v_.end(), std::make_move_iterator(first),
                std::make_move_iterator(last));
      rebuild();
    } else {
      for (It it = first; it != last; ++it) push(std::move(*it));
    }
  }

  void push(T value) {
    std::size_t i = v_.size();
    v_.push_back(std::move(value));
    // Sift up: move the hole toward the root, one move per level.
    T item = std::move(v_[i]);
    while (i > 0) {
      std::size_t parent = (i - 1) / 4;
      if (!before_(item, v_[parent])) break;
      v_[i] = std::move(v_[parent]);
      i = parent;
    }
    v_[i] = std::move(item);
  }

  T pop() {
    assert(!v_.empty());
    T min = std::move(v_.front());
    T last = std::move(v_.back());
    v_.pop_back();
    if (!v_.empty()) sift_down_from_root(std::move(last));
    return min;
  }

  /// The minimum, for the caller to move later in the order in place; the
  /// caller must then call sift_top().  Only a change that makes the element
  /// pop later is allowed.
  [[nodiscard]] T& mutable_top() {
    assert(!v_.empty());
    return v_.front();
  }

  /// Restores heap order after mutable_top() was moved later: one sift-down
  /// from the root, which stops at the first level when the element is
  /// still the minimum.
  void sift_top() {
    assert(!v_.empty());
    T item = std::move(v_.front());
    sift_down_from_root(std::move(item));
  }

 private:
  /// Sift down from an empty root slot: move the smallest child up into the
  /// hole until `item` fits.
  void sift_down_from_root(T item) {
    std::size_t i = 0;
    const std::size_t n = v_.size();
    for (;;) {
      std::size_t first_child = 4 * i + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      std::size_t end = std::min(first_child + 4, n);
      for (std::size_t c = first_child + 1; c < end; ++c) {
        if (before_(v_[c], v_[best])) best = c;
      }
      if (!before_(v_[best], item)) break;
      v_[i] = std::move(v_[best]);
      i = best;
    }
    v_[i] = std::move(item);
  }

  /// Floyd heap construction: sift down every internal node, deepest first.
  void rebuild() {
    const std::size_t n = v_.size();
    if (n < 2) return;
    for (std::size_t root = (n - 2) / 4 + 1; root-- > 0;) {
      T item = std::move(v_[root]);
      std::size_t i = root;
      for (;;) {
        std::size_t first_child = 4 * i + 1;
        if (first_child >= n) break;
        std::size_t best = first_child;
        std::size_t end = std::min(first_child + 4, n);
        for (std::size_t c = first_child + 1; c < end; ++c) {
          if (before_(v_[c], v_[best])) best = c;
        }
        if (!before_(v_[best], item)) break;
        v_[i] = std::move(v_[best]);
        i = best;
      }
      v_[i] = std::move(item);
    }
  }

  std::vector<T> v_;
  Before before_;
};

}  // namespace vgprs
