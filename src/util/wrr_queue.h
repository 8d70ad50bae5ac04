#pragma once
// Weighted round-robin multi-queue: FIFO sub-queues keyed by string, popped
// in a rotating key order so one hot key cannot starve the others. The
// fairness primitive under serving::request_scheduler (each key = one
// serving session); generic enough for any keyed work distribution.
//
// Semantics: `push(key, item)` appends to the key's FIFO lane; a lane new to
// the ring joins it at the position served *last* in the current rotation,
// so an arriving key waits at most one full round. `pop(eligible)` serves
// the lane at the cursor, up to `weight` consecutive items per visit
// (weighted round-robin in the classic sense), skipping lanes the caller's
// `eligible` predicate rejects (e.g. sessions at their in-flight cap).
//
// Ownership: the queue owns the queued items (moved in, moved out).
//
// Thread-safety: NONE — this is a locked-data-structure building block; the
// caller serializes access (the request_scheduler holds its own mutex
// across every call). Keeping the lock outside lets callers pair a pop with
// their own bookkeeping atomically.
//
// Blocking: no member blocks; `pop` returns std::nullopt when nothing is
// eligible rather than waiting.

#include <cstddef>
#include <deque>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

namespace mapcq::util {

/// Weighted round-robin FIFO multi-queue (see file comment for semantics).
template <typename T>
class wrr_queue {
 public:
  /// `default_weight` is the per-visit budget of lanes without an explicit
  /// `set_weight` override (clamped to at least 1).
  explicit wrr_queue(std::size_t default_weight = 1)
      : default_weight_(default_weight == 0 ? 1 : default_weight) {}

  // The cursor is an iterator into ring_, which moving would invalidate;
  // hold wrr_queues in node-based containers (std::map) or by pointer.
  wrr_queue(const wrr_queue&) = delete;
  wrr_queue& operator=(const wrr_queue&) = delete;

  /// Sets `key`'s per-visit budget (clamped to at least 1). Applies from the
  /// lane's next cursor visit; items already queued are unaffected.
  void set_weight(const std::string& key, std::size_t weight) {
    if (weight == 0) weight = 1;
    weights_[key] = weight;
    const auto it = lanes_.find(key);
    if (it != lanes_.end() && it->second.credit > weight) it->second.credit = weight;
  }

  /// Appends `item` to `key`'s FIFO lane.
  void push(const std::string& key, T item) {
    auto [it, fresh] = lanes_.try_emplace(key);
    if (it->second.items.empty()) {
      // (Re-)joining lane: full credit, ring slot just before the cursor --
      // i.e. it is served after every lane already waiting this round.
      it->second.credit = weight_of(key);
      ring_.insert(cursor_, key);
    }
    it->second.items.push_back(std::move(item));
    ++total_;
  }

  /// Pops the next item in weighted round-robin order among the lanes for
  /// which `eligible(key)` returns true; std::nullopt when every queued lane
  /// is ineligible (or the queue is empty). O(lanes) worst case.
  template <typename Eligible>
  [[nodiscard]] std::optional<T> pop(Eligible&& eligible) {
    std::size_t skipped = 0;
    while (skipped < ring_.size()) {
      if (cursor_ == ring_.end()) {
        cursor_ = ring_.begin();
        if (cursor_ == ring_.end()) break;
      }
      const auto lane_it = lanes_.find(*cursor_);
      if (lane_it == lanes_.end() || lane_it->second.items.empty()) {
        // Defensive: serving erases drained lanes immediately, so this only
        // fires if a subclass of usage leaves an empty lane behind.
        if (lane_it != lanes_.end()) lanes_.erase(lane_it);
        cursor_ = ring_.erase(cursor_);
        continue;
      }
      if (!eligible(static_cast<const std::string&>(*cursor_))) {
        ++skipped;
        ++cursor_;
        continue;
      }
      lane& l = lane_it->second;
      T item = std::move(l.items.front());
      l.items.pop_front();
      --total_;
      if (l.items.empty()) {
        // Drop drained lanes entirely — long-lived queues see an unbounded
        // stream of distinct keys (session generations), and a leftover
        // empty lane per key would be a slow leak. push() recreates it.
        lanes_.erase(lane_it);
        cursor_ = ring_.erase(cursor_);
      } else if (--l.credit == 0) {
        l.credit = weight_of(*cursor_);
        ++cursor_;
      }
      return item;
    }
    return std::nullopt;
  }

  /// Pops in plain rotation order with every lane eligible.
  [[nodiscard]] std::optional<T> pop() {
    return pop([](const std::string&) { return true; });
  }

  /// Total queued items across all lanes.
  [[nodiscard]] std::size_t size() const noexcept { return total_; }
  [[nodiscard]] bool empty() const noexcept { return total_ == 0; }
  /// Queued items in `key`'s lane.
  [[nodiscard]] std::size_t lane_size(const std::string& key) const {
    const auto it = lanes_.find(key);
    return it == lanes_.end() ? 0 : it->second.items.size();
  }

  /// Applies `fn(key, item&)` to every queued item in unspecified order
  /// (e.g. failing all pending promises at shutdown), then clears the queue.
  template <typename Fn>
  void drain(Fn&& fn) {
    for (auto& [key, l] : lanes_)
      for (T& item : l.items) fn(static_cast<const std::string&>(key), item);
    lanes_.clear();
    ring_.clear();
    cursor_ = ring_.end();
    total_ = 0;
  }

 private:
  struct lane {
    std::deque<T> items;
    std::size_t credit = 1;  ///< pops left in the current cursor visit
  };

  [[nodiscard]] std::size_t weight_of(const std::string& key) const {
    const auto it = weights_.find(key);
    return it == weights_.end() ? default_weight_ : it->second;
  }

  std::size_t default_weight_;
  std::unordered_map<std::string, std::size_t> weights_;
  std::unordered_map<std::string, lane> lanes_;
  std::list<std::string> ring_;  ///< rotation order of lanes with items
  std::list<std::string>::iterator cursor_ = ring_.end();
  std::size_t total_ = 0;
};

}  // namespace mapcq::util
