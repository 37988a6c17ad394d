// A node-recycling allocator for node-based standard containers (an
// std::unordered_map's entries): single-object allocations come from a
// free list of blocks the container released earlier, so a map whose
// entries churn — inserted, erased, inserted again — stops touching the
// global heap once it has held its high-water number of entries. Array
// allocations (the bucket table) pass through to operator new.
//
// Node addresses never affect a standard container's behavior, so a map
// over this allocator iterates in exactly the order the same map over
// std::allocator would. Copies and rebinds share one pool; the last one
// destroyed returns the pooled blocks to the heap. Not thread-safe: a pool
// belongs to one container, owned by one engine.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

namespace charisma::common {

class NodePool {
 public:
  NodePool() = default;
  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;
  ~NodePool() {
    for (auto& list : lists_) {
      while (list.head != nullptr) {
        FreeBlock* next = list.head->next;
        ::operator delete(list.head);
        list.head = next;
      }
    }
  }

  void* allocate(std::size_t bytes) {
    FreeList& list = list_for(bytes);
    if (list.head == nullptr) return ::operator new(bytes);
    FreeBlock* block = list.head;
    list.head = block->next;
    return block;
  }

  void deallocate(void* p, std::size_t bytes) {
    FreeList& list = list_for(bytes);
    auto* block = static_cast<FreeBlock*>(p);
    block->next = list.head;
    list.head = block;
  }

 private:
  struct FreeBlock {
    FreeBlock* next;
  };
  struct FreeList {
    std::size_t bytes;
    FreeBlock* head;
  };

  /// The free list for blocks of `bytes` (one per node type; in practice
  /// a single list, created on the container's first insert).
  FreeList& list_for(std::size_t bytes) {
    for (auto& list : lists_) {
      if (list.bytes == bytes) return list;
    }
    lists_.push_back(FreeList{bytes, nullptr});
    return lists_.back();
  }

  std::vector<FreeList> lists_;
};

template <class T>
class RecyclingAllocator {
 public:
  using value_type = T;

  RecyclingAllocator() : pool_(std::make_shared<NodePool>()) {}
  template <class U>
  RecyclingAllocator(const RecyclingAllocator<U>& other)  // NOLINT: rebind
      : pool_(other.pool_) {}

  T* allocate(std::size_t n) {
    if (n != 1 || !kPooled) return std::allocator<T>().allocate(n);
    return static_cast<T*>(pool_->allocate(sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) {
    if (n != 1 || !kPooled) {
      std::allocator<T>().deallocate(p, n);
      return;
    }
    pool_->deallocate(p, sizeof(T));
  }

  template <class U>
  bool operator==(const RecyclingAllocator<U>& other) const {
    return pool_ == other.pool_;
  }

 private:
  template <class U>
  friend class RecyclingAllocator;
  /// A freed block must hold the free-list link, and plain operator new
  /// must satisfy the type's alignment.
  static constexpr bool kPooled =
      sizeof(T) >= sizeof(void*) && alignof(T) <= alignof(std::max_align_t);
  std::shared_ptr<NodePool> pool_;
};

}  // namespace charisma::common
