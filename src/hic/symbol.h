// Symbols: declared variables inside hic threads.
#pragma once

#include <cstdint>
#include <string>

#include "hic/type.h"
#include "support/source_location.h"

namespace hicsync::hic {

/// One declared variable. Symbols are created and owned by Sema; AST nodes
/// and later stages reference them by pointer. A symbol involved in an
/// inter-thread dependency is `shared` — the memory allocator must place it
/// in a BRAM reachable by every participating thread.
class Symbol {
 public:
  Symbol(std::string name, std::string thread, const Type* type,
         std::uint64_t array_size, support::SourceLoc loc, int id)
      : name_(std::move(name)),
        thread_(std::move(thread)),
        type_(type),
        array_size_(array_size),
        loc_(loc),
        id_(id) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& thread() const { return thread_; }
  [[nodiscard]] const Type* type() const { return type_; }
  [[nodiscard]] bool is_array() const { return array_size_ != 0; }
  /// Number of elements (1 for scalars).
  [[nodiscard]] std::uint64_t element_count() const {
    return array_size_ == 0 ? 1 : array_size_;
  }
  [[nodiscard]] support::SourceLoc loc() const { return loc_; }
  [[nodiscard]] int id() const { return id_; }

  /// "thread.name" for messages and map keys.
  [[nodiscard]] std::string qualified_name() const {
    return thread_ + "." + name_;
  }

  [[nodiscard]] bool is_shared() const { return shared_; }
  void mark_shared() { shared_ = true; }

 private:
  std::string name_;
  std::string thread_;
  const Type* type_;
  std::uint64_t array_size_;
  support::SourceLoc loc_;
  int id_;
  bool shared_ = false;
};

}  // namespace hicsync::hic
