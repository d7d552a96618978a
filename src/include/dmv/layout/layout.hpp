#pragma once

// Physical data layout modeling (paper §V-D).
//
// A ConcreteLayout is a DataDescriptor with every symbolic extent bound:
// actual shape, strides (elements), element size, and a base address in a
// simulated flat address space. This is the information the paper calls
// "usually opaque to the engineer" — it powers the cache-line overlay
// (which elements share a line with a selected element, Fig 5a), the
// wrap-around diagnosis of Fig 8c, and the address stream fed to the
// stack-distance and cache simulators.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dmv/ir/data.hpp"

namespace dmv::layout {

using Index = std::vector<std::int64_t>;

/// Thrown by ConcreteLayout::from when an extent evaluates to zero or
/// less: the binding, not the program, is at fault.
class NonPositiveExtentError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

struct ConcreteLayout {
  std::string name;
  std::vector<std::int64_t> shape;
  std::vector<std::int64_t> strides;  ///< In elements.
  int element_size = 8;               ///< Bytes.
  std::int64_t start_offset = 0;      ///< Elements, offset of [0,..,0].
  std::int64_t base_address = 0;      ///< Bytes, in the simulated space.

  int rank() const { return static_cast<int>(shape.size()); }
  /// Number of logical elements (shape product).
  std::int64_t total_elements() const;
  /// Buffer length in elements including stride padding.
  std::int64_t allocated_elements() const;
  std::int64_t allocated_bytes() const;

  /// Element offset within the buffer (start_offset + dot(idx, strides)).
  std::int64_t element_offset(std::span<const std::int64_t> indices) const;
  /// Absolute simulated byte address of an element.
  std::int64_t byte_address(std::span<const std::int64_t> indices) const;

  /// Dense row-major logical index in [0, total_elements), independent of
  /// the physical strides — the coordinate system of heatmap buffers.
  std::int64_t flat_index(std::span<const std::int64_t> indices) const;
  Index unflatten(std::int64_t flat) const;

  /// True if `indices` is inside the logical shape.
  bool in_bounds(std::span<const std::int64_t> indices) const;

  /// Binds a descriptor's symbolic extents; base_address stays 0 until
  /// the layout is placed in an AddressSpace.
  static ConcreteLayout from(const ir::DataDescriptor& descriptor,
                             const symbolic::SymbolMap& symbols);
};

/// Assigns base addresses to layouts sequentially, each aligned to 64
/// bytes — the simulated equivalent of the allocator the
/// compiler/runtime would use.
class AddressSpace {
 public:
  /// Places the layout and returns its base address.
  std::int64_t place(ConcreteLayout& layout);
  std::int64_t bytes_used() const { return next_; }

 private:
  static constexpr std::int64_t kAlignment = 64;
  std::int64_t next_ = 0;
};

/// Cache line id (line index in the global simulated address space).
std::int64_t cache_line_of(const ConcreteLayout& layout,
                           std::span<const std::int64_t> indices,
                           int line_size);

/// All elements of `layout` that live on the same cache line as the
/// element at `indices` — the Fig 5a highlight. Returned as logical
/// index tuples, ascending by address.
std::vector<Index> elements_sharing_line(const ConcreteLayout& layout,
                                         std::span<const std::int64_t> indices,
                                         int line_size);

/// Number of distinct cache lines the container's elements touch.
std::int64_t lines_spanned(const ConcreteLayout& layout, int line_size);

/// Fig 8c diagnosis: rows (along `dim`) whose first element shares a
/// cache line with the previous row's tail. Returns the row-prefix index
/// tuples affected. Empty result = every row is line-aligned.
std::vector<Index> rows_with_line_wraparound(const ConcreteLayout& layout,
                                             int dim, int line_size);

}  // namespace dmv::layout
