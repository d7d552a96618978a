#include <cassert>
#include <stdexcept>

#include "dmv/layout/layout.hpp"

namespace dmv::layout {

std::int64_t ConcreteLayout::total_elements() const {
  std::int64_t total = 1;
  for (std::int64_t extent : shape) total *= extent;
  return total;
}

std::int64_t ConcreteLayout::allocated_elements() const {
  std::int64_t last = start_offset;
  for (std::size_t d = 0; d < shape.size(); ++d) {
    last += (shape[d] - 1) * strides[d];
  }
  return last + 1;
}

std::int64_t ConcreteLayout::allocated_bytes() const {
  return allocated_elements() * element_size;
}

std::int64_t ConcreteLayout::element_offset(
    std::span<const std::int64_t> indices) const {
  if (indices.size() != shape.size()) {
    throw std::invalid_argument("ConcreteLayout: rank mismatch for '" + name +
                                "'");
  }
  std::int64_t offset = start_offset;
  for (std::size_t d = 0; d < indices.size(); ++d) {
    offset += indices[d] * strides[d];
  }
  return offset;
}

std::int64_t ConcreteLayout::byte_address(
    std::span<const std::int64_t> indices) const {
  return base_address + element_offset(indices) * element_size;
}

std::int64_t ConcreteLayout::flat_index(
    std::span<const std::int64_t> indices) const {
  if (indices.size() != shape.size()) {
    throw std::invalid_argument("ConcreteLayout: rank mismatch for '" + name +
                                "'");
  }
  std::int64_t flat = 0;
  for (std::size_t d = 0; d < indices.size(); ++d) {
    flat = flat * shape[d] + indices[d];
  }
  return flat;
}

Index ConcreteLayout::unflatten(std::int64_t flat) const {
  Index indices(shape.size(), 0);
  for (int d = rank() - 1; d >= 0; --d) {
    indices[d] = flat % shape[d];
    flat /= shape[d];
  }
  return indices;
}

bool ConcreteLayout::in_bounds(std::span<const std::int64_t> indices) const {
  if (indices.size() != shape.size()) return false;
  for (std::size_t d = 0; d < indices.size(); ++d) {
    if (indices[d] < 0 || indices[d] >= shape[d]) return false;
  }
  return true;
}

ConcreteLayout ConcreteLayout::from(const ir::DataDescriptor& descriptor,
                                    const symbolic::SymbolMap& symbols) {
  ConcreteLayout layout;
  layout.name = descriptor.name;
  layout.element_size = descriptor.element_size;
  layout.start_offset = descriptor.start_offset.evaluate(symbols);
  layout.shape.reserve(descriptor.shape.size());
  layout.strides.reserve(descriptor.strides.size());
  for (const symbolic::Expr& extent : descriptor.shape) {
    const std::int64_t value = extent.evaluate(symbols);
    if (value <= 0) {
      throw NonPositiveExtentError("ConcreteLayout: non-positive extent in '" +
                                   descriptor.name + "'");
    }
    layout.shape.push_back(value);
  }
  for (const symbolic::Expr& stride : descriptor.strides) {
    layout.strides.push_back(stride.evaluate(symbols));
  }
  return layout;
}

std::int64_t AddressSpace::place(ConcreteLayout& layout) {
  next_ = (next_ + kAlignment - 1) / kAlignment * kAlignment;
  layout.base_address = next_;
  next_ += layout.allocated_bytes();
  return layout.base_address;
}

}  // namespace dmv::layout
