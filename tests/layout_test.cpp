#include "dmv/layout/layout.hpp"

#include <gtest/gtest.h>

#include "dmv/symbolic/parser.hpp"

namespace dmv::layout {
namespace {

ConcreteLayout simple_2d(std::int64_t rows, std::int64_t cols,
                         int element_size = 8) {
  ConcreteLayout layout;
  layout.name = "A";
  layout.shape = {rows, cols};
  layout.strides = {cols, 1};
  layout.element_size = element_size;
  return layout;
}

TEST(ConcreteLayout, Sizes) {
  ConcreteLayout layout = simple_2d(3, 4);
  EXPECT_EQ(layout.total_elements(), 12);
  EXPECT_EQ(layout.allocated_elements(), 12);
  EXPECT_EQ(layout.allocated_bytes(), 96);
}

TEST(ConcreteLayout, PaddedAllocation) {
  ConcreteLayout layout = simple_2d(3, 12);
  layout.strides = {16, 1};  // Rows padded to 16 elements.
  EXPECT_EQ(layout.total_elements(), 36);
  EXPECT_EQ(layout.allocated_elements(), 2 * 16 + 11 + 1);
}

TEST(ConcreteLayout, Addressing) {
  ConcreteLayout layout = simple_2d(3, 4, 4);
  layout.base_address = 1024;
  const std::int64_t idx[] = {2, 3};
  EXPECT_EQ(layout.element_offset(idx), 11);
  EXPECT_EQ(layout.byte_address(idx), 1024 + 44);
}

TEST(ConcreteLayout, ColumnMajorAddressing) {
  ConcreteLayout layout = simple_2d(3, 4);
  layout.strides = {1, 3};  // Column-major.
  const std::int64_t idx[] = {2, 3};
  EXPECT_EQ(layout.element_offset(idx), 2 + 9);
}

TEST(ConcreteLayout, FlatRoundTrip) {
  ConcreteLayout layout;
  layout.shape = {2, 3, 4};
  layout.strides = {12, 4, 1};
  for (std::int64_t flat = 0; flat < layout.total_elements(); ++flat) {
    const Index indices = layout.unflatten(flat);
    EXPECT_EQ(layout.flat_index(indices), flat);
    EXPECT_TRUE(layout.in_bounds(indices));
  }
}

TEST(ConcreteLayout, InBounds) {
  ConcreteLayout layout = simple_2d(3, 4);
  EXPECT_TRUE(layout.in_bounds(std::vector<std::int64_t>{0, 0}));
  EXPECT_TRUE(layout.in_bounds(std::vector<std::int64_t>{2, 3}));
  EXPECT_FALSE(layout.in_bounds(std::vector<std::int64_t>{3, 0}));
  EXPECT_FALSE(layout.in_bounds(std::vector<std::int64_t>{0, -1}));
  EXPECT_FALSE(layout.in_bounds(std::vector<std::int64_t>{0}));
}

TEST(ConcreteLayout, FromDescriptor) {
  auto descriptor = ir::DataDescriptor::array(
      "in_field", {symbolic::parse("I + 4"), symbolic::parse("K")});
  ConcreteLayout layout =
      ConcreteLayout::from(descriptor, {{"I", 8}, {"K", 5}});
  EXPECT_EQ(layout.shape, (std::vector<std::int64_t>{12, 5}));
  EXPECT_EQ(layout.strides, (std::vector<std::int64_t>{5, 1}));
}

TEST(ConcreteLayout, FromDescriptorRejectsNonPositiveExtent) {
  auto descriptor =
      ir::DataDescriptor::array("A", {symbolic::parse("N - 4")});
  EXPECT_THROW(ConcreteLayout::from(descriptor, {{"N", 4}}),
               std::invalid_argument);
}

TEST(AddressSpace, AlignsAndSeparates) {
  AddressSpace space;
  ConcreteLayout a = simple_2d(2, 3);  // 48 bytes.
  ConcreteLayout b = simple_2d(2, 3);
  space.place(a);
  space.place(b);
  EXPECT_EQ(a.base_address, 0);
  EXPECT_EQ(b.base_address, 64);  // Next 64-byte boundary after 48.
  EXPECT_EQ(space.bytes_used(), 64 + 48);
}

TEST(CacheLine, LineOf) {
  ConcreteLayout layout = simple_2d(2, 10, 8);
  const std::int64_t first[] = {0, 0};
  const std::int64_t seventh[] = {0, 7};
  const std::int64_t ninth[] = {0, 8};
  EXPECT_EQ(cache_line_of(layout, first, 64), 0);
  EXPECT_EQ(cache_line_of(layout, seventh, 64), 0);
  EXPECT_EQ(cache_line_of(layout, ninth, 64), 1);
  EXPECT_THROW(cache_line_of(layout, first, 0), std::invalid_argument);
}

TEST(CacheLine, ElementsSharingLine) {
  // 10-wide rows of 8-byte elements, 64-byte lines: line 1 holds
  // elements 8..15 = [0,8], [0,9], [1,0] .. [1,5].
  ConcreteLayout layout = simple_2d(2, 10, 8);
  const std::int64_t probe[] = {0, 9};
  std::vector<Index> sharing = elements_sharing_line(layout, probe, 64);
  ASSERT_EQ(sharing.size(), 8u);
  EXPECT_EQ(sharing.front(), (Index{0, 8}));
  EXPECT_EQ(sharing.back(), (Index{1, 5}));
}

TEST(CacheLine, RowMajorVsColumnMajorReveal) {
  // The Fig 5a reveal: for a row-major container, the line mates of
  // [0, 0] vary in the LAST index; for column-major, in the FIRST.
  ConcreteLayout row = simple_2d(9, 10, 4);
  ConcreteLayout col = simple_2d(10, 15, 4);
  col.strides = {1, 10};
  const std::int64_t origin[] = {0, 0};
  std::vector<Index> row_mates = elements_sharing_line(row, origin, 64);
  std::vector<Index> col_mates = elements_sharing_line(col, origin, 64);
  ASSERT_GT(row_mates.size(), 1u);
  ASSERT_GT(col_mates.size(), 1u);
  EXPECT_EQ(row_mates[1], (Index{0, 1}));
  EXPECT_EQ(col_mates[1], (Index{1, 0}));
}

TEST(CacheLine, LinesSpanned) {
  ConcreteLayout tight = simple_2d(4, 8, 8);  // 4 rows x 64B = 4 lines.
  EXPECT_EQ(lines_spanned(tight, 64), 4);
  ConcreteLayout padded = simple_2d(4, 6, 8);
  padded.strides = {8, 1};  // 6 used of 8 per row.
  EXPECT_EQ(lines_spanned(padded, 64), 4);  // Padding holes don't count...
}

TEST(CacheLine, WraparoundDetection) {
  // Rows of 12 8-byte elements (96 B): every other row starts mid-line.
  ConcreteLayout unpadded = simple_2d(4, 12, 8);
  std::vector<Index> wrapped = rows_with_line_wraparound(unpadded, 1, 64);
  EXPECT_FALSE(wrapped.empty());

  ConcreteLayout padded = simple_2d(4, 12, 8);
  padded.strides = {16, 1};  // 16 * 8 = 128 B: line aligned.
  EXPECT_TRUE(rows_with_line_wraparound(padded, 1, 64).empty());
}

TEST(CacheLine, WraparoundArgChecks) {
  ConcreteLayout layout = simple_2d(4, 12, 8);
  EXPECT_THROW(rows_with_line_wraparound(layout, 5, 64),
               std::invalid_argument);
}

TEST(CacheLine, Wraparound3D) {
  // [K, I, J] with J = 12 doubles: wraparound along the last dimension.
  ConcreteLayout layout;
  layout.shape = {2, 3, 12};
  layout.strides = {36, 12, 1};
  layout.element_size = 8;
  EXPECT_FALSE(rows_with_line_wraparound(layout, 2, 64).empty());
  layout.strides = {48, 16, 1};
  EXPECT_TRUE(rows_with_line_wraparound(layout, 2, 64).empty());
}

}  // namespace
}  // namespace dmv::layout
