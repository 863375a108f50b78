// validate() must detect deliberately broken structural invariants --
// the bench binaries gate their reported numbers on it, so a validate
// that never fails would make every other check in the repo hollow.
#include <gtest/gtest.h>

#include "src/core/unrolled_family.hpp"
#include "tests/test_util.hpp"

namespace pragmalist {
namespace {

template <typename List>
class ValidateCatchesCorruption : public ::testing::Test {};

using CorruptibleLists =
    ::testing::Types<core::DraconicList, core::SinglyList, core::DoublyList,
                     core::SinglyCursorList, core::SinglyFetchOrList,
                     core::DoublyCursorList, core::UnrolledK8List,
                     core::SinglyFetchOrListEbr, core::UnrolledK8ListHp>;
TYPED_TEST_SUITE(ValidateCatchesCorruption, CorruptibleLists);

TYPED_TEST(ValidateCatchesCorruption, OrderViolationIsReported) {
  TypeParam list;
  auto h = list.make_handle();
  for (long k = 0; k < 8; ++k) ASSERT_TRUE(h.add(k));

  std::string err;
  ASSERT_TRUE(list.validate(&err)) << err;

  list.corrupt_order_for_test();  // swap the first two physical keys

  err.clear();
  EXPECT_FALSE(list.validate(&err));
  EXPECT_FALSE(err.empty());
}

TYPED_TEST(ValidateCatchesCorruption, ValidAfterChurn) {
  TypeParam list;
  auto h = list.make_handle();
  for (long k = 0; k < 64; ++k) ASSERT_TRUE(h.add(k));
  for (long k = 0; k < 64; k += 3) ASSERT_TRUE(h.remove(k));
  for (long k = 0; k < 64; k += 3) ASSERT_TRUE(h.add(k));
  std::string err;
  EXPECT_TRUE(list.validate(&err)) << err;
  EXPECT_EQ(list.size(), 64u);
}

}  // namespace
}  // namespace pragmalist
