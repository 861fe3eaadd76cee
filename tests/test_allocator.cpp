#include "ip/allocator.h"

#include <gtest/gtest.h>

#include "util/error.h"

namespace repro {
namespace {

TEST(PrefixAllocator, SequentialDisjointBlocks) {
  PrefixAllocator alloc(Prefix::parse("10.0.0.0/16"));
  const Prefix a = alloc.allocate_prefix(24);
  const Prefix b = alloc.allocate_prefix(24);
  EXPECT_EQ(a.to_string(), "10.0.0.0/24");
  EXPECT_EQ(b.to_string(), "10.0.1.0/24");
  EXPECT_FALSE(a.contains(b));
  EXPECT_FALSE(b.contains(a));
}

TEST(PrefixAllocator, AlignsMixedSizes) {
  PrefixAllocator alloc(Prefix::parse("10.0.0.0/16"));
  const Ipv4 single = alloc.allocate_address();
  EXPECT_EQ(single.to_string(), "10.0.0.0");
  // Next /24 must skip ahead to an aligned boundary.
  const Prefix block = alloc.allocate_prefix(24);
  EXPECT_EQ(block.to_string(), "10.0.1.0/24");
  const Ipv4 next = alloc.allocate_address();
  EXPECT_EQ(next.to_string(), "10.0.2.0");
}

TEST(PrefixAllocator, AllAllocationsInsidePool) {
  const Prefix pool = Prefix::parse("172.16.0.0/20");
  PrefixAllocator alloc(pool);
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(pool.contains(alloc.allocate_prefix(28)));
  }
}

TEST(PrefixAllocator, ExhaustionThrows) {
  PrefixAllocator alloc(Prefix::parse("10.0.0.0/30"));
  alloc.allocate_prefix(31);
  alloc.allocate_prefix(31);
  EXPECT_THROW(alloc.allocate_prefix(31), Error);
}

TEST(PrefixAllocator, RemainingCountsDown) {
  PrefixAllocator alloc(Prefix::parse("10.0.0.0/24"));
  EXPECT_EQ(alloc.remaining(), 256u);
  alloc.allocate_prefix(26);
  EXPECT_EQ(alloc.remaining(), 192u);
  alloc.allocate_address();
  EXPECT_EQ(alloc.remaining(), 191u);
}

TEST(PrefixAllocator, RejectsRequestsWiderThanPool) {
  PrefixAllocator alloc(Prefix::parse("10.0.0.0/24"));
  EXPECT_THROW(alloc.allocate_prefix(23), Error);
  EXPECT_THROW(alloc.allocate_prefix(33), Error);
}

TEST(PrefixAllocator, WholePoolAllocation) {
  PrefixAllocator alloc(Prefix::parse("10.0.0.0/24"));
  const Prefix all = alloc.allocate_prefix(24);
  EXPECT_EQ(all.to_string(), "10.0.0.0/24");
  EXPECT_EQ(alloc.remaining(), 0u);
}

TEST(PrefixAllocator, FitsPredictsAllocation) {
  PrefixAllocator alloc(Prefix::parse("10.0.0.0/30"));
  EXPECT_FALSE(alloc.fits(29));
  EXPECT_FALSE(alloc.fits(33));
  EXPECT_TRUE(alloc.fits(30));
  alloc.allocate_address();
  EXPECT_FALSE(alloc.fits(30));  // the aligned /30 is no longer free
  EXPECT_TRUE(alloc.fits(31));   // .2/31, skipping .1
  EXPECT_TRUE(alloc.fits(32));
  alloc.allocate_prefix(31);
  EXPECT_FALSE(alloc.fits(32));
  EXPECT_THROW(alloc.allocate_address(), Error);
}

TEST(AddressPlan, OverflowsIntoNextPoolOnlyWhenFull) {
  AddressPlan plan({Prefix::parse("10.0.0.0/30"), Prefix::parse("20.0.0.0/29")});
  EXPECT_EQ(plan.allocate_prefix(31).to_string(), "10.0.0.0/31");
  // A /30 no longer fits the first pool: move on, and stay there even
  // though the first pool still has room for a /31.
  EXPECT_EQ(plan.allocate_prefix(30).to_string(), "20.0.0.0/30");
  EXPECT_EQ(plan.allocate_prefix(31).to_string(), "20.0.0.4/31");
  plan.allocate_prefix(31);
  EXPECT_THROW(plan.allocate_prefix(32), Error);
}

}  // namespace
}  // namespace repro
