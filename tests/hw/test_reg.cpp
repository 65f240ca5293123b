#include <gtest/gtest.h>

#include "hw/reg.hpp"

namespace {

using namespace swr::hw;

TEST(Reg, TwoPhaseSemantics) {
  Reg<int> r{7};
  EXPECT_EQ(r.get(), 7);
  r.set_next(9);
  EXPECT_EQ(r.get(), 7);  // not visible before commit
  r.commit();
  EXPECT_EQ(r.get(), 9);
  r.reset();
  EXPECT_EQ(r.get(), 7);
}

}  // namespace
