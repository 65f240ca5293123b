#include <gtest/gtest.h>

#include <sstream>

#include "core/tracer.hpp"
#include "test_util.hpp"

namespace {

using namespace swr;
using namespace swr::core;

TEST(ArrayTracer, ProducesVcdForARun) {
  ArrayController<ScorePe> ctl(4, 16, align::Scoring::paper_default(), 1 << 20, false);
  std::ostringstream vcd;
  ArrayTracer tracer(vcd);
  tracer.attach(ctl);
  const seq::Sequence q = swr::test::random_dna(4, 1);
  const seq::Sequence db = swr::test::random_dna(12, 2);
  (void)ctl.run(q, db);
  EXPECT_GT(tracer.samples(), 12u);
  const std::string text = vcd.str();
  EXPECT_NE(text.find("$enddefinitions $end"), std::string::npos);
  EXPECT_NE(text.find("pe0_D"), std::string::npos);
  EXPECT_NE(text.find("pe3_Bc"), std::string::npos);
  EXPECT_NE(text.find("#1"), std::string::npos);  // at least one sampled cycle
}

TEST(ArrayTracer, SignalLimitCapsProbes) {
  ArrayController<ScorePe> ctl(8, 16, align::Scoring::paper_default(), 1 << 20, false);
  std::ostringstream vcd;
  ArrayTracer tracer(vcd, /*signal_limit=*/2);
  tracer.attach(ctl);
  (void)ctl.run(swr::test::random_dna(8, 3), swr::test::random_dna(10, 4));
  const std::string text = vcd.str();
  EXPECT_NE(text.find("pe1_D"), std::string::npos);
  EXPECT_EQ(text.find("pe2_D"), std::string::npos);
}

TEST(ArrayTracer, DoubleAttachRejected) {
  ArrayController<ScorePe> ctl(2, 16, align::Scoring::paper_default(), 1 << 20, false);
  std::ostringstream vcd;
  ArrayTracer tracer(vcd);
  tracer.attach(ctl);
  EXPECT_THROW(tracer.attach(ctl), std::logic_error);
}

}  // namespace
