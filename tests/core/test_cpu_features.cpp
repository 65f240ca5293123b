// CPUID-based SIMD tier detection and the SWR_SIMD / --simd policy
// resolution: parsing, clamping, env override precedence.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "align/sw_striped.hpp"
#include "core/cpu_features.hpp"

namespace {

using namespace swr::core;

// Restores the prior SWR_SIMD value (or its absence) on scope exit so
// these tests cannot leak policy into other tests in the binary.
class ScopedSimdEnv {
 public:
  explicit ScopedSimdEnv(const char* value) {
    const char* prev = std::getenv("SWR_SIMD");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    if (value != nullptr) {
      ::setenv("SWR_SIMD", value, 1);
    } else {
      ::unsetenv("SWR_SIMD");
    }
  }
  ~ScopedSimdEnv() {
    if (had_prev_) {
      ::setenv("SWR_SIMD", prev_.c_str(), 1);
    } else {
      ::unsetenv("SWR_SIMD");
    }
  }

 private:
  bool had_prev_ = false;
  std::string prev_;
};

TEST(CpuFeatures, ParseAcceptsEveryCanonicalName) {
  EXPECT_EQ(parse_simd_isa("scalar"), SimdIsa::Scalar);
  EXPECT_EQ(parse_simd_isa("sse41"), SimdIsa::Sse41);
  EXPECT_EQ(parse_simd_isa("avx2"), SimdIsa::Avx2);
  EXPECT_EQ(parse_simd_isa("auto"), std::nullopt);
  EXPECT_EQ(parse_simd_isa(""), std::nullopt);
}

TEST(CpuFeatures, ParseRejectsUnknownWithListedChoices) {
  try {
    (void)parse_simd_isa("sse42");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("sse42"), std::string::npos) << msg;
    EXPECT_NE(msg.find("choices: auto|scalar|sse41|avx2"), std::string::npos) << msg;
  }
}

TEST(CpuFeatures, NameRoundTripsThroughParse) {
  for (const SimdIsa isa : {SimdIsa::Scalar, SimdIsa::Sse41, SimdIsa::Avx2}) {
    EXPECT_EQ(parse_simd_isa(simd_isa_name(isa)), isa);
  }
}

TEST(CpuFeatures, PortableTiersAlwaysSupported) { EXPECT_TRUE(cpu_supports(SimdIsa::Scalar)); }

TEST(CpuFeatures, SupportIsMonotonicInWidth) {
  // A CPU with AVX2 always has SSE4.1; detection must agree, and must
  // never report a striped tier the binary has no code for.
  if (cpu_supports(SimdIsa::Avx2)) EXPECT_TRUE(cpu_supports(SimdIsa::Sse41));
  if (!swr::align::sw_striped_compiled()) {
    EXPECT_FALSE(cpu_supports(SimdIsa::Sse41));
    EXPECT_FALSE(cpu_supports(SimdIsa::Avx2));
  }
}

TEST(CpuFeatures, DetectedIsWidestSupported) {
  const SimdIsa d = detected_simd_isa();
  EXPECT_TRUE(cpu_supports(d));
  if (cpu_supports(SimdIsa::Avx2)) EXPECT_EQ(d, SimdIsa::Avx2);
  else if (cpu_supports(SimdIsa::Sse41)) EXPECT_EQ(d, SimdIsa::Sse41);
  else EXPECT_EQ(d, SimdIsa::Scalar);
}

TEST(CpuFeatures, ClampHonoursSupportedRequests) {
  std::string warning = "stale";
  EXPECT_EQ(clamp_simd_isa(SimdIsa::Scalar, SimdIsa::Avx2, &warning), SimdIsa::Scalar);
  EXPECT_TRUE(warning.empty());  // no degrade -> warning cleared
  EXPECT_EQ(clamp_simd_isa(SimdIsa::Sse41, SimdIsa::Sse41, &warning), SimdIsa::Sse41);
  EXPECT_TRUE(warning.empty());
}

TEST(CpuFeatures, ClampDegradesUnsupportedRequestWithWarning) {
  std::string warning;
  EXPECT_EQ(clamp_simd_isa(SimdIsa::Avx2, SimdIsa::Scalar, &warning), SimdIsa::Scalar);
  EXPECT_NE(warning.find("avx2"), std::string::npos) << warning;
  EXPECT_NE(warning.find("scalar"), std::string::npos) << warning;
  EXPECT_NE(warning.find("degrading"), std::string::npos) << warning;
  // Null warning pointer is fine.
  EXPECT_EQ(clamp_simd_isa(SimdIsa::Avx2, SimdIsa::Sse41), SimdIsa::Sse41);
}

TEST(CpuFeatures, EffectiveNeverExceedsMachine) {
  for (const SimdIsa req : {SimdIsa::Scalar, SimdIsa::Sse41, SimdIsa::Avx2}) {
    const SimdIsa got = effective_simd_isa(req);
    EXPECT_TRUE(cpu_supports(got));
    EXPECT_LE(static_cast<unsigned>(got), static_cast<unsigned>(req));
  }
}

TEST(CpuFeatures, EnvOverrideWinsOverDetection) {
  {
    ScopedSimdEnv env("scalar");
    EXPECT_EQ(simd_isa_env_override(), SimdIsa::Scalar);
    EXPECT_EQ(auto_simd_isa(), SimdIsa::Scalar);
  }
  {
    ScopedSimdEnv env("sse41");
    EXPECT_EQ(auto_simd_isa(), cpu_supports(SimdIsa::Sse41) ? SimdIsa::Sse41 : SimdIsa::Scalar);
  }
}

TEST(CpuFeatures, ResolveTreatsNulloptAsAuto) {
  {
    ScopedSimdEnv env("scalar");
    EXPECT_EQ(resolve_simd_isa(std::nullopt), SimdIsa::Scalar);  // auto honours SWR_SIMD
    EXPECT_EQ(resolve_simd_isa(SimdIsa::Avx2), effective_simd_isa(SimdIsa::Avx2));
  }
  ScopedSimdEnv env(nullptr);
  EXPECT_EQ(resolve_simd_isa(std::nullopt), detected_simd_isa());
  EXPECT_EQ(resolve_simd_isa(SimdIsa::Scalar), SimdIsa::Scalar);
}

TEST(CpuFeatures, EnvAutoAndUnsetFallBackToDetection) {
  {
    ScopedSimdEnv env("auto");
    EXPECT_EQ(simd_isa_env_override(), std::nullopt);
    EXPECT_EQ(auto_simd_isa(), detected_simd_isa());
  }
  {
    ScopedSimdEnv env(nullptr);
    EXPECT_EQ(simd_isa_env_override(), std::nullopt);
    EXPECT_EQ(auto_simd_isa(), detected_simd_isa());
  }
}

TEST(CpuFeatures, BadEnvValueIsIgnoredNotFatal) {
  ScopedSimdEnv env("avx512-or-bust");
  EXPECT_EQ(simd_isa_env_override(), std::nullopt);  // warns once on stderr, never throws
  EXPECT_EQ(auto_simd_isa(), detected_simd_isa());
}

TEST(CpuFeatures, EnvRequestAboveMachineDegrades) {
  ScopedSimdEnv env("avx2");
  const SimdIsa got = auto_simd_isa();
  EXPECT_TRUE(cpu_supports(got));
  EXPECT_LE(static_cast<unsigned>(got), static_cast<unsigned>(SimdIsa::Avx2));
}

// Restores the prior SWR_KERNEL value on scope exit (same contract as
// ScopedSimdEnv).
class ScopedKernelEnv {
 public:
  explicit ScopedKernelEnv(const char* value) {
    const char* prev = std::getenv("SWR_KERNEL");
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    if (value != nullptr) {
      ::setenv("SWR_KERNEL", value, 1);
    } else {
      ::unsetenv("SWR_KERNEL");
    }
  }
  ~ScopedKernelEnv() {
    if (had_prev_) {
      ::setenv("SWR_KERNEL", prev_.c_str(), 1);
    } else {
      ::unsetenv("SWR_KERNEL");
    }
  }

 private:
  bool had_prev_ = false;
  std::string prev_;
};

TEST(KernelShapeParse, AcceptsEveryCanonicalName) {
  EXPECT_EQ(parse_kernel_shape("auto"), KernelShape::Auto);
  EXPECT_EQ(parse_kernel_shape(""), KernelShape::Auto);
  EXPECT_EQ(parse_kernel_shape("striped"), KernelShape::Striped);
  EXPECT_EQ(parse_kernel_shape("interseq"), KernelShape::InterSeq);
}

TEST(KernelShapeParse, RejectsUnknownWithListedChoices) {
  try {
    (void)parse_kernel_shape("diagonal");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("diagonal"), std::string::npos) << msg;
    EXPECT_NE(msg.find("choices: auto|striped|interseq"), std::string::npos) << msg;
  }
}

TEST(KernelShapeParse, NameRoundTripsThroughParse) {
  for (const KernelShape s : {KernelShape::Auto, KernelShape::Striped, KernelShape::InterSeq}) {
    EXPECT_EQ(parse_kernel_shape(kernel_shape_name(s)), s);
  }
}

TEST(KernelShapeEnv, OverrideParsesAndAutoIsAbsent) {
  {
    ScopedKernelEnv env("interseq");
    EXPECT_EQ(kernel_shape_env_override(), KernelShape::InterSeq);
  }
  {
    ScopedKernelEnv env("striped");
    EXPECT_EQ(kernel_shape_env_override(), KernelShape::Striped);
  }
  {
    ScopedKernelEnv env("auto");
    EXPECT_EQ(kernel_shape_env_override(), std::nullopt);
  }
  {
    ScopedKernelEnv env(nullptr);
    EXPECT_EQ(kernel_shape_env_override(), std::nullopt);
  }
}

TEST(KernelShapeEnv, BadValueIsIgnoredNotFatal) {
  ScopedKernelEnv env("systolic");
  EXPECT_EQ(kernel_shape_env_override(), std::nullopt);  // warns once, never throws
}

}  // namespace
