// IL text parser tests: round-trips with the printer, hand-written
// kernels, and malformed-input diagnostics.
#include <gtest/gtest.h>

#include "common/status.hpp"
#include "il/builder.hpp"
#include "il/parser.hpp"
#include "il/printer.hpp"
#include "il/verifier.hpp"
#include "suite/kernelgen.hpp"

namespace amdmb::il {
namespace {

void ExpectSameKernel(const Kernel& a, const Kernel& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.sig.inputs, b.sig.inputs);
  EXPECT_EQ(a.sig.outputs, b.sig.outputs);
  EXPECT_EQ(a.sig.constants, b.sig.constants);
  EXPECT_EQ(a.sig.type, b.sig.type);
  EXPECT_EQ(a.sig.read_path, b.sig.read_path);
  EXPECT_EQ(a.sig.write_path, b.sig.write_path);
  ASSERT_EQ(a.code.size(), b.code.size());
  for (std::size_t i = 0; i < a.code.size(); ++i) {
    EXPECT_EQ(a.code[i].op, b.code[i].op) << "inst " << i;
    EXPECT_EQ(a.code[i].dst, b.code[i].dst) << "inst " << i;
    EXPECT_EQ(a.code[i].resource, b.code[i].resource) << "inst " << i;
    ASSERT_EQ(a.code[i].srcs.size(), b.code[i].srcs.size()) << "inst " << i;
    for (std::size_t s = 0; s < a.code[i].srcs.size(); ++s) {
      EXPECT_EQ(a.code[i].srcs[s].kind, b.code[i].srcs[s].kind);
      EXPECT_EQ(a.code[i].srcs[s].index, b.code[i].srcs[s].index);
      EXPECT_EQ(a.code[i].srcs[s].literal, b.code[i].srcs[s].literal);
    }
  }
}

TEST(ParserTest, RoundTripsGeneratedKernels) {
  for (const DataType type : {DataType::kFloat, DataType::kFloat4}) {
    for (const ReadPath read : {ReadPath::kTexture, ReadPath::kGlobal}) {
      suite::GenericSpec spec;
      spec.inputs = 6;
      spec.outputs = 2;
      spec.alu_ops = 24;
      spec.type = type;
      spec.read_path = read;
      spec.write_path = WritePath::kGlobal;
      const Kernel original = suite::GenerateGeneric(spec);
      const Kernel reparsed = Parse(Print(original));
      ExpectSameKernel(original, reparsed);
      EXPECT_TRUE(Verify(reparsed).ok());
    }
  }
}

TEST(ParserTest, RoundTripsRegisterUsageKernelWithClauseBreaks) {
  suite::RegisterUsageSpec spec;
  spec.step = 3;
  const Kernel control = suite::GenerateClauseUsage(spec);
  const Kernel reparsed = Parse(Print(control));
  ExpectSameKernel(control, reparsed);
}

TEST(ParserTest, ParsesHandWrittenKernel) {
  const Kernel k = Parse(R"(il_ps_2_0 ; mykernel
; type=Float read=Texture write=Stream
dcl_input i0..i1
dcl_cb cb0[2]
dcl_output o0
  sample r0, i0
  sample r1, i1
  mad    r2, r0, r1, cb0[1]
  add    r3, r2, l(1.5)
  export o0, r3
end
)");
  EXPECT_EQ(k.name, "mykernel");
  EXPECT_EQ(k.sig.inputs, 2u);
  EXPECT_EQ(k.sig.constants, 2u);
  EXPECT_EQ(k.code.size(), 5u);
  EXPECT_EQ(k.code[2].op, Opcode::kMad);
  EXPECT_EQ(k.code[2].srcs[2].kind, OperandKind::kConstBuf);
  EXPECT_EQ(k.code[3].srcs[1].literal, 1.5f);
  EXPECT_TRUE(Verify(k).ok()) << Verify(k).Message();
}

TEST(ParserTest, SingleDeclarationsWithoutRange) {
  const Kernel k = Parse(
      "il_cs_2_0\n"
      "; type=Float read=Global write=Global\n"
      "dcl_input i0\n"
      "dcl_output o0\n"
      "  uav_load r0, i0\n"
      "  uav_store o0, r0\n"
      "end\n");
  EXPECT_EQ(k.sig.inputs, 1u);
  EXPECT_EQ(k.sig.outputs, 1u);
  EXPECT_TRUE(Verify(k).ok());
}

TEST(ParserTest, ErrorsCarryLineNumbers) {
  const char* bad =
      "il_ps_2_0\n"
      "dcl_input i0\n"
      "dcl_output o0\n"
      "  frobnicate r0, i0\n"
      "end\n";
  try {
    Parse(bad);
    FAIL() << "expected a parse error";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("frobnicate"), std::string::npos);
  }
}

TEST(ParserTest, RejectsStructuralErrors) {
  EXPECT_THROW(Parse("dcl_input i0\nend\n"), ConfigError);  // No header.
  EXPECT_THROW(Parse("il_ps_2_0\n"), ConfigError);          // No end.
  EXPECT_THROW(Parse("il_ps_2_0\nend\nextra\n"), ConfigError);
  EXPECT_THROW(Parse("il_ps_2_0\ndcl_input i3..i5\nend\n"), ConfigError);
  // Wrong operand arity.
  EXPECT_THROW(Parse("il_ps_2_0\ndcl_output o0\n  add r0, r1\nend\n"),
               ConfigError);
}

TEST(ParserTest, RangeEndTooLargeToCountIsAConfigError) {
  // i0..i4294967295 declares 2^32 inputs, one more than `unsigned` can
  // count; the count must not wrap to zero.
  try {
    Parse("il_ps_2_0\ndcl_input i0..i4294967295\nend\n");
    FAIL() << "expected a parse error";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("too large"), std::string::npos);
  }
  EXPECT_THROW(Parse("il_ps_2_0\ndcl_output o0..o4294967295\nend\n"),
               ConfigError);
  // The largest countable range still parses.
  EXPECT_EQ(Parse("il_ps_2_0\ndcl_input i0..i4294967294\nend\n").sig.inputs,
            4294967295u);
}

TEST(ParserTest, ParsedKernelCompilesAndRuns) {
  suite::GenericSpec spec;
  spec.inputs = 4;
  spec.alu_ops = 16;
  const Kernel k = Parse(Print(suite::GenerateGeneric(spec)));
  // The parsed kernel must be usable end to end.
  EXPECT_NO_THROW(VerifyOrThrow(k));
}

}  // namespace
}  // namespace amdmb::il
