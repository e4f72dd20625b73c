// Unit tests for src/il: opcodes, builder, verifier, printer, and the
// malformed-kernel corpus replay through the kerncap intake.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.hpp"
#include "il/builder.hpp"
#include "il/il.hpp"
#include "il/printer.hpp"
#include "il/verifier.hpp"
#include "kerncap/intake.hpp"

namespace amdmb::il {
namespace {

Signature PixelSig(unsigned inputs, unsigned outputs) {
  Signature sig;
  sig.inputs = inputs;
  sig.outputs = outputs;
  sig.type = DataType::kFloat;
  sig.read_path = ReadPath::kTexture;
  sig.write_path = WritePath::kStream;
  return sig;
}

TEST(OpcodeTest, Classification) {
  EXPECT_TRUE(IsFetch(Opcode::kSample));
  EXPECT_TRUE(IsFetch(Opcode::kGlobalLoad));
  EXPECT_FALSE(IsFetch(Opcode::kAdd));
  EXPECT_TRUE(IsAlu(Opcode::kAdd));
  EXPECT_TRUE(IsAlu(Opcode::kMad));
  EXPECT_TRUE(IsAlu(Opcode::kRcp));
  EXPECT_FALSE(IsAlu(Opcode::kExport));
  EXPECT_TRUE(IsWrite(Opcode::kExport));
  EXPECT_TRUE(IsWrite(Opcode::kGlobalStore));
  EXPECT_TRUE(IsTranscendental(Opcode::kSin));
  EXPECT_FALSE(IsTranscendental(Opcode::kMul));
  EXPECT_TRUE(IsMeta(Opcode::kClauseBreak));
  EXPECT_FALSE(IsMeta(Opcode::kAdd));
}

TEST(OpcodeTest, SourceCounts) {
  EXPECT_EQ(SourceCount(Opcode::kSample), 0u);
  EXPECT_EQ(SourceCount(Opcode::kMov), 1u);
  EXPECT_EQ(SourceCount(Opcode::kAdd), 2u);
  EXPECT_EQ(SourceCount(Opcode::kMad), 3u);
  EXPECT_EQ(SourceCount(Opcode::kExport), 1u);
}

TEST(BuilderTest, BuildsValidChainKernel) {
  Builder b("chain", PixelSig(2, 1));
  const unsigned a = b.Fetch(0);
  const unsigned c = b.Fetch(1);
  const unsigned sum = b.Add(Operand::Reg(a), Operand::Reg(c));
  b.Write(0, sum);
  const Kernel k = std::move(b).Build();
  EXPECT_EQ(k.CountFetchOps(), 2u);
  EXPECT_EQ(k.CountAluOps(), 1u);
  EXPECT_EQ(k.CountWriteOps(), 1u);
  EXPECT_TRUE(Verify(k).ok()) << Verify(k).Message();
}

TEST(BuilderTest, VirtualRegistersAreSequential) {
  Builder b("seq", PixelSig(2, 1));
  EXPECT_EQ(b.Fetch(0), 0u);
  EXPECT_EQ(b.Fetch(1), 1u);
  EXPECT_EQ(b.Add(Operand::Reg(0), Operand::Reg(1)), 2u);
  EXPECT_EQ(b.Alu1(Opcode::kMov, Operand::Reg(2)), 3u);
  b.Write(0, 3);
}

TEST(BuilderTest, RejectsOutOfRangeResources) {
  Builder b("bad", PixelSig(1, 1));
  EXPECT_THROW(b.Fetch(1), ConfigError);
  const unsigned r = b.Fetch(0);
  EXPECT_THROW(b.Write(1, r), ConfigError);
  EXPECT_THROW(b.Write(0, 99), ConfigError);
}

TEST(BuilderTest, RejectsWrongArity) {
  Builder b("arity", PixelSig(1, 1));
  EXPECT_THROW(b.Alu(Opcode::kMov, Operand::Lit(1), Operand::Lit(2)),
               ConfigError);
  EXPECT_THROW(b.Alu1(Opcode::kAdd, Operand::Lit(1)), ConfigError);
  EXPECT_THROW(b.Alu(Opcode::kSample, Operand::Lit(1), Operand::Lit(2)),
               ConfigError);
}

TEST(VerifierTest, FlagsKernelWithoutOutputs) {
  Kernel k;
  k.sig = PixelSig(0, 0);
  const VerifyResult r = Verify(k);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.Message().find("no outputs"), std::string::npos);
}

// Paper Sec. III: "Every input that is declared and sampled has to be
// used, otherwise the compiler optimizes the input out of the code."
TEST(VerifierTest, FlagsUnusedSampledInput) {
  Builder b("unused", PixelSig(2, 1));
  const unsigned a = b.Fetch(0);
  b.Fetch(1);  // Sampled but never used.
  const unsigned sum = b.Add(Operand::Reg(a), Operand::Reg(a));
  b.Write(0, sum);
  const VerifyResult r = Verify(std::move(b).Build());
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.Message().find("never used"), std::string::npos);
}

TEST(VerifierTest, FlagsUndeclaredAndUnfetchedInputs) {
  Kernel k;
  k.sig = PixelSig(2, 1);
  k.code.push_back(Inst{Opcode::kSample, 0, 5, {}});  // Input 5 undeclared.
  k.code.push_back(Inst{Opcode::kExport, 0, 0, {Operand::Reg(0)}});
  const VerifyResult r = Verify(k);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.Message().find("undeclared input"), std::string::npos);
  EXPECT_NE(r.Message().find("never fetched"), std::string::npos);
}

TEST(VerifierTest, FlagsUseBeforeDefinition) {
  Kernel k;
  k.sig = PixelSig(1, 1);
  k.code.push_back(
      Inst{Opcode::kAdd, 1, 0, {Operand::Reg(0), Operand::Reg(0)}});
  k.code.push_back(Inst{Opcode::kSample, 0, 0, {}});
  k.code.push_back(Inst{Opcode::kExport, 0, 0, {Operand::Reg(1)}});
  const VerifyResult r = Verify(k);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.Message().find("before definition"), std::string::npos);
}

TEST(VerifierTest, FlagsDoubleDefinition) {
  Kernel k;
  k.sig = PixelSig(2, 1);
  k.code.push_back(Inst{Opcode::kSample, 0, 0, {}});
  k.code.push_back(Inst{Opcode::kSample, 0, 1, {}});  // Redefines r0.
  k.code.push_back(Inst{Opcode::kExport, 0, 0, {Operand::Reg(0)}});
  const VerifyResult r = Verify(k);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.Message().find("defined twice"), std::string::npos);
}

TEST(VerifierTest, FlagsDoubleWriteAndPathMismatch) {
  Builder b("w", PixelSig(1, 1));
  const unsigned a = b.Fetch(0);
  b.Write(0, a);
  Kernel k = std::move(b).Build();
  // Duplicate the write.
  k.code.push_back(k.code.back());
  EXPECT_FALSE(Verify(k).ok());

  // Path mismatch: export in a global-write kernel.
  Kernel k2 = k;
  k2.code.pop_back();
  k2.sig.write_path = WritePath::kGlobal;
  const VerifyResult r2 = Verify(k2);
  EXPECT_FALSE(r2.ok());
  EXPECT_NE(r2.Message().find("write path"), std::string::npos);
}

TEST(VerifierTest, FlagsConstantOutOfRange) {
  Signature sig = PixelSig(1, 1);
  sig.constants = 1;
  Builder b("c", sig);
  const unsigned a = b.Fetch(0);
  const unsigned s = b.Add(Operand::Reg(a), Operand::Const(3));
  b.Write(0, s);
  const VerifyResult r = Verify(std::move(b).Build());
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.Message().find("constant-buffer"), std::string::npos);
}

TEST(VerifierTest, VerifyOrThrowThrowsConfigError) {
  Kernel k;
  k.name = "no_outputs";
  k.sig = PixelSig(0, 0);
  EXPECT_THROW(VerifyOrThrow(k), ConfigError);
  const VerifyResult r = Verify(k);
  ASSERT_FALSE(r.ok());
  try {
    VerifyOrThrow(k);
    FAIL() << "VerifyOrThrow accepted an invalid kernel";
  } catch (const ConfigError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("'no_outputs'"), std::string::npos) << message;
    for (const std::string& problem : r.problems) {
      EXPECT_NE(message.find(problem), std::string::npos) << problem;
    }
  }
}

TEST(PrinterTest, RendersDeclarationsAndInstructions) {
  Signature sig = PixelSig(2, 1);
  sig.constants = 2;
  Builder b("printme", sig);
  const unsigned a = b.Fetch(0);
  const unsigned c = b.Fetch(1);
  const unsigned s = b.Add(Operand::Reg(a), Operand::Reg(c));
  const unsigned t = b.Alu(Opcode::kMul, Operand::Reg(s), Operand::Const(1));
  b.ClauseBreak();
  const unsigned u = b.Add(Operand::Reg(t), Operand::Lit(2.5f));
  b.Write(0, u);
  const std::string text = Print(std::move(b).Build());
  EXPECT_NE(text.find("il_ps_2_0"), std::string::npos);
  EXPECT_NE(text.find("dcl_input i0..i1"), std::string::npos);
  EXPECT_NE(text.find("dcl_cb cb0[2]"), std::string::npos);
  EXPECT_NE(text.find("sample"), std::string::npos);
  EXPECT_NE(text.find("cb0[1]"), std::string::npos);
  EXPECT_NE(text.find("l(2.5)"), std::string::npos);
  EXPECT_NE(text.find(";; clause_break"), std::string::npos);
  EXPECT_NE(text.find("export"), std::string::npos);
  EXPECT_NE(text.find("end"), std::string::npos);
}

TEST(PrinterTest, ComputeKernelUsesComputeHeader) {
  Signature sig;
  sig.inputs = 1;
  sig.outputs = 1;
  sig.read_path = ReadPath::kGlobal;
  sig.write_path = WritePath::kGlobal;
  Builder b("cs", sig);
  b.Write(0, b.Fetch(0));
  const std::string text = Print(std::move(b).Build());
  EXPECT_NE(text.find("il_cs_2_0"), std::string::npos);
  EXPECT_NE(text.find("uav_load"), std::string::npos);
  EXPECT_NE(text.find("uav_store"), std::string::npos);
}

// Replays the checked-in malformed-kernel corpus (the same files the
// fuzz harness and the kerncap-smoke CI job drive) through the intake
// boundary. Every valid_*.il must be accepted; everything else must
// come back as a typed rejection with a stable reason code — never an
// exception.
TEST(CorpusTest, EveryCorpusFileGetsATypedVerdict) {
  namespace fs = std::filesystem;
  const fs::path corpus = fs::path(AMDMB_TEST_DATA_DIR) / "corpus" / "il";
  ASSERT_TRUE(fs::is_directory(corpus)) << corpus;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(corpus)) {
    if (entry.path().extension() == ".il") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 20u);
  for (const fs::path& path : files) {
    SCOPED_TRACE(path.filename().string());
    std::ifstream file(path, std::ios::binary);
    ASSERT_TRUE(file.is_open());
    std::ostringstream text;
    text << file.rdbuf();
    kerncap::AnalyzeResult result;
    ASSERT_NO_THROW(result = kerncap::Analyze(text.str()));
    const bool expect_ok =
        path.filename().string().rfind("valid_", 0) == 0;
    if (expect_ok) {
      EXPECT_TRUE(result.ok())
          << kerncap::ToString(result.rejection->reason) << ": "
          << result.rejection->detail;
    } else {
      ASSERT_FALSE(result.ok());
      EXPECT_FALSE(
          std::string(kerncap::ToString(result.rejection->reason)).empty());
      EXPECT_FALSE(result.rejection->detail.empty());
    }
  }
}

}  // namespace
}  // namespace amdmb::il
