#include "il/verifier.hpp"

#include <sstream>
#include <unordered_set>

#include "common/status.hpp"

namespace amdmb::il {

std::string VerifyResult::Message() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    if (i) os << "; ";
    os << problems[i];
  }
  return os.str();
}

VerifyResult Verify(const Kernel& kernel) {
  VerifyResult result;
  auto fail = [&](const std::string& msg) { result.problems.push_back(msg); };

  if (kernel.sig.outputs == 0) {
    fail("kernel declares no outputs; CAL would optimize it away");
  }

  std::unordered_set<unsigned> defined;
  std::unordered_set<unsigned> used_regs;
  std::vector<unsigned> input_fetch_count(kernel.sig.inputs, 0);
  std::vector<unsigned> output_write_count(kernel.sig.outputs, 0);

  for (std::size_t i = 0; i < kernel.code.size(); ++i) {
    const Inst& inst = kernel.code[i];
    const std::string at = "inst " + std::to_string(i);

    if (inst.srcs.size() != SourceCount(inst.op)) {
      fail(at + ": wrong source count for " + std::string(Mnemonic(inst.op)));
      continue;
    }
    for (const Operand& src : inst.srcs) {
      switch (src.kind) {
        case OperandKind::kVirtualReg:
          if (!defined.contains(src.index)) {
            fail(at + ": register r" + std::to_string(src.index) +
                 " used before definition");
          }
          used_regs.insert(src.index);
          break;
        case OperandKind::kConstBuf:
          if (src.index >= kernel.sig.constants) {
            fail(at + ": constant-buffer slot out of range");
          }
          break;
        case OperandKind::kLiteral:
          break;
      }
    }

    if (IsFetch(inst.op)) {
      if (inst.resource >= kernel.sig.inputs) {
        fail(at + ": fetch of undeclared input");
      } else {
        ++input_fetch_count[inst.resource];
      }
      const bool wants_texture =
          kernel.sig.read_path == ReadPath::kTexture;
      if (wants_texture != (inst.op == Opcode::kSample)) {
        fail(at + ": fetch opcode disagrees with signature read path");
      }
    }
    if (IsWrite(inst.op)) {
      if (inst.resource >= kernel.sig.outputs) {
        fail(at + ": write to undeclared output");
      } else {
        ++output_write_count[inst.resource];
      }
      const bool wants_stream = kernel.sig.write_path == WritePath::kStream;
      if (wants_stream != (inst.op == Opcode::kExport)) {
        fail(at + ": write opcode disagrees with signature write path");
      }
    }

    if (IsFetch(inst.op) || IsAlu(inst.op)) {
      if (defined.contains(inst.dst)) {
        fail(at + ": register r" + std::to_string(inst.dst) +
             " defined twice (IL is single-assignment)");
      }
      defined.insert(inst.dst);
    }
  }

  // Dead-code rules the paper's generators must respect.
  for (unsigned i = 0; i < kernel.sig.inputs; ++i) {
    if (input_fetch_count[i] == 0) {
      fail("input " + std::to_string(i) +
           " declared but never fetched; CAL would remove it");
    }
  }
  for (unsigned o = 0; o < kernel.sig.outputs; ++o) {
    if (output_write_count[o] == 0) {
      fail("output " + std::to_string(o) + " never written");
    }
    if (output_write_count[o] > 1) {
      fail("output " + std::to_string(o) + " written more than once");
    }
  }
  // Every fetched value must feed the computation, or CAL removes the
  // fetch ("Every input that is declared and sampled has to be used").
  for (const Inst& inst : kernel.code) {
    if (IsFetch(inst.op) && !used_regs.contains(inst.dst)) {
      fail("fetched value r" + std::to_string(inst.dst) +
           " (input " + std::to_string(inst.resource) +
           ") is never used; CAL would remove the fetch");
    }
  }
  return result;
}

void VerifyOrThrow(const Kernel& kernel) {
  const VerifyResult r = Verify(kernel);
  if (!r.ok()) {
    throw ConfigError("IL kernel '" + kernel.name + "' invalid: " +
                      r.Message());
  }
}

}  // namespace amdmb::il
