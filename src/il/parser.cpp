#include "il/parser.hpp"

#include <cctype>
#include <charconv>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/status.hpp"

namespace amdmb::il {

namespace {

/// Cursor over one line's text with error context.
class LineCursor {
 public:
  LineCursor(std::string_view text, unsigned line_no)
      : text_(text), line_no_(line_no) {}

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= text_.size();
  }

  bool Consume(std::string_view token) {
    SkipSpace();
    if (text_.substr(pos_).starts_with(token)) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  void Expect(std::string_view token) {
    if (!Consume(token)) Fail("expected '" + std::string(token) + "'");
  }

  unsigned Number() {
    SkipSpace();
    unsigned value = 0;
    const char* begin = text_.data() + pos_;
    const char* end = text_.data() + text_.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc() || ptr == begin) Fail("expected a number");
    pos_ += static_cast<std::size_t>(ptr - begin);
    return value;
  }

  float FloatNumber() {
    SkipSpace();
    // std::stof throws std::invalid_argument / std::out_of_range on
    // malformed or overflowing literals ("l(zz)", "l(1e99999)"); both
    // must surface as the parser's typed ConfigError — kernel text is
    // untrusted input (kerncap intake, fuzzing).
    std::size_t digits = 0;
    float value = 0.0f;
    try {
      value = std::stof(std::string(text_.substr(pos_)), &digits);
    } catch (const std::invalid_argument&) {
      Fail("expected a float literal");
    } catch (const std::out_of_range&) {
      Fail("float literal out of range");
    }
    pos_ += digits;
    return value;
  }

  /// Next bare word (letters, digits, '_').
  std::string Word() {
    SkipSpace();
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    if (pos_ == start) Fail("expected a word");
    return std::string(text_.substr(start, pos_ - start));
  }

  /// Remainder of the line, trimmed.
  std::string Rest() {
    SkipSpace();
    std::string rest(text_.substr(pos_));
    while (!rest.empty() && (rest.back() == ' ' || rest.back() == '\r')) {
      rest.pop_back();
    }
    pos_ = text_.size();
    return rest;
  }

  [[noreturn]] void Fail(const std::string& message) const {
    Require(false, "IL parse error at line " + std::to_string(line_no_) +
                       ": " + message + " in '" + std::string(text_) + "'");
    std::abort();  // Unreachable; Require throws.
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  unsigned line_no_;
};

Operand ParseOperand(LineCursor& cur) {
  if (cur.Consume("cb0[")) {
    const unsigned slot = cur.Number();
    cur.Expect("]");
    return Operand::Const(slot);
  }
  if (cur.Consume("l(")) {
    const float value = cur.FloatNumber();
    cur.Expect(")");
    return Operand::Lit(value);
  }
  if (cur.Consume("r")) {
    return Operand::Reg(cur.Number());
  }
  cur.Fail("expected an operand (rN, cb0[K] or l(x))");
}

Opcode OpcodeByMnemonic(const std::string& word, LineCursor& cur) {
  for (const Opcode op :
       {Opcode::kSample, Opcode::kGlobalLoad, Opcode::kAdd, Opcode::kSub,
        Opcode::kMul, Opcode::kMad, Opcode::kMov, Opcode::kRcp, Opcode::kSin,
        Opcode::kExport, Opcode::kGlobalStore}) {
    if (word == Mnemonic(op)) return op;
  }
  cur.Fail("unknown mnemonic '" + word + "'");
}

DataType ParseType(const std::string& word, LineCursor& cur) {
  if (word == "Float") return DataType::kFloat;
  if (word == "Float4") return DataType::kFloat4;
  cur.Fail("unknown data type '" + word + "'");
}

ReadPath ParseRead(const std::string& word, LineCursor& cur) {
  if (word == "Texture") return ReadPath::kTexture;
  if (word == "Global") return ReadPath::kGlobal;
  cur.Fail("unknown read path '" + word + "'");
}

WritePath ParseWrite(const std::string& word, LineCursor& cur) {
  if (word == "Stream") return WritePath::kStream;
  if (word == "Global") return WritePath::kGlobal;
  cur.Fail("unknown write path '" + word + "'");
}

/// `i0..i15` or `i0`; returns the declared count.
unsigned ParseRangeCount(LineCursor& cur, std::string_view prefix) {
  cur.Expect(prefix);
  const unsigned first = cur.Number();
  if (first != 0) cur.Fail("declaration ranges must start at 0");
  if (cur.Consume("..")) {
    cur.Expect(prefix);
    const unsigned last = cur.Number();
    // The count is last + 1; at the top of the range it would wrap to 0.
    if (last == std::numeric_limits<unsigned>::max()) {
      cur.Fail("declaration range end " + std::to_string(last) +
               " is too large to count");
    }
    return last + 1;
  }
  return 1;
}

}  // namespace

Kernel Parse(std::string_view text) {
  Kernel kernel;
  bool saw_header = false;
  bool saw_end = false;
  unsigned line_no = 0;

  std::istringstream stream{std::string(text)};
  std::string raw_line;
  while (std::getline(stream, raw_line)) {
    ++line_no;
    LineCursor cur(raw_line, line_no);
    if (cur.AtEnd()) continue;
    Require(!saw_end, "IL parse error: content after 'end'");

    if (cur.Consume(";; clause_break")) {
      Inst inst;
      inst.op = Opcode::kClauseBreak;
      kernel.code.push_back(inst);
      continue;
    }
    if (!saw_header) {
      if (cur.Consume("il_ps_2_0") || cur.Consume("il_cs_2_0")) {
        saw_header = true;
        if (cur.Consume(";")) kernel.name = cur.Rest();
        continue;
      }
      cur.Fail("kernel must start with il_ps_2_0 / il_cs_2_0");
    }
    if (cur.Consume("; type=")) {
      kernel.sig.type = ParseType(cur.Word(), cur);
      cur.Expect("read=");
      kernel.sig.read_path = ParseRead(cur.Word(), cur);
      cur.Expect("write=");
      kernel.sig.write_path = ParseWrite(cur.Word(), cur);
      continue;
    }
    if (cur.Consume(";")) continue;  // Other comments.
    if (cur.Consume("dcl_input")) {
      kernel.sig.inputs = ParseRangeCount(cur, "i");
      continue;
    }
    if (cur.Consume("dcl_cb")) {
      cur.Expect("cb0[");
      kernel.sig.constants = cur.Number();
      cur.Expect("]");
      continue;
    }
    if (cur.Consume("dcl_output")) {
      kernel.sig.outputs = ParseRangeCount(cur, "o");
      continue;
    }
    if (cur.Consume("end")) {
      saw_end = true;
      continue;
    }

    // Instruction line.
    const Opcode op = OpcodeByMnemonic(cur.Word(), cur);
    Inst inst;
    inst.op = op;
    if (IsFetch(op)) {
      cur.Expect("r");
      inst.dst = cur.Number();
      cur.Expect(",");
      cur.Expect("i");
      inst.resource = cur.Number();
    } else if (IsWrite(op)) {
      cur.Expect("o");
      inst.resource = cur.Number();
      cur.Expect(",");
      inst.srcs.push_back(ParseOperand(cur));
    } else {
      cur.Expect("r");
      inst.dst = cur.Number();
      for (unsigned s = 0; s < SourceCount(op); ++s) {
        cur.Expect(",");
        inst.srcs.push_back(ParseOperand(cur));
      }
    }
    if (!cur.AtEnd()) cur.Fail("trailing text after instruction");
    kernel.code.push_back(std::move(inst));
  }
  Require(saw_header, "IL parse error: missing il_ps_2_0 / il_cs_2_0 header");
  Require(saw_end, "IL parse error: missing 'end'");
  return kernel;
}

}  // namespace amdmb::il
