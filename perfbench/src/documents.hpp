// Correctness gate: every figure and characterize document the benchmark
// produces or receives is reduced to a digest and compared against a
// committed reference. The digest masks meta.suite_version, which
// carries `git describe` and so differs between otherwise identical
// builds; every other byte counts.
#pragma once

#include <filesystem>
#include <map>
#include <string>
#include <string_view>

namespace perfbench {

/// The document with the suite_version value blanked.
std::string MaskVersion(std::string_view bench_json);

/// FNV-1a 64 of MaskVersion(bench_json), as 16 hex digits.
std::string DocumentDigest(std::string_view bench_json);

/// Reference digests keyed by document name: one "<name> <digest>" per
/// line. A missing file yields an empty table.
using DigestTable = std::map<std::string, std::string>;
DigestTable LoadDigests(const std::filesystem::path& file);
void WriteDigests(const std::filesystem::path& file, const DigestTable& table);

/// Reference keys: a figure slug, with "@adaptive" for adaptive builds.
std::string FigureKey(const std::string& slug, bool adaptive);

/// Counts document checks and keeps the first mismatch.
class Gate {
 public:
  explicit Gate(const DigestTable& reference) : reference_(reference) {}

  /// Checks `bench_json` against the reference for `key`; returns
  /// whether it matched. A key with no reference is a mismatch.
  bool Check(const std::string& key, std::string_view bench_json);
  /// Checks two documents that must be byte-identical (a served one and
  /// the in-process build of the same request).
  bool Same(const std::string& what, std::string_view a, std::string_view b);

  std::size_t Checked() const { return checked_; }
  std::size_t Failed() const { return failed_; }
  const std::string& FirstFailure() const { return first_failure_; }

 private:
  void Fail(const std::string& what);

  const DigestTable& reference_;
  std::size_t checked_ = 0;
  std::size_t failed_ = 0;
  std::string first_failure_;
};

}  // namespace perfbench
