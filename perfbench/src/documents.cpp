#include "documents.hpp"

#include <fstream>
#include <sstream>

#include "common/status.hpp"
#include "kerncap/intake.hpp"

namespace perfbench {

std::string MaskVersion(std::string_view bench_json) {
  static constexpr std::string_view kKey = "\"suite_version\": \"";
  std::string out(bench_json);
  const std::size_t at = out.find(kKey);
  if (at == std::string::npos) return out;
  const std::size_t begin = at + kKey.size();
  const std::size_t end = out.find('"', begin);
  if (end == std::string::npos) return out;
  out.erase(begin, end - begin);
  return out;
}

std::string DocumentDigest(std::string_view bench_json) {
  return amdmb::kerncap::ContentHash(MaskVersion(bench_json));
}

DigestTable LoadDigests(const std::filesystem::path& file) {
  DigestTable table;
  std::ifstream in(file);
  std::string name, digest;
  while (in >> name >> digest) table[name] = digest;
  return table;
}

void WriteDigests(const std::filesystem::path& file,
                  const DigestTable& table) {
  std::ofstream out(file);
  for (const auto& [name, digest] : table) out << name << ' ' << digest << '\n';
  out.flush();
  amdmb::Require(out.good(), "cannot write " + file.string());
}

std::string FigureKey(const std::string& slug, bool adaptive) {
  return adaptive ? slug + "@adaptive" : slug;
}

bool Gate::Check(const std::string& key, std::string_view bench_json) {
  ++checked_;
  const auto it = reference_.find(key);
  if (it == reference_.end()) {
    Fail(key + ": no reference digest");
    return false;
  }
  const std::string digest = DocumentDigest(bench_json);
  if (digest == it->second) return true;
  Fail(key + ": digest " + digest + " != reference " + it->second);
  return false;
}

bool Gate::Same(const std::string& what, std::string_view a,
                std::string_view b) {
  ++checked_;
  if (a == b) return true;
  Fail(what + ": documents differ");
  return false;
}

void Gate::Fail(const std::string& what) {
  if (failed_++ == 0) first_failure_ = what;
}

}  // namespace perfbench
