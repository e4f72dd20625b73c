// Sink interface: one consumer of Figure records.
//
// The bench harness builds a Figure per reproduced figure and pushes it
// through every configured sink — Text (stdout report), Json
// (BENCH_<slug>.json), Csv (<slug>.csv), Gnuplot (<slug>.dat/.gp) —
// so every output format is a projection of the same typed record
// instead of a hand-formatted side channel.
#pragma once

#include <filesystem>
#include <ostream>
#include <string_view>
#include <vector>

#include "report/record.hpp"

namespace amdmb::report {

class Sink {
 public:
  virtual ~Sink() = default;

  /// Emits one figure record. File sinks skip figures with no curves
  /// (nothing to plot); the text sink always prints the header block.
  virtual void Write(const Figure& figure) = 0;
};

/// A sink that writes files under one output directory. The directory
/// is validated up front (created if missing, probed for writability)
/// so a bad path fails before any sweep result is lost.
class FileSink : public Sink {
 public:
  explicit FileSink(std::filesystem::path directory)
      : directory_(std::move(directory)) {}

  /// Stdout label for the headline path ("JSON results").
  virtual std::string_view Label() const = 0;

  /// Paths written by the most recent Write call (empty when the figure
  /// was skipped). The last entry is the headline path.
  const std::vector<std::filesystem::path>& Written() const {
    return written_;
  }

 protected:
  std::filesystem::path directory_;
  std::vector<std::filesystem::path> written_;
};

/// Validates that `directory` exists (creating it if needed) and is
/// writable by actually creating and removing a probe file in it.
/// Throws ConfigError naming `label` (e.g. "AMDMB_JSON_DIR") with the
/// OS error detail — a bad output directory must fail loudly up front,
/// not silently drop results at the end of a long run.
void EnsureWritableDirectory(const std::filesystem::path& directory,
                             std::string_view label);

/// Writes `figure` through every sink the environment selects: the text
/// sink to `text` (skipped when null), gnuplot .dat/.gp under
/// AMDMB_DUMP_DIR, and BENCH_<slug>.json plus <slug>.csv under
/// AMDMB_JSON_DIR. Each file written is named on `log`.
void WriteConfiguredSinks(const Figure& figure, std::ostream* text,
                          std::ostream& log);

}  // namespace amdmb::report
