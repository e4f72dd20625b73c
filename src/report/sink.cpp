#include "report/sink.hpp"

#include <fstream>

#include "common/env.hpp"
#include "common/status.hpp"
#include "report/csv_sink.hpp"
#include "report/gnuplot_sink.hpp"
#include "report/json_sink.hpp"
#include "report/text_sink.hpp"

namespace amdmb::report {

void EnsureWritableDirectory(const std::filesystem::path& directory,
                             std::string_view label) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    throw ConfigError(std::string(label) + ": cannot create directory '" +
                      directory.string() + "': " + ec.message());
  }
  // create_directories succeeds on an existing path even when it is not
  // a directory or not writable — probe with a real file.
  const std::filesystem::path probe =
      directory / ".amdmb_write_probe.tmp";
  {
    std::ofstream out(probe);
    if (!out.good()) {
      throw ConfigError(std::string(label) + ": directory '" +
                        directory.string() +
                        "' is not writable (cannot create files in it)");
    }
  }
  std::filesystem::remove(probe, ec);  // Best effort; the probe is empty.
}

namespace {

void WriteFiles(FileSink& sink, const Figure& figure, std::ostream& log) {
  sink.Write(figure);
  for (const auto& path : sink.Written()) {
    log << sink.Label() << ": " << path.string() << "\n";
  }
}

}  // namespace

void WriteConfiguredSinks(const Figure& figure, std::ostream* text,
                          std::ostream& log) {
  if (text != nullptr) TextSink(*text).Write(figure);
  const env::Options& options = env::Get();
  if (options.dump_dir) {
    GnuplotSink gnuplot(*options.dump_dir);
    WriteFiles(gnuplot, figure, log);
  }
  if (options.json_dir) {
    JsonSink json(*options.json_dir);
    WriteFiles(json, figure, log);
    CsvSink csv(*options.json_dir);
    WriteFiles(csv, figure, log);
  }
}

}  // namespace amdmb::report
