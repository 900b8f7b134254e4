// Every output a front end writes, checked in one place: stdout (the
// markdown report or the served protocol lines), the --json/--csv exports,
// --metrics-out, --trace-out and the --checkpoint log. A write error such
// as a full disk or a file-size limit may surface only when a stream
// flushes, so each file opens up front (an unwritable path fails before any
// run) and finish() checks every output after the last write. wsync_run
// and wsync_serve exit 2 when either fails.
#ifndef WSYNC_SERVICE_OUTPUT_SET_H_
#define WSYNC_SERVICE_OUTPUT_SET_H_

#include <cstdint>
#include <deque>
#include <fstream>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/scenario/report.h"
#include "src/service/checkpoint.h"
#include "src/service/streaming_sweep.h"

namespace wsync {

class OutputSet {
 public:
  /// `tool` prefixes every error line, e.g. "wsync_run".
  explicit OutputSet(std::string tool) : tool_(std::move(tool)) {}

  /// Opens `path` for the output flag `flag` ("--json", "--metrics-out",
  /// ...); an empty path opens nothing. --json and --csv get the export
  /// writers add_scenario() feeds. False after printing
  /// "<tool>: cannot write <flag> 'PATH'".
  bool open(const std::string& flag, const std::string& path);

  /// The same for the --checkpoint log (see CheckpointWriter).
  bool open_checkpoint(const std::string& path, uint64_t fingerprint,
                       bool resume);

  /// The stream opened for `flag`, or nullptr.
  std::ostream* file(const std::string& flag);

  /// The open checkpoint log, or nullptr.
  CheckpointWriter* checkpoint() {
    return checkpoint_.has_value() ? &*checkpoint_ : nullptr;
  }

  /// Appends one finished scenario to the open --json/--csv exports.
  void add_scenario(const PlannedScenario& planned,
                    const std::vector<PointResult>& results,
                    const std::vector<std::string>& failures);

  /// Closes the JSON document and flushes every file and stdout, printing
  /// "<tool>: error writing <flag> 'PATH'" (or "error writing stdout") for
  /// each output a write failed on. True when none did.
  bool finish();

 private:
  struct File {
    std::string flag;
    std::string path;
    std::ofstream stream;
  };

  bool opened(const std::string& flag, const std::string& path, bool ok);

  std::string tool_;
  std::deque<File> files_;  // a deque never moves an opened stream
  std::string checkpoint_path_;
  std::optional<CheckpointWriter> checkpoint_;
  // Declared after files_, so destroyed before the streams they write.
  std::optional<StreamingJsonWriter> json_;
  std::optional<StreamingCsvWriter> csv_;
};

}  // namespace wsync

#endif  // WSYNC_SERVICE_OUTPUT_SET_H_
