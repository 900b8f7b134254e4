// Checkpoint file for partially-run sweeps: resume exactly where a killed
// run stopped.
//
// A checkpoint is a line-oriented text file. The first line names the
// chunk-line format (checkpoint_format(), a hash of kResultFields) and binds
// the file to one run configuration via a fingerprint of the sweep plan
// (scenario names, seeds, and every result-affecting point parameter — but
// not the engine mode or worker count, which are bit-identical by contract):
//
//   wsync-checkpoint fields-<8-hex> fingerprint <16-hex>
//
// Every completed chunk (one experiment point's full PointResult aggregate)
// is appended as one self-checksummed line and flushed before the next
// chunk starts, so a SIGKILL can lose at most the line being written:
//
//   chunk <scenario> <point-index> <kResultFields values...> #<fnv1a-16-hex>
//
// Doubles are serialized as their 64-bit IEEE bit patterns in hex, so a
// resumed run re-renders byte-identical CSV/JSON from checkpointed chunks.
// Loading is strict: a bad header, another format (the older fixed "v3"
// included) or fingerprint, a checksum mismatch, a negative count, a
// malformed or duplicate chunk line all reject the file (resume must never
// silently merge foreign results). The one tolerated irregularity is a
// final line with no trailing newline — the signature of a kill
// mid-append — which is dropped with a notice.
#ifndef WSYNC_SERVICE_CHECKPOINT_H_
#define WSYNC_SERVICE_CHECKPOINT_H_

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "src/experiment/sweep.h"

namespace wsync {

/// Completed chunks keyed by (scenario name, point index). The stored
/// PointResult carries a default ExperimentPoint; the resuming sweep
/// refills it from the regenerated grid (the fingerprint guarantees the
/// grids match).
using CheckpointData =
    std::map<std::pair<std::string, size_t>, PointResult>;

/// FNV-1a 64-bit over `text`, the checksum behind every chunk line.
uint64_t fnv1a64(std::string_view text, uint64_t seed = 0xcbf29ce484222325);

/// This build's checkpoint format tag, "fields-<8-hex>" (see above).
std::string checkpoint_format();

/// One chunk line, checksum included, no trailing newline.
std::string encode_chunk_line(const std::string& scenario,
                              size_t point_index, const PointResult& result);

/// Parses one chunk line (as produced by encode_chunk_line). Returns empty
/// on success, else a human-readable reason ("checksum mismatch", ...).
std::string decode_chunk_line(const std::string& line, std::string* scenario,
                              size_t* point_index, PointResult* result);

struct CheckpointLoad {
  CheckpointData chunks;
  /// Nonempty when the file was rejected; `chunks` is then unusable.
  std::string error;
  /// True when a trailing newline-less partial line was dropped (the
  /// interrupted-append case).
  bool dropped_partial_tail = false;
  bool ok() const { return error.empty(); }
};

/// Loads and validates `path` against the expected plan fingerprint.
CheckpointLoad load_checkpoint(const std::string& path, uint64_t fingerprint);

/// Append-only chunk log. Fresh mode truncates and writes the header;
/// resume mode appends below the already-validated existing content. Every
/// append is flushed immediately (crash-safety is the whole point).
class CheckpointWriter {
 public:
  CheckpointWriter(const std::string& path, uint64_t fingerprint,
                   bool resume);

  bool ok() const { return static_cast<bool>(out_); }

  /// Appends one completed chunk and flushes.
  void append(const std::string& scenario, size_t point_index,
              const PointResult& result);

 private:
  std::ofstream out_;
};

}  // namespace wsync

#endif  // WSYNC_SERVICE_CHECKPOINT_H_
