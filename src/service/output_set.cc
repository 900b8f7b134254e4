#include "src/service/output_set.h"

#include <cstdio>

namespace wsync {

bool OutputSet::opened(const std::string& flag, const std::string& path,
                       bool ok) {
  if (!ok) {
    std::fprintf(stderr, "%s: cannot write %s '%s'\n", tool_.c_str(),
                 flag.c_str(), path.c_str());
  }
  return ok;
}

bool OutputSet::open(const std::string& flag, const std::string& path) {
  if (path.empty()) return true;
  File& file = files_.emplace_back(File{flag, path, std::ofstream(path)});
  if (!opened(flag, path, static_cast<bool>(file.stream))) return false;
  if (flag == "--json") json_.emplace(file.stream);
  if (flag == "--csv") csv_.emplace(file.stream);
  return true;
}

bool OutputSet::open_checkpoint(const std::string& path, uint64_t fingerprint,
                                bool resume) {
  if (path.empty()) return true;
  checkpoint_path_ = path;
  checkpoint_.emplace(path, fingerprint, resume);
  return opened("--checkpoint", path, checkpoint_->ok());
}

std::ostream* OutputSet::file(const std::string& flag) {
  for (File& file : files_) {
    if (file.flag == flag) return &file.stream;
  }
  return nullptr;
}

void OutputSet::add_scenario(const PlannedScenario& planned,
                             const std::vector<PointResult>& results,
                             const std::vector<std::string>& failures) {
  if (json_.has_value()) {
    json_->add_scenario(planned.scenario, planned.seeds, results, failures);
  }
  if (csv_.has_value()) csv_->add(planned.scenario, results);
}

bool OutputSet::finish() {
  if (json_.has_value()) json_->finish();
  bool written = true;
  const auto failed = [&](const std::string& what) {
    std::fprintf(stderr, "%s: error writing %s\n", tool_.c_str(), what.c_str());
    written = false;
  };
  if (checkpoint_.has_value() && !checkpoint_->ok()) {
    failed("--checkpoint '" + checkpoint_path_ + "'");
  }
  for (File& file : files_) {
    if (!file.stream.flush()) failed(file.flag + " '" + file.path + "'");
  }
  if (std::fflush(stdout) != 0 || std::ferror(stdout) != 0) failed("stdout");
  return written;
}

}  // namespace wsync
