#include "src/service/checkpoint.h"

#include <bit>
#include <charconv>
#include <iterator>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "src/stats/summary.h"

namespace wsync {

namespace {

constexpr char kMagic[] = "wsync-checkpoint";

void append_hex64(std::string& out, uint64_t value) {
  char buffer[16];
  for (int i = 15; i >= 0; --i) {
    buffer[i] = "0123456789abcdef"[value & 0xf];
    value >>= 4;
  }
  out.append(buffer, sizeof(buffer));
}

std::string hex64(uint64_t value) {
  std::string out;
  append_hex64(out, value);
  return out;
}

bool parse_hex64(std::string_view token, uint64_t* out) {
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, *out, 16);
  return token.size() == 16 && error == std::errc() && stop == end;
}

/// Appends one serialised value, space-first: integers in decimal, doubles
/// as their IEEE bit pattern, summaries as count then kSummaryDoubles.
template <typename Value>
void put(std::string& line, const Value& value) {
  if constexpr (std::is_same_v<Value, Summary>) {
    put(line, value.count);
    for (const auto member : kSummaryDoubles) put(line, value.*member);
  } else if constexpr (std::is_same_v<Value, double>) {
    line += ' ';
    append_hex64(line, std::bit_cast<uint64_t>(value));
  } else {
    char buffer[24];
    buffer[0] = ' ';
    const auto end =
        std::to_chars(buffer + 1, buffer + sizeof(buffer), value).ptr;
    line.append(buffer, end);
  }
}

/// Sequential reader over the single-space-separated tokens of one line.
class TokenReader {
 public:
  explicit TokenReader(std::string_view text) : rest_(text) {}

  bool next(std::string_view* token) {
    const size_t space = rest_.find(' ');
    *token = rest_.substr(0, space);
    rest_ = space == std::string_view::npos ? std::string_view()
                                            : rest_.substr(space + 1);
    return !token->empty();
  }

  /// One value of a PointResult field; kCount integers must not be
  /// negative (unsigned ones already reject a sign).
  template <typename Value>
  bool read(Value* out, Codec codec) {
    if constexpr (std::is_same_v<Value, Summary>) {
      bool ok = read(&out->count, Codec::kCount);
      for (const auto member : kSummaryDoubles) {
        ok = ok && read(&(out->*member), Codec::kDouble);
      }
      return ok;
    } else {
      std::string_view token;
      if (!next(&token)) return false;
      if constexpr (std::is_same_v<Value, double>) {
        uint64_t bits = 0;
        if (!parse_hex64(token, &bits)) return false;
        *out = std::bit_cast<double>(bits);
        return true;
      } else {
        const char* end = token.data() + token.size();
        const auto [stop, error] = std::from_chars(token.data(), end, *out);
        if constexpr (std::is_signed_v<Value>) {
          if (codec == Codec::kCount && *out < 0) return false;
        }
        return error == std::errc() && stop == end;
      }
    }
  }

  bool at_end() const { return rest_.empty(); }

 private:
  std::string_view rest_;
};

}  // namespace

std::string checkpoint_format() {
  // The names and codecs of the fields a chunk line carries, hashed.
  std::string fields;
  for_each_field(kResultFields, [&](const auto& field) {
    if (field.codec == Codec::kSkip) return;
    fields += std::string(field.name) + ':' +
              std::to_string(static_cast<int>(field.codec)) + ' ';
  });
  return "fields-" + hex64(fnv1a64(fields)).substr(8);
}

uint64_t fnv1a64(std::string_view text, uint64_t seed) {
  uint64_t hash = seed;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3;
  }
  return hash;
}

std::string encode_chunk_line(const std::string& scenario,
                              size_t point_index, const PointResult& r) {
  std::string line;
  line.reserve(512);
  line += "chunk ";
  line += scenario;
  put(line, point_index);
  for_each_coded(kResultFields, r,
                 [&](const auto&, const auto& value) { put(line, value); });
  const uint64_t checksum = fnv1a64(line);
  line += " #";
  append_hex64(line, checksum);
  return line;
}

std::string decode_chunk_line(const std::string& line, std::string* scenario,
                              size_t* point_index, PointResult* result) {
  const size_t marker = line.rfind(" #");
  if (marker == std::string::npos) return "missing checksum";
  const std::string_view payload = std::string_view(line).substr(0, marker);
  uint64_t checksum = 0;
  if (!parse_hex64(std::string_view(line).substr(marker + 2), &checksum)) {
    return "malformed checksum";
  }
  if (checksum != fnv1a64(payload)) return "checksum mismatch";

  TokenReader reader(payload);
  std::string_view token;
  if (!reader.next(&token) || token != "chunk") return "not a chunk line";
  std::string_view name;
  PointResult r;
  bool ok = reader.next(&name) && reader.read(point_index, Codec::kCount);
  for_each_coded(kResultFields, r, [&](const auto& field, auto& value) {
    ok = ok && reader.read(&value, field.codec);
  });
  if (!ok || !reader.at_end()) return "malformed chunk fields";
  scenario->assign(name);
  *result = r;
  return "";
}

CheckpointLoad load_checkpoint(const std::string& path,
                               uint64_t fingerprint) {
  CheckpointLoad load;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    load.error = "cannot open checkpoint '" + path + "'";
    return load;
  }
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());

  // Split into newline-terminated lines; a trailing fragment without '\n'
  // is the interrupted-append tail and is dropped (never validated).
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < content.size()) {
    const size_t end = content.find('\n', start);
    if (end == std::string::npos) {
      load.dropped_partial_tail = true;
      break;
    }
    lines.push_back(content.substr(start, end - start));
    start = end + 1;
  }

  auto reject = [&load](size_t lineno, const std::string& why) {
    load.error = "checkpoint line " + std::to_string(lineno) + ": " + why;
    load.chunks.clear();
  };

  if (lines.empty()) {
    load.error = "checkpoint has no complete header line";
    return load;
  }
  // Header: "<magic> <format> fingerprint <16-hex>".
  const std::string format = checkpoint_format();
  TokenReader header(lines[0]);
  std::string_view magic;
  std::string_view file_format;
  std::string_view keyword;
  std::string_view hex;
  uint64_t file_fingerprint = 0;
  if (!header.next(&magic) || magic != kMagic || !header.next(&file_format) ||
      !header.next(&keyword) || keyword != "fingerprint" ||
      !header.next(&hex) || !parse_hex64(hex, &file_fingerprint) ||
      !header.at_end()) {
    reject(1, "malformed header (want '" + std::string(kMagic) + " " +
                  format + " fingerprint <16-hex>')");
    return load;
  }
  if (file_format != format) {
    reject(1, "format '" + std::string(file_format) +
                  "' is not this build's checkpoint format '" + format +
                  "' (its chunk lines carry a different field list); "
                  "rerun without --resume");
    return load;
  }
  if (file_fingerprint != fingerprint) {
    load.error =
        "checkpoint was written by a different run configuration "
        "(fingerprint " +
        hex64(file_fingerprint) + ", this run is " + hex64(fingerprint) +
        ")";
    return load;
  }

  for (size_t i = 1; i < lines.size(); ++i) {
    std::string scenario;
    size_t point_index = 0;
    PointResult result;
    const std::string why =
        decode_chunk_line(lines[i], &scenario, &point_index, &result);
    if (!why.empty()) {
      reject(i + 1, why);
      return load;
    }
    if (!load.chunks.emplace(std::make_pair(scenario, point_index), result)
             .second) {
      reject(i + 1, "duplicate chunk for scenario '" + scenario +
                        "' point " + std::to_string(point_index));
      return load;
    }
  }
  return load;
}

CheckpointWriter::CheckpointWriter(const std::string& path,
                                   uint64_t fingerprint, bool resume)
    : out_(path, resume ? std::ios::binary | std::ios::app
                        : std::ios::binary | std::ios::trunc) {
  if (out_ && !resume) {
    out_ << kMagic << ' ' << checkpoint_format() << " fingerprint "
         << hex64(fingerprint) << '\n';
    out_.flush();
  }
}

void CheckpointWriter::append(const std::string& scenario,
                              size_t point_index, const PointResult& result) {
  if (!out_) return;
  out_ << encode_chunk_line(scenario, point_index, result) << '\n';
  out_.flush();
}

}  // namespace wsync
