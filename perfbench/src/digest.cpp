#include "digest.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

DigestBook DigestBook::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read digest file " + path);
  std::stringstream text;
  text << in.rdbuf();
  return parse(text.str());
}

DigestBook DigestBook::parse(std::string_view text) {
  DigestBook book;
  std::istringstream lines{std::string(text)};
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream fields(line);
    std::string key;
    std::string hex;
    std::string extra;
    if (!(fields >> key >> hex) || (fields >> extra) || hex.size() != 16 ||
        hex.find_first_not_of("0123456789abcdef") != std::string::npos) {
      throw std::runtime_error("malformed digest line: " + line);
    }
    book.entries_[key] = std::stoull(hex, nullptr, 16);
  }
  return book;
}

std::optional<std::uint64_t> DigestBook::find(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::uint64_t check_render(const DigestBook& book, const std::string& key,
                           std::string_view text, CheckTally& tally) {
  const std::uint64_t digest = fnv1a64(text);
  const std::optional<std::uint64_t> pinned = book.find(key);
  if (!pinned.has_value()) {
    ++tally.unpinned;
    return digest;
  }
  ++tally.checked;
  if (*pinned != digest) {
    ++tally.mismatched;
    tally.mismatches.push_back(key);
  }
  return digest;
}

}  // namespace perfbench
