// Output pinning: every render a workload produces is digested (FNV-1a 64)
// and compared with the digests stored next to the benchmark in
// digests.txt, one "key hex" line each. Keys name the workload, the seed
// where the world depends on it, and the study, e.g.
// "report_paper/seed0/table2" or "serve_xi_sweep/figure2/xi0.437".
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

std::uint64_t fnv1a64(std::string_view bytes) noexcept;

/// 16 lowercase hex digits.
std::string hex64(std::uint64_t value);

class DigestBook {
 public:
  /// Parses "key hex" lines; blank lines and '#' comments are skipped.
  /// Throws std::runtime_error on an unreadable file or a malformed line.
  static DigestBook load(const std::string& path);
  static DigestBook parse(std::string_view text);

  std::optional<std::uint64_t> find(const std::string& key) const;
  std::size_t size() const noexcept { return entries_.size(); }

 private:
  std::map<std::string, std::uint64_t, std::less<>> entries_;
};

/// Running count of render checks within one run.
struct CheckTally {
  std::uint64_t checked = 0;     // renders compared against a pinned digest
  std::uint64_t mismatched = 0;  // ...whose digest differed (failed ops)
  std::uint64_t unpinned = 0;    // renders with no pinned digest for the key
  std::vector<std::string> mismatches;  // keys that differed
};

/// Digests `text` and compares it with the pinned digest for `key`, if any.
/// Returns the digest so callers can print or cross-check it.
std::uint64_t check_render(const DigestBook& book, const std::string& key,
                           std::string_view text, CheckTally& tally);

}  // namespace perfbench
