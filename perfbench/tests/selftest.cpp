// Self-tests of the benchmark's own logic: percentiles and the tail rule,
// schedule determinism, and digest-mismatch accounting. A plain program (no
// test framework) so it builds with the benchmark alone; exits nonzero on
// the first failed expectation. Run: python3 perfbench/run.py --selftest
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "digest.h"
#include "schedule.h"
#include "stats.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (ok) return;
  ++failures;
  std::printf("FAIL: %s\n", what);
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_percentiles() {
  using perfbench::percentile;
  expect(percentile({}, 50) == 0.0, "empty percentile is 0");
  expect(percentile(one_to(10), 50) == 5.0, "p50 of 1..10 is 5 (nearest rank)");
  expect(percentile(one_to(10), 90) == 9.0, "p90 of 1..10 is 9");
  expect(percentile(one_to(10), 100) == 10.0, "p100 is the max");
  expect(percentile(one_to(10), 0) == 1.0, "p0 is the min");
  expect(percentile(one_to(9), 50) == 5.0, "p50 of 1..9 is 5");
  expect(perfbench::median(one_to(4)) == 2.5, "median of 1..4 is 2.5");
  expect(perfbench::median(one_to(5)) == 3.0, "median of 1..5 is 3");
}

void test_tail() {
  using perfbench::tail_latency;
  // 100 samples: p90 is the highest percentile with >= 10 samples beyond.
  perfbench::Tail t = tail_latency(one_to(100));
  expect(t.samples == 100, "tail records the sample count");
  expect(t.percentile == 90.0 && t.value == 90.0, "tail of 1..100 is p90 = 90");
  // 30 samples: rank 20 leaves exactly 10 above it.
  t = tail_latency(one_to(30));
  expect(t.value == 20.0, "tail of 1..30 is the 20th sample");
  expect(t.percentile > 66.6 && t.percentile < 66.7, "...which is p66.7");
  int beyond = 0;
  for (const double v : one_to(30)) beyond += v > t.value ? 1 : 0;
  expect(beyond == 10, "exactly ten samples beyond the tail");
  // 21 samples: rank 11 is still at or above the median rank 11.
  t = tail_latency(one_to(21));
  expect(t.value == 11.0, "tail of 1..21 is the 11th sample");
  // 19 samples: ten beyond would sit below the median; fall back to p50.
  t = tail_latency(one_to(19));
  expect(t.percentile == 50.0 && t.value == 10.0, "tail of 1..19 is the median");
  t = tail_latency(one_to(3));
  expect(t.percentile == 50.0 && t.value == 2.0, "tail of 3 samples is p50");
  t = tail_latency({});
  expect(t.samples == 0 && t.value == 0.0, "empty tail is 0");
}

void test_schedule() {
  using perfbench::build_schedule;
  const auto a = build_schedule(7, 9, 16);
  const auto b = build_schedule(7, 9, 16);
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].kind == b[i].kind && a[i].xi == b[i].xi &&
           a[i].key == b[i].key && a[i].repeat == b[i].repeat;
  }
  expect(same, "one seed always gives the same schedule");
  expect(a.size() == (9 + 2) * 17, "schedule size is keys x (1 + repeats)");

  const auto c = build_schedule(8, 9, 16);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    differs = differs || a[i].xi != c[i].xi || a[i].kind != c[i].kind;
  }
  expect(differs, "another seed gives another schedule");

  std::set<double> xis;
  std::size_t firsts = 0;
  std::size_t next_key = 0;
  bool repeats_follow_firsts = true;
  for (const auto& q : a) {
    if (q.repeat) {
      repeats_follow_firsts = repeats_follow_firsts && q.key < next_key;
      continue;
    }
    repeats_follow_firsts = repeats_follow_firsts && q.key == next_key;
    ++next_key;
    ++firsts;
    if (q.xi > 0.0) xis.insert(q.xi);
  }
  expect(firsts == 11, "eleven first-contact queries");
  expect(xis.size() == 9, "every xi query has its own xi");
  expect(!xis.contains(0.1) && !xis.contains(0.9),
         "no xi the warm store already holds");
  expect(repeats_follow_firsts, "repeats only name keys already issued");

  const auto short_xis = perfbench::fresh_xis(7, 4);
  const auto long_xis = perfbench::fresh_xis(7, 12);
  expect(std::vector<double>(long_xis.begin(), long_xis.begin() + 4) ==
             short_xis,
         "fresh xis are prefix-stable");
}

void test_digest_mismatch() {
  const std::string render = "Table 1: # of ISPs hosting offnets\n";
  const perfbench::DigestBook book = perfbench::DigestBook::parse(
      "# pinned\nw/seed0/table1 " + perfbench::hex64(perfbench::fnv1a64(render)) +
      "\n");
  expect(book.size() == 1, "digest file parses");

  perfbench::CheckTally tally;
  perfbench::check_render(book, "w/seed0/table1", render, tally);
  expect(tally.checked == 1 && tally.mismatched == 0, "the pinned render matches");

  std::string mutated = render;
  mutated[0] = 't';
  perfbench::check_render(book, "w/seed0/table1", mutated, tally);
  expect(tally.checked == 2 && tally.mismatched == 1,
         "a mutated render counts as one failure");
  expect(tally.mismatches.size() == 1 && tally.mismatches[0] == "w/seed0/table1",
         "the failure names the render");

  perfbench::check_render(book, "w/seed1/table1", render, tally);
  expect(tally.unpinned == 1 && tally.mismatched == 1,
         "an unpinned key is neither checked nor failed");

  bool threw = false;
  try {
    perfbench::DigestBook::parse("key not-hex\n");
  } catch (const std::exception&) {
    threw = true;
  }
  expect(threw, "a malformed digest line is rejected");
}

}  // namespace

int main() {
  test_percentiles();
  test_tail();
  test_schedule();
  test_digest_mismatch();
  if (failures > 0) {
    std::printf("perfbench selftest: %d failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("perfbench selftest: all passed\n");
  return EXIT_SUCCESS;
}
