#include "compaction/cube.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

#include "util/rng.h"

namespace tsyn::compaction {

int specified_count(const TestCube& c) {
  int n = 0;
  for (V v : c) n += v != V::kX;
  return n;
}

bool compatible(const TestCube& a, const TestCube& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != V::kX && b[i] != V::kX && a[i] != b[i]) return false;
  return true;
}

TestCube merge(const TestCube& a, const TestCube& b) {
  assert(compatible(a, b));
  TestCube out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    out[i] = a[i] != V::kX ? a[i] : b[i];
  return out;
}

std::vector<TestCube> merge_compatible_cubes(
    const std::vector<TestCube>& cubes) {
  std::vector<int> idx(cubes.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::vector<int> spec(cubes.size());
  for (std::size_t i = 0; i < cubes.size(); ++i)
    spec[i] = specified_count(cubes[i]);
  std::stable_sort(idx.begin(), idx.end(),
                   [&](int a, int b) { return spec[a] > spec[b]; });
  std::vector<TestCube> bins;
  for (int i : idx) {
    bool placed = false;
    for (TestCube& bin : bins) {
      if (compatible(bin, cubes[i])) {
        bin = merge(bin, cubes[i]);
        placed = true;
        break;
      }
    }
    if (!placed) bins.push_back(cubes[i]);
  }
  return bins;
}

void apply_xfill(std::vector<TestCube>& cubes, XFill fill,
                 std::uint64_t seed) {
  util::Rng rng(seed);
  for (TestCube& c : cubes) {
    switch (fill) {
      case XFill::kRandom:
        for (V& v : c)
          if (v == V::kX) v = rng.next_bool() ? V::k1 : V::k0;
        break;
      case XFill::kZero:
        for (V& v : c)
          if (v == V::kX) v = V::k0;
        break;
      case XFill::kOne:
        for (V& v : c)
          if (v == V::kX) v = V::k1;
        break;
      case XFill::kAdjacent: {
        V last = V::kX;
        for (V& v : c) {
          if (v == V::kX) v = last;  // may stay X in a leading run
          else last = v;
        }
        // Leading X run: copy the first specified bit backwards; an
        // all-X cube degenerates to 0-fill.
        V first = V::kX;
        for (V v : c)
          if (v != V::kX) {
            first = v;
            break;
          }
        if (first == V::kX) first = V::k0;
        for (V& v : c) {
          if (v != V::kX) break;
          v = first;
        }
        break;
      }
    }
  }
}

const char* to_string(XFill fill) {
  switch (fill) {
    case XFill::kRandom: return "random";
    case XFill::kZero: return "0";
    case XFill::kOne: return "1";
    case XFill::kAdjacent: return "adjacent";
  }
  return "?";
}

bool parse_xfill(const std::string& text, XFill* out) {
  if (text == "random") *out = XFill::kRandom;
  else if (text == "0" || text == "zero") *out = XFill::kZero;
  else if (text == "1" || text == "one") *out = XFill::kOne;
  else if (text == "adjacent") *out = XFill::kAdjacent;
  else return false;
  return true;
}

}  // namespace tsyn::compaction
