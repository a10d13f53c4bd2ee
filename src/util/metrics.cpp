#include "util/metrics.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <mutex>
#include <sstream>

#include "util/json.h"
#include "util/text.h"

namespace tsyn::util {

namespace detail {

int thread_stripe() {
  static std::atomic<int> next{0};
  thread_local const int stripe =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricStripes;
  return stripe;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

namespace {

/// Bucket 0 holds v <= 0; bucket k holds 2^(k-1) <= v < 2^k.
int bucket_of(std::int64_t v) {
  if (v <= 0) return 0;
  return std::bit_width(static_cast<std::uint64_t>(v));
}

}  // namespace

void Histogram::observe(std::int64_t v) {
  Stripe& s = stripes_[detail::thread_stripe()];
  // First observation on a stripe seeds min/max; racing seeds both run the
  // CAS loops below, so the merged result is still the true extremum.
  if (s.count.fetch_add(1, std::memory_order_relaxed) == 0) {
    s.min.store(v, std::memory_order_relaxed);
    s.max.store(v, std::memory_order_relaxed);
  } else {
    std::int64_t cur = s.min.load(std::memory_order_relaxed);
    while (v < cur &&
           !s.min.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
    cur = s.max.load(std::memory_order_relaxed);
    while (v > cur &&
           !s.max.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  s.sum.fetch_add(v, std::memory_order_relaxed);
  s.buckets[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
}

double HistogramSnapshot::percentile(double p) const {
  if (count == 0) return 0.0;
  if (p <= 0.0) return static_cast<double>(min);
  if (p >= 100.0) return static_cast<double>(max);
  const double target = p / 100.0 * static_cast<double>(count);
  std::int64_t cum = 0;
  for (int k = 0; k < 64; ++k) {
    if (buckets[k] == 0) continue;
    const double before = static_cast<double>(cum);
    cum += buckets[k];
    if (static_cast<double>(cum) < target) continue;
    // The target rank lands in bucket k: interpolate inside its bounds.
    // Bucket 0 holds v <= 0 (range [min, 0]); bucket k >= 1 holds
    // [2^(k-1), 2^k).
    double lo, hi;
    if (k == 0) {
      lo = std::min(static_cast<double>(min), 0.0);
      hi = 0.0;
    } else {
      lo = static_cast<double>(std::int64_t{1} << (k - 1));
      hi = static_cast<double>(std::int64_t{1} << k);
    }
    const double frac =
        (target - before) / static_cast<double>(buckets[k]);
    double v = lo + frac * (hi - lo);
    v = std::max(v, static_cast<double>(min));
    v = std::min(v, static_cast<double>(max));
    return v;
  }
  return static_cast<double>(max);
}

HistogramSnapshot Histogram::read() const {
  HistogramSnapshot out;
  for (const Stripe& s : stripes_) {
    const std::int64_t c = s.count.load(std::memory_order_relaxed);
    if (c == 0) continue;
    const std::int64_t lo = s.min.load(std::memory_order_relaxed);
    const std::int64_t hi = s.max.load(std::memory_order_relaxed);
    if (out.count == 0) {
      out.min = lo;
      out.max = hi;
    } else {
      if (lo < out.min) out.min = lo;
      if (hi > out.max) out.max = hi;
    }
    out.count += c;
    out.sum += s.sum.load(std::memory_order_relaxed);
    for (int k = 0; k < 64; ++k)
      out.buckets[k] += s.buckets[k].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::reset() {
  for (Stripe& s : stripes_) {
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.min.store(0, std::memory_order_relaxed);
    s.max.store(0, std::memory_order_relaxed);
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [name, c] : counters_) out.counters[name] = c->read();
  for (const auto& [name, g] : gauges_) out.gauges[name] = g->read();
  for (const auto& [name, h] : histograms_) out.histograms[name] = h->read();
  return out;
}

std::string MetricsRegistry::to_json() const {
  const MetricsSnapshot snap = snapshot();
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    os << '"' << json_escape(name) << "\": " << v;
  }
  os << (first ? "}" : "\n  }") << ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    os << '"' << json_escape(name) << "\": " << fmt_double(v);
  }
  os << (first ? "}" : "\n  }") << ",\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    os << '"' << json_escape(name) << "\": {\"count\": " << h.count
       << ", \"sum\": " << h.sum
       << ", \"min\": " << h.min << ", \"max\": " << h.max
       << ", \"mean\": " << fmt_double(h.mean())
       << ", \"p50\": " << fmt_double(h.percentile(50))
       << ", \"p90\": " << fmt_double(h.percentile(90))
       << ", \"p99\": " << fmt_double(h.percentile(99))
       << ", \"buckets\": [";
    bool bfirst = true;
    for (int k = 0; k < 64; ++k) {
      if (h.buckets[k] == 0) continue;
      if (!bfirst) os << ", ";
      bfirst = false;
      os << "{\"le\": " << (k == 0 ? 0 : (std::int64_t{1} << k))
         << ", \"count\": " << h.buckets[k] << "}";
    }
    os << "]}";
  }
  os << (first ? "}" : "\n  }") << "\n}\n";
  return os.str();
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

MetricsRegistry& metrics() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never dtor'd
  return *registry;
}

}  // namespace tsyn::util
