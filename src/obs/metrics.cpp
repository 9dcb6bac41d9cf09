#include "obs/metrics.hpp"

#include <cmath>
#include <stdexcept>

namespace infopipe::obs {

// ============================ Histogram =====================================

void Histogram::merge(const Histogram& o) noexcept {
  const std::uint64_t n = o.count();
  if (n == 0) return;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    bump(buckets_[b], o.buckets_[b].load(std::memory_order_relaxed));
  }
  if (count() == 0 || o.min() < min()) {
    min_.store(o.min(), std::memory_order_relaxed);
  }
  if (count() == 0 || o.max() > max()) {
    max_.store(o.max(), std::memory_order_relaxed);
  }
  bump(sum_, o.sum());
  bump(count_, n);
}

std::uint64_t Histogram::quantile(double q) const noexcept {
  std::uint64_t total = 0;
  for (const auto& c : buckets_) total += c.load(std::memory_order_relaxed);
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th sample, 1-based; walk buckets until it is covered.
  const std::uint64_t rank =
      static_cast<std::uint64_t>(q * static_cast<double>(total - 1)) + 1;
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += bucket(b);
    if (seen >= rank) return std::uint64_t{1} << b;
  }
  return std::uint64_t{1} << (kBuckets - 1);
}

// ============================ MetricsSnapshot ===============================

const MetricValue* MetricsSnapshot::find(std::string_view name) const {
  for (const MetricValue& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void MetricsSnapshot::add_counter(std::string name, std::uint64_t value) {
  MetricValue v;
  v.name = std::move(name);
  v.kind = MetricValue::Kind::kCounter;
  v.count = value;
  metrics.push_back(std::move(v));
}

void MetricsSnapshot::add_gauge(std::string name, double value) {
  MetricValue v;
  v.name = std::move(name);
  v.kind = MetricValue::Kind::kGauge;
  v.value = value;
  metrics.push_back(std::move(v));
}

namespace {

void json_escape(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
}

std::string json_double(double v) {
  if (!std::isfinite(v)) return "0";
  std::string s = std::to_string(v);
  return s;
}

}  // namespace

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"when\": " + std::to_string(when) + ", \"metrics\": [";
  bool first = true;
  for (const MetricValue& m : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "{\"name\": \"";
    json_escape(out, m.name);
    out += "\", ";
    switch (m.kind) {
      case MetricValue::Kind::kCounter:
        out += "\"type\": \"counter\", \"value\": " + std::to_string(m.count);
        break;
      case MetricValue::Kind::kGauge:
        out += "\"type\": \"gauge\", \"value\": " + json_double(m.value);
        break;
      case MetricValue::Kind::kHistogram: {
        out += "\"type\": \"histogram\", \"count\": " +
               std::to_string(m.count) + ", \"sum\": " + std::to_string(m.sum) +
               ", \"min\": " + std::to_string(m.min) +
               ", \"max\": " + std::to_string(m.max) + ", \"buckets\": [";
        for (std::size_t i = 0; i < m.buckets.size(); ++i) {
          if (i != 0) out += ", ";
          out += std::to_string(m.buckets[i]);
        }
        out += "]";
        break;
      }
    }
    out += "}";
  }
  out += "]}";
  return out;
}

// ============================ MetricsRegistry ===============================

Counter& MetricsRegistry::counter(const std::string& name) {
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    if (it->second.kind != MetricValue::Kind::kCounter) {
      throw std::logic_error("metric '" + name + "' is not a counter");
    }
    return *it->second.c;
  }
  counters_.emplace_back();
  Entry e;
  e.kind = MetricValue::Kind::kCounter;
  e.c = &counters_.back();
  by_name_.emplace(name, e);
  order_.emplace_back(name, e);
  return *e.c;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    if (it->second.kind != MetricValue::Kind::kGauge) {
      throw std::logic_error("metric '" + name + "' is not a gauge");
    }
    return *it->second.g;
  }
  gauges_.emplace_back();
  Entry e;
  e.kind = MetricValue::Kind::kGauge;
  e.g = &gauges_.back();
  by_name_.emplace(name, e);
  order_.emplace_back(name, e);
  return *e.g;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    if (it->second.kind != MetricValue::Kind::kHistogram) {
      throw std::logic_error("metric '" + name + "' is not a histogram");
    }
    return *it->second.h;
  }
  histograms_.emplace_back();
  Entry e;
  e.kind = MetricValue::Kind::kHistogram;
  e.h = &histograms_.back();
  by_name_.emplace(name, e);
  order_.emplace_back(name, e);
  return *e.h;
}

MetricsRegistry::CollectorId MetricsRegistry::add_collector(Collector fn) {
  const CollectorId id = next_collector_++;
  collectors_.emplace_back(id, std::move(fn));
  return id;
}

void MetricsRegistry::remove_collector(CollectorId id) {
  for (auto it = collectors_.begin(); it != collectors_.end(); ++it) {
    if (it->first == id) {
      collectors_.erase(it);
      return;
    }
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot s;
  s.when = now();
  s.metrics.reserve(order_.size());
  for (const auto& [name, e] : order_) {
    MetricValue v;
    v.name = name;
    v.kind = e.kind;
    switch (e.kind) {
      case MetricValue::Kind::kCounter:
        v.count = e.c->value();
        break;
      case MetricValue::Kind::kGauge:
        v.value = e.g->value();
        break;
      case MetricValue::Kind::kHistogram:
        v.count = e.h->count();
        v.value = e.h->mean();
        v.sum = e.h->sum();
        v.min = e.h->min();
        v.max = e.h->max();
        for (int b = 0; b < Histogram::kBuckets; ++b) {
          if (const std::uint64_t c = e.h->bucket(b)) {
            v.buckets.resize(static_cast<std::size_t>(b) + 1, 0);
            v.buckets.back() = c;
          }
        }
        break;
    }
    s.metrics.push_back(std::move(v));
  }
  for (const auto& [id, fn] : collectors_) fn(s);
  return s;
}

}  // namespace infopipe::obs
