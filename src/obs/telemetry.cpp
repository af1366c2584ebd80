#include "obs/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/prom.hpp"

namespace qp::obs {

namespace {

/// NaN has no JSON literal; quantiles of an empty histogram render as null
/// so readers cannot mistake "no data" for a measured zero (same rule as
/// LogHistogram::to_json).
void append_double_or_null(std::string& out, double value) {
  if (std::isnan(value)) {
    out += "null";
  } else {
    json::append_double(out, value);
  }
}

void append_snapshot_line(std::string& out, const MetricsSnapshot& snapshot) {
  out += "{\"deterministic\": {\"t\": ";
  json::append_double(out, snapshot.sim_time);
  out += ", \"counters\": ";
  {
    std::map<std::string, std::string> rendered;
    for (const auto& [name, value] : snapshot.counters) {
      std::string cell;
      json::append_uint(cell, value);
      rendered[name] = cell;
    }
    json::append_object(out, rendered);
  }
  out += ", \"values\": ";
  {
    std::map<std::string, std::string> rendered;
    for (const auto& [name, value] : snapshot.values) {
      std::string cell;
      json::append_double(cell, value);
      rendered[name] = cell;
    }
    json::append_object(out, rendered);
  }
  out += ", \"histograms\": ";
  {
    std::map<std::string, std::string> rendered;
    for (const auto& [name, point] : snapshot.histograms) {
      std::string cell = "{\"count\": ";
      json::append_uint(cell, point.count);
      cell += ", \"sum\": ";
      json::append_double(cell, point.sum);
      cell += ", \"p50\": ";
      append_double_or_null(cell, point.p50);
      cell += ", \"p90\": ";
      append_double_or_null(cell, point.p90);
      cell += ", \"p99\": ";
      append_double_or_null(cell, point.p99);
      cell += "}";
      rendered[name] = cell;
    }
    json::append_object(out, rendered);
  }
  out += "}, \"nondeterministic\": {\"wall_ms\": ";
  json::append_double(out, snapshot.wall_ms);
  out += ", \"gauges\": ";
  {
    std::map<std::string, std::string> rendered;
    for (const auto& [name, value] : snapshot.gauges) {
      std::string cell;
      json::append_double(cell, value);
      rendered[name] = cell;
    }
    json::append_object(out, rendered);
  }
  out += "}}\n";
}

}  // namespace

MetricsSnapshotter::MetricsSnapshotter(TelemetryConfig config)
    : config_(config), epoch_(std::chrono::steady_clock::now()) {
  if (config_.capacity == 0) {
    throw std::invalid_argument("telemetry capacity must be >= 1");
  }
}

void MetricsSnapshotter::set_context(const std::string& key,
                                     const std::string& value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  context_[key] = value;
}

void MetricsSnapshotter::watch_histogram(const std::string& name,
                                         const LogHistogram* histogram) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (histogram == nullptr) {
    watched_.erase(name);
  } else {
    watched_[name] = histogram;
  }
}

void MetricsSnapshotter::sample(double sim_time,
                                const std::map<std::string, double>& values) {
  const Registry& registry = Registry::instance();
  MetricsSnapshot snapshot;
  snapshot.sim_time = sim_time;
  snapshot.counters = registry.counter_values();
  snapshot.values = values;
  snapshot.gauges = registry.gauge_values();

  const std::lock_guard<std::mutex> lock(mutex_);
  snapshot.wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - epoch_)
          .count();
  for (const auto& [name, histogram] : watched_) {
    HistogramPoint point;
    point.count = histogram->count();
    point.sum = histogram->sum();
    if (point.count > 0) {
      point.p50 = histogram->quantile(0.50);
      point.p90 = histogram->quantile(0.90);
      point.p99 = histogram->quantile(0.99);
    } else {
      point.p50 = point.p90 = point.p99 =
          std::numeric_limits<double>::quiet_NaN();
    }
    snapshot.histograms[name] = point;
  }
  if (ring_.size() == config_.capacity) {
    ring_.pop_front();
    ++dropped_;
  }
  ring_.push_back(std::move(snapshot));
}

std::vector<MetricsSnapshot> MetricsSnapshotter::snapshots() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return {ring_.begin(), ring_.end()};
}

std::optional<MetricsSnapshot> MetricsSnapshotter::latest() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.empty()) return std::nullopt;
  return ring_.back();
}

std::size_t MetricsSnapshotter::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

std::uint64_t MetricsSnapshotter::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::string MetricsSnapshotter::to_jsonl() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"schema\": \"qplace.timeseries.v1\", \"context\": ";
  {
    std::map<std::string, std::string> rendered;
    for (const auto& [key, value] : context_) {
      std::string cell;
      json::append_string(cell, value);
      rendered[key] = cell;
    }
    json::append_object(out, rendered);
  }
  out += ", \"capacity\": ";
  json::append_uint(out, config_.capacity);
  out += ", \"samples\": ";
  json::append_uint(out, ring_.size());
  out += ", \"dropped\": ";
  json::append_uint(out, dropped_);
  out += "}\n";
  for (const MetricsSnapshot& snapshot : ring_) {
    append_snapshot_line(out, snapshot);
  }
  return out;
}

std::string MetricsSnapshotter::prometheus_summaries() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.empty()) return {};
  std::string out;
  for (const auto& [name, point] : ring_.back().histograms) {
    append_prometheus_summary(out, name, point);
  }
  return out;
}

namespace {

/// In-place redraws are only appropriate on an interactive terminal. For
/// the standard streams the kernel knows the answer; any other ostream
/// (test ostringstreams) has no file descriptor, and a caller wiring one up
/// explicitly asked for output, so it counts as live.
bool stream_is_tty(const std::ostream& out) {
#if defined(__unix__) || defined(__APPLE__)
  if (&out == &std::cerr || &out == &std::clog) return isatty(2) != 0;
  if (&out == &std::cout) return isatty(1) != 0;
#endif
  return true;
}

}  // namespace

ProgressMeter::ProgressMeter(std::ostream& out, double certified_bound)
    : ProgressMeter(out, certified_bound, stream_is_tty(out)) {}

ProgressMeter::ProgressMeter(std::ostream& out, double certified_bound,
                             bool live)
    : out_(out),
      certified_bound_(certified_bound),
      live_(live),
      start_(std::chrono::steady_clock::now()),
      last_draw_(start_) {}

void ProgressMeter::update(const ProgressStats& stats) {
  last_stats_ = stats;
  if (!live_) return;  // non-TTY: only finish() writes anything
  const auto now = std::chrono::steady_clock::now();
  // ~10 redraws/s keeps a fast event loop from spending its time on stderr.
  if (drew_ && now - last_draw_ < std::chrono::milliseconds(100)) return;
  last_draw_ = now;
  draw(stats);
}

void ProgressMeter::finish() {
  if (finished_) return;
  finished_ = true;
  draw(last_stats_);
  out_ << "\n";
  out_.flush();
}

void ProgressMeter::draw(const ProgressStats& stats) {
  drew_ = true;
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  const double rate = elapsed_s > 0.0
                          ? static_cast<double>(stats.resolved) / elapsed_s
                          : 0.0;
  const double percent =
      stats.duration > 0.0
          ? 100.0 * std::min(1.0, stats.sim_time / stats.duration)
          : 0.0;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%ssim %3.0f%% t=%.0f/%.0f | %lld ok + %lld failed (%.0f/s) "
                "| avail %.4f",
                live_ ? "\r" : "", percent, stats.sim_time, stats.duration,
                static_cast<long long>(stats.completed),
                static_cast<long long>(stats.failed), rate,
                stats.availability);
  out_ << line;
  if (!std::isnan(stats.p99)) {
    std::snprintf(line, sizeof(line), " | p99 %.3g", stats.p99);
    out_ << line;
    if (!std::isnan(certified_bound_) && certified_bound_ > 0.0) {
      std::snprintf(line, sizeof(line), " = %.2fx bound",
                    stats.p99 / certified_bound_);
      out_ << line;
    }
  }
  if (live_) out_ << "    ";  // erase leftovers from a longer previous line
  out_.flush();
}

}  // namespace qp::obs
