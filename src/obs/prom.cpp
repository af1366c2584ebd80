#include "obs/prom.hpp"

#include <cmath>
#include <utility>

#include "obs/json.hpp"
#include "obs/obs.hpp"

namespace qp::obs {

namespace {

bool prometheus_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == ':';
}

void append_type(std::string& out, const std::string& name,
                 const char* type) {
  out += "# TYPE ";
  out += name;
  out.push_back(' ');
  out += type;
  out.push_back('\n');
}

}  // namespace

std::string prometheus_name(const std::string& name) {
  std::string out = "qplace_";
  for (const char c : name) {
    out.push_back(prometheus_char(c) ? c : '_');
  }
  return out;
}

std::string render_prometheus(const Registry& registry) {
  std::string out;
  for (const auto& [name, value] : registry.counter_values()) {
    const std::string metric = prometheus_name(name) + "_total";
    append_type(out, metric, "counter");
    out += metric;
    out.push_back(' ');
    json::append_uint(out, value);
    out.push_back('\n');
  }
  for (const auto& [name, value] : registry.gauge_values()) {
    const std::string metric = prometheus_name(name);
    append_type(out, metric, "gauge");
    out += metric;
    out.push_back(' ');
    json::append_double(out, value);
    out.push_back('\n');
  }
  for (const auto& [name, stat] : registry.timer_values()) {
    const std::string base = prometheus_name(name);
    const std::string seconds = base + "_seconds_total";
    append_type(out, seconds, "counter");
    out += seconds;
    out.push_back(' ');
    json::append_double(out, stat.second / 1e3);  // timer_values reports ms
    out.push_back('\n');
    const std::string calls = base + "_calls_total";
    append_type(out, calls, "counter");
    out += calls;
    out.push_back(' ');
    json::append_uint(out, stat.first);
    out.push_back('\n');
  }
  for (const auto& [name, values] : registry.series_values()) {
    if (values.empty()) continue;
    const std::string metric = prometheus_name(name);
    append_type(out, metric, "gauge");
    out += metric;
    out.push_back(' ');
    json::append_double(out, values.back());
    out.push_back('\n');
  }
  return out;
}

std::string render_build_info(const std::string& git_sha,
                              const std::string& version,
                              bool obs_compiled_in) {
  const auto append_label_value = [](std::string& out,
                                     const std::string& value) {
    for (const char c : value) {
      if (c == '\\' || c == '"') {
        out.push_back('\\');
        out.push_back(c);
      } else if (c == '\n') {
        out += "\\n";
      } else {
        out.push_back(c);
      }
    }
  };
  std::string out;
  append_type(out, "qplace_build_info", "gauge");
  out += "qplace_build_info{git_sha=\"";
  append_label_value(out, git_sha);
  out += "\",obs=\"";
  out += obs_compiled_in ? "true" : "false";
  out += "\",version=\"";
  append_label_value(out, version);
  out += "\"} 1\n";
  return out;
}

void append_prometheus_summary(std::string& out, const std::string& name,
                               const HistogramPoint& point) {
  const std::string base = prometheus_name(name);
  append_type(out, base, "summary");
  if (point.count > 0) {
    const std::pair<const char*, double> quantiles[] = {
        {"0.5", point.p50}, {"0.9", point.p90}, {"0.99", point.p99}};
    for (const auto& [label, value] : quantiles) {
      if (std::isnan(value)) continue;
      out += base;
      out += "{quantile=\"";
      out += label;
      out += "\"} ";
      json::append_double(out, value);
      out.push_back('\n');
    }
  }
  out += base;
  out += "_sum ";
  json::append_double(out, point.sum);
  out.push_back('\n');
  out += base;
  out += "_count ";
  json::append_uint(out, point.count);
  out.push_back('\n');
}

}  // namespace qp::obs
