#include "obs/export.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace fairshare::obs {

namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
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
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) v = 0.0;  // JSON has no NaN/Inf
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

void append_labels_json(std::string& out, const LabelList& labels) {
  out += "\"labels\":{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_escaped(out, k);
    out += "\":\"";
    append_escaped(out, v);
    out += '"';
  }
  out += '}';
}

}  // namespace

std::string to_json(const RegistrySnapshot& snap) {
  std::string out;
  out += "{\n\"schema\": 1,\n\"counters\": [";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    const auto& c = snap.counters[i];
    out += i ? ",\n" : "\n";
    out += "{\"name\":\"";
    append_escaped(out, c.name);
    out += "\",";
    append_labels_json(out, c.labels);
    out += ",\"value\":";
    append_u64(out, c.value);
    out += '}';
  }
  out += "\n],\n\"gauges\": [";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    const auto& g = snap.gauges[i];
    out += i ? ",\n" : "\n";
    out += "{\"name\":\"";
    append_escaped(out, g.name);
    out += "\",";
    append_labels_json(out, g.labels);
    out += ",\"value\":";
    append_double(out, g.value);
    out += '}';
  }
  out += "\n],\n\"histograms\": [";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& h = snap.histograms[i];
    out += i ? ",\n" : "\n";
    out += "{\"name\":\"";
    append_escaped(out, h.name);
    out += "\",";
    append_labels_json(out, h.labels);
    out += ",\"count\":";
    append_u64(out, h.snap.count);
    out += ",\"sum\":";
    append_u64(out, h.snap.sum);
    out += ",\"min\":";
    append_u64(out, h.snap.min);
    out += ",\"max\":";
    append_u64(out, h.snap.max);
    out += ",\"mean\":";
    append_double(out, h.snap.mean());
    out += ",\"p50\":";
    append_double(out, h.snap.quantile(0.50));
    out += ",\"p95\":";
    append_double(out, h.snap.quantile(0.95));
    out += ",\"p99\":";
    append_double(out, h.snap.quantile(0.99));
    out += '}';
  }
  out += "\n],\n\"spans\": [";
  for (std::size_t i = 0; i < snap.spans.size(); ++i) {
    const SpanRecord& s = snap.spans[i];
    out += i ? ",\n" : "\n";
    out += "{\"name\":\"";
    append_escaped(out, s.name ? s.name : "");
    out += "\",\"id\":";
    append_u64(out, s.id);
    out += ",\"parent\":";
    append_u64(out, s.parent);
    out += ",\"start_ns\":";
    append_u64(out, s.start_ns);
    out += ",\"duration_ns\":";
    append_u64(out, s.duration_ns);
    out += '}';
  }
  out += "\n],\n\"spans_pushed\": ";
  append_u64(out, snap.spans_pushed);
  out += "\n}\n";
  return out;
}

std::string to_json(const MetricsRegistry& registry, std::size_t max_spans) {
  return to_json(registry.snapshot(max_spans));
}

bool dump_json(const MetricsRegistry& registry, const std::string& path) {
  const std::string body = to_json(registry);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
    if (!out.good()) return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  return !ec;
}

}  // namespace fairshare::obs
