// Minimal streaming JSON writer for the benchmark's result document.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& key(std::string_view k) {
    separate();
    string(k);
    out_ += ": ";
    after_key_ = true;
    return *this;
  }
  JsonWriter& value(std::string_view v) {
    separate();
    string(v);
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(bool v) {
    separate();
    out_ += v ? "true" : "false";
    return *this;
  }
  JsonWriter& value(std::uint64_t v) {
    separate();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& value(std::int64_t v) {
    separate();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(double v) {
    separate();
    if (!std::isfinite(v)) {
      out_ += "null";
      return *this;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
    return *this;
  }
  template <typename T>
  JsonWriter& field(std::string_view k, const T& v) {
    return key(k).value(v);
  }

  const std::string& str() const { return out_; }

 private:
  JsonWriter& open(char c) {
    separate();
    out_ += c;
    first_.push_back(true);
    return *this;
  }
  JsonWriter& close(char c) {
    first_.pop_back();
    out_ += c;
    return *this;
  }
  void separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (first_.empty()) return;
    if (!first_.back()) out_ += ", ";
    first_.back() = false;
  }
  void string(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += c;
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

}  // namespace perfbench
