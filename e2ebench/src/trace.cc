#include "trace.h"

#include <cstdio>
#include <fstream>
#include <map>

namespace e2ebench {

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int32_t Tracer::Begin(const std::string& name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start = SecondsSince(origin_);
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(span));
  const auto id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

double Tracer::End(int32_t id) {
  if (!enabled_ || id < 0) return 0.0;
  Span& span = spans_[static_cast<size_t>(id)];
  span.end = SecondsSince(origin_);
  // Spans nest strictly (RAII scopes on one thread); tolerate an
  // out-of-order close by dropping everything opened after `id`.
  while (!open_.empty()) {
    const int32_t top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
  return span.end - span.start;
}

void Tracer::Rename(int32_t id, const std::string& name) {
  if (!enabled_ || id < 0) return;
  spans_[static_cast<size_t>(id)].name = name;
}

namespace {

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

bool Tracer::WriteTraceEvents(const std::string& path) const {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[96];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << JsonEscape(span.name)
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1";
    std::snprintf(buf, sizeof(buf), ", \"ts\": %.3f, \"dur\": %.3f",
                  span.start * 1e6, (span.end - span.start) * 1e6);
    out << buf << ", \"args\": {\"id\": " << i << ", \"parent\": "
        << span.parent << "}}";
  }
  out << "\n]}\n";
  return out.good();
}

bool Tracer::WriteLayerTable(const std::string& path) const {
  std::vector<double> child_seconds(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_seconds[static_cast<size_t>(span.parent)] += span.end - span.start;
    }
  }
  struct Row {
    int64_t calls = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    Row& row = rows[span.name];
    ++row.calls;
    row.total += span.end - span.start;
    row.self += span.end - span.start - child_seconds[i];
  }
  std::ofstream out(path);
  if (!out.is_open()) return false;
  out << "layer\tcalls\ttotal_s\tself_s\n";
  char buf[128];
  for (const auto& [name, row] : rows) {
    std::snprintf(buf, sizeof(buf), "\t%lld\t%.6f\t%.6f\n",
                  static_cast<long long>(row.calls), row.total, row.self);
    out << name << buf;
  }
  return out.good();
}

}  // namespace e2ebench
