#ifndef IGEPA_E2EBENCH_TRACE_H_
#define IGEPA_E2EBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace e2ebench {

/// In-memory span recorder for the traced run. Spans are opened and closed
/// from the benchmark's own thread around calls into one library layer
/// (name, start, end, parent); nothing inside the library is instrumented.
/// When disabled every call is a no-op, so untraced runs pay one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  /// Opens a span under the innermost open span; returns its id (-1 when
  /// disabled).
  int32_t Begin(const std::string& name);
  /// Closes span `id` (the innermost open one) and returns its duration in
  /// seconds (0 when disabled).
  double End(int32_t id);
  /// Renames span `id` — for calls whose layer is only known afterwards
  /// (which LP tier kAuto picked).
  void Rename(int32_t id, const std::string& name);

  /// Writes the spans as Chrome trace-event JSON ("X" events, microseconds
  /// since the tracer was created; args carry the span and parent ids).
  bool WriteTraceEvents(const std::string& path) const;
  /// Writes the flat per-layer table: one row per span name with calls,
  /// total seconds and self seconds (total minus the time covered by child
  /// spans).
  bool WriteLayerTable(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start = 0.0;  // seconds since origin_
    double end = 0.0;
    int32_t parent = -1;
  };

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span: opens on construction, closes on Stop() or destruction.
/// Stop() returns the span's seconds so callers can also fold the value into
/// a per-layer metric.
class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer->Begin(name)), start_(Clock::now()) {}
  ~Scope() { Stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void Rename(const std::string& name) { tracer_->Rename(id_, name); }

  double Stop() {
    if (!stopped_) {
      stopped_ = true;
      seconds_ = SecondsSince(start_);
      tracer_->End(id_);
    }
    return seconds_;
  }

 private:
  Tracer* tracer_;
  int32_t id_;
  Clock::time_point start_;
  bool stopped_ = false;
  double seconds_ = 0.0;
};

}  // namespace e2ebench

#endif  // IGEPA_E2EBENCH_TRACE_H_
