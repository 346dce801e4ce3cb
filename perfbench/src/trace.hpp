// In-memory span recorder for the traced run. Spans are recorded only in
// the benchmark's own files, around the calls it makes into each layer of
// the engine; the engine itself is not instrumented. Each span has a name,
// a start, an end and a parent; all spans stay in memory and are written
// once, as Chrome trace-event JSON (chrome://tracing, Perfetto), when the
// run ends.
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer {
 public:
  static constexpr int kNoParent = -1;

  struct Span {
    std::string name;
    double start_us = 0.0;  ///< since the tracer was created
    double end_us = 0.0;
    int parent = kNoParent;
    int thread = 0;  ///< small per-thread index, for the trace viewer
  };

  Tracer();

  /// Open a span; returns its id. Thread-safe.
  int begin(const std::string& name, int parent = kNoParent);
  /// Close span `id`. Thread-safe.
  void end(int id);

  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(Tracer* tracer, const std::string& name, int parent = kNoParent)
        : tracer_(tracer),
          id_(tracer ? tracer->begin(name, parent) : kNoParent) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Tracer* tracer_;
    int id_;
  };

  /// Durations (seconds) of every closed span called `name`.
  std::vector<double> durations(const std::string& name) const;
  double total_seconds(const std::string& name) const;
  std::size_t size() const;

  /// Write every span as Chrome trace-event JSON ("X" complete events,
  /// parent ids in args). Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  int thread_index();

  const Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<std::size_t> thread_hashes_;
};

}  // namespace perfbench
