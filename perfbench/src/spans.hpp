// Spans the benchmark records around its calls into the simulator.
//
// Each span carries its own id and the id of the span that encloses it, so
// self time (duration minus time covered by children) is computed offline.
// Spans stay in memory and are written out once, at exit. While
// runtime::Telemetry is enabled every span is mirrored into it as well, so
// Telemetry::to_chrome_json shows the benchmark's spans next to the shard
// engine's per-party spans in Perfetto. Single-threaded: only the
// benchmark's main thread records.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "runtime/telemetry.hpp"

namespace perfbench {

class Spans {
 public:
  struct Record {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  explicit Spans(bool on) : on_(on), anchor_(std::chrono::steady_clock::now()) {}

  /// {"schema": "perfbench-spans-v1", "spans": [...]} with each span's
  /// duration and self time in nanoseconds.
  [[nodiscard]] std::string to_json() const;

  /// Records a span that has already ended, as a child of the innermost
  /// open Scope: work timed on another thread, added by the main thread
  /// (nothing when spans are off).
  void add(const char* name, std::chrono::steady_clock::time_point start,
           std::chrono::steady_clock::time_point end);

  /// Records one span over its lifetime (nothing when spans are off).
  class Scope {
   public:
    Scope(Spans& spans, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    std::size_t index_ = 0;
    bool live_ = false;
    std::optional<emptcp::runtime::ScopedSpan> mirror_;
  };

 private:
  [[nodiscard]] std::uint64_t ns(std::chrono::steady_clock::time_point t) const;

  bool on_ = false;
  std::chrono::steady_clock::time_point anchor_;
  std::vector<Record> recs_;
  std::vector<std::uint64_t> open_;  ///< ids of the enclosing spans
};

}  // namespace perfbench
