#include "spans.hpp"

#include "metrics.hpp"

namespace perfbench {

std::uint64_t Spans::ns(std::chrono::steady_clock::time_point t) const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - anchor_)
          .count());
}

void Spans::add(const char* name, std::chrono::steady_clock::time_point start,
                std::chrono::steady_clock::time_point end) {
  if (!on_) return;
  Record r;
  r.id = recs_.size() + 1;
  r.parent = open_.empty() ? 0 : open_.back();
  r.name = name;
  r.start_ns = ns(start);
  r.end_ns = ns(end);
  recs_.push_back(std::move(r));
}

std::string Spans::to_json() const {
  std::vector<SpanTimes> times;
  times.reserve(recs_.size());
  for (const Record& r : recs_) {
    times.push_back({r.id, r.parent, r.start_ns, r.end_ns});
  }
  const std::vector<std::uint64_t> self = self_times_ns(times);
  std::string out = "{\"schema\": \"perfbench-spans-v1\", \"spans\": [";
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const Record& r = recs_[i];
    out += i == 0 ? "\n  " : ",\n  ";
    out += "{\"id\": " + std::to_string(r.id) +
           ", \"parent\": " + std::to_string(r.parent) + ", \"name\": \"" +
           r.name + "\", \"start_ns\": " + std::to_string(r.start_ns) +
           ", \"dur_ns\": " + std::to_string(r.end_ns - r.start_ns) +
           ", \"self_ns\": " + std::to_string(self[i]) + "}";
  }
  out += "\n]}\n";
  return out;
}

Spans::Scope::Scope(Spans& spans, const char* name) : spans_(spans) {
  if (!spans_.on_) return;
  Record r;
  r.id = spans_.recs_.size() + 1;
  r.parent = spans_.open_.empty() ? 0 : spans_.open_.back();
  r.name = name;
  r.start_ns = spans_.ns(std::chrono::steady_clock::now());
  index_ = spans_.recs_.size();
  spans_.open_.push_back(r.id);
  spans_.recs_.push_back(std::move(r));
  live_ = true;
  if (emptcp::runtime::Telemetry::enabled()) {
    mirror_.emplace(emptcp::runtime::Telemetry::instance().intern(name));
  }
}

Spans::Scope::~Scope() {
  if (!live_) return;
  mirror_.reset();
  spans_.recs_[index_].end_ns = spans_.ns(std::chrono::steady_clock::now());
  spans_.open_.pop_back();
}

}  // namespace perfbench
