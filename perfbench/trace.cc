#include "trace.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Lane& lane : lanes_) {
    for (const Span& span : lane.spans()) {
      if (name == span.name) out.push_back(span.seconds());
    }
  }
  return out;
}

std::pair<double, double> Tracer::child_cover(const std::string& name) const {
  std::unordered_map<SpanId, double> children;  // parent id -> covered seconds
  double own = 0.0;
  for (const Lane& lane : lanes_) {
    for (const Span& span : lane.spans()) {
      if (name == span.name) {
        own += span.seconds();
        children.try_emplace(span.id, 0.0);
      }
    }
  }
  double covered = 0.0;
  for (const Lane& lane : lanes_) {
    for (const Span& span : lane.spans()) {
      const auto it = children.find(span.parent);
      // Only same-lane children nest inside the parent's interval; a span
      // on another thread (the update thread's flush) overlaps it instead.
      if (it != children.end() && (span.parent >> 32) == (span.id >> 32)) {
        covered += span.seconds();
      }
    }
  }
  return {covered, own};
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::int64_t origin = INT64_MAX;
  for (const Lane& lane : lanes_) {
    for (const Span& span : lane.spans()) origin = std::min(origin, span.start_ns);
  }
  std::fputs("{\"traceEvents\":[\n", out);
  bool first = true;
  for (const Lane& lane : lanes_) {
    std::fprintf(out, "%s{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":%d,"
                      "\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", lane.index(), lane.label().c_str());
    first = false;
    for (const Span& span : lane.spans()) {
      std::fprintf(out,
                   ",\n{\"ph\":\"X\",\"name\":\"%s\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,\"worker\":%d,"
                   "\"iteration\":%lld}}",
                   span.name, lane.index(), static_cast<double>(span.start_ns - origin) * 1e-3,
                   static_cast<double>(span.end_ns - span.start_ns) * 1e-3,
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent), span.worker,
                   static_cast<long long>(span.iteration));
    }
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench
