#include "perfbench/src/spans.h"

#include <fstream>

#include "perfbench/src/util.h"
#include "src/obs/json_util.h"

namespace perfbench {

SpanRecorder::SpanRecorder(std::string run_id)
    : run_id_(std::move(run_id)), origin_(std::chrono::steady_clock::now()) {}

double SpanRecorder::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int SpanRecorder::Begin(const std::string& name, int parent) {
  Span span;
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.name = name;
  span.start_s = Now();
  span.end_s = span.start_s;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::End(int id) { spans_[id].end_s = Now(); }

void SpanRecorder::Counter(int id, const std::string& key, double value) {
  spans_[id].counters.emplace_back(key, value);
}

bool SpanRecorder::WriteJson(const std::string& path,
                             const std::string& header_json) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"run_id\": " << flb::obs::JsonQuote(run_id_)
      << ",\n \"header\": " << header_json << ",\n \"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n  " : ",\n  ") << "{\"id\": " << s.id
        << ", \"parent\": " << s.parent
        << ", \"run_id\": " << flb::obs::JsonQuote(run_id_)
        << ", \"name\": " << flb::obs::JsonQuote(s.name)
        << ", \"start_s\": " << Num(s.start_s)
        << ", \"end_s\": " << Num(s.end_s) << ", \"counters\": {";
    for (size_t c = 0; c < s.counters.size(); ++c) {
      out << (c == 0 ? "" : ", ") << flb::obs::JsonQuote(s.counters[c].first)
          << ": " << Num(s.counters[c].second);
    }
    out << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
