// In-memory span recorder for the traced benchmark run.
//
// Each span is a wall-clock interval around one call into a layer, with the
// span that caused it and the run it belongs to. Counters read at the span's
// boundaries ride along as named values. Nothing is written until
// WriteJson() at the end of the run, so recording costs one clock read and a
// vector append per boundary.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  int id = 0;
  int parent = -1;  // -1 = root
  std::string name;
  double start_s = 0;  // seconds since the recorder was created
  double end_s = 0;
  std::vector<std::pair<std::string, double>> counters;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::string run_id);

  int Begin(const std::string& name, int parent);
  void End(int id);
  void Counter(int id, const std::string& key, double value);

  // {"run_id": ..., "header": <header_json>, "spans": [...]}.
  bool WriteJson(const std::string& path,
                 const std::string& header_json) const;

 private:
  double Now() const;

  std::string run_id_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

// RAII span; a null recorder makes it a no-op, so untraced runs share the
// traced code path.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name, int parent)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Begin(name, parent) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }
  void Counter(const std::string& key, double value) {
    if (recorder_ != nullptr) recorder_->Counter(id_, key, value);
  }

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
