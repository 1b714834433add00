// In-memory span recorder for the traced benchmark run.
//
// A span is a named wall-clock interval opened and closed around one call
// into a layer. Spans nest: a span opened while another is open records it
// as its parent, so a layer's self time is its duration minus its children's.
// Spans stay in memory until the run ends; to_json() writes them out.
#pragma once

#include <algorithm>
#include <chrono>
#include <string>
#include <string_view>
#include <vector>

#include "sys/json.hpp"
#include "sys/types.hpp"

namespace perfbench {

using dnnd::usize;

inline double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

/// Percentile p in [0, 100] of an unsorted sample, interpolated linearly
/// between the two nearest ranks, so p = 50 is the usual median; 0 when empty.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const usize lo = static_cast<usize>(pos);
  const usize hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return percentile(v, 50.0); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  /// Closes its span on scope exit, including by exception.
  class Scope {
   public:
    Scope(Tracer& t, std::string name) : t_(t), id_(t.open(std::move(name))) {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int id_;
  };

  /// Runs `fn` inside a span named `name` and returns its result.
  template <typename Fn>
  decltype(auto) time(std::string name, Fn&& fn) {
    const Scope scope(*this, std::move(name));
    return fn();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Durations (s) of every span named `name`, in opening order.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.end - s.start);
    }
    return out;
  }

  [[nodiscard]] double total(std::string_view name) const {
    double sum = 0.0;
    for (const double d : durations(name)) sum += d;
    return sum;
  }

  /// Summed duration of the direct children of every span named `name`.
  [[nodiscard]] double child_total(std::string_view name) const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (s.parent >= 0 && spans_[static_cast<usize>(s.parent)].name == name) {
        sum += s.end - s.start;
      }
    }
    return sum;
  }

  [[nodiscard]] std::string to_json() const {
    dnnd::sys::JsonWriter w;
    w.begin_array();
    for (const Span& s : spans_) {
      w.begin_object();
      w.key("name").value(s.name);
      w.key("start_s").value(s.start);
      w.key("end_s").value(s.end);
      w.key("parent").value(s.parent);
      w.end_object();
    }
    w.end_array();
    return w.str();
  }

 private:
  int open(std::string name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), now_s(), 0.0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }

  void close(int id) {
    spans_[static_cast<usize>(id)].end = now_s();
    stack_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
