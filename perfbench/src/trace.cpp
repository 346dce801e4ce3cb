#include "trace.hpp"

#include <fstream>
#include <functional>
#include <thread>

namespace perfbench {

using pf::service::Json;
using pf::service::JsonArray;
using pf::service::JsonObject;

Tracer::Tracer() : origin_(Clock::now()) {}

int Tracer::thread_index() {
  const std::size_t h = std::hash<std::thread::id>{}(std::this_thread::get_id());
  for (std::size_t i = 0; i < thread_hashes_.size(); ++i)
    if (thread_hashes_[i] == h) return int(i);
  thread_hashes_.push_back(h);
  return int(thread_hashes_.size() - 1);
}

int Tracer::begin(const std::string& name, int parent) {
  const double now = std::chrono::duration<double, std::micro>(
                         Clock::now() - origin_).count();
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = name;
  span.start_us = now;
  span.end_us = -1.0;
  span.parent = parent;
  span.thread = thread_index();
  spans_.push_back(std::move(span));
  return int(spans_.size() - 1);
}

void Tracer::end(int id) {
  const double now = std::chrono::duration<double, std::micro>(
                         Clock::now() - origin_).count();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(std::size_t(id)).end_us = now;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name && s.end_us >= 0.0)
      out.push_back((s.end_us - s.start_us) * 1e-6);
  return out;
}

double Tracer::total_seconds(const std::string& name) const {
  double total = 0.0;
  for (double d : durations(name)) total += d;
  return total;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonArray events;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_us < 0.0) continue;
    JsonObject args;
    args["id"] = Json(double(i));
    args["parent"] = Json(double(s.parent));
    JsonObject ev;
    ev["name"] = Json(s.name);
    ev["ph"] = Json("X");
    ev["pid"] = Json(1);
    ev["tid"] = Json(s.thread);
    ev["ts"] = Json(s.start_us);
    ev["dur"] = Json(s.end_us - s.start_us);
    ev["args"] = Json(std::move(args));
    events.emplace_back(std::move(ev));
  }
  JsonObject doc;
  doc["traceEvents"] = Json(std::move(events));
  std::ofstream out(path);
  out << Json(std::move(doc)).dump() << "\n";
  return bool(out);
}

}  // namespace perfbench
