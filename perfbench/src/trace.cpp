#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

struct Buffer {
  std::mutex mutex;  // held uncontended by the owner; collect() takes it too
  std::vector<Span> spans;
  uint32_t thread = 0;
};

std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<Buffer>> g_buffers;  // guarded by g_buffers_mutex
thread_local Buffer* t_buffer = nullptr;

Buffer& local_buffer() {
  if (t_buffer == nullptr) {
    std::lock_guard lock(g_buffers_mutex);
    g_buffers.push_back(std::make_unique<Buffer>());
    g_buffers.back()->thread = static_cast<uint32_t>(g_buffers.size() - 1);
    t_buffer = g_buffers.back().get();
  }
  return *t_buffer;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

void Tracer::record(const char* name, uint64_t id, double t0, double t1) {
  if (!on()) return;
  Buffer& buf = local_buffer();
  std::lock_guard lock(buf.mutex);
  buf.spans.push_back(Span{name, id, t0, t1, buf.thread});
}

std::vector<Span> Tracer::collect() const {
  std::vector<Span> out;
  std::lock_guard lock(g_buffers_mutex);
  for (const auto& buf : g_buffers) {
    std::lock_guard buf_lock(buf->mutex);
    out.insert(out.end(), buf->spans.begin(), buf->spans.end());
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.t0 < b.t0; });
  return out;
}

void Tracer::clear() {
  std::lock_guard lock(g_buffers_mutex);
  for (const auto& buf : g_buffers) {
    std::lock_guard buf_lock(buf->mutex);
    buf->spans.clear();
  }
}

bool Tracer::write_chrome(const std::string& path,
                          const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, s.thread, s.t0 * 1e6,
                 (s.t1 - s.t0) * 1e6, static_cast<unsigned long long>(s.id));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
