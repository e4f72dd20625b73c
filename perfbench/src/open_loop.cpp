#include "open_loop.hpp"

#include <atomic>
#include <exception>
#include <thread>

#include "common/status.hpp"

namespace perfbench {

double RequestTiming::LatencySeconds() const {
  return std::chrono::duration<double>(done - due).count();
}

double RequestTiming::LateSeconds() const {
  return std::chrono::duration<double>(sent - due).count();
}

std::vector<RequestTiming> RunOpenLoop(const std::vector<double>& due_s,
                                       unsigned connections,
                                       const SendFn& send) {
  amdmb::Require(connections >= 1, "RunOpenLoop: needs a connection");
  std::vector<RequestTiming> timings(due_s.size());
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < due_s.size(); ++i) {
    timings[i].due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due_s[i]));
  }
  std::atomic<std::size_t> next{0};
  const auto sender = [&](unsigned connection) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= timings.size()) return;
      RequestTiming& t = timings[i];
      std::this_thread::sleep_until(t.due);
      t.sent = Clock::now();
      try {
        send(i, connection, t);
      } catch (const std::exception& e) {
        t.completed = false;
        t.detail = e.what();
      }
      if (t.done < t.sent) t.done = Clock::now();
    }
  };
  std::vector<std::thread> senders;
  senders.reserve(connections);
  for (unsigned c = 0; c < connections; ++c) senders.emplace_back(sender, c);
  for (std::thread& s : senders) s.join();
  return timings;
}

}  // namespace perfbench
