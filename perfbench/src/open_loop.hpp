// Open-loop request sender.
//
// Requests are due on a fixed schedule whatever the system does; each is
// sent by the first free connection once it is due. Latency is measured
// from the due time, not the send time, so a stall that holds every
// connection busy shows up in the latency of every request queued behind
// it (no coordinated omission), and how late the sends ran is reported
// separately.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// Client-side timestamps of one request. `due` and `sent` are set by
/// RunOpenLoop; the send function fills the rest from the events it reads.
struct RequestTiming {
  Clock::time_point due{};
  Clock::time_point sent{};
  Clock::time_point accepted{};     ///< "accepted" event (if any).
  Clock::time_point first_point{};  ///< First "point" event (if any).
  Clock::time_point last_point{};   ///< Last "point" event (if any).
  Clock::time_point done{};         ///< Terminal event.
  bool completed = false;  ///< Terminal event was a success.
  std::string detail;      ///< Why it failed, when it did.

  double LatencySeconds() const;  ///< done - due
  double LateSeconds() const;     ///< sent - due
};

/// Sends request `index` on connection `connection` and fills the
/// timestamps after `sent`. A std::exception it throws marks the request
/// failed, with the message as its detail.
using SendFn =
    std::function<void(std::size_t index, unsigned connection,
                       RequestTiming& timing)>;

/// Runs the schedule (`due_s` ascending, offsets from now) over
/// `connections` concurrent senders and returns one timing per request.
std::vector<RequestTiming> RunOpenLoop(const std::vector<double>& due_s,
                                       unsigned connections,
                                       const SendFn& send);

}  // namespace perfbench
