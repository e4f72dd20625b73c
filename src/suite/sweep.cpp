#include "suite/sweep.hpp"

namespace amdmb::suite::detail {

std::optional<adapt::Outcome> RunSweep(
    std::size_t count, const adapt::Refiner::XOfFn& x_of,
    const std::function<std::string(std::size_t)>& label_of,
    const adapt::Refiner::MeasureFn& classify, const ExecOptions& options,
    exec::RunReport* report) {
  std::optional<adapt::Outcome> outcome;
  if (options.adaptive != nullptr) {
    const adapt::Refiner refiner(*options.adaptive, options.executor,
                                 options.retry, options.cancel);
    outcome = refiner.Run(count, x_of, classify, report);
  } else {
    exec::ExecutorOrDefault(options.executor)
        .MapWithPolicy(count, classify, options.retry, report,
                       options.cancel);
  }
  for (exec::PointOutcome& point : report->points) {
    point.label = label_of(point.index);
  }
  return outcome;
}

}  // namespace amdmb::suite::detail
