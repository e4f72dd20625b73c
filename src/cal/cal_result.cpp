#include "cal/cal_result.hpp"

namespace amdmb::cal {

namespace {

std::string RenderWhat(CalResult code, const std::string& stage,
                       const std::string& point, unsigned attempt,
                       const std::string& detail) {
  std::string what = "CAL error ";
  what += ToString(code);
  what += " at stage '" + stage + "'";
  if (!point.empty()) what += ", point '" + point + "'";
  what += ", attempt " + std::to_string(attempt);
  if (!detail.empty()) what += ": " + detail;
  return what;
}

}  // namespace

std::string_view ToString(CalResult result) {
  switch (result) {
    case CalResult::kCalOk: return "kCalOk";
    case CalResult::kCalCompileFailed: return "kCalCompileFailed";
    case CalResult::kCalLaunchFailed: return "kCalLaunchFailed";
    case CalResult::kCalTimeout: return "kCalTimeout";
    case CalResult::kCalReadbackFailed: return "kCalReadbackFailed";
  }
  throw SimError("ToString(CalResult): unknown value");
}

CalError::CalError(CalResult code, std::string stage, std::string point,
                   unsigned attempt, const std::string& detail)
    : TransientError(RenderWhat(code, stage, point, attempt, detail)),
      code_(code),
      stage_(std::move(stage)),
      point_(std::move(point)),
      attempt_(attempt) {}

void CheckInjectedFault(fault::FaultSite site, std::string_view point,
                        unsigned attempt) {
  const fault::FaultInjector* injector = fault::GlobalInjector();
  if (injector == nullptr) return;
  std::string key(point);
  key += '#';
  key += std::to_string(attempt);
  if (!injector->ShouldFail(site, key)) return;
  switch (site) {
    case fault::FaultSite::kCompile:
      throw CalError(CalResult::kCalCompileFailed, "compile",
                     std::string(point), attempt, "injected compile fault");
    case fault::FaultSite::kLaunch:
      throw CalError(CalResult::kCalLaunchFailed, "launch",
                     std::string(point), attempt, "injected launch fault");
    case fault::FaultSite::kHang:
      throw CalError(CalResult::kCalTimeout, "watchdog", std::string(point),
                     attempt,
                     "injected hang resolved by the watchdog cycle budget");
    case fault::FaultSite::kReadback:
      throw CalError(CalResult::kCalReadbackFailed, "readback",
                     std::string(point), attempt, "injected readback fault");
  }
  throw SimError("CheckInjectedFault: unknown fault site");
}

}  // namespace amdmb::cal
