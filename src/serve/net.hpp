// Unix-domain socket plumbing shared by the daemon and the client:
// listener creation with stale-socket recovery, and a non-throwing
// connect for the client's retry loop, which treats a refused
// connection as data (no daemon yet) rather than an error.
#pragma once

#include <string>

namespace amdmb::serve {

/// Binds and listens on `path`. A socket file left behind by a crashed
/// process is detected with a connect probe (refused => no listener)
/// and unlinked; a path a *live* daemon answers on is a ConfigError,
/// never a silent takeover. Throws ConfigError on any socket failure.
int MakeListenSocket(const std::string& path);

/// Connects to `path`. Returns the connected fd, or -1 when nothing
/// listens (refused / missing / any connect failure). Throws
/// ConfigError only for an over-long path.
int ConnectUnixSocket(const std::string& path);

}  // namespace amdmb::serve
