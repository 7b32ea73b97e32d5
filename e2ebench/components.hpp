// The one component implementation every benchmark workload deploys.
//
// Its behaviour is driven entirely by the descriptor the workload generated:
// it burns a quarter of its declared per-job budget, touches its declared
// ports (SHM out-ports get a counter, SHM in-ports are read), calls its
// typed route once per job when it has one and then rings each Mailbox
// in-port (the provider's trigger inbox), and drains its exposed protocol
// when it serves one. Declared budgets are four times the consumed demand,
// so that the kernel's per-job overheads and the smaller budgets of a "low"
// mode still fit: in these fault-free runs a deadline miss is a finding,
// not noise.
#pragma once

#include <map>
#include <string>

#include "cap/channel.hpp"
#include "drcom/drcr.hpp"
#include "spans.hpp"

namespace e2e {

/// Factory key of the component below ("bincode" in the descriptors).
inline constexpr const char* kWorkBincode = "e2e.Work";

/// Request payload of every typed call.
inline constexpr std::size_t kRequestBytes = 64;
/// Reply payload of the two-way local protocol.
inline constexpr std::size_t kReplyBytes = 8;

/// Typed endpoints bound from outside the DRCR (federation remote binds),
/// keyed by the name of the component whose body calls them. The owner
/// keeps the map alive for as long as the stack runs.
using RemoteRoutes = std::map<std::string, drt::cap::Connection*>;

/// Per-stack context the component bodies read.
struct BodyContext {
  /// Non-null while a traced round runs: bodies record cap.call/cap.serve.
  SpanRecorder* spans = nullptr;
  const RemoteRoutes* remote = nullptr;
  /// Frames served by every body (request count, exact).
  std::uint64_t served = 0;
};

/// Registers kWorkBincode on `drcr`; bodies read `context`, which must
/// outlive the DRCR.
void register_work_factory(drt::drcom::Drcr& drcr, BodyContext& context);

}  // namespace e2e
