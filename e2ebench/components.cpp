#include "components.hpp"

#include <array>
#include <memory>

namespace e2e {
namespace {

using namespace drt;

/// A quarter of the declared per-job budget, at least 1 us.
SimDuration job_cost(const drcom::ComponentDescriptor& d) {
  SimDuration period = 0;
  if (d.periodic.has_value()) period = d.periodic->period();
  if (d.sporadic.has_value()) period = d.sporadic->min_interarrival;
  const auto cost = static_cast<SimDuration>(static_cast<double>(period) *
                                             d.cpu_usage * 0.25);
  return std::max<SimDuration>(1'000, cost);
}

class Work : public drcom::RtComponent {
 public:
  explicit Work(BodyContext& context) : context_(&context) {}

  rtos::TaskCoro run(drcom::JobContext& job) override {
    if (job.descriptor().type == rtos::TaskType::kSporadic) {
      const SimDuration cost = job_cost(job.descriptor());
      while (job.active()) {
        auto event = co_await job.next_event();
        if (!event.has_value()) break;
        serve(job);
        co_await job.consume(cost);
      }
      co_return;
    }
    while (job.active()) {
      co_await job.consume(job_cost(job.descriptor()));
      call(job);
      touch_ports(job);
      serve(job);
      co_await job.next_cycle();
    }
  }

 private:
  void call(drcom::JobContext& job) {
    cap::Connection* route = job.capability("rpc");
    if (route == nullptr && !remote_looked_up_) {
      // Remote binds happen before the first job runs and never move.
      remote_looked_up_ = true;
      if (context_->remote != nullptr) {
        const auto found = context_->remote->find(job.descriptor().name);
        if (found != context_->remote->end()) remote_ = found->second;
      }
    }
    if (route == nullptr) route = remote_;
    if (route == nullptr) return;
    if (rtos::Mailbox* replies = route->reply_mailbox()) {
      while (job.task().try_receive(*replies).has_value()) {
      }
    }
    std::array<std::byte, kRequestBytes> request{};
    request[0] = static_cast<std::byte>(counter_);
    ErrorCode result = ErrorCode::kNone;
    if (SpanRecorder* spans = context_->spans) {
      const std::int64_t start = host_ns();
      result = route->call(1, request);
      spans->leaf("cap.call", start, host_ns());
    } else {
      result = route->call(1, request);
    }
    // Ring the provider's inbox (a Mailbox in-port) so a sporadic server
    // is released; absent while the provider is inactive.
    if (result != ErrorCode::kNone) return;
    const std::byte ring{1};
    for (const auto* port : job.descriptor().inports()) {
      if (port->interface != drcom::PortInterface::kMailbox) continue;
      if (rtos::Mailbox* door = job.in_mailbox(port->name)) {
        (void)job.task().send(*door, rtos::Message(&ring, 1));
      }
    }
  }

  void touch_ports(drcom::JobContext& job) {
    ++counter_;
    for (const auto* port : job.descriptor().outports()) {
      if (port->interface == drcom::PortInterface::kShm) {
        (void)job.write_i32(port->name, 0, counter_);
      }
    }
    for (const auto* port : job.descriptor().inports()) {
      if (port->interface == drcom::PortInterface::kShm) {
        (void)job.read_i32(port->name, 0);
      }
    }
  }

  void serve(drcom::JobContext& job) {
    cap::ServerEnd* server = job.cap_server("rpc");
    if (server == nullptr) return;
    SpanRecorder* spans = context_->spans;
    const std::int64_t start = spans != nullptr ? host_ns() : 0;
    std::uint64_t frames = 0;
    const std::array<std::byte, kReplyBytes> reply{};
    while (auto frame = server->try_next()) {
      ++frames;
      if (frame->method->response_bytes > 0) (void)server->reply(*frame, reply);
    }
    context_->served += frames;
    if (spans != nullptr && frames > 0) {
      spans->leaf("cap.serve", start, host_ns());
    }
  }

  BodyContext* context_;
  cap::Connection* remote_ = nullptr;
  bool remote_looked_up_ = false;
  std::int32_t counter_ = 0;
};

}  // namespace

void register_work_factory(drt::drcom::Drcr& drcr, BodyContext& context) {
  drcr.factories().register_factory(
      kWorkBincode, [&context] { return std::make_unique<Work>(context); });
}

}  // namespace e2e
