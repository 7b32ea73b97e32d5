// The simulated RTAI kernel: fixed-priority preemptive scheduling with
// round-robin among equal priorities, periodic/aperiodic tasks, suspension,
// IPC, and the dual-kernel latency behaviour of the paper's testbed.
//
// Everything runs in virtual time on a SimEngine. Scheduling decisions are
// event-driven and deterministic; only the latency/load models draw from the
// seeded RNG. The public API mirrors LXRT (the RTAI user-space interface the
// paper's prototype uses): create/start/suspend/resume/delete task, named
// SHM and mailboxes.
#pragma once

#include <array>
#include <bit>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "rtos/fault.hpp"
#include "rtos/ipc.hpp"
#include "rtos/latency_model.hpp"
#include "rtos/load.hpp"
#include "rtos/sim_engine.hpp"
#include "rtos/task.hpp"
#include "rtos/trace.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"

namespace drt::rtos {

/// Highest admissible task priority (inclusive). Priorities index the
/// per-CPU ready bitmap (RTAI convention: 0 = most important), so
/// create_task rejects values outside [0, kMaxPriority].
inline constexpr int kMaxPriority = 255;

/// Upper bound on mailbox capacity (message slots). The ring buffer is
/// pre-sized at creation, so an absurd capacity reaching the kernel from an
/// untrusted descriptor would be a giant up-front allocation; reject it with
/// a structured error instead.
inline constexpr std::size_t kMaxMailboxCapacity = std::size_t{1} << 16;

/// Upper bound on a shared-memory segment (bytes), for the same reason.
inline constexpr std::size_t kMaxShmBytes = std::size_t{64} << 20;

/// RTAI-style O(1) ready queue: one intrusive FIFO per priority level plus a
/// find-first-set bitmap over the non-empty levels. front() scans four
/// 64-bit words; insertion and removal are pointer splices. The queue links
/// tasks through Task::ready_next/ready_prev, so membership costs no
/// allocation and removal from the middle (suspend/delete) is O(1).
///
/// Ordering contract (matches the historical flat-vector scan): tasks are
/// picked by (priority asc, arrival order), where preempted tasks re-enter
/// at the FRONT of their priority level (they must not lose their
/// round-robin turn) and everything else joins at the back.
///
/// EDF band: within one priority level, SchedClass::kDeadline tasks are kept
/// sorted by (absolute deadline, ready_seq) AHEAD of every fixed-priority
/// task at that level (an FP task's sort key is the +inf sentinel, so the
/// FP sub-band keeps the exact FIFO/front-re-entry order above). Both
/// push_back and push_front reduce to the same key-sorted insertion; for FP
/// tasks the key degenerates to ready_seq and the placement is bit-identical
/// to the historical behaviour.
class ReadyQueue {
 public:
  /// FIFO arrival (fresh release, quantum rotation, resume).
  void push_back(Task& task);
  /// Re-entry ahead of FIFO arrivals (preemption).
  void push_front(Task& task);
  /// O(1) unlink; no-op when the task is not enqueued.
  void remove(Task& task);
  /// Best task to run next: lowest priority value, earliest within the
  /// level. nullptr when empty.
  [[nodiscard]] Task* front() const;

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size() const { return count_; }
  /// True when some task at exactly `priority` is ready (the round-robin
  /// contention test).
  [[nodiscard]] bool has_priority(int priority) const {
    return heads_[static_cast<std::size_t>(priority)] != nullptr;
  }

 private:
  /// Key-ordered splice shared by push_back/push_front (the caller has
  /// already assigned ready_seq, which encodes back/front placement).
  void insert_sorted(Task& task);

  static constexpr std::size_t kLevels = kMaxPriority + 1;
  std::array<std::uint64_t, kLevels / 64> bitmap_{};
  std::array<Task*, kLevels> heads_{};
  std::array<Task*, kLevels> tails_{};
  std::size_t count_ = 0;
};

struct KernelConfig {
  std::size_t cpus = 2;  ///< paper testbed: Core Duo T5500
  /// Cost charged on every dispatch (context switch + scheduler path).
  SimDuration context_switch_ns = 900;
  /// Default round-robin slice for tasks that do not specify one (§4.1: the
  /// evaluation scheduler is round-robin).
  SimDuration default_rr_quantum = milliseconds(5);
  LatencyModelConfig latency = {};
  LoadConfig load = light_load();
  std::uint64_t seed = 42;
  /// Minimum idle residency before the CPU reaches a sleep state whose wake
  /// path costs the full idle-wake latency. Under a saturating load the CPU
  /// never stays idle this long, which is why stress mode exposes the raw
  /// timer offset (Table 1).
  SimDuration cstate_entry_ns = microseconds(200);
};

class RtKernel {
 public:
  explicit RtKernel(SimEngine& engine, KernelConfig config = {});
  ~RtKernel();
  RtKernel(const RtKernel&) = delete;
  RtKernel& operator=(const RtKernel&) = delete;

  [[nodiscard]] SimEngine& engine() { return *engine_; }
  [[nodiscard]] SimTime now() const { return engine_->now(); }
  [[nodiscard]] const KernelConfig& config() const { return config_; }

  // ------------------------------------------------------------- tasks ----
  /// Creates a task (not yet released). Validates name uniqueness, CPU range
  /// and periodic parameters.
  Result<TaskId> create_task(TaskParams params, TaskBody body);

  /// Releases the task: periodic tasks get their first ideal release at
  /// `start_at` (default: one period from now), aperiodic tasks become ready
  /// immediately at `start_at` (default: now).
  Result<void> start_task(TaskId id, SimTime start_at = -1);

  /// Management-interface suspension: the task is frozen wherever it is;
  /// periodic releases occurring while suspended are counted as skipped.
  Result<void> suspend_task(TaskId id);
  Result<void> resume_task(TaskId id);

  /// Cooperative stop: sets the flag returned by TaskContext::stop_requested.
  Result<void> request_stop(TaskId id);

  /// Destroys the task immediately (coroutine frame included). Must not be
  /// called from inside the task's own body.
  Result<void> delete_task(TaskId id);

  [[nodiscard]] Task* find_task(TaskId id);
  [[nodiscard]] const Task* find_task(TaskId id) const;
  [[nodiscard]] Task* find_task(std::string_view name);
  [[nodiscard]] const Task* find_task(std::string_view name) const;
  [[nodiscard]] std::vector<const Task*> tasks() const;

  /// Attaches an execution-time histogram to the task: every job completion
  /// observes the job's served CPU time (ns) into it. Null detaches. The
  /// histogram must outlive the attachment (the contract monitor owns its
  /// registration in the kernel's metrics registry). Detached tasks pay one
  /// null-check per completion and nothing else.
  Result<void> set_exec_histogram(TaskId id, obs::Histogram* hist);

  /// Sum of cpu-demand served on `cpu` so far (for utilization accounting).
  [[nodiscard]] SimDuration cpu_busy_time(CpuId cpu) const;

  // ------------------------------------------------- const introspection ----
  // Read-only scheduler state for external checkers (the invariant oracle of
  // src/testing): what runs on a CPU right now and what would run next.
  /// Task currently holding `cpu`; nullptr when idle or out of range.
  [[nodiscard]] const Task* running_task(CpuId cpu) const;
  /// Best ready (not running) task on `cpu`; nullptr when none.
  [[nodiscard]] const Task* next_ready(CpuId cpu) const;
  /// Number of ready (not running) tasks on `cpu`.
  [[nodiscard]] std::size_t ready_count(CpuId cpu) const;

  // --------------------------------------------------------------- IPC ----
  Result<Shm*> shm_create(std::string name, std::size_t size_bytes);
  [[nodiscard]] Shm* shm_find(std::string_view name);
  [[nodiscard]] const Shm* shm_find(std::string_view name) const;
  Result<void> shm_delete(std::string_view name);

  /// Capacity 0 creates a rendezvous-only mailbox: sends succeed only by
  /// direct handoff to a receiver already parked in receive().
  Result<Mailbox*> mailbox_create(std::string name, std::size_t capacity);
  [[nodiscard]] Mailbox* mailbox_find(std::string_view name);
  [[nodiscard]] const Mailbox* mailbox_find(std::string_view name) const;
  Result<void> mailbox_delete(std::string_view name);
  /// All live mailboxes, in name order (observability: DRCR snapshots use
  /// this to expose per-channel pressure counters).
  [[nodiscard]] std::vector<const Mailbox*> mailboxes() const;

  /// Counters carried over from deleted mailboxes. Registry mailbox
  /// aggregates equal the sum over live mailboxes plus this remainder, which
  /// is what the fuzzer's metrics-consistency invariant reconciles.
  struct RetiredMailboxCounters {
    std::uint64_t sent = 0;
    std::uint64_t dropped = 0;
    std::uint64_t handoff = 0;
    std::uint64_t received = 0;
    std::uint64_t fault_dropped = 0;
    std::uint64_t fault_duplicated = 0;
  };
  [[nodiscard]] const RetiredMailboxCounters& retired_mailbox_counters()
      const {
    return retired_mbx_;
  }

  /// Asynchronous send (never blocks; false when the mailbox is full and no
  /// receiver waits). Callable from RT tasks and from the non-RT side alike —
  /// this is the §3.2 command channel primitive. When a receiver is parked
  /// on the mailbox the buffer is moved straight into its result slot
  /// (direct handoff): no queue traffic, no copy, no allocation.
  bool mailbox_send(Mailbox& mailbox, Message message);

  /// Non-blocking receive for the non-RT side (management part polling
  /// status responses).
  std::optional<Message> mailbox_try_receive(Mailbox& mailbox);

  /// Cross-CPU-group send: hands `message` to the kernel owning
  /// `target_shard` through the engine's pooled zero-copy path. Delivery
  /// happens on the target shard at now() + a sampled cross-group latency
  /// (never below LatencyModel::min_cross_group_latency(), the engine's
  /// conservative lookahead) and then behaves exactly like a local
  /// mailbox_send on the receiving kernel — handoff, fault plan, counters.
  /// `target_mailbox` must be owned by the kernel registered on that shard
  /// and must outlive delivery. False when `target_shard` does not exist.
  bool remote_send(ShardId target_shard, Mailbox& target_mailbox,
                   Message message);

  /// Generalized cross-shard send: schedules `message` for delivery through
  /// `target` (any RemoteTarget — a mailbox's, or a federation channel
  /// endpoint's) at max(now() + sampled cross-group latency, not_before).
  /// Returns the scheduled delivery time so a caller can chain `not_before`
  /// across sends for FIFO channel order despite latency jitter, or
  /// kSimTimeNever when `target_shard` does not exist (nothing was sent).
  /// `target` must outlive delivery.
  SimTime remote_post(ShardId target_shard, RemoteTarget& target,
                      Message message, SimTime not_before = 0);

  Result<Semaphore*> semaphore_create(std::string name, int initial);
  [[nodiscard]] Semaphore* semaphore_find(std::string_view name);
  /// Deletes the semaphore; blocked waiters resume with acquired == false.
  Result<void> semaphore_delete(std::string_view name);

  /// V operation: wakes the longest-waiting task, or increments the count.
  /// Callable from RT tasks and the non-RT side alike.
  void semaphore_signal(Semaphore& semaphore);

  /// Non-blocking P operation.
  bool semaphore_try_wait(Semaphore& semaphore);

  // ------------------------------------------------------- environment ----
  [[nodiscard]] LinuxLoad& linux_load() { return load_; }
  [[nodiscard]] LatencyModel& latency_model() { return latency_model_; }
  [[nodiscard]] Trace& trace() { return trace_; }
  [[nodiscard]] const Trace& trace() const { return trace_; }

  /// Unified metrics registry (obs layer). The kernel pre-registers its own
  /// series (scheduling, IPC, pool occupancy) at construction; the DRCR and
  /// OSGi layers add theirs to the same registry, so one snapshot covers the
  /// whole stack. Disabled by default — like the trace, counting is opt-in
  /// so instrumented hot paths cost nothing in latency runs.
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return metrics_;
  }

  /// Opt-in fault injection (testing): while set, the kernel consults the
  /// plan on every mailbox send, consume() demand, periodic wake and
  /// scheduling boundary. The plan must outlive the kernel or be unset.
  void set_fault_plan(FaultPlan* plan) { fault_plan_ = plan; }
  [[nodiscard]] FaultPlan* fault_plan() const { return fault_plan_; }

  /// Swaps the Linux-domain load profile (light <-> stress) at runtime.
  void set_load_config(LoadConfig config) { load_.set_config(config); }

 private:
  friend class TaskContext;
  struct Cpu {
    Task* running = nullptr;
    ReadyQueue ready;
    std::int64_t back_seq = 0;   ///< increments: normal FIFO arrivals
    std::int64_t front_seq = 0;  ///< decrements: preempted tasks re-enter first
    SimDuration busy_time = 0;
    SimTime rt_active_until = 0;  ///< last instant an RT task held this CPU
  };

  /// Transparent hash so name lookups take string_view without allocating.
  struct StringHash {
    using is_transparent = void;
    [[nodiscard]] std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  // Scheduler machinery (see kernel.cpp for the protocol description).
  void make_ready(Task& task, bool fresh_quantum);
  void remove_from_ready(Cpu& cpu, Task& task);
  void dispatch(Cpu& cpu, Task& task);
  void preempt(Cpu& cpu);
  void schedule_completion(Cpu& cpu, Task& task);
  void on_cpu_event(CpuId cpu_id, Task& task);
  void serve(Task& task);
  void settle();
  void arm_release(Task& task, SimTime ideal);
  void on_timer_fire(Task& task, SimTime ideal);
  void finish_task(Task& task);
  [[nodiscard]] bool cpu_idle_for_wake(CpuId cpu) const;
  [[nodiscard]] SimDuration quantum_for(const Task& task) const;
  void charge(Cpu& cpu, Task& task);
  void cancel_task_events(Task& task);
  /// Drops `task`'s entry from the name index (unless the name was already
  /// reused by a younger task).
  void release_task_name(const Task& task);

  SimEngine* engine_;
  KernelConfig config_;
  Rng rng_;
  LatencyModel latency_model_;
  LinuxLoad load_;
  Trace trace_;
  obs::MetricsRegistry metrics_;
  /// Pre-registered handles into metrics_; never null after construction.
  /// Mailbox aggregates are incremented at exactly the per-mailbox counter
  /// sites (deliver_message / push / pop / fault branches), so the registry
  /// totals always equal the sum over Mailbox counters — including under
  /// fault injection (the kMiscount planted bug stays per-mailbox only).
  struct KernelMetrics {
    obs::Counter* dispatches = nullptr;
    obs::Counter* preemptions = nullptr;
    obs::Counter* slice_rotations = nullptr;
    obs::Counter* releases = nullptr;
    obs::Counter* completions = nullptr;
    obs::Counter* deadline_misses = nullptr;
    obs::Histogram* release_latency = nullptr;
    obs::Counter* mbx_sent = nullptr;
    obs::Counter* mbx_dropped = nullptr;
    obs::Counter* mbx_handoff = nullptr;
    obs::Counter* mbx_received = nullptr;
    obs::Counter* mbx_fault_dropped = nullptr;
    obs::Counter* mbx_fault_duplicated = nullptr;
    obs::Counter* remote_sent = nullptr;
  } m_;
  std::vector<Cpu> cpus_;
  std::vector<std::unique_ptr<Task>> tasks_;
  /// Dense id index — every event callback resolves its task through this.
  /// Entries persist for finished tasks (stale-event callbacks must still
  /// find them and observe kFinished); ids a failed create consumed stay
  /// nullptr, as does slot 0 (ids start at 1).
  std::vector<Task*> tasks_by_id_;
  /// O(1) name lookup for live (non-finished) tasks; a finished task's name
  /// becomes reusable, matching the historical linear-scan semantics.
  std::unordered_map<std::string, TaskId, StringHash, std::equal_to<>>
      tasks_by_name_;
  std::map<std::string, std::unique_ptr<Shm>, std::less<>> shms_;
  std::map<std::string, std::unique_ptr<Mailbox>, std::less<>> mailboxes_;
  RetiredMailboxCounters retired_mbx_;
  std::map<std::string, std::unique_ptr<Semaphore>, std::less<>> semaphores_;
  TaskId next_task_id_ = 1;
  int serving_depth_ = 0;
  FaultPlan* fault_plan_ = nullptr;

  /// Queue/handoff delivery shared by the normal and fault-duplicated send
  /// paths in mailbox_send.
  bool deliver_message(Mailbox& mailbox, Message message);

  /// Engine MessageSink entry point: a remote_send arriving on this kernel's
  /// shard lands here (on this shard's execution context) and flows through
  /// the ordinary mailbox_send path.
  static void sink_deliver(void* ctx, void* target, Message message);
};

// --------------------------------------------------------------------------
// TaskContext: the per-task facade available inside a task body. Returned
// awaiters communicate with the kernel through the TCB handshake fields.
// --------------------------------------------------------------------------

namespace detail {

struct ConsumeAwaiter {
  Task* task;
  SimDuration amount;
  [[nodiscard]] bool await_ready() const noexcept { return amount <= 0; }
  void await_suspend(std::coroutine_handle<> self) const noexcept {
    task->resume_handle = self;
    task->pending_op = PendingOp::kDemand;
    task->pending_amount = amount;
  }
  void await_resume() const noexcept {}
};

struct WaitPeriodAwaiter {
  Task* task;
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> self) const noexcept {
    task->resume_handle = self;
    task->pending_op = PendingOp::kWaitPeriod;
  }
  void await_resume() const noexcept {}
};

struct SleepAwaiter {
  Task* task;
  SimTime wake_time;
  SimTime now;
  [[nodiscard]] bool await_ready() const noexcept { return wake_time <= now; }
  void await_suspend(std::coroutine_handle<> self) const noexcept {
    task->resume_handle = self;
    task->pending_op = PendingOp::kSleep;
    task->pending_wake_time = wake_time;
  }
  void await_resume() const noexcept {}
};

struct SemWaitAwaiter {
  RtKernel* kernel;
  Task* task;
  Semaphore* semaphore;
  SimDuration timeout;  ///< <0: infinite
  bool immediate = false;

  [[nodiscard]] bool await_ready() {
    immediate = kernel->semaphore_try_wait(*semaphore);
    return immediate;
  }
  void await_suspend(std::coroutine_handle<> self) const noexcept {
    task->resume_handle = self;
    task->pending_op = PendingOp::kWaitSemaphore;
    task->pending_semaphore = semaphore;
    task->pending_timeout = timeout;
    task->semaphore_acquired = false;
  }
  [[nodiscard]] bool await_resume() const {
    return immediate || task->semaphore_acquired;
  }
};

struct ReceiveAwaiter {
  RtKernel* kernel;
  Task* task;
  Mailbox* mailbox;
  SimDuration timeout;  ///< <0: infinite
  std::optional<Message> immediate;

  [[nodiscard]] bool await_ready() {
    immediate = kernel->mailbox_try_receive(*mailbox);
    return immediate.has_value();
  }
  void await_suspend(std::coroutine_handle<> self) const noexcept {
    task->resume_handle = self;
    task->pending_op = PendingOp::kWaitMailbox;
    task->pending_mailbox = mailbox;
    task->pending_timeout = timeout;
    task->mailbox_result.reset();
  }
  std::optional<Message> await_resume() {
    if (immediate.has_value()) return std::move(immediate);
    return std::move(task->mailbox_result);
  }
};

}  // namespace detail

class TaskContext {
 public:
  TaskContext(RtKernel& kernel, Task& task) : kernel_(&kernel), task_(&task) {}

  [[nodiscard]] RtKernel& kernel() { return *kernel_; }
  [[nodiscard]] const Task& task() const { return *task_; }
  [[nodiscard]] TaskId task_id() const { return task_->id; }
  [[nodiscard]] SimTime now() const { return kernel_->now(); }
  [[nodiscard]] bool stop_requested() const { return task_->stop_requested; }

  /// Burns `amount` ns of CPU time under preemptive scheduling.
  [[nodiscard]] detail::ConsumeAwaiter consume(SimDuration amount) {
    return {task_, amount};
  }

  /// Blocks until the next periodic release (rt_task_wait_period). Returns
  /// immediately — with an overrun recorded — when the next release already
  /// passed. Calling this from an aperiodic task throws std::logic_error
  /// into the body (captured as the task error).
  [[nodiscard]] detail::WaitPeriodAwaiter wait_next_period() {
    if (task_->params.type != TaskType::kPeriodic) {
      throw std::logic_error("wait_next_period on aperiodic task '" +
                             task_->params.name + "'");
    }
    return {task_};
  }

  /// Blocks for `amount` ns without consuming CPU (rt_sleep).
  [[nodiscard]] detail::SleepAwaiter sleep_for(SimDuration amount) {
    return {task_, now() + (amount < 0 ? 0 : amount), now()};
  }
  [[nodiscard]] detail::SleepAwaiter sleep_until(SimTime wake_time) {
    return {task_, wake_time, now()};
  }

  /// Blocking receive; resolves as soon as a message is available.
  [[nodiscard]] detail::ReceiveAwaiter receive(Mailbox& mailbox) {
    return {kernel_, task_, &mailbox, -1, std::nullopt};
  }
  /// Receive with timeout; resumes with nullopt when the timeout elapses.
  [[nodiscard]] detail::ReceiveAwaiter receive_timed(Mailbox& mailbox,
                                                     SimDuration timeout) {
    return {kernel_, task_, &mailbox, timeout < 0 ? 0 : timeout, std::nullopt};
  }

  /// Re-aligns the periodic release baseline after a long soft-suspension so
  /// the next wait_next_period() blocks to a genuinely future release instead
  /// of replaying every missed one as an overrun. Returns the number of
  /// releases skipped (also added to the skipped_releases statistic).
  std::uint64_t skip_missed_periods() {
    if (task_->params.type != TaskType::kPeriodic) return 0;
    std::uint64_t skipped = 0;
    while (task_->ideal_release + task_->params.period <= now()) {
      task_->ideal_release += task_->params.period;
      ++skipped;
    }
    task_->stats.skipped_releases += skipped;
    return skipped;
  }

  /// Blocking P operation; returns true once acquired.
  [[nodiscard]] detail::SemWaitAwaiter sem_wait(Semaphore& semaphore) {
    return {kernel_, task_, &semaphore, -1};
  }
  /// P with timeout; returns false when the timeout elapsed first.
  [[nodiscard]] detail::SemWaitAwaiter sem_wait_timed(Semaphore& semaphore,
                                                      SimDuration timeout) {
    return {kernel_, task_, &semaphore, timeout < 0 ? 0 : timeout};
  }
  /// V operation (never blocks).
  void sem_signal(Semaphore& semaphore) {
    kernel_->semaphore_signal(semaphore);
  }

  /// Asynchronous send (§3.2: RT code must never block on the management
  /// channel).
  bool send(Mailbox& mailbox, Message message) {
    return kernel_->mailbox_send(mailbox, std::move(message));
  }
  /// Non-blocking poll (the "read command at end of job" pattern).
  std::optional<Message> try_receive(Mailbox& mailbox) {
    return kernel_->mailbox_try_receive(mailbox);
  }

  [[nodiscard]] Shm* shm(std::string_view name) {
    return kernel_->shm_find(name);
  }
  [[nodiscard]] Mailbox* mailbox(std::string_view name) {
    return kernel_->mailbox_find(name);
  }

 private:
  RtKernel* kernel_;
  Task* task_;
};

}  // namespace drt::rtos
