// Scheduler protocol
// ------------------
// The kernel is event-driven; no coroutine ever runs except under serve().
//
//  * make_ready(t) inserts t into its CPU's ready vector. It never dispatches
//    directly — settle() does, so that readying from inside a coroutine
//    (mailbox handoff) cannot preempt the very coroutine being served.
//  * settle() repeatedly dispatches: an idle CPU takes its best ready task; a
//    busy CPU is preempted when a strictly higher-priority task is ready
//    (equal priority never preempts — round-robin handles fairness via
//    quantum expiry). settle() is a no-op while a coroutine is being served;
//    serve() re-runs it on exit.
//  * dispatch(t) charges the context-switch cost as demand and schedules a
//    cpu event at min(remaining demand, RR quantum). When the event fires
//    with demand exhausted the coroutine resumes (serve); otherwise the
//    quantum expired and the task rotates to the back of its priority class.
//  * serve(t) resumes the coroutine and interprets the awaiter handshake
//    (PendingOp): new demand, block on period/sleep/mailbox, or finish.
//  * Periodic releases are two-stage to match the dual-kernel wake path:
//    arm_release schedules the timer interrupt at ideal + timer_error; when
//    it fires, the wake cost (dependent on the CPU's idleness at that very
//    moment) delays the actual make_ready.
#include "rtos/kernel.hpp"

#include <algorithm>
#include <cassert>

#include "util/logging.hpp"

namespace drt::rtos {

// ------------------------------------------------------------ ReadyQueue --

namespace {

// Sort key within one priority level. EDF tasks carry their absolute
// deadline; fixed-priority tasks carry the +inf sentinel, so the whole EDF
// band sorts ahead of the FP band and the FP band itself is ordered purely
// by ready_seq (back arrivals positive-increasing, preempted re-entries
// negative-decreasing) — exactly the historical FIFO/front contract.
struct ReadyKey {
  SimTime deadline;
  std::int64_t seq;

  [[nodiscard]] friend bool operator<(ReadyKey a, ReadyKey b) {
    return a.deadline != b.deadline ? a.deadline < b.deadline : a.seq < b.seq;
  }
};

[[nodiscard]] ReadyKey ready_key(const Task& task) {
  return {task.params.sched == SchedClass::kDeadline ? task.abs_deadline
                                                     : kSimTimeNever,
          task.ready_seq};
}

}  // namespace

void ReadyQueue::insert_sorted(Task& task) {
  const auto prio = static_cast<std::size_t>(task.params.priority);
  task.ready_bucket = task.params.priority;
  const ReadyKey key = ready_key(task);
  if (tails_[prio] == nullptr || !(key < ready_key(*tails_[prio]))) {
    // O(1) fast path: every FIFO arrival lands here (its seq is the level's
    // maximum), as does an EDF release whose deadline is latest so far.
    task.ready_next = nullptr;
    task.ready_prev = tails_[prio];
    if (tails_[prio] != nullptr) {
      tails_[prio]->ready_next = &task;
    } else {
      heads_[prio] = &task;
      bitmap_[prio / 64] |= std::uint64_t{1} << (prio % 64);
    }
    tails_[prio] = &task;
  } else {
    Task* node = heads_[prio];
    while (!(key < ready_key(*node))) node = node->ready_next;
    task.ready_next = node;
    task.ready_prev = node->ready_prev;
    if (node->ready_prev != nullptr) {
      node->ready_prev->ready_next = &task;
    } else {
      heads_[prio] = &task;
    }
    node->ready_prev = &task;
  }
  ++count_;
}

void ReadyQueue::push_back(Task& task) { insert_sorted(task); }

void ReadyQueue::push_front(Task& task) { insert_sorted(task); }

void ReadyQueue::remove(Task& task) {
  if (task.ready_bucket < 0) return;  // not enqueued: harmless no-op
  const auto prio = static_cast<std::size_t>(task.ready_bucket);
  if (task.ready_prev != nullptr) {
    task.ready_prev->ready_next = task.ready_next;
  } else {
    heads_[prio] = task.ready_next;
  }
  if (task.ready_next != nullptr) {
    task.ready_next->ready_prev = task.ready_prev;
  } else {
    tails_[prio] = task.ready_prev;
  }
  if (heads_[prio] == nullptr) {
    bitmap_[prio / 64] &= ~(std::uint64_t{1} << (prio % 64));
  }
  task.ready_next = nullptr;
  task.ready_prev = nullptr;
  task.ready_bucket = -1;
  --count_;
}

Task* ReadyQueue::front() const {
  for (std::size_t word = 0; word < bitmap_.size(); ++word) {
    if (bitmap_[word] != 0) {
      const std::size_t prio =
          word * 64 + static_cast<std::size_t>(std::countr_zero(bitmap_[word]));
      return heads_[prio];
    }
  }
  return nullptr;
}

RtKernel::RtKernel(SimEngine& engine, KernelConfig config)
    : engine_(&engine), config_(config), rng_(config.seed),
      latency_model_(config.latency),
      load_(engine, config.cpus, config.load, Rng(config.seed ^ 0x10adull)),
      cpus_(config.cpus) {
  load_.start();

  m_.dispatches = metrics_.counter("rtos.dispatches",
                                   "tasks switched onto a CPU");
  m_.preemptions = metrics_.counter(
      "rtos.preemptions", "running tasks displaced by a higher priority");
  m_.slice_rotations = metrics_.counter("rtos.slice_rotations",
                                        "round-robin quantum expiries");
  m_.releases = metrics_.counter("rtos.releases",
                                 "periodic releases delivered");
  m_.completions = metrics_.counter("rtos.completions",
                                    "jobs that reached wait_next_period");
  m_.deadline_misses = metrics_.counter("rtos.deadline_misses",
                                        "jobs completed after their deadline");
  // Release latency (actual - ideal) is routinely NEGATIVE: RTAI's periodic
  // timer mode fires early (the paper's Table 1 shows negative averages),
  // so the bucket layout is symmetric around zero.
  m_.release_latency = metrics_.histogram(
      "rtos.release_latency_ns", "release-to-run latency, simulated ns",
      {-100000, -50000, -20000, -10000, -5000, -2000, -1000, 0, 1000, 2000,
       5000, 10000, 20000, 50000, 100000, 200000, 500000});
  m_.mbx_sent = metrics_.counter("ipc.mailbox_sent",
                                 "messages accepted across all mailboxes");
  m_.mbx_dropped = metrics_.counter("ipc.mailbox_dropped",
                                    "messages rejected by a full mailbox");
  m_.mbx_handoff = metrics_.counter(
      "ipc.mailbox_handoff", "sends satisfied by direct receiver handoff");
  m_.mbx_received = metrics_.counter("ipc.mailbox_received",
                                     "messages consumed by receivers");
  m_.mbx_fault_dropped = metrics_.counter(
      "ipc.mailbox_fault_dropped", "messages lost to injected drop faults");
  m_.mbx_fault_duplicated = metrics_.counter(
      "ipc.mailbox_fault_duplicated",
      "extra deliveries from injected duplicate faults");
  m_.remote_sent = metrics_.counter(
      "rtos.remote_sent", "messages posted to a peer CPU-group shard");
  // Cross-shard messages addressed to this kernel's shard are delivered
  // through the sink on this shard's own execution context.
  engine_->set_message_sink({&RtKernel::sink_deliver, this});
  // Pool occupancy is computed (not counted): the lambdas run only when a
  // snapshot is taken, never on the send/receive path. The pool is process
  // global, so these gauges describe the process, not just this kernel.
  metrics_.gauge_callback("ipc.pool.live_slabs",
                          "pooled slabs currently owned by messages", [] {
                            return static_cast<double>(
                                MessagePool::instance().stats().live_slabs);
                          });
  metrics_.gauge_callback("ipc.pool.free_slabs",
                          "pooled slabs cached for reuse", [] {
                            return static_cast<double>(
                                MessagePool::instance().stats().free_slabs);
                          });
  metrics_.gauge_callback("ipc.pool.free_bytes",
                          "payload bytes held in the pool cache", [] {
                            return static_cast<double>(
                                MessagePool::instance().stats().free_bytes);
                          });
}

RtKernel::~RtKernel() {
  for (auto& task : tasks_) {
    if (task->handle) {
      task->handle.destroy();
      task->handle = nullptr;
    }
  }
}

// ----------------------------------------------------------------- tasks --

Result<TaskId> RtKernel::create_task(TaskParams params, TaskBody body) {
  if (params.name.empty()) {
    return make_error(ErrorCode::kInvalidArgument, "rtos.bad_task",
                      "task name must not be empty");
  }
  if (find_task(params.name) != nullptr) {
    return make_error(ErrorCode::kAlreadyExists, "rtos.duplicate_task",
                      "task name '" + params.name + "' already exists");
  }
  if (params.cpu >= cpus_.size()) {
    return make_error(ErrorCode::kInvalidArgument, "rtos.bad_task",
                      "cpu " + std::to_string(params.cpu) + " out of range (" +
                          std::to_string(cpus_.size()) + " cpus)");
  }
  if (params.priority < 0 || params.priority > kMaxPriority) {
    return make_error(ErrorCode::kInvalidArgument, "rtos.bad_task",
                      "task '" + params.name + "' priority " +
                          std::to_string(params.priority) +
                          " out of range [0, " +
                          std::to_string(kMaxPriority) + "]");
  }
  if (params.type == TaskType::kPeriodic && params.period <= 0) {
    return make_error(ErrorCode::kInvalidArgument, "rtos.bad_task",
                      "periodic task '" + params.name +
                          "' needs a positive period");
  }
  if (params.sched == SchedClass::kDeadline &&
      params.type != TaskType::kPeriodic) {
    return make_error(ErrorCode::kInvalidArgument, "rtos.bad_task",
                      "deadline-class task '" + params.name +
                          "' must be periodic (the absolute deadline is "
                          "derived from the release point)");
  }
  if (!body) {
    return make_error(ErrorCode::kInvalidArgument, "rtos.bad_task",
                      "task body must not be null");
  }
  auto task = std::make_unique<Task>();
  task->id = next_task_id_++;
  task->params = std::move(params);
  task->context = std::make_unique<TaskContext>(*this, *task);
  // Invoke the closure *after* pinning it in the TCB: the coroutine frame
  // references the closure's captures for its whole lifetime. The factory
  // may run user initialisation code; exceptions become Results here (the
  // API boundary), not crashes.
  task->body = std::move(body);
  TaskCoro coro;
  try {
    coro = task->body(*task->context);
  } catch (const std::exception& e) {
    return make_error(ErrorCode::kFactoryFailed, "rtos.body_factory_failed",
                      "task '" + task->params.name +
                          "' body factory threw: " + e.what());
  }
  task->handle = coro.release();
  if (!task->handle) {
    return make_error(ErrorCode::kInvalidArgument, "rtos.bad_task",
                      "task body produced no coroutine");
  }
  task->resume_handle = task->handle;
  trace_.add(now(), TraceKind::kTaskCreated, task->id, task->params.cpu,
             task->params.name);
  log::Line(log::Level::kDebug, "rtos", now())
      << "created task #" << task->id << " '" << task->params.name << "' "
      << to_string(task->params.type) << " prio=" << task->params.priority;
  const TaskId id = task->id;
  if (id >= tasks_by_id_.size()) tasks_by_id_.resize(id + 1, nullptr);
  tasks_by_id_[id] = task.get();
  tasks_by_name_.insert_or_assign(task->params.name, id);
  tasks_.push_back(std::move(task));
  return id;
}

Result<void> RtKernel::start_task(TaskId id, SimTime start_at) {
  Task* task = find_task(id);
  if (task == nullptr) {
    return make_error(ErrorCode::kNotFound, "rtos.no_such_task",
                      "task " + std::to_string(id));
  }
  if (task->state != TaskState::kCreated) {
    return make_error(ErrorCode::kInvalidState, "rtos.invalid_state",
                      "task '" + task->params.name + "' already started");
  }
  trace_.add(now(), TraceKind::kTaskStarted, task->id, task->params.cpu);
  if (task->params.type == TaskType::kPeriodic) {
    const SimTime first_ideal =
        start_at < 0 ? now() + task->params.period : start_at;
    task->state = TaskState::kWaitingPeriod;
    arm_release(*task, first_ideal);
  } else {
    const SimTime when = start_at < 0 ? now() : start_at;
    if (when <= now()) {
      ++task->stats.activations;
      make_ready(*task, /*fresh_quantum=*/true);
    } else {
      task->state = TaskState::kSleeping;
      task->pending_wake_time = when;
      const TaskId task_id = task->id;
      task->release_event = engine_->schedule_at(when, [this, task_id] {
        Task* t = find_task(task_id);
        if (t == nullptr || t->state != TaskState::kSleeping) return;
        ++t->stats.activations;
        make_ready(*t, true);
        settle();
      });
    }
  }
  settle();
  return Result<void>::success();
}

Result<void> RtKernel::suspend_task(TaskId id) {
  Task* task = find_task(id);
  if (task == nullptr) {
    return make_error(ErrorCode::kNotFound, "rtos.no_such_task",
                      "task " + std::to_string(id));
  }
  if (task->state == TaskState::kSuspended) return Result<void>::success();
  if (task->state == TaskState::kCreated ||
      task->state == TaskState::kFinished) {
    return make_error(ErrorCode::kInvalidState, "rtos.invalid_state",
                      "cannot suspend task in state " +
                          std::string(to_string(task->state)));
  }
  Cpu& cpu = cpus_[task->params.cpu];
  switch (task->state) {
    case TaskState::kRunning:
      charge(cpu, *task);
      engine_->cancel(task->completion_event);
      task->completion_event = 0;
      cpu.running = nullptr;
      task->pre_suspend_state = TaskState::kReady;
      break;
    case TaskState::kReady:
      remove_from_ready(cpu, *task);
      task->pre_suspend_state = TaskState::kReady;
      break;
    case TaskState::kWaitingPeriod:
      engine_->cancel(task->release_event);
      task->release_event = 0;
      task->resume_needs_release = true;
      task->pre_suspend_state = TaskState::kWaitingPeriod;
      break;
    case TaskState::kSleeping:
      engine_->cancel(task->release_event);
      task->release_event = 0;
      task->pre_suspend_state = TaskState::kSleeping;
      break;
    case TaskState::kWaitingMailbox:
      if (task->pending_mailbox != nullptr) {
        task->pending_mailbox->waiting_.remove(*task);
      }
      engine_->cancel(task->timeout_event);
      task->timeout_event = 0;
      task->pre_suspend_state = TaskState::kWaitingMailbox;
      break;
    case TaskState::kWaitingSemaphore:
      if (task->pending_semaphore != nullptr) {
        task->pending_semaphore->waiting_.remove(*task);
      }
      engine_->cancel(task->timeout_event);
      task->timeout_event = 0;
      task->pre_suspend_state = TaskState::kWaitingSemaphore;
      break;
    default:
      break;
  }
  task->state = TaskState::kSuspended;
  trace_.add(now(), TraceKind::kSuspendedK, task->id, task->params.cpu);
  settle();
  return Result<void>::success();
}

Result<void> RtKernel::resume_task(TaskId id) {
  Task* task = find_task(id);
  if (task == nullptr) {
    return make_error(ErrorCode::kNotFound, "rtos.no_such_task",
                      "task " + std::to_string(id));
  }
  if (task->state != TaskState::kSuspended) {
    return make_error(ErrorCode::kInvalidState, "rtos.invalid_state",
                      "task '" + task->params.name + "' is not suspended");
  }
  trace_.add(now(), TraceKind::kResumed, task->id, task->params.cpu);
  switch (task->pre_suspend_state) {
    case TaskState::kReady:
      make_ready(*task, /*fresh_quantum=*/false);
      break;
    case TaskState::kWaitingPeriod: {
      // Skip every release that fell inside the suspension window; re-arm at
      // the next future multiple of the period.
      SimTime next = task->ideal_release;
      while (next <= now()) {
        next += task->params.period;
        if (next <= now()) ++task->stats.skipped_releases;
      }
      task->state = TaskState::kWaitingPeriod;
      task->resume_needs_release = false;
      arm_release(*task, next);
      break;
    }
    case TaskState::kSleeping:
      if (task->pending_wake_time <= now()) {
        make_ready(*task, true);
      } else {
        task->state = TaskState::kSleeping;
        const TaskId task_id = task->id;
        task->release_event =
            engine_->schedule_at(task->pending_wake_time, [this, task_id] {
              Task* t = find_task(task_id);
              if (t == nullptr || t->state != TaskState::kSleeping) return;
              make_ready(*t, true);
              settle();
            });
      }
      break;
    case TaskState::kWaitingSemaphore: {
      Semaphore* semaphore = task->pending_semaphore;
      if (semaphore != nullptr) {
        if (semaphore_try_wait(*semaphore)) {
          task->semaphore_acquired = true;
          make_ready(*task, true);
        } else {
          task->state = TaskState::kWaitingSemaphore;
          semaphore->waiting_.push_back(*task);
          // Note: a pending timeout is re-armed at its full duration; the
          // suspension window does not count against it.
          if (task->pending_timeout >= 0) {
            const TaskId task_id = task->id;
            task->timeout_event = engine_->schedule_after(
                task->pending_timeout, [this, task_id] {
                  Task* t = find_task(task_id);
                  if (t == nullptr ||
                      t->state != TaskState::kWaitingSemaphore) {
                    return;
                  }
                  t->timeout_event = 0;
                  if (t->pending_semaphore != nullptr) {
                    t->pending_semaphore->waiting_.remove(*t);
                  }
                  t->semaphore_acquired = false;
                  make_ready(*t, true);
                  settle();
                });
          }
        }
      }
      break;
    }
    case TaskState::kWaitingMailbox: {
      Mailbox* mailbox = task->pending_mailbox;
      if (mailbox != nullptr) {
        if (auto message = mailbox->pop()) {
          m_.mbx_received->add();
          task->mailbox_result = std::move(message);
          make_ready(*task, true);
        } else {
          task->state = TaskState::kWaitingMailbox;
          mailbox->waiting_.push_back(*task);
          if (task->pending_timeout >= 0) {
            const TaskId task_id = task->id;
            task->timeout_event = engine_->schedule_after(
                task->pending_timeout, [this, task_id] {
                  Task* t = find_task(task_id);
                  if (t == nullptr || t->state != TaskState::kWaitingMailbox) {
                    return;
                  }
                  if (t->pending_mailbox != nullptr) {
                    t->pending_mailbox->waiting_.remove(*t);
                  }
                  t->mailbox_result.reset();
                  make_ready(*t, true);
                  settle();
                });
          }
        }
      }
      break;
    }
    default:
      make_ready(*task, true);
      break;
  }
  settle();
  return Result<void>::success();
}

Result<void> RtKernel::request_stop(TaskId id) {
  Task* task = find_task(id);
  if (task == nullptr) {
    return make_error(ErrorCode::kNotFound, "rtos.no_such_task",
                      "task " + std::to_string(id));
  }
  task->stop_requested = true;
  return Result<void>::success();
}

Result<void> RtKernel::delete_task(TaskId id) {
  Task* task = find_task(id);
  if (task == nullptr) {
    return make_error(ErrorCode::kNotFound, "rtos.no_such_task",
                      "task " + std::to_string(id));
  }
  if (serving_depth_ > 0 && cpus_[task->params.cpu].running == task) {
    return make_error(ErrorCode::kInvalidState, "rtos.invalid_state",
                      "a task cannot delete itself from its own body");
  }
  Cpu& cpu = cpus_[task->params.cpu];
  if (task->state == TaskState::kRunning) {
    charge(cpu, *task);
    cpu.running = nullptr;
  } else if (task->state == TaskState::kReady) {
    remove_from_ready(cpu, *task);
  } else if (task->state == TaskState::kWaitingMailbox &&
             task->pending_mailbox != nullptr) {
    task->pending_mailbox->waiting_.remove(*task);
  } else if (task->state == TaskState::kWaitingSemaphore &&
             task->pending_semaphore != nullptr) {
    task->pending_semaphore->waiting_.remove(*task);
  }
  cancel_task_events(*task);
  if (task->handle) {
    task->handle.destroy();
    task->handle = nullptr;
  }
  task->body = nullptr;
  task->state = TaskState::kFinished;
  release_task_name(*task);
  trace_.add(now(), TraceKind::kDeleted, task->id, task->params.cpu);
  log::Line(log::Level::kDebug, "rtos", now())
      << "deleted task #" << task->id << " '" << task->params.name << "'";
  settle();
  return Result<void>::success();
}

Task* RtKernel::find_task(TaskId id) {
  return id < tasks_by_id_.size() ? tasks_by_id_[id] : nullptr;
}

const Task* RtKernel::find_task(TaskId id) const {
  return const_cast<RtKernel*>(this)->find_task(id);
}

Task* RtKernel::find_task(std::string_view name) {
  const auto found = tasks_by_name_.find(name);
  return found == tasks_by_name_.end() ? nullptr : find_task(found->second);
}

const Task* RtKernel::find_task(std::string_view name) const {
  return const_cast<RtKernel*>(this)->find_task(name);
}

const Task* RtKernel::running_task(CpuId cpu) const {
  return cpu < cpus_.size() ? cpus_[cpu].running : nullptr;
}

const Task* RtKernel::next_ready(CpuId cpu) const {
  return cpu < cpus_.size() ? cpus_[cpu].ready.front() : nullptr;
}

std::size_t RtKernel::ready_count(CpuId cpu) const {
  return cpu < cpus_.size() ? cpus_[cpu].ready.size() : 0;
}

void RtKernel::release_task_name(const Task& task) {
  const auto found = tasks_by_name_.find(task.params.name);
  if (found != tasks_by_name_.end() && found->second == task.id) {
    tasks_by_name_.erase(found);
  }
}

std::vector<const Task*> RtKernel::tasks() const {
  std::vector<const Task*> out;
  out.reserve(tasks_.size());
  for (const auto& task : tasks_) out.push_back(task.get());
  return out;
}

SimDuration RtKernel::cpu_busy_time(CpuId cpu) const {
  return cpu < cpus_.size() ? cpus_[cpu].busy_time : 0;
}

Result<void> RtKernel::set_exec_histogram(TaskId id, obs::Histogram* hist) {
  Task* task = find_task(id);
  if (task == nullptr) {
    return make_error(ErrorCode::kNotFound, "rtos.no_such_task",
                      "task " + std::to_string(id) + " does not exist");
  }
  task->exec_hist = hist;
  // The next sample covers only demand served from this point on, so a
  // mid-life attachment does not fold past jobs into the first observation.
  task->job_cpu_start = task->stats.cpu_time;
  return Result<void>::success();
}

// ------------------------------------------------------------------- IPC --

Result<Shm*> RtKernel::shm_create(std::string name, std::size_t size_bytes) {
  if (shms_.contains(name)) {
    return make_error(ErrorCode::kAlreadyExists, "rtos.duplicate_shm",
                      "shm '" + name + "' exists");
  }
  if (size_bytes == 0) {
    return make_error(ErrorCode::kInvalidArgument, "rtos.bad_shm",
                      "shm '" + name + "' has zero size");
  }
  if (size_bytes > kMaxShmBytes) {
    return make_error(ErrorCode::kLimitExceeded, "rtos.bad_shm",
                      "shm '" + name + "' size " + std::to_string(size_bytes) +
                          " exceeds the " + std::to_string(kMaxShmBytes) +
                          "-byte limit");
  }
  auto shm = std::make_unique<Shm>(name, size_bytes);
  Shm* raw = shm.get();
  shms_.emplace(std::move(name), std::move(shm));
  return raw;
}

Shm* RtKernel::shm_find(std::string_view name) {
  const auto found = shms_.find(name);
  return found == shms_.end() ? nullptr : found->second.get();
}

Result<void> RtKernel::shm_delete(std::string_view name) {
  const auto found = shms_.find(name);
  if (found == shms_.end()) {
    return make_error(ErrorCode::kNotFound, "rtos.no_such_shm",
                      std::string(name));
  }
  shms_.erase(found);
  return Result<void>::success();
}

Result<Mailbox*> RtKernel::mailbox_create(std::string name,
                                          std::size_t capacity) {
  if (mailboxes_.contains(name)) {
    return make_error(ErrorCode::kAlreadyExists, "rtos.duplicate_mailbox",
                      "mailbox '" + name + "' exists");
  }
  if (capacity > kMaxMailboxCapacity) {
    return make_error(ErrorCode::kLimitExceeded, "rtos.bad_mailbox",
                      "mailbox '" + name + "' capacity " +
                          std::to_string(capacity) + " exceeds the " +
                          std::to_string(kMaxMailboxCapacity) + "-slot limit");
  }
  // Capacity 0 is legal: a rendezvous-only mailbox whose sends succeed only
  // by direct handoff to an already-waiting receiver.
  auto mailbox = std::make_unique<Mailbox>(name, capacity);
  Mailbox* raw = mailbox.get();
  mailboxes_.emplace(std::move(name), std::move(mailbox));
  return raw;
}

Mailbox* RtKernel::mailbox_find(std::string_view name) {
  const auto found = mailboxes_.find(name);
  return found == mailboxes_.end() ? nullptr : found->second.get();
}

const Mailbox* RtKernel::mailbox_find(std::string_view name) const {
  return const_cast<RtKernel*>(this)->mailbox_find(name);
}

const Shm* RtKernel::shm_find(std::string_view name) const {
  return const_cast<RtKernel*>(this)->shm_find(name);
}

std::vector<const Mailbox*> RtKernel::mailboxes() const {
  std::vector<const Mailbox*> out;
  out.reserve(mailboxes_.size());
  for (const auto& [name, mailbox] : mailboxes_) out.push_back(mailbox.get());
  return out;
}

Result<void> RtKernel::mailbox_delete(std::string_view name) {
  const auto found = mailboxes_.find(name);
  if (found == mailboxes_.end()) {
    return make_error(ErrorCode::kNotFound, "rtos.no_such_mailbox",
                      std::string(name));
  }
  // Waiting receivers resume with "no message" so they can re-evaluate.
  Mailbox& mailbox = *found->second;
  while (Task* task = mailbox.waiting_.pop_front()) {
    engine_->cancel(task->timeout_event);
    task->timeout_event = 0;
    task->mailbox_result.reset();
    task->pending_mailbox = nullptr;
    make_ready(*task, true);
  }
  // Keep the deleted mailbox's counters so registry aggregates stay
  // reconcilable against live mailboxes + this remainder.
  retired_mbx_.sent += mailbox.sent_count();
  retired_mbx_.dropped += mailbox.dropped_count();
  retired_mbx_.handoff += mailbox.handoff_count();
  retired_mbx_.received += mailbox.received_count();
  retired_mbx_.fault_dropped += mailbox.fault_dropped_count();
  retired_mbx_.fault_duplicated += mailbox.fault_duplicated_count();
  mailboxes_.erase(found);
  settle();
  return Result<void>::success();
}

bool RtKernel::deliver_message(Mailbox& mailbox, Message message) {
  // Direct handoff: the buffer moves straight into a waiting receiver's
  // result slot — the queue (and any copy or allocation) is bypassed
  // entirely. This is the common rendezvous case of a parked consumer.
  while (Task* receiver = mailbox.waiting_.pop_front()) {
    if (receiver->state != TaskState::kWaitingMailbox) continue;  // stale
    engine_->cancel(receiver->timeout_event);
    receiver->timeout_event = 0;
    receiver->mailbox_result = std::move(message);
    ++mailbox.sent_;
    ++mailbox.handoff_;
    ++mailbox.received_;
    m_.mbx_sent->add();
    m_.mbx_handoff->add();
    m_.mbx_received->add();
    make_ready(*receiver, true);
    settle();
    return true;
  }
  // Mirror the per-mailbox accounting done inside push() on the aggregate
  // counters, so `sum over mailboxes == registry` holds at every instant.
  const bool accepted = mailbox.push(std::move(message));
  (accepted ? m_.mbx_sent : m_.mbx_dropped)->add();
  return accepted;
}

bool RtKernel::mailbox_send(Mailbox& mailbox, Message message) {
  SendFaultAction action = SendFaultAction::kDeliver;
  if (fault_plan_ != nullptr) {
    action = fault_plan_->on_mailbox_send(mailbox.name(), now());
  }
  if (action == SendFaultAction::kDrop) {
    // The channel "lost" the message: it reaches neither queue nor receiver,
    // but the sender still sees success (asynchronous send semantics). The
    // drop is accounted exactly once — as a fault drop, never as a send — on
    // the per-mailbox counter and the registry alike.
    ++mailbox.fault_dropped_;
    m_.mbx_fault_dropped->add();
    return true;
  }
  if (action == SendFaultAction::kDuplicate) {
    // The extra delivery goes through deliver_message like any real send, so
    // it bumps sent/handoff/received (or dropped) once there; only the
    // duplication itself is recorded here.
    ++mailbox.fault_duplicated_;
    m_.mbx_fault_duplicated->add();
    trace_.add(now(), TraceKind::kMailboxSend, 0, 0, mailbox.name());
    deliver_message(mailbox, Message(message));
  }
  trace_.add(now(), TraceKind::kMailboxSend, 0, 0, mailbox.name());
  const bool accepted = deliver_message(mailbox, std::move(message));
  if (action == SendFaultAction::kMiscount && accepted) {
    // Deliberately planted accounting bug (FaultKind::kMiscountMessage): the
    // message was delivered but the counter says otherwise. Armed only by
    // the fuzzer's self-test to prove the invariant oracle catches it. The
    // registry aggregate is intentionally NOT decremented — the oracle's
    // registry-vs-mailbox cross-check is a second way to catch this bug.
    --mailbox.sent_;
  }
  return accepted;
}

std::optional<Message> RtKernel::mailbox_try_receive(Mailbox& mailbox) {
  auto message = mailbox.pop();
  if (message.has_value()) {
    m_.mbx_received->add();
    trace_.add(now(), TraceKind::kMailboxRecv, 0, 0, mailbox.name());
  }
  return message;
}

void RtKernel::sink_deliver(void* ctx, void* target, Message message) {
  auto* kernel = static_cast<RtKernel*>(ctx);
  auto* remote = static_cast<RemoteTarget*>(target);
  remote->deliver(*kernel, remote->owner, std::move(message));
}

void Mailbox::remote_deliver(RtKernel& kernel, void* owner, Message message) {
  kernel.mailbox_send(*static_cast<Mailbox*>(owner), std::move(message));
}

bool RtKernel::remote_send(ShardId target_shard, Mailbox& target_mailbox,
                           Message message) {
  return remote_post(target_shard, target_mailbox.remote_target(),
                     std::move(message)) != kSimTimeNever;
}

SimTime RtKernel::remote_post(ShardId target_shard, RemoteTarget& target,
                              Message message, SimTime not_before) {
  if (target_shard >= engine_->shards()) return kSimTimeNever;
  // The sampled latency is >= the engine's lookahead floor by construction
  // (LatencyModel::sample_cross_group_latency), so the conservative window
  // never needs to clamp a kernel-originated send. Send accounting is
  // sender-side; delivery accounting happens on the receiving shard through
  // the RemoteTarget (a kernel mailbox_send, or a channel endpoint).
  const SimDuration latency = latency_model_.sample_cross_group_latency(rng_);
  SimTime when = now() + latency;
  if (when < not_before) when = not_before;
  engine_->post_message(target_shard, when, &target, std::move(message));
  m_.remote_sent->add();
  return when;
}

Result<Semaphore*> RtKernel::semaphore_create(std::string name, int initial) {
  if (semaphores_.contains(name)) {
    return make_error(ErrorCode::kAlreadyExists, "rtos.duplicate_semaphore",
                      "semaphore '" + name + "' exists");
  }
  if (initial < 0) {
    return make_error(ErrorCode::kInvalidArgument, "rtos.bad_semaphore",
                      "semaphore '" + name + "' needs a non-negative count");
  }
  auto semaphore = std::make_unique<Semaphore>(name, initial);
  Semaphore* raw = semaphore.get();
  semaphores_.emplace(std::move(name), std::move(semaphore));
  return raw;
}

Semaphore* RtKernel::semaphore_find(std::string_view name) {
  const auto found = semaphores_.find(name);
  return found == semaphores_.end() ? nullptr : found->second.get();
}

Result<void> RtKernel::semaphore_delete(std::string_view name) {
  const auto found = semaphores_.find(name);
  if (found == semaphores_.end()) {
    return make_error(ErrorCode::kNotFound, "rtos.no_such_semaphore",
                      std::string(name));
  }
  Semaphore& semaphore = *found->second;
  while (Task* task = semaphore.waiting_.pop_front()) {
    if (task->state != TaskState::kWaitingSemaphore) continue;
    engine_->cancel(task->timeout_event);
    task->timeout_event = 0;
    task->semaphore_acquired = false;
    task->pending_semaphore = nullptr;
    make_ready(*task, true);
  }
  semaphores_.erase(found);
  settle();
  return Result<void>::success();
}

void RtKernel::semaphore_signal(Semaphore& semaphore) {
  while (Task* waiter = semaphore.waiting_.pop_front()) {
    if (waiter->state != TaskState::kWaitingSemaphore) continue;  // stale
    engine_->cancel(waiter->timeout_event);
    waiter->timeout_event = 0;
    waiter->semaphore_acquired = true;
    make_ready(*waiter, true);
    settle();
    return;
  }
  ++semaphore.count_;
}

bool RtKernel::semaphore_try_wait(Semaphore& semaphore) {
  if (semaphore.count_ > 0) {
    --semaphore.count_;
    return true;
  }
  return false;
}

// -------------------------------------------------------------- schedule --

SimDuration RtKernel::quantum_for(const Task& task) const {
  return task.params.rr_quantum > 0 ? task.params.rr_quantum
                                    : config_.default_rr_quantum;
}

void RtKernel::make_ready(Task& task, bool fresh_quantum) {
  Cpu& cpu = cpus_[task.params.cpu];
  task.state = TaskState::kReady;
  task.ready_seq = ++cpu.back_seq;
  if (fresh_quantum || task.quantum_left <= 0) {
    task.quantum_left = quantum_for(task);
  }
  cpu.ready.push_back(task);
}

void RtKernel::remove_from_ready(Cpu& cpu, Task& task) {
  cpu.ready.remove(task);
}

void RtKernel::charge(Cpu& cpu, Task& task) {
  const SimDuration served = now() - task.last_dispatch;
  task.remaining_demand = std::max<SimDuration>(0, task.remaining_demand - served);
  task.quantum_left = std::max<SimDuration>(0, task.quantum_left - served);
  task.stats.cpu_time += served;
  cpu.busy_time += served;
  cpu.rt_active_until = now();
  // Mark this interval as accounted: a job with several consume() segments
  // inside one dispatch is charged per segment, not cumulatively.
  task.last_dispatch = now();
}

void RtKernel::dispatch(Cpu& cpu, Task& task) {
  remove_from_ready(cpu, task);
  cpu.running = &task;
  task.state = TaskState::kRunning;
  task.last_dispatch = now();
  ++task.stats.dispatches;
  m_.dispatches->add();
  // Context-switch cost is charged as demand: the coroutine resumes only
  // after the switch path has been "executed".
  task.remaining_demand += config_.context_switch_ns;
  trace_.add(now(), TraceKind::kDispatched, task.id, task.params.cpu);
  schedule_completion(cpu, task);
}

void RtKernel::preempt(Cpu& cpu) {
  Task* task = cpu.running;
  // Defensive guard (was a bare assert): settle() only preempts busy CPUs,
  // but a future caller getting this wrong must not be undefined behaviour.
  if (task == nullptr) return;
  engine_->cancel(task->completion_event);
  task->completion_event = 0;
  charge(cpu, *task);
  cpu.running = nullptr;
  // The preempted task re-enters at the FRONT of its priority class with its
  // remaining quantum: preemption must not cost it its round-robin turn.
  task->state = TaskState::kReady;
  task->ready_seq = --cpu.front_seq;
  cpu.ready.push_front(*task);
  ++task->stats.preemptions;
  m_.preemptions->add();
  trace_.add(now(), TraceKind::kPreempted, task->id, task->params.cpu);
}

void RtKernel::schedule_completion(Cpu& cpu, Task& task) {
  // Round-robin: slice the demand when another equal-priority task waits.
  // EDF tasks are exempt — the deadline order, not the quantum, decides who
  // runs next, so a deadline job executes to completion or preemption.
  const bool contended = task.params.sched != SchedClass::kDeadline &&
                         cpu.ready.has_priority(task.params.priority);
  SimDuration slice = task.remaining_demand;
  if (contended) {
    if (task.quantum_left <= 0) task.quantum_left = quantum_for(task);
    slice = std::min(slice, task.quantum_left);
  }
  const CpuId cpu_id = task.params.cpu;
  const TaskId task_id = task.id;
  task.completion_event =
      engine_->schedule_after(slice, [this, cpu_id, task_id] {
        Task* t = find_task(task_id);
        if (t == nullptr) return;
        on_cpu_event(cpu_id, *t);
      });
}

void RtKernel::on_cpu_event(CpuId cpu_id, Task& task) {
  Cpu& cpu = cpus_[cpu_id];
  if (cpu.running != &task || task.state != TaskState::kRunning) {
    return;  // stale event (task was suspended/deleted meanwhile)
  }
  task.completion_event = 0;
  charge(cpu, task);
  if (fault_plan_ != nullptr &&
      fault_plan_->should_kill(task.params.name, task.id, now())) {
    // Injected crash: the task dies mid-job, exactly as if its code faulted
    // on real hardware. The CPU is freed and the scheduler moves on.
    task.error = std::make_exception_ptr(
        std::runtime_error("fault injection: task killed mid-job"));
    cpu.running = nullptr;
    finish_task(task);
    settle();
    return;
  }
  if (task.remaining_demand <= 0) {
    task.remaining_demand = 0;
    serve(task);
    return;
  }
  // Quantum expiry: rotate to the back of the equal-priority class.
  m_.slice_rotations->add();
  trace_.add(now(), TraceKind::kSliceRotated, task.id, cpu_id);
  cpu.running = nullptr;
  make_ready(task, /*fresh_quantum=*/true);
  settle();
}

void RtKernel::serve(Task& task) {
  Cpu& cpu = cpus_[task.params.cpu];
  ++serving_depth_;
  bool exited = false;
  while (!exited) {
    // A release latency sample is taken at the moment the task's code
    // actually runs — matching how the RTAI latency test instruments itself.
    if (task.pending_ideal >= 0) {
      const auto latency_ns = static_cast<double>(now() - task.pending_ideal);
      task.latency.add(latency_ns);
      m_.release_latency->observe(latency_ns);
      task.pending_ideal = -1;
    }
    task.pending_op = PendingOp::kNone;
    task.resume_handle.resume();
    if (task.handle.done()) {
      if (task.handle.promise().exception) {
        task.error = task.handle.promise().exception;
      }
      cpu.running = nullptr;
      finish_task(task);
      exited = true;
      break;
    }
    switch (task.pending_op) {
      case PendingOp::kDemand:
        task.remaining_demand = task.pending_amount;
        if (fault_plan_ != nullptr) {
          // Budget-overrun fault: the job "takes longer than declared".
          task.remaining_demand +=
              fault_plan_->demand_inflation(task.params.name, task.id, now());
        }
        schedule_completion(cpu, task);
        exited = true;
        break;
      case PendingOp::kWaitPeriod: {
        ++task.stats.completions;
        m_.completions->add();
        if (task.exec_hist != nullptr) {
          // One job finished: its served CPU time is the watermark delta.
          // Covers both exits below — the blocking path and the overrun
          // `continue`, which starts the next job immediately.
          task.exec_hist->observe(
              static_cast<double>(task.stats.cpu_time - task.job_cpu_start));
          task.job_cpu_start = task.stats.cpu_time;
        }
        trace_.add(now(), TraceKind::kCompleted, task.id, task.params.cpu);
        SimTime next_ideal = task.ideal_release + task.params.period;
        const SimDuration deadline = task.params.deadline > 0
                                         ? task.params.deadline
                                         : task.params.period;
        if (now() > task.ideal_release + deadline) {
          ++task.stats.deadline_misses;
          m_.deadline_misses->add();
          trace_.add(now(), TraceKind::kDeadlineMiss, task.id,
                     task.params.cpu);
        }
        if (next_ideal <= now()) {
          // Overrun: wait_next_period returns immediately (RTAI semantics).
          // All releases that fell entirely in the past collapse into one
          // immediate release — replaying each as a separate job after a
          // long stall would burst-execute stale jobs and distort latency.
          while (next_ideal + task.params.period <= now()) {
            next_ideal += task.params.period;
            ++task.stats.skipped_releases;
          }
          ++task.stats.overruns;
          ++task.stats.activations;
          task.ideal_release = next_ideal;
          task.pending_ideal = next_ideal;
          task.abs_deadline = next_ideal + deadline;
          continue;
        }
        cpu.running = nullptr;
        task.state = TaskState::kWaitingPeriod;
        arm_release(task, next_ideal);
        exited = true;
        break;
      }
      case PendingOp::kSleep: {
        cpu.running = nullptr;
        task.state = TaskState::kSleeping;
        const TaskId task_id = task.id;
        task.release_event =
            engine_->schedule_at(task.pending_wake_time, [this, task_id] {
              Task* t = find_task(task_id);
              if (t == nullptr || t->state != TaskState::kSleeping) return;
              t->release_event = 0;
              make_ready(*t, true);
              settle();
            });
        trace_.add(now(), TraceKind::kBlocked, task.id, task.params.cpu,
                   "sleep");
        exited = true;
        break;
      }
      case PendingOp::kWaitMailbox: {
        cpu.running = nullptr;
        task.state = TaskState::kWaitingMailbox;
        task.pending_mailbox->waiting_.push_back(task);
        if (task.pending_timeout >= 0) {
          const TaskId task_id = task.id;
          task.timeout_event =
              engine_->schedule_after(task.pending_timeout, [this, task_id] {
                Task* t = find_task(task_id);
                if (t == nullptr || t->state != TaskState::kWaitingMailbox) {
                  return;
                }
                t->timeout_event = 0;
                if (t->pending_mailbox != nullptr) {
                  t->pending_mailbox->waiting_.remove(*t);
                }
                t->mailbox_result.reset();
                make_ready(*t, true);
                settle();
              });
        }
        if (trace_.enabled()) {
          trace_.add(now(), TraceKind::kBlocked, task.id, task.params.cpu,
                     "mailbox:" + task.pending_mailbox->name());
        }
        exited = true;
        break;
      }
      case PendingOp::kWaitSemaphore: {
        cpu.running = nullptr;
        task.state = TaskState::kWaitingSemaphore;
        task.pending_semaphore->waiting_.push_back(task);
        if (task.pending_timeout >= 0) {
          const TaskId task_id = task.id;
          task.timeout_event =
              engine_->schedule_after(task.pending_timeout, [this, task_id] {
                Task* t = find_task(task_id);
                if (t == nullptr || t->state != TaskState::kWaitingSemaphore) {
                  return;
                }
                t->timeout_event = 0;
                if (t->pending_semaphore != nullptr) {
                  t->pending_semaphore->waiting_.remove(*t);
                }
                t->semaphore_acquired = false;
                make_ready(*t, true);
                settle();
              });
        }
        if (trace_.enabled()) {
          trace_.add(now(), TraceKind::kBlocked, task.id, task.params.cpu,
                     "sem:" + task.pending_semaphore->name());
        }
        exited = true;
        break;
      }
      case PendingOp::kNone:
        // The coroutine suspended through an awaiter the kernel does not
        // know. Treat as a fatal task error.
        task.error = std::make_exception_ptr(
            std::logic_error("task suspended on unknown awaiter"));
        cpu.running = nullptr;
        finish_task(task);
        exited = true;
        break;
    }
  }
  --serving_depth_;
  settle();
}

void RtKernel::settle() {
  if (serving_depth_ > 0) return;
  for (;;) {
    bool progress = false;
    for (Cpu& cpu : cpus_) {
      Task* best = cpu.ready.front();
      if (best == nullptr) continue;
      if (cpu.running == nullptr) {
        dispatch(cpu, *best);
        progress = true;
      } else if (best->params.priority < cpu.running->params.priority) {
        preempt(cpu);
        dispatch(cpu, *best);
        progress = true;
      } else if (best->params.priority == cpu.running->params.priority &&
                 best->params.sched == SchedClass::kDeadline &&
                 cpu.running->params.sched == SchedClass::kDeadline &&
                 best->abs_deadline < cpu.running->abs_deadline) {
        // EDF band: within one priority level an earlier absolute deadline
        // preempts a later one. A deadline task never preempts an
        // equal-priority fixed-priority task (and vice versa) — across
        // classes the running task keeps the CPU, as in the RM-only kernel.
        preempt(cpu);
        dispatch(cpu, *best);
        progress = true;
      }
    }
    if (!progress) return;
  }
}

void RtKernel::arm_release(Task& task, SimTime ideal) {
  task.ideal_release = ideal;
  const SimTime timer_fire =
      std::max(now(), ideal + latency_model_.sample_timer_error(rng_));
  const TaskId task_id = task.id;
  task.release_event = engine_->schedule_at(
      timer_fire, [this, task_id, ideal] {
        Task* t = find_task(task_id);
        if (t == nullptr) return;
        t->release_event = 0;
        on_timer_fire(*t, ideal);
      });
}

void RtKernel::on_timer_fire(Task& task, SimTime ideal) {
  if (task.state == TaskState::kSuspended) {
    // Release swallowed by suspension; resume_task re-arms.
    ++task.stats.skipped_releases;
    task.resume_needs_release = true;
    return;
  }
  if (task.state != TaskState::kWaitingPeriod) return;  // stale
  // Stage 2 of the wake path: interrupt -> runnable, cost depends on the
  // CPU's state at this very instant.
  const bool idle = cpu_idle_for_wake(task.params.cpu);
  SimDuration wake_cost = latency_model_.sample_wake_cost(idle, rng_);
  if (fault_plan_ != nullptr) {
    // Delayed-wakeup fault: the release interrupt is serviced late.
    wake_cost += fault_plan_->wake_delay(task.params.name, task.id, now());
  }
  const TaskId task_id = task.id;
  task.release_event =
      engine_->schedule_after(wake_cost, [this, task_id, ideal] {
        Task* t = find_task(task_id);
        if (t == nullptr || t->state != TaskState::kWaitingPeriod) return;
        t->release_event = 0;
        t->pending_ideal = ideal;
        t->abs_deadline = ideal + (t->params.deadline > 0 ? t->params.deadline
                                                          : t->params.period);
        ++t->stats.activations;
        m_.releases->add();
        trace_.add(now(), TraceKind::kReleased, t->id, t->params.cpu);
        make_ready(*t, true);
        settle();
      });
}

void RtKernel::finish_task(Task& task) {
  task.state = TaskState::kFinished;
  release_task_name(task);
  cancel_task_events(task);
  if (task.handle) {
    task.handle.destroy();
    task.handle = nullptr;
  }
  task.body = nullptr;  // frame is gone; release the closure's captures too
  trace_.add(now(), TraceKind::kFinished, task.id, task.params.cpu);
  log::Line(log::Level::kDebug, "rtos", now())
      << "task #" << task.id << " '" << task.params.name << "' finished"
      << (task.error ? " with error" : "");
}

bool RtKernel::cpu_idle_for_wake(CpuId cpu_id) const {
  // The idle-wake cost applies only when the CPU actually reached a sleep
  // state: no RT or Linux work right now, AND both domains have been quiet
  // for at least the C-state entry residency. A saturating stress load never
  // leaves a long enough gap, so its wake path stays hot.
  const Cpu& cpu = cpus_[cpu_id];
  if (cpu.running != nullptr || !cpu.ready.empty()) return false;
  if (load_.busy(cpu_id)) return false;
  const SimTime quiet_needed = now() - config_.cstate_entry_ns;
  return cpu.rt_active_until <= quiet_needed &&
         load_.state_since(cpu_id) <= quiet_needed;
}

void RtKernel::cancel_task_events(Task& task) {
  engine_->cancel(task.completion_event);
  engine_->cancel(task.release_event);
  engine_->cancel(task.timeout_event);
  task.completion_event = 0;
  task.release_event = 0;
  task.timeout_event = 0;
}

}  // namespace drt::rtos
