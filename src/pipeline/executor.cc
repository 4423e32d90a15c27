#include "pipeline/executor.h"

#include <algorithm>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/timer.h"

namespace radix::pipeline {

double StreamingExecutor::Run(const ChunkPlan& plan, ChunkStage& gather,
                              ChunkStage* sink, PipelineStats* stats) {
  Timer wall;
  PipelineStats local;
  if (plan.chunks.empty()) {
    if (stats != nullptr) *stats = local;
    return wall.ElapsedSeconds();
  }

  ThreadPool* pool = KernelPool(options_.pool);
  const bool threaded = pool != nullptr;
  size_t slots = options_.ring_slots;
  if (slots == 0) slots = threaded ? pool->num_threads() + 2 : 1;
  slots = std::clamp<size_t>(slots, 1, plan.chunks.size());
  local.ring_slots = slots;
  local.chunks = plan.chunks.size();

  std::vector<WorkChunk> ring(slots);
  for (WorkChunk& c : ring) {
    c.arena.Reset(options_.buffer_columns, options_.buffer_rows,
                  options_.gauge);
  }

  if (!threaded) {
    // Serial reference pipeline: one slot, stages inline, chunk order.
    // Still memory-bounded — that is a property of chunking, not threads.
    for (const ChunkDesc& d : plan.chunks) {
      WorkChunk& c = ring[0];
      c.desc = d;
      Timer t;
      gather.Run(c);
      local.gather_busy_seconds += t.ElapsedSeconds();
      if (sink != nullptr) {
        t.Reset();
        sink->Run(c);
        local.sink_busy_seconds += t.ElapsedSeconds();
      }
    }
    if (stats != nullptr) *stats = local;
    return wall.ElapsedSeconds();
  }

  // Threaded: the calling thread is the coordinator. It parks each chunk in
  // a free ring slot and submits its gather task; the gather task chains
  // the sink task onto the pool queue; the last task of a chunk returns the
  // slot. The ring bound doubles as backpressure: when no slot is free the
  // coordinator blocks here instead of queueing unbounded work.
  struct Ctx {
    /// mu guards every field below; cv is notified under it. Leaf lock:
    /// stage tasks lock it only in finish_chunk, never while holding (or
    /// acquiring) the pool's queue mutex.
    Mutex mu;
    CondVar cv;
    std::vector<size_t> free_slots RADIX_GUARDED_BY(mu);
    size_t in_flight RADIX_GUARDED_BY(mu) = 0;
    double gather_busy RADIX_GUARDED_BY(mu) = 0;
    double sink_busy RADIX_GUARDED_BY(mu) = 0;
  } ctx;
  {
    MutexLock lock(ctx.mu);
    ctx.free_slots.reserve(slots);
    for (size_t s = 0; s < slots; ++s) ctx.free_slots.push_back(s);
  }

  auto finish_chunk = [&ctx](size_t slot, double gather_s, double sink_s) {
    // Notify under the lock: once in_flight hits 0 the coordinator may
    // return and destroy ctx, so the cv must not be touched after unlock.
    MutexLock lock(ctx.mu);
    ctx.gather_busy += gather_s;
    ctx.sink_busy += sink_s;
    ctx.free_slots.push_back(slot);
    --ctx.in_flight;
    ctx.cv.NotifyAll();
  };

  // While the ring is full (or during the final drain) the coordinator
  // runs queued stage tasks itself instead of idling, so all num_threads
  // participate — matching ParallelFor's calling-thread-included contract.
  auto acquire_slot = [&ctx, pool]() {
    for (;;) {
      {
        MutexLock lock(ctx.mu);
        if (!ctx.free_slots.empty()) {
          size_t slot = ctx.free_slots.back();
          ctx.free_slots.pop_back();
          ++ctx.in_flight;
          return slot;
        }
      }
      if (!pool->TryRunOneTask()) {
        MutexLock lock(ctx.mu);
        while (ctx.free_slots.empty()) ctx.cv.Wait(lock);
      }
    }
  };

  for (const ChunkDesc& d : plan.chunks) {
    size_t slot = acquire_slot();
    ring[slot].desc = d;
    pool->Submit([&, slot] {
      WorkChunk& c = ring[slot];
      Timer t;
      gather.Run(c);
      double gather_s = t.ElapsedSeconds();
      if (sink == nullptr) {
        finish_chunk(slot, gather_s, 0);
        return;
      }
      pool->Submit([&, slot, gather_s] {
        WorkChunk& c2 = ring[slot];
        Timer t2;
        sink->Run(c2);
        finish_chunk(slot, gather_s, t2.ElapsedSeconds());
      });
    });
  }
  for (;;) {
    {
      MutexLock lock(ctx.mu);
      if (ctx.in_flight == 0) {
        local.gather_busy_seconds = ctx.gather_busy;
        local.sink_busy_seconds = ctx.sink_busy;
        break;
      }
    }
    if (!pool->TryRunOneTask()) {
      MutexLock lock(ctx.mu);
      // A woken coordinator re-checks the queue first; in_flight only ever
      // falls, so waiting on any completion is enough for progress.
      if (ctx.in_flight != 0) ctx.cv.Wait(lock);
    }
  }
  if (stats != nullptr) *stats = local;
  return wall.ElapsedSeconds();
}

}  // namespace radix::pipeline
