#include "core/overlap.hpp"

#include <atomic>
#include <iterator>

#include "core/columnar.hpp"

namespace snmpv3fp::core {

namespace {

// Rows per queued block and blocks in flight. 4096 rows keeps a block's
// working set cache-friendly; 4 blocks in flight bounds the producer's
// lead to ~16k rows beyond what the consumer has absorbed.
constexpr std::size_t kOverlapBlockRows = 4096;
constexpr std::size_t kOverlapQueueBlocks = 4;

}  // namespace

OverlapOutcome join_filter_overlapped(const scan::ScanResult& first,
                                      const scan::ScanResult& second,
                                      const FilterPipeline& filter,
                                      const util::ParallelOptions& parallel,
                                      const obs::ObsOptions& obs) {
  OverlapOutcome outcome;
  util::BoundedQueue<std::vector<JoinedRecord>> queue(kOverlapQueueBlocks);
  std::atomic<bool> join_ok{false};
  ColumnarFunnel funnel(filter.options());

  // Queue instrumentation + per-stage spans: registered here on the
  // orchestrating thread, published after the overlapped region joins so
  // the metric/span sequence stays deterministic. The worker spans finish
  // detached and are recorded in fixed (consumer, producer) order.
  util::QueueTelemetry queue_telemetry;
  if (obs.enabled()) queue.set_telemetry(&queue_telemetry);
  obs::Gauge depth_gauge = obs.gauge("overlap.queue_depth");
  obs::SpanRecord consumer_span, producer_span;
  const std::uint32_t parent_depth = [&] {
    // Peek the nesting depth the worker spans should sit under.
    obs::Span probe(obs.trace(), std::string());
    const std::uint32_t depth = probe.depth();
    probe.finish_record();  // discard without touching the trace
    return depth;
  }();

  util::run_overlapped(
      {// Consumer (calling thread): run the verdict pass on each block,
       // keep the raw rows — blocks arrive and are fed strictly in
       // production order, so the funnel state is thread-count-invariant.
       [&] {
         obs::Span span(obs.trace(), obs.scoped("overlap.consume"));
         try {
           while (auto block = queue.pop()) {
             depth_gauge.set(
                 queue_telemetry.depth.load(std::memory_order_relaxed));
             funnel.feed_rows(*block, parallel);
             std::move(block->begin(), block->end(),
                       std::back_inserter(outcome.joined));
           }
         } catch (...) {
           queue.close();  // unblock the producer before propagating
           consumer_span = span.finish_record();
           throw;
         }
         consumer_span = span.finish_record();
       },
       // Producer: streaming merge join over the sorted stores.
       [&] {
         obs::Span span(obs.trace(), obs.scoped("overlap.produce"));
         const bool ok = join_stores_blocked(
             first, second, kOverlapBlockRows,
             [&queue](std::vector<JoinedRecord>&& block) {
               queue.push(std::move(block));
             });
         join_ok.store(ok, std::memory_order_release);
         queue.close();
         producer_span = span.finish_record();
       }});

  if (obs.enabled()) {
    consumer_span.depth = parent_depth;
    producer_span.depth = parent_depth;
    obs.trace()->record(consumer_span);
    obs.trace()->record(producer_span);
    obs.counter("overlap.blocks")
        .add(queue_telemetry.items.load(std::memory_order_relaxed));
    obs.counter("overlap.producer_stall_us")
        .add(queue_telemetry.producer_stall_us.load(
            std::memory_order_relaxed));
    obs.counter("overlap.consumer_stall_us")
        .add(queue_telemetry.consumer_stall_us.load(
            std::memory_order_relaxed));
    obs.gauge("overlap.max_queue_depth")
        .set(static_cast<std::int64_t>(
            queue_telemetry.max_depth.load(std::memory_order_relaxed)));
    depth_gauge.set(0);
  }

  if (!join_ok.load(std::memory_order_acquire)) return outcome;  // ok=false
  outcome.stats.overlap = outcome.joined.size();
  outcome.stats.first_only = first.responsive() - outcome.joined.size();
  outcome.stats.second_only = second.responsive() - outcome.joined.size();
  outcome.report =
      funnel.finish(outcome.joined, outcome.survivors, parallel, obs);
  outcome.ok = true;
  return outcome;
}

}  // namespace snmpv3fp::core
