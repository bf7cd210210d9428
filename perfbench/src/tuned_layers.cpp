#include "workloads.h"

#include <string>

namespace perfbench {

StackCounters StackCounters::take(kml::sim::StorageStack& stack,
                                  const kml::runtime::Engine& engine) {
  return {stack.cache().stats(), stack.device().stats(),
          stack.tracepoints().emitted(), engine.stats()};
}

void report_tuned_layers(Result& result, const char* tuner,
                         const Tracer& tracer, const Blocks& blocks,
                         const StackCounters& before,
                         const StackCounters& after, std::uint64_t ops,
                         std::uint64_t records, std::uint64_t dropped) {
  // Counts cover the whole timed phase (they repeat exactly); times cover
  // the traced blocks only.
  const double n_ops = static_cast<double>(ops);
  const double wall = static_cast<double>(blocks.traced_wall_ns());
  const SpanStat& op = tracer.stat(kSpanOp);
  const SpanStat& drain = tracer.stat(kSpanDrainTick);
  const SpanStat& close = tracer.stat(kSpanCloseTick);
  const SpanStat& infer = tracer.stat(kSpanInfer);
  const kml::sim::PageCacheStats& c0 = before.cache;
  const kml::sim::PageCacheStats& c1 = after.cache;
  const double hits = static_cast<double>(c1.hits - c0.hits);
  const double misses = static_cast<double>(c1.misses - c0.misses);
  const double used = static_cast<double>(c1.prefetch_used - c0.prefetch_used);
  const double wasted =
      static_cast<double>(c1.prefetch_wasted - c0.prefetch_wasted);
  // One window-closing tick per traced block, and a block is one virtual
  // second.
  const double tuner_ns = static_cast<double>(drain.total_ns + close.total_ns);
  const std::string prefix = tuner;

  result.metric("workloads.op_share", ratio(op.self_ns(), wall), "ratio");
  result.metric("workloads.op_us", ns_to_us(ratio(op.total_ns, op.count)),
                "us");
  result.metric("sim.cache_hit_ratio", ratio(hits, hits + misses), "ratio");
  result.metric("sim.prefetch_useful_ratio", ratio(used, used + wasted),
                "ratio");
  result.metric("sim.device_reads_per_op",
                ratio(after.device.read_commands - before.device.read_commands,
                      n_ops),
                "1/op");
  result.metric("sim.pages_read_per_op",
                ratio(after.device.pages_read - before.device.pages_read,
                      n_ops),
                "1/op");
  result.metric("sim.policy_switches",
                static_cast<double>(c1.policy_switches - c0.policy_switches),
                "count");
  result.metric("sim.evictions_per_op", ratio(c1.evicted - c0.evicted, n_ops),
                "1/op");
  result.metric("sim.trace_events_per_op",
                ratio(after.trace_events - before.trace_events, n_ops),
                "1/op");
  result.metric("data.records_per_op", ratio(records, n_ops), "1/op");
  result.metric("data.records_dropped_ratio",
                ratio(dropped, records + dropped), "ratio");
  result.metric("data.drain_share", ratio(drain.self_ns(), wall), "ratio");
  result.metric(prefix + ".tuner_share", ratio(tuner_ns, wall), "ratio");
  result.metric(prefix + ".ms_per_sim_s",
                ns_to_ms(ratio(tuner_ns, close.count)), "ms/sim_s");
  result.metric(prefix + ".window_close_us",
                ns_to_us(ratio(close.self_ns(), close.count)), "us");
  result.metric("runtime.infer_us",
                ns_to_us(ratio(infer.total_ns, infer.count)), "us");
  result.metric("runtime.infer_ns_per_row",
                ratio(after.engine.inference_ns_total -
                          before.engine.inference_ns_total,
                      after.engine.inferences - before.engine.inferences),
                "ns");
  report_trace_metrics(result, tracer, blocks);
}

}  // namespace perfbench
