#include "core/tracerun.h"

#include <memory>

#include "cover/db.h"
#include "cover/registry.h"
#include "cover/report.h"
#include "cover/sink.h"
#include "diffview/bundle.h"
#include "support/strings.h"
#include "trace/bus.h"
#include "trace/chrome.h"
#include "trace/metrics.h"
#include "trace/vcd.h"

namespace hicsync::core {

TraceRunResult run_traced(const CompileResult& result,
                          const TraceRunOptions& options) {
  TraceRunResult out;

  trace::TraceBus bus;
  std::unique_ptr<trace::MetricsSink> metrics;
  std::unique_ptr<trace::VcdSink> vcd;
  std::unique_ptr<trace::ChromeTraceSink> chrome;
  std::unique_ptr<diffview::BundleCaptureSink> bundle;
  // A bundle embeds a metrics snapshot, so capture implies the sink.
  if (options.sinks.metrics || options.sinks.bundle) {
    metrics = std::make_unique<trace::MetricsSink>();
    bus.attach(metrics.get());
  }
  if (options.sinks.bundle) {
    bundle = std::make_unique<diffview::BundleCaptureSink>();
    bus.attach(bundle.get());
  }
  if (options.sinks.vcd) {
    vcd = std::make_unique<trace::VcdSink>();
    bus.attach(vcd.get());
  }
  if (options.sinks.chrome) {
    chrome = std::make_unique<trace::ChromeTraceSink>();
    bus.attach(chrome.get());
  }
  cover::CoverageModel cover_model;
  cover::ModelInputs cover_inputs;
  std::unique_ptr<cover::CoverageSink> cover_sink;
  if (options.cover) {
    cover_inputs = cover::inputs_from(result.options().organization,
                                      result.fsms(), result.controllers());
    cover::declare_model(cover::CoverRegistry::builtin(), cover_inputs,
                         cover_model);
    cover_sink = std::make_unique<cover::CoverageSink>(cover_model,
                                                       cover_inputs);
    bus.attach(cover_sink.get());
  }

  auto simulator = result.make_simulator();
  simulator->set_trace(&bus);
  out.converged = simulator->run_until_passes(options.passes,
                                              options.max_cycles);
  out.cycles = simulator->cycle();
  bus.finish(out.cycles);

  if (options.sinks.metrics) {
    out.metrics_text = metrics->report_text();
    out.metrics_json = metrics->report_json();
  }
  if (vcd != nullptr) out.vcd = vcd->str();
  if (chrome != nullptr) out.chrome_json = chrome->str();
  if (cover_sink != nullptr) {
    out.cover_text = cover::emit_report_md(cover_model);
    out.cover_record = cover::to_record(
        cover_model, options.cover_run_id,
        cover::org_prefix(result.options().organization));
  }
  if (bundle != nullptr) {
    diffview::Manifest manifest;
    manifest.run_id = options.bundle_run_id;
    manifest.program = options.bundle_program;
    manifest.source_digest = options.bundle_source_digest;
    manifest.organization = sim::to_string(result.options().organization);
    manifest.use_cam = result.options().use_cam;
    manifest.chain = result.options().schedule.chain_states;
    manifest.infer = result.options().infer_dependencies;
    manifest.passes = options.passes;
    manifest.max_cycles = options.max_cycles;
    manifest.cycles = out.cycles;
    manifest.converged = out.converged;
    for (const BramReport& report : result.bram_reports()) {
      diffview::AreaRow row;
      row.bram_id = report.bram_id;
      row.module_name = report.module_name;
      row.luts = report.area.luts;
      row.ffs = report.area.ffs;
      row.slices = report.area.slices;
      row.fmax_mhz = report.timing.fmax_mhz;
      manifest.areas.push_back(std::move(row));
    }
    out.bundle_manifest_json = manifest.to_json();
    out.bundle_events_jsonl = bundle->events_jsonl();
    out.bundle_metrics_json = metrics->report_json();
  }

  out.stall_report = simulator->stall_report();

  for (const sim::DepRound& round : simulator->rounds()) {
    out.rounds_text += support::format(
        "  %s: produce@%llu, %zu consumer read(s), completion latency "
        "%llu\n",
        round.dep_id.c_str(),
        static_cast<unsigned long long>(round.produce_grant_cycle),
        round.consume_cycles.size(),
        static_cast<unsigned long long>(round.completion_latency()));
  }
  return out;
}

}  // namespace hicsync::core
