// Mapping onto a user-defined MPSoC: the framework is not tied to the
// Xavier. This example describes a hypothetical automotive SoC (a big GPU,
// one NPU-like accelerator and a DSP-like unit), maps the small CNN onto
// it, and prints how the mapping decisions shift with the platform.

#include <iostream>

#include "core/baselines.h"
#include "nn/models.h"
#include "serving/mapping_service.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

mapcq::soc::platform build_automotive_soc() {
  using namespace mapcq::soc;
  platform p;
  p.name = "hypothetical automotive SoC";

  compute_unit gpu;
  gpu.name = "bigGPU";
  gpu.kind = cu_kind::gpu;
  gpu.peak_gflops = 20000.0;
  gpu.mem_bandwidth_gbps = 200.0;
  gpu.launch_overhead_ms = 0.01;
  gpu.efficiency_spatial = 0.01;
  gpu.efficiency_matmul = 0.015;
  gpu.occupancy_floor = 0.3;
  gpu.occupancy_exponent = 0.8;
  gpu.static_power_w = 2.5;
  gpu.dynamic_power_w = 45.0;
  gpu.gated_idle_w = 0.4;
  gpu.dvfs = dvfs_table{{300.0, 600.0, 900.0, 1200.0, 1500.0}};

  compute_unit npu;
  npu.name = "NPU";
  npu.kind = cu_kind::dla;
  npu.peak_gflops = 8000.0;
  npu.mem_bandwidth_gbps = 50.0;
  npu.launch_overhead_ms = 0.04;
  npu.efficiency_spatial = 0.012;
  npu.efficiency_matmul = 0.003;  // attention-hostile, like a DLA
  npu.occupancy_floor = 0.75;
  npu.occupancy_exponent = 1.0;
  npu.static_power_w = 0.3;
  npu.dynamic_power_w = 2.5;
  npu.gated_idle_w = 0.05;
  npu.dvfs = dvfs_table{{200.0, 400.0, 800.0, 1000.0}};

  compute_unit dsp;
  dsp.name = "DSP";
  dsp.kind = cu_kind::cpu;
  dsp.peak_gflops = 400.0;
  dsp.mem_bandwidth_gbps = 30.0;
  dsp.launch_overhead_ms = 0.005;
  dsp.efficiency_spatial = 0.2;
  dsp.efficiency_matmul = 0.25;
  dsp.occupancy_floor = 0.6;
  dsp.occupancy_exponent = 1.0;
  dsp.static_power_w = 0.5;
  dsp.dynamic_power_w = 4.0;
  dsp.gated_idle_w = 0.1;
  dsp.dvfs = dvfs_table{{400.0, 800.0, 1200.0}};

  p.units = {gpu, npu, dsp};
  p.shared_memory_bytes = 64.0 * 1024 * 1024;
  p.validate();
  return p;
}

}  // namespace

int main() {
  using namespace mapcq;
  const soc::platform soc = build_automotive_soc();
  const nn::network net = nn::build_simple_cnn();

  std::cout << "platform: " << soc.name << " with " << soc.size() << " CUs\n";
  util::table units({"CU", "peak GFLOPS", "bandwidth (GB/s)", "P_dyn (W)", "DVFS levels"});
  for (std::size_t u = 0; u < soc.size(); ++u) {
    const auto& cu = soc.unit(u);
    units.add_row({cu.name, util::table::num(cu.peak_gflops, 0),
                   util::table::num(cu.mem_bandwidth_gbps, 0),
                   util::table::num(cu.dynamic_power_w, 1), std::to_string(cu.dvfs.levels())});
  }
  std::cout << units.str() << "\n";

  util::table t({"deployment", "energy (mJ)", "latency (ms)", "top-1 (%)"});
  for (std::size_t u = 0; u < soc.size(); ++u) {
    const auto b = core::single_cu_baseline(net, soc, u);
    t.add_row({b.name, util::table::num(b.energy_mj), util::table::num(b.latency_ms),
               util::table::num(b.accuracy_pct)});
  }

  serving::mapping_service service;
  service.register_network(net);
  service.register_platform(soc);
  serving::mapping_request req;
  req.network = net.name;
  req.ga.generations = 40;
  req.ga.population = 30;
  const serving::mapping_report report = service.map(req);
  const auto& ours = report.ours_energy();
  t.add_row({"Map-and-Conquer", util::table::num(ours.avg_energy_mj),
             util::table::num(ours.avg_latency_ms), util::table::num(ours.accuracy_pct)});
  std::cout << t.str() << "\n";
  std::cout << "chosen mapping: " << ours.config.describe(soc) << "\n";
  return 0;
}
