// Command-line driver: run any (application, machine) point through the
// full multiscale pipeline from flags, printing a table or JSON.
//
//   musa_cli --app lulesh --cores 64 --freq 2.5 --vec 512
//            --cache 96M:1M --channels 8 --tech DDR4-2333 --ranks 256 [--json]
#include <cstdio>
#include <cstring>
#include <string>

#include "apps/apps.hpp"
#include "common/table.hpp"
#include "core/pipeline.hpp"

namespace {
using namespace musa;

void print_json(const core::SimResult& r) {
  std::printf("{\n");
  std::printf("  \"app\": \"%s\",\n", r.app.c_str());
  std::printf("  \"config\": \"%s\",\n", r.config.id().c_str());
  std::printf("  \"region_seconds\": %.9g,\n", r.region_seconds);
  std::printf("  \"wall_seconds\": %.9g,\n", r.wall_seconds);
  std::printf("  \"ipc\": %.4f,\n", r.ipc);
  std::printf("  \"avg_concurrency\": %.2f,\n", r.avg_concurrency);
  std::printf("  \"busy_fraction\": %.4f,\n", r.busy_fraction);
  std::printf("  \"mpki\": {\"l1\": %.3f, \"l2\": %.3f, \"l3\": %.3f},\n",
              r.mpki_l1, r.mpki_l2, r.mpki_l3);
  std::printf("  \"gmem_req_s\": %.4f,\n", r.gmem_req_s);
  std::printf("  \"mem_gbps\": %.2f,\n", r.mem_gbps);
  std::printf(
      "  \"power_w\": {\"core_l1\": %.2f, \"l2_l3\": %.2f, \"dram\": %.2f, "
      "\"node\": %.2f},\n",
      r.core_l1_w, r.l2_l3_w, r.dram_w, r.node_w);
  std::printf("  \"dram_power_known\": %s,\n",
              r.dram_power_known ? "true" : "false");
  std::printf("  \"energy_j\": %.4f\n", r.energy_j);
  std::printf("}\n");
}

void print_table(const core::SimResult& r) {
  std::printf("%s on %s\n\n", r.app.c_str(), r.config.id().c_str());
  TextTable t({"metric", "value"});
  t.row().cell("region [ms]").cell(r.region_seconds * 1e3, 3);
  t.row().cell("wall [ms]").cell(r.wall_seconds * 1e3, 3);
  t.row().cell("IPC").cell(r.ipc, 2);
  t.row().cell("concurrency").cell(r.avg_concurrency, 1);
  t.row().cell("L1/L2/L3 MPKI").cell(
      std::to_string(r.mpki_l1).substr(0, 5) + " / " +
      std::to_string(r.mpki_l2).substr(0, 5) + " / " +
      std::to_string(r.mpki_l3).substr(0, 5));
  t.row().cell("DRAM [GB/s]").cell(r.mem_gbps, 1);
  t.row().cell("node power [W]").cell(r.node_w, 1);
  t.row().cell("energy [J]").cell(r.energy_j, 2);
  std::printf("%s", t.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string app_name = "hydro";
  core::MachineConfig config;
  bool json = false;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--app") {
      app_name = value();
    } else if (flag == "--cores") {
      config.cores = std::stoi(value());
    } else if (flag == "--freq") {
      config.freq_ghz = std::stod(value());
    } else if (flag == "--vec") {
      config.vector_bits = std::stoi(value());
    } else if (flag == "--cache") {
      config.cache_label = value();
    } else if (flag == "--channels") {
      config.mem_channels = std::stoi(value());
    } else if (flag == "--ranks") {
      config.ranks = std::stoi(value());
    } else if (flag == "--core") {
      const std::string label = value();
      bool found = false;
      for (const auto& preset : musa::cpusim::core_presets())
        if (preset.label == label) {
          config.core = preset;
          found = true;
        }
      if (!found) {
        std::fprintf(stderr, "unknown core preset: %s\n", label.c_str());
        return 2;
      }
    } else if (flag == "--tech") {
      const std::string name = value();
      bool found = false;
      for (auto t : {musa::dramsim::MemTech::kDdr4_2333,
                     musa::dramsim::MemTech::kDdr4_2666,
                     musa::dramsim::MemTech::kLpddr4_3200,
                     musa::dramsim::MemTech::kWideIo2,
                     musa::dramsim::MemTech::kHbm2})
        if (name == musa::dramsim::mem_tech_name(t)) {
          config.mem_tech = t;
          found = true;
        }
      if (!found) {
        std::fprintf(stderr, "unknown memory tech: %s\n", name.c_str());
        return 2;
      }
    } else if (flag == "--json") {
      json = true;
    } else if (flag == "--help" || flag == "-h") {
      std::printf(
          "usage: musa_cli [--app NAME] [--core lowend|medium|high|"
          "aggressive]\n"
          "  [--cores N] [--freq GHZ] [--vec BITS] [--cache LABEL]\n"
          "  [--channels N] [--tech NAME] [--ranks N] [--json]\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", flag.c_str());
      return 2;
    }
  }

  try {
    musa::core::Pipeline pipeline;
    const auto result =
        pipeline.run(musa::apps::find_app(app_name), config);
    if (json)
      print_json(result);
    else
      print_table(result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
