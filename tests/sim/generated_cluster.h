// A seeded generator of valid sim::ClusterSpecs for property tests: every
// spec is built through sim/spec_io from a generated config file, so it is
// one a user could write. Numbers are drawn within the catalog's ranges
// (sim/catalog.cpp), at full double precision or rounded to 7 decimals;
// with `extremes`, a field may instead take a magnitude near 1e-300 or
// 1e300 (kept normal both as written and once scaled into SI units; a PSU
// efficiency stops at 1).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/machine.h"
#include "sim/spec_io.h"
#include "util/config.h"
#include "util/format.h"
#include "util/rng.h"
#include "util/units.h"

namespace tgi::sim::generated {

/// One double of a ClusterSpec as a config file carries it: the key, the
/// factor cluster_from_config scales the number by into the SI field, the
/// catalog range in config units, the SI field itself, and the largest
/// value cluster_from_config accepts (a PSU efficiency is at most 1).
struct DoubleField {
  const char* key;
  double scale;
  double lo;
  double hi;
  double (*get)(const ClusterSpec&);
  void (*set)(ClusterSpec&, double);
  double max = HUGE_VAL;
};

/// Every double field cluster_to_config writes, in its order.
inline const std::vector<DoubleField>& double_fields() {
  using C = ClusterSpec;
  constexpr double kGib = 1073741824.0;
  static const std::vector<DoubleField> fields{
      {"cpu.ghz", 1.0, 0.7, 3.5, [](const C& c) { return c.node.cpu.ghz; },
       [](C& c, double v) { c.node.cpu.ghz = v; }},
      {"cpu.flops_per_cycle", 1.0, 2.0, 32.0,
       [](const C& c) { return c.node.cpu.flops_per_cycle; },
       [](C& c, double v) { c.node.cpu.flops_per_cycle = v; }},
      {"memory_gib", kGib, 2.0, 128.0,
       [](const C& c) { return c.node.memory.value(); },
       [](C& c, double v) { c.node.memory = util::ByteCount(v); }},
      {"memory_bandwidth_gbps", 1e9, 2.0, 50.0,
       [](const C& c) { return c.node.memory_bandwidth.value(); },
       [](C& c, double v) { c.node.memory_bandwidth = util::ByteRate(v); }},
      {"disk.seek_ms", 1e-3, 4.0, 12.0,
       [](const C& c) { return c.node.disk.avg_seek.value(); },
       [](C& c, double v) { c.node.disk.avg_seek = util::Seconds(v); }},
      {"disk.rpm", 1.0, 5400.0, 15000.0,
       [](const C& c) { return c.node.disk.rpm; },
       [](C& c, double v) { c.node.disk.rpm = v; }},
      {"disk.transfer_mbps", 1e6, 50.0, 200.0,
       [](const C& c) { return c.node.disk.transfer_rate.value(); },
       [](C& c, double v) { c.node.disk.transfer_rate = util::ByteRate(v); }},
      {"disk.capacity_gib", kGib, 80.0, 2000.0,
       [](const C& c) { return c.node.disk.capacity.value(); },
       [](C& c, double v) { c.node.disk.capacity = util::ByteCount(v); }},
      {"power.cpu_idle_w", 1.0, 10.0, 100.0,
       [](const C& c) { return c.node.power.cpu.idle.value(); },
       [](C& c, double v) { c.node.power.cpu.idle = util::Watts(v); }},
      {"power.cpu_max_w", 1.0, 110.0, 450.0,
       [](const C& c) { return c.node.power.cpu.max_load.value(); },
       [](C& c, double v) { c.node.power.cpu.max_load = util::Watts(v); }},
      {"power.memory_background_w", 1.0, 2.0, 20.0,
       [](const C& c) { return c.node.power.memory.background.value(); },
       [](C& c, double v) { c.node.power.memory.background = util::Watts(v); }},
      {"power.memory_max_w", 1.0, 20.0, 50.0,
       [](const C& c) { return c.node.power.memory.max_active.value(); },
       [](C& c, double v) { c.node.power.memory.max_active = util::Watts(v); }},
      {"power.disk_idle_w", 1.0, 2.0, 8.0,
       [](const C& c) { return c.node.power.disk.idle.value(); },
       [](C& c, double v) { c.node.power.disk.idle = util::Watts(v); }},
      {"power.disk_active_w", 1.0, 8.0, 16.0,
       [](const C& c) { return c.node.power.disk.active.value(); },
       [](C& c, double v) { c.node.power.disk.active = util::Watts(v); }},
      {"power.nic_idle_w", 1.0, 2.0, 10.0,
       [](const C& c) { return c.node.power.nic.idle.value(); },
       [](C& c, double v) { c.node.power.nic.idle = util::Watts(v); }},
      {"power.nic_active_w", 1.0, 10.0, 18.0,
       [](const C& c) { return c.node.power.nic.active.value(); },
       [](C& c, double v) { c.node.power.nic.active = util::Watts(v); }},
      {"power.board_w", 1.0, 10.0, 100.0,
       [](const C& c) { return c.node.power.board_overhead.value(); },
       [](C& c, double v) { c.node.power.board_overhead = util::Watts(v); }},
      {"power.psu_rated_w", 1.0, 300.0, 2000.0,
       [](const C& c) { return c.node.power.psu.rated_dc.value(); },
       [](C& c, double v) { c.node.power.psu.rated_dc = util::Watts(v); }},
      {"power.psu_eff_20", 1.0, 0.7, 0.9,
       [](const C& c) { return c.node.power.psu.efficiency_at_20pct; },
       [](C& c, double v) { c.node.power.psu.efficiency_at_20pct = v; },
       1.0},
      {"power.psu_eff_50", 1.0, 0.8, 0.95,
       [](const C& c) { return c.node.power.psu.efficiency_at_50pct; },
       [](C& c, double v) { c.node.power.psu.efficiency_at_50pct = v; },
       1.0},
      {"power.psu_eff_100", 1.0, 0.75, 0.92,
       [](const C& c) { return c.node.power.psu.efficiency_at_100pct; },
       [](C& c, double v) { c.node.power.psu.efficiency_at_100pct = v; },
       1.0},
      {"interconnect.latency_us", 1e-6, 1.0, 60.0,
       [](const C& c) { return c.interconnect.latency.value(); },
       [](C& c, double v) { c.interconnect.latency = util::Seconds(v); }},
      {"interconnect.bandwidth_mbps", 1e6, 100.0, 4000.0,
       [](const C& c) { return c.interconnect.bandwidth.value(); },
       [](C& c, double v) { c.interconnect.bandwidth = util::ByteRate(v); }},
      {"interconnect.congestion", 1.0, 0.5, 1.0,
       [](const C& c) { return c.interconnect.congestion_factor; },
       [](C& c, double v) { c.interconnect.congestion_factor = v; }},
      {"storage.backend_mbps", 1e6, 10.0, 300.0,
       [](const C& c) { return c.storage.backend_bandwidth.value(); },
       [](C& c, double v) { c.storage.backend_bandwidth = util::ByteRate(v); }},
      {"storage.per_client_mbps", 1e6, 10.0, 200.0,
       [](const C& c) { return c.storage.per_client_bandwidth.value(); },
       [](C& c, double v) {
         c.storage.per_client_bandwidth = util::ByteRate(v);
       }},
      {"storage.contention", 1.0, 0.1, 0.9,
       [](const C& c) { return c.storage.contention; },
       [](C& c, double v) { c.storage.contention = v; }},
      {"switch_power_w", 1.0, 0.0, 300.0,
       [](const C& c) { return c.switch_power.value(); },
       [](C& c, double v) { c.switch_power = util::Watts(v); }},
  };
  return fields;
}

/// The config file of one generated spec.
inline std::string generated_config(util::Xoshiro256& rng, bool extremes) {
  std::string text = "name = generated-" + std::to_string(rng.next() % 1000);
  text += "\ncpu.model = generated cpu\ninterconnect.name = generated fabric";
  text += "\nnodes = " + std::to_string(1 + rng.next() % 64);
  text += "\ncpu.cores = " + std::to_string(1 + rng.next() % 16);
  text += "\nsockets = " + std::to_string(1 + rng.next() % 4);
  text += "\ndisks = " + std::to_string(1 + rng.next() % 4);
  for (const DoubleField& f : double_fields()) {
    double x = rng.uniform(f.lo, f.hi);
    switch (rng.next() % 8) {
      case 0:  // a hand-written-looking number, e.g. 0.8500004
        x = static_cast<double>(static_cast<long long>(x * 1e7)) / 1e7;
        break;
      case 1:
        if (extremes) x = 1e-300 * (f.scale < 1.0 ? 1.0 / f.scale : 1.0);
        break;
      case 2:
        if (extremes) {
          x = std::min(f.max, 1e300 * (f.scale > 1.0 ? 1.0 / f.scale : 1.0));
        }
        break;
      default:
        break;
    }
    text += '\n';
    text += f.key;
    text += " = ";
    util::append_shortest(text, x);
  }
  return text + '\n';
}

/// One generated spec (see the file comment).
inline ClusterSpec generated_cluster(util::Xoshiro256& rng,
                                     bool extremes = false) {
  return cluster_from_config(
      util::Config::parse(generated_config(rng, extremes)));
}

}  // namespace tgi::sim::generated
