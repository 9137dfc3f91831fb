// ClusterSpec serialization: describe a machine in a key=value file
// instead of recompiling the catalog.
//
// Format (util::Config grammar — `key = value`, '#' comments):
//
//   name = MyCluster
//   nodes = 8
//   cpu.model = Opteron 6134
//   cpu.cores = 8
//   cpu.ghz = 2.3
//   cpu.flops_per_cycle = 4
//   sockets = 2
//   memory_gib = 32
//   memory_bandwidth_gbps = 21
//   disk.seek_ms = 8.5            disk.rpm = 7200
//   disk.transfer_mbps = 110      disk.capacity_gib = 1000
//   disks = 1
//   power.cpu_idle_w = 22         power.cpu_max_w = 105
//   power.memory_background_w = 12  power.memory_max_w = 30
//   power.disk_idle_w = 5         power.disk_active_w = 11
//   power.nic_idle_w = 6          power.nic_active_w = 12
//   power.board_w = 45            power.psu_rated_w = 650
//   power.psu_eff_20 = 0.82  power.psu_eff_50 = 0.88  power.psu_eff_100 = 0.85
//   interconnect = qdr-ib | ddr-ib | gige   (or latency_us/bandwidth_mbps)
//   storage.backend_mbps = 130    storage.per_client_mbps = 95
//   storage.contention = 0.55
//   switch_power_w = 120
//
// Every key has a default (the generic ClusterSpec), so a minimal file is
// just `name = X` plus whatever differs.
#pragma once

#include <iosfwd>
#include <string>

#include "sim/machine.h"
#include "util/config.h"

namespace tgi::sim {

/// Builds a ClusterSpec from parsed configuration.
[[nodiscard]] ClusterSpec cluster_from_config(const util::Config& config);

/// Convenience: parse a spec file from disk.
[[nodiscard]] ClusterSpec load_cluster_file(const std::string& path);

/// Serializes a spec into the same key=value format. Every double is
/// written exactly (shortest round-trip digits; a unit-scaled quantity as
/// the config number whose scaling reproduces it), so
/// cluster_from_config(Config::parse(text)) reproduces each double bit for
/// bit — the worker handoff (serve::worker_spec_config) relies on it —
/// and the text, part of every cache key (harness::cache_spec_text), tells
/// apart specs a single ulp apart. An SI value no config number reaches keeps its exact
/// value in a trailing comment (still a distinct key; the file then reads
/// back as the nearest expressible spec).
[[nodiscard]] std::string cluster_to_config(const ClusterSpec& spec);

}  // namespace tgi::sim
