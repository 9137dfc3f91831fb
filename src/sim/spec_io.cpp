#include "sim/spec_io.h"

#include <array>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

#include "net/interconnect.h"
#include "util/error.h"
#include "util/format.h"

namespace tgi::sim {

ClusterSpec cluster_from_config(const util::Config& cfg) {
  ClusterSpec c;  // defaults
  c.name = cfg.get_string("name", c.name);
  c.nodes = static_cast<std::size_t>(
      cfg.get_int("nodes", static_cast<long long>(c.nodes)));
  TGI_REQUIRE(c.nodes >= 1, "nodes must be >= 1");

  c.node.cpu.model = cfg.get_string("cpu.model", c.node.cpu.model);
  c.node.cpu.cores = static_cast<std::size_t>(cfg.get_int(
      "cpu.cores", static_cast<long long>(c.node.cpu.cores)));
  c.node.cpu.ghz = cfg.get_double("cpu.ghz", c.node.cpu.ghz);
  c.node.cpu.flops_per_cycle =
      cfg.get_double("cpu.flops_per_cycle", c.node.cpu.flops_per_cycle);
  c.node.sockets = static_cast<std::size_t>(
      cfg.get_int("sockets", static_cast<long long>(c.node.sockets)));

  c.node.memory = util::gibibytes(
      cfg.get_double("memory_gib", c.node.memory.value() / 1073741824.0));
  c.node.memory_bandwidth = util::gigabytes_per_sec(cfg.get_double(
      "memory_bandwidth_gbps", c.node.memory_bandwidth.value() / 1e9));

  c.node.disk.avg_seek = util::milliseconds(
      cfg.get_double("disk.seek_ms", c.node.disk.avg_seek.value() * 1e3));
  c.node.disk.rpm = cfg.get_double("disk.rpm", c.node.disk.rpm);
  c.node.disk.transfer_rate = util::megabytes_per_sec(cfg.get_double(
      "disk.transfer_mbps", c.node.disk.transfer_rate.value() / 1e6));
  c.node.disk.capacity = util::gibibytes(cfg.get_double(
      "disk.capacity_gib", c.node.disk.capacity.value() / 1073741824.0));
  c.node.disks = static_cast<std::size_t>(
      cfg.get_int("disks", static_cast<long long>(c.node.disks)));

  auto watts_of = [&](const char* key, util::Watts fallback) {
    return util::watts(cfg.get_double(key, fallback.value()));
  };
  c.node.power.cpu.idle = watts_of("power.cpu_idle_w", c.node.power.cpu.idle);
  c.node.power.cpu.max_load =
      watts_of("power.cpu_max_w", c.node.power.cpu.max_load);
  c.node.power.cpu.nominal_ghz = c.node.cpu.ghz;
  c.node.power.sockets = c.node.sockets;
  c.node.power.memory.background =
      watts_of("power.memory_background_w", c.node.power.memory.background);
  c.node.power.memory.max_active =
      watts_of("power.memory_max_w", c.node.power.memory.max_active);
  c.node.power.disk.idle =
      watts_of("power.disk_idle_w", c.node.power.disk.idle);
  c.node.power.disk.active =
      watts_of("power.disk_active_w", c.node.power.disk.active);
  c.node.power.disks = c.node.disks;
  c.node.power.nic.idle = watts_of("power.nic_idle_w", c.node.power.nic.idle);
  c.node.power.nic.active =
      watts_of("power.nic_active_w", c.node.power.nic.active);
  c.node.power.board_overhead =
      watts_of("power.board_w", c.node.power.board_overhead);
  c.node.power.psu.rated_dc =
      watts_of("power.psu_rated_w", c.node.power.psu.rated_dc);
  // A PSU cannot deliver more than it draws, nor deliver nothing: the
  // model divides by these.
  auto efficiency_of = [&](const char* key, double fallback) {
    const double eff = cfg.get_double(key, fallback);
    TGI_REQUIRE(eff > 0.0 && eff <= 1.0,
                key << " must be in (0, 1], got " << eff);
    return eff;
  };
  c.node.power.psu.efficiency_at_20pct = efficiency_of(
      "power.psu_eff_20", c.node.power.psu.efficiency_at_20pct);
  c.node.power.psu.efficiency_at_50pct = efficiency_of(
      "power.psu_eff_50", c.node.power.psu.efficiency_at_50pct);
  c.node.power.psu.efficiency_at_100pct = efficiency_of(
      "power.psu_eff_100", c.node.power.psu.efficiency_at_100pct);

  const std::string fabric = cfg.get_string("interconnect", "");
  if (fabric == "qdr-ib") {
    c.interconnect = net::qdr_infiniband();
  } else if (fabric == "ddr-ib") {
    c.interconnect = net::ddr_infiniband();
  } else if (fabric == "gige") {
    c.interconnect = net::gigabit_ethernet();
  } else if (!fabric.empty()) {
    throw util::PreconditionError("unknown interconnect '" + fabric +
                                  "' (qdr-ib|ddr-ib|gige, or use "
                                  "latency_us/bandwidth_mbps keys)");
  }
  if (cfg.has("interconnect.latency_us")) {
    c.interconnect.latency = util::microseconds(
        cfg.get_double("interconnect.latency_us", 0.0));
    c.interconnect.name = cfg.get_string("interconnect.name", "custom");
  }
  if (cfg.has("interconnect.bandwidth_mbps")) {
    c.interconnect.bandwidth = util::megabytes_per_sec(
        cfg.get_double("interconnect.bandwidth_mbps", 0.0));
  }
  c.interconnect.congestion_factor = cfg.get_double(
      "interconnect.congestion", c.interconnect.congestion_factor);

  c.storage.backend_bandwidth = util::megabytes_per_sec(cfg.get_double(
      "storage.backend_mbps", c.storage.backend_bandwidth.value() / 1e6));
  c.storage.per_client_bandwidth = util::megabytes_per_sec(
      cfg.get_double("storage.per_client_mbps",
                     c.storage.per_client_bandwidth.value() / 1e6));
  c.storage.contention =
      cfg.get_double("storage.contention", c.storage.contention);

  c.switch_power = watts_of("switch_power_w", c.switch_power);

  // Sanity: the assembled spec must produce a working power model.
  (void)c.power_model();
  (void)c.peak_flops();
  return c;
}

ClusterSpec load_cluster_file(const std::string& path) {
  std::ifstream in(path);
  TGI_REQUIRE(in.good(), "cannot open cluster spec '" << path << "'");
  std::ostringstream text;
  text << in.rdbuf();
  return cluster_from_config(util::Config::parse(text.str()));
}

namespace {

/// Appends `key = value\n` lines for cluster_to_config.
class ConfigWriter {
 public:
  explicit ConfigWriter(std::string& out) : out_(out) {}

  void text(const char* key, const std::string& value) {
    start(key);
    out_ += value;
    out_ += '\n';
  }
  void count(const char* key, std::size_t value) {
    start(key);
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
    out_ += '\n';
  }
  /// A quantity the reader takes as-is.
  void number(const char* key, double value) {
    start(key);
    util::append_shortest(out_, value);
    out_ += '\n';
  }
  /// A quantity the reader scales into SI as `x * scale`: written as the x
  /// with the shortest text among those that reproduce `si` exactly (the
  /// rounded si / scale, or a neighbour within two ulps). When none does —
  /// an SI value no config number reaches — the nearest x is written with
  /// `si` itself in a trailing comment, so the text still names exactly
  /// this spec while the file reads back as the nearest expressible one.
  void scaled(const char* key, double si, double scale) {
    start(key);
    const double nearest = si / scale;
    std::array<char, 32> best{};
    std::size_t best_size = 0;
    auto consider = [&](double x) {
      if (x * scale != si) return;
      std::array<char, 32> buf{};
      const auto size = static_cast<std::size_t>(
          std::to_chars(buf.data(), buf.data() + buf.size(), x).ptr -
          buf.data());
      if (best_size == 0 || size < best_size) {
        best = buf;
        best_size = size;
      }
    };
    consider(nearest);
    const double below = std::nextafter(nearest, -HUGE_VAL);
    const double above = std::nextafter(nearest, HUGE_VAL);
    for (const double x : {below, std::nextafter(below, -HUGE_VAL), above,
                           std::nextafter(above, HUGE_VAL)}) {
      consider(x);
    }
    if (best_size != 0) {
      out_.append(best.data(), best_size);
    } else {
      util::append_shortest(out_, nearest);
      out_ += "  # exact SI value ";
      util::append_shortest(out_, si);
    }
    out_ += '\n';
  }

 private:
  void start(const char* key) {
    out_ += key;
    out_ += " = ";
  }
  std::string& out_;
};

}  // namespace

std::string cluster_to_config(const ClusterSpec& c) {
  std::string out;
  ConfigWriter w(out);
  // Each scale is the one cluster_from_config multiplies by (util/units.h).
  constexpr double kGib = 1073741824.0;
  w.text("name", c.name);
  w.count("nodes", c.nodes);
  w.text("cpu.model", c.node.cpu.model);
  w.count("cpu.cores", c.node.cpu.cores);
  w.number("cpu.ghz", c.node.cpu.ghz);
  w.number("cpu.flops_per_cycle", c.node.cpu.flops_per_cycle);
  w.count("sockets", c.node.sockets);
  w.scaled("memory_gib", c.node.memory.value(), kGib);
  w.scaled("memory_bandwidth_gbps", c.node.memory_bandwidth.value(), 1e9);
  w.scaled("disk.seek_ms", c.node.disk.avg_seek.value(), 1e-3);
  w.number("disk.rpm", c.node.disk.rpm);
  w.scaled("disk.transfer_mbps", c.node.disk.transfer_rate.value(), 1e6);
  w.scaled("disk.capacity_gib", c.node.disk.capacity.value(), kGib);
  w.count("disks", c.node.disks);
  w.number("power.cpu_idle_w", c.node.power.cpu.idle.value());
  w.number("power.cpu_max_w", c.node.power.cpu.max_load.value());
  w.number("power.memory_background_w",
           c.node.power.memory.background.value());
  w.number("power.memory_max_w", c.node.power.memory.max_active.value());
  w.number("power.disk_idle_w", c.node.power.disk.idle.value());
  w.number("power.disk_active_w", c.node.power.disk.active.value());
  w.number("power.nic_idle_w", c.node.power.nic.idle.value());
  w.number("power.nic_active_w", c.node.power.nic.active.value());
  w.number("power.board_w", c.node.power.board_overhead.value());
  w.number("power.psu_rated_w", c.node.power.psu.rated_dc.value());
  w.number("power.psu_eff_20", c.node.power.psu.efficiency_at_20pct);
  w.number("power.psu_eff_50", c.node.power.psu.efficiency_at_50pct);
  w.number("power.psu_eff_100", c.node.power.psu.efficiency_at_100pct);
  w.text("interconnect.name", c.interconnect.name);
  w.scaled("interconnect.latency_us", c.interconnect.latency.value(), 1e-6);
  w.scaled("interconnect.bandwidth_mbps", c.interconnect.bandwidth.value(),
           1e6);
  w.number("interconnect.congestion", c.interconnect.congestion_factor);
  w.scaled("storage.backend_mbps", c.storage.backend_bandwidth.value(), 1e6);
  w.scaled("storage.per_client_mbps", c.storage.per_client_bandwidth.value(),
           1e6);
  w.number("storage.contention", c.storage.contention);
  w.number("switch_power_w", c.switch_power.value());
  return out;
}

}  // namespace tgi::sim
