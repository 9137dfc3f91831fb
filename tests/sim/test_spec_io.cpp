// ClusterSpec config-file round trips.
#include "sim/spec_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include "sim/catalog.h"
#include "util/error.h"

namespace tgi::sim {
namespace {

TEST(SpecIo, MinimalFileUsesDefaults) {
  const ClusterSpec c =
      cluster_from_config(util::Config::parse("name = Minimal\n"));
  EXPECT_EQ(c.name, "Minimal");
  EXPECT_GT(c.peak_flops().value(), 0.0);
  EXPECT_GT(c.power_model().idle_wall_power().value(), 0.0);
}

TEST(SpecIo, ParsesFullSpec) {
  const ClusterSpec c = cluster_from_config(util::Config::parse(R"(
    name = TestBox
    nodes = 4
    cpu.cores = 8
    cpu.ghz = 2.5
    cpu.flops_per_cycle = 8
    sockets = 2
    memory_gib = 64
    memory_bandwidth_gbps = 40
    interconnect = qdr-ib
    power.cpu_idle_w = 30
    power.cpu_max_w = 120
    storage.backend_mbps = 200
    switch_power_w = 150
  )"));
  EXPECT_EQ(c.nodes, 4u);
  EXPECT_EQ(c.total_cores(), 64u);
  EXPECT_DOUBLE_EQ(c.peak_flops().value(), 4.0 * 2.0 * 8.0 * 2.5e9 * 8.0);
  EXPECT_EQ(c.interconnect.name, "QDR-InfiniBand");
  EXPECT_DOUBLE_EQ(c.node.power.cpu.idle.value(), 30.0);
  EXPECT_DOUBLE_EQ(c.storage.backend_bandwidth.value(), 200e6);
  EXPECT_DOUBLE_EQ(c.switch_power.value(), 150.0);
  // Derived consistency: the power model's nominal clock follows cpu.ghz.
  EXPECT_DOUBLE_EQ(c.node.power.cpu.nominal_ghz, 2.5);
  EXPECT_EQ(c.node.power.sockets, 2u);
}

TEST(SpecIo, CustomInterconnect) {
  const ClusterSpec c = cluster_from_config(util::Config::parse(R"(
    interconnect.name = myrinet
    interconnect.latency_us = 4.5
    interconnect.bandwidth_mbps = 250
    interconnect.congestion = 0.8
  )"));
  EXPECT_EQ(c.interconnect.name, "myrinet");
  EXPECT_NEAR(c.interconnect.latency.value(), 4.5e-6, 1e-12);
  EXPECT_DOUBLE_EQ(c.interconnect.bandwidth.value(), 250e6);
  EXPECT_DOUBLE_EQ(c.interconnect.congestion_factor, 0.8);
}

TEST(SpecIo, RejectsUnknownFabric) {
  EXPECT_THROW(
      cluster_from_config(util::Config::parse("interconnect = token-ring\n")),
      util::PreconditionError);
}

TEST(SpecIo, NonFiniteNumbersAreRejected) {
  // A quantity set to inf, nan or past the double range must fail where
  // the number is read, before it can price a TGI.
  const std::string fire = cluster_to_config(fire_cluster());
  ASSERT_NO_THROW(cluster_from_config(util::Config::parse(fire)));
  for (const auto& [key, value] :
       {std::pair<std::string, std::string>{"memory_bandwidth_gbps", "inf"},
        {"storage.contention", "nan"},
        {"cpu.ghz", "1e400"}}) {
    std::string text = fire;
    const std::size_t start = text.find("\n" + key + " = ");
    ASSERT_NE(start, std::string::npos) << key;
    const std::size_t end = text.find('\n', start + 1);
    text.replace(start, end - start, "\n" + key + " = " + value);
    EXPECT_THROW(cluster_from_config(util::Config::parse(text)),
                 util::PreconditionError)
        << key << " = " << value;
  }
}

TEST(SpecIo, RoundTripsCatalogMachines) {
  for (const ClusterSpec& original :
       {fire_cluster(), system_g(), low_power_cluster()}) {
    const ClusterSpec reparsed = cluster_from_config(
        util::Config::parse(cluster_to_config(original)));
    EXPECT_EQ(reparsed.name, original.name);
    EXPECT_EQ(reparsed.nodes, original.nodes);
    EXPECT_EQ(reparsed.total_cores(), original.total_cores());
    EXPECT_NEAR(reparsed.peak_flops().value(),
                original.peak_flops().value(),
                original.peak_flops().value() * 1e-5);
    EXPECT_NEAR(reparsed.power_model().idle_wall_power().value(),
                original.power_model().idle_wall_power().value(),
                original.power_model().idle_wall_power().value() * 1e-5);
    EXPECT_NEAR(reparsed.storage.aggregate_bandwidth(2).value(),
                original.storage.aggregate_bandwidth(2).value(),
                original.storage.aggregate_bandwidth(2).value() * 1e-5);
  }
}

TEST(SpecIo, LoadsFromFile) {
  const std::string path = ::testing::TempDir() + "/tgi_cluster.conf";
  {
    std::ofstream out(path);
    out << "name = FromFile\nnodes = 2\n";
  }
  const ClusterSpec c = load_cluster_file(path);
  EXPECT_EQ(c.name, "FromFile");
  EXPECT_EQ(c.nodes, 2u);
  std::remove(path.c_str());
  EXPECT_THROW(load_cluster_file("/nonexistent/x.conf"),
               util::PreconditionError);
}

}  // namespace
}  // namespace tgi::sim
