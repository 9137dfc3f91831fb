// ClusterSpec config-file round trips.
#include "sim/spec_io.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "generated_cluster.h"
#include "sim/catalog.h"
#include "util/error.h"
#include "util/rng.h"

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

TEST(SpecIo, PsuEfficienciesOutsideTheUnitIntervalAreRejected) {
  // An efficiency above 1 would make wall power smaller than the DC load,
  // and 0 divides by zero: either must fail at load, naming the key.
  const std::string accel = cluster_to_config(accelerator_heavy_cluster());
  const auto with = [&accel](const std::string& key, const char* value) {
    std::string text = accel;
    const std::size_t start = text.find("\n" + key + " = ");
    const std::size_t end = text.find('\n', start + 1);
    text.replace(start, end - start, "\n" + key + " = " + value);
    return util::Config::parse(text);
  };
  for (const auto& [key, value] :
       {std::pair<std::string, const char*>{"power.psu_eff_50", "1.5"},
        {"power.psu_eff_20", "0"}}) {
    try {
      (void)cluster_from_config(with(key, value));
      ADD_FAILURE() << key << " = " << value << " loaded";
    } catch (const util::PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(key + " must be in (0, 1]"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(cluster_from_config(with("power.psu_eff_100", "1"))
                .node.power.psu.efficiency_at_100pct,
            1.0);
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

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Asserts `back` holds every field of `want` exactly.
void expect_same_spec(const ClusterSpec& back, const ClusterSpec& want) {
  for (const generated::DoubleField& f : generated::double_fields()) {
    EXPECT_EQ(bits(f.get(back)), bits(f.get(want)))
        << f.key << ": " << f.get(back) << " vs " << f.get(want);
  }
  EXPECT_EQ(back.name, want.name);
  EXPECT_EQ(back.nodes, want.nodes);
  EXPECT_EQ(back.node.cpu.model, want.node.cpu.model);
  EXPECT_EQ(back.node.cpu.cores, want.node.cpu.cores);
  EXPECT_EQ(back.node.sockets, want.node.sockets);
  EXPECT_EQ(back.node.disks, want.node.disks);
  EXPECT_EQ(back.interconnect.name, want.interconnect.name);
}

TEST(SpecIo, GeneratedSpecsRoundTripBitForBit) {
  // The engine hands a worker its cluster as this text, and the text is
  // part of every cache key: it must reproduce each double exactly,
  // extreme magnitudes and unit-scaled quantities included.
  util::Xoshiro256 rng(0xc1a55eedULL);
  std::size_t extremes = 0;
  std::vector<ClusterSpec> specs{fire_cluster(), system_g(),
                                 low_power_cluster(),
                                 commodity_gige_cluster(),
                                 accelerator_heavy_cluster(),
                                 departmental_cluster(), ClusterSpec{}};
  for (int trial = 0; trial < 400; ++trial) {
    specs.push_back(generated::generated_cluster(rng, /*extremes=*/true));
  }
  for (const ClusterSpec& spec : specs) {
    const std::string text = cluster_to_config(spec);
    SCOPED_TRACE(text);
    // Every value came from a config number, so none needs the comment.
    ASSERT_EQ(text.find('#'), std::string::npos);
    const ClusterSpec back = cluster_from_config(util::Config::parse(text));
    expect_same_spec(back, spec);
    EXPECT_EQ(cluster_to_config(back), text);
    if (::testing::Test::HasFailure()) return;
    for (const generated::DoubleField& f : generated::double_fields()) {
      const double magnitude = std::fabs(f.get(spec));
      if (magnitude != 0.0 && std::fabs(std::log10(magnitude)) > 250) {
        ++extremes;
      }
    }
  }
  EXPECT_GT(extremes, 500u);  // the generator reaches both extremes often
}

TEST(SpecIo, ScaledQuantitiesAreWrittenAsTheShortestExactNumber) {
  // 7.85 ms scales to a seek time whose plain quotient, back in ms, reads
  // 7.849999999999999; both numbers reproduce the SI value, so the file
  // keeps the one the user wrote. Likewise 0.97 us of latency.
  const std::string text = cluster_to_config(cluster_from_config(
      util::Config::parse("disk.seek_ms = 7.85\n"
                          "interconnect.latency_us = 0.97\n")));
  EXPECT_NE(text.find("\ndisk.seek_ms = 7.85\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\ninterconnect.latency_us = 0.97\n"),
            std::string::npos)
      << text;
}

TEST(SpecIo, AnSiValueNoConfigNumberReachesStaysDistinct) {
  // Around 16.5 GB/s one ulp of the gbps number scales to about two ulps
  // of the byte/s value, so about every other SI value has no config
  // number: its text carries the exact value in a comment, and reads back
  // as an expressible neighbour.
  ClusterSpec spec = fire_cluster();
  spec.node.memory_bandwidth = util::gigabytes_per_sec(16.5);
  std::set<std::string> texts;
  std::size_t commented = 0;
  for (int step = 0; step < 16; ++step) {
    const std::string text = cluster_to_config(spec);
    EXPECT_TRUE(texts.insert(text).second) << "step " << step;
    const ClusterSpec back = cluster_from_config(util::Config::parse(text));
    const double want = spec.node.memory_bandwidth.value();
    const double got = back.node.memory_bandwidth.value();
    if (text.find("# exact SI value") != std::string::npos) {
      ++commented;
      EXPECT_NE(got, want);
      EXPECT_LE(std::fabs(got - want), 2 * (std::nextafter(want, HUGE_VAL) -
                                            want));
    } else {
      EXPECT_EQ(bits(got), bits(want)) << "step " << step;
    }
    spec.node.memory_bandwidth =
        util::ByteRate(std::nextafter(want, HUGE_VAL));
  }
  EXPECT_GT(commented, 0u);
  EXPECT_LT(commented, 16u);
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
