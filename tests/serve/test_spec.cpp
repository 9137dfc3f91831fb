// Campaign spec parsing (DESIGN.md §13): the [entry] grammar, its
// defaults, loud failures on malformed input, the worker handoff
// round-trip, and the key-space separation between sweep, faulted, and
// reference runs, down to one ulp of any cluster double.
#include "serve/spec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "generated_cluster.h"
#include "harness/cache.h"
#include "harness/checkpoint.h"
#include "harness/robust.h"
#include "harness/suite.h"
#include "power/meter.h"
#include "sim/catalog.h"
#include "sim/spec_io.h"
#include "util/error.h"
#include "util/rng.h"

namespace tgi::serve {
namespace {

namespace fs = std::filesystem;

std::vector<CampaignSpec> parse(const std::string& text) {
  return parse_campaign(text, "");
}

TEST(CampaignSpec, ParsesEntriesWithDefaults) {
  const auto entries = parse(
      "# comment\n"
      "[alpha]\n"
      "cluster = fire\n"
      "sweep = 16,48\n"
      "\n"
      "[beta]\n"
      "sweep = 80\n"
      "seed = 11\n"
      "meter = model\n"
      "granularity = task\n");
  ASSERT_EQ(entries.size(), 2u);
  const CampaignSpec& alpha = entries[0];
  EXPECT_EQ(alpha.name, "alpha");
  EXPECT_EQ(alpha.cluster.name, sim::fire_cluster().name);
  EXPECT_EQ(alpha.reference.name, sim::system_g().name);
  EXPECT_EQ(alpha.sweep, (std::vector<std::size_t>{16, 48}));
  EXPECT_EQ(alpha.seed, 0x9e3779b9ULL);
  EXPECT_FALSE(alpha.exact_meter);
  EXPECT_FALSE(alpha.faulted());

  // The inert granularity key is still accepted (it changes nothing).
  const CampaignSpec& beta = entries[1];
  EXPECT_EQ(beta.seed, 11u);
  EXPECT_TRUE(beta.exact_meter);
  EXPECT_EQ(canonical_spec_text(beta),
            canonical_spec_text(parse("[beta]\nsweep = 80\nseed = 11\n"
                                      "meter = model\n")[0]));
}

TEST(CampaignSpec, ParsesAndValidatesFaultText) {
  const auto entries = parse(
      "[hot]\n"
      "sweep = 16\n"
      "faults = dropout=0.2,failure=0.1\n");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(entries[0].faulted());
  EXPECT_EQ(entries[0].fault_text, "dropout=0.2,failure=0.1");
  EXPECT_EQ(entries[0].faults().dropout_burst_rate, 0.2);
  EXPECT_STREQ(spec_mode(entries[0]), "robust");
  EXPECT_STREQ(spec_mode(parse("[p]\nsweep = 16\n")[0]), "plain");
  // Malformed fault text dies at PARSE time, not mid-campaign.
  EXPECT_THROW(parse("[x]\nsweep = 16\nfaults = nonsense=1\n"),
               util::TgiError);
}

TEST(CampaignSpec, RejectsMalformedCampaigns) {
  EXPECT_THROW(parse(""), util::TgiError);               // no sections
  EXPECT_THROW(parse("sweep = 16\n"), util::TgiError);   // line before section
  EXPECT_THROW(parse("[a]\n"), util::TgiError);          // missing sweep
  EXPECT_THROW(parse("[a]\nsweep = 0\n"), util::TgiError);
  EXPECT_THROW(parse("[a]\nsweep = 16\nwat = 1\n"), util::TgiError);
  EXPECT_THROW(parse("[a]\nsweep = 16\n[a]\nsweep = 16\n"), util::TgiError);
  EXPECT_THROW(parse("[bad/name]\nsweep = 16\n"), util::TgiError);
  EXPECT_THROW(parse("[a\nsweep = 16\n"), util::TgiError);
  EXPECT_THROW(parse("[a]\nsweep = 16\nmeter = therm\n"), util::TgiError);
  EXPECT_THROW(parse("[a]\nsweep = 16\ngranularity = jumbo\n"),
               util::TgiError);
}

TEST(CampaignSpec, RejectsDotEntryNames) {
  // "." and ".." use only allowed characters, but as an entry's output
  // directory they name outdir itself or its parent.
  EXPECT_THROW(parse("[.]\nsweep = 16\n"), util::TgiError);
  EXPECT_THROW(parse("[..]\nsweep = 16\n"), util::TgiError);
  EXPECT_EQ(parse("[...]\nsweep = 16\n").at(0).name, "...");
  EXPECT_EQ(parse("[.a]\nsweep = 16\n").at(0).name, ".a");
}

TEST(CampaignSpec, RobustConfigMirrorsTgiSweep) {
  const auto wattsup = parse("[a]\nsweep = 16\n")[0];
  EXPECT_EQ(spec_robust_config(wattsup).stuck_run_limit, 8u);
  const auto model = parse("[a]\nsweep = 16\nmeter = model\n")[0];
  EXPECT_EQ(spec_robust_config(model).stuck_run_limit, 0u);
}

TEST(CampaignSpec, SweepValuesMustFitTheCluster) {
  // A negative value used to wrap to 2^64-5; a value past the cluster's
  // cores used to pass parsing and fail mid-run. Both die at parse time
  // with a message naming the valid range.
  try {
    (void)parse("[neg]\nsweep = 16,-5\n");
    ADD_FAILURE() << "negative sweep value accepted";
  } catch (const util::TgiError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "[neg]: sweep value -5 is outside [1, 128]"),
              std::string::npos)
        << e.what();
  }
  try {
    (void)parse("[big]\ncluster = fire\nsweep = 16,129\n");
    ADD_FAILURE() << "sweep value past the cluster's cores accepted";
  } catch (const util::TgiError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "[big]: sweep value 129 is outside [1, 128]"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(parse("[edge]\nsweep = 1,128\n")[0].sweep,
            (std::vector<std::size_t>{1, 128}));
  // The bound is the entry's own cluster, not Fire's.
  EXPECT_EQ(parse("[g]\ncluster = systemg\nsweep = 1024\n")[0].sweep,
            (std::vector<std::size_t>{1024}));
  EXPECT_EQ(checked_sweep({16, 48}, sim::fire_cluster(), "t"),
            (std::vector<std::size_t>{16, 48}));
  EXPECT_THROW((void)checked_sweep({}, sim::fire_cluster(), "t"),
               util::TgiError);
  EXPECT_THROW((void)checked_sweep({0}, sim::fire_cluster(), "t"),
               util::TgiError);
}

TEST(CampaignSpec, WorkerHandoffRejectsAnOversizedSweep) {
  const fs::path root = fs::temp_directory_path() / "tgi_serve_spec_sweep";
  fs::remove_all(root);
  fs::create_directories(root);
  {
    std::ofstream cluster((root / "cluster.conf").string());
    cluster << sim::cluster_to_config(sim::fire_cluster());
    std::ofstream spec((root / "spec.conf").string());
    spec << "cluster = cluster.conf\nsweep = 16,129\n";
  }
  EXPECT_THROW((void)load_worker_spec((root / "spec.conf").string()),
               util::TgiError);
  fs::remove_all(root);
}

TEST(CampaignSpec, MeterPolicyComesFromTheSpec) {
  const auto plain = parse("[a]\nsweep = 16,48\nseed = 7\n")[0];
  const auto faulted =
      parse("[a]\nsweep = 16,48\nseed = 7\nfaults = dropout=0.2\n")[0];
  const power::PowerSource flat = [](util::Seconds) {
    return util::watts(500.0);
  };
  const auto watts = [&flat](power::PowerMeter& meter) {
    return meter.measure(flat, util::seconds(30.0)).average_power.value();
  };
  // Point k's meter starts k strides into the seed's stream; a stride is
  // the measurements one point takes in the spec's mode.
  const harness::SuiteConfig suite;
  for (const CampaignSpec* spec : {&plain, &faulted}) {
    power::WattsUpConfig wcfg;
    wcfg.seed = 7;
    wcfg.run_offset =
        spec->faulted() ? harness::robust_measurements_per_point(
                              suite, spec_robust_config(*spec))
                        : harness::suite_benchmarks(suite).size();
    power::WattsUpMeter expected(wcfg);
    EXPECT_EQ(watts(*spec_meter_factory(*spec)(1)), watts(expected))
        << spec_mode(*spec);
  }
  // The reference run meters with the seed salted by kReferenceSeedSalt
  // (whose value the fig/table goldens pin).
  power::WattsUpConfig salted;
  salted.seed = 7 + kReferenceSeedSalt;
  power::WattsUpMeter expected_reference(salted);
  EXPECT_EQ(watts(*reference_meter(plain)), watts(expected_reference));
  // meter=model is the exact instrument for both.
  const auto model = parse("[m]\nsweep = 16\nmeter = model\n")[0];
  EXPECT_EQ(watts(*spec_meter_factory(model)(3)), 500.0);
  EXPECT_EQ(watts(*reference_meter(model)), 500.0);
}

TEST(CampaignSpec, HashSeparatesSweepFaultedAndReferenceKeySpaces) {
  const auto plain = parse("[a]\ncluster = fire\nsweep = 16,48\n")[0];
  const auto faulted =
      parse("[a]\ncluster = fire\nsweep = 16,48\nfaults = dropout=0.2\n")[0];
  EXPECT_NE(spec_hash(plain), spec_hash(faulted));
  EXPECT_NE(spec_hash(plain), reference_spec_hash(plain));

  // The reference key must never collide with a PLAIN SWEEP of the
  // reference machine at the reference's salted seed — the marker line is
  // the separator.
  EXPECT_EQ(reference_spec_text(plain).rfind("reference=1\n", 0), 0u);
  const std::string sweep_alike = harness::cache_spec_text(
      plain.reference, plain.seed + kReferenceSeedSalt, plain.exact_meter,
      {}, nullptr, 0, {plain.reference.total_cores()});
  EXPECT_EQ("reference=1\n" + sweep_alike, reference_spec_text(plain));
  EXPECT_NE(harness::journal_spec_hash(sweep_alike),
            reference_spec_hash(plain));
}

TEST(CampaignSpec, WorkerHandoffRoundTripsTheCacheKey) {
  const fs::path root =
      fs::temp_directory_path() / "tgi_serve_spec_roundtrip";
  fs::remove_all(root);
  fs::create_directories(root);
  // A cluster file with a 7th decimal: the handoff carries the cluster as
  // text, which must hold every digit, or the worker prices a different
  // machine under the entry's key.
  const std::string low_power =
      sim::cluster_to_config(sim::low_power_cluster());
  const std::string ghz = "\ncpu.ghz = ";
  const std::size_t at = low_power.find(ghz);
  ASSERT_NE(at, std::string::npos);
  {
    std::ofstream seventh((root / "seventh.conf").string());
    seventh << low_power.substr(0, at) << ghz << "0.8500004"
            << low_power.substr(low_power.find('\n', at + 1));
  }
  const auto originals = parse_campaign(
      "[gamma]\n"
      "cluster = fire\n"
      "sweep = 16,48,80\n"
      "seed = 23\n"
      "faults = dropout=0.2,failure=0.1\n"
      "[seventh]\n"
      "cluster = seventh.conf\n"
      "sweep = 16,48,80\n"
      "seed = 7\n",
      root.string());
  ASSERT_EQ(originals[1].cluster.node.cpu.ghz, 0.8500004);
  for (const CampaignSpec& original : originals) {
    {
      std::ofstream cluster((root / "cluster.conf").string());
      cluster << sim::cluster_to_config(original.cluster);
      std::ofstream spec((root / "spec.conf").string());
      spec << worker_spec_config(original, "cluster.conf");
    }
    const CampaignSpec loaded =
        load_worker_spec((root / "spec.conf").string());
    // The handoff must re-parse to bit-identical sweep inputs: same cache
    // key, same cluster, same fault text, same mode.
    EXPECT_EQ(canonical_spec_text(loaded), canonical_spec_text(original))
        << original.name;
    EXPECT_EQ(spec_hash(loaded), spec_hash(original)) << original.name;
    EXPECT_EQ(loaded.cluster.node.cpu.ghz, original.cluster.node.cpu.ghz)
        << original.name;
    EXPECT_EQ(loaded.fault_text, original.fault_text) << original.name;
    EXPECT_EQ(loaded.seed, original.seed) << original.name;
    EXPECT_STREQ(spec_mode(loaded), spec_mode(original)) << original.name;
  }
  fs::remove_all(root);
}

TEST(CampaignSpec, WorkerSpecRejectsTheGranularityKey) {
  // Every sweep runs one path, so the handoff file has no granularity key;
  // a stray one fails loudly like any unknown key.
  const fs::path root = fs::temp_directory_path() / "tgi_serve_spec_keys";
  fs::remove_all(root);
  fs::create_directories(root);
  {
    std::ofstream cluster((root / "cluster.conf").string());
    cluster << sim::cluster_to_config(sim::fire_cluster());
    std::ofstream spec((root / "spec.conf").string());
    spec << "cluster = cluster.conf\nsweep = 16\ngranularity = task\n";
  }
  EXPECT_THROW((void)load_worker_spec((root / "spec.conf").string()),
               util::TgiError);
  EXPECT_EQ(worker_spec_config(parse("[a]\nsweep = 16\n")[0], "c.conf")
                .find("granularity"),
            std::string::npos);
  fs::remove_all(root);
}

TEST(CampaignSpec, AOneUlpChangeToAnyClusterDoubleChangesTheKey) {
  // The key text holds every double exactly, so two specs one ulp apart in
  // any field — of the system under test or of the reference — never share
  // a shard, at any magnitude.
  util::Xoshiro256 rng(0x5eedcafeULL);
  for (int trial = 0; trial < 60; ++trial) {
    CampaignSpec spec;
    spec.cluster = sim::generated::generated_cluster(rng, /*extremes=*/true);
    spec.reference = sim::generated::generated_cluster(rng, true);
    spec.sweep = {1};
    const std::uint64_t key = spec_hash(spec);
    const std::uint64_t reference_key = reference_spec_hash(spec);
    for (const sim::generated::DoubleField& f :
         sim::generated::double_fields()) {
      for (const double direction : {-HUGE_VAL, HUGE_VAL}) {
        CampaignSpec moved = spec;
        f.set(moved.cluster, std::nextafter(f.get(spec.cluster), direction));
        EXPECT_NE(spec_hash(moved), key) << "trial " << trial << " " << f.key;
        moved = spec;
        f.set(moved.reference,
              std::nextafter(f.get(spec.reference), direction));
        EXPECT_NE(reference_spec_hash(moved), reference_key)
            << "trial " << trial << " " << f.key;
      }
    }
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace tgi::serve
