// Cross-module property tests: invariants that tie several subsystems
// together, exercised with randomized inputs (fixed seeds for
// reproducibility).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>
#include <random>

#include "analysis/stats/contingency.hpp"
#include "analysis/stats/descriptive.hpp"
#include "analysis/topology/feature_stats.hpp"
#include "analysis/topology/local_tree.hpp"
#include "analysis/topology/segmentation.hpp"
#include "analysis/viz/downsample.hpp"
#include "analysis/viz/image.hpp"
#include "analysis/viz/isosurface.hpp"
#include "core/framework.hpp"
#include "core/histogram_pipeline.hpp"
#include "core/stats_pipeline.hpp"
#include "core/timeseries_pipeline.hpp"
#include "core/topology_pipeline.hpp"
#include "io/bp_lite.hpp"
#include "planner/replay.hpp"
#include "runtime/fault.hpp"
#include "runtime/network_model.hpp"
#include "runtime/overload.hpp"
#include "sim/analytic_fields.hpp"
#include "util/numeric.hpp"
#include "util/rng.hpp"

namespace hia {
namespace {

class SeededProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeededProperty, MomentsAreOrderInvariant) {
  Xoshiro256 rng(GetParam());
  std::vector<double> xs(2000);
  for (auto& x : xs) x = rng.normal() * 5.0 + 1.0;

  const auto forward = stats_learn(xs);
  std::vector<double> shuffled = xs;
  std::mt19937 shuffle_rng(static_cast<unsigned>(GetParam()));
  std::shuffle(shuffled.begin(), shuffled.end(), shuffle_rng);
  const auto permuted = stats_learn(shuffled);

  EXPECT_EQ(forward.count(), permuted.count());
  EXPECT_NEAR(forward.mean(), permuted.mean(), 1e-11);
  EXPECT_NEAR(forward.m2(), permuted.m2(), std::abs(forward.m2()) * 1e-9);
  EXPECT_NEAR(forward.m4(), permuted.m4(), std::abs(forward.m4()) * 1e-8);
  EXPECT_DOUBLE_EQ(forward.min(), permuted.min());
  EXPECT_DOUBLE_EQ(forward.max(), permuted.max());
}

TEST_P(SeededProperty, TreeLeavesMatchSegmentationAtEveryLevel) {
  // For random noise fields: #superlevel components == #live branches.
  GlobalGrid grid{{10, 10, 10}, {1, 1, 1}};
  Field field("f", grid.bounds());
  fill_noise(field, GetParam());
  const auto values = field.pack_owned();
  const MergeTree tree = build_local_tree(grid, grid.bounds(), values);
  const auto pairs = persistence_pairs(tree.reduced());

  for (const double iso : {0.15, 0.35, 0.55, 0.75, 0.95}) {
    const auto seg = segment_superlevel(grid.bounds(), values, iso);
    size_t live = 0;
    for (const auto& p : pairs) {
      if (p.max_value >= iso && p.saddle_value < iso) ++live;
    }
    EXPECT_EQ(seg.features.size(), live) << "iso " << iso;
  }
}

TEST_P(SeededProperty, BpLiteFuzzRoundTrip) {
  Xoshiro256 rng(GetParam() + 77);
  std::vector<BpEntry> entries;
  const int n = 1 + static_cast<int>(rng.below(6));
  for (int e = 0; e < n; ++e) {
    BpEntry entry;
    entry.name = "var_" + std::to_string(rng.below(1000));
    for (int a = 0; a < 3; ++a) {
      entry.box.lo[a] = static_cast<int64_t>(rng.below(10));
      entry.box.hi[a] = entry.box.lo[a] + static_cast<int64_t>(rng.below(6));
    }
    const size_t count = rng.below(200);
    for (size_t i = 0; i < count; ++i) entry.values.push_back(rng.normal());
    entries.push_back(std::move(entry));
  }
  const auto parsed = bp_parse(bp_serialize(entries));
  ASSERT_EQ(parsed.size(), entries.size());
  for (size_t e = 0; e < entries.size(); ++e) {
    EXPECT_EQ(parsed[e].name, entries[e].name);
    EXPECT_EQ(parsed[e].box, entries[e].box);
    EXPECT_EQ(parsed[e].values, entries[e].values);
  }
}

TEST_P(SeededProperty, SubtreeSerializationFuzz) {
  GlobalGrid grid{{12, 10, 8}, {1, 1, 1}};
  Field field("f", grid.bounds());
  fill_noise(field, GetParam() + 5);
  Decomposition decomp(grid, {2, 2, 1});
  for (int r = 0; r < decomp.num_ranks(); ++r) {
    const Box3 ext = extended_block(grid, decomp.block(r));
    const SubtreeData sub =
        compute_rank_subtree(grid, decomp.block(r), field.pack(ext), ext);
    const SubtreeData round = SubtreeData::deserialize(sub.serialize());
    EXPECT_EQ(round.vertex_ids, sub.vertex_ids);
    EXPECT_EQ(round.vertex_values, sub.vertex_values);
    EXPECT_EQ(round.interior, sub.interior);
    EXPECT_EQ(round.edge_child, sub.edge_child);
    EXPECT_EQ(round.edge_parent, sub.edge_parent);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

TEST(Compositing, UnderOperatorIsAssociative) {
  // (a under (b under c)) == ((a under b) under c) per pixel.
  auto make = [](float r, float a) {
    Image img(1, 1);
    img.at(0, 0) = Rgba{r * a, 0, 0, a};  // premultiplied
    return img;
  };
  const Image a = make(1.0f, 0.3f), b = make(0.5f, 0.5f), c = make(0.2f, 0.7f);

  Image left_inner = c;     // back
  left_inner.under(b);
  Image left = left_inner;  // then a in front
  left.under(a);

  Image right_inner = b;
  right_inner.under(a);     // front pair pre-composited
  Image right = c;
  // Compose the pre-composited front pair over c: under() puts argument in
  // front, so this is exactly (a over b) over c.
  right.under(right_inner);

  EXPECT_NEAR(left.at(0, 0).r, right.at(0, 0).r, 1e-6f);
  EXPECT_NEAR(left.at(0, 0).a, right.at(0, 0).a, 1e-6f);
}

TEST(NetworkModel, NoIncentiveToSplitBulkTransfers) {
  // Splitting one BTE transfer into k smaller ones never reduces the
  // modeled time (per-message latency is paid k times).
  NetworkModel net;
  const size_t bytes = 10u << 20;
  const double whole = net.transfer_seconds(bytes);
  for (const int k : {2, 4, 16}) {
    const double split =
        k * net.transfer_seconds(bytes / static_cast<size_t>(k));
    EXPECT_GE(split, whole - 1e-12);
  }
}

TEST(TimeSeries, AutocorrelationTracksGlobalMeanSeries) {
  RunConfig cfg;
  cfg.sim.grid = GlobalGrid{{20, 14, 14}, {1.0, 0.7, 0.7}};
  cfg.sim.ranks_per_axis = {2, 1, 1};
  cfg.steps = 8;

  HybridRunner runner(cfg);
  TimeSeriesConfig tcfg;
  tcfg.variable = Variable::kTemperature;
  tcfg.lags = {1, 3};
  auto analysis = std::make_shared<TimeSeriesAutocorrelation>(tcfg);
  runner.add_analysis(analysis);
  (void)runner.run();

  const auto series = analysis->series();
  ASSERT_EQ(series.size(), 8u);
  // Temperature mean rises monotonically as kernels inject heat.
  for (double v : series) EXPECT_GT(v, 0.0);

  // Verify against a serial recomputation of the same run.
  S3DParams solo = cfg.sim;
  solo.ranks_per_axis = {1, 1, 1};
  std::vector<double> reference;
  {
    World world(1);
    world.run([&](Comm& comm) {
      S3DRank sim(solo, 0);
      sim.initialize();
      for (long s = 0; s < cfg.steps; ++s) {
        sim.advance(comm);
        double sum = 0.0;
        for (const double v :
             sim.field(Variable::kTemperature).pack_owned()) {
          sum += v;
        }
        reference.push_back(sum /
                            static_cast<double>(solo.grid.num_points()));
      }
    });
  }
  for (size_t s = 0; s < series.size(); ++s) {
    EXPECT_NEAR(series[s], reference[s], 1e-11);
  }

  // A smooth upward series is strongly lag-1 autocorrelated.
  const auto acs = analysis->autocorrelations();
  ASSERT_FALSE(acs.empty());
  EXPECT_EQ(acs[0].first, 1u);
  EXPECT_GT(acs[0].second, 0.8);
}

TEST(Determinism, WholeCampaignIsReproducible) {
  // Two identical campaigns produce identical science outputs.
  auto run_once = [] {
    RunConfig cfg;
    cfg.sim.grid = GlobalGrid{{20, 14, 14}, {1.0, 0.7, 0.7}};
    cfg.sim.ranks_per_axis = {2, 1, 1};
    cfg.steps = 3;
    HybridRunner runner(cfg);
    auto stats = std::make_shared<HybridStatistics>(
        std::vector<Variable>{Variable::kTemperature, Variable::kYH2O});
    runner.add_analysis(stats);
    (void)runner.run();
    return stats->latest_models();
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.size(), b.size());
  for (size_t v = 0; v < a.size(); ++v) {
    EXPECT_EQ(a[v].count, b[v].count);
    EXPECT_DOUBLE_EQ(a[v].mean, b[v].mean);
    EXPECT_DOUBLE_EQ(a[v].variance, b[v].variance);
    EXPECT_DOUBLE_EQ(a[v].min, b[v].min);
    EXPECT_DOUBLE_EQ(a[v].max, b[v].max);
  }
}

// A count text drawn from the shapes that break a bare double-to-integer
// cast: huge, negative, fractional, non-finite, suffixed and malformed.
std::string random_count_text(SplitMix64& rng) {
  static const char* const kSpecial[] = {
      "", "nan", "inf", "-inf", "-0", "0x10", "1e300", "-5", "4294967297",
      "1e12", "1e30", "2.5", "2147483648", "9223372036854775808",
      "18446744073709551616", "k", "1kk", "4x", "1e-3k", "0.5k"};
  static const char* const kSuffix[] = {"", "", "", "k", "m", "g", "G", "x"};
  const uint64_t draw = rng.next();
  std::string text;
  switch (draw % 3) {
    case 0:
      return kSpecial[(draw >> 8) % std::size(kSpecial)];
    case 1:
      text = std::to_string(rng.next() >> ((draw >> 8) % 64));
      break;
    default: {
      char buf[64];
      const int exponent = static_cast<int>((draw >> 8) % 40) - 10;
      std::snprintf(buf, sizeof(buf), "%.*g",
                    static_cast<int>((draw >> 16) % 8) + 1,
                    static_cast<double>(rng.next() >> 11) * 0x1.0p-53 *
                        std::pow(10.0, exponent));
      text = buf;
    }
  }
  if ((draw >> 24) % 5 == 0) text = "-" + text;
  return text + kSuffix[(draw >> 32) % std::size(kSuffix)];
}

// Runs one grammar: the field it set, or nullopt when the spec was refused
// with hia::Error. Any other exception escapes and fails the test.
template <typename F>
std::optional<double> accepted(F&& parse) {
  try {
    return parse();
  } catch (const Error&) {
    return std::nullopt;
  }
}

// One field of a grammar: parses a spec and returns what the field holds.
using Parse = std::function<std::optional<double>(const std::string&)>;

template <typename F>
Parse overload(F field) {
  return [field](const std::string& spec) {
    return accepted([&] {
      return static_cast<double>(field(OverloadConfig::parse_spec(spec)));
    });
  };
}

template <typename F>
Parse faults(F field) {
  return [field](const std::string& spec) {
    return accepted([&] {
      return static_cast<double>(field(FaultPlan::parse_spec(spec)));
    });
  };
}

TEST(SpecGrammars, CountFieldsFailOnlyWithAnErrorAndStayInRange) {
  auto plan = [](auto field) -> Parse {
    return [field](const std::string& spec) -> std::optional<double> {
      planner::Scenario sc;
      std::string error;
      if (!planner::parse_scenario(spec, &sc, &error)) {
        EXPECT_FALSE(error.empty()) << spec;
        return std::nullopt;
      }
      return static_cast<double>(field(sc));
    };
  };
  // '#' marks where the drawn text goes.
  const std::vector<std::pair<std::string, Parse>> fields = {
      {"queue-bytes=#",
       overload([](const OverloadConfig& c) { return c.queue_bytes_budget; })},
      {"queue-depth=#",
       overload([](const OverloadConfig& c) { return c.queue_depth_budget; })},
      {"credits=#", overload([](const OverloadConfig& c) { return c.credits; })},
      {"queue-bytes=1,defer-max=#",
       overload([](const OverloadConfig& c) { return c.max_defers; })},
      {"kill-bucket=#@1", faults([](const FaultPlanConfig& c) {
         return c.scripted.at(0).target;
       })},
      {"kill-bucket=1@#", faults([](const FaultPlanConfig& c) {
         return c.scripted.at(0).step;
       })},
      {"overload=#@1", faults([](const FaultPlanConfig& c) {
         return c.scripted.at(0).amount;
       })},
      {"credit-starve=#@1", faults([](const FaultPlanConfig& c) {
         return c.scripted.at(0).amount;
       })},
      {"tenant-hog=1:#@2", faults([](const FaultPlanConfig& c) {
         return c.scripted.at(0).amount;
       })},
      {"attempts=#", faults([](const FaultPlanConfig& c) {
         return c.retry.max_task_attempts;
       })},
      {"seed=#", faults([](const FaultPlanConfig& c) { return c.seed; })},
      {"buckets=#", plan([](const planner::Scenario& s) { return s.buckets; })},
      {"credits=#", plan([](const planner::Scenario& s) { return s.credits; })},
      {"queue-depth=#", plan([](const planner::Scenario& s) { return s.queue_depth; })},
      {"smsg-max=#", plan([](const planner::Scenario& s) { return s.net.smsg_max_bytes; })},
  };

  SplitMix64 rng(0xc0ffee);
  size_t accepted_count = 0;
  for (int iter = 0; iter < 6000; ++iter) {
    const auto& [pattern, parse] = fields[static_cast<size_t>(iter) % fields.size()];
    const std::string text = random_count_text(rng);
    std::string spec = pattern;
    spec.replace(spec.find('#'), 1, text);
    const std::optional<double> got = parse(spec);
    if (!got.has_value()) continue;
    ++accepted_count;
    // Accepted means the field holds exactly the whole number written.
    double written = 0.0;
    ASSERT_TRUE(parse_scaled(text, &written)) << spec;
    EXPECT_EQ(*got, written) << spec;
    EXPECT_GE(*got, 0.0) << spec;
  }
  EXPECT_GT(accepted_count, 100u);  // the sweep reaches the accepting path
}

// Text for a seconds, probability or factor field: the count drafts plus
// values past a chrono duration's range and odd float spellings.
std::string random_real_text(SplitMix64& rng) {
  static const char* const kSpecial[] = {
      "inf", "-inf", "nan", "-nan", "1e999", "1e300", "0x1p2000", "1e6",
      "1000000.5", "999999.99", "1e-320", "0x1p-3", "0.5", "1", ".25", "1.",
      "1e", "0.5s", " 1", "1 ", "+0.25", "-0"};
  const uint64_t draw = rng.next();
  if (draw % 4 == 0) return kSpecial[(draw >> 8) % std::size(kSpecial)];
  return random_count_text(rng);
}

TEST(SpecGrammars, RealFieldsFailOnlyWithAnErrorAndStayInRange) {
  struct Field {
    const char* pattern;  // '#' marks where the drawn text goes
    Parse parse;
    double lo, hi;  // the accepted range, inclusive
  };
  const std::vector<Field> fields = {
      {"drop=#", faults([](const FaultPlanConfig& c) { return c.frame_drop_prob; }), 0, 1},
      {"corrupt=#", faults([](const FaultPlanConfig& c) { return c.frame_corrupt_prob; }), 0, 1},
      {"delay=#", faults([](const FaultPlanConfig& c) { return c.frame_delay_prob; }), 0, 1},
      {"delay=0.5:#", faults([](const FaultPlanConfig& c) { return c.frame_delay_s; }), 0, 1e6},
      {"task-fail=#", faults([](const FaultPlanConfig& c) { return c.task_fail_prob; }), 0, 1},
      {"task-fail=0.1:#", faults([](const FaultPlanConfig& c) { return c.retry.task_timeout_s; }), 0, 1e6},
      {"slow-bucket=0:#", faults([](const FaultPlanConfig& c) { return c.bucket_slowdowns.at(0).factor; }), 1, 1e6},
      {"backoff=#:1e6", faults([](const FaultPlanConfig& c) { return c.retry.backoff_base_s; }), 0, 1e6},
      {"backoff=1e-3:#", faults([](const FaultPlanConfig& c) { return c.retry.backoff_cap_s; }), 1e-3, 1e6},
      {"low=#", overload([](const OverloadConfig& c) { return c.low_watermark; }), 0, 0.9},
      {"high=#", overload([](const OverloadConfig& c) { return c.high_watermark; }), 0.5, 1},
      {"admit-wait=#", overload([](const OverloadConfig& c) { return c.admit_max_wait_s; }), 0, 1e6},
  };

  SplitMix64 rng(0x5ec0dd5);
  size_t accepted_count = 0;
  for (int iter = 0; iter < 6000; ++iter) {
    const Field& field = fields[static_cast<size_t>(iter) % fields.size()];
    const std::string text = random_real_text(rng);
    std::string spec = field.pattern;
    spec.replace(spec.find('#'), 1, text);
    const std::optional<double> got = field.parse(spec);
    if (!got.has_value()) continue;
    ++accepted_count;
    // Accepted means the field holds the finite, in-range number written.
    EXPECT_TRUE(std::isfinite(*got)) << spec;
    EXPECT_GE(*got, field.lo) << spec;
    EXPECT_LE(*got, field.hi) << spec;
    // An empty optional field (delay=P:) keeps its default.
    if (!text.empty()) {
      EXPECT_EQ(*got, std::strtod(text.c_str(), nullptr)) << spec;
    }
  }
  EXPECT_GT(accepted_count, 100u);  // the sweep reaches the accepting path

  // Durations a chrono conversion cannot hold, and non-numbers.
  for (const char* spec :
       {"task-fail=0.1:inf", "task-fail=0.1:0x1p2000", "slow-bucket=0:inf",
        "delay=0.5:1e999", "stall=0.5:1e300", "task-fail=0.1:nan",
        "slow-bucket=0:nan", "backoff=0.001:inf", "drop=nan"}) {
    EXPECT_THROW(FaultPlan::parse_spec(spec), Error) << spec;
  }
  for (const char* spec : {"admit-wait=inf", "admit-wait=1e300",
                           "admit-wait=nan", "low=nan", "high=inf"}) {
    EXPECT_THROW(OverloadConfig::parse_spec(spec), Error) << spec;
  }
  // A NaN timeout is a bad number, not a negative one.
  try {
    (void)FaultPlan::parse_spec("task-fail=0.1:nan");
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()).find("negative"), std::string::npos)
        << e.what();
  }
}

// One decoder that an in-transit stage runs on pulled (peer-controlled)
// doubles: a valid payload, and a decode that checks what it accepted.
struct PulledDecoder {
  const char* name;
  std::vector<double> valid;
  std::function<void(std::span<const double>)> decode;
};

// Two local features, the second linked to the first's boundary voxel.
LocalFeatureData two_features() {
  LocalFeatureData f;
  MomentAccumulator acc;
  acc.learn(std::vector<double>{0.5, 1.5, 2.0, 4.0});
  std::vector<double> packed(MomentAccumulator::kPackedSize);
  acc.pack(packed.data());
  for (uint64_t c = 0; c < 2; ++c) {
    f.comp_max_id.push_back(10 + c);
    f.comp_max_value.push_back(3.0 + static_cast<double>(c));
    f.comp_voxels.push_back(4);
    f.comp_centroid_sum.insert(f.comp_centroid_sum.end(), {4.0, 8.0, 12.0});
    f.comp_moments.insert(f.comp_moments.end(), packed.begin(), packed.end());
  }
  f.boundary_gid = {10, 11};
  f.boundary_comp = {0, 1};
  f.link_comp = {1};
  f.link_gid = {10};
  return f;
}

std::vector<PulledDecoder> pulled_decoders() {
  std::vector<MomentAccumulator> accs(3);
  for (size_t v = 0; v < accs.size(); ++v) {
    accs[v].learn(std::vector<double>{1.0 + static_cast<double>(v), 2.5, -4.0});
  }
  std::vector<DescriptiveModel> models;
  for (const MomentAccumulator& a : accs) {
    models.push_back(derive_descriptive(a));
  }

  Histogram hist(0.0, 1.0, 6);
  for (const double x : {-0.5, 0.1, 0.15, 0.6, 0.99, 3.0}) hist.update(x);

  ContingencyTable table(4, 3);
  table.update(0, 0);
  table.update(3, 2);
  table.update(3, 2);

  TriangleMesh mesh;
  mesh.vertices = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  mesh.triangles = {{0, 1, 2}, {0, 2, 3}};

  const Box3 box{{0, 0, 0}, {4, 4, 2}};
  const DownsampledBlock block = downsample_block(
      box, std::vector<double>(static_cast<size_t>(box.num_cells()), 1.5), 2);

  Image image(3, 2);
  image.at(1, 1) = Rgba{0.25f, 0.5f, 0.75f, 1.0f};

  TreeSummary summary;
  summary.step = 4;
  summary.tree_nodes = 9;
  summary.tree_leaves = 3;
  summary.top_pairs = {{7, 2.0, 3, 1.0}, {8, 1.5, 3, 1.0}};

  return {
      {"unpack_accumulators", pack_accumulators(accs),
       [](std::span<const double> d) { (void)unpack_accumulators(d); }},
      {"deserialize_models", to_doubles(serialize_models(models)),
       [](std::span<const double> d) {
         (void)deserialize_models(to_bytes(d));
       }},
      {"deserialize_histogram", serialize_histogram(hist),
       [](std::span<const double> d) {
         const Histogram h = deserialize_histogram(d);
         EXPECT_EQ(d.size(), 5 + static_cast<size_t>(h.bins()));
       }},
      {"ContingencyTable::deserialize", table.serialize(),
       [](std::span<const double> d) {
         (void)derive_contingency(ContingencyTable::deserialize(d));
       }},
      {"TriangleMesh::deserialize", mesh.serialize(),
       [](std::span<const double> d) {
         const TriangleMesh m = TriangleMesh::deserialize(d);
         for (const auto& tri : m.triangles) {
           for (const uint32_t idx : tri) EXPECT_LT(idx, m.num_vertices());
         }
       }},
      {"LocalFeatureData::deserialize", two_features().serialize(),
       [](std::span<const double> d) {
         const LocalFeatureData f = LocalFeatureData::deserialize(d);
         for (const uint32_t c : f.boundary_comp) {
           EXPECT_LT(c, f.num_components());
         }
         for (const uint32_t c : f.link_comp) EXPECT_LT(c, f.num_components());
         try {
           (void)combine_features({f});
         } catch (const Error&) {
           // e.g. a mutated link target no longer names a boundary voxel
         }
       }},
      {"DownsampledBlock::deserialize", block.serialize(),
       [](std::span<const double> d) {
         const DownsampledBlock b = DownsampledBlock::deserialize(d);
         for (const int64_t n : b.samples) EXPECT_GE(n, 1);
         EXPECT_EQ(b.values.size(),
                   static_cast<size_t>(b.samples[0] * b.samples[1] *
                                       b.samples[2]));
       }},
      {"deserialize_image", serialize_image(image),
       [](std::span<const double> d) {
         const Image img = deserialize_image(d);
         EXPECT_EQ(d.size(), 2 + img.pixels().size() * 4);
       }},
      {"TreeSummary::deserialize", to_doubles(summary.serialize()),
       [](std::span<const double> d) {
         (void)TreeSummary::deserialize(to_bytes(d));
       }},
  };
}

TEST(PulledDecoders, PeerPayloadsThatOnceEscapedNowFailWithAnError) {
  // A wrapped count (-1 rounds to SIZE_MAX) once passed the size check of
  // each decoder below, by overflowing a product of counts.
  EXPECT_THROW(TriangleMesh::deserialize(std::vector<double>{-1, 2, 0, 0, 0}),
               Error);
  EXPECT_THROW(LocalFeatureData::deserialize(std::vector<double>{-1, 7, 0, 0}),
               Error);
  EXPECT_THROW(DownsampledBlock::deserialize(std::vector<double>{
                   0, 0, 0, 1, 1, 1, 1, -1, -1, 1, 5.0}),
               Error);
  // A component index past the component count once reached an assertion
  // (abort) inside combine_features.
  LocalFeatureData bad_boundary = two_features();
  bad_boundary.boundary_comp[1] = 2;
  EXPECT_THROW(LocalFeatureData::deserialize(bad_boundary.serialize()), Error);
  LocalFeatureData bad_link = two_features();
  bad_link.link_comp[0] = 2;
  EXPECT_THROW(LocalFeatureData::deserialize(bad_link.serialize()), Error);
}

TEST(PulledDecoders, MutatedPayloadsFailOnlyWithAnError) {
  const std::vector<double> specials = {
      -1.0, -0.5, 0.49, 0.5, std::nan(""), INFINITY, -INFINITY, 1e300,
      0x1p53, 0x1p64, 4294967297.0, -0x1p63, 4294967295.0, 2147483648.0};
  SplitMix64 rng(0xdec0de);
  for (const PulledDecoder& dec : pulled_decoders()) {
    ASSERT_NO_THROW(dec.decode(dec.valid)) << dec.name;
    size_t accepted = 0;
    for (int iter = 0; iter < 3000; ++iter) {
      std::vector<double> m = dec.valid;
      const uint64_t draw = rng.next();
      const size_t slot = (draw >> 8) % m.size();
      switch (draw % 6) {
        case 0:  // a header field: counts, dimensions, bounds
          m[(draw >> 8) % std::min<size_t>(m.size(), 10)] =
              (draw >> 16) % 2 == 0
                  ? specials[(draw >> 20) % specials.size()]
                  : static_cast<double>((draw >> 20) % 4096);
          break;
        case 1:
          m[slot] = specials[(draw >> 40) % specials.size()];
          break;
        case 2: {  // a bit flip
          auto bits = std::bit_cast<uint64_t>(m[slot]);
          bits ^= uint64_t{1} << ((draw >> 40) % 64);
          m[slot] = std::bit_cast<double>(bits);
          break;
        }
        case 3:
          m.resize(slot);
          break;
        case 4:
          m.resize(m.size() + 1 + (draw >> 40) % 5,
                   static_cast<double>(draw % 7));
          break;
        default:  // a small integer anywhere: counts, indices and flags
          m[slot] = static_cast<double>((draw >> 40) % 64) - 1.0;
          break;
      }
      try {
        dec.decode(m);
        ++accepted;
      } catch (const Error&) {
      } catch (const std::exception& e) {
        FAIL() << dec.name << " iteration " << iter
               << " escaped as non-hia::Error: " << e.what();
      }
    }
    // Some mutations (a value bit flip) leave a valid payload.
    EXPECT_GT(accepted, 0u) << dec.name;
  }
}

}  // namespace
}  // namespace hia
