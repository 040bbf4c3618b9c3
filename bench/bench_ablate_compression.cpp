// Ablation: staging-codec data reduction. Sweeps every registered codec
// over the three payload families that cross the staging path — a smooth
// S3D diagnostic field, segmentation labels, and serialized merge-tree
// arcs — reporting compression ratio, encode/decode throughput, and the
// modeled Gemini transfer seconds each codec saves. Results also land in
// BENCH_compression.json for downstream tooling.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/topology/local_tree.hpp"
#include "analysis/topology/segmentation.hpp"
#include "bench_common.hpp"
#include "compress/codec.hpp"
#include "runtime/comm.hpp"
#include "runtime/network_model.hpp"
#include "sim/s3d.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace hia;

struct Payload {
  std::string name;
  std::vector<double> values;
};

struct Result {
  std::string payload;
  std::string codec;
  size_t raw_bytes = 0;
  size_t wire_bytes = 0;
  double encode_MBps = 0.0;
  double decode_MBps = 0.0;
  double modeled_raw_s = 0.0;
  double modeled_wire_s = 0.0;
  double max_abs_err = 0.0;
  [[nodiscard]] double ratio() const {
    return wire_bytes == 0 ? 1.0
                           : static_cast<double>(raw_bytes) /
                                 static_cast<double>(wire_bytes);
  }
};

/// The three payload families, all derived from a short single-rank MiniS3D
/// run so the value distributions match what the campaign actually stages.
std::vector<Payload> make_payloads() {
  S3DParams params;
  params.grid = GlobalGrid{{48, 32, 24}, {1.0, 0.75, 0.5}};
  params.ranks_per_axis = {1, 1, 1};
  S3DRank sim(params, 0);
  sim.initialize();
  World world(1);
  world.run([&](Comm& comm) {
    for (int s = 0; s < 2; ++s) sim.advance(comm);
  });

  std::vector<Payload> payloads;
  const std::vector<double> field = sim.heat_release().pack_owned();
  payloads.push_back({"s3d field", field});

  // Segmentation labels: long constant runs, the RLE sweet spot.
  const Box3 box = params.grid.bounds();
  double lo = field[0], hi = field[0];
  for (const double v : field) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const Segmentation seg =
      segment_superlevel(box, field, lo + 0.6 * (hi - lo));
  std::vector<double> labels;
  labels.reserve(seg.labels.size());
  for (const int32_t l : seg.labels) labels.push_back(l);
  payloads.push_back({"segmentation labels", std::move(labels)});

  // Merge-tree arc indices: the sorted vertex ids plus the arc endpoint
  // list — the integral index payloads delta-varint is built for.
  const SubtreeData subtree =
      compute_rank_subtree(params.grid, box, field, box);
  std::vector<uint64_t> ids = subtree.vertex_ids;
  std::sort(ids.begin(), ids.end());
  std::vector<double> arcs;
  arcs.reserve(ids.size() + subtree.edge_child.size() * 2);
  for (const uint64_t id : ids) arcs.push_back(static_cast<double>(id));
  for (size_t e = 0; e < subtree.edge_child.size(); ++e) {
    arcs.push_back(subtree.edge_child[e]);
    arcs.push_back(subtree.edge_parent[e]);
  }
  payloads.push_back({"tree arcs", std::move(arcs)});
  return payloads;
}

Result measure(const Payload& payload, const std::string& spec,
               const NetworkModel& net) {
  const auto codec = make_codec(spec);
  Result r;
  r.payload = payload.name;
  r.codec = spec;
  r.raw_bytes = payload.values.size() * sizeof(double);

  Stopwatch encode_watch;
  const std::vector<std::byte> frame = codec->encode(payload.values);
  const double encode_s = encode_watch.seconds();
  r.wire_bytes = frame.size();

  Stopwatch decode_watch;
  const std::vector<double> decoded =
      decode_frame(frame, payload.values.size());
  const double decode_s = decode_watch.seconds();

  const double mb = static_cast<double>(r.raw_bytes) / 1.0e6;
  r.encode_MBps = encode_s > 0.0 ? mb / encode_s : 0.0;
  r.decode_MBps = decode_s > 0.0 ? mb / decode_s : 0.0;
  r.modeled_raw_s = net.transfer_seconds(r.raw_bytes);
  r.modeled_wire_s = net.transfer_seconds(r.wire_bytes);
  for (size_t i = 0; i < payload.values.size(); ++i) {
    const double a = payload.values[i], b = decoded[i];
    if (std::isfinite(a) && std::isfinite(b)) {
      r.max_abs_err = std::max(r.max_abs_err, std::abs(a - b));
    }
  }
  return r;
}

void write_json(const std::vector<Result>& results) {
  std::FILE* f = std::fopen("BENCH_compression.json", "w");
  if (f == nullptr) {
    std::printf("  (could not open BENCH_compression.json for writing)\n");
    return;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(
        f,
        "  {\"payload\": \"%s\", \"codec\": \"%s\", \"raw_bytes\": %zu, "
        "\"wire_bytes\": %zu, \"ratio\": %.4f, \"encode_MBps\": %.2f, "
        "\"decode_MBps\": %.2f, \"modeled_raw_s\": %.8f, "
        "\"modeled_wire_s\": %.8f, \"modeled_saved_s\": %.8f, "
        "\"max_abs_err\": %.3e}%s\n",
        r.payload.c_str(), r.codec.c_str(), r.raw_bytes, r.wire_bytes,
        r.ratio(), r.encode_MBps, r.decode_MBps, r.modeled_raw_s,
        r.modeled_wire_s, r.modeled_raw_s - r.modeled_wire_s, r.max_abs_err,
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("  wrote BENCH_compression.json (%zu records)\n\n",
              results.size());
}

}  // namespace

int main(int argc, char** argv) {
  hia::bench::ObsCli obs_cli =
      hia::bench::ObsCli::parse(argc, argv, "ablate_compression");
  using hia::bench::print_header;
  using hia::bench::shape_check;

  print_header("staging codec ablation (modeled Gemini transfer)");

  const NetworkModel net;  // default Gemini parameters
  const std::vector<Payload> payloads = make_payloads();
  const std::vector<std::string> specs{"raw", "rle", "delta",
                                       "quantize:1e-6", "quantize:1e-2"};

  std::vector<Result> results;
  Table table({"payload", "codec", "raw size", "wire size", "ratio",
               "encode MB/s", "decode MB/s", "saved (ms)", "max |err|"});
  for (const Payload& p : payloads) {
    for (const std::string& spec : specs) {
      const Result r = measure(p, spec, net);
      table.add_row(
          {r.payload, r.codec, fmt_bytes(static_cast<double>(r.raw_bytes)),
           fmt_bytes(static_cast<double>(r.wire_bytes)),
           fmt_fixed(r.ratio(), 2) + "x", fmt_fixed(r.encode_MBps, 0),
           fmt_fixed(r.decode_MBps, 0),
           fmt_fixed((r.modeled_raw_s - r.modeled_wire_s) * 1e3, 3),
           r.max_abs_err == 0.0 ? "0" : fmt_fixed(r.max_abs_err, 8)});
      results.push_back(r);
    }
  }
  std::printf("%s\n", table.render().c_str());
  write_json(results);

  auto find = [&](const std::string& payload,
                  const std::string& codec) -> const Result& {
    for (const Result& r : results) {
      if (r.payload == payload && r.codec == codec) return r;
    }
    std::fprintf(stderr, "missing result %s/%s\n", payload.c_str(),
                 codec.c_str());
    std::abort();
  };

  const Result& qfield = find("s3d field", "quantize:1e-6");
  shape_check("quantize:1e-6 reduces S3D field wire bytes >= 2x vs raw",
              qfield.ratio() >= 2.0);
  shape_check("quantize:1e-6 respects its error bound on the field",
              qfield.max_abs_err <= 1e-6);
  shape_check("rle dominates on segmentation labels",
              find("segmentation labels", "rle").ratio() >
                  find("segmentation labels", "raw").ratio());
  shape_check("delta varint shrinks serialized tree arcs",
              find("tree arcs", "delta").ratio() > 1.0);
  bool lossless_exact = true;
  for (const Result& r : results) {
    if (r.codec != "quantize:1e-6" && r.codec != "quantize:1e-2" &&
        r.max_abs_err != 0.0) {
      lossless_exact = false;
    }
  }
  shape_check("lossless codecs are bit-exact on every payload",
              lossless_exact);
  shape_check("modeled transfer time falls with wire bytes",
              qfield.modeled_wire_s < qfield.modeled_raw_s);
  std::printf("\n");
  obs_cli.finish();
  return 0;
}
