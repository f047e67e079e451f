// Multi-genome screening: the "GenBank-scale" generalization sketched in the
// paper's conclusions — because the seed index is distributed, a reference
// collection too big for any single node's memory can still be indexed and
// screened against.
//
// Scenario: a screening service. The reference collection is indexed ONCE
// (core::IndexedReference); then sample after sample is streamed against it
// through one core::AlignSession — each batch pays only io.reads + align,
// never index reconstruction, which is what makes per-sample screening cheap.
// Each read is attributed to the reference whose alignment scores best;
// per-reference read counts identify every sample's composition.
//
// The second half re-runs the same screening against a SHARDED reference
// (shard::ShardedReference): the collection split into 3 per-runtime index
// shards, composed back into one logical reference. Sample attribution must
// come out the same — sharding decides placement, not results — while each
// shard's build cost is a fraction of the monolithic one.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/align_session.hpp"
#include "core/indexed_reference.hpp"
#include "seq/genome_sim.hpp"
#include "seq/read_sim.hpp"
#include "shard/sharded_reference.hpp"
#include "shard/sharded_session.hpp"

namespace {

using mera::seq::SeqRecord;

std::vector<SeqRecord> make_sample(
    const std::vector<std::string>& genomes,
    const std::vector<std::pair<int, double>>& mix, double junk_depth,
    std::uint64_t seed) {
  std::vector<SeqRecord> sample;
  for (const auto& [g, depth] : mix) {
    mera::seq::ReadSimParams rp;
    rp.read_len = 101;
    rp.depth = depth;
    rp.error_rate = 0.01;
    rp.junk_fraction = 0.0;
    rp.rng_seed = seed++;
    std::string prefix = "g";
    prefix += std::to_string(g) + "_";
    for (auto& r : simulate_reads(genomes[static_cast<std::size_t>(g)], rp)) {
      r.name = prefix + r.name;
      sample.push_back(std::move(r));
    }
  }
  if (junk_depth > 0) {
    mera::seq::ReadSimParams rp;  // junk reads: sampled but fully random
    rp.read_len = 101;
    rp.depth = junk_depth;
    rp.junk_fraction = 1.0;
    rp.rng_seed = seed;
    for (auto& r : simulate_reads(genomes[0], rp)) {
      r.name = "junk_" + r.name;
      sample.push_back(std::move(r));
    }
  }
  return sample;
}

struct Attribution {
  std::vector<int> per_genome;
  int unassigned = 0;
  int misattributed = 0;
};

/// Attribute each read to its best-scoring reference (ground truth is in the
/// read name prefix).
Attribution attribute(const std::vector<mera::core::AlignmentRecord>& alns,
                      const std::vector<SeqRecord>& reads, int n_genomes) {
  std::map<std::string, std::pair<std::uint32_t, int>> best;
  for (const auto& a : alns) {
    auto& b = best[a.query_name];
    if (a.score > b.second) b = {a.target_id, a.score};
  }
  Attribution at;
  at.per_genome.assign(static_cast<std::size_t>(n_genomes), 0);
  for (const auto& r : reads) {
    const auto it = best.find(r.name);
    if (it == best.end()) {
      ++at.unassigned;
      continue;
    }
    const auto gid = it->second.first;
    ++at.per_genome[gid];
    if (r.name[0] == 'g' && r.name[1] != static_cast<char>('0' + gid))
      ++at.misattributed;
  }
  return at;
}

}  // namespace

int main() {
  using namespace mera;

  // A reference collection of 6 unrelated "genomes".
  const int kGenomes = 6;
  std::vector<std::string> genomes;
  std::vector<SeqRecord> references;  // one target per genome here
  for (int g = 0; g < kGenomes; ++g) {
    genomes.push_back(seq::simulate_genome(
        {.length = 120'000, .repeat_fraction = 0.02,
         .rng_seed = 100 + static_cast<std::uint64_t>(g)}));
    SeqRecord rec;
    rec.name = "genome" + std::to_string(g) + ":0-" +
               std::to_string(genomes.back().size());
    rec.seq = genomes.back();
    references.push_back(std::move(rec));
  }

  // Index the collection once. Note the whole reference set is *distributed*
  // — no rank holds more than its shard of the seed index and targets.
  core::IndexConfig icfg;
  icfg.k = 31;
  icfg.fragment_len = 4096;
  pgas::Runtime rt(pgas::Topology(12, 4));
  const auto ref = core::IndexedReference::build(rt, references, icfg);
  std::printf(
      "indexed %d reference genomes (%zu kb) once: %zu index entries, "
      "%.4f simulated s\n",
      kGenomes, kGenomes * genomes[0].size() / 1000, ref.index_entries(),
      ref.build_report().total_time_s());

  core::SessionConfig scfg;
  scfg.max_hits_per_seed = 8;  // screening favours speed over sensitivity
  core::AlignSession session(ref, scfg);

  // Three incoming samples with different (known) compositions.
  struct Sample {
    const char* label;
    std::vector<SeqRecord> reads;
    const char* expected;
  };
  std::vector<Sample> samples;
  samples.push_back({"sample-1",
                     make_sample(genomes, {{2, 1.4}, {5, 0.5}}, 0.1, 201),
                     "~70% genome2, ~25% genome5, ~5% junk"});
  samples.push_back({"sample-2",
                     make_sample(genomes, {{0, 0.9}, {3, 0.9}}, 0.0, 301),
                     "~50% genome0, ~50% genome3"});
  samples.push_back({"sample-3", make_sample(genomes, {{4, 1.8}}, 0.2, 401),
                     "~90% genome4, ~10% junk"});

  std::vector<Attribution> mono_attributions;
  for (const auto& s : samples) {
    core::VectorSink sink(rt.nranks());
    const auto res = session.align_batch(rt, s.reads, sink);
    const auto alignments = sink.take();

    // The per-batch report proves the index was reused: only io.reads and
    // align appear, index.build/index.mark belong to the build above.
    std::printf(
        "\n=== %s: %zu reads, %.4f simulated s "
        "(index reused: batch phases =", s.label, s.reads.size(),
        res.total_time_s());
    for (const auto& ph : res.report.phases)
      if (ph.name != "startup") std::printf(" %s", ph.name.c_str());
    std::printf(") ===\n");

    const Attribution at = attribute(alignments, s.reads, kGenomes);
    mono_attributions.push_back(at);
    std::printf("%-12s %10s %10s\n", "reference", "reads", "share");
    for (int g = 0; g < kGenomes; ++g)
      std::printf("genome%-6d %10d %9.1f%%\n", g, at.per_genome[g],
                  100.0 * at.per_genome[g] / static_cast<double>(s.reads.size()));
    std::printf("%-12s %10d %9.1f%%\n", "unassigned", at.unassigned,
                100.0 * at.unassigned / static_cast<double>(s.reads.size()));
    std::printf("misattributed: %d (%.2f%%), expected composition: %s\n",
                at.misattributed,
                100.0 * at.misattributed / static_cast<double>(s.reads.size()),
                s.expected);
  }

  // --- sharded variant ------------------------------------------------------
  // The same collection as 3 per-runtime index shards (planned by cost-model
  // weight). The composed reference serves the same sessions and sinks; the
  // attribution per sample must not change.
  const auto sharded =
      shard::ShardedReference::build(rt, references, 3, icfg);
  std::printf(
      "\n=== sharded variant: %d shards over %u references ===\n"
      "per-shard build max %.4f simulated s vs %.4f monolithic — each "
      "runtime indexes only its piece\n",
      sharded.num_shards(), sharded.num_targets(),
      sharded.build_time_parallel_s(), ref.build_report().total_time_s());
  for (int sh = 0; sh < sharded.num_shards(); ++sh)
    std::printf("shard %d: %u references, %zu index entries\n", sh,
                sharded.shard(sh).targets().num_targets(),
                sharded.shard(sh).index_entries());

  shard::ShardedAlignSession sharded_session(sharded, scfg);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto& s = samples[i];
    core::VectorSink sink(rt.nranks());
    const auto res = sharded_session.align_batch(rt, s.reads, sink);
    const Attribution at = attribute(sink.take(), s.reads, kGenomes);
    std::printf("%s (sharded, %.4f s per-runtime batch):", s.label,
                res.time_parallel_s());
    for (int g = 0; g < kGenomes; ++g)
      if (at.per_genome[g] > 0)
        std::printf(" genome%d=%d", g, at.per_genome[g]);
    // Best-hit attribution is expected to agree with the monolithic screen;
    // compare genuinely (the screening config keeps the exact-match path and
    // a low hit cap, so agreement is measured, not guaranteed by contract).
    const Attribution& mono = mono_attributions[i];
    const bool same = at.per_genome == mono.per_genome &&
                      at.unassigned == mono.unassigned;
    std::printf(" unassigned=%d misattributed=%d — composition %s the "
                "monolithic screen\n",
                at.unassigned, at.misattributed,
                same ? "matches" : "DIFFERS from");
  }
  return 0;
}
