// The light bulb problem (Valiant): among n random vectors, one planted
// pair is alpha-correlated. Find it with the skew-adaptive index instead
// of the quadratic scan — the "probabilistic viewpoint" of the paper's
// introduction, on a *skewed* distribution where classic approaches cannot
// exploit the structure.

#include <cstdio>

#include "core/sharded_index.h"
#include "data/generators.h"
#include "sim/measures.h"
#include "util/random.h"
#include "util/timer.h"

int main() {
  using namespace skewsearch;

  const double alpha = 0.8;
  const size_t n = 4000;
  // Skewed universe: 80 common features + 40000 rare ones.
  auto dist = TwoBlockProbabilities(80, 0.3, 40000, 0.002).value();
  Rng rng(123);
  PlantedPairInstance instance = GeneratePlantedPair(dist, n, alpha, &rng);
  std::printf(
      "light bulb instance: n=%zu vectors, planted alpha=%.2f pair hidden "
      "at (%u, %u)\n",
      instance.data.size(), alpha, instance.first, instance.second);

  // Index once, then query every vector with itself — the planted partner
  // is the only other vector expected above the verification threshold.
  ShardedIndex index;
  SkewedIndexOptions options;
  options.mode = IndexMode::kCorrelated;
  options.alpha = alpha;
  Timer build_timer;
  Status status = index.Build(&instance.data, &dist, {options, 1});
  if (!status.ok()) {
    std::printf("build failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("index built in %.2fs (%d repetitions)\n",
              build_timer.ElapsedSeconds(), index.repetitions());

  Timer hunt_timer;
  size_t candidates_touched = 0;
  VectorId found_a = 0, found_b = 0;
  bool found = false;
  for (VectorId id = 0; id < instance.data.size() && !found; ++id) {
    QueryStats stats;
    auto matches = index.QueryAll(instance.data.Get(id),
                                  index.verify_threshold(), &stats);
    candidates_touched += stats.candidates;
    for (const Match& m : matches) {
      if (m.id != id) {
        found = true;
        found_a = id;
        found_b = m.id;
        break;
      }
    }
  }
  double seconds = hunt_timer.ElapsedSeconds();

  if (found) {
    bool correct = (found_a == instance.first && found_b == instance.second) ||
                   (found_a == instance.second && found_b == instance.first);
    std::printf(
        "found pair (%u, %u) in %.2fs touching %zu candidates total "
        "(%.1f per probed vector) -> %s\n",
        found_a, found_b, seconds, candidates_touched,
        static_cast<double>(candidates_touched) / (found_a + 1),
        correct ? "CORRECT planted pair" : "a different qualifying pair");
    std::printf("pair similarity B = %.3f\n",
                BraunBlanquet(instance.data.Get(found_a),
                              instance.data.Get(found_b)));
    std::printf(
        "(brute force would have compared up to %zu vector pairs)\n",
        instance.data.size() * (instance.data.size() - 1) / 2);
  } else {
    std::printf("planted pair not found — rerun with a higher "
                "repetition_boost\n");
  }
  return found ? 0 : 1;
}
