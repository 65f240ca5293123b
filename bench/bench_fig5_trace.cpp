// F4/F5/F6 — the systolic array schedule and PE state of figures 4-6.
//
// Streams the figure-5 example (query ACGC resident, database ACTA
// flowing) through the cycle-accurate array, printing per cycle the anti-
// diagonal of freshly computed cells and each PE's Bs ("lower number") and
// Bc ("upper number") registers — the two fields the paper adds to track
// the best score's coordinates. Also writes a VCD waveform
// (fig5_trace.vcd) viewable in GTKWave, the artifact an RTL simulation of
// the design would produce.
#include <cstdio>
#include <fstream>

#include "align/sw_full.hpp"
#include "bench_util.hpp"
#include "core/controller.hpp"
#include "hw/vcd.hpp"

using namespace swr;
using namespace swr::core;

int main() {
  const seq::Sequence query = seq::Sequence::dna("ACGC");  // figure 5's SP row
  const seq::Sequence db = seq::Sequence::dna("ACTA");     // flows through
  const align::Scoring sc = align::Scoring::paper_default();

  bench::header("F5: systolic trace — query ACGC resident, database ACTA streaming");

  ArrayController<ScorePe> ctl(query.size(), 16, sc, 1 << 20, /*charge_query_load=*/false);

  std::ofstream vcd_file("fig5_trace.vcd");
  hw::VcdWriter vcd(vcd_file, "systolic_array");
  const SystolicArray<ScorePe>* arr_probe = &ctl.array();
  for (std::size_t j = 0; j < query.size(); ++j) {
    vcd.add_signal("pe" + std::to_string(j) + "_D", 16, [arr_probe, j] {
      return static_cast<std::uint64_t>(static_cast<std::uint16_t>(arr_probe->pe(j).out().score));
    });
    vcd.add_signal("pe" + std::to_string(j) + "_valid", 1,
                   [arr_probe, j] { return arr_probe->pe(j).out().valid ? 1u : 0u; });
    vcd.add_signal("pe" + std::to_string(j) + "_Bs", 16, [arr_probe, j] {
      return static_cast<std::uint64_t>(static_cast<std::uint16_t>(arr_probe->pe(j).reg_bs()));
    });
    vcd.add_signal("pe" + std::to_string(j) + "_Bc", 16,
                   [arr_probe, j] { return arr_probe->pe(j).reg_bc(); });
  }

  std::printf("cycle |");
  for (std::size_t j = 0; j < query.size(); ++j) {
    std::printf("  PE%zu(SP=%c) D/Bs/Bc |", j, query.alphabet().letter(query[j]));
  }
  std::printf("\n");
  bench::rule(8 + 22 * static_cast<int>(query.size()));

  ctl.set_observer([&](const SystolicArray<ScorePe>& arr, std::uint64_t cycle) {
    vcd.sample(cycle);
    std::printf("%5llu |", static_cast<unsigned long long>(cycle));
    for (std::size_t j = 0; j < arr.size(); ++j) {
      if (arr.pe(j).out().valid) {
        std::printf("       %3d/%2d/%-2llu    |", arr.pe(j).out().score, arr.pe(j).reg_bs(),
                    static_cast<unsigned long long>(arr.pe(j).reg_bc()));
      } else {
        std::printf("         ./../.     |");
      }
    }
    std::printf("\n");
  });

  const align::LocalScoreResult hw = ctl.run(query, db);
  const align::LocalScoreResult sw = align::sw_best(align::sw_matrix(db, query, sc));
  std::printf("\nresult: score=%d at (row=%zu, col=%zu)  [software oracle: score=%d at "
              "(%zu,%zu)] %s\n",
              hw.score, hw.end.i, hw.end.j, sw.score, sw.end.i, sw.end.j,
              hw == sw ? "OK" : "MISMATCH");
  std::printf("VCD waveform written to fig5_trace.vcd\n");

  std::printf("\nreference similarity matrix (rows = database, cols = query):\n%s",
              align::sw_matrix(db, query, sc).format(db, query).c_str());
  return hw == sw ? 0 : 1;
}
