// extension_simd_roofline — measured host roofline for the vectorized
// cache-blocked stencil (gs::core::grayscott_tile over gs::simd packs).
//
// 1. CEILING: a STREAM-style triad (a[i] = b[i] + 3*c[i], 24 bytes of
//    traffic per element) measures what this host's memory system
//    actually streams — the denominator of the roofline, measured on the
//    same machine in the same run, never a spec-sheet number.
// 2. KERNEL: the noiseless Gray-Scott sweep at L^3, timed as whole
//    grayscott_tile sweeps. Effective bandwidth charges the 32 B/cell
//    minimum traffic (read u,v + write u_next,v_next once each; neighbor
//    reuse is the cache blocking's job, so it earns no extra bytes).
// 3. REDUCTIONS: on the U and V fields of one noisy sweep, the exact
//    stats kernel (ExactStats::add_many, what analysis::exact_stats runs
//    per tile) against the histogram pass (Histogram::add_many), both in
//    ns/cell on one lane.
// 4. GATES:
//    - identity (always fatal): the W=1 instantiation and every tile_j
//      variant must produce bitwise-identical fields to the native-width
//      default — the SIMD contract, checked with noise ON so the lane
//      noise draws are exercised; and ExactStats::add_many must equal a
//      loop of add() on both fields;
//    - bandwidth (gated): stencil >= 35% of the measured triad;
//    - reduction cost (gated): exact stats <= 4x the histogram pass on
//      each field. Gated checks are fatal on real hardware with a vector
//      build; informational when GS_ROOFLINE_NONFATAL is set (shared CI
//      runners) or the build is the scalar fallback (GS_SIMD=OFF,
//      nothing to enforce).
//
// The BENCH_JSON line is machine-readable for the CI bench loop.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/stats.h"
#include "core/reference.h"
#include "core/stencil.h"
#include "simd/simd.h"

namespace {

using gs::Box3;
using gs::Field3;
using gs::Index3;
using gs::core::GsParams;
using gs::core::StencilArgs;

constexpr std::int64_t kL = 128;        ///< roofline stencil extent
constexpr std::int64_t kIdentityL = 24; ///< identity-gate extent
constexpr int kTriadReps = 5;
constexpr int kStencilReps = 3;
constexpr double kMinFraction = 0.35;  ///< stencil / triad gate
constexpr std::int64_t kReduceL = 96;  ///< reduction-field extent
constexpr int kReduceReps = 5;
constexpr double kMaxStatsToHistogram = 4.0;  ///< reduction-cost gate
/// Minimum stencil traffic: u,v read + u_next,v_next written, once per
/// cell. Neighbor loads hit in cache by design and are not charged.
constexpr double kBytesPerCell = 4.0 * sizeof(double);

// ---- STREAM triad ---------------------------------------------------------

double measure_triad_gbps() {
  constexpr std::size_t n = 1u << 22;  // 4 Mi doubles: 3 x 32 MiB arrays
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  double best = 1e300;
  double sink = 0.0;
  for (int rep = 0; rep < kTriadReps; ++rep) {
    const gs::WallTimer timer;
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + 3.0 * c[i];
    best = std::min(best, timer.seconds());
    sink += a[rep];  // keep the sweep observable
  }
  if (sink < 0.0) std::printf("unreachable %f\n", sink);
  return static_cast<double>(n) * 24.0 / best / 1.0e9;
}

// ---- stencil sweep --------------------------------------------------------

/// Ghost-filled fields plus a StencilArgs over them (serial whole-domain
/// geometry, exactly like core::reference_step).
struct Workload {
  Field3 u, v, un, vn;
  StencilArgs args;

  explicit Workload(std::int64_t L, double noise)
      : u({L, L, L}), v({L, L, L}), un({L, L, L}), vn({L, L, L}) {
    gs::core::initialize_fields(u, v, Box3{{0, 0, 0}, {L, L, L}}, L);
    gs::core::apply_periodic_ghosts(u);
    gs::core::apply_periodic_ghosts(v);
    args.u = u.data().data();
    args.v = v.data().data();
    args.u_next = un.data().data();
    args.v_next = vn.data().data();
    args.alloc = u.alloc_extent();
    args.interior = u.interior();
    args.local = Box3{{0, 0, 0}, u.interior()};
    args.global = {L, L, L};
    args.params.noise = noise;
    args.seed = 1234;
    args.step = 0;
  }
};

double measure_stencil_gbps(double* out_ms) {
  Workload w(kL, /*noise=*/0.0);
  gs::core::grayscott_tile<gs::simd::kNativeWidth>(w.args, 0, kL);  // warm
  double best = 1e300;
  for (int rep = 0; rep < kStencilReps; ++rep) {
    const gs::WallTimer timer;
    gs::core::grayscott_tile<gs::simd::kNativeWidth>(w.args, 0, kL);
    best = std::min(best, timer.seconds());
  }
  *out_ms = best * 1e3;
  const double cells = static_cast<double>(kL) * kL * kL;
  return cells * kBytesPerCell / best / 1.0e9;
}

// ---- identity gates -------------------------------------------------------

bool interiors_identical(const Field3& a, const Field3& b) {
  return std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

/// Runs one noisy sweep with the given width/tile_j; returns the outputs.
template <int W>
void sweep_into(Workload& w, std::int64_t tile_j) {
  w.args.tile_j = tile_j;
  gs::core::grayscott_tile<W>(w.args, 0, kIdentityL);
}

int check_identity() {
  int failures = 0;
  Workload native(kIdentityL, /*noise=*/0.1);
  sweep_into<gs::simd::kNativeWidth>(native, 0);

  Workload scalar(kIdentityL, /*noise=*/0.1);
  sweep_into<1>(scalar, 0);
  if (!interiors_identical(native.un, scalar.un) ||
      !interiors_identical(native.vn, scalar.vn)) {
    std::printf("FAIL: W=1 fallback differs from native width %d\n",
                gs::simd::kNativeWidth);
    ++failures;
  }

  for (const std::int64_t tj : {std::int64_t{1}, std::int64_t{3},
                                std::int64_t{kIdentityL}}) {
    Workload blocked(kIdentityL, /*noise=*/0.1);
    sweep_into<gs::simd::kNativeWidth>(blocked, tj);
    if (!interiors_identical(native.un, blocked.un) ||
        !interiors_identical(native.vn, blocked.vn)) {
      std::printf("FAIL: tile_j=%lld differs from auto-tuned blocking\n",
                  static_cast<long long>(tj));
      ++failures;
    }
  }
  return failures;
}

// ---- exact stats vs histogram pass ----------------------------------------

struct ReductionCost {
  double stats_ns = 0.0;      ///< ExactStats::add_many, ns/cell
  double histogram_ns = 0.0;  ///< Histogram::add_many (64 bins), ns/cell
  bool identical = false;     ///< add_many == a loop of add()
};

ReductionCost measure_reduction(std::span<const double> field) {
  ReductionCost cost;
  gs::ExactStats loop;
  for (const double x : field) loop.add(x);
  gs::ExactStats many;
  many.add_many(field);
  cost.identical = many == loop;

  const double lo = loop.min();
  const double hi = loop.max() > lo ? loop.max() : lo + 1.0;
  const auto cells = static_cast<double>(field.size());
  double best_stats = 1e300;
  double best_hist = 1e300;
  std::uint64_t sink = 0;
  for (int rep = 0; rep < kReduceReps; ++rep) {
    const gs::WallTimer t_stats;
    gs::ExactStats s;
    s.add_many(field);
    best_stats = std::min(best_stats, t_stats.seconds());
    const gs::WallTimer t_hist;
    gs::Histogram h(lo, hi, 64);
    h.add_many(field.data(), field.size());
    best_hist = std::min(best_hist, t_hist.seconds());
    sink += s.count() + h.total();
  }
  if (sink == 0) std::printf("unreachable\n");
  cost.stats_ns = best_stats / cells * 1e9;
  cost.histogram_ns = best_hist / cells * 1e9;
  return cost;
}

}  // namespace

int main() {
  std::printf("simd roofline: width=%d L=%lld (%s build)\n",
              gs::simd::kNativeWidth, static_cast<long long>(kL),
              gs::simd::kNativeWidth == 1 ? "scalar-fallback" : "vector");

  // Identity first — a fast kernel that computes different bits is a bug,
  // not a win, so the bandwidth number is meaningless until this passes.
  int status = check_identity();
  if (status == 0) {
    std::printf("identity: PASS (W=1, tile_j sweeps bitwise identical)\n");
  }

  const double triad_gbps = measure_triad_gbps();
  double stencil_ms = 0.0;
  const double stencil_gbps = measure_stencil_gbps(&stencil_ms);
  const double fraction = stencil_gbps / triad_gbps;

  // The reduction fields: U and V after one noisy sweep, so V holds
  // values of both signs across many exponents next to U's near-1 ones.
  Workload red(kReduceL, /*noise=*/0.1);
  gs::core::grayscott_tile<gs::simd::kNativeWidth>(red.args, 0, kReduceL);
  const ReductionCost ucost = measure_reduction(red.un.data());
  const ReductionCost vcost = measure_reduction(red.vn.data());
  if (!ucost.identical || !vcost.identical) {
    std::printf("FAIL: ExactStats::add_many differs from a loop of add()\n");
    status = 1;
  }
  const double ratio = std::max(ucost.stats_ns / ucost.histogram_ns,
                                vcost.stats_ns / vcost.histogram_ns);

  std::printf("triad   : %7.2f GB/s (measured ceiling, 24 B/elem)\n",
              triad_gbps);
  std::printf("stencil : %7.2f GB/s (%.3f ms/sweep, %.0f B/cell charged)\n",
              stencil_gbps, stencil_ms, kBytesPerCell);
  std::printf("fraction: %7.2f%% of triad (gate: >= %.0f%%)\n",
              fraction * 100.0, kMinFraction * 100.0);
  for (const auto& [name, c] : {std::pair{"U", ucost}, std::pair{"V", vcost}}) {
    std::printf("%s stats: %6.2f ns/cell exact, %6.2f ns/cell histogram "
                "(%.2fx; gate: <= %.0fx)\n",
                name, c.stats_ns, c.histogram_ns, c.stats_ns / c.histogram_ns,
                kMaxStatsToHistogram);
  }
  std::printf("BENCH_JSON {\"bench\":\"simd_roofline\",\"width\":%d,"
              "\"triad_gbps\":%.3f,\"stencil_gbps\":%.3f,"
              "\"fraction_of_peak\":%.4f,\"bytes_per_cell\":%.1f,"
              "\"stencil_ms\":%.3f,"
              "\"exact_stats_ns_per_cell_u\":%.3f,"
              "\"histogram_ns_per_cell_u\":%.3f,"
              "\"exact_stats_ns_per_cell_v\":%.3f,"
              "\"histogram_ns_per_cell_v\":%.3f,"
              "\"stats_to_histogram\":%.3f}\n",
              gs::simd::kNativeWidth, triad_gbps, stencil_gbps, fraction,
              kBytesPerCell, stencil_ms, ucost.stats_ns, ucost.histogram_ns,
              vcost.stats_ns, vcost.histogram_ns, ratio);

  const bool nonfatal = std::getenv("GS_ROOFLINE_NONFATAL") != nullptr;
  if (nonfatal || gs::simd::kNativeWidth == 1) {
    std::printf("roofline gate: informational (%s)\n",
                nonfatal ? "GS_ROOFLINE_NONFATAL set"
                         : "scalar-fallback build");
  } else {
    if (fraction < kMinFraction) {
      std::printf("FAIL: stencil reaches %.1f%% of triad, need >= %.0f%%\n",
                  fraction * 100.0, kMinFraction * 100.0);
      status = 1;
    }
    if (ratio > kMaxStatsToHistogram) {
      std::printf("FAIL: exact stats cost %.2fx the histogram pass, need "
                  "<= %.0fx\n",
                  ratio, kMaxStatsToHistogram);
      status = 1;
    }
    if (status == 0) std::printf("roofline gate: PASS\n");
  }
  return status;
}
