#include "analysis/analysis.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/error.h"
#include "par/par.h"
#include "simd/simd.h"

namespace gs::analysis {

namespace {

/// Per-cell grain of the analysis reductions: inputs below this size run
/// as a single tile — i.e. the exact serial algorithm with its historical
/// floating-point rounding. Larger inputs use the deterministic tile tree
/// (same tiling and combine order for ANY thread count).
constexpr std::int64_t kAnalysisGrain = 32768;

std::int64_t total_cells(Parts parts) {
  std::int64_t n = 0;
  for (const auto& p : parts) n += static_cast<std::int64_t>(p.size());
  return n;
}

/// Calls fn on each nonempty piece of [begin, end) of the parts'
/// concatenation, in order.
template <typename Fn>
void for_each_piece(Parts parts, std::int64_t begin, std::int64_t end,
                    Fn&& fn) {
  std::int64_t base = 0;
  for (const auto& p : parts) {
    if (base >= end) break;
    const auto size = static_cast<std::int64_t>(p.size());
    const std::int64_t lo = std::max(begin, base);
    const std::int64_t hi = std::min(end, base + size);
    if (lo < hi) {
      fn(p.subspan(static_cast<std::size_t>(lo - base),
                   static_cast<std::size_t>(hi - lo)));
    }
    base += size;
  }
}

}  // namespace

namespace {

/// Anchor points of a viridis-like perceptual colormap (dark purple ->
/// teal -> yellow), linearly interpolated.
struct Rgb {
  double r, g, b;
};
constexpr Rgb kViridis[] = {
    {0.267, 0.005, 0.329}, {0.283, 0.141, 0.458}, {0.254, 0.265, 0.530},
    {0.207, 0.372, 0.553}, {0.164, 0.471, 0.558}, {0.128, 0.567, 0.551},
    {0.135, 0.659, 0.518}, {0.267, 0.749, 0.441}, {0.478, 0.821, 0.318},
    {0.741, 0.873, 0.150}, {0.993, 0.906, 0.144}};

Rgb viridis(double t) {
  t = std::clamp(t, 0.0, 1.0);
  constexpr int n = static_cast<int>(std::size(kViridis)) - 1;
  const double pos = t * n;
  const int lo = std::min(static_cast<int>(pos), n - 1);
  const double f = pos - lo;
  const Rgb& a = kViridis[lo];
  const Rgb& b = kViridis[lo + 1];
  return {a.r + (b.r - a.r) * f, a.g + (b.g - a.g) * f,
          a.b + (b.b - a.b) * f};
}

double normalize(const Slice2D& s, double v) {
  const double range = s.max - s.min;
  if (range <= 0.0) return 0.0;
  return (v - s.min) / range;
}

}  // namespace

Slice2D extract_slice(std::span<const double> data, const Index3& shape,
                      int axis, std::int64_t coord) {
  GS_REQUIRE(axis >= 0 && axis < 3, "axis must be 0..2");
  GS_REQUIRE(coord >= 0 && coord < shape[axis],
             "slice coordinate " << coord << " outside axis extent "
                                 << shape[axis]);
  GS_REQUIRE(data.size() >= static_cast<std::size_t>(shape.volume()),
             "data smaller than shape");

  const int ax = axis == 0 ? 1 : 0;
  const int ay = axis == 2 ? 1 : 2;

  Slice2D s;
  s.nx = shape[ax];
  s.ny = shape[ay];
  s.values.resize(static_cast<std::size_t>(s.nx * s.ny));

  Index3 idx;
  idx.axis(axis) = coord;
  bool first = true;
  for (std::int64_t y = 0; y < s.ny; ++y) {
    idx.axis(ay) = y;
    for (std::int64_t x = 0; x < s.nx; ++x) {
      idx.axis(ax) = x;
      const double v =
          data[static_cast<std::size_t>(linear_index(idx, shape))];
      s.values[static_cast<std::size_t>(x + s.nx * y)] = v;
      s.min = first ? v : std::min(s.min, v);
      s.max = first ? v : std::max(s.max, v);
      first = false;
    }
  }
  return s;
}

Slice2D slice_from_reader(const bp::Reader& reader, const std::string& name,
                          std::int64_t step, int axis, std::int64_t coord) {
  const auto info = reader.info(name);
  Box3 sel{{0, 0, 0}, info.shape};
  sel.start.axis(axis) = coord;
  sel.count.axis(axis) = 1;
  const auto plane = reader.read(name, step, sel);
  return extract_slice(plane, sel.count, axis, 0);
}

ExactStats exact_stats(Parts parts) {
  // Each tile sums its cells with ExactStats::add_many's bucketed kernel.
  // The sums are exact integers, so neither the tiling nor the order in
  // which tiles merge can change a bit of the result.
  par::RegionOptions opts;
  opts.label = "stats";
  opts.grain = kAnalysisGrain;
  return par::parallel_reduce<ExactStats>(
      total_cells(parts),
      [&](std::int64_t begin, std::int64_t end) {
        ExactStats tile;
        for_each_piece(parts, begin, end,
                       [&](std::span<const double> piece) {
                         tile.add_many(piece);
                       });
        return tile;
      },
      [](ExactStats a, const ExactStats& b) {
        a.merge(b);
        return a;
      },
      opts);
}

ExactStats exact_stats(std::span<const double> data) {
  return exact_stats(Parts(&data, 1));
}

FieldStats stats_from_exact(const ExactStats& es) {
  FieldStats out;
  out.count = es.count();
  out.min = es.min();
  out.max = es.max();
  out.mean = es.mean();
  out.stddev = es.stddev();
  return out;
}

FieldStats compute_stats(std::span<const double> data) {
  return stats_from_exact(exact_stats(data));
}

json::Object stats_to_json(const FieldStats& stats) {
  json::Object o;
  o["count"] = json::Value(static_cast<std::int64_t>(stats.count));
  o["min"] = json::Value(stats.min);
  o["max"] = json::Value(stats.max);
  o["mean"] = json::Value(stats.mean);
  o["stddev"] = json::Value(stats.stddev);
  return o;
}

Histogram field_histogram(Parts parts, std::size_t bins) {
  const std::int64_t n = total_cells(parts);
  GS_REQUIRE(n > 0, "histogram of empty field");

  // Pass 1: min/max reduction (exact — order-independent), vectorized
  // per piece with W-lane accumulators (simd::minmax_run). min/max over
  // field data (finite, no NaN) is associative/commutative, so the lane
  // grouping cannot change the result.
  using simd::MinMax;
  par::RegionOptions opts;
  opts.label = "histogram";
  opts.grain = kAnalysisGrain;
  const auto merge = [](const MinMax& a, const MinMax& b) {
    return MinMax{std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
  };
  const MinMax mm = par::parallel_reduce<MinMax>(
      n,
      [&](std::int64_t begin, std::int64_t end) {
        std::optional<MinMax> tile;
        for_each_piece(parts, begin, end, [&](std::span<const double> p) {
          const MinMax m = simd::minmax_run<simd::kReduceWidth>(
              p.data(), static_cast<std::int64_t>(p.size()));
          tile = tile ? merge(*tile, m) : m;
        });
        return *tile;
      },
      merge, opts);
  GS_REQUIRE(std::isfinite(mm.lo) && std::isfinite(mm.hi),
             "histogram of a field with non-finite values");
  const auto [lo, hi] = histogram_range(mm.lo, mm.hi);
  return field_histogram(parts, bins, lo, hi);
}

Histogram field_histogram(std::span<const double> data, std::size_t bins) {
  return field_histogram(Parts(&data, 1), bins);
}

std::pair<double, double> histogram_range(double lo, double hi) {
  if (hi <= lo) hi = lo + 1.0;  // constant field: one degenerate bin range
  return {lo, hi};
}

Histogram field_histogram(Parts parts, std::size_t bins, double lo,
                          double hi) {
  par::RegionOptions opts;
  opts.label = "histogram";
  opts.grain = kAnalysisGrain;
  // Per-tile histograms merged by bin-count addition (exact — integer
  // counts commute), so any tiling/block/shard partitioning of the same
  // cells over the same [lo, hi) range yields identical counts. The bin
  // computation inside add_many is vectorized and bitwise-identical to
  // per-element add(). No cells give all-zero counts.
  return par::parallel_reduce<Histogram>(
      total_cells(parts),
      [&, lo, hi, bins](std::int64_t begin, std::int64_t end) {
        Histogram tile(lo, hi, bins);
        for_each_piece(parts, begin, end, [&](std::span<const double> p) {
          tile.add_many(p.data(), p.size());
        });
        return tile;
      },
      [](Histogram a, const Histogram& b) {
        a.merge(b);
        return a;
      },
      opts);
}

Histogram field_histogram(std::span<const double> data, std::size_t bins,
                          double lo, double hi) {
  return field_histogram(Parts(&data, 1), bins, lo, hi);
}

void write_pgm(const Slice2D& slice, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  GS_REQUIRE(out.good(), "cannot write " << path);
  out << "P5\n" << slice.nx << " " << slice.ny << "\n255\n";
  for (std::int64_t y = 0; y < slice.ny; ++y) {
    for (std::int64_t x = 0; x < slice.nx; ++x) {
      const auto g = static_cast<unsigned char>(
          255.0 * normalize(slice, slice.at(x, y)) + 0.5);
      out.put(static_cast<char>(g));
    }
  }
  GS_REQUIRE(out.good(), "write failed: " << path);
}

void write_ppm(const Slice2D& slice, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  GS_REQUIRE(out.good(), "cannot write " << path);
  out << "P6\n" << slice.nx << " " << slice.ny << "\n255\n";
  for (std::int64_t y = 0; y < slice.ny; ++y) {
    for (std::int64_t x = 0; x < slice.nx; ++x) {
      const Rgb c = viridis(normalize(slice, slice.at(x, y)));
      out.put(static_cast<char>(static_cast<int>(255.0 * c.r + 0.5)));
      out.put(static_cast<char>(static_cast<int>(255.0 * c.g + 0.5)));
      out.put(static_cast<char>(static_cast<int>(255.0 * c.b + 0.5)));
    }
  }
  GS_REQUIRE(out.good(), "write failed: " << path);
}

std::string ascii_render(const Slice2D& slice, int width) {
  static constexpr char kRamp[] = " .:-=+*#%@";
  constexpr int kLevels = static_cast<int>(sizeof(kRamp)) - 2;
  width = std::min<std::int64_t>(width, slice.nx);
  // Terminal cells are ~2x taller than wide; halve the row count.
  const int height = std::max<int>(
      1, static_cast<int>(width * slice.ny / (2 * slice.nx)));

  std::ostringstream oss;
  for (int row = 0; row < height; ++row) {
    const auto y = static_cast<std::int64_t>(
        (row + 0.5) * static_cast<double>(slice.ny) / height);
    for (int col = 0; col < width; ++col) {
      const auto x = static_cast<std::int64_t>(
          (col + 0.5) * static_cast<double>(slice.nx) / width);
      const double t = normalize(slice, slice.at(x, y));
      oss << kRamp[static_cast<int>(t * kLevels + 0.5)];
    }
    oss << "\n";
  }
  return oss.str();
}

std::string ascii_series(const std::vector<double>& values, int width,
                         int height) {
  GS_REQUIRE(!values.empty(), "series is empty");
  GS_REQUIRE(width > 0 && height > 1, "bad plot geometry");
  double lo = values[0], hi = values[0];
  for (const double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (hi <= lo) hi = lo + 1.0;

  std::vector<std::string> canvas(static_cast<std::size_t>(height),
                                  std::string(static_cast<std::size_t>(width),
                                              ' '));
  const auto n = static_cast<int>(values.size());
  for (int col = 0; col < width; ++col) {
    const auto i = static_cast<std::size_t>(
        std::min<int>(n - 1, col * n / width));
    const double t = (values[i] - lo) / (hi - lo);
    const int row =
        height - 1 - static_cast<int>(t * (height - 1) + 0.5);
    canvas[static_cast<std::size_t>(row)]
          [static_cast<std::size_t>(col)] = '*';
  }
  std::ostringstream oss;
  char label[32];
  std::snprintf(label, sizeof(label), "%10.4g ", hi);
  oss << label << "\n";
  for (const auto& line : canvas) oss << "  |" << line << "\n";
  std::snprintf(label, sizeof(label), "%10.4g ", lo);
  oss << label << " (" << values.size() << " points)\n";
  return oss.str();
}

}  // namespace gs::analysis
