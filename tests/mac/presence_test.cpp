// Property test: SiteIndex band queries against a brute-force
// O(sites-per-query) reference, across line/hex layouts, wrap on/off, and
// band radii from degenerate (every query falls back to the nearest site)
// to all-covering — including positions exactly on bucket edges and on the
// range circle, where a binning bug would first show. The query's slack is
// checked the same way: no displacement shorter than it may change the
// answer.
#include "mac/presence.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <vector>

#include "common/rng.hpp"
#include "mac/site_layout.hpp"

namespace charisma::mac {
namespace {

// The contract cells_near implements: every site within the radius under
// the wrap metric, ascending; radius <= 0 is the all-cells band; an empty
// result falls back to the nearest site (lowest id on exact ties).
std::vector<int> brute_force(const SiteLayout& layout, const Vec2& p,
                             double radius_m) {
  std::vector<int> out;
  const int sites = layout.num_sites();
  if (radius_m <= 0.0) {
    for (int s = 0; s < sites; ++s) out.push_back(s);
    return out;
  }
  const double r_sq = radius_m * radius_m;
  for (int s = 0; s < sites; ++s) {
    if (layout.distance_sq(p, s) <= r_sq) out.push_back(s);
  }
  if (out.empty()) {
    int best = 0;
    double best_sq = layout.distance_sq(p, 0);
    for (int s = 1; s < sites; ++s) {
      const double d = layout.distance_sq(p, s);
      if (d < best_sq) {
        best_sq = d;
        best = s;
      }
    }
    out.push_back(best);
  }
  return out;
}

// Deterministic probe cloud: every site, points exactly on each site's
// range circle, exact bucket-grid corners (multiples of the radius from
// the layout's min corner — the index's bucket origin), field corners,
// out-of-field probes, and a seeded uniform scatter.
std::vector<Vec2> probe_points(const SiteLayout& layout, double radius_m,
                               double width_m, double height_m) {
  std::vector<Vec2> pts;
  double min_x = layout.position(0).x;
  double min_y = layout.position(0).y;
  for (int s = 0; s < layout.num_sites(); ++s) {
    const Vec2 site = layout.position(s);
    min_x = std::min(min_x, site.x);
    min_y = std::min(min_y, site.y);
    pts.push_back(site);
    if (radius_m > 0.0) {
      pts.push_back({site.x + radius_m, site.y});  // exactly on the circle
      pts.push_back({site.x, site.y - radius_m});
      pts.push_back({site.x - 0.5 * radius_m, site.y + 0.5 * radius_m});
    }
  }
  if (radius_m > 0.0) {
    for (int i = 0; i <= 4; ++i) {
      for (int j = 0; j <= 2; ++j) {
        // Exact bucket-edge positions: the index bins at radius_m-wide
        // buckets anchored at the min site corner.
        pts.push_back({min_x + i * radius_m, min_y + j * radius_m});
      }
    }
  }
  pts.push_back({0.0, 0.0});
  pts.push_back({width_m, height_m});
  pts.push_back({-0.25 * width_m, 0.5 * height_m});   // outside the bbox
  pts.push_back({1.25 * width_m, 1.5 * height_m});
  common::RngStream rng(0xBADBEEF);
  for (int i = 0; i < 200; ++i) {
    pts.push_back({rng.uniform(-0.1 * width_m, 1.1 * width_m),
                   rng.uniform(-0.1 * height_m, 1.1 * height_m)});
  }
  return pts;
}

// The slack's promise: every position strictly closer to `p` than the
// returned slack gets the brute-force answer `p` got. Probes eight
// directions at 0.999 of the slack (capped at 10 km, for the infinite
// slack of the all-cells band).
void expect_slack_holds(const SiteLayout& layout, double radius_m,
                        const Vec2& p, double slack) {
  ASSERT_GE(slack, 0.0);
  const double reach = 0.999 * std::min(slack, 1e4);
  if (reach <= 0.0) return;
  const auto want = brute_force(layout, p, radius_m);
  for (int k = 0; k < 8; ++k) {
    const double a = 0.25 * std::numbers::pi * k + 0.1;
    const Vec2 q{p.x + reach * std::cos(a), p.y + reach * std::sin(a)};
    EXPECT_EQ(brute_force(layout, q, radius_m), want)
        << "radius " << radius_m << ": slack " << slack << " at (" << p.x
        << ", " << p.y << ") does not hold toward (" << q.x << ", " << q.y
        << ")";
  }
}

void expect_matches_brute_force(const SiteLayout& layout, double radius_m,
                                double width_m, double height_m) {
  SiteIndex index(layout, radius_m);
  std::vector<int> got;
  std::vector<char> scratch;
  for (const Vec2& p : probe_points(layout, radius_m, width_m, height_m)) {
    const auto want = brute_force(layout, p, radius_m);
    got.clear();
    const double slack = index.cells_near(p, got);
    EXPECT_EQ(got, want) << "radius " << radius_m << " at (" << p.x << ", "
                         << p.y << ")";
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
    expect_slack_holds(layout, radius_m, p, slack);
    if (radius_m <= 0.0) {  // the all-cells band never changes
      EXPECT_EQ(slack, std::numeric_limits<double>::infinity());
    }
    // The concurrency-safe overload (per-shard scratch) must agree and
    // leave the scratch all-zero for the next query.
    got.clear();
    EXPECT_EQ(index.cells_near(p, got, scratch), slack);
    EXPECT_EQ(got, want);
    EXPECT_TRUE(std::all_of(scratch.begin(), scratch.end(),
                            [](char c) { return c == 0; }));
  }
}

TEST(SiteIndexProperty, LineLayoutMatchesBruteForce) {
  const double width = 4000.0, height = 1000.0;
  SiteLayout layout(SiteLayoutConfig{}, /*num_cells=*/8, width, height);
  // Degenerate (pure nearest-site fallback), sub-spacing, roughly one
  // spacing (500 m here), a few spacings, and all-covering.
  for (double r : {1e-3, 220.0, 500.0, 1400.0, 1e6}) {
    expect_matches_brute_force(layout, r, width, height);
  }
  expect_matches_brute_force(layout, 0.0, width, height);  // all-cells mode
}

TEST(SiteIndexProperty, HexLayoutMatchesBruteForce) {
  SiteLayoutConfig cfg;
  cfg.kind = SiteLayoutConfig::Kind::kHex;
  cfg.site_spacing_m = 1000.0;
  const auto [width, height] = SiteLayout::hex_field_extent(19, 1000.0);
  SiteLayout layout(cfg, /*num_cells=*/19, width, height);
  for (double r : {1e-3, 650.0, 1000.0, 2400.0, 1e6}) {
    expect_matches_brute_force(layout, r, width, height);
  }
  expect_matches_brute_force(layout, 0.0, width, height);
}

TEST(SiteIndexProperty, WrappedHexMatchesBruteForce) {
  SiteLayoutConfig cfg;
  cfg.kind = SiteLayoutConfig::Kind::kHex;
  cfg.site_spacing_m = 1000.0;
  cfg.wrap_around = true;
  const auto [width, height] = SiteLayout::hex_field_extent(19, 1000.0);
  SiteLayout layout(cfg, /*num_cells=*/19, width, height);
  ASSERT_TRUE(layout.wraps());
  for (double r : {1e-3, 650.0, 1200.0, 3000.0}) {
    expect_matches_brute_force(layout, r, width, height);
  }
}

TEST(SiteIndexProperty, NearestSiteFallbackPrefersLowestIdOnTies) {
  // A probe equidistant from sites 0 and 1 with a degenerate radius must
  // fall back to site 0 (strict-less argmin keeps the first).
  const double width = 2000.0, height = 1000.0;
  SiteLayout layout(SiteLayoutConfig{}, /*num_cells=*/2, width, height);
  const Vec2 a = layout.position(0);
  const Vec2 b = layout.position(1);
  const Vec2 mid{0.5 * (a.x + b.x), 0.5 * (a.y + b.y)};
  SiteIndex index(layout, 1e-3);
  std::vector<int> got;
  index.cells_near(mid, got);
  EXPECT_EQ(got, std::vector<int>{0});
}

TEST(SiteIndexSlack, CircleBoundaryAtAndWithinANanometre) {
  // A site's range circle is inclusive: a point exactly R away is in the
  // band, one 1e-9 m further is out. On the circle the slack is 0 (the
  // next query must re-check), and a nanometre either side it is at most
  // that nanometre. Sites are 1000 m apart, so the probes also sit inside
  // site 2's circle and never take the nearest-site fallback.
  const double width = 4000.0, height = 1000.0;
  const double r = 600.0;
  SiteLayout layout(SiteLayoutConfig{}, /*num_cells=*/4, width, height);
  SiteIndex index(layout, r);
  const Vec2 site = layout.position(1);
  const auto has_site = [](const std::vector<int>& cells) {
    return std::find(cells.begin(), cells.end(), 1) != cells.end();
  };
  std::vector<int> got;

  const Vec2 on{site.x + r, site.y};
  ASSERT_EQ(layout.distance_sq(on, 1), r * r);
  double slack = index.cells_near(on, got);
  EXPECT_TRUE(has_site(got));
  EXPECT_EQ(got, brute_force(layout, on, r));
  EXPECT_EQ(slack, 0.0);

  const Vec2 inside{site.x + r - 1e-9, site.y};
  got.clear();
  slack = index.cells_near(inside, got);
  EXPECT_TRUE(has_site(got));
  EXPECT_EQ(got, brute_force(layout, inside, r));
  EXPECT_LE(slack, 1e-9);
  // Half the slack further out the site is still in range; 2e-9 m
  // further it has left.
  got.clear();
  index.cells_near({inside.x + 0.5 * slack, site.y}, got);
  EXPECT_TRUE(has_site(got));
  got.clear();
  index.cells_near({inside.x + 2e-9, site.y}, got);
  EXPECT_FALSE(has_site(got));

  const Vec2 outside{site.x + r + 1e-9, site.y};
  got.clear();
  slack = index.cells_near(outside, got);
  EXPECT_FALSE(has_site(got));
  EXPECT_EQ(got, brute_force(layout, outside, r));
  EXPECT_LE(slack, 1e-9);
  got.clear();
  index.cells_near({outside.x - 2e-9, site.y}, got);
  EXPECT_TRUE(has_site(got));
}

TEST(SiteIndexSlack, FallbackSlackIsCappedByTheRunnerUpSite) {
  // Outside every circle the answer is the nearest site, which holds only
  // while no other site can overtake it: the slack is at most half the gap
  // to the runner-up, and 0 on the bisector between two sites.
  const double width = 2000.0, height = 1000.0;
  SiteLayout layout(SiteLayoutConfig{}, /*num_cells=*/2, width, height);
  const Vec2 a = layout.position(0);
  const Vec2 b = layout.position(1);
  SiteIndex index(layout, 1e-3);
  std::vector<int> got;
  const Vec2 mid{0.5 * (a.x + b.x), 0.5 * (a.y + b.y)};
  EXPECT_EQ(index.cells_near(mid, got), 0.0);
  const Vec2 p{mid.x - 60.0, mid.y};  // 60 m toward site 0
  got.clear();
  const double slack = index.cells_near(p, got);
  EXPECT_EQ(got, std::vector<int>{0});
  const double gap = std::sqrt(layout.distance_sq(p, 1)) -
                     std::sqrt(layout.distance_sq(p, 0));
  EXPECT_LE(slack, 0.5 * gap);
  EXPECT_GT(slack, 0.5 * gap - 1e-6);
  expect_slack_holds(layout, 1e-3, p, slack);
}

TEST(SiteIndexProperty, RebuildReusesStorageAndStaysCorrect) {
  // Shrinking then re-growing the geometry through rebuild() must leave
  // queries exactly as correct as a freshly-built index at each step.
  const double width = 4000.0, height = 1000.0;
  SiteLayout big(SiteLayoutConfig{}, /*num_cells=*/8, width, height);
  SiteLayout small(SiteLayoutConfig{}, /*num_cells=*/3, width, height);
  SiteIndex index(big, 600.0);
  std::vector<int> got;
  index.rebuild(small, 900.0);
  for (const Vec2& p : probe_points(small, 900.0, width, height)) {
    got.clear();
    index.cells_near(p, got);
    EXPECT_EQ(got, brute_force(small, p, 900.0));
  }
  index.rebuild(big, 600.0);
  for (const Vec2& p : probe_points(big, 600.0, width, height)) {
    got.clear();
    index.cells_near(p, got);
    EXPECT_EQ(got, brute_force(big, p, 600.0));
  }
  // Radius flips across the all-cells sentinel both ways.
  index.rebuild(big, 0.0);
  got.clear();
  index.cells_near({0.5 * width, 0.5 * height}, got);
  EXPECT_EQ(static_cast<int>(got.size()), big.num_sites());
  index.rebuild(big, 600.0);
  got.clear();
  index.cells_near(big.position(2), got);
  EXPECT_EQ(got, brute_force(big, big.position(2), 600.0));
}

}  // namespace
}  // namespace charisma::mac
