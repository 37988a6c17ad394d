#include "mac/presence.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace charisma::mac {

namespace {
/// The slack's rounding guard, relative to the magnitude of the coordinates
/// a query works with. A computed squared distance is within a few ulps
/// (~1e-15 relative) of the exact one, so a guard of 1e-12 keeps the slack
/// below the exact crossing distance with a thousandfold margin, while
/// costing well under a micrometre on a kilometre-scale field.
constexpr double kSlackGuard = 1e-12;
}  // namespace

SiteIndex::SiteIndex(const SiteLayout& layout, double radius_m) {
  rebuild(layout, radius_m);
}

void SiteIndex::rebuild(const SiteLayout& layout, double radius_m) {
  layout_ = &layout;
  radius_m_ = radius_m;
  // Clear in place: the inner vectors keep their capacity, so a rebuild at
  // unchanged (or smaller) geometry allocates nothing. Stale buckets past
  // the new grid extent are cleared too — bucket_of never addresses them,
  // but leaving entries there would pin dead Entry storage forever.
  for (auto& bucket : buckets_) bucket.clear();
  if (radius_m_ <= 0.0) return;  // all-cells mode: no grid needed
  radius_sq_m2_ = radius_m_ * radius_m_;

  // Bounding box over every site image; bucket edge = radius, so any
  // point's in-range images live in the 3×3 neighbourhood of its bucket.
  double min_x = 0.0, min_y = 0.0, max_x = 0.0, max_y = 0.0;
  bool first = true;
  const auto& offsets = layout.wrap_offsets();
  for (int s = 0; s < layout.num_sites(); ++s) {
    const Vec2 site = layout.position(s);
    for (const Vec2& off : offsets) {
      const double x = site.x + off.x;
      const double y = site.y + off.y;
      if (first) {
        min_x = max_x = x;
        min_y = max_y = y;
        first = false;
      } else {
        min_x = std::min(min_x, x);
        max_x = std::max(max_x, x);
        min_y = std::min(min_y, y);
        max_y = std::max(max_y, y);
      }
    }
  }
  origin_x_ = min_x;
  origin_y_ = min_y;
  // Bucket edge = max(radius, extent/1024 per axis). Any edge >= the
  // radius keeps the 3x3-neighbourhood query exact (an in-range image is
  // within one bucket of the query's); the floor stops a degenerate
  // radius from exploding the grid — without it a 1 mm band on a km-scale
  // field would ask for ~1e12 buckets.
  constexpr double kMaxBucketsPerAxis = 1024.0;
  const double edge =
      std::max({radius_m_, (max_x - min_x) / kMaxBucketsPerAxis,
                (max_y - min_y) / kMaxBucketsPerAxis});
  inv_bucket_ = 1.0 / edge;
  bucket_edge_m_ = edge;
  guard_scale_m_ = radius_m_ + (max_x - min_x) + (max_y - min_y) +
                   std::abs(min_x) + std::abs(min_y);
  nx_ = std::max(1, static_cast<int>((max_x - min_x) * inv_bucket_) + 1);
  ny_ = std::max(1, static_cast<int>((max_y - min_y) * inv_bucket_) + 1);
  const std::size_t grid =
      static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_);
  // Grow-only: resize keeps the existing inner vectors (and their
  // capacity) when the grid shrinks or stays put.
  if (buckets_.size() < grid) buckets_.resize(grid);
  for (int s = 0; s < layout.num_sites(); ++s) {
    const Vec2 site = layout.position(s);
    for (const Vec2& off : offsets) {
      const Vec2 img{site.x + off.x, site.y + off.y};
      buckets_[bucket_of(img.x, img.y)].push_back(Entry{s, img});
    }
  }
  const auto sites = static_cast<std::size_t>(layout.num_sites());
  if (mark_.size() < sites) {
    mark_.assign(sites, 0);
  } else {
    std::fill(mark_.begin(), mark_.end(), 0);
  }
}

std::size_t SiteIndex::bucket_of(double x, double y) const {
  int bx = static_cast<int>(std::floor((x - origin_x_) * inv_bucket_));
  int by = static_cast<int>(std::floor((y - origin_y_) * inv_bucket_));
  bx = std::clamp(bx, 0, nx_ - 1);
  by = std::clamp(by, 0, ny_ - 1);
  return static_cast<std::size_t>(by) * static_cast<std::size_t>(nx_) +
         static_cast<std::size_t>(bx);
}

double SiteIndex::cells_near(const Vec2& p, std::vector<int>& out) const {
  return cells_near(p, out, mark_);
}

double SiteIndex::cells_near(const Vec2& p, std::vector<int>& out,
                             std::vector<char>& scratch) const {
  const int sites = layout_->num_sites();
  if (radius_m_ <= 0.0) {
    for (int s = 0; s < sites; ++s) out.push_back(s);
    return std::numeric_limits<double>::infinity();
  }
  if (scratch.size() < static_cast<std::size_t>(sites)) {
    scratch.assign(static_cast<std::size_t>(sites), 0);
  }
  // Clamping the centre bucket keeps out-of-box queries correct: an image
  // within the radius of an outside point is at most one bucket past the
  // nearest edge bucket, which the 3×3 neighbourhood still covers.
  const int cx = static_cast<int>(
      std::clamp(std::floor((p.x - origin_x_) * inv_bucket_),
                 0.0, static_cast<double>(nx_ - 1)));
  const int cy = static_cast<int>(
      std::clamp(std::floor((p.y - origin_y_) * inv_bucket_),
                 0.0, static_cast<double>(ny_ - 1)));
  const int bx_lo = std::max(0, cx - 1);
  const int bx_hi = std::min(nx_ - 1, cx + 1);
  const int by_lo = std::max(0, cy - 1);
  const int by_hi = std::min(ny_ - 1, cy + 1);
  // The slack's inputs: the farthest in-range image and the nearest
  // visited image out of range.
  double in_max_sq = -1.0;
  double out_min_sq = std::numeric_limits<double>::infinity();
  for (int by = by_lo; by <= by_hi; ++by) {
    for (int bx = bx_lo; bx <= bx_hi; ++bx) {
      const auto& bucket =
          buckets_[static_cast<std::size_t>(by) *
                       static_cast<std::size_t>(nx_) +
                   static_cast<std::size_t>(bx)];
      for (const Entry& e : bucket) {
        const double dx = p.x - e.pos.x;
        const double dy = p.y - e.pos.y;
        const double d_sq = dx * dx + dy * dy;
        if (d_sq > radius_sq_m2_) {
          out_min_sq = std::min(out_min_sq, d_sq);
          continue;
        }
        in_max_sq = std::max(in_max_sq, d_sq);
        scratch[static_cast<std::size_t>(e.site)] = 1;
      }
    }
  }
  const double guard =
      kSlackGuard * (guard_scale_m_ + std::abs(p.x) + std::abs(p.y));
  if (in_max_sq < 0.0) {
    // No band covers the position: the user still needs a serving
    // candidate, so fall back to the nearest site under the wrap metric.
    // The answer holds until some site comes within the radius or another
    // site becomes the nearest, which takes half the gap to the runner-up.
    int best = 0;
    double best_sq = layout_->distance_sq(p, 0);
    double second_sq = std::numeric_limits<double>::infinity();
    for (int s = 1; s < sites; ++s) {
      const double d = layout_->distance_sq(p, s);
      if (d < best_sq) {
        second_sq = best_sq;
        best_sq = d;
        best = s;
      } else if (d < second_sq) {
        second_sq = d;
      }
    }
    out.push_back(best);
    const double nearest = std::sqrt(best_sq);
    const double slack = std::min(nearest - radius_m_,
                                  0.5 * (std::sqrt(second_sq) - nearest));
    return std::max(0.0, slack - guard);
  }
  for (int s = 0; s < sites; ++s) {
    if (scratch[static_cast<std::size_t>(s)]) {
      out.push_back(s);
      scratch[static_cast<std::size_t>(s)] = 0;
    }
  }
  double slack = radius_m_ - std::sqrt(in_max_sq);
  slack = std::min(slack, std::sqrt(out_min_sq) - radius_m_);
  // Images in buckets the query did not visit lie beyond the visited
  // block's edges; an edge with no buckets beyond it bounds nothing.
  const double rx = p.x - origin_x_;
  const double ry = p.y - origin_y_;
  const double edge = bucket_edge_m_;
  if (bx_lo > 0) slack = std::min(slack, rx - bx_lo * edge - radius_m_);
  if (bx_hi < nx_ - 1) {
    slack = std::min(slack, (bx_hi + 1) * edge - rx - radius_m_);
  }
  if (by_lo > 0) slack = std::min(slack, ry - by_lo * edge - radius_m_);
  if (by_hi < ny_ - 1) {
    slack = std::min(slack, (by_hi + 1) * edge - ry - radius_m_);
  }
  return std::max(0.0, slack - guard);
}

}  // namespace charisma::mac
