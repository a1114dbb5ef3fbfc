// hic-bound: abstract domains for the dataflow engine.
//
// Two numeric domains over unsigned synchronization counters:
//  * Interval — [lo, hi] with a saturating infinity. The join semilattice
//    the worklist engine (engine.h) iterates over; widening jumps a bound
//    that keeps growing to 0 / +inf so loops converge in one extra visit.
//  * AffineCounter — the §3.1 countdown invariant in closed form:
//    countdown = N·rounds − drains with 0 ≤ countdown ≤ N. Client
//    analyses use it to derive (and, under --explain, show) per-entry
//    countdown intervals from per-pass produce/consume counts.
//
// All arithmetic saturates at kInf; nothing here can wrap.
#pragma once

#include <cstdint>
#include <string>

namespace hicsync::bound {

/// +inf for the interval upper bound (and the saturation point of every
/// product/sum the clients compute).
inline constexpr std::uint64_t kInf = ~0ull;

[[nodiscard]] constexpr std::uint64_t sat_add(std::uint64_t a,
                                              std::uint64_t b) {
  return (a == kInf || b == kInf || a > kInf - b) ? kInf : a + b;
}

[[nodiscard]] constexpr std::uint64_t sat_mul(std::uint64_t a,
                                              std::uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a == kInf || b == kInf || a > kInf / b) return kInf;
  return a * b;
}

/// Interval over unsigned counters: [lo, hi], hi == kInf meaning
/// unbounded above. Default-constructed is bottom (empty: lo > hi).
struct Interval {
  std::uint64_t lo = 1;
  std::uint64_t hi = 0;

  [[nodiscard]] static Interval bottom() { return {}; }
  [[nodiscard]] static Interval exact(std::uint64_t v) { return {v, v}; }
  [[nodiscard]] static Interval range(std::uint64_t lo, std::uint64_t hi) {
    return {lo, hi};
  }

  [[nodiscard]] bool is_bottom() const { return lo > hi; }
  [[nodiscard]] bool contains(std::uint64_t v) const {
    return !is_bottom() && lo <= v && v <= hi;
  }
  /// Superset test: every value of `o` lies in this interval (the
  /// containment the differential-vs-hic-verify suite asserts).
  [[nodiscard]] bool contains(const Interval& o) const {
    if (o.is_bottom()) return true;
    return !is_bottom() && lo <= o.lo && o.hi <= hi;
  }
  [[nodiscard]] bool operator==(const Interval& o) const {
    return (is_bottom() && o.is_bottom()) || (lo == o.lo && hi == o.hi);
  }

  /// Least upper bound; returns true when this interval grew.
  bool join_with(const Interval& o) {
    if (o.is_bottom()) return false;
    if (is_bottom()) {
      *this = o;
      return true;
    }
    bool changed = false;
    if (o.lo < lo) { lo = o.lo; changed = true; }
    if (o.hi > hi) { hi = o.hi; changed = true; }
    return changed;
  }

  /// Standard interval widening against the next iterate `o`: any bound
  /// still moving jumps to its extreme, so ascending chains stabilize.
  void widen_with(const Interval& o) {
    if (o.is_bottom()) return;
    if (is_bottom()) {
      *this = o;
      return;
    }
    if (o.lo < lo) lo = 0;
    if (o.hi > hi) hi = kInf;
  }

  /// Saturating translate by +k (the transfer function of a sync op).
  [[nodiscard]] Interval plus(std::uint64_t k) const {
    if (is_bottom()) return bottom();
    return {sat_add(lo, k), sat_add(hi, k)};
  }
  [[nodiscard]] Interval plus(const Interval& o) const {
    if (is_bottom() || o.is_bottom()) return bottom();
    return {sat_add(lo, o.lo), sat_add(hi, o.hi)};
  }

  /// "[lo, hi]" / "[lo, inf)" / "empty".
  [[nodiscard]] std::string str() const;
};

/// The arbitrated controller's countdown counter in affine closed form:
/// after `rounds` completed produce rounds and `drains` consumer reads,
/// countdown = scale·rounds − drains, and the §3.1 guards pin it inside
/// [0, scale] (a produce is enabled only at 0, a consume only above 0).
struct AffineCounter {
  std::uint64_t scale = 1;  // the dependency number N
  Interval rounds = Interval::exact(0);
  Interval drains = Interval::exact(0);

  /// The countdown values consistent with the affine relation and the
  /// guard invariant: [0, 0] when no round can ever complete (the entry
  /// is dead), [0, scale] otherwise.
  [[nodiscard]] Interval countdown() const {
    if (rounds.is_bottom() || rounds.hi == 0) return Interval::exact(0);
    return Interval::range(0, scale);
  }
  /// Derivation trace for --explain.
  [[nodiscard]] std::string str(const std::string& dep_id) const;
};

}  // namespace hicsync::bound
