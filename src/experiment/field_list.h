// One field list per result/point struct: ExperimentPoint (spec.h) and
// PointResult (sweep.h) each list every member once, with how the plan
// fingerprint and the checkpoint line carry it (Codec), how aggregate_point
// folds it from per-run outcomes (Merge), and its per-chunk Metric. Those
// sites walk the list instead of naming members, and valid_field_list(),
// static_asserted beside each list, makes an unlisted member a compile
// error.
#ifndef WSYNC_EXPERIMENT_FIELD_LIST_H_
#define WSYNC_EXPERIMENT_FIELD_LIST_H_

#include <array>
#include <cstddef>
#include <tuple>
#include <type_traits>
#include <vector>

#include "src/common/types.h"
#include "src/stats/summary.h"
#include "src/telemetry/metrics.h"

namespace wsync {

/// How the plan fingerprint and the checkpoint line carry a field.
enum class Codec {
  kSkip,     ///< neither (the list entry says why)
  kInt,      ///< integer or enum of either sign
  kCount,    ///< integer that is never negative; decoding rejects a sign
  kDouble,   ///< IEEE-754 bit pattern, so every double round-trips exactly
  kSummary,  ///< Summary: its count, then kSummaryDoubles as bit patterns
  kWaves,    ///< crash waves: their count, then (round, count) per wave
};

/// How aggregate_point folds per-run outcomes into a PointResult field: by
/// hand, or as the sum or max (from zero) of the entry's per-run value.
enum class Merge { kCustom, kSum, kMax };

/// A per-chunk metrics column; its registry counter is `<key>_total`.
struct Metric {
  const char* key = nullptr;
  telemetry::MetricClass cls = telemetry::MetricClass::kDeterministic;
};

struct NoPerRun {};

template <typename Struct, typename Member, typename PerRun = NoPerRun>
struct Field {
  const char* name;
  Member Struct::*member;
  Codec codec;
  Merge merge = Merge::kCustom;
  PerRun per_run = {};  ///< RunOutcome -> value (std::invoke), kSum/kMax only
  Metric metric = {};
};

/// Summary's doubles in codec order (its count travels first).
inline constexpr std::array<double Summary::*, 7> kSummaryDoubles = {
    &Summary::mean, &Summary::stddev, &Summary::min, &Summary::max,
    &Summary::p50,  &Summary::p90,    &Summary::p99};

/// The codec a member type travels with; kSkip for types that have none.
template <typename Member>
constexpr Codec natural_codec() {
  if (std::is_same_v<Member, double>) return Codec::kDouble;
  if (std::is_same_v<Member, Summary>) return Codec::kSummary;
  if (std::is_same_v<Member, std::vector<CrashWave>>) return Codec::kWaves;
  if (std::is_integral_v<Member> || std::is_enum_v<Member>) return Codec::kInt;
  return Codec::kSkip;
}

template <typename Fields, typename Fn>
constexpr void for_each_field(const Fields& fields, Fn&& fn) {
  std::apply([&](const auto&... field) { (fn(field), ...); }, fields);
}

/// fn(field, object.*field.member) for every entry not marked kSkip.
template <typename Fields, typename Struct, typename Fn>
constexpr void for_each_coded(const Fields& fields, Struct& object, Fn&& fn) {
  for_each_field(fields, [&](const auto& field) {
    using Member = std::remove_cvref_t<decltype(object.*field.member)>;
    if constexpr (natural_codec<Member>() != Codec::kSkip) {
      if (field.codec != Codec::kSkip) fn(field, object.*field.member);
    }
  });
}

namespace field_list_detail {

struct AnyMember {
  template <typename T>
  operator T() const;  // only named in unevaluated probes
};

/// Members of the aggregate T: the longest brace initializer it accepts.
template <typename T, typename... Probes>
constexpr size_t member_count() {
  if constexpr (requires { T{Probes{}..., AnyMember{}}; }) {
    return member_count<T, Probes..., AnyMember>();
  } else {
    return sizeof...(Probes);
  }
}

template <typename Struct, typename Member, typename PerRun>
constexpr bool entry_fits(const Field<Struct, Member, PerRun>& field) {
  constexpr Codec natural = natural_codec<Member>();
  return (field.codec == Codec::kSkip || field.codec == natural ||
          (field.codec == Codec::kCount && natural == Codec::kInt)) &&
         std::is_same_v<PerRun, NoPerRun> == (field.merge == Merge::kCustom) &&
         (field.metric.key == nullptr || std::is_integral_v<Member>);
}

}  // namespace field_list_detail

/// One entry per member of Struct, none twice, each with a codec that fits
/// its type, a per-run value iff it merges by kSum/kMax, integer metrics.
template <typename Struct, typename Fields>
constexpr bool valid_field_list(const Fields& fields) {
  bool ok = std::tuple_size_v<Fields> ==
            field_list_detail::member_count<Struct>();
  size_t i = 0;
  for_each_field(fields, [&](const auto& a) {
    ok = ok && field_list_detail::entry_fits(a);
    size_t j = 0;
    for_each_field(fields, [&](const auto& b) {
      if constexpr (std::is_same_v<decltype(a.member), decltype(b.member)>) {
        ok = ok && (i == j || a.member != b.member);
      }
      ++j;
    });
    ++i;
  });
  return ok;
}

static_assert(field_list_detail::member_count<Summary>() ==
                  1 + kSummaryDoubles.size(),
              "kSummaryDoubles must name every double of Summary");

}  // namespace wsync

#endif  // WSYNC_EXPERIMENT_FIELD_LIST_H_
