#include "core/alias.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <tuple>
#include <unordered_map>

#include "store/engine_dictionary.hpp"
#include "util/rng.hpp"

namespace snmpv3fp::core {

namespace {

std::int64_t match_key(RebootMatch match, util::VTime last_reboot) {
  const double seconds = util::to_seconds(last_reboot);
  switch (match) {
    case RebootMatch::kExact:
      return static_cast<std::int64_t>(std::floor(seconds));
    case RebootMatch::kRound:
      // Round the last decimal digit away: nearest 10 seconds.
      return static_cast<std::int64_t>(std::llround(seconds / 10.0));
    case RebootMatch::kDivide20:
      return static_cast<std::int64_t>(std::floor(seconds / 20.0));
    case RebootMatch::kDivide20Round:
      return static_cast<std::int64_t>(std::llround(seconds / 20.0));
  }
  return 0;
}

}  // namespace

std::string_view to_string(RebootMatch match) {
  switch (match) {
    case RebootMatch::kExact: return "Exact";
    case RebootMatch::kRound: return "Round";
    case RebootMatch::kDivide20: return "Divide by 20";
    case RebootMatch::kDivide20Round: return "Divide by 20+round";
  }
  return "?";
}

std::size_t AliasSet::v4_count() const {
  return static_cast<std::size_t>(
      std::count_if(addresses.begin(), addresses.end(),
                    [](const net::IpAddress& a) { return a.is_v4(); }));
}

std::size_t AliasSet::v6_count() const {
  return addresses.size() - v4_count();
}

std::size_t AliasResolution::non_singleton_count() const {
  return static_cast<std::size_t>(
      std::count_if(sets.begin(), sets.end(),
                    [](const AliasSet& s) { return !s.singleton(); }));
}

std::size_t AliasResolution::ips_in_non_singletons() const {
  std::size_t total = 0;
  for (const auto& set : sets)
    if (!set.singleton()) total += set.addresses.size();
  return total;
}

std::size_t AliasResolution::total_ips() const {
  std::size_t total = 0;
  for (const auto& set : sets) total += set.addresses.size();
  return total;
}

double AliasResolution::mean_ips_per_non_singleton() const {
  const std::size_t sets_count = non_singleton_count();
  if (sets_count == 0) return 0.0;
  return static_cast<double>(ips_in_non_singletons()) /
         static_cast<double>(sets_count);
}

AliasResolution resolve_aliases(std::span<const JoinedRecord> records,
                                const AliasOptions& options,
                                const util::ParallelOptions& parallel,
                                const obs::ObsOptions& obs) {
  const std::span<const JoinedRecord> parts[] = {records};
  return resolve_aliases(std::span<const std::span<const JoinedRecord>>(parts),
                         options, parallel, obs);
}

AliasResolution resolve_aliases(
    std::span<const std::span<const JoinedRecord>> parts,
    const AliasOptions& options, const util::ParallelOptions& parallel,
    const obs::ObsOptions& obs) {
  obs::Span resolve_span(obs.trace(), obs.scoped("alias"));
  // Flatten the parts into one pointer table (8 bytes per record, no
  // JoinedRecord copies); every phase below indexes records through it.
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  std::vector<const JoinedRecord*> ptrs;
  ptrs.reserve(total);
  for (const auto& part : parts)
    for (const auto& record : part) ptrs.push_back(&record);
  const auto record_at = [&](std::size_t i) -> const JoinedRecord& {
    return *ptrs[i];
  };
  // Key: engine ID (as a dictionary code) + boots/reboot of scan 1
  // (+ scan 2 when enabled). Once the IDs are dictionary-encoded, every
  // key comparison below is integer-only — the ID bytes are hashed and
  // compared exactly once per distinct engine ID, at dictionary insert.
  struct KeyScalars {
    std::uint32_t boots1 = 0;
    std::int64_t reboot1 = 0;
    std::uint32_t boots2 = 0;
    std::int64_t reboot2 = 0;

    bool operator==(const KeyScalars&) const = default;
  };
  const std::size_t n = total;

  obs::Span keys_span(obs.trace(), obs.scoped("alias.keys"));
  // Phase 1a: dictionary-encode the engine IDs. Chunk count is FIXED (not
  // thread-derived): per-chunk local dictionaries build in parallel, then
  // merge into the global code space in chunk order, so codes — and
  // everything derived from them — never depend on the thread count.
  constexpr std::size_t kDictChunks = 16;
  std::vector<std::uint32_t> code(n);
  store::EngineDictionary dict;
  {
    struct ChunkDict {
      store::EngineDictionary local;
      std::size_t begin = 0, end = 0;
    };
    std::array<ChunkDict, kDictChunks> chunks;
    util::parallel_for(0, kDictChunks, parallel, [&](std::size_t c) {
      auto& chunk = chunks[c];
      chunk.begin = n * c / kDictChunks;
      chunk.end = n * (c + 1) / kDictChunks;
      for (std::size_t i = chunk.begin; i < chunk.end; ++i)
        code[i] = chunk.local.encode(record_at(i).engine_id().raw());
    });
    for (auto& chunk : chunks) {
      std::vector<std::uint32_t> remap(chunk.local.size());
      for (std::size_t e = 0; e < chunk.local.size(); ++e)
        remap[e] = dict.encode(chunk.local.entries()[e].raw());
      for (std::size_t i = chunk.begin; i < chunk.end; ++i)
        code[i] = remap[code[i]];
    }
  }
  // Per-code hash of the ID bytes, computed once per distinct ID.
  std::vector<std::uint64_t> id_hash(dict.size());
  for (std::size_t c = 0; c < dict.size(); ++c)
    id_hash[c] = util::fnv1a64(dict.entries()[c].raw());

  // Phase 1b: per-record key scalars and a 64-bit key hash, in parallel —
  // integer-only now that the ID contribution is a per-code table lookup.
  std::vector<KeyScalars> scalars(n);
  std::vector<std::uint64_t> hashes(n);
  util::parallel_for(0, n, parallel, [&](std::size_t i) {
    const auto& record = record_at(i);
    KeyScalars key;
    if (!options.engine_id_only) {
      key.boots1 = record.first.engine_boots;
      key.reboot1 = match_key(options.match, record.first.last_reboot());
      if (options.use_both_scans) {
        key.boots2 = record.second.engine_boots;
        key.reboot2 = match_key(options.match, record.second.last_reboot());
      }
    }
    std::uint64_t h = id_hash[code[i]];
    h = util::hash_combine(h, key.boots1);
    h = util::hash_combine(h, static_cast<std::uint64_t>(key.reboot1));
    h = util::hash_combine(h, key.boots2);
    h = util::hash_combine(h, static_cast<std::uint64_t>(key.reboot2));
    scalars[i] = key;
    hashes[i] = h;
  });
  keys_span.finish();

  obs::Span bucket_span(obs.trace(), obs.scoped("alias.bucket"));
  // Phase 2: radix partition by the low hash byte — a counting sort into
  // 256 buckets, stable, so each bucket lists its records in input order.
  // The bucket count is fixed (not thread-derived); equal keys always
  // share a hash and thus a bucket.
  constexpr std::size_t kRadixBuckets = 256;
  std::array<std::uint32_t, kRadixBuckets + 1> offsets{};
  for (std::size_t i = 0; i < n; ++i) ++offsets[(hashes[i] & 0xFF) + 1];
  for (std::size_t b = 0; b < kRadixBuckets; ++b)
    offsets[b + 1] += offsets[b];
  std::vector<std::uint32_t> order(n);
  {
    auto cursor = offsets;  // copy: running write positions per bucket
    for (std::size_t i = 0; i < n; ++i)
      order[cursor[hashes[i] & 0xFF]++] = static_cast<std::uint32_t>(i);
  }
  bucket_span.finish();

  obs::Span group_span(obs.trace(), obs.scoped("alias.group"));
  // Phase 3: group each bucket independently. Hash collisions between
  // distinct keys are resolved by comparing (code, scalars) — integers
  // only; the dictionary made byte comparison unnecessary.
  struct BucketGroups {
    std::vector<AliasSet> sets;
    std::vector<KeyScalars> keys;  // key scalars per set, for the merge
    std::vector<std::uint32_t> codes;  // engine-ID code per set
  };
  std::vector<BucketGroups> groups(kRadixBuckets);
  util::parallel_for(0, kRadixBuckets, parallel, [&](std::size_t bucket) {
    auto& out = groups[bucket];
    const std::uint32_t begin = offsets[bucket];
    const std::uint32_t end = offsets[bucket + 1];
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> by_hash;
    by_hash.reserve(end - begin);
    for (std::uint32_t slot = begin; slot < end; ++slot) {
      const std::uint32_t index = order[slot];
      auto& candidates = by_hash[hashes[index]];
      std::uint32_t group = ~std::uint32_t{0};
      for (const std::uint32_t candidate : candidates) {
        if (out.codes[candidate] == code[index] &&
            out.keys[candidate] == scalars[index]) {
          group = candidate;
          break;
        }
      }
      if (group == ~std::uint32_t{0}) {
        const auto& record = record_at(index);
        group = static_cast<std::uint32_t>(out.sets.size());
        AliasSet set;
        set.engine_id = dict.entries()[code[index]];
        set.engine_boots = record.first.engine_boots;
        set.last_reboot = record.first.last_reboot();
        out.sets.push_back(std::move(set));
        out.keys.push_back(scalars[index]);
        out.codes.push_back(code[index]);
        candidates.push_back(group);
      }
      out.sets[group].addresses.push_back(record_at(index).address);
    }
    for (auto& set : out.sets)
      std::sort(set.addresses.begin(), set.addresses.end());
  });
  group_span.finish();

  obs::Span merge_span(obs.trace(), obs.scoped("alias.merge"));
  // Phase 4: merge buckets into canonical key order — (ID bytes, boots1,
  // reboot1, boots2, reboot2) lexicographically, exactly the order the
  // former std::map<Key> produced. The byte comparison collapses to an
  // integer rank precomputed once over the dictionary. Distinct groups
  // have distinct keys, so the order is total.
  std::vector<std::uint32_t> rank(dict.size());
  {
    std::vector<std::uint32_t> by_bytes(dict.size());
    for (std::uint32_t c = 0; c < dict.size(); ++c) by_bytes[c] = c;
    std::sort(by_bytes.begin(), by_bytes.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return dict.entries()[a].raw() < dict.entries()[b].raw();
              });
    for (std::uint32_t r = 0; r < by_bytes.size(); ++r)
      rank[by_bytes[r]] = r;
  }
  struct GroupRef {
    std::uint32_t bucket;
    std::uint32_t index;
  };
  std::vector<GroupRef> refs;
  std::size_t total_groups = 0;
  for (const auto& bucket : groups) total_groups += bucket.sets.size();
  refs.reserve(total_groups);
  for (std::uint32_t b = 0; b < kRadixBuckets; ++b)
    for (std::uint32_t g = 0; g < groups[b].sets.size(); ++g)
      refs.push_back({b, g});
  std::sort(refs.begin(), refs.end(),
            [&](const GroupRef& a, const GroupRef& b) {
              const std::uint32_t rank_a = rank[groups[a.bucket].codes[a.index]];
              const std::uint32_t rank_b = rank[groups[b.bucket].codes[b.index]];
              if (rank_a != rank_b) return rank_a < rank_b;
              const auto& key_a = groups[a.bucket].keys[a.index];
              const auto& key_b = groups[b.bucket].keys[b.index];
              return std::tie(key_a.boots1, key_a.reboot1, key_a.boots2,
                              key_a.reboot2) <
                     std::tie(key_b.boots1, key_b.reboot1, key_b.boots2,
                              key_b.reboot2);
            });

  AliasResolution resolution;
  resolution.sets.reserve(total_groups);
  for (const auto& ref : refs)
    resolution.sets.push_back(std::move(groups[ref.bucket].sets[ref.index]));
  merge_span.finish();

  if (obs.enabled()) {
    obs.counter("alias.records").add(n);
    obs.counter("alias.sets").add(resolution.sets.size());
    obs.counter("alias.non_singleton_sets")
        .add(resolution.non_singleton_count());
  }
  if (obs::Logger::global().enabled(obs::LogLevel::kInfo)) {
    obs::log_info("alias resolution finished",
                  {{"records", n},
                   {"sets", resolution.sets.size()},
                   {"non_singleton", resolution.non_singleton_count()}});
  }
  return resolution;
}

StackBreakdown breakdown_by_stack(const AliasResolution& resolution) {
  StackBreakdown out;
  for (const auto& set : resolution.sets) {
    const std::size_t v4 = set.v4_count();
    const std::size_t v6 = set.v6_count();
    if (v4 > 0 && v6 > 0) {
      ++out.dual_sets;
      out.dual_ips += set.addresses.size();
    } else if (v4 > 0) {
      ++out.v4_only_sets;
      if (v4 > 1) {
        ++out.v4_only_non_singleton;
        out.v4_only_ips_nonsingleton += v4;
      }
    } else {
      ++out.v6_only_sets;
      if (v6 > 1) {
        ++out.v6_only_non_singleton;
        out.v6_only_ips_nonsingleton += v6;
      }
    }
  }
  return out;
}

}  // namespace snmpv3fp::core
