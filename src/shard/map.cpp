#include "shard/map.h"

#include <algorithm>
#include <span>
#include <unordered_set>

#include "common/checksum.h"
#include "common/error.h"

namespace gs::shard {

namespace {

std::span<const std::byte> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

}  // namespace

std::uint64_t hash64(std::string_view s) {
  // FNV-1a 64-bit...
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  // ...finished with splitmix64 for avalanche (FNV alone clusters short
  // suffix-varying keys like "U/0/1", "U/0/2" on the ring).
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

ShardMap::ShardMap(std::uint64_t epoch, std::size_t vnodes,
                   std::vector<ShardInfo> shards)
    : epoch_(epoch), vnodes_(vnodes), shards_(std::move(shards)) {
  GS_REQUIRE(!shards_.empty(), "shard map has no shards");
  GS_REQUIRE(vnodes_ > 0, "shard map vnodes must be > 0");
  std::unordered_set<std::string> seen;
  for (const ShardInfo& s : shards_) {
    GS_REQUIRE(!s.id.empty(), "shard map entry with empty id");
    GS_REQUIRE(s.id.find('|') == std::string::npos &&
                   s.id.find('#') == std::string::npos,
               "shard id '" << s.id << "' may not contain '|' or '#'");
    GS_REQUIRE(seen.insert(s.id).second, "duplicate shard id '" << s.id
                                                                << "'");
  }
}

ShardMap ShardMap::from_json(const json::Value& v) {
  // Validation beyond the constructor's: a FILE claiming membership must
  // be fully explicit — a daemon nobody can dial (empty endpoint) or an
  // epoch that cannot ever be a valid successor (< 1) is a torn or
  // hand-mangled map, rejected with a distinct one-line reason so the
  // reload path logs exactly what is wrong.
  const auto raw_epoch = v.get_or("epoch", std::int64_t{1});
  GS_REQUIRE(raw_epoch >= 1, "shard map epoch must be >= 1, got "
                                 << raw_epoch);
  const auto raw_vnodes = v.get_or("vnodes", std::int64_t{64});
  GS_REQUIRE(raw_vnodes >= 1, "shard map vnodes must be >= 1, got "
                                  << raw_vnodes);
  std::vector<ShardInfo> shards;
  for (const json::Value& e : v.at("shards").as_array()) {
    ShardInfo info{e.at("id").as_string(),
                   e.get_or("endpoint", std::string{})};
    GS_REQUIRE(!info.endpoint.empty(), "shard '" << info.id
                                                 << "' has an empty endpoint");
    shards.push_back(std::move(info));
  }
  return ShardMap(static_cast<std::uint64_t>(raw_epoch),
                  static_cast<std::size_t>(raw_vnodes), std::move(shards));
}

ShardMap ShardMap::from_file(const std::string& path) {
  try {
    return from_json(json::parse_file(path));
  } catch (const std::exception& e) {
    GS_THROW(Error, "shard map " << path << ": " << e.what());
  }
}

json::Value ShardMap::to_json() const {
  json::Object o;
  o["epoch"] = json::Value(epoch_);
  o["vnodes"] = json::Value(static_cast<std::int64_t>(vnodes_));
  json::Array arr;
  for (const ShardInfo& s : shards_) {
    json::Object e;
    e["id"] = json::Value(s.id);
    e["endpoint"] = json::Value(s.endpoint);
    arr.emplace_back(std::move(e));
  }
  o["shards"] = json::Value(std::move(arr));
  return json::Value(std::move(o));
}

const ShardInfo* ShardMap::find(std::string_view id) const {
  for (const ShardInfo& s : shards_) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

std::uint32_t ShardMap::ring_crc() const {
  std::string spec =
      std::to_string(epoch_) + "|" + std::to_string(vnodes_);
  for (const ShardInfo& s : shards_) {
    spec += "|";
    spec += s.id;
  }
  return crc32(bytes_of(spec));
}

Ring::Ring(const ShardMap& map) {
  ids_.reserve(map.size());
  points_.reserve(map.size() * map.vnodes());
  for (const ShardInfo& s : map.shards()) {
    const auto shard = static_cast<std::uint32_t>(ids_.size());
    ids_.push_back(s.id);
    for (std::size_t v = 0; v < map.vnodes(); ++v) {
      points_.push_back(
          Point{hash64(s.id + "#" + std::to_string(v)), shard});
    }
  }
  // Ties broken by shard index so equal-hash vnodes (astronomically rare)
  // still order identically everywhere.
  std::sort(points_.begin(), points_.end(), [](const Point& a,
                                               const Point& b) {
    return a.hash != b.hash ? a.hash < b.hash : a.shard < b.shard;
  });
}

std::size_t Ring::first_at_or_after(std::uint64_t h) const {
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), h,
      [](const Point& p, std::uint64_t key) { return p.hash < key; });
  return it == points_.end() ? 0 : static_cast<std::size_t>(
                                       it - points_.begin());
}

const std::string& Ring::owner(std::string_view key) const {
  return ids_[points_[first_at_or_after(hash64(key))].shard];
}

std::vector<std::string> Ring::chain(std::string_view key,
                                     std::size_t count) const {
  std::vector<std::string> out;
  if (count == 0) return out;
  std::size_t i = first_at_or_after(hash64(key));
  for (std::size_t seen = 0;
       seen < points_.size() && out.size() < std::min(count, ids_.size());
       ++seen) {
    const std::string& id = ids_[points_[i].shard];
    if (std::find(out.begin(), out.end(), id) == out.end()) {
      out.push_back(id);
    }
    i = (i + 1) % points_.size();
  }
  return out;
}

std::string Ring::block_key(std::string_view variable, std::int64_t step,
                            std::size_t block) {
  std::string key(variable);
  key += "/";
  key += std::to_string(step);
  key += "/";
  key += std::to_string(block);
  return key;
}

}  // namespace gs::shard
