#include "core/filter.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/smallvec.hpp"
#include "util/strings.hpp"

namespace bgps::core {

bool PrefixFilter::matches(const Prefix& p) const {
  switch (mode) {
    case PrefixMatchMode::Exact: return p == prefix;
    case PrefixMatchMode::MoreSpecific: return prefix.contains(p);
    case PrefixMatchMode::LessSpecific: return p.contains(prefix);
    case PrefixMatchMode::Any: return prefix.overlaps(p);
  }
  return false;
}

Result<AsPathPattern> AsPathPattern::Parse(const std::string& pattern) {
  AsPathPattern out;
  out.text_ = pattern;
  auto tokens = SplitSkipEmpty(pattern, ' ');
  if (tokens.empty()) return InvalidArgument("empty aspath pattern");
  // '^' may be fused to the first token ("^65001") or stand alone.
  if (tokens.front() == "^") {
    out.anchor_start_ = true;
    tokens.erase(tokens.begin());
  } else if (tokens.front().front() == '^') {
    out.anchor_start_ = true;
    tokens.front().erase(0, 1);
  }
  if (!tokens.empty() && tokens.back() == "$") {
    out.anchor_end_ = true;
    tokens.pop_back();
  } else if (!tokens.empty() && tokens.back().back() == '$') {
    out.anchor_end_ = true;
    tokens.back().pop_back();
  }
  if (tokens.empty()) return InvalidArgument("aspath pattern has no tokens");
  for (const auto& tok : tokens) {
    Token t;
    if (tok == "*") {
      t.kind = Token::Kind::AnyOne;
    } else if (tok == "%") {
      t.kind = Token::Kind::AnyRun;
    } else {
      char* end = nullptr;
      unsigned long v = std::strtoul(tok.c_str(), &end, 10);
      if (end != tok.c_str() + tok.size() || tok.empty())
        return InvalidArgument("bad aspath token: " + tok);
      t.kind = Token::Kind::Asn;
      t.asn = bgp::Asn(v);
    }
    out.tokens_.push_back(t);
  }
  return out;
}

bool AsPathPattern::MatchFrom(const bgp::Asn* hops, size_t n, size_t hop,
                              size_t token) const {
  if (token == tokens_.size()) {
    return anchor_end_ ? hop == n : true;
  }
  const Token& t = tokens_[token];
  switch (t.kind) {
    case Token::Kind::Asn:
      return hop < n && hops[hop] == t.asn &&
             MatchFrom(hops, n, hop + 1, token + 1);
    case Token::Kind::AnyOne:
      return hop < n && MatchFrom(hops, n, hop + 1, token + 1);
    case Token::Kind::AnyRun:
      for (size_t next = hop; next <= n; ++next) {
        if (MatchFrom(hops, n, next, token + 1)) return true;
      }
      return false;
  }
  return false;
}

bool AsPathPattern::matches(const bgp::AsPath& path) const {
  // The hop sequence of AsPath::hops(), flattened into inline storage:
  // a path within the decoder's inline capacities (two segments of
  // eight) is matched without touching the heap.
  SmallVec<bgp::Asn, 16> hops;
  for (const auto& seg : path.segments())
    for (bgp::Asn a : seg.asns) hops.push_back(a);
  if (anchor_start_) return MatchFrom(hops.data(), hops.size(), 0, 0);
  for (size_t start = 0; start <= hops.size(); ++start) {
    if (MatchFrom(hops.data(), hops.size(), start, 0)) return true;
  }
  return false;
}

Status FilterSet::AddOption(const std::string& key, const std::string& value) {
  if (key == "project") {
    projects.push_back(value);
    return OkStatus();
  }
  if (key == "collector") {
    collectors.push_back(value);
    return OkStatus();
  }
  if (key == "type") {
    if (value == "ribs") dump_types.push_back(DumpType::Rib);
    else if (value == "updates") dump_types.push_back(DumpType::Updates);
    else return InvalidArgument("unknown dump type: " + value);
    return OkStatus();
  }
  if (key == "prefix") {
    auto parts = SplitSkipEmpty(value, ' ');
    PrefixFilter f;
    std::string pfx_text;
    if (parts.size() == 2) {
      if (parts[0] == "exact") f.mode = PrefixMatchMode::Exact;
      else if (parts[0] == "more") f.mode = PrefixMatchMode::MoreSpecific;
      else if (parts[0] == "less") f.mode = PrefixMatchMode::LessSpecific;
      else if (parts[0] == "any") f.mode = PrefixMatchMode::Any;
      else return InvalidArgument("unknown prefix mode: " + parts[0]);
      pfx_text = parts[1];
    } else if (parts.size() == 1) {
      pfx_text = parts[0];
    } else {
      return InvalidArgument("bad prefix filter: " + value);
    }
    BGPS_ASSIGN_OR_RETURN(f.prefix, Prefix::Parse(pfx_text));
    prefixes.push_back(f);
    return OkStatus();
  }
  if (key == "community") {
    BGPS_ASSIGN_OR_RETURN(auto m, bgp::CommunityMatcher::Parse(value));
    communities.push_back(m);
    return OkStatus();
  }
  if (key == "peer") {
    peer_asns.push_back(bgp::Asn(std::stoul(value)));
    return OkStatus();
  }
  if (key == "path") {
    path_asns.push_back(bgp::Asn(std::stoul(value)));
    return OkStatus();
  }
  if (key == "aspath") {
    BGPS_ASSIGN_OR_RETURN(auto pattern, AsPathPattern::Parse(value));
    aspath_patterns.push_back(std::move(pattern));
    return OkStatus();
  }
  if (key == "elemtype") {
    if (value == "ribs") elem_types.push_back(ElemType::RibEntry);
    else if (value == "announcements") elem_types.push_back(ElemType::Announcement);
    else if (value == "withdrawals") elem_types.push_back(ElemType::Withdrawal);
    else if (value == "peerstates") elem_types.push_back(ElemType::PeerState);
    else return InvalidArgument("unknown elem type: " + value);
    return OkStatus();
  }
  if (key == "interval") {
    // "start,end" in unix seconds — the option form of SetInterval, so
    // remote subscription protocols can carry the time window through
    // the same key/value channel as every other filter.
    auto comma = value.find(',');
    if (comma == std::string::npos)
      return InvalidArgument("interval needs start,end: " + value);
    const std::string a = value.substr(0, comma);
    const std::string b = value.substr(comma + 1);
    char* end = nullptr;
    long long start_s = std::strtoll(a.c_str(), &end, 10);
    if (a.empty() || *end != '\0')
      return InvalidArgument("bad interval start: " + value);
    long long end_s = std::strtoll(b.c_str(), &end, 10);
    if (b.empty() || *end != '\0')
      return InvalidArgument("bad interval end: " + value);
    interval = {Timestamp(start_s), Timestamp(end_s)};
    return OkStatus();
  }
  if (key == "ipversion") {
    if (value == "4") ip_version = IpFamily::V4;
    else if (value == "6") ip_version = IpFamily::V6;
    else return InvalidArgument("bad ipversion: " + value);
    return OkStatus();
  }
  return InvalidArgument("unknown filter key: " + key);
}

bool FilterSet::MatchesMeta(const std::string& project,
                            const std::string& collector,
                            DumpType type) const {
  if (!projects.empty() &&
      std::find(projects.begin(), projects.end(), project) == projects.end())
    return false;
  if (!collectors.empty() &&
      std::find(collectors.begin(), collectors.end(), collector) ==
          collectors.end())
    return false;
  if (!dump_types.empty() &&
      std::find(dump_types.begin(), dump_types.end(), type) ==
          dump_types.end())
    return false;
  return true;
}

bool FilterSet::MatchesRecord(const Record& record) const {
  if (!MatchesMeta(record.project, record.collector, record.dump_type))
    return false;
  // RIB dumps overlapping the interval start are admitted in full so a
  // stream can bootstrap state from them; update records must lie inside.
  if (record.dump_type == DumpType::Rib) return true;
  return interval.contains(record.timestamp) ||
         record.status != RecordStatus::Valid;
}

void FilterSet::FilterElemsInPlace(std::vector<Elem>& elems) const {
  if (!HasElemFilters()) return;
  elems.erase(std::remove_if(elems.begin(), elems.end(),
                             [this](const Elem& e) { return !MatchesElem(e); }),
              elems.end());
}

bool FilterSet::MatchesElemFields(
    ElemType type, bgp::Asn peer_asn, const Prefix* prefix,
    const bgp::AsPath& elem_path,
    const bgp::Communities& elem_communities) const {
  if (!elem_types.empty() &&
      std::find(elem_types.begin(), elem_types.end(), type) ==
          elem_types.end())
    return false;
  if (!peer_asns.empty() &&
      std::find(peer_asns.begin(), peer_asns.end(), peer_asn) ==
          peer_asns.end())
    return false;
  if (ip_version && prefix != nullptr && prefix->family() != *ip_version)
    return false;
  if (!prefixes.empty()) {
    if (prefix == nullptr) return false;
    bool any = false;
    for (const auto& f : prefixes) {
      if (f.matches(*prefix)) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  if (!communities.empty()) {
    bool any = false;
    for (const auto& m : communities) {
      if (m.matches_any(elem_communities)) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  if (!path_asns.empty()) {
    bool any = false;
    for (bgp::Asn a : path_asns) {
      if (elem_path.contains(a)) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  if (!aspath_patterns.empty()) {
    bool any = false;
    for (const auto& pattern : aspath_patterns) {
      if (pattern.matches(elem_path)) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  return true;
}

}  // namespace bgps::core
