#include "topology/generator.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/error.h"

namespace repro {

namespace {

constexpr double kMillion = 1e6;

/// Deterministic per-country sub-generator so that adding a country does not
/// reshuffle every other country's draws.
Rng country_rng(std::uint64_t seed, std::string_view code, std::uint64_t salt) {
  std::uint64_t h = seed ^ mix64(salt);
  for (const char c : code) h = mix64(h ^ static_cast<std::uint64_t>(c));
  return Rng(h);
}

int metro_count_for(const CountryInfo& country) {
  return static_cast<int>(
      std::clamp(1.0 + country.internet_users_m / 15.0, 1.0, 20.0));
}

std::string metro_iata(std::string_view country_code, int ordinal) {
  std::string code;
  code += static_cast<char>(std::tolower(country_code[0]));
  code += static_cast<char>(std::tolower(country_code[1]));
  code += static_cast<char>('a' + ordinal % 26);
  return code;
}

/// Metros of one country, sorted descending by users.
std::vector<MetroIndex> country_metros(const Internet& net, CountryIndex country) {
  std::vector<MetroIndex> out;
  for (const auto& metro : net.metros) {
    if (metro.country == country) out.push_back(metro.index);
  }
  std::sort(out.begin(), out.end(), [&](MetroIndex a, MetroIndex b) {
    return net.metros[a].users > net.metros[b].users;
  });
  return out;
}

/// First colocation facility in a metro (every metro has at least one).
FacilityIndex first_colo(const Internet& net, MetroIndex metro) {
  for (const auto& facility : net.facilities) {
    if (facility.metro == metro && facility.kind == FacilityKind::kColocation) {
      return facility.index;
    }
  }
  throw Error("no colocation facility in metro " + net.metros[metro].name);
}

std::vector<AsIndex> ases_present_in_metro(const Internet& net, MetroIndex metro) {
  std::vector<AsIndex> out;
  for (const auto& as : net.ases) {
    if (std::find(as.metros.begin(), as.metros.end(), metro) != as.metros.end()) {
      out.push_back(as.index);
    }
  }
  return out;
}

/// Hypergiant IXP ports sit in a block of this many slots above the
/// member ports (hashed by AS index).
constexpr std::uint64_t kHypergiantPortSlots = 800;

/// First hypergiant port: .200, or just past the member ports on a fabric
/// with more than 198 members (only the 10x world has those).
std::uint64_t hypergiant_port_base_for(std::size_t members) {
  return std::max<std::uint64_t>(200, 2 + members);
}

std::uint64_t hypergiant_port_base(const Internet& net, const Ixp& ixp) {
  const auto members = static_cast<std::size_t>(
      std::count_if(ixp.members.begin(), ixp.members.end(), [&](AsIndex ai) {
        return net.ases[ai].tier != AsTier::kHypergiant;
      }));
  return hypergiant_port_base_for(members);
}

/// Peering-LAN length for a fabric with `members` member ports: a /22, or
/// wider when the member and hypergiant ports outgrow it.
int ixp_lan_length(std::size_t members) {
  const std::uint64_t ports =
      hypergiant_port_base_for(members) + kHypergiantPortSlots;
  int length = 22;
  while ((std::uint64_t{1} << (32 - length)) < ports) --length;
  return length;
}

int slash24_count_for(double users, double users_per_slash24) {
  const double raw = std::ceil(users / users_per_slash24);
  const auto clamped = static_cast<int>(std::clamp(raw, 1.0, 256.0));
  // Round up to a power of two so a single aligned prefix covers it.
  int pow2 = 1;
  while (pow2 < clamped) pow2 *= 2;
  return pow2;
}

}  // namespace

GeneratorConfig GeneratorConfig::tiny() {
  GeneratorConfig config;
  config.seed = 7;
  config.scale = 0.02;
  config.tier1_count = 4;
  config.max_access_per_country = 12;
  return config;
}

GeneratorConfig GeneratorConfig::small() {
  GeneratorConfig config;
  config.seed = 11;
  config.scale = 0.15;
  config.tier1_count = 8;
  config.max_access_per_country = 90;
  return config;
}

GeneratorConfig GeneratorConfig::paper() { return GeneratorConfig{}; }

GeneratorConfig GeneratorConfig::tenx() {
  GeneratorConfig config;
  config.scale = 10.0;
  config.max_access_per_country = 6000;
  return config;
}

double peak_demand_gbps(double users) noexcept {
  // ~1 Mbps per user at evening peak (fits the operator report in the paper:
  // a mid-size ISP sees on the order of 100 Gbps at peak).
  return std::max(0.5, users * 1e-3);
}

double ixp_member_port_gbps(double users) noexcept {
  // Roughly 20% of peak demand worth of public peering ports, between one
  // 100G port and a hard market ceiling.
  return std::clamp(0.2 * peak_demand_gbps(users), 100.0, 6000.0);
}

InternetGenerator::InternetGenerator(GeneratorConfig config)
    : config_(std::move(config)) {
  require(config_.scale > 0.0, "GeneratorConfig: scale must be positive");
  require(config_.tier1_count >= 1, "GeneratorConfig: need at least one tier-1");
}

Internet InternetGenerator::generate() {
  Internet net;
  Rng rng(config_.seed);
  // Global IPv4 plan: everything is carved out of 64.0.0.0/2. Only the 10x
  // world outgrows it; its overflow continues in 128.0.0.0/2 and then
  // 32.0.0.0/3, so every smaller world is numbered exactly as if those
  // pools did not exist.
  AddressPlan pool({Prefix(Ipv4::parse("64.0.0.0"), 2),
                    Prefix(Ipv4::parse("128.0.0.0"), 2),
                    Prefix(Ipv4::parse("32.0.0.0"), 3)});

  build_metros(net, rng);
  build_facilities(net, rng);
  build_tier1s(net, rng, pool);
  build_transits(net, rng, pool);
  build_access_isps(net, rng, pool);
  build_ixps(net, rng, pool);
  build_hypergiants(net, rng, pool);
  provision_shared_links(net);
  return net;
}

void InternetGenerator::build_metros(Internet& net, Rng& rng) const {
  (void)rng;
  for (CountryIndex ci = 0; ci < all_countries().size(); ++ci) {
    const CountryInfo& country = all_countries()[ci];
    Rng local = country_rng(config_.seed, country.code, /*salt=*/1);
    const int count = metro_count_for(country);
    // Zipf split of the country's users across metros.
    double harmonic = 0.0;
    for (int i = 1; i <= count; ++i) harmonic += 1.0 / i;
    const double jitter_radius_km = 150.0 + 60.0 * count;
    for (int i = 0; i < count; ++i) {
      Metro metro;
      metro.name = std::string(country.code) + "-metro" + std::to_string(i + 1);
      metro.iata = metro_iata(country.code, i);
      metro.country = ci;
      metro.users = country.internet_users_m * kMillion / (i + 1) / harmonic;
      metro.location = jitter_point(country.centroid, jitter_radius_km,
                                    local.uniform(), local.uniform());
      net.add_metro(std::move(metro));
    }
  }
}

void InternetGenerator::build_facilities(Internet& net, Rng& rng) const {
  (void)rng;
  for (const auto& metro : net.metros) {
    const int colos = 1 + std::min(4, static_cast<int>(metro.users / 8e6));
    Rng local = country_rng(config_.seed, metro.name, /*salt=*/2);
    for (int i = 0; i < colos; ++i) {
      Facility facility;
      facility.name = "colo-" + metro.iata + "-" + std::to_string(i + 1);
      facility.kind = FacilityKind::kColocation;
      facility.metro = metro.index;
      facility.owner_asn = 0;
      facility.location =
          jitter_point(metro.location, 15.0, local.uniform(), local.uniform());
      net.add_facility(std::move(facility));
    }
  }
}

void InternetGenerator::build_tier1s(Internet& net, Rng& rng,
                                     AddressPlan& pool) const {
  // Global metro ranking for backbone presence.
  std::vector<MetroIndex> ranked;
  ranked.reserve(net.metros.size());
  for (const auto& metro : net.metros) ranked.push_back(metro.index);
  std::sort(ranked.begin(), ranked.end(), [&](MetroIndex a, MetroIndex b) {
    return net.metros[a].users > net.metros[b].users;
  });

  static constexpr const char* kHomes[] = {"US", "DE", "GB", "FR", "JP", "NL", "SE",
                                           "US", "IN", "SG", "BR", "ZA", "AU", "CA"};
  std::vector<AsIndex> tier1s;
  for (int i = 0; i < config_.tier1_count; ++i) {
    As as;
    as.asn = 100 + static_cast<AsNumber>(i);
    as.name = "Backbone-" + std::to_string(i + 1);
    as.tier = AsTier::kTier1;
    const std::string_view home = kHomes[i % std::size(kHomes)];
    for (CountryIndex ci = 0; ci < all_countries().size(); ++ci) {
      if (all_countries()[ci].code == home) as.country = ci;
    }
    // Present in the top metros worldwide (staggered so backbones differ)
    // and in every country's largest metro with probability 1/2.
    const std::size_t top = std::min<std::size_t>(ranked.size(), 40 + 5 * i);
    for (std::size_t r = 0; r < top; ++r) as.metros.push_back(ranked[r]);
    for (CountryIndex ci = 0; ci < all_countries().size(); ++ci) {
      const auto metros = country_metros(net, ci);
      if (!metros.empty() && rng.chance(0.5)) as.metros.push_back(metros.front());
    }
    std::sort(as.metros.begin(), as.metros.end());
    as.metros.erase(std::unique(as.metros.begin(), as.metros.end()),
                    as.metros.end());
    as.primary_metro = as.metros.front();
    as.infra = PrefixAllocator(pool.allocate_prefix(18));
    const AsIndex index = net.add_as(std::move(as));
    net.announce(index, net.ases[index].infra.pool());
    tier1s.push_back(index);
  }

  // Full backbone mesh, landed at a colo in the biggest shared metro.
  for (std::size_t i = 0; i < tier1s.size(); ++i) {
    for (std::size_t j = i + 1; j < tier1s.size(); ++j) {
      InterdomainLink link;
      link.kind = LinkKind::kPrivatePeering;
      link.a = tier1s[i];
      link.b = tier1s[j];
      link.facility = first_colo(net, ranked.front());
      link.capacity_gbps = 10000.0;
      net.add_link(link);
    }
  }
}

void InternetGenerator::build_transits(Internet& net, Rng& rng,
                                       AddressPlan& pool) const {
  std::vector<AsIndex> tier1s;
  for (const auto& as : net.ases) {
    if (as.tier == AsTier::kTier1) tier1s.push_back(as.index);
  }

  AsNumber next_asn = 1000;
  std::vector<AsIndex> transits;
  for (CountryIndex ci = 0; ci < all_countries().size(); ++ci) {
    const CountryInfo& country = all_countries()[ci];
    const auto metros = country_metros(net, ci);
    const int count = static_cast<int>(
        std::clamp(1.0 + country.internet_users_m / 40.0, 1.0, 6.0));
    Rng local = country_rng(config_.seed, country.code, /*salt=*/3);
    for (int i = 0; i < count; ++i) {
      As as;
      as.asn = next_asn++;
      as.name = "Transit-" + std::string(country.code) + "-" + std::to_string(i + 1);
      as.tier = AsTier::kTransit;
      as.country = ci;
      const std::size_t presence = std::min<std::size_t>(metros.size(), 4);
      for (std::size_t m = 0; m < presence; ++m) as.metros.push_back(metros[m]);
      as.primary_metro = as.metros.front();
      as.infra = PrefixAllocator(pool.allocate_prefix(19));
      const AsIndex index = net.add_as(std::move(as));
      net.announce(index, net.ases[index].infra.pool());
      transits.push_back(index);

      // Two tier-1 providers.
      const auto picks = local.sample_indices(tier1s.size(),
                                              std::min<std::size_t>(2, tier1s.size()));
      for (const std::size_t pick : picks) {
        InterdomainLink link;
        link.kind = LinkKind::kTransit;
        link.a = index;             // customer
        link.b = tier1s[pick];      // provider
        link.facility = first_colo(net, net.ases[index].primary_metro);
        link.capacity_gbps = 400.0;
        net.add_link(link);
      }
    }
  }

  // Sparse continental transit peering (PNI).
  for (std::size_t i = 0; i < transits.size(); ++i) {
    for (std::size_t j = i + 1; j < transits.size(); ++j) {
      const auto& a = net.ases[transits[i]];
      const auto& b = net.ases[transits[j]];
      if (all_countries()[a.country].continent !=
          all_countries()[b.country].continent) {
        continue;
      }
      if (!rng.chance(0.2)) continue;
      InterdomainLink link;
      link.kind = LinkKind::kPrivatePeering;
      link.a = a.index;
      link.b = b.index;
      link.facility = first_colo(net, a.primary_metro);
      link.capacity_gbps = 100.0;
      net.add_link(link);
    }
  }
}

void InternetGenerator::build_access_isps(Internet& net, Rng& rng,
                                          AddressPlan& pool) const {
  (void)rng;
  AsNumber next_asn = 200000;
  for (CountryIndex ci = 0; ci < all_countries().size(); ++ci) {
    const CountryInfo& country = all_countries()[ci];
    const auto metros = country_metros(net, ci);
    std::vector<AsIndex> country_transits;
    for (const auto& as : net.ases) {
      if (as.tier == AsTier::kTransit && as.country == ci) {
        country_transits.push_back(as.index);
      }
    }
    std::vector<AsIndex> tier1s;
    for (const auto& as : net.ases) {
      if (as.tier == AsTier::kTier1) tier1s.push_back(as.index);
    }

    const int count = static_cast<int>(std::clamp(
        country.internet_users_m * config_.access_per_million_users * config_.scale,
        2.0, static_cast<double>(config_.max_access_per_country)));
    Rng local = country_rng(config_.seed, country.code, /*salt=*/4);

    // Zipf user shares within the country.
    std::vector<double> shares(static_cast<std::size_t>(count));
    double total_share = 0.0;
    for (int i = 0; i < count; ++i) {
      shares[static_cast<std::size_t>(i)] = 1.0 / std::pow(i + 1.0, 1.05);
      total_share += shares[static_cast<std::size_t>(i)];
    }

    for (int i = 0; i < count; ++i) {
      As as;
      as.asn = next_asn++;
      as.name = "ISP-" + std::string(country.code) + "-" + std::to_string(i + 1);
      as.tier = AsTier::kAccess;
      as.country = ci;
      as.users = country.internet_users_m * kMillion *
                 shares[static_cast<std::size_t>(i)] / total_share;

      // Primary metro weighted by metro users; extra presence for big ISPs.
      std::vector<double> metro_weights;
      metro_weights.reserve(metros.size());
      for (const MetroIndex mi : metros) metro_weights.push_back(net.metros[mi].users);
      const std::size_t primary_pick = local.weighted_index(metro_weights);
      as.primary_metro = metros[primary_pick];
      as.metros.push_back(as.primary_metro);
      if (as.users > 3e6) {
        const auto extra = std::min<std::size_t>(
            metros.size() - 1, 1 + static_cast<std::size_t>(as.users / 5e6));
        std::size_t added = 0;
        for (const MetroIndex mi : metros) {
          if (added >= extra) break;
          if (mi == as.primary_metro) continue;
          as.metros.push_back(mi);
          ++added;
        }
      }

      // /18: room for router interfaces plus the largest multi-hypergiant
      // offnet deployments (thousands of hosted servers).
      as.infra = PrefixAllocator(pool.allocate_prefix(18));
      const int n24 = slash24_count_for(as.users, config_.users_per_slash24);
      int user_len = 24;
      for (int n = n24; n > 1; n /= 2) --user_len;
      as.user_prefixes.push_back(pool.allocate_prefix(user_len));

      const AsIndex index = net.add_as(std::move(as));
      net.announce(index, net.ases[index].infra.pool());
      for (const auto& prefix : net.ases[index].user_prefixes) {
        net.announce(index, prefix);
      }

      // Own facility at the primary metro.
      {
        Facility facility;
        facility.name = "pop-" + net.metros[net.ases[index].primary_metro].iata +
                        "-as" + std::to_string(net.ases[index].asn);
        facility.kind = FacilityKind::kIspOwned;
        facility.metro = net.ases[index].primary_metro;
        facility.owner_asn = net.ases[index].asn;
        facility.location = jitter_point(net.metros[facility.metro].location, 25.0,
                                         local.uniform(), local.uniform());
        const FacilityIndex fi = net.add_facility(std::move(facility));
        net.ases[index].facilities.push_back(fi);
      }

      // Providers: one or two national transits (or a tier-1 fallback),
      // plus a direct tier-1 for the biggest eyeballs.
      const double users = net.ases[index].users;
      const int provider_count = 1 + (users > 5e5 ? 1 : 0);
      std::vector<AsIndex> providers;
      if (country_transits.empty()) {
        providers.push_back(tier1s[local.uniform_int(
            0, static_cast<std::int64_t>(tier1s.size()) - 1)]);
      } else {
        const auto picks = local.sample_indices(
            country_transits.size(),
            std::min<std::size_t>(static_cast<std::size_t>(provider_count),
                                  country_transits.size()));
        for (const std::size_t pick : picks) providers.push_back(country_transits[pick]);
      }
      if (users > 5e6 && !tier1s.empty() && local.chance(0.7)) {
        providers.push_back(tier1s[local.uniform_int(
            0, static_cast<std::int64_t>(tier1s.size()) - 1)]);
      }
      for (const AsIndex provider : providers) {
        InterdomainLink link;
        link.kind = LinkKind::kTransit;
        link.a = index;
        link.b = provider;
        link.facility = net.ases[index].facilities.front();
        // Provisioned somewhat above peak demand, with a heavy lower tail.
        link.capacity_gbps = peak_demand_gbps(users) *
                             local.lognormal(std::log(1.4), 0.35) /
                             static_cast<double>(providers.size());
        net.add_link(link);
      }
    }
  }
}

void InternetGenerator::build_ixps(Internet& net, Rng& rng,
                                   AddressPlan& pool) const {
  (void)rng;
  for (const auto& metro : net.metros) {
    if (metro.users < config_.ixp_metro_users_m * kMillion) continue;
    Ixp ixp;
    ixp.name = "IX-" + metro.iata;
    ixp.metro = metro.index;
    ixp.facility = first_colo(net, metro.index);
    const IxpIndex ixp_index = net.add_ixp(std::move(ixp));

    Rng local = country_rng(config_.seed, net.metros[metro.index].name, /*salt=*/5);
    for (const AsIndex ai : ases_present_in_metro(net, metro.index)) {
      const AsTier tier = net.ases[ai].tier;
      double join = 0.0;
      switch (tier) {
        case AsTier::kAccess: join = config_.ixp_join_access; break;
        case AsTier::kTransit: join = config_.ixp_join_transit; break;
        case AsTier::kTier1: join = config_.ixp_join_tier1; break;
        case AsTier::kHypergiant: join = 0.0; break;  // added later
      }
      if (!local.chance(join)) continue;
      net.ixps[ixp_index].members.push_back(ai);
    }
    // Members number ports from .2 up, in join order.
    auto& fabric = net.ixps[ixp_index];
    fabric.peering_lan =
        pool.allocate_prefix(ixp_lan_length(fabric.members.size()));
    for (std::size_t port = 0; port < fabric.members.size(); ++port) {
      net.register_ixp_port(fabric.peering_lan.at(2 + port), ixp_index,
                            fabric.members[port]);
    }

    // Transit-transit public peering over the fabric.
    const auto& members = net.ixps[ixp_index].members;
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        const AsTier ta = net.ases[members[i]].tier;
        const AsTier tb = net.ases[members[j]].tier;
        double probability = 0.0;
        if (ta == AsTier::kTransit && tb == AsTier::kTransit) probability = 0.35;
        else if ((ta == AsTier::kTransit && tb == AsTier::kTier1) ||
                 (ta == AsTier::kTier1 && tb == AsTier::kTransit)) probability = 0.2;
        if (probability == 0.0 || !local.chance(probability)) continue;
        InterdomainLink link;
        link.kind = LinkKind::kIxpPeering;
        link.a = members[i];
        link.b = members[j];
        link.ixp = ixp_index;
        link.facility = net.ixps[ixp_index].facility;
        link.capacity_gbps =
            std::min(ixp_member_port_gbps(net.ases[members[i]].users),
                     ixp_member_port_gbps(net.ases[members[j]].users));
        net.add_link(link);
      }
    }
  }
}

void InternetGenerator::build_hypergiants(Internet& net, Rng& rng,
                                          AddressPlan& pool) const {
  (void)rng;
  struct HgSpec {
    AsNumber asn;
    const char* name;
  };
  static constexpr HgSpec kSpecs[] = {
      {kGoogleAsn, "Google"},
      {kNetflixAsn, "Netflix"},
      {kMetaAsn, "Meta"},
      {kAkamaiAsn, "Akamai"},
  };

  std::vector<AsIndex> tier1s;
  std::vector<AsIndex> transits;
  std::vector<AsIndex> access;
  for (const auto& as : net.ases) {
    switch (as.tier) {
      case AsTier::kTier1: tier1s.push_back(as.index); break;
      case AsTier::kTransit: transits.push_back(as.index); break;
      case AsTier::kAccess: access.push_back(as.index); break;
      case AsTier::kHypergiant: break;
    }
  }

  for (const auto& spec : kSpecs) {
    As as;
    as.asn = spec.asn;
    as.name = spec.name;
    as.tier = AsTier::kHypergiant;
    for (CountryIndex ci = 0; ci < all_countries().size(); ++ci) {
      if (all_countries()[ci].code == "US") as.country = ci;
    }
    for (const auto& metro : net.metros) {
      if (metro.users >= 4e6) as.metros.push_back(metro.index);
    }
    require(!as.metros.empty(), "hypergiant has no onnet metros");
    as.primary_metro = as.metros.front();
    as.infra = PrefixAllocator(pool.allocate_prefix(16));
    const AsIndex index = net.add_as(std::move(as));
    net.announce(index, net.ases[index].infra.pool());

    Rng local = country_rng(config_.seed, spec.name, /*salt=*/6);

    // Settlement-free peering with every backbone (global reachability).
    for (const AsIndex t1 : tier1s) {
      InterdomainLink link;
      link.kind = LinkKind::kPrivatePeering;
      link.a = index;
      link.b = t1;
      link.facility = first_colo(net, net.ases[index].primary_metro);
      link.capacity_gbps = 5000.0;
      net.add_link(link);
    }
    // Plus a couple of paid transit relationships, so the hypergiant is
    // reachable as a *destination* from networks that only hear its
    // announcement through providers (e.g. other hypergiants).
    for (std::size_t t = 0; t < std::min<std::size_t>(2, tier1s.size()); ++t) {
      InterdomainLink link;
      link.kind = LinkKind::kTransit;
      link.a = index;        // customer
      link.b = tier1s[t];    // provider
      link.facility = first_colo(net, net.ases[index].primary_metro);
      link.capacity_gbps = 1000.0;
      net.add_link(link);
    }

    // PNIs with about half of the transit providers.
    for (const AsIndex transit : transits) {
      if (!local.chance(0.5)) continue;
      InterdomainLink link;
      link.kind = LinkKind::kPrivatePeering;
      link.a = index;
      link.b = transit;
      link.facility = first_colo(net, net.ases[transit].primary_metro);
      link.capacity_gbps = 500.0;
      net.add_link(link);
    }

    // Size-dependent PNIs with access ISPs. Capacity is provisioned around
    // the hypergiant's expected share of the ISP's peak demand, with a heavy
    // lower tail (the paper: PNIs frequently lack sufficient bandwidth).
    for (const AsIndex isp : access) {
      const double users = net.ases[isp].users;
      double probability = config_.hg_pni_small_isp;
      if (users >= 1e7) probability = config_.hg_pni_giant_isp;
      else if (users >= 1e6) probability = config_.hg_pni_large_isp;
      else if (users >= 1e5) probability = config_.hg_pni_medium_isp;
      if (!local.chance(probability)) continue;
      InterdomainLink link;
      link.kind = LinkKind::kPrivatePeering;
      link.a = index;
      link.b = isp;
      link.facility = first_colo(net, net.ases[isp].primary_metro);
      link.capacity_gbps = std::max(
          1.0, 0.2 * peak_demand_gbps(users) * local.lognormal(std::log(1.1), 0.45));
      net.add_link(link);
    }

    // Join the big IXP fabrics and peer with most co-located members.
    for (auto& ixp : net.ixps) {
      if (net.metros[ixp.metro].users < 4e6) continue;
      if (!local.chance(0.9)) continue;
      const std::uint64_t port =
          hypergiant_port_base(net, ixp) + index % kHypergiantPortSlots;
      ixp.members.push_back(index);
      net.register_ixp_port(ixp.peering_lan.at(port), ixp.index, index);
      net.ases[index].metros.push_back(ixp.metro);
      for (const AsIndex member : ixp.members) {
        if (member == index) continue;
        const AsTier tier = net.ases[member].tier;
        if (tier != AsTier::kAccess && tier != AsTier::kTransit) continue;
        if (!local.chance(config_.hg_ixp_peer_probability)) continue;
        // Parallel PNI + IXP peerings between the same pair are common and
        // are exactly what makes some peers visible both ways (Section
        // 4.2.1's "62.2% via an IXP in at least one traceroute").
        InterdomainLink link;
        link.kind = LinkKind::kIxpPeering;
        link.a = index;
        link.b = member;
        link.ixp = ixp.index;
        link.facility = ixp.facility;
        // Bounded by the (smaller) ISP-side port.
        link.capacity_gbps = ixp_member_port_gbps(net.ases[member].users);
        net.add_link(link);
      }
    }
    auto& hg_metros = net.ases[index].metros;
    std::sort(hg_metros.begin(), hg_metros.end());
    hg_metros.erase(std::unique(hg_metros.begin(), hg_metros.end()),
                    hg_metros.end());
  }
}

void InternetGenerator::provision_shared_links(Internet& net) const {
  // Peak demand of the access cone under each AS (access ISPs count
  // themselves; transits sum their access customers).
  std::vector<double> cone_gbps(net.ases.size(), 0.0);
  for (const As& as : net.ases) {
    if (as.tier == AsTier::kAccess) cone_gbps[as.index] = peak_demand_gbps(as.users);
  }
  for (const InterdomainLink& link : net.links) {
    if (link.kind != LinkKind::kTransit) continue;
    if (net.ases[link.a].tier == AsTier::kAccess &&
        net.ases[link.b].tier == AsTier::kTransit) {
      cone_gbps[link.b] += cone_gbps[link.a];
    }
  }

  const auto headroom = [this](std::uint64_t key, double median, double sigma) {
    // Deterministic lognormal keyed by the link (seed-stable).
    double u1 = static_cast<double>(
                    mix64(key ^ config_.seed ^ 0xCAFE) >> 11) * 0x1.0p-53;
    const double u2 =
        static_cast<double>(mix64(key * 2654435761ULL) >> 11) * 0x1.0p-53;
    if (u1 <= 0.0) u1 = 0x1.0p-53;
    const double z = std::sqrt(-2.0 * std::log(u1)) *
                     std::cos(2.0 * 3.141592653589793 * u2);
    return median * std::exp(sigma * z);
  };

  for (InterdomainLink& link : net.links) {
    const AsTier tier_a = net.ases[link.a].tier;
    const AsTier tier_b = net.ases[link.b].tier;
    if (link.kind == LinkKind::kTransit && tier_a == AsTier::kTransit &&
        tier_b == AsTier::kTier1) {
      // A transit's uplink carries a fraction of its cone (the rest is
      // served locally by offnets or peers), with modest headroom.
      link.capacity_gbps = std::max(
          400.0, 0.6 * cone_gbps[link.a] * headroom(link.index, 1.1, 0.3));
    } else if (link.kind == LinkKind::kPrivatePeering &&
               ((tier_a == AsTier::kHypergiant && tier_b == AsTier::kTransit) ||
                (tier_a == AsTier::kTransit && tier_b == AsTier::kHypergiant))) {
      // Hypergiant-transit PNIs are sized to the hypergiant's expected
      // *interdomain remainder* for the cone below -- which is why offnet
      // failures overflow them (Section 4.2.2's mechanism, one level up).
      const AsIndex transit = tier_a == AsTier::kTransit ? link.a : link.b;
      link.capacity_gbps = std::max(
          500.0, 0.08 * cone_gbps[transit] * headroom(link.index, 1.2, 0.4));
    } else if (link.kind == LinkKind::kPrivatePeering &&
               tier_a == AsTier::kTier1 && tier_b == AsTier::kTier1) {
      link.capacity_gbps = 200'000.0;  // multi-Tbps backbone mesh
    } else if ((tier_a == AsTier::kHypergiant && tier_b == AsTier::kTier1) ||
               (tier_a == AsTier::kTier1 && tier_b == AsTier::kHypergiant)) {
      link.capacity_gbps = 100'000.0;
    } else if (link.kind == LinkKind::kPrivatePeering &&
               tier_a == AsTier::kTransit && tier_b == AsTier::kTransit) {
      link.capacity_gbps =
          std::max(100.0, 0.15 * std::min(cone_gbps[link.a], cone_gbps[link.b]) *
                              headroom(link.index, 1.0, 0.3));
    } else if (link.kind == LinkKind::kIxpPeering &&
               (tier_a == AsTier::kTransit || tier_b == AsTier::kTransit)) {
      // A transit's IXP port serves its whole cone, not its (zero) direct
      // users; size it to the cone like its other shared links.
      const AsIndex transit = tier_a == AsTier::kTransit ? link.a : link.b;
      link.capacity_gbps =
          std::max(link.capacity_gbps,
                   0.08 * cone_gbps[transit] * headroom(link.index, 1.2, 0.35));
    }
  }
}

}  // namespace repro
