// Synthetic Internet generation.
//
// Builds a world with countries, metros, facilities, IXPs, a tiered AS
// topology (tier-1 backbones, national transit providers, access ISPs) and
// the four hypergiants' onnet ASes, all wired with transit/PNI/IXP links and
// numbered out of a global IPv4 plan. Everything is deterministic given the
// config seed.
//
// This substitutes for the real Internet the paper measures; see DESIGN.md
// ("What we cannot have, and what we build instead").
#pragma once

#include <cstdint>

#include "topology/internet.h"
#include "util/rng.h"

namespace repro {

/// Well-known hypergiant ASNs (the real ones, for flavor).
inline constexpr AsNumber kGoogleAsn = 15169;
inline constexpr AsNumber kNetflixAsn = 2906;
inline constexpr AsNumber kMetaAsn = 32934;
inline constexpr AsNumber kAkamaiAsn = 20940;

struct GeneratorConfig {
  std::uint64_t seed = 42;

  /// Scales the number of access ISPs per country (1.0 = paper-scale,
  /// roughly 9-10k access ISPs worldwide).
  double scale = 1.0;

  /// Access ISPs per country = clamp(users_m * access_per_million_users *
  /// scale, 2, max_access_per_country).
  double access_per_million_users = 2.0;
  int max_access_per_country = 600;

  /// Number of global tier-1 backbones.
  int tier1_count = 14;

  /// One IXP in every metro with at least this many users (millions).
  double ixp_metro_users_m = 2.0;

  /// Users represented by one announced /24 of access space.
  double users_per_slash24 = 50000.0;

  /// Probability that an AS present in an IXP metro joins the fabric.
  double ixp_join_access = 0.6;
  double ixp_join_transit = 0.85;
  double ixp_join_tier1 = 0.7;

  /// Probability that a hypergiant peers (IXP) with a co-located member.
  double hg_ixp_peer_probability = 0.55;

  /// PNI probability between a hypergiant and an access ISP, by ISP size.
  /// Calibrated so that roughly half of offnet-hosting ISPs peer with the
  /// hypergiant at all (Section 4.2.1: 48.4% of Google-offnet ISPs show no
  /// evidence of peering).
  double hg_pni_giant_isp = 0.95;   // users >= 10M (hypergiants always PNI
                                    // with national-scale eyeballs)
  double hg_pni_large_isp = 0.55;   // users >= 1M
  double hg_pni_medium_isp = 0.22;  // users >= 100k
  double hg_pni_small_isp = 0.03;   // below

  /// Small test world: ~2 countries worth of ISPs, fast to build.
  static GeneratorConfig tiny();
  /// Mid-size world for integration tests.
  static GeneratorConfig small();
  /// Full paper-scale world.
  static GeneratorConfig paper();
  /// 10x the paper's access-ISP population (the north-star stress world);
  /// the per-country cap is raised so the extra ISPs actually materialize.
  static GeneratorConfig tenx();
};

/// Rough peak traffic demand of an access ISP in Gbps, from its user count.
/// Shared by the generator (capacity provisioning) and the traffic module
/// (demand modeling) so that provisioned headroom is meaningful.
double peak_demand_gbps(double users) noexcept;

/// Aggregate IXP port capacity a member of this size buys at one fabric
/// (members scale their ports with their traffic, within market limits).
double ixp_member_port_gbps(double users) noexcept;

/// Builds a deterministic synthetic Internet.
class InternetGenerator {
 public:
  explicit InternetGenerator(GeneratorConfig config);

  /// Generates the world. Call once.
  Internet generate();

 private:
  void build_metros(Internet& net, Rng& rng) const;
  void build_facilities(Internet& net, Rng& rng) const;
  void build_tier1s(Internet& net, Rng& rng, AddressPlan& pool) const;
  void build_transits(Internet& net, Rng& rng, AddressPlan& pool) const;
  void build_access_isps(Internet& net, Rng& rng, AddressPlan& pool) const;
  void build_ixps(Internet& net, Rng& rng, AddressPlan& pool) const;
  void build_hypergiants(Internet& net, Rng& rng, AddressPlan& pool) const;
  /// Re-sizes mid-hierarchy links (transit uplinks, hypergiant-transit
  /// PNIs, backbone mesh) to the peak demand of the customer cone beneath
  /// them -- static capacities would congest the moment the cone grows.
  void provision_shared_links(Internet& net) const;

  GeneratorConfig config_;
};

}  // namespace repro
