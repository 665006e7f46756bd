#include "geo/countries.h"

#include <stdexcept>

namespace diurnal::geo {

std::string_view to_string(Continent c) noexcept {
  switch (c) {
    case Continent::kAsia: return "Asia";
    case Continent::kEurope: return "Europe";
    case Continent::kNorthAmerica: return "North America";
    case Continent::kSouthAmerica: return "South America";
    case Continent::kAfrica: return "Africa";
    case Continent::kOceania: return "Oceania";
  }
  return "?";
}

std::string_view to_string(DstPolicy p) noexcept {
  switch (p) {
    case DstPolicy::kNone: return "none";
    case DstPolicy::kNorthern: return "northern";
    case DstPolicy::kSouthern: return "southern";
  }
  return "?";
}

namespace {

using util::Date;

// Registry entries only set the layers the defaults don't cover:
// adoption CGNAT, network-ops multipliers, DST, holidays, and drift all
// stay at their neutral defaults so the default registry resolves to
// exactly the pre-layer scalar behavior (bitwise-equivalence contract,
// DESIGN §12).  Worlds opt into the richer layers through
// sim::WorldConfig::country_layers overrides.
CountryProfile make(std::string code, std::string name, Continent continent,
                    int utc_offset_hours, std::vector<City> cities,
                    double block_weight, double diurnal_visible_fraction,
                    std::optional<Date> wfh_2020) {
  CountryProfile p;
  p.code = std::move(code);
  p.name = std::move(name);
  p.continent = continent;
  p.demographics.block_weight = block_weight;
  p.demographics.cities = std::move(cities);
  p.adoption.diurnal_visible_fraction = diurnal_visible_fraction;
  p.time_rules.utc_offset_hours = utc_offset_hours;
  p.wfh_2020 = wfh_2020;
  return p;
}

std::vector<CountryProfile> build_registry() {
  std::vector<CountryProfile> v;
  // Weights and diurnal-visible fractions are tuned so the synthetic
  // world reproduces the paper's coverage skew (Figure 7): best coverage
  // in Asia, moderate in Europe/North America, sparse in South America
  // and (except Morocco) Africa.
  v.push_back(make("CN", "China", Continent::kAsia, 8,
                   {{"Wuhan", 30.6, 114.3, 1.0},
                    {"Beijing", 39.9, 116.4, 6.0},
                    {"Shanghai", 31.2, 121.5, 6.5},
                    {"Guangzhou", 23.1, 113.3, 3.0},
                    {"Chengdu", 30.7, 104.1, 2.0}},
                   30.0, 0.55, Date{2020, 1, 23}));
  v.push_back(make("IN", "India", Continent::kAsia, 5,  // +5:30 rounded
                   {{"New Delhi", 28.6, 77.2, 3.0},
                    {"Mumbai", 19.1, 72.9, 2.5},
                    {"Bangalore", 13.0, 77.6, 2.0}},
                   8.0, 0.45, Date{2020, 3, 22}));
  v.push_back(make("JP", "Japan", Continent::kAsia, 9,
                   {{"Tokyo", 35.7, 139.7, 4.0}, {"Osaka", 34.7, 135.5, 2.0}},
                   7.0, 0.35, Date{2020, 4, 7}));
  v.push_back(make("KR", "South Korea", Continent::kAsia, 9,
                   {{"Seoul", 37.6, 127.0, 3.0}}, 4.0, 0.40, Date{2020, 3, 22}));
  v.push_back(make("MY", "Malaysia", Continent::kAsia, 8,
                   {{"Kuala Lumpur", 3.1, 101.7, 2.0}}, 3.0, 0.50,
                   Date{2020, 3, 18}));
  v.push_back(make("HK", "Hong Kong SAR", Continent::kAsia, 8,
                   {{"Hong Kong", 22.3, 114.2, 2.0}}, 2.0, 0.45,
                   Date{2020, 3, 23}));
  v.push_back(make("SG", "Singapore", Continent::kAsia, 8,
                   {{"Singapore", 1.35, 103.8, 1.0}}, 1.5, 0.40,
                   Date{2020, 4, 7}));
  v.push_back(make("TH", "Thailand", Continent::kAsia, 7,
                   {{"Bangkok", 13.8, 100.5, 2.0}}, 2.0, 0.45,
                   Date{2020, 3, 26}));
  v.push_back(make("AE", "United Arab Emirates", Continent::kAsia, 4,
                   {{"Abu Dhabi", 24.5, 54.4, 1.5}, {"Dubai", 25.2, 55.3, 1.5}},
                   1.5, 0.50, Date{2020, 3, 24}));
  v.push_back(make("IR", "Iran", Continent::kAsia, 4,  // +3:30 rounded
                   {{"Tehran", 35.7, 51.4, 2.0}}, 2.0, 0.40,
                   Date{2020, 3, 13}));

  v.push_back(make(
      "RU", "Russia", Continent::kEurope, 3,
      {{"Moscow", 55.8, 37.6, 3.0}, {"St Petersburg", 59.9, 30.3, 1.5}}, 6.0,
      0.50, Date{2020, 3, 30}));
  v.push_back(make("SI", "Slovenia", Continent::kEurope, 1,
                   {{"Ljubljana", 46.1, 14.5, 1.0}}, 1.2, 0.55,
                   Date{2020, 3, 16}));
  v.push_back(make("DE", "Germany", Continent::kEurope, 1,
                   {{"Berlin", 52.5, 13.4, 2.0}, {"Munich", 48.1, 11.6, 1.5}},
                   5.0, 0.18, Date{2020, 3, 22}));
  v.push_back(make(
      "NL", "Netherlands", Continent::kEurope, 1,
      {{"Utrecht", 52.1, 5.1, 1.0}, {"Amsterdam", 52.4, 4.9, 1.5}}, 2.5, 0.18,
      Date{2020, 3, 16}));
  v.push_back(make("FR", "France", Continent::kEurope, 1,
                   {{"Paris", 48.9, 2.35, 2.5}}, 4.0, 0.18, Date{2020, 3, 17}));
  v.push_back(make("GB", "United Kingdom", Continent::kEurope, 0,
                   {{"London", 51.5, -0.13, 2.5}}, 4.0, 0.16,
                   Date{2020, 3, 23}));
  v.push_back(make("IT", "Italy", Continent::kEurope, 1,
                   {{"Milan", 45.5, 9.2, 1.5}, {"Rome", 41.9, 12.5, 1.5}}, 3.5,
                   0.22, Date{2020, 3, 9}));
  v.push_back(make("ES", "Spain", Continent::kEurope, 1,
                   {{"Madrid", 40.4, -3.7, 2.0}}, 3.0, 0.22, Date{2020, 3, 14}));
  v.push_back(make("BE", "Belgium", Continent::kEurope, 1,
                   {{"Brussels", 50.9, 4.35, 1.0}}, 1.5, 0.18,
                   Date{2020, 3, 18}));
  v.push_back(make("PL", "Poland", Continent::kEurope, 1,
                   {{"Warsaw", 52.2, 21.0, 2.0}}, 3.0, 0.45, Date{2020, 3, 25}));

  v.push_back(make("US", "United States", Continent::kNorthAmerica, -8,
                   {{"Los Angeles", 34.05, -118.25, 3.0},
                    {"Washington DC", 38.9, -77.0, 2.0},
                    {"Bloomington IN", 39.2, -86.5, 1.0},
                    {"New York", 40.7, -74.0, 3.0},
                    {"Denver", 39.7, -105.0, 1.0}},
                   12.0, 0.10, Date{2020, 3, 15}));
  v.push_back(make("CA", "Canada", Continent::kNorthAmerica, -5,
                   {{"Toronto", 43.7, -79.4, 2.0}}, 2.5, 0.12,
                   Date{2020, 3, 17}));
  v.push_back(make("MX", "Mexico", Continent::kNorthAmerica, -6,
                   {{"Mexico City", 19.4, -99.1, 2.0}}, 2.0, 0.30,
                   Date{2020, 3, 23}));

  v.push_back(make("BR", "Brazil", Continent::kSouthAmerica, -3,
                   {{"Sao Paulo", -23.6, -46.6, 2.5},
                    {"Florianopolis", -27.6, -48.5, 0.8}},
                   3.5, 0.30, Date{2020, 3, 24}));
  v.push_back(make("VE", "Venezuela", Continent::kSouthAmerica, -4,
                   {{"Caracas", 10.5, -66.9, 1.0}}, 1.0, 0.35,
                   Date{2020, 3, 16}));
  v.push_back(make("AR", "Argentina", Continent::kSouthAmerica, -3,
                   {{"Buenos Aires", -34.6, -58.4, 1.5}}, 1.5, 0.30,
                   Date{2020, 3, 20}));

  v.push_back(make(
      "MA", "Morocco", Continent::kAfrica, 1,
      {{"Casablanca", 33.6, -7.6, 2.0}, {"Rabat", 34.0, -6.8, 1.0}}, 2.5, 0.55,
      Date{2020, 3, 20}));
  v.push_back(make("ZA", "South Africa", Continent::kAfrica, 2,
                   {{"Johannesburg", -26.2, 28.0, 1.5}}, 1.2, 0.25,
                   Date{2020, 3, 27}));
  v.push_back(make("EG", "Egypt", Continent::kAfrica, 2,
                   {{"Cairo", 30.0, 31.2, 1.5}}, 1.2, 0.30, Date{2020, 3, 25}));

  v.push_back(make(
      "AU", "Australia", Continent::kOceania, 10,
      {{"Sydney", -33.9, 151.2, 2.0}, {"Melbourne", -37.8, 145.0, 1.5}}, 2.0,
      0.15, Date{2020, 3, 23}));
  v.push_back(make("NZ", "New Zealand", Continent::kOceania, 12,
                   {{"Auckland", -36.8, 174.8, 1.0}}, 0.6, 0.15,
                   Date{2020, 3, 25}));
  return v;
}

}  // namespace

const std::vector<CountryProfile>& countries() {
  static const std::vector<CountryProfile> registry = build_registry();
  return registry;
}

std::size_t country_index(std::string_view code) {
  const auto& all = countries();
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].code == code) return i;
  }
  throw std::out_of_range("unknown country code: " + std::string(code));
}

}  // namespace diurnal::geo
