// Tests for gridcells, the country registry, geolocation, and coverage.
#include <gtest/gtest.h>

#include "geo/countries.h"
#include "geo/coverage.h"
#include "geo/geodb.h"
#include "geo/gridcell.h"

namespace diurnal::geo {
namespace {

TEST(GridCell, PaperLandmarks) {
  // The paper's case-study cells: Wuhan (30N,114E), Beijing (38N,116E),
  // New Delhi (28N,76E), UAE (24N,54E), Slovenia (46N,14E).
  EXPECT_EQ(GridCell::of(30.6, 114.3).to_string(), "(30N,114E)");
  EXPECT_EQ(GridCell::of(39.9, 116.4).to_string(), "(38N,116E)");
  EXPECT_EQ(GridCell::of(28.6, 77.2).to_string(), "(28N,76E)");
  EXPECT_EQ(GridCell::of(24.5, 54.4).to_string(), "(24N,54E)");
  EXPECT_EQ(GridCell::of(46.1, 14.5).to_string(), "(46N,14E)");
}

TEST(GridCell, NegativeCoordinatesFloor) {
  EXPECT_EQ(GridCell::of(-23.6, -46.6).to_string(), "(24S,48W)");
  EXPECT_EQ(GridCell::of(-0.1, -0.1).to_string(), "(2S,2W)");
  EXPECT_EQ(GridCell::of(0.1, 0.1).to_string(), "(0N,0E)");
}

TEST(GridCell, LongitudeNormalization) {
  EXPECT_EQ(GridCell::of(10.0, 190.0), GridCell::of(10.0, -170.0));
  EXPECT_EQ(GridCell::of(10.0, -181.0), GridCell::of(10.0, 179.0));
}

TEST(GridCell, CellGeometry) {
  const GridCell c = GridCell::of(31.9, 115.9);
  EXPECT_DOUBLE_EQ(c.lat(), 30.0);
  EXPECT_DOUBLE_EQ(c.lon(), 114.0);
  EXPECT_DOUBLE_EQ(c.center_lat(), 31.0);
  // Same cell for all points within [30,32) x [114,116).
  EXPECT_EQ(GridCell::of(30.0, 114.0), c);
  EXPECT_NE(GridCell::of(32.0, 114.0), c);
}

TEST(Countries, RegistryInvariants) {
  const auto& all = countries();
  EXPECT_GE(all.size(), 25u);
  for (const auto& c : all) {
    EXPECT_EQ(c.code.size(), 2u) << c.name;
    EXPECT_FALSE(c.demographics.cities.empty()) << c.name;
    EXPECT_GT(c.demographics.block_weight, 0.0) << c.name;
    EXPECT_GT(c.adoption.diurnal_visible_fraction, 0.0) << c.name;
    EXPECT_LE(c.adoption.diurnal_visible_fraction, 1.0) << c.name;
    // Default registry layers are neutral: that is the bitwise
    // equivalence contract (DESIGN §12) the golden digest rests on.
    EXPECT_EQ(c.adoption.cgnat_fraction, 0.0) << c.name;
    EXPECT_EQ(c.network_ops.renumber_multiplier, 1.0) << c.name;
    EXPECT_EQ(c.network_ops.outage_multiplier, 1.0) << c.name;
    EXPECT_EQ(c.time_rules.dst, DstPolicy::kNone) << c.name;
    EXPECT_TRUE(c.time_rules.holidays.empty()) << c.name;
    EXPECT_EQ(c.drift.adoption_trend_per_year, 0.0) << c.name;
    EXPECT_EQ(c.drift.cgnat_trend_per_year, 0.0) << c.name;
    for (const auto& city : c.demographics.cities) {
      EXPECT_GE(city.lat, -90.0);
      EXPECT_LE(city.lat, 90.0);
      EXPECT_GE(city.lon, -180.0);
      EXPECT_LE(city.lon, 180.0);
    }
  }
}

const CountryProfile& by_code(std::string_view code) {
  return countries()[country_index(code)];
}

TEST(Countries, PaperCountriesPresent) {
  EXPECT_EQ(by_code("CN").continent, Continent::kAsia);
  EXPECT_EQ(by_code("SI").name, "Slovenia");
  EXPECT_EQ(by_code("MA").continent, Continent::kAfrica);
  EXPECT_EQ(by_code("AU").continent, Continent::kOceania);
  EXPECT_EQ(by_code("BR").continent, Continent::kSouthAmerica);
  EXPECT_THROW(country_index("ZZ"), std::out_of_range);
}

TEST(Countries, WfhDatesMatchNewsReports) {
  // Spot-check the dates cited in sections 3.6/3.7 and 4.
  EXPECT_EQ(util::to_string(*by_code("CN").wfh_2020), "2020-01-23");
  EXPECT_EQ(util::to_string(*by_code("IN").wfh_2020), "2020-03-22");
  EXPECT_EQ(util::to_string(*by_code("SI").wfh_2020), "2020-03-16");
  EXPECT_EQ(util::to_string(*by_code("AE").wfh_2020), "2020-03-24");
  EXPECT_EQ(util::to_string(*by_code("MA").wfh_2020), "2020-03-20");
}

TEST(Countries, ContinentNames) {
  EXPECT_EQ(to_string(Continent::kAsia), "Asia");
  EXPECT_EQ(to_string(Continent::kNorthAmerica), "North America");
}

TEST(GeoDb, AddLookup) {
  GeoDatabase db;
  const net::BlockId b = net::BlockId::parse("1.2.3.0/24");
  db.add(b, GeoRecord{30.6, 114.3, static_cast<std::uint16_t>(country_index("CN"))});
  const auto rec = db.lookup(b);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->cell().to_string(), "(30N,114E)");
  EXPECT_EQ(rec->continent(), Continent::kAsia);
  EXPECT_FALSE(db.lookup(net::BlockId::parse("9.9.9.0/24")).has_value());
  EXPECT_EQ(db.size(), 1u);
}

TEST(GeoDb, PerturbationIsBoundedAndDeterministic) {
  GeoDatabase db;
  for (std::uint32_t i = 0; i < 200; ++i) {
    db.add(net::BlockId(1000 + i), GeoRecord{40.0, -100.0, 0});
  }
  const auto p1 = db.perturbed(0.3, 7);
  const auto p2 = db.perturbed(0.3, 7);
  double max_shift = 0.0;
  for (const auto& [block, rec] : p1.records()) {
    const auto other = p2.lookup(block);
    ASSERT_TRUE(other.has_value());
    EXPECT_DOUBLE_EQ(rec.lat, other->lat);  // deterministic
    max_shift = std::max(max_shift, std::abs(rec.lat - 40.0));
  }
  EXPECT_GT(max_shift, 0.0);   // it did move points
  EXPECT_LT(max_shift, 2.0);   // ... by city-scale amounts
}

TEST(Coverage, SummaryMatchesHandCount) {
  CellCountMap cells;
  cells[GridCell{0, 0}] = CellCounts{100, 20};  // observed + represented
  cells[GridCell{0, 1}] = CellCounts{50, 2};    // observed, under-represented
  cells[GridCell{0, 2}] = CellCounts{3, 1};     // under-observed
  const auto s = summarize_coverage(cells, 5, 5);
  EXPECT_EQ(s.cells_total, 3);
  EXPECT_EQ(s.cells_under_observed, 1);
  EXPECT_EQ(s.cells_observed, 2);
  EXPECT_EQ(s.cells_represented, 1);
  EXPECT_EQ(s.cells_under_represented, 1);
  EXPECT_EQ(s.cs_blocks_observed, 22);
  EXPECT_EQ(s.cs_blocks_represented, 20);
  EXPECT_EQ(s.resp_blocks_observed, 150);
  EXPECT_EQ(s.resp_blocks_represented, 100);
  EXPECT_NEAR(s.represented_cell_fraction(), 0.5, 1e-12);
  EXPECT_NEAR(s.cs_block_fraction(), 20.0 / 22.0, 1e-12);
  EXPECT_NEAR(s.resp_block_fraction(), 100.0 / 150.0, 1e-12);
}

TEST(Coverage, ThresholdSweepMonotone) {
  CellCountMap cells;
  for (int i = 0; i < 50; ++i) {
    cells[GridCell{static_cast<std::int16_t>(i), 0}] =
        CellCounts{i * 2, i};
  }
  const auto sweep = sweep_thresholds(cells, 40);
  ASSERT_EQ(sweep.size(), 41u);
  EXPECT_DOUBLE_EQ(sweep[0].observed_cell_fraction, 1.0);
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_LE(sweep[i].observed_cell_fraction,
              sweep[i - 1].observed_cell_fraction);
    EXPECT_LE(sweep[i].represented_cell_fraction,
              sweep[i - 1].represented_cell_fraction);
    EXPECT_LE(sweep[i].represented_cell_fraction,
              sweep[i].observed_cell_fraction);
  }
}

TEST(Coverage, EmptyMap) {
  const auto s = summarize_coverage({}, 5, 5);
  EXPECT_EQ(s.cells_total, 0);
  EXPECT_EQ(s.represented_cell_fraction(), 0.0);
}

}  // namespace
}  // namespace diurnal::geo
