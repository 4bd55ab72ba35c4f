// Package openflights generates a synthetic stand-in for the
// OpenFlights.org route dataset used by the paper's visualization and
// feature-prediction experiments (Figures 8-10).
//
// The real dataset is a directed graph of ~10,000 airports and
// ~67,000 routes, where each airport has a country and a continent.
// The experiments rely on exactly one property of that data: route
// density is strongly stratified by geography (most routes are
// domestic, most international routes stay within a continent, and
// intercontinental routes concentrate on a few hub airports), so the
// random-walk context of an airport is dominated by same-country and
// same-continent airports. The generator reproduces that stratified
// hub-and-spoke structure:
//
//   - the world is divided into regions ("continents", 10 by default,
//     named after the legend of the paper's Figure 8);
//   - each region holds a set of countries with power-law sizes;
//   - each country has hub airports (~1 per 25 airports) and spokes;
//   - spokes connect bidirectionally to 1-3 domestic hubs;
//   - domestic hubs interconnect;
//   - hubs connect to other hubs of the same region (international);
//   - the largest hubs carry sparse intercontinental trunk routes.
//
// At the default scale this yields roughly 10k airports and 65-70k
// directed route edges, matching the real dataset's order of
// magnitude. See docs/EXPERIMENTS.md#figure-8--openflights-route-network
// for the substitution rationale.
package openflights

import (
	"fmt"
	"math"

	"v2v/internal/graph"
	"v2v/internal/xrand"
)

// Regions are the continental regions of the paper's Figure 8 legend.
var Regions = []string{
	"North America", "Europe", "Asia", "Middle East", "Central America",
	"Oceania", "South America", "Africa", "Balkans", "Caribbean",
}

// Config controls the generator scale.
type Config struct {
	NumAirports        int     // target airport count (default 10000)
	NumRegions         int     // default len(Regions) = 10
	CountriesPerRegion int     // mean countries per region (default 15)
	HubFraction        float64 // airports per hub (default 1 hub per 25)
	IntlDegree         float64 // mean same-region hub-hub links per hub (default 6)
	TrunkDegree        float64 // mean intercontinental links per major hub (default 4)
	Seed               uint64
}

// DefaultConfig returns the OpenFlights-scale configuration.
func DefaultConfig(seed uint64) Config {
	return Config{
		NumAirports:        10000,
		NumRegions:         len(Regions),
		CountriesPerRegion: 15,
		HubFraction:        25,
		IntlDegree:         6,
		TrunkDegree:        4,
		Seed:               seed,
	}
}

// Dataset is the generated route network with its ground-truth
// labels.
type Dataset struct {
	Graph        *graph.Graph
	Country      []int    // country index per airport
	Continent    []int    // region index per airport
	CountryNames []string // per country index
	RegionNames  []string // per region index
	NumCountries int
	NumRegions   int
	Hubs         []bool // whether each airport is a hub
}

// Generate builds the synthetic dataset.
func Generate(cfg Config) (*Dataset, error) {
	if cfg.NumAirports <= 0 {
		cfg.NumAirports = 10000
	}
	if cfg.NumRegions <= 0 {
		cfg.NumRegions = len(Regions)
	}
	if cfg.NumRegions > cfg.NumAirports {
		return nil, fmt.Errorf("openflights: %d regions exceed %d airports", cfg.NumRegions, cfg.NumAirports)
	}
	if cfg.CountriesPerRegion <= 0 {
		cfg.CountriesPerRegion = 15
	}
	if cfg.HubFraction <= 1 {
		cfg.HubFraction = 25
	}
	if cfg.IntlDegree <= 0 {
		cfg.IntlDegree = 6
	}
	if cfg.TrunkDegree <= 0 {
		cfg.TrunkDegree = 4
	}
	rng := xrand.New(cfg.Seed)

	// --- Countries: power-law sizes per region, rescaled to the
	// airport budget.
	type country struct {
		region   int
		size     int
		airports []int
		hubs     []int
	}
	var countries []country
	regionNames := make([]string, cfg.NumRegions)
	for r := 0; r < cfg.NumRegions; r++ {
		if r < len(Regions) {
			regionNames[r] = Regions[r]
		} else {
			regionNames[r] = fmt.Sprintf("Region %d", r)
		}
		nc := cfg.CountriesPerRegion/2 + rng.Intn(cfg.CountriesPerRegion)
		if nc < 1 {
			nc = 1
		}
		for c := 0; c < nc; c++ {
			// Pareto-ish size: 80/20 mass concentration.
			u := rng.Float64()
			size := int(3 + 60*u*u*u*u*10)
			countries = append(countries, country{region: r, size: size})
		}
	}
	// Rescale sizes so the total matches NumAirports.
	total := 0
	for _, c := range countries {
		total += c.size
	}
	assigned := 0
	for i := range countries {
		s := countries[i].size * cfg.NumAirports / total
		if s < 2 {
			s = 2
		}
		countries[i].size = s
		assigned += s
	}
	// Distribute any remainder (the integer division and the size
	// floor can land on either side of the target).
	for guard := 0; assigned != cfg.NumAirports && guard < 10*cfg.NumAirports; guard++ {
		i := guard % len(countries)
		if assigned < cfg.NumAirports {
			countries[i].size++
			assigned++
		} else if countries[i].size > 2 {
			countries[i].size--
			assigned--
		}
	}

	// --- Airports.
	b := graph.NewBuilder(0)
	b.SetDirected(true)
	b.SetDeduplicate(true)
	var countryOf, continentOf []int
	countryNames := make([]string, len(countries))
	for ci := range countries {
		c := &countries[ci]
		countryNames[ci] = fmt.Sprintf("%s-C%02d", shortRegion(regionNames[c.region]), ci)
		for a := 0; a < c.size; a++ {
			id := b.AddNamedVertex(fmt.Sprintf("%s-A%03d", countryNames[ci], a))
			c.airports = append(c.airports, id)
			countryOf = append(countryOf, ci)
			continentOf = append(continentOf, c.region)
		}
		nHubs := int(float64(c.size)/cfg.HubFraction) + 1
		if nHubs > c.size {
			nHubs = c.size
		}
		c.hubs = c.airports[:nHubs]
	}

	addBoth := func(u, v int) {
		if u == v {
			return
		}
		b.AddEdge(u, v)
		b.AddEdge(v, u)
	}

	// --- Domestic routes: spokes to 1-3 hubs; hubs fully meshed
	// domestically (capped).
	for ci := range countries {
		c := &countries[ci]
		for _, a := range c.airports[len(c.hubs):] {
			links := 1 + rng.Intn(3)
			if links > len(c.hubs) {
				links = len(c.hubs)
			}
			for _, hi := range rng.Perm(len(c.hubs))[:links] {
				addBoth(a, c.hubs[hi])
			}
		}
		for i := 0; i < len(c.hubs); i++ {
			for j := i + 1; j < len(c.hubs); j++ {
				if len(c.hubs) <= 6 || rng.Float64() < 0.4 {
					addBoth(c.hubs[i], c.hubs[j])
				}
			}
		}
	}

	// --- International, same region: each hub links to ~IntlDegree
	// hubs of other countries in its region.
	hubsByRegion := make([][]int, cfg.NumRegions)
	regionOfHub := make(map[int]int)
	countryOfHub := make(map[int]int)
	for ci := range countries {
		c := &countries[ci]
		for _, h := range c.hubs {
			hubsByRegion[c.region] = append(hubsByRegion[c.region], h)
			regionOfHub[h] = c.region
			countryOfHub[h] = ci
		}
	}
	for r := 0; r < cfg.NumRegions; r++ {
		hubs := hubsByRegion[r]
		for _, h := range hubs {
			links := poisson(rng, cfg.IntlDegree)
			for t := 0; t < links && len(hubs) > 1; t++ {
				other := hubs[rng.Intn(len(hubs))]
				if countryOfHub[other] == countryOfHub[h] {
					continue
				}
				addBoth(h, other)
			}
		}
	}

	// --- Intercontinental trunks: the biggest hub of each country is
	// a "major" hub; majors link across regions sparsely.
	var majors []int
	for ci := range countries {
		if len(countries[ci].hubs) > 0 && countries[ci].size >= 20 {
			majors = append(majors, countries[ci].hubs[0])
		}
	}
	if len(majors) < 2*cfg.NumRegions {
		// Small scale: treat every country's first hub as major.
		majors = majors[:0]
		for ci := range countries {
			majors = append(majors, countries[ci].hubs[0])
		}
	}
	for _, h := range majors {
		links := poisson(rng, cfg.TrunkDegree)
		for t := 0; t < links; t++ {
			other := majors[rng.Intn(len(majors))]
			if regionOfHub[other] == regionOfHub[h] {
				continue
			}
			addBoth(h, other)
		}
	}

	g := b.Build()
	hubs := make([]bool, g.NumVertices())
	for ci := range countries {
		for _, h := range countries[ci].hubs {
			hubs[h] = true
		}
	}
	return &Dataset{
		Graph:        g,
		Country:      countryOf,
		Continent:    continentOf,
		CountryNames: countryNames,
		RegionNames:  regionNames,
		NumCountries: len(countries),
		NumRegions:   cfg.NumRegions,
		Hubs:         hubs,
	}, nil
}

// poisson samples a Poisson variate by Knuth's method (fine for small
// means).
func poisson(rng *xrand.RNG, mean float64) int {
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}

func shortRegion(name string) string {
	out := make([]byte, 0, 4)
	for i := 0; i < len(name); i++ {
		ch := name[i]
		if ch >= 'A' && ch <= 'Z' {
			out = append(out, ch)
		}
	}
	if len(out) == 0 {
		out = append(out, name[0])
	}
	return string(out)
}
