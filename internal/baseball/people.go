// Package baseball regenerates the §5.2.3 query-discovery workload: a
// People table in the shape of the Lahman baseball database (20,185 players
// with birthplace, birth date, build and handedness columns), the seven
// target queries of Table 2, and the candidate CNF query generator of steps
// (1)–(5).
//
// The real Lahman dump is not redistributable, so GeneratePeople draws a
// synthetic table whose marginals track the original closely enough that
// the target-query output sizes land in the paper's ranges (Table 2 prints
// the paper's sizes beside ours). Only the predicate/selectivity
// structure matters to the experiments, which operate on candidate-query
// output sets.
package baseball

import (
	"fmt"

	"setdiscovery/internal/relation"
	"setdiscovery/internal/rng"
)

// DefaultRows is the Lahman 2020 People table size used throughout §5.2.3.
const DefaultRows = 20185

// weighted draws a key by relative weight.
type weighted struct {
	keys  []string
	cum   []float64
	total float64
}

func newWeighted(pairs ...interface{}) *weighted {
	w := &weighted{}
	for i := 0; i < len(pairs); i += 2 {
		w.keys = append(w.keys, pairs[i].(string))
		w.total += pairs[i+1].(float64)
		w.cum = append(w.cum, w.total)
	}
	return w
}

func (w *weighted) draw(r *rng.RNG) string {
	u := r.Float64() * w.total
	lo, hi := 0, len(w.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if w.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return w.keys[lo]
}

var countries = newWeighted(
	"USA", 0.868, "D.R.", 0.037, "Venezuela", 0.018, "CAN", 0.016,
	"P.R.", 0.013, "Cuba", 0.011, "Mexico", 0.007, "Japan", 0.004,
	"Panama", 0.003, "United Kingdom", 0.003, "Colombia", 0.002,
	"Australia", 0.002, "Germany", 0.002, "Curacao", 0.002,
	"South Korea", 0.002, "Nicaragua", 0.002, "Ireland", 0.002,
	"Netherlands", 0.002, "Taiwan", 0.002, "Brazil", 0.002,
)

var usStates = newWeighted(
	"CA", 0.115, "PA", 0.072, "NY", 0.068, "IL", 0.052, "OH", 0.051,
	"TX", 0.049, "MA", 0.035, "MO", 0.031, "FL", 0.030, "NC", 0.026,
	"MI", 0.024, "NJ", 0.024, "GA", 0.023, "AL", 0.022, "VA", 0.021,
	"TN", 0.019, "IN", 0.019, "KY", 0.018, "WA", 0.015, "MD", 0.015,
	"OK", 0.014, "LA", 0.014, "WI", 0.014, "SC", 0.013, "MN", 0.012,
	"IA", 0.012, "MS", 0.012, "AR", 0.011, "KS", 0.010, "CT", 0.010,
	"OR", 0.008, "WV", 0.008, "CO", 0.007, "AZ", 0.007, "NE", 0.006,
	"DC", 0.005, "ME", 0.005, "RI", 0.004, "NH", 0.004, "UT", 0.004,
	"other", 0.031,
)

// bigCities gives each state a couple of named cities with their share of
// the state's players; the rest of the state's players come from a Zipf
// long tail of synthetic towns.
var bigCities = map[string]*weighted{
	"CA": newWeighted("Los Angeles", 0.155, "San Francisco", 0.075, "San Diego", 0.05, "Oakland", 0.045, "Sacramento", 0.03),
	"NY": newWeighted("New York", 0.22, "Brooklyn", 0.11, "Buffalo", 0.04, "Rochester", 0.03),
	"IL": newWeighted("Chicago", 0.28, "Springfield", 0.03, "Peoria", 0.02),
	"PA": newWeighted("Philadelphia", 0.18, "Pittsburgh", 0.09),
	"MA": newWeighted("Boston", 0.16, "Worcester", 0.05),
	"TX": newWeighted("Houston", 0.10, "Dallas", 0.08, "San Antonio", 0.06, "Austin", 0.04),
	"MO": newWeighted("St. Louis", 0.22, "Kansas City", 0.10),
	"OH": newWeighted("Cincinnati", 0.12, "Cleveland", 0.10, "Columbus", 0.06),
	"WA": newWeighted("Seattle", 0.18, "Tacoma", 0.06, "Spokane", 0.05),
	"MD": newWeighted("Baltimore", 0.30),
	"LA": newWeighted("New Orleans", 0.25),
	"MI": newWeighted("Detroit", 0.20),
}

// birthYears weights decade buckets so that the recent-player share matches
// the Lahman ramp (≈5.5% born after 1990, the T1 selectivity driver).
var birthYears = newWeighted(
	"1850", 0.020, "1860", 0.035, "1870", 0.045, "1880", 0.055,
	"1890", 0.060, "1900", 0.060, "1910", 0.055, "1920", 0.055,
	"1930", 0.060, "1940", 0.065, "1950", 0.080, "1960", 0.095,
	"1970", 0.105, "1980", 0.130, "1985h", 0.070, "1990h", 0.040,
	"1995h", 0.022, "2000", 0.003,
)

// GeneratePeople draws the default-size table.
func GeneratePeople(seed uint64) (*relation.Table, error) {
	return GeneratePeopleN(seed, DefaultRows)
}

// GeneratePeopleN draws a People table with n rows. Scaled-down tables keep
// all marginals; only absolute counts shrink.
func GeneratePeopleN(seed uint64, n int) (*relation.Table, error) {
	if n < 1 {
		return nil, fmt.Errorf("baseball: n = %d", n)
	}
	r := rng.New(seed)
	towns := rng.NewZipf(r.Split(), 40, 1.1)

	playerID := make([]string, n)
	country := make([]string, n)
	state := make([]string, n)
	stateNull := make([]bool, n)
	city := make([]string, n)
	cityNull := make([]bool, n)
	year := make([]int64, n)
	month := make([]int64, n)
	day := make([]int64, n)
	dateNull := make([]bool, n)
	height := make([]int64, n)
	weight := make([]int64, n)
	buildNull := make([]bool, n)
	bats := make([]string, n)
	batsNull := make([]bool, n)
	throws := make([]string, n)
	throwsNull := make([]bool, n)

	for i := 0; i < n; i++ {
		playerID[i] = fmt.Sprintf("plyr%05d", i)
		country[i] = countries.draw(r)

		// Birthplace.
		if country[i] == "USA" {
			state[i] = usStates.draw(r)
		} else if r.Float64() < 0.5 {
			state[i] = country[i] + "-P" + fmt.Sprint(1+r.Intn(8))
		} else {
			stateNull[i] = true
		}
		if r.Float64() < 0.02 {
			cityNull[i] = true
		} else if w, ok := bigCities[state[i]]; ok && r.Float64() < w.total {
			city[i] = w.draw(r)
		} else {
			st := state[i]
			if stateNull[i] {
				st = country[i]
			}
			city[i] = fmt.Sprintf("Town-%s-%02d", st, towns.Draw())
		}

		// Birth date.
		year[i] = drawYear(r)
		if r.Float64() < 0.02 {
			dateNull[i] = true
		} else {
			month[i] = int64(1 + r.Intn(12))
			day[i] = int64(1 + r.Intn(28))
		}

		// Build. Height ~ N(72, 2.6) clipped; weight tracks height with a
		// heavy-tail component so the T6 (tall & heavy) population exists.
		if r.Float64() < 0.008 {
			buildNull[i] = true
		} else {
			h := int64(clamp(72+r.NormFloat64()*2.6, 60, 84))
			w := 4.5*(float64(h)-72) + 186 + r.NormFloat64()*16
			if r.Float64() < 0.05 {
				w += 55 + r.NormFloat64()*20
			}
			height[i] = h
			weight[i] = int64(clamp(w, 120, 330))
		}

		// Handedness: bats given throws, matching the Lahman cross table
		// (bats L ∧ throws R ≈ 10.8%, bats B ≈ 5.3%).
		switch {
		case r.Float64() < 0.008:
			throwsNull[i] = true
			batsNull[i] = true
		default:
			if r.Float64() < 0.80 {
				throws[i] = "R"
			} else {
				throws[i] = "L"
			}
			u := r.Float64()
			if throws[i] == "R" {
				switch {
				case u < 0.755:
					bats[i] = "R"
				case u < 0.890:
					bats[i] = "L"
				case u < 0.948:
					bats[i] = "B"
				default:
					batsNull[i] = true
				}
			} else {
				switch {
				case u < 0.72:
					bats[i] = "L"
				case u < 0.90:
					bats[i] = "R"
				case u < 0.96:
					bats[i] = "B"
				default:
					batsNull[i] = true
				}
			}
		}
	}

	t := relation.NewTable("People")
	for _, step := range []error{
		t.AddStringColumn("playerID", playerID, nil),
		t.AddStringColumn("birthCountry", country, nil),
		t.AddStringColumn("birthState", state, stateNull),
		t.AddStringColumn("birthCity", city, cityNull),
		t.AddIntColumn("birthYear", year, nil),
		t.AddIntColumn("birthMonth", month, dateNull),
		t.AddIntColumn("birthDay", day, dateNull),
		t.AddIntColumn("height", height, buildNull),
		t.AddIntColumn("weight", weight, buildNull),
		t.AddStringColumn("bats", bats, batsNull),
		t.AddStringColumn("throws", throws, throwsNull),
	} {
		if step != nil {
			return nil, step
		}
	}
	return t, nil
}

func drawYear(r *rng.RNG) int64 {
	bucket := birthYears.draw(r)
	switch bucket {
	case "1985h":
		return int64(1985 + r.Intn(5))
	case "1990h":
		return int64(1990 + r.Intn(5))
	case "1995h":
		return int64(1995 + r.Intn(5))
	case "2000":
		return 2000
	default:
		var base int
		fmt.Sscanf(bucket, "%d", &base)
		return int64(base + r.Intn(10))
	}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// TargetQueries returns the seven target queries of Table 2.
func TargetQueries() []relation.Query {
	return []relation.Query{
		{Name: "T1", Pred: relation.And{
			relation.EqAnyStr{Col: "birthCountry", Values: []string{"USA"}},
			relation.IntRange{Col: "birthYear", Lo: 1990, HasLo: true},
		}},
		{Name: "T2", Pred: relation.And{
			relation.EqAnyStr{Col: "birthCity", Values: []string{"Los Angeles"}},
			relation.IntRange{Col: "height", Lo: 70, Hi: 80, HasLo: true, HasHi: true},
		}},
		{Name: "T3", Pred: relation.And{
			relation.EqAnyStr{Col: "bats", Values: []string{"L"}},
			relation.EqAnyStr{Col: "throws", Values: []string{"R"}},
		}},
		{Name: "T4", Pred: relation.And{
			relation.EqAnyStr{Col: "birthCountry", Values: []string{"USA"}},
			relation.EqAnyStr{Col: "bats", Values: []string{"B"}},
		}},
		{Name: "T5", Pred: relation.And{
			relation.EqAnyInt{Col: "birthMonth", Values: []int64{12}},
			relation.EqAnyInt{Col: "birthDay", Values: []int64{25}},
		}},
		{Name: "T6", Pred: relation.And{
			relation.IntRange{Col: "height", Lo: 75, HasLo: true},
			relation.IntRange{Col: "weight", Lo: 260, HasLo: true},
		}},
		{Name: "T7", Pred: relation.And{
			relation.IntRange{Col: "height", Hi: 65, HasHi: true},
			relation.IntRange{Col: "weight", Hi: 160, HasHi: true},
		}},
	}
}
