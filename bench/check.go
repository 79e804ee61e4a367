package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// table and experiment mirror the biodeg/api wire shape that
// `replicate -json` prints; only the checked fields are decoded.
type table struct {
	Title  string      `json:"title"`
	Cols   []string    `json:"cols"`
	Rows   []string    `json:"rows"`
	Values [][]float64 `json:"values"`
	Errors []string    `json:"errors"`
}

type experiment struct {
	ID     string  `json:"id"`
	Tables []table `json:"tables"`
}

// reference is the `replicate -json` output of the seed commit,
// testdata/reference.json.
type reference struct {
	ids  []string // every experiment, in registry order
	byID map[string]experiment
}

func loadReference(path string) (reference, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return reference{}, err
	}
	var exps []experiment
	if err := json.Unmarshal(b, &exps); err != nil {
		return reference{}, fmt.Errorf("%s: %w", path, err)
	}
	r := reference{byID: map[string]experiment{}}
	for _, x := range exps {
		r.ids = append(r.ids, x.ID)
		r.byID[x.ID] = x
	}
	return r, nil
}

// relTol is how far, relative to the larger magnitude, a value may move
// from the reference: deliberate low-bit numerical changes pass, a real
// drift does not.
const relTol = 1e-6

// check verifies one `replicate -json` output that ran the experiments
// ids (nil = all): every experiment and table present in reference
// order, no table errors, every value finite and within relTol of the
// reference, and the DESIGN.md §5 shape invariants on whichever tables
// are present. It returns how many tables matched bit for bit.
func (r reference) check(out []byte, ids []string) (int, error) {
	var got []experiment
	if err := json.Unmarshal(out, &got); err != nil {
		return 0, fmt.Errorf("decoding output: %w", err)
	}
	if ids == nil {
		ids = r.ids
	}
	if len(got) != len(ids) {
		return 0, fmt.Errorf("got %d experiments, want %d", len(got), len(ids))
	}
	identical := 0
	byID := map[string]experiment{}
	for i, id := range ids {
		want, ok := r.byID[id]
		if !ok {
			return 0, fmt.Errorf("no reference for experiment %q", id)
		}
		if got[i].ID != id {
			return 0, fmt.Errorf("experiment %d is %q, want %q", i, got[i].ID, id)
		}
		n, err := compareTables(want, got[i])
		if err != nil {
			return 0, fmt.Errorf("%s: %w", id, err)
		}
		identical += n
		byID[id] = got[i]
	}
	return identical, checkShapes(byID)
}

// compareTables compares one experiment's tables with the reference and
// counts the bit-identical ones.
func compareTables(want, got experiment) (int, error) {
	if len(got.Tables) != len(want.Tables) {
		return 0, fmt.Errorf("got %d tables, want %d", len(got.Tables), len(want.Tables))
	}
	identical := 0
	for i, w := range want.Tables {
		g := got.Tables[i]
		switch {
		case len(g.Errors) > 0:
			return 0, fmt.Errorf("table %q reports errors: %v", g.Title, g.Errors)
		case g.Title != w.Title || !slices.Equal(g.Cols, w.Cols) || !slices.Equal(g.Rows, w.Rows):
			return 0, fmt.Errorf("table %d is %q %v x %v, want %q %v x %v", i, g.Title, g.Rows, g.Cols, w.Title, w.Rows, w.Cols)
		case len(g.Values) != len(w.Values):
			return 0, fmt.Errorf("table %q has %d value rows, want %d", g.Title, len(g.Values), len(w.Values))
		}
		same := true
		for r, wrow := range w.Values {
			if len(g.Values[r]) != len(wrow) {
				return 0, fmt.Errorf("table %q row %d has %d values, want %d", g.Title, r, len(g.Values[r]), len(wrow))
			}
			for c, b := range wrow {
				a := g.Values[r][c]
				if a == b {
					continue
				}
				same = false
				if !finite(a) || math.Abs(a-b) > relTol*math.Max(math.Abs(a), math.Abs(b)) {
					return 0, fmt.Errorf("table %q [%s, %s] = %v, reference %v", g.Title, w.Rows[r], w.Cols[c], a, b)
				}
			}
		}
		if same {
			identical++
		}
	}
	return identical, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// checkShapes asserts the paper's shape results (DESIGN.md §5) on the
// experiments present: they must hold under any tolerated numerical
// change, because they are what the reproduction claims.
func checkShapes(byID map[string]experiment) error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }

	if x, ok := byID["fig12"]; ok {
		sil, err1 := column(x, "fig12: silicon", "freq (x)")
		org, err2 := column(x, "fig12: organic", "freq (x)")
		switch {
		case err1 != nil || err2 != nil:
			errs = append(errs, err1, err2)
		case argmax(sil)+1 != 8:
			fail("fig12: silicon ALU frequency peaks at %d stages, want 8", argmax(sil)+1)
		case len(org) < 30 || org[29] <= org[28]:
			fail("fig12: organic ALU frequency is no longer rising at 30 stages")
		}
	}
	if x, ok := byID["fig13"]; ok {
		if t, err := find(x, "fig13: silicon"); err != nil {
			errs = append(errs, err)
		} else if row := t.Rows[argmaxRow(t.Values)]; row != "be=4" {
			fail("fig13: silicon performance peaks at %s, want be=4", row)
		}
	}
	if x, ok := byID["fig11"]; ok {
		sil, err1 := find(x, "fig11: silicon")
		org, err2 := find(x, "fig11: organic")
		if err1 != nil || err2 != nil {
			errs = append(errs, err1, err2)
		} else {
			// Columns: freq (x), area (x), then one per benchmark. The
			// organic core clock keeps rising deeper than silicon's, and
			// no benchmark's best organic depth is shallower.
			for c, name := range sil.Cols {
				if c == 1 {
					continue
				}
				s, o := argmax(col(sil, c)), argmax(col(org, c))
				if o < s || (c == 0 && o == s) {
					fail("fig11: %s peaks at %s on organic, %s on silicon; want organic deeper", name, org.Rows[o], sil.Rows[s])
				}
			}
		}
	}
	if x, ok := byID["fig15"]; ok {
		sil, err1 := column(x, "fig15a", "sil no-wire")
		org, err2 := column(x, "fig15a", "org no-wire")
		// Without wire cost, silicon's ALU scales like organic's: at the
		// deepest pipeline the two normalized frequencies meet.
		if err1 != nil || err2 != nil {
			errs = append(errs, err1, err2)
		} else if s, o := sil[len(sil)-1], org[len(org)-1]; math.Abs(s-o) > 0.01*o {
			fail("fig15a: without wires at %d stages, silicon scales %vx and organic %vx, more than 1%% apart", len(sil), s, o)
		}
	}
	if x, ok := byID["fig8"]; ok {
		if t, err := find(x, "fig8"); err != nil {
			errs = append(errs, err)
		} else {
			prevVSS, prevVM := math.Inf(-1), math.Inf(-1)
			for r, label := range t.Rows {
				vss, err := strconv.ParseFloat(strings.TrimPrefix(label, "VSS="), 64)
				if err != nil || vss <= prevVSS || t.Values[r][0] <= prevVM {
					fail("fig8: VM is not monotone increasing in VSS at row %s", label)
					break
				}
				prevVSS, prevVM = vss, t.Values[r][0]
			}
		}
	}
	return errors.Join(errs...)
}

// find returns the experiment's table whose title starts with prefix.
func find(x experiment, prefix string) (table, error) {
	for _, t := range x.Tables {
		if strings.HasPrefix(t.Title, prefix) && len(t.Values) > 0 {
			return t, nil
		}
	}
	return table{}, fmt.Errorf("%s: no table titled %q...", x.ID, prefix)
}

// column returns one named column of the table whose title starts with
// prefix.
func column(x experiment, prefix, name string) ([]float64, error) {
	t, err := find(x, prefix)
	if err != nil {
		return nil, err
	}
	c := slices.Index(t.Cols, name)
	if c < 0 {
		return nil, fmt.Errorf("%s: table %q has no column %q", x.ID, t.Title, name)
	}
	return col(t, c), nil
}

func col(t table, c int) []float64 {
	v := make([]float64, len(t.Values))
	for r, row := range t.Values {
		v[r] = row[c]
	}
	return v
}

// argmax returns the index of the first largest value.
func argmax(v []float64) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}

// argmaxRow returns the row holding the matrix's largest value.
func argmaxRow(m [][]float64) int {
	best, bestV := 0, math.Inf(-1)
	for r, row := range m {
		for _, v := range row {
			if v > bestV {
				best, bestV = r, v
			}
		}
	}
	return best
}
