package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json compare needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// judged is one metric's rule: which way is better and how far it may
// worsen (0 for per-layer metrics, which have no bound).
type judged struct {
	name   string
	higher bool
	bound  float64
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <parent.jsonl> <change.jsonl>  (run from the repository root)")
		return 2
	}
	var sp spec
	data, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &sp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare: BENCHMARK.json:", err)
		return 2
	}
	parent, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	change, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	var e2e, layer []judged
	for _, m := range sp.EndToEnd {
		e2e = append(e2e, judged{m.Name, m.Better == "higher", m.Bound})
	}
	for _, m := range sp.PerLayer {
		layer = append(layer, judged{m.Name, m.Better == "higher", 0})
	}
	fmt.Printf("%-24s %-26s %5s %28s %28s %6s  %s\n", "workload", "metric", "pairs",
		"parent q1/median/q3", "change q1/median/q3", "won", "verdict")
	for _, row := range compareRows(parent, change, e2e, layer) {
		fmt.Println(row)
	}
	return 0
}

func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []record
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// pairUp matches records of equal seed, then pairs the rest in order.
func pairUp(a, b []record) [][2]record {
	var pairs [][2]record
	used := make([]bool, len(b))
	var restA []record
	for _, ra := range a {
		found := false
		for j, rb := range b {
			if !used[j] && rb.Seed == ra.Seed {
				pairs = append(pairs, [2]record{ra, rb})
				used[j], found = true, true
				break
			}
		}
		if !found {
			restA = append(restA, ra)
		}
	}
	j := 0
	for _, ra := range restA {
		for j < len(b) && used[j] {
			j++
		}
		if j == len(b) {
			break
		}
		pairs = append(pairs, [2]record{ra, b[j]})
		used[j] = true
	}
	return pairs
}

func compareRows(parent, change []record, e2e, layer []judged) []string {
	group := func(rs []record) map[string][]record {
		g := map[string][]record{}
		for _, r := range rs {
			k := fmt.Sprintf("%s\x00%v", r.Workload, r.Trace)
			g[k] = append(g[k], r)
		}
		return g
	}
	ga, gb := group(parent), group(change)
	keys := make([]string, 0, len(ga))
	for k := range ga {
		if _, ok := gb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var rows []string
	for _, k := range keys {
		pairs := pairUp(ga[k], gb[k])
		ms := e2e
		if ga[k][0].Trace {
			ms = layer
		}
		same := true
		for _, p := range pairs {
			same = same && p[0].Fingerprint.sameMachine(p[1].Fingerprint)
		}
		for _, m := range ms {
			var av, bv []float64
			won := 0
			for _, p := range pairs {
				x, okx := p[0].Metrics[m.name]
				y, oky := p[1].Metrics[m.name]
				if !okx || !oky {
					continue
				}
				av, bv = append(av, x.Value), append(bv, y.Value)
				if (m.higher && y.Value > x.Value) || (!m.higher && y.Value < x.Value) {
					won++
				}
			}
			if len(av) == 0 {
				continue
			}
			rows = append(rows, fmt.Sprintf("%-24s %-26s %5d %28s %28s %5.0f%%  %s",
				ga[k][0].Workload, m.name, len(av), spread(av), spread(bv),
				100*float64(won)/float64(len(av)), verdict(m, av, bv, same)))
		}
	}
	return rows
}

func spread(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g/%.4g/%.4g", q1, q2, q3)
}

// verdict applies the paired-run rule: a gain needs the change to win
// at least nine tenths of at least ten pairs (ties count for neither
// side) and the medians to differ by more than the parent's quartile
// spread; a loss is the mirror image, or a median worse by more than
// the metric's bound. A metric whose own spread exceeds its bound is
// unresolved unless every change run beats every parent run. Results
// from different machines are reported without a verdict.
func verdict(m judged, a, b []float64, sameMachine bool) string {
	if !sameMachine {
		return "report only (machines differ)"
	}
	n := len(a)
	if n < 10 {
		return "unresolved (fewer than 10 pairs)"
	}
	won, lost := 0, 0
	for i := range a {
		switch {
		case a[i] == b[i]:
		case (b[i] > a[i]) == m.higher:
			won++
		default:
			lost++
		}
	}
	q1, ma, q3 := quartiles(a)
	mb := median(b)
	gain := mb - ma
	if !m.higher {
		gain = -gain
	}
	iqr := q3 - q1
	sa, sb := sorted(a), sorted(b)
	allBetter := (m.higher && sb[0] > sa[n-1]) || (!m.higher && sb[n-1] < sa[0])
	switch {
	case 10*won >= 9*n && gain > iqr:
		return "improved"
	case 10*lost >= 9*n && -gain > iqr:
		return "regressed"
	case m.bound > 0 && -gain > m.bound*math.Abs(ma):
		return "regressed"
	case m.bound > 0 && iqr > m.bound*math.Abs(ma) && !allBetter:
		return "unresolved (spread wider than bound)"
	case m.bound > 0 || math.Abs(gain) <= iqr:
		return "unchanged"
	default:
		return "unresolved"
	}
}
