package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// spec is the part of BENCHMARK.json the repeat mode compares against.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns Q1, median and Q3 of xs the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// runChild runs one measurement in a fresh process, so every run's
// set-up is a cold one, and returns its report.
func runChild(workload string, seed int64, seconds float64, trace int) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var rep report
	if err := json.Unmarshal(last, &rep); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return &rep, nil
}

// repeatMode runs each selected workload n times per set, set k with
// seeds seed+k·n … seed+k·n+n−1, and prints every end-to-end metric's median,
// quartiles and spread ((Q3−Q1)/median) against its bound from
// BENCHMARK.json. With two sets it also prints how far the second set's
// median moved from the first's, in the metric's worse direction. With
// traced set, every run is followed by a traced run on the same seed and
// the tracing overhead on frames_per_s is printed.
func repeatMode(name string, seed int64, seconds float64, n, sets int, traced bool) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	names := workloadNames()
	if name != "" {
		if _, err := lookupWorkload(name); err != nil {
			return err
		}
		names = []string{name}
	}
	ok := true
	for _, wl := range names {
		medians := make([]map[string]float64, sets)
		var failedShare []float64
		for set := 0; set < sets; set++ {
			vals := map[string][]float64{}
			var tracedFPS []float64
			attempted, failed := 0, 0
			for i := 0; i < n; i++ {
				s := seed + int64(set*n+i)
				rep, err := runChild(wl, s, seconds, 0)
				if err != nil {
					return err
				}
				if traced {
					// Each traced run follows its untraced twin on the same
					// seed, so host drift between them stays small.
					tr, err := runChild(wl, s, seconds, 1)
					if err != nil {
						return err
					}
					if !tr.Correct {
						ok = false
					}
					tracedFPS = append(tracedFPS, tr.Metrics["traced.frames_per_s"].Value)
				}
				if !rep.Correct {
					ok = false
				}
				attempted += rep.Attempted
				failed += rep.Failed
				for k, m := range rep.Metrics {
					vals[k] = append(vals[k], m.Value)
				}
			}
			failedShare = append(failedShare, float64(failed)/float64(attempted))
			medians[set] = map[string]float64{}
			fmt.Printf("%s set %d: %d runs, %d frames attempted, %d failed\n", wl, set+1, n, attempted, failed)
			fmt.Printf("  %-18s %12s %12s %12s %8s %6s\n", "metric", "Q1", "median", "Q3", "spread", "bound")
			for _, m := range sp.EndToEnd {
				q1, q2, q3 := quartiles(vals[m.Name])
				medians[set][m.Name] = q2
				spread := (q3 - q1) / q2
				flag := ""
				if m.Name != "setup_s" && spread > m.Bound {
					flag = "  OVER BOUND"
					ok = false
				}
				fmt.Printf("  %-18s %12.4f %12.4f %12.4f %8.4f %6.2f%s\n", m.Name, q1, q2, q3, spread, m.Bound, flag)
			}
			if traced {
				_, t2, _ := quartiles(tracedFPS)
				u2 := medians[set]["frames_per_s"]
				fmt.Printf("  tracing overhead: frames_per_s %.4f untraced vs %.4f traced (%+.2f%%)\n",
					u2, t2, (t2/u2-1)*100)
			}
		}
		if sets > 1 {
			fmt.Printf("%s set 2 against set 1 (worse direction positive):\n", wl)
			for _, m := range sp.EndToEnd {
				a, b := medians[0][m.Name], medians[1][m.Name]
				worse := (b - a) / a
				if m.Better == "higher" {
					worse = (a - b) / a
				}
				flag := ""
				if worse > m.Bound {
					flag = "  OVER BOUND"
					ok = false
				}
				fmt.Printf("  %-18s %+8.4f bound %.2f%s\n", m.Name, worse, m.Bound, flag)
			}
			if failedShare[0] != failedShare[1] {
				fmt.Printf("  failed share differs: %g vs %g\n", failedShare[0], failedShare[1])
				ok = false
			}
		}
	}
	if !ok {
		return fmt.Errorf("runs were incorrect or outside their bounds")
	}
	return nil
}
