// Command replaybench is the engine's replay benchmark. It records a
// workload's seeded fronthaul frames once, replays them through the
// engine over the in-process ring for a fixed window, checks every
// output against the recorded truth, and prints one JSON line of
// metrics. See README.md for the workloads and metrics.
//
//	replaybench --workload ul-64x16 --seed 1 --seconds 15 --trace 0
//	replaybench --repeat 10 --sets 2 --seconds 15
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed for the recorded input frames")
		seconds = flag.Float64("seconds", 15, "length of the timed window")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		repeat  = flag.Int("repeat", 0, "run each workload (or --workload) this many times per set, each in a fresh process with its own seed from seed on, and print medians, quartiles and spreads")
		sets    = flag.Int("sets", 1, "with --repeat: sets of runs; with 2 the second set's medians are compared with the first's")
		outDir  = flag.String("out", "replaybench/out", "directory for the traced run's span and trace files")
	)
	flag.Parse()
	if *repeat > 0 {
		if err := repeatMode(*name, *seed, *seconds, *repeat, *sets, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "replaybench:", err)
			os.Exit(1)
		}
		return
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "replaybench:", err)
		os.Exit(2)
	}
	rep, err := runOnce(w, *seed, *seconds, *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "replaybench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "replaybench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var n []string
	for _, w := range workloads() {
		n = append(n, w.name)
	}
	return n
}

// runOnce records the workload's inputs, replays them through the
// engine and returns the end-to-end (or, traced, the per-layer) report.
func runOnce(w workload, seed int64, seconds float64, traced bool, outDir string) (*report, error) {
	rec, err := record(w.cfg, w.snr, seed, w.recorded)
	if err != nil {
		return nil, fmt.Errorf("record: %w", err)
	}
	run, err := replayEngine(w, rec, seconds, traced)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	for _, p := range run.problems {
		fmt.Fprintln(os.Stderr, "check:", p)
	}
	rep := &report{Correct: run.correct, Attempted: run.attempted, Failed: run.failed}
	if traced {
		layers, err := traceLayers(w, rec, run, outDir)
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		rep.Correct = rep.Correct && layers.correct
		rep.Metrics = layers.metrics
	} else {
		rep.Metrics = endToEnd(w, run)
	}
	printHuman(w, seed, run, rep)
	return rep, nil
}

// endToEnd derives the user-visible metrics from one engine replay.
func endToEnd(w workload, run *engineRun) map[string]metric {
	frames := float64(len(run.lat))
	m := map[string]metric{
		"setup_s":          {run.setup.Seconds(), "s"},
		"frames_per_s":     {frames / run.window.Seconds(), "frames/s"},
		"lat_p50_ms":       {percentile(run.lat, 50), "ms"},
		"lat_tail_ms":      {percentile(run.lat, w.tailPct), "ms"},
		"cpu_ms_per_frame": {float64(run.cpu.Nanoseconds()) / 1e6 / frames, "ms"},
		"heap_mb":          {run.heapMiB, "MiB"},
		"allocs_per_frame": {float64(run.allocs) / frames, "objects"},
	}
	return m
}

// printHuman writes a readable summary to standard error.
func printHuman(w workload, seed int64, run *engineRun, rep *report) {
	fmt.Fprintf(os.Stderr, "%s seed=%d: %d frames in %.2fs, %d failed, correct=%v, tail=p%g",
		w.name, seed, run.attempted, run.window.Seconds(), run.failed, rep.Correct, w.tailPct)
	if len(run.late) > 0 {
		fmt.Fprintf(os.Stderr, ", sender late p50 %.3f ms max %.3f ms",
			percentile(run.late, 50), percentile(run.late, 100))
	}
	fmt.Fprintln(os.Stderr)
	keys := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %-36s %14.4f %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics; xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }
