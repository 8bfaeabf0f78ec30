package main

import (
	"fmt"

	"repro/internal/frame"
)

// workload is one input set the benchmark replays through the engine.
type workload struct {
	name string
	cfg  frame.Config
	snr  float64 // dB, static Rayleigh channel
	// recorded is how many distinct seeded frames the software RRU
	// synthesizes before timing; the replay cycles through them.
	recorded int
	// inflight > 0 runs a closed loop with that many frames outstanding;
	// rate > 0 runs an open loop at that many frames per second instead.
	inflight int
	rate     float64
	// tailPct is the latency percentile reported as lat_tail_ms: the
	// highest one that keeps at least ten samples beyond it at this
	// workload's frame count per run (see README).
	tailPct float64
	// dlSample picks the frames whose downlink samples are decoded on the
	// users' side after the window: every dlSample-th timed frame.
	dlSample int
}

// cell32x8 is the paper's numerology (2048 FFT, 1200 subcarriers,
// 64-QAM, rate 1/3, Z=104) at 32 antennas and 8 users.
func cell32x8(symbols string) frame.Config {
	c := frame.Default64x16()
	c.Antennas, c.Users = 32, 8
	c.Symbols = symbols
	return c
}

func workloads() []workload {
	return []workload{
		{
			name:     "ul-64x16",
			cfg:      frame.Default64x16(), // P + 13 U
			snr:      25,
			recorded: 4,
			inflight: 1,
			tailPct:  88, // 100-135 frames per 15 s run
		},
		{
			name:     "ul-decode",
			cfg:      cell32x8("PUUUUUUUUUUUUU"),
			snr:      decodeSNR,
			recorded: 8,
			inflight: 2,
			tailPct:  92, // 145-195 frames per 15 s run
		},
		{
			name:     "tdd-paced",
			cfg:      cell32x8("PUUUUUUDDDDDDD"),
			snr:      25,
			recorded: 8,
			rate:     6,
			tailPct:  88, // 91 frames per 15 s run
			dlSample: 16,
		},
	}
}

// decodeSNR is the ul-decode operating point: low enough that LDPC
// decoding needs several iterations per block, high enough that no block
// of any seed's recorded frames fails (see README for the sweep).
const decodeSNR = 11

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			if err := w.cfg.Validate(); err != nil {
				return w, err
			}
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
