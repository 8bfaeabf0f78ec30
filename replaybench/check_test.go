package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/fronthaul"
	"repro/internal/ldpc"
	"repro/internal/modulation"
)

// small is a laptop-sized cell with the benchmark's structure, so the
// checks run end to end in well under a second of engine time.
func small(t *testing.T, symbols string, inflight int, rate float64) workload {
	t.Helper()
	cfg := frame.Config{
		Antennas: 16, Users: 4, OFDMSize: 512, DataSubcarriers: 304,
		Order: modulation.QAM16, Rate: ldpc.Rate23, DecodeIter: 8,
		Symbols: symbols, ZFGroupSize: 16, DemodBlockSize: 64,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return workload{name: "small", cfg: cfg, snr: 30, recorded: 2,
		inflight: inflight, rate: rate, tailPct: 90, dlSample: 2}
}

// goodResult builds the FrameResult a correct engine returns for
// recorded frame r.
func goodResult(rec *recording, r int) *core.FrameResult {
	cfg := &rec.cfg
	res := &core.FrameResult{Frame: uint32(r), Bits: make([][][]byte, cfg.NumSymbols())}
	for s := range res.Bits {
		if rec.truth[r][s] == nil {
			continue
		}
		res.Bits[s] = make([][]byte, cfg.Users)
		for u := range res.Bits[s] {
			res.Bits[s][u] = append([]byte(nil), rec.truth[r][s][u]...)
		}
	}
	res.BlocksTotal = cfg.Users * cfg.NumUplink()
	res.BlocksOK = res.BlocksTotal
	return res
}

func TestCheckUplink(t *testing.T) {
	w := small(t, "PUUU", 1, 0)
	rec, err := record(w.cfg, w.snr, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	truth := rec.truth[0]
	if err := checkUplink(&w.cfg, goodResult(rec, 0), truth); err != nil {
		t.Fatalf("correct result rejected: %v", err)
	}

	flipped := goodResult(rec, 0)
	flipped.Bits[2][1][17] ^= 1
	if checkUplink(&w.cfg, flipped, truth) == nil {
		t.Error("a flipped bit in one decoded block passed")
	}

	short := goodResult(rec, 0)
	short.BlocksTotal--
	short.BlocksOK--
	if checkUplink(&w.cfg, short, truth) == nil {
		t.Error("a result with the wrong block count passed")
	}

	missingUser := goodResult(rec, 0)
	missingUser.Bits[3] = missingUser.Bits[3][:w.cfg.Users-1]
	if checkUplink(&w.cfg, missingUser, truth) == nil {
		t.Error("a result missing one user's block passed")
	}

	parity := goodResult(rec, 0)
	parity.BlocksOK--
	if checkUplink(&w.cfg, parity, truth) == nil {
		t.Error("a result with a failed parity check passed")
	}

	dropped := goodResult(rec, 0)
	dropped.Dropped = true
	if checkUplink(&w.cfg, dropped, truth) == nil {
		t.Error("a dropped frame passed")
	}
}

// dlFrame builds every downlink packet of frame id for cfg.
func dlFrame(cfg *frame.Config, id uint32) [][]byte {
	samples := make([]complex64, cfg.SamplesPerSymbol())
	iq := make([]int16, 2*len(samples))
	var pkts [][]byte
	for s := 0; s < cfg.NumSymbols(); s++ {
		if cfg.SymbolAt(s) != frame.Downlink {
			continue
		}
		for a := 0; a < cfg.Antennas; a++ {
			h := fronthaul.Header{Frame: id, Symbol: uint16(s), Antenna: uint16(a), Dir: fronthaul.DirDownlink}
			buf := make([]byte, 0, fronthaul.PacketSize(len(samples)))
			pkts = append(pkts, fronthaul.BuildPacket(buf, iq, h, samples))
		}
	}
	return pkts
}

func TestDLTracker(t *testing.T) {
	w := small(t, "PUDD", 0, 10)
	cfg := &w.cfg
	observeAll := func(tr *dlTracker, pkts [][]byte) {
		for _, p := range pkts {
			tr.observe(p)
		}
	}

	tr := newDLTracker(cfg, 8, nil)
	observeAll(tr, dlFrame(cfg, 3))
	if err := tr.frameErr(3); err != nil {
		t.Fatalf("whole downlink frame rejected: %v", err)
	}

	tr = newDLTracker(cfg, 8, nil)
	pkts := dlFrame(cfg, 3)
	observeAll(tr, pkts[:len(pkts)-1])
	if tr.frameErr(3) == nil {
		t.Error("a frame with one dropped downlink packet passed")
	}

	corrupt := func(name string, mutate func(p []byte) []byte) {
		tr := newDLTracker(cfg, 8, nil)
		pkts := dlFrame(cfg, 3)
		pkts[5] = mutate(pkts[5])
		observeAll(tr, pkts)
		if tr.frameErr(3) == nil {
			t.Errorf("a frame with a %s downlink packet passed", name)
		}
	}
	corrupt("repeated", func(p []byte) []byte {
		var h fronthaul.Header
		_ = h.Decode(p)
		h.Antenna = 4 // now a second copy of antenna 4
		h.Encode(p)
		return p
	})
	corrupt("wrong-symbol", func(p []byte) []byte {
		var h fronthaul.Header
		_ = h.Decode(p)
		h.Symbol = 1 // an uplink symbol
		h.Encode(p)
		return p
	})
	corrupt("wrong-direction", func(p []byte) []byte {
		var h fronthaul.Header
		_ = h.Decode(p)
		h.Dir = fronthaul.DirUplink
		h.Encode(p)
		return p
	})
	corrupt("truncated", func(p []byte) []byte { return p[:len(p)-3] })
}

// TestReplayPasses runs the benchmark's replay on the unchanged engine:
// a closed uplink loop and a paced TDD loop whose downlink is decoded on
// the users' side must both finish with no failed frame.
func TestReplayPasses(t *testing.T) {
	for _, w := range []workload{small(t, "PUUU", 2, 0), small(t, "PUUDDD", 0, 40)} {
		rec, err := record(w.cfg, w.snr, 7, w.recorded)
		if err != nil {
			t.Fatal(err)
		}
		run, err := replayEngine(w, rec, 0.5, true)
		if err != nil {
			t.Fatal(err)
		}
		if !run.correct || run.failed != 0 || run.attempted == 0 {
			t.Fatalf("%s: correct=%v failed=%d attempted=%d problems=%v",
				w.cfg.Symbols, run.correct, run.failed, run.attempted, run.problems)
		}
		if _, err := traceLayers(w, rec, run, t.TempDir()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplayFailsOnWrongBits flips one bit of one recorded block's truth:
// every replay of that frame must then count as failed and the run as
// incorrect, exactly as if the engine had decoded that bit wrongly.
func TestReplayFailsOnWrongBits(t *testing.T) {
	w := small(t, "PUUU", 1, 0)
	rec, err := record(w.cfg, w.snr, 7, w.recorded)
	if err != nil {
		t.Fatal(err)
	}
	rec.truth[1][2][3][40] ^= 1
	run, err := replayEngine(w, rec, 0.3, false)
	if err != nil {
		t.Fatal(err)
	}
	if run.correct || run.failed == 0 {
		t.Fatalf("flipped truth bit not caught: correct=%v failed=%d of %d", run.correct, run.failed, run.attempted)
	}
	// Frames alternate between the two recordings, so about half fail.
	if run.failed < run.attempted/2-1 || run.failed > run.attempted/2+1 {
		t.Errorf("%d of %d frames failed, want every frame replaying recording 1", run.failed, run.attempted)
	}
}

// TestDecodeDownlinkRejectsWrongSamples feeds the users' side one frame's
// genuine downlink and then the same frame with two downlink symbols'
// samples swapped: the first must decode to the MAC bits, the second not.
func TestDecodeDownlinkRejectsWrongSamples(t *testing.T) {
	w := small(t, "PDD", 0, 20)
	cfg := &w.cfg
	rec, err := record(w.cfg, w.snr, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring := fronthaul.NewRing(4096, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	eng, err := core.NewEngine(*cfg, core.Options{Workers: 2}, ring.Side(1))
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	defer eng.Stop()
	rru := ring.Side(0)
	for _, p := range rec.pkts[0] {
		if err := rru.Send(p); err != nil {
			t.Fatal(err)
		}
	}
	if res := <-eng.Results(); res.Dropped {
		t.Fatal("frame dropped")
	}
	tr := newDLTracker(cfg, 1, []uint32{0})
	for i := 0; i < cfg.NumDownlink()*cfg.Antennas; i++ {
		pkt, ok := rru.Recv()
		if !ok {
			t.Fatal("ring closed")
		}
		tr.observe(pkt)
		rru.Release(pkt)
	}
	if err := tr.frameErr(0); err != nil {
		t.Fatal(err)
	}
	payloads := tr.samples[0]
	if err := decodeDownlink(cfg, rec.h, payloads, eng.DownlinkTruth); err != nil {
		t.Fatalf("genuine downlink rejected: %v", err)
	}
	m := cfg.Antennas
	swapped := append(append([][]byte(nil), payloads[m:]...), payloads[:m]...)
	if decodeDownlink(cfg, rec.h, swapped, eng.DownlinkTruth) == nil {
		t.Error("downlink samples of the wrong symbols decoded to the MAC bits")
	}
}
