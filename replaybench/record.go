package main

import (
	"encoding/binary"

	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/mat"
	rru "repro/internal/workload"
)

// recording holds a workload's seeded input frames, synthesized once by
// the software RRU before anything is timed, with their ground truth.
type recording struct {
	cfg frame.Config
	// pkts[r] is recorded frame r's uplink packets in emit order.
	pkts [][][]byte
	// truth[r][s][u] is user u's information bits on uplink symbol s of
	// recorded frame r (nil rows for other symbol types).
	truth [][][][]byte
	// h is the static channel every frame crossed (M×K), which the users'
	// side of the downlink check reuses under TDD reciprocity.
	h *mat.M
}

// record synthesizes n frames from a generator seeded with seed.
func record(cfg frame.Config, snr float64, seed int64, n int) (*recording, error) {
	gen, err := rru.NewGenerator(cfg, channel.Rayleigh, snr, seed)
	if err != nil {
		return nil, err
	}
	rec := &recording{cfg: cfg, h: gen.H.Clone()}
	for r := 0; r < n; r++ {
		var pkts [][]byte
		err := gen.EmitFrame(uint32(r), func(pkt []byte) error {
			pkts = append(pkts, append([]byte(nil), pkt...))
			return nil
		})
		if err != nil {
			return nil, err
		}
		rec.pkts = append(rec.pkts, pkts)
		t := make([][][]byte, cfg.NumSymbols())
		for s := range t {
			if gen.TruthBits[0][s] == nil {
				continue
			}
			t[s] = make([][]byte, cfg.Users)
			for u := range t[s] {
				t[s][u] = append([]byte(nil), gen.TruthBits[u][s]...)
			}
		}
		rec.truth = append(rec.truth, t)
	}
	return rec, nil
}

// Header byte offsets the replay rewrites (fronthaul.Header.Encode).
const (
	offFrame = 4
	offSeq   = 24
)

// stamp rewrites a recorded packet in place for replay as frame id with
// sender sequence number seq: the engine sees a fresh frame from a
// lossless RRU while the payload bytes stay exactly as recorded.
func stamp(pkt []byte, id uint32, seq uint64) {
	binary.LittleEndian.PutUint32(pkt[offFrame:], id)
	binary.LittleEndian.PutUint64(pkt[offSeq:], seq)
}
