package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/cf"
	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/frame"
	"repro/internal/fronthaul"
	"repro/internal/ldpc"
	"repro/internal/mat"
	"repro/internal/modulation"
)

// errDropped marks a frame the engine abandoned; it fails the frame but
// says nothing about the correctness of the outputs it did produce.
var errDropped = errors.New("frame dropped")

// checkUplink scores one FrameResult against the recorded ground truth:
// the frame must carry Users × NumUplink blocks, all of them passing
// parity, and every block's decoded bits must equal the generator's
// information bits.
func checkUplink(cfg *frame.Config, res *core.FrameResult, truth [][][]byte) error {
	if res.Dropped {
		return errDropped
	}
	want := cfg.Users * cfg.NumUplink()
	if res.BlocksTotal != want {
		return fmt.Errorf("frame %d: %d blocks, want %d", res.Frame, res.BlocksTotal, want)
	}
	if res.BlocksOK != res.BlocksTotal {
		return fmt.Errorf("frame %d: %d of %d blocks failed parity", res.Frame,
			res.BlocksTotal-res.BlocksOK, res.BlocksTotal)
	}
	if len(res.Bits) != cfg.NumSymbols() {
		return fmt.Errorf("frame %d: bits for %d symbols, want %d", res.Frame, len(res.Bits), cfg.NumSymbols())
	}
	for s := 0; s < cfg.NumSymbols(); s++ {
		if cfg.SymbolAt(s) != frame.Uplink {
			continue
		}
		if len(res.Bits[s]) != cfg.Users {
			return fmt.Errorf("frame %d symbol %d: %d users decoded, want %d", res.Frame, s, len(res.Bits[s]), cfg.Users)
		}
		for u := 0; u < cfg.Users; u++ {
			if !bytes.Equal(res.Bits[s][u], truth[s][u]) {
				return fmt.Errorf("frame %d symbol %d user %d: decoded bits differ from the truth", res.Frame, s, u)
			}
		}
	}
	return nil
}

// dlTracker follows the downlink packets the engine sends back to the
// RRU: for each frame id below its capacity, which (symbol, antenna)
// packets arrived, and whether any packet was malformed or repeated.
// Packets naming no trackable frame only add to problems.
// Payloads of the sample frames are kept for the users'-side decode.
// One goroutine writes it; others read it only after that goroutine ends.
type dlTracker struct {
	cfg      *frame.Config
	dlIndex  []int // symbol -> position among downlink symbols, -1 otherwise
	nDL      int
	count    []int32
	seen     [][]bool // [frame][dlPos*M + ant]
	bad      []bool
	problems []string
	// samples[id] holds [dlPos*M+ant] payload copies for sample frames.
	samples map[uint32][][]byte
}

func newDLTracker(cfg *frame.Config, frames int, sampleIDs []uint32) *dlTracker {
	t := &dlTracker{cfg: cfg, dlIndex: make([]int, cfg.NumSymbols())}
	for s := range t.dlIndex {
		t.dlIndex[s] = -1
		if cfg.SymbolAt(s) == frame.Downlink {
			t.dlIndex[s] = t.nDL
			t.nDL++
		}
	}
	per := t.nDL * cfg.Antennas
	t.count = make([]int32, frames)
	t.bad = make([]bool, frames)
	t.seen = make([][]bool, frames)
	flat := make([]bool, frames*per)
	for f := range t.seen {
		t.seen[f] = flat[f*per : (f+1)*per]
	}
	t.samples = make(map[uint32][][]byte, len(sampleIDs))
	payload := cfg.SamplesPerSymbol() * cf.BytesPerIQ
	for _, id := range sampleIDs {
		s := make([][]byte, per)
		for i := range s {
			s[i] = make([]byte, 0, payload)
		}
		t.samples[id] = s
	}
	return t
}

func (t *dlTracker) note(format string, args ...any) {
	if len(t.problems) < 8 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// observe checks one packet received on the RRU side.
func (t *dlTracker) observe(pkt []byte) {
	var h fronthaul.Header
	if err := h.Decode(pkt); err != nil {
		t.note("downlink packet: %v", err)
		return
	}
	cfg := t.cfg
	if int(h.Frame) >= len(t.count) {
		t.note("downlink packet for untracked frame %d", h.Frame)
		return
	}
	f := int(h.Frame)
	switch {
	case h.Dir != fronthaul.DirDownlink:
		t.note("frame %d: packet direction %d", f, h.Dir)
	case int(h.Symbol) >= cfg.NumSymbols() || t.dlIndex[h.Symbol] < 0:
		t.note("frame %d: packet for non-downlink symbol %d", f, h.Symbol)
	case int(h.Antenna) >= cfg.Antennas:
		t.note("frame %d: packet for antenna %d", f, h.Antenna)
	case int(h.Samples) != cfg.SamplesPerSymbol() || len(pkt) != fronthaul.PacketSize(int(h.Samples)):
		t.note("frame %d: packet of %d samples / %d bytes", f, h.Samples, len(pkt))
	default:
		i := t.dlIndex[h.Symbol]*cfg.Antennas + int(h.Antenna)
		if t.seen[f][i] {
			t.note("frame %d: repeated packet symbol %d antenna %d", f, h.Symbol, h.Antenna)
			break
		}
		t.seen[f][i] = true
		t.count[f]++
		if s, ok := t.samples[h.Frame]; ok {
			s[i] = append(s[i][:0], fronthaul.Payload(pkt, &h)...)
		}
		return
	}
	t.bad[f] = true
}

// frameErr reports whether frame id's downlink arrived whole and clean.
func (t *dlTracker) frameErr(id uint32) error {
	want := int32(t.nDL * t.cfg.Antennas)
	switch {
	case t.bad[id]:
		return fmt.Errorf("frame %d: malformed or repeated downlink packet", id)
	case t.count[id] != want:
		return fmt.Errorf("frame %d: %d of %d downlink packets", id, t.count[id], want)
	}
	return nil
}

// decodeDownlink plays the users' side for one sample frame: each user
// receives Σ_m H[m][u]·x_m(t) through the reciprocal channel, then runs
// the FFT, a blind per-symbol gain estimate, soft demodulation and LDPC
// decoding. Every user's bits must equal the MAC bits the engine was
// given (truth(sym, u)).
func decodeDownlink(cfg *frame.Config, h *mat.M, payloads [][]byte,
	truth func(sym, u int) []byte) error {
	code := cfg.Code()
	plan, err := fft.NewPlan(cfg.OFDMSize)
	if err != nil {
		return err
	}
	tab := modulation.Get(cfg.Order)
	dec := ldpc.NewDecoder(code)
	dec.Alg = ldpc.NormalizedMinSum
	nsps := cfg.SamplesPerSymbol()
	scUsed := (code.N() + int(cfg.Order) - 1) / int(cfg.Order)
	samples := make([]complex64, nsps)
	rx := make([]complex64, cfg.OFDMSize)
	llr := make([]float32, scUsed*int(cfg.Order))
	got := make([]byte, code.K())
	pos := 0
	for sym := 0; sym < cfg.NumSymbols(); sym++ {
		if cfg.SymbolAt(sym) != frame.Downlink {
			continue
		}
		for u := 0; u < cfg.Users; u++ {
			cf.Fill(rx, 0)
			for a := 0; a < cfg.Antennas; a++ {
				p := payloads[pos*cfg.Antennas+a]
				if len(p) != nsps*cf.BytesPerIQ {
					return fmt.Errorf("symbol %d antenna %d: no samples", sym, a)
				}
				cf.UnpackIQ12(samples, p)
				cf.AXPY(rx, h.At(a, u), samples[cfg.CPLen:])
			}
			plan.Forward(rx)
			band := rx[cfg.DataStart() : cfg.DataStart()+scUsed]
			g := blindGain(band, tab)
			if g == 0 {
				return fmt.Errorf("symbol %d user %d: silent", sym, u)
			}
			inv := complex64(1 / g)
			for i := range band {
				band[i] *= inv
			}
			tab.DemodulateSoft(llr, band, 0.1)
			r := dec.Decode(got, llr[:code.N()], cfg.DecodeIter)
			if !r.OK || !bytes.Equal(got, truth(sym, u)) {
				return fmt.Errorf("symbol %d user %d: users' side decode differs from the MAC bits", sym, u)
			}
		}
		pos++
	}
	return nil
}

// blindGain estimates the complex gain g with band ≈ g·x for
// constellation points x: ZF precoding leaves one gain per user and
// symbol, which a least-squares fit against hard decisions recovers
// after normalizing the band to unit average power.
func blindGain(band []complex64, tab *modulation.Table) complex128 {
	amp := math.Sqrt(cf.Energy(band) / float64(len(band)))
	if amp == 0 {
		return 0
	}
	bits := make([]byte, tab.BitsPerSymbol())
	pt := make([]complex64, 1)
	var acc complex128
	var n float64
	for _, v := range band {
		vn := complex64(complex128(v) / complex(amp, 0))
		tab.Demodulate(bits, []complex64{vn})
		tab.Modulate(pt, bits)
		acc += complex128(vn) * cmplx.Conj(complex128(pt[0]))
		n += real(complex128(pt[0]) * cmplx.Conj(complex128(pt[0])))
	}
	if n == 0 {
		return 0
	}
	return acc / complex(n, 0) * complex(amp, 0)
}
