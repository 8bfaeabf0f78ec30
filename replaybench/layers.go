package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cf"
	"repro/internal/channel"
	"repro/internal/fft"
	"repro/internal/frame"
	"repro/internal/fronthaul"
	"repro/internal/ldpc"
	"repro/internal/mat"
	"repro/internal/modulation"
	"repro/internal/obs"
	"repro/internal/queue"
)

// stage names the engine's task types in metric names, in queue order.
var stageNames = [...]string{
	queue.TaskPilotFFT: "pilot_fft",
	queue.TaskZF:       "zf",
	queue.TaskFFT:      "fft",
	queue.TaskDemod:    "demod",
	queue.TaskDecode:   "decode",
	queue.TaskEncode:   "encode",
	queue.TaskPrecode:  "precode",
	queue.TaskIFFT:     "ifft",
	queue.TaskPacketTX: "packet_tx",
}

// replayBudget bounds the single-threaded kernel replay: whole recorded
// frames are replayed until it is spent (at least one frame).
const replayBudget = 1500 * time.Millisecond

type layerReport struct {
	correct bool
	metrics map[string]metric
}

// kernelReplay pushes recorded frames through each layer's exported
// functions at the workload's shapes, one call at a time, with a span per
// call. Task spans ("task.<stage>") mirror the engine's task granularity
// and parent the layer spans inside them.
type kernelReplay struct {
	cfg    *frame.Config
	log    *spanLog
	code   *ldpc.Code
	plan   *fft.Plan
	tab    *modulation.Table
	dec    *ldpc.Decoder
	zfws   *mat.ZFWorkspace
	eqMul  mat.BlockKernel
	preMul mat.BlockKernel
	scUsed int
	pilots [][]complex64 // conjugated frequency-orthogonal pilots per user
	csi    []*mat.M      // per ZF group, M×K
	eq     []*mat.M      // K×M
	pre    []*mat.M      // M×K
	freq   []complex64
	grid   []complex64 // one uplink symbol, subcarrier-major q×M
	llr    []float32   // one uplink symbol, subcarrier-major SoA
	gather []float32
	xblk   []complex64
	info   []byte
	cw     [][]byte
	modBlk []complex64
	xtBlk  []complex64
	dlFreq []complex64 // one downlink symbol, subcarrier-major q×M
	lane   []complex64
	tx     []complex64
	iq     []int16
	pkt    []byte
	// mismatch counts the replayed blocks that decode differently from
	// the truth.
	blocks, mismatch int
}

func newKernelReplay(cfg *frame.Config, log *spanLog) (*kernelReplay, error) {
	plan, err := fft.NewPlan(cfg.OFDMSize)
	if err != nil {
		return nil, err
	}
	k, m, q := cfg.Users, cfg.Antennas, cfg.DataSubcarriers
	code := cfg.Code()
	order := int(cfg.Order)
	kr := &kernelReplay{
		cfg: cfg, log: log, code: code, plan: plan,
		tab:    modulation.Get(cfg.Order),
		dec:    ldpc.NewDecoder(code),
		zfws:   mat.NewZFWorkspace(k),
		eqMul:  mat.PlanBlockMul(true, k),
		preMul: mat.PlanBlockMul(true, cfg.ZFGroupSize),
		scUsed: (code.N() + order - 1) / order,
		freq:   make([]complex64, cfg.OFDMSize),
		grid:   make([]complex64, q*m),
		xblk:   make([]complex64, k*cfg.ZFGroupSize),
		info:   make([]byte, code.K()),
		modBlk: make([]complex64, k*cfg.ZFGroupSize),
		xtBlk:  make([]complex64, k*cfg.ZFGroupSize),
		dlFreq: make([]complex64, q*m),
		lane:   make([]complex64, cfg.OFDMSize),
		tx:     make([]complex64, cfg.SamplesPerSymbol()),
		iq:     make([]int16, 2*cfg.SamplesPerSymbol()),
		pkt:    make([]byte, 0, fronthaul.PacketSize(cfg.SamplesPerSymbol())),
	}
	kr.dec.Alg = ldpc.NormalizedMinSum
	kr.llr = make([]float32, kr.scUsed*k*order)
	kr.gather = make([]float32, kr.scUsed*order)
	for u := 0; u < k; u++ {
		p := channel.FrequencyOrthogonalPilot(q, k, u)
		cf.Conj(p)
		kr.pilots = append(kr.pilots, p)
	}
	for g := 0; g < cfg.ZFGroups(); g++ {
		kr.csi = append(kr.csi, mat.New(m, k))
		kr.eq = append(kr.eq, mat.New(k, m))
		kr.pre = append(kr.pre, mat.New(m, k))
	}
	for u := 0; u < k; u++ {
		kr.cw = append(kr.cw, make([]byte, code.N()))
	}
	return kr, nil
}

func (kr *kernelReplay) groupBounds(g int) (int, int) {
	lo := g * kr.cfg.ZFGroupSize
	return lo, min(lo+kr.cfg.ZFGroupSize, kr.cfg.DataSubcarriers)
}

// replayFrame runs one recorded frame: pilot FFT + channel estimate, ZF,
// uplink FFT, equalize + demodulate, decode (checked against the truth),
// then the downlink chain. UL-only workloads run the downlink chain over
// their first uplink symbol's bits so every layer is measured at the
// workload's shapes.
func (kr *kernelReplay) replayFrame(pkts [][]byte, truth [][][]byte, id uint32,
	dlBits func(sym, u int) []byte) {
	cfg := kr.cfg
	log := kr.log
	m, k := cfg.Antennas, cfg.Users
	root := log.begin("frame", -1, id)
	bySym := make([][][]byte, cfg.NumSymbols())
	for _, p := range pkts {
		var h fronthaul.Header
		if err := h.Decode(p); err != nil {
			continue
		}
		if bySym[h.Symbol] == nil {
			bySym[h.Symbol] = make([][]byte, m)
		}
		bySym[h.Symbol][h.Antenna] = fronthaul.Payload(p, &h)
	}
	ds := cfg.DataStart()
	q := cfg.DataSubcarriers
	for s := 0; s < cfg.NumSymbols(); s++ {
		if cfg.SymbolAt(s) != frame.Pilot {
			continue
		}
		for a := 0; a < m; a++ {
			t := log.begin("task.pilot_fft", root, id)
			sp := log.begin("fft.fwd", t, id)
			kr.plan.ForwardIQ12(kr.freq, bySym[s][a], cfg.CPLen)
			log.end(sp)
			kr.estimate(a, kr.freq[ds:ds+q])
			log.end(t)
		}
	}
	hasDL := cfg.NumDownlink() > 0
	for g := range kr.csi {
		t := log.begin("task.zf", root, id)
		sp := log.begin("mat.zf", t, id)
		if err := mat.ZFEqualizerInto(kr.eq[g], kr.csi[g], kr.zfws); err != nil {
			mat.ConjugateEqualizerIntoWS(kr.eq[g], kr.csi[g], kr.zfws)
		}
		if hasDL {
			if err := mat.ZFPrecoderInto(kr.pre[g], kr.csi[g], kr.zfws); err != nil {
				kr.pre[g].Zero()
			}
		}
		log.end(sp)
		log.end(t)
		if !hasDL {
			if err := mat.ZFPrecoderInto(kr.pre[g], kr.csi[g], kr.zfws); err != nil {
				kr.pre[g].Zero()
			}
		}
	}
	firstUL := -1
	for s := 0; s < cfg.NumSymbols(); s++ {
		if cfg.SymbolAt(s) != frame.Uplink {
			continue
		}
		if firstUL < 0 {
			firstUL = s
		}
		for a := 0; a < m; a++ {
			t := log.begin("task.fft", root, id)
			sp := log.begin("fft.fwd", t, id)
			kr.plan.ForwardIQ12(kr.freq, bySym[s][a], cfg.CPLen)
			log.end(sp)
			band := kr.freq[ds : ds+q]
			for sc, v := range band {
				kr.grid[sc*m+a] = v
			}
			log.end(t)
		}
		// The engine enqueues only the demod blocks that carry code bits.
		for b := 0; b*cfg.DemodBlockSize < min(q, kr.scUsed); b++ {
			t := log.begin("task.demod", root, id)
			kr.demodBlock(b, t, id)
			log.end(t)
		}
		for u := 0; u < k; u++ {
			t := log.begin("task.decode", root, id)
			llr := kr.userLLR(u)
			sp := log.begin("ldpc.decode", t, id)
			r := kr.dec.Decode(kr.info, llr[:kr.code.N()], cfg.DecodeIter)
			log.end(sp)
			log.end(t)
			kr.blocks++
			if !r.OK || !bytes.Equal(kr.info, truth[s][u]) {
				kr.mismatch++
			}
		}
	}
	for s := 0; s < cfg.NumSymbols(); s++ {
		switch {
		case hasDL && cfg.SymbolAt(s) == frame.Downlink:
			kr.downlinkSymbol(id, root, func(u int) []byte { return dlBits(s, u) })
		case !hasDL && s == firstUL:
			kr.downlinkSymbol(id, root, func(u int) []byte { return truth[s][u] })
		}
	}
	log.end(root)
}

// estimate is the engine's frequency-orthogonal channel estimate for one
// antenna: per ZF group, each user's pilot tones averaged.
func (kr *kernelReplay) estimate(ant int, band []complex64) {
	k := kr.cfg.Users
	for g := range kr.csi {
		lo, hi := kr.groupBounds(g)
		row := kr.csi[g].Row(ant)
		for u := 0; u < k; u++ {
			var acc complex64
			n := 0
			for sc := lo + ((u-lo)%k+k)%k; sc < hi; sc += k {
				acc += band[sc] * kr.pilots[u][sc]
				n++
			}
			if n > 0 {
				row[u] = acc * complex(1/float32(n), 0)
			}
		}
	}
}

// demodBlock equalizes and demodulates demod block b of the current
// uplink symbol in ZF-group-aligned strips of 16 subcarriers, the
// engine's fused kernel shape.
func (kr *kernelReplay) demodBlock(b int, parent int32, id uint32) {
	cfg := kr.cfg
	m, k, order := cfg.Antennas, cfg.Users, int(cfg.Order)
	lo := b * cfg.DemodBlockSize
	hi := min(lo+cfg.DemodBlockSize, cfg.DataSubcarriers, kr.scUsed)
	for s0 := lo; s0 < hi; {
		g := s0 / cfg.ZFGroupSize
		s1 := min((g+1)*cfg.ZFGroupSize, hi)
		for j0 := s0; j0 < s1; {
			j1 := min(j0+16, s1)
			ns := j1 - j0
			yt := mat.M{Rows: ns, Cols: m, Data: kr.grid[j0*m : j1*m]}
			xb := mat.M{Rows: k, Cols: ns, Data: kr.xblk[:k*ns]}
			sp := kr.log.begin("mat.equalize", parent, id)
			kr.eqMul(&xb, kr.eq[g], &yt)
			kr.log.end(sp)
			sp = kr.log.begin("modulation.demod", parent, id)
			kr.tab.DemodulateSoftSoA(kr.llr[j0*k*order:j1*k*order], xb.Data, k, ns, 0.1)
			kr.log.end(sp)
			j0 = j1
		}
		s0 = s1
	}
}

// userLLR gathers one user's codeword LLRs out of the SoA layout.
func (kr *kernelReplay) userLLR(u int) []float32 {
	k, order := kr.cfg.Users, int(kr.cfg.Order)
	o := u * order
	for sc := 0; sc < kr.scUsed; sc++ {
		copy(kr.gather[sc*order:(sc+1)*order], kr.llr[o:o+order])
		o += k * order
	}
	return kr.gather
}

// downlinkSymbol encodes, modulates, precodes, transforms and packetizes
// one downlink symbol.
func (kr *kernelReplay) downlinkSymbol(id uint32, root int32, bits func(u int) []byte) {
	cfg := kr.cfg
	log := kr.log
	m, k, q := cfg.Antennas, cfg.Users, cfg.DataSubcarriers
	n := kr.code.N()
	for u := 0; u < k; u++ {
		t := log.begin("task.encode", root, id)
		sp := log.begin("ldpc.encode", t, id)
		kr.code.Encode(kr.cw[u], bits(u))
		log.end(sp)
		log.end(t)
	}
	for g := range kr.pre {
		lo, hi := kr.groupBounds(g)
		nb := hi - lo
		t := log.begin("task.precode", root, id)
		sp := log.begin("modulation.mod", t, id)
		for u := 0; u < k; u++ {
			kr.tab.ModulateBlock(kr.modBlk[u*nb:(u+1)*nb], kr.cw[u][:n], lo)
		}
		log.end(sp)
		sp = log.begin("mat.precoder", t, id)
		for u := 0; u < k; u++ {
			for j, v := range kr.modBlk[u*nb : (u+1)*nb] {
				kr.xtBlk[j*k+u] = v
			}
		}
		xt := mat.M{Rows: nb, Cols: k, Data: kr.xtBlk[:nb*k]}
		out := mat.M{Rows: nb, Cols: m, Data: kr.dlFreq[lo*m : hi*m]}
		kr.preMul(&out, &xt, kr.pre[g])
		log.end(sp)
		log.end(t)
	}
	ds := cfg.DataStart()
	for a := 0; a < m; a++ {
		t := log.begin("task.ifft", root, id)
		cf.Fill(kr.lane, 0)
		for sc := 0; sc < q; sc++ {
			kr.lane[ds+sc] = kr.dlFreq[sc*m+a]
		}
		sp := log.begin("fft.inv", t, id)
		kr.plan.Inverse(kr.lane)
		log.end(sp)
		copy(kr.tx, kr.lane[cfg.OFDMSize-cfg.CPLen:])
		copy(kr.tx[cfg.CPLen:], kr.lane)
		cf.Scale(kr.tx, 0.25)
		log.end(t)
		t = log.begin("task.packet_tx", root, id)
		sp = log.begin("fronthaul.build", t, id)
		kr.pkt = fronthaul.BuildPacket(kr.pkt, kr.iq,
			fronthaul.Header{Frame: id, Antenna: uint16(a), Dir: fronthaul.DirDownlink}, kr.tx)
		log.end(sp)
		log.end(t)
	}
}

// ringNsPerPkt times packets through a fresh in-process ring: Send on
// the RRU side, RecvBatch and Release on the engine side, in bursts of
// 64 as the engine's receive loop takes them.
func ringNsPerPkt(pkts [][]byte, mtu int, log *spanLog) float64 {
	ring := fronthaul.NewRing(4096, mtu)
	tx, rx := ring.Side(0), ring.Side(1)
	batch := make([][]byte, 64)
	var per []float64
	for round := 0; round < 4; round++ {
		for i := 0; i+64 <= len(pkts); i += 64 {
			sp := log.begin("fronthaul.ring", -1, 0)
			for _, p := range pkts[i : i+64] {
				_ = tx.Send(p)
			}
			for got := 0; got < 64; {
				n, ok := rx.RecvBatch(batch[:64-got])
				if !ok {
					break
				}
				for _, b := range batch[:n] {
					rx.Release(b)
				}
				got += n
			}
			log.end(sp)
			s := log.spans[sp]
			per = append(per, float64(s.End-s.Start)/64)
		}
	}
	_ = tx.Close()
	return median(per)
}

// queueMsgNs times enqueue+dequeue pairs on an engine task queue.
func queueMsgNs(log *spanLog) float64 {
	q := queue.New(1024)
	var per []float64
	for round := 0; round < 200; round++ {
		sp := log.begin("queue.msg", -1, 0)
		for i := 0; i < 256; i++ {
			q.TryEnqueue(queue.Msg{Type: queue.TaskFFT, TaskIdx: uint16(i)})
			q.TryDequeue()
		}
		log.end(sp)
		s := log.spans[sp]
		per = append(per, float64(s.End-s.Start)/256)
	}
	return median(per)
}

// emitNs times the engine tracer's Emit.
func emitNs(log *spanLog) float64 {
	tr := obs.NewTracer(1, 1024, time.Now())
	var per []float64
	for round := 0; round < 200; round++ {
		sp := log.begin("obs.emit", -1, 0)
		for i := 0; i < 1024; i++ {
			tr.Emit(obs.Event{Start: int64(i), End: int64(i + 1), Type: queue.TaskFFT})
		}
		log.end(sp)
		s := log.spans[sp]
		per = append(per, float64(s.End-s.Start)/1024)
	}
	return median(per)
}

// traceLayers builds the per-layer report: the kernel replay's costs,
// the engine run's own accounting, and the ledger that sets predicted
// (kernel cost × exact task count) against observed busy time per stage.
func traceLayers(w workload, rec *recording, run *engineRun, outDir string) (*layerReport, error) {
	cfg := &w.cfg
	rep := &layerReport{correct: true, metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { rep.metrics[name] = metric{v, unit} }
	frames := float64(len(run.lat))
	if frames == 0 {
		return nil, fmt.Errorf("no frames completed")
	}

	log := newSpanLog(time.Now(), 1<<16)
	kr, err := newKernelReplay(cfg, log)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for r := 0; r == 0 || (r < len(rec.pkts) && time.Since(t0) < replayBudget); r++ {
		kr.replayFrame(rec.pkts[r], rec.truth[r], uint32(r), run.dlTruth)
	}
	if kr.mismatch > 0 {
		rep.correct = false
		fmt.Fprintf(os.Stderr, "check: kernel replay decoded %d of %d blocks differently from the truth\n",
			kr.mismatch, kr.blocks)
	}
	us := func(name string) float64 { return median(log.durations(name)) / 1e3 }
	put("fft.fwd_us", us("fft.fwd"), "us")
	put("fft.inv_us", us("fft.inv"), "us")
	put("mat.zf_us", us("mat.zf"), "us")
	put("mat.precoder_us", us("mat.precoder"), "us")
	put("mat.equalize_us", us("mat.equalize"), "us")
	put("modulation.demod_us", us("modulation.demod"), "us")
	put("modulation.mod_us", us("modulation.mod"), "us")
	put("ldpc.decode_us", us("ldpc.decode"), "us")
	put("ldpc.encode_us", us("ldpc.encode"), "us")
	put("fronthaul.build_ns_per_pkt", median(log.durations("fronthaul.build")), "ns")
	ringNs := ringNsPerPkt(rec.pkts[0], fronthaul.PacketSize(cfg.SamplesPerSymbol())+64, log)
	put("fronthaul.ring_ns_per_pkt", ringNs, "ns")
	put("queue.msg_ns", queueMsgNs(log), "ns")
	put("obs.emit_ns", emitNs(log), "ns")

	perFrame := func(n int64) float64 { return float64(n) / frames }
	put("fronthaul.pkts_per_frame", perFrame(run.ulPkts+run.dlPkts), "count")
	put("fronthaul.send_late_ms", percentile(run.late, 50), "ms")
	tk := run.tasks
	put("fft.calls_per_frame", perFrame(tk[queue.TaskPilotFFT].count+tk[queue.TaskFFT].count+tk[queue.TaskIFFT].count), "count")
	zfComputed := float64(run.zfMisses*int64(cfg.ZFGroups())) / frames
	put("mat.zf_computed_per_frame", zfComputed, "count")
	hitRatio := 0.0
	if n := run.zfHits + run.zfMisses; n > 0 {
		hitRatio = float64(run.zfHits) / float64(n)
	}
	put("mat.zf_cache_hit_ratio", hitRatio, "ratio")
	put("ldpc.blocks_per_frame", perFrame(run.decBlocks), "count")
	iters, early := 0.0, 0.0
	if run.decBlocks > 0 {
		iters = float64(run.decIters) / float64(run.decBlocks)
		early = float64(run.decEarly) / float64(run.decBlocks)
	}
	put("ldpc.iters_per_block", iters, "count")
	put("ldpc.early_exit_ratio", early, "ratio")
	put("obs.events_per_frame", run.eventsPerFrm, "count")
	rxPerFrame := float64(run.ulPkts) / frames
	put("queue.msgs_per_frame", 2*run.eventsPerFrm+rxPerFrame, "count")
	put("core.queue_wait_ms", mean(run.queueWaitMS), "ms")
	put("traced.frames_per_s", frames/run.window.Seconds(), "frames/s")

	// The ledger: mean replayed task cost × the engine's exact task count
	// per frame. ZF counts only the groups the coherence cache did not
	// serve; packet TX adds the ring's per-packet cost to the build.
	wall := run.window.Seconds() * 1e3
	var observed, predicted float64
	fmt.Fprintf(os.Stderr, "%-10s %10s %12s %12s\n", "stage", "tasks/frm", "observed_ms", "predicted_ms")
	for t := queue.TaskType(0); t <= queue.TaskPacketTX; t++ {
		name := stageNames[t]
		obsMS := tk[t].ms / frames
		count := float64(tk[t].count) / frames
		cost := mean(log.durations("task."+name)) / 1e6
		switch t {
		case queue.TaskZF:
			count = zfComputed
		case queue.TaskPacketTX:
			cost += ringNs / 1e6
		}
		predMS := cost * count
		put("core."+name+"_busy_ms_per_frame", obsMS, "ms")
		put("core."+name+"_pred_ms_per_frame", predMS, "ms")
		fmt.Fprintf(os.Stderr, "%-10s %10.1f %12.3f %12.3f\n", name, float64(tk[t].count)/frames, obsMS, predMS)
		if t == queue.TaskPacketTX {
			// The network TX thread is not a worker; bound it on its own.
			if tk[t].ms > wall {
				rep.correct = false
				fmt.Fprintf(os.Stderr, "check: packet TX busy %.1f ms exceeds the %.1f ms window\n", tk[t].ms, wall)
			}
			continue
		}
		observed += obsMS
		predicted += predMS
	}
	capacity := float64(run.workers) * wall / frames
	put("core.observed_busy_ms_per_frame", observed, "ms")
	put("core.predicted_busy_ms_per_frame", predicted, "ms")
	put("core.residual_ms_per_frame", capacity-observed, "ms")
	put("core.worker_busy_ratio", observed/capacity, "ratio")
	fmt.Fprintf(os.Stderr, "%-10s %10s %12.3f %12.3f\n", "total", "", observed, predicted)
	fmt.Fprintf(os.Stderr, "residual (scheduling, synchronisation, idle): %.3f ms/frame of %.3f ms/frame worker capacity\n",
		capacity-observed, capacity)
	if observed > capacity {
		rep.correct = false
		fmt.Fprintf(os.Stderr, "check: observed busy %.3f ms/frame exceeds %d workers × window (%.3f ms/frame)\n",
			observed, run.workers, capacity)
	}

	// One set of files per workload, overwritten by the next traced run.
	if err := run.spans.write(outDir, "spans-engine-"+w.name+".jsonl"); err != nil {
		return nil, err
	}
	if err := log.write(outDir, "spans-kernels-"+w.name+".jsonl"); err != nil {
		return nil, err
	}
	if err := writeChrome(filepath.Join(outDir, "engine-"+w.name+".trace.json"), run.events); err != nil {
		return nil, err
	}
	return rep, nil
}

func writeChrome(path string, evs []obs.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, evs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
