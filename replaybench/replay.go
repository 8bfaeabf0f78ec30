package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fronthaul"
	"repro/internal/obs"
	"repro/internal/queue"
)

// warmFrames are replayed and checked before the timed window opens, so
// goroutine start-up, cold caches and the ZF coherence cache's first
// fill stay out of the window.
const warmFrames = 2

// resultTimeout bounds the wait for any single FrameResult; the engine
// abandons a stuck frame after its own 2 s FrameTimeout, so only a
// wedged engine reaches it.
const resultTimeout = 20 * time.Second

// engineRun is what one replay through the engine measured and found.
type engineRun struct {
	attempted, failed int
	problems          []string // wrong outputs and broken accounting
	correct           bool

	setup   time.Duration
	window  time.Duration
	lat     []float64 // ms per timed frame, completion order
	cpu     time.Duration
	allocs  uint64
	heapMiB float64
	late    []float64 // paced sender lateness per frame, ms

	// Engine accounting over the window (trace mode reads these).
	workers      int
	tasks        [queue.NumTaskTypes]taskDelta
	queueWaitMS  []float64
	zfHits       int64
	zfMisses     int64
	decBlocks    int64
	decIters     int64
	decEarly     int64
	ulPkts       int64 // uplink packets sent in the window
	dlPkts       int64 // downlink packets received in the window
	eventsPerFrm float64
	spans        *spanLog                // benchmark spans, traced runs only
	events       []obs.Event             // the engine's own trace, traced runs only
	dlTruth      func(sym, u int) []byte // the MAC bits the engine was given
}

type taskDelta struct {
	count int64
	ms    float64
}

func (r *engineRun) fail(format string, args ...any) {
	r.correct = false
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAllocs returns the cumulative count of heap objects allocated.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeap returns the heap bytes still reachable after a full GC.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// replayEngine runs workload w's recorded frames through a fresh engine
// for the given window, checking every output. With traced set, the
// benchmark records a span around each frame and each send burst.
func replayEngine(w workload, rec *recording, seconds float64, traced bool) (*engineRun, error) {
	cfg := w.cfg
	run := &engineRun{correct: true, workers: runtime.NumCPU()}
	// Everything the benchmark itself keeps is sized before the heap
	// baseline, so heap_mb counts only what the engine holds.
	maxFrames := warmFrames + int(seconds*200) + 64
	run.lat = make([]float64, 0, maxFrames)
	run.late = make([]float64, 0, maxFrames)
	run.queueWaitMS = make([]float64, 0, maxFrames)
	start := make([]time.Time, maxFrames) // latency origin per frame id
	got := make([]uint8, maxFrames)       // results received per frame id
	hasDL := cfg.NumDownlink() > 0
	var sampleIDs []uint32
	if hasDL {
		for f := 3; len(sampleIDs) < 4; f += w.dlSample {
			sampleIDs = append(sampleIDs, uint32(warmFrames+f))
		}
	}
	dl := newDLTracker(&cfg, maxFrames, sampleIDs)
	var mainSpans, sendSpans *spanLog
	if traced {
		epoch := time.Now()
		mainSpans = newSpanLog(epoch, 2*maxFrames)
		sendSpans = newSpanLog(epoch, maxFrames)
	}

	base := liveHeap()
	ring := fronthaul.NewRing(4096, fronthaul.PacketSize(cfg.SamplesPerSymbol())+64)
	t0 := time.Now()
	eng, err := core.NewEngine(cfg, core.Options{Workers: run.workers, KeepBits: true}, ring.Side(1))
	if err != nil {
		return nil, err
	}
	eng.Start()
	run.setup = time.Since(t0)
	stopped := false
	defer func() {
		if !stopped {
			eng.Stop()
		}
	}()
	rru := ring.Side(0)

	// The RRU side of the downlink: every packet the engine sends back.
	var dlDone sync.WaitGroup
	var dlCount atomic.Int64
	if hasDL {
		dlDone.Add(1)
		go func() {
			defer dlDone.Done()
			for {
				pkt, ok := rru.Recv()
				if !ok {
					return
				}
				dl.observe(pkt)
				rru.Release(pkt)
				dlCount.Add(1)
			}
		}()
	}

	var seq uint64
	send := func(id uint32, log *spanLog) error {
		frame := rec.pkts[int(id)%len(rec.pkts)]
		sp := log.begin("fronthaul.send", -1, id)
		for _, p := range frame {
			seq++
			stamp(p, id, seq)
			if err := rru.Send(p); err != nil {
				return err
			}
		}
		log.end(sp)
		return nil
	}
	results := eng.Results()
	timer := time.NewTimer(resultTimeout)
	defer timer.Stop()
	next := func() (core.FrameResult, error) {
		timer.Reset(resultTimeout)
		select {
		case r := <-results:
			if !timer.Stop() {
				<-timer.C
			}
			return r, nil
		case <-timer.C:
			return core.FrameResult{}, errors.New("no frame result within 20 s")
		}
	}
	timedFrom := uint32(warmFrames)
	// accept scores one result. Warm-up frames are checked too, but only
	// timed frames count as attempted.
	accept := func(r *core.FrameResult, done time.Time) {
		id := r.Frame
		if int(id) >= maxFrames || got[id] > 0 {
			run.fail("unexpected or repeated result for frame %d", id)
			return
		}
		got[id]++
		err := checkUplink(&cfg, r, rec.truth[int(id)%len(rec.truth)])
		if id < timedFrom {
			if err != nil {
				run.fail("warm-up %v", err)
			}
			return
		}
		if err != nil {
			run.failed++
			if !errors.Is(err, errDropped) {
				run.fail("%v", err)
			}
			got[id] = 2 // already failed; not counted again below
		}
		run.lat = append(run.lat, float64(done.Sub(start[id]).Nanoseconds())/1e6)
		if !r.Dropped {
			run.queueWaitMS = append(run.queueWaitMS, float64(r.Start.Sub(r.FirstPkt).Nanoseconds())/1e6)
		}
		if traced {
			mainSpans.add("frame", start[id], done, -1, id)
		}
	}

	// Warm-up: one frame at a time, paced like the workload.
	for id := uint32(0); id < timedFrom; id++ {
		if w.rate > 0 && id > 0 {
			time.Sleep(time.Duration(float64(time.Second) / w.rate))
		}
		start[id] = time.Now()
		if err := send(id, nil); err != nil {
			return nil, err
		}
		r, err := next()
		if err != nil {
			return nil, err
		}
		accept(&r, time.Now())
	}
	if hasDL {
		waitCount(&dlCount, int64(timedFrom)*int64(cfg.NumDownlink()*cfg.Antennas))
	}

	// Every window starts right after a full GC, so collections (and the
	// runtime's re-allocation of the caches each one clears) fall at the
	// same point of every run.
	runtime.GC()
	before := eng.TaskStats()
	met := eng.Metrics()
	hits0, miss0 := met.ZFCacheHits.Load(), met.ZFCacheMisses.Load()
	dec0 := met.DecodeSnap()
	dl0 := dlCount.Load()
	cpu0 := cpuTime()
	alloc0 := heapAllocs()
	wStart := time.Now()
	wEnd := wStart.Add(time.Duration(seconds * float64(time.Second)))
	id := timedFrom
	if w.inflight > 0 {
		outstanding := 0
		for ; outstanding < w.inflight; outstanding++ {
			start[id] = time.Now()
			if err := send(id, sendSpans); err != nil {
				return nil, err
			}
			id++
		}
		for outstanding > 0 {
			r, err := next()
			if err != nil {
				return nil, err
			}
			now := time.Now()
			accept(&r, now)
			outstanding--
			if now.Before(wEnd) && int(id) < maxFrames {
				start[id] = time.Now()
				if err := send(id, sendSpans); err != nil {
					return nil, err
				}
				id++
				outstanding++
			}
		}
	} else {
		// Open loop: frame f is due at wStart + f·period whatever the
		// engine is doing; its latency runs from its due time.
		period := time.Duration(float64(time.Second) / w.rate)
		n := 0
		for d := time.Duration(0); d < wEnd.Sub(wStart) && warmFrames+n < maxFrames; d += period {
			start[int(timedFrom)+n] = wStart.Add(d)
			n++
		}
		sendErr := make(chan error, 1)
		go func() {
			for f := 0; f < n; f++ {
				fid := timedFrom + uint32(f)
				due := start[fid]
				time.Sleep(time.Until(due))
				run.late = append(run.late, float64(time.Since(due).Nanoseconds())/1e6)
				if err := send(fid, sendSpans); err != nil {
					sendErr <- err
					return
				}
			}
			sendErr <- nil
		}()
		for i := 0; i < n; i++ {
			r, err := next()
			if err != nil {
				<-sendErr
				return nil, err
			}
			accept(&r, time.Now())
		}
		if err := <-sendErr; err != nil {
			return nil, err
		}
		id = timedFrom + uint32(n)
	}
	run.window = time.Since(wStart)
	run.cpu = cpuTime() - cpu0
	run.allocs = heapAllocs() - alloc0
	run.attempted = int(id - timedFrom)
	after := eng.TaskStats()
	for t := queue.TaskType(0); t < queue.NumTaskTypes; t++ {
		run.tasks[t] = taskDelta{
			count: int64(after[t].Count - before[t].Count),
			ms:    after[t].TotalMS - before[t].TotalMS,
		}
	}
	run.zfHits = met.ZFCacheHits.Load() - hits0
	run.zfMisses = met.ZFCacheMisses.Load() - miss0
	dec1 := met.DecodeSnap()
	run.decBlocks, run.decIters, run.decEarly = dec1.Blocks-dec0.Blocks, dec1.Iters-dec0.Iters, dec1.EarlyExits-dec0.EarlyExits
	if h := liveHeap(); h > base {
		run.heapMiB = float64(h-base) / (1 << 20)
	}

	if hasDL {
		waitCount(&dlCount, int64(id)*int64(cfg.NumDownlink()*cfg.Antennas))
		run.dlPkts = dlCount.Load() - dl0
	}
	run.ulPkts = int64(run.attempted * len(rec.pkts[0]))
	if d := rru.Stats().TxDrops; d > 0 {
		run.fail("fronthaul ring dropped %d uplink packets", d)
	}
	eng.Stop()
	stopped = true
	dlDone.Wait()

	for f := timedFrom; f < id; f++ {
		if got[f] == 0 {
			run.failed++
			run.fail("frame %d: no result", f)
			continue
		}
		if hasDL && got[f] == 1 {
			if err := dl.frameErr(f); err != nil {
				run.failed++
				run.fail("%v", err)
			}
		}
	}
	if hasDL {
		for _, p := range dl.problems {
			run.fail("%s", p)
		}
		for _, sid := range sampleIDs {
			if sid >= id {
				continue
			}
			if err := decodeDownlink(&cfg, rec.h, dl.samples[sid], eng.DownlinkTruth); err != nil {
				run.fail("frame %d: %v", sid, err)
			}
		}
	}
	run.dlTruth = eng.DownlinkTruth
	if traced {
		run.events = eng.TraceEvents()
		run.eventsPerFrm = eventsPerFrame(run.events)
		mainSpans.spans = append(mainSpans.spans, sendSpans.spans...)
		run.spans = mainSpans
	}
	return run, nil
}

// waitCount waits (bounded) until c reaches want: the downlink packets
// of a frame may still be in the ring when its FrameResult arrives.
func waitCount(c *atomic.Int64, want int64) {
	deadline := time.Now().Add(5 * time.Second)
	for c.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// eventsPerFrame is the median count of engine trace events per frame
// over the frames the trace rings still hold whole (the oldest retained
// frame may be cut off by ring wrap-around, so it is skipped).
func eventsPerFrame(evs []obs.Event) float64 {
	counts := map[uint32]int{}
	lowest := ^uint32(0)
	for _, e := range evs {
		counts[e.Frame]++
		if e.Frame < lowest {
			lowest = e.Frame
		}
	}
	var vals []float64
	for f, n := range counts {
		if f != lowest {
			vals = append(vals, float64(n))
		}
	}
	if len(vals) == 0 {
		return 0
	}
	return median(vals)
}
