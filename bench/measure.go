package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"pane/internal/engine"
)

// phaseCount is requests sent / succeeded / failed in one phase of a run.
type phaseCount struct {
	Sent, OK, Failed int
}

func (p *phaseCount) count(ok bool) {
	p.Sent++
	if ok {
		p.OK++
	} else {
		p.Failed++
	}
}

// measurement is everything one untraced window yields.
type measurement struct {
	Sum           windowSummary
	Attempted     int     // requests of the window, the verification pass and the serial writes
	Failed        int     // non-200, transport errors, oracle mismatches
	Queries       int     // queries answered (32 per batch request)
	TopK          int     // top-k responses, for FallbackShare
	Scans         int     // of which answered by the brute-force fallback
	Oracle        verdict // 1 response in oracleEvery of the window
	Verified      verdict // every answer of the verification pass
	VerifiedQ     int     // queries the verification pass had answered
	VerifiedBytes int     // and their response body bytes
	Warmup        phaseCount
	Window        phaseCount
	GCCycles      float64
	GCPauseMS     float64
	HeapMB        float64
	MinorFaults   float64 // page faults taken during warm-up + window
	UserCPUS      float64 // process CPU seconds over warm-up + window
	SysCPUS       float64
	StealShare    float64 // share of machine CPU time the host took
	FirstError    string
	Extra         map[string]metric // the write-side readings
	GenLateP50MS  float64           // open loop only: how late requests left an idle connection
	GenLateP99MS  float64
	Unconverged   int           // mixed_rw: acked versions the follower never applied
	WritesInPhase [2]phaseCount // before the window (mixed_rw's pre-warm and warm-up); in it, or the probe after it
}

func (m *measurement) fallbackShare() float64 {
	if m.TopK == 0 {
		return 0
	}
	return float64(m.Scans) / float64(m.TopK)
}

func (m *measurement) errorRate() float64 {
	if m.Attempted == 0 {
		return 1
	}
	return float64(m.Failed) / float64(m.Attempted)
}

func (m *measurement) noteError(s string) {
	if m.FirstError == "" && s != "" {
		m.FirstError = s
	}
}

// measure runs workload against f: sp.Warmup discarded, then a window of
// the given length, with 1 in oracleEvery responses checked against brute
// force.
func measure(f *fixture, workload string, window time.Duration) *measurement {
	m := &measurement{Extra: map[string]metric{}}
	if workload == wlMixedRW {
		prewarm(f, m)
	}
	var ms0, ms1 runtime.MemStats
	var ru0, ru1 syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0) // cannot fail for RUSAGE_SELF
	runtime.ReadMemStats(&ms0)
	steal0, total0 := cpuTicks()
	if workload == wlMixedRW {
		measureOpen(f, window, m)
	} else {
		measureClosed(f, workload, window, m)
	}
	steal1, total1 := cpuTicks()
	runtime.ReadMemStats(&ms1)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	m.StealShare = stealShare(steal0, total0, steal1, total1)
	m.MinorFaults = float64(ru1.Minflt - ru0.Minflt)
	m.UserCPUS = tv(ru1.Utime) - tv(ru0.Utime)
	m.SysCPUS = tv(ru1.Stime) - tv(ru0.Stime)
	m.GCCycles = float64(ms1.NumGC - ms0.NumGC)
	m.GCPauseMS = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	m.HeapMB = float64(ms1.HeapInuse) / (1 << 20)
	return m
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

func measureClosed(f *fixture, workload string, window time.Duration, m *measurement) {
	conns := 1
	if workload == wlReadIVF {
		conns = 2
	}
	warm := f.spec.Warmup
	start := time.Now()
	sampler := startStealSampler()
	perConn := closedLoop(f.leader.url, workload, f.seed, f.g.N, conns, start, warm, warm+window)
	slices := sampler.slices(start.Add(warm), window)

	model := f.eng.Model() // read workloads never move the version
	var samples []timed
	for _, rs := range perConn {
		for i := range rs {
			r := &rs[i]
			if r.sent < warm {
				m.Warmup.count(r.ok)
				continue
			}
			if r.done > warm+window {
				continue // straddles the end of the window
			}
			m.Window.count(r.ok)
			m.Attempted++
			if !r.ok {
				m.Failed++
				m.noteError(r.err)
				continue
			}
			m.Queries += r.op.queries()
			if r.op.kind == opTopLinks || r.op.kind == opTopAttrs {
				m.TopK++
				if r.scan {
					m.Scans++
				}
			}
			samples = append(samples, timed{(r.sent - warm).Seconds(), (r.done - warm).Seconds(), r.op.queries()})
			if r.keep != nil {
				m.Oracle.check(r.op, r.keep, model)
			}
		}
	}
	m.Failed += m.Oracle.mismatches
	m.noteError(m.Oracle.firstError)
	m.Sum = summarize(samples, slices, window.Seconds())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// oracleJob is one sampled mixed_rw read, with the answering engine's
// model as it stood when the response arrived.
type oracleJob struct {
	op    op
	body  []byte
	model *engine.Model
}

func measureOpen(f *fixture, window time.Duration, m *measurement) {
	warm := f.spec.Warmup
	total := warm + window
	leaderEvs, followerEvs, writeEvs := mixedPlan(f.seed, f.g.N, total, f.spec.ReadRate, f.spec.WriteRate)

	// The oracle runs beside the load on its own goroutine: the models it
	// needs exist only while the run is live (one per acked version), and
	// it costs about one brute-force scan per 50 reads.
	jobs := make(chan oracleJob, (len(leaderEvs)+len(followerEvs))/oracleEvery+2) // one slot per send
	var oracleDone sync.WaitGroup
	oracleDone.Add(1)
	go func() {
		defer oracleDone.Done()
		for j := range jobs {
			ver, err := responseVersion(j.body)
			switch {
			case err != nil:
				m.Oracle.fail("read body: %v", err)
			case ver != j.model.Version:
				m.Oracle.skipped++
			default:
				m.Oracle.check(j.op, j.body, j.model)
			}
		}
	}()
	sampler := func(eng *engine.Engine) func(*result, []byte) {
		seen := 0
		return func(r *result, body []byte) {
			seen++
			if r.ok && r.due >= warm && seen%oracleEvery == 0 {
				jobs <- oracleJob{op: r.op, body: append([]byte(nil), body...), model: eng.Model()}
			}
		}
	}

	// Versions are read from write acks as they arrive, so that the lag to
	// the follower is measured from the ack and not from a later parse.
	type ack struct {
		version uint64
		at      time.Time
	}
	acks := make([]ack, 0, len(writeEvs))
	onAck := func(r *result, body []byte) {
		if !r.ok {
			return
		}
		now := time.Now()
		if v, err := responseVersion(body); err == nil {
			acks = append(acks, ack{v, now})
		}
	}

	var reads [2][]result
	var writes []result
	var wg sync.WaitGroup
	start := time.Now()
	stealSamples := startStealSampler()
	wg.Add(3)
	go func() {
		defer wg.Done()
		reads[0] = openLoop(f.leader.url, 0, leaderEvs, start, sampler(f.eng))
	}()
	go func() {
		defer wg.Done()
		reads[1] = openLoop(f.follower.url, 1, followerEvs, start, sampler(f.rep.Engine()))
	}()
	go func() {
		defer wg.Done()
		writes = openLoop(f.leader.url, 0, writeEvs, start, onAck)
	}()
	wg.Wait()
	slices := stealSamples.slices(start.Add(warm), window)
	close(jobs)
	oracleDone.Wait()

	var samples []timed
	var late []float64
	for _, rs := range reads {
		for i := range rs {
			r := &rs[i]
			if r.due < warm {
				m.Warmup.count(r.ok)
				continue
			}
			m.Window.count(r.ok)
			m.Attempted++
			if r.free {
				late = append(late, ms(r.sent-r.due))
			}
			if !r.ok {
				m.Failed++
				m.noteError(r.err)
				continue
			}
			m.Queries++
			m.TopK++
			if r.scan {
				m.Scans++
			}
			samples = append(samples, timed{(r.issued() - warm).Seconds(), (r.done - warm).Seconds(), 1})
		}
	}
	m.Sum = summarize(samples, slices, window.Seconds())
	// The arrival schedule, not the server or the host, sets an open
	// loop's rate: it is the whole window's and moves only when requests
	// fail.
	m.Sum.PerSec = m.Sum.WindowPerSec

	var acked []timed
	for i := range writes {
		r := &writes[i]
		phase := &m.WritesInPhase[1]
		if r.due < warm {
			phase = &m.WritesInPhase[0]
		}
		phase.count(r.ok)
		if r.free {
			late = append(late, ms(r.sent-r.due))
		}
		if r.due < warm {
			continue
		}
		m.Attempted++
		if !r.ok {
			m.Failed++
			m.noteError(r.err)
			continue
		}
		acked = append(acked, timed{(r.issued() - warm).Seconds(), (r.done - warm).Seconds(), 1})
	}
	wsum := summarize(acked, slices, window.Seconds())

	// Let the follower finish what was acked, then read each version's lag.
	f.converge()
	var lagMS []float64
	for _, a := range acks {
		if a.at.Sub(start) < warm {
			continue
		}
		if at, ok := f.replayed.appliedAt(a.version); ok {
			lagMS = append(lagMS, ms(at.Sub(a.at)))
		} else {
			m.Unconverged++
		}
	}
	m.Failed += m.Unconverged
	if m.Unconverged > 0 {
		m.noteError(fmt.Sprintf("follower never applied %d acked versions", m.Unconverged))
	}
	// Converged leader and follower must answer alike.
	probe := newOpGen(wlReadFlat, f.seed, streamLayers, f.g.N)
	for i := 0; i < 20; i++ {
		u := probe.next().node
		a, errA := f.eng.TopLinks(u, topK, engine.ModeExact, 0)
		b, errB := f.rep.Engine().TopLinks(u, topK, engine.ModeExact, 0)
		if errA != nil || errB != nil || a.Version != b.Version || !sameIDs(a.Results, b.Results) {
			m.Failed++
			m.noteError(fmt.Sprintf("leader and follower disagree on top-links of node %d", u))
		}
	}
	m.Failed += m.Oracle.mismatches
	m.noteError(m.Oracle.firstError)

	sort.Float64s(lagMS)
	sort.Float64s(late)
	m.Extra["write_ack_p50_ms"] = metric{wsum.P50, "ms"}
	m.Extra["write_ack_window_p50_ms"] = metric{wsum.WindowP50, "ms"}
	m.Extra["write_ack_tail_ms"] = metric{wsum.Tail, "ms"}
	m.Extra["write_tail_percentile"] = metric{wsum.TailP, "ratio"}
	m.Extra["replica_lag_p50_ms"] = metric{percentile(lagMS, 0.5), "ms"}
	m.Extra["replica_lag_tail_ms"] = metric{percentile(lagMS, tailPercentile(len(lagMS))), "ms"}
	m.Extra["write_samples"] = metric{float64(wsum.Samples), "count"}
	m.GenLateP50MS, m.GenLateP99MS = percentile(late, 0.5), percentile(late, 0.99)
}

// serialWrites sends count edge updates from gen to the leader one at a
// time. It returns each acknowledged update as a sample and, beside it, as
// a slice of its own: the share of CPU time the host took while it was in
// flight. With settle set it lets each index refresh finish before the
// next update. A failed update is counted in m and left out.
func serialWrites(f *fixture, m *measurement, gen *opGen, count int, phase *phaseCount, settle bool) ([]timed, []slice) {
	cn := dial(f.leader.url)
	defer cn.close()
	var acks []timed
	var host []slice
	begin := time.Now()
	for i := 0; i < count; i++ {
		before := f.eng.Version()
		r := result{op: gen.next()}
		steal0, total0 := cpuTicks()
		start := time.Since(begin)
		status, body, err := cn.do(r.op)
		done := time.Since(begin)
		steal1, total1 := cpuTicks()
		r.finish(status, body, err, false)
		if r.ok && f.eng.Version() != before+1 {
			r.ok, r.err = false, fmt.Sprintf("update %d acked but the version went %d -> %d", i, before, f.eng.Version())
		}
		m.Attempted++
		phase.count(r.ok)
		if !r.ok {
			m.Failed++
			m.noteError(r.err)
			continue
		}
		acks = append(acks, timed{start.Seconds(), done.Seconds(), 1})
		host = append(host, slice{start.Seconds(), done.Seconds(), stealShare(steal0, total0, steal1, total1)})
		if settle {
			f.eng.WaitForIndex()
		}
	}
	return acks, host
}

// probeWrites is how many edge updates a read workload sends after its
// window: the cold one and as many as mixed_rw's window holds.
const probeWrites = 41

// writeProbe gives a read workload its write-side figures: after the
// window it sends the write stream's first probeWrites updates to the
// leader one at a time. The first update after a start rebuilds the whole
// affinity state and is reported alone. The median is read off the updates
// the host left alone, like the window's: each update is its own slice.
// (The driver wants every end-to-end metric from every workload; here the
// server has no WAL and no follower and is otherwise idle, so the figure
// is the update path's own cost.)
func writeProbe(f *fixture, m *measurement) {
	gen := newOpGen(wlMixedRW, f.seed, streamWrites, f.g.N)
	acks, host := serialWrites(f, m, gen, probeWrites, &m.WritesInPhase[1], true)
	if len(acks) < 2 {
		return
	}
	m.Extra["first_write_ack_ms"] = metric{acks[0].ms(), "ms"}
	sum := summarize(acks[1:], host[1:], 0)
	m.Extra["write_ack_p50_ms"] = metric{sum.P50, "ms"}
	m.Extra["write_ack_window_p50_ms"] = metric{sum.WindowP50, "ms"}
	m.Extra["write_samples"] = metric{float64(sum.Samples), "count"}
}

// prewarmWrites is how many updates mixed_rw applies back to back before
// its schedule starts: ten seconds' worth of the schedule's writes.
const prewarmWrites = 40

// prewarm brings a replicated fixture to the memory footprint it serves
// from. Leader and follower each keep several model versions alive while
// updates flow, so the heap grows from the 0.5 GB set-up leaves to about
// 1 GB over the first 40 updates and then stays there. On the reference
// box a first-touch page fault costs 25-190 us depending on the host's
// mood: taken at the schedule's pace that growth put 3 to 34 s of kernel
// time into the first 13 s of a run, and in 6 runs of 10 the open loop
// never recovered from the backlog (read p50 0.45 ms to 16.7 s). Applied
// back to back, with nothing queued behind them, the same updates cost the
// same faults and leave the schedule a process in its steady state — the
// state a server is in except for its first seconds.
func prewarm(f *fixture, m *measurement) {
	gen := newOpGen(wlMixedRW, f.seed, streamPrewarm, f.g.N)
	acks, _ := serialWrites(f, m, gen, prewarmWrites, &m.WritesInPhase[0], false)
	if len(acks) > 0 {
		// The first update after a start rebuilds the whole affinity state.
		m.Extra["first_write_ack_ms"] = metric{acks[0].ms(), "ms"}
	}
	f.converge()
}

// verifyQueries is how many queries the verification pass sends.
const verifyQueries = 1024

// verify sends, after the window, the first verifyQueries queries of the
// workload's own seeded sequence one at a time (mixed_rw: alternately to
// leader and follower, once they have converged) and checks every answer
// against brute force. recall_at_10 and bytes_per_query are read here and
// not off the window: which requests a window completes depends on how
// fast the run was; these do not, so both figures repeat exactly for a
// seed, and 1 response in 50 of a window is too few approximate answers to
// tell a recall of 0.999 from one of 0.997.
func verify(f *fixture, workload string, m *measurement) {
	type target struct {
		cn  *conn
		gen *opGen
		eng *engine.Engine
	}
	targets := []target{{dial(f.leader.url), newOpGen(workload, f.seed, streamLeaderReads, f.g.N), f.eng}}
	if workload == wlMixedRW {
		targets = append(targets, target{dial(f.follower.url), newOpGen(workload, f.seed, streamFollowerReads, f.g.N), f.rep.Engine()})
	}
	for i, sent := 0, 0; sent < verifyQueries; i++ {
		t := targets[i%len(targets)]
		r := result{op: t.gen.next()}
		status, body, err := t.cn.do(r.op)
		r.finish(status, body, err, false)
		sent += r.op.queries()
		m.Attempted++
		if !r.ok {
			m.Failed++
			m.noteError(r.err)
			continue
		}
		m.VerifiedQ += r.op.queries()
		m.VerifiedBytes += r.bytes
		m.Verified.check(r.op, body, t.eng.Model())
	}
	for _, t := range targets {
		t.cn.close()
	}
	m.Failed += m.Verified.mismatches
	m.noteError(m.Verified.firstError)
}
