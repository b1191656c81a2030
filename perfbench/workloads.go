package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps/cholesky"
	"repro/jade"
)

// opts configures one pass of a workload.
type opts struct {
	seed    int64
	seconds float64 // length of the measured phase
	warm    int     // warm-up rounds: operations (factor) or blocks of programs
	setups  int     // set-ups timed for setup_s (the last one is used)
	maxOps  int     // >0: a probe of this many measured rounds (per client on sessions-tcp)
	traced  bool    // deep rings, spans and the per-layer ledger
	sp      *spans
}

// outcome is what one pass of a workload measured.
type outcome struct {
	workload  string
	attempted int
	failed    int
	errs      map[string]int // failures grouped by errClass
	wrong     []string       // outputs that failed a check

	setupS  float64
	wallS   float64   // measured phase
	lat     []float64 // ms of each successful measured operation, in order
	kindLat [numKinds][]float64
	tasks   int // Report().Tasks.Run summed over successful measured ops
	// kindTasks is tasks split by program kind.
	kindTasks [numKinds]int
	succ      int

	host     procDelta // the measured phase, start to end, for host steal
	runtimes int       // runtimes or services started
	leak     procDelta // goroutines and descriptors left behind
	proc     procDelta // process counters over the measured operations
	layer    map[string]float64
	sums     engineSums // the traced pass's per-operation report sums
}

func newOutcome(name string) *outcome {
	return &outcome{workload: name, errs: map[string]int{}, layer: map[string]float64{}}
}

func (o *outcome) fail(err error) {
	o.failed++
	o.errs[errClass(err)]++
}

func (o *outcome) wrongf(format string, args ...any) {
	if len(o.wrong) < 10 {
		o.wrong = append(o.wrong, fmt.Sprintf(format, args...))
	}
}

// engineSums accumulates per-operation reports for the per-layer ledger.
type engineSums struct {
	tasks, profTasks              float64
	locks, wakes, waits           float64
	busy, workerBusy, opWall      float64 // seconds
	queue, fetch, exec, commit    float64 // seconds
	tinf, makespan                float64
	frames, bytes, coalesced      float64
	full, fullBytes, delta, dByte float64
	syscr, syscw                  float64
}

func (s *engineSums) add(rep jade.Report, wall time.Duration) {
	s.tasks += float64(rep.Tasks.Run)
	s.locks += float64(rep.Engine.LockAcquisitions)
	s.wakes += float64(rep.Engine.BlockedWakes)
	s.waits += float64(rep.Engine.Waits)
	for m, b := range rep.Tasks.Busy {
		s.busy += b.Seconds()
		if m > 0 {
			s.workerBusy += b.Seconds()
		}
	}
	s.opWall += wall.Seconds()
	if p := rep.Profile; p != nil {
		s.profTasks += float64(p.Tasks)
		s.queue += p.Phases.Queue.Seconds()
		s.fetch += p.Phases.Fetch.Seconds()
		s.exec += p.Phases.Exec.Seconds()
		s.commit += p.Phases.Commit.Seconds()
		s.tinf += p.TInf.Seconds()
		s.makespan += p.Makespan.Seconds()
	}
	s.frames += float64(rep.Net.Messages)
	s.bytes += float64(rep.Net.Bytes)
	s.coalesced += float64(rep.Delta.CoalescedDispatches)
	s.full += float64(rep.Delta.FullTransfers)
	s.fullBytes += float64(rep.Delta.FullBytes)
	s.delta += float64(rep.Delta.DeltaTransfers)
	s.dByte += float64(rep.Delta.DeltaBytes)
}

// coreLedger writes the dependency engine's per-task counters of a pass.
func (s *engineSums) coreLedger(o *outcome) {
	o.layer["core.lock_acqs_per_task"] = s.locks / s.tasks
	o.layer["core.wakes_per_task"] = s.wakes / s.tasks
	o.layer["core.waits_per_task"] = s.waits / s.tasks
}

// ledger writes the per-layer metrics of a single-client pass: the
// engine's, and the smp executor's or the live executor's and transport's.
func (s *engineSums) ledger(o *outcome, procs int, live bool) {
	if s.tasks == 0 {
		return
	}
	s.coreLedger(o)
	if !live {
		o.layer["smp.busy_share"] = s.busy / (float64(procs) * s.opWall)
		return
	}
	o.layer["live.worker_busy_share"] = s.workerBusy / (float64(procs) * s.opWall)
	o.layer["live.frames_per_task"] = s.frames / s.tasks
	o.layer["live.bytes_per_task"] = s.bytes / s.tasks
	o.layer["live.coalesced_per_task"] = s.coalesced / s.tasks
	if n := s.full + s.delta; n > 0 {
		o.layer["live.delta_share"] = s.delta / n
	}
	if s.profTasks > 0 {
		o.layer["live.queue_us_per_task"] = 1e6 * s.queue / s.profTasks
		o.layer["live.fetch_us_per_task"] = 1e6 * s.fetch / s.profTasks
		o.layer["live.exec_us_per_task"] = 1e6 * s.exec / s.profTasks
		o.layer["live.commit_us_per_task"] = 1e6 * s.commit / s.profTasks
		o.layer["live.critical_path_share"] = s.tinf / s.makespan
	}
	if s.syscw > 0 {
		o.layer["tcp.frames_per_write"] = s.frames / s.syscw
	}
	o.layer["tcp.syscalls_per_task"] = (s.syscr + s.syscw) / s.tasks
}

// procLedger writes the allocator, GC and process metrics of a pass.
func procLedger(o *outcome, d procDelta, ops int) {
	if o.tasks == 0 || ops == 0 {
		return
	}
	tasks := float64(o.tasks)
	o.layer["gc.allocs_per_task"] = d.allocObjs / tasks
	o.layer["gc.alloc_bytes_per_task"] = d.allocBytes / tasks
	o.layer["gc.cycles_per_op"] = d.gcCycles / float64(ops)
	if d.totalCPU > 0 {
		o.layer["gc.cpu_share"] = d.gcCPU / d.totalCPU
	}
	cpu := d.user + d.sys
	o.layer["proc.cpu_ms_per_op"] = float64(cpu.Nanoseconds()) / 1e6 / float64(ops)
	if cpu > 0 {
		o.layer["proc.sys_share"] = float64(d.sys) / float64(cpu)
	}
}

func (d *procDelta) addAll(e procDelta) {
	d.allocObjs += e.allocObjs
	d.allocBytes += e.allocBytes
	d.gcCycles += e.gcCycles
	d.gcCPU += e.gcCPU
	d.totalCPU += e.totalCPU
	d.user += e.user
	d.sys += e.sys
	d.syscr += e.syscr
	d.syscw += e.syscw
}

// settle lets exiting goroutines finish before leaks are counted.
func settle() {
	for i := 0; i < 5; i++ {
		runtime.GC()
		time.Sleep(40 * time.Millisecond)
	}
}

// timeSetups runs a workload's set-up n times, each after a GC, and returns
// the median time. Every set-up but the last is disposed of before the
// next; the last one is what the operations use.
func timeSetups(n int, setup func() error, dispose func()) (float64, error) {
	var ts []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			dispose()
		}
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// seqOp runs operation i of a single-client workload. It returns the
// operation's wall time, the runtime it ran on, the program kind (-1 for a
// factorization) and a check of its output that may use the runtime's
// Report.
type seqOp func(i int) (wall time.Duration, r *jade.Runtime, kind int, check func(jade.Report) error, err error)

// runSequential is the measured loop of a single-client workload:
// operations back to back, in whole rounds of round operations, op.warm
// rounds of them a warm-up. Each operation starts after a runtime.GC(), so
// the garbage of the previous operation's Report and checks is not
// collected inside it. The measured phase is the sum of the operations'
// wall times, failed ones included.
func runSequential(o *outcome, op opts, round int, live bool, do seqOp) {
	var sums engineSums
	var start time.Time
	var hostStart procSnap
	warm := op.warm * round
	for i := 0; ; i++ {
		measured := i >= warm
		if i == warm {
			start, hostStart = time.Now(), takeSnap()
		}
		if measured && i%round == 0 && (op.maxOps > 0 && i-warm >= op.maxOps*round ||
			op.maxOps == 0 && time.Since(start).Seconds() >= op.seconds) {
			break
		}
		o.attempted++
		runtime.GC()
		s0 := takeSnap()
		wall, r, kind, check, err := do(i)
		if measured {
			d := s0.to(takeSnap())
			o.proc.addAll(d)
			sums.syscr += d.syscr
			sums.syscw += d.syscw
			o.wallS += wall.Seconds()
		}
		if err != nil {
			o.fail(err)
			continue
		}
		var rep jade.Report
		op.sp.span(0, i+1, "runtime", "Report", func() { rep = r.Report() })
		if err := check(rep); err != nil {
			o.wrongf("%v", err)
		}
		if !measured {
			continue
		}
		ms := float64(wall.Nanoseconds()) / 1e6
		o.succ++
		o.tasks += rep.Tasks.Run
		o.lat = append(o.lat, ms)
		if kind >= 0 {
			o.kindLat[kind] = append(o.kindLat[kind], ms)
			o.kindTasks[kind] += rep.Tasks.Run
		}
		if op.traced {
			sums.add(rep, wall)
		}
	}
	o.host = hostStart.to(takeSnap())
	if op.traced {
		o.sums = sums
		sums.ledger(o, runtime.NumCPU(), live)
		procLedger(o, o.proc, o.succ)
	}
}

// factorRingSize deepens the traced pass's event ring so Report().Profile
// covers every task of a factorization (about 55k events on smp).
const factorRingSize = 1 << 17

// newFactorRuntime starts the runtime one factorization runs on.
func newFactorRuntime(transport string, ring int) (*jade.Runtime, error) {
	if transport == "smp" {
		return jade.NewSMP(jade.SMPConfig{Procs: runtime.NumCPU(), TraceRingSize: ring}), nil
	}
	return jade.NewLive(jade.LiveConfig{Workers: runtime.NumCPU(), Transport: transport, TraceRingSize: ring})
}

// runFactor is the factor-smp and factor-tcp workloads: the seeded matrix
// factorized back to back, each operation on a fresh runtime, checked bit
// for bit against cholesky.FactorSerial and by task count.
func runFactor(name, transport string, op opts) (*outcome, error) {
	o := newOutcome(name)
	before := takeSnap()
	ring := 0
	if op.traced {
		ring = factorRingSize
	}

	// Set-up: generate the input and bring up the first runtime.
	var a, sym *cholesky.Matrix
	var first *jade.Runtime
	var err error
	o.setupS, err = timeSetups(op.setups, func() error {
		a, sym = newFactorMatrix(op.seed)
		op.sp.span(0, 0, "setup", "start runtime", func() { first, err = newFactorRuntime(transport, ring) })
		o.runtimes++
		return err
	}, func() { dispose(first) })
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	in, err := newFactorOracle(a, sym)
	if err != nil {
		return nil, err
	}
	o.layer["kernel.serial_ms"] = in.serialMS

	residualDone := false
	runSequential(o, op, 1, transport != "smp", func(i int) (time.Duration, *jade.Runtime, int, func(jade.Report) error, error) {
		t0 := time.Now()
		r := first
		first = nil
		var err error
		if r == nil {
			op.sp.span(0, i+1, "runtime", "start runtime", func() { r, err = newFactorRuntime(transport, ring) })
			if err != nil {
				return time.Since(t0), nil, -1, nil, err
			}
			o.runtimes++
		}
		var jm *cholesky.JadeMatrix
		op.sp.span(0, i+1, "runtime", "Run", func() {
			err = r.Run(func(t *jade.Task) {
				jm = cholesky.ToJade(t, sym, 0)
				jm.Factor(t)
			})
		})
		if err != nil {
			return time.Since(t0), nil, -1, nil, err
		}
		var got *cholesky.Matrix
		op.sp.span(0, i+1, "runtime", "read back", func() { got = cholesky.FromJade(r, jm) })
		return time.Since(t0), r, -1, func(rep jade.Report) error {
			if rep.Tasks.Run != in.tasks || rep.Tasks.Created != uint64(in.tasks-1) {
				return fmt.Errorf("%d tasks run, %d created; the symbolic structure gives %d and %d",
					rep.Tasks.Run, rep.Tasks.Created, in.tasks, in.tasks-1)
			}
			if err := checkFactor(got, in.oracle); err != nil {
				return err
			}
			if !residualDone {
				residualDone = true
				return checkResidual(in.a, got)
			}
			return nil
		}, nil
	})
	if op.traced {
		if n, err := factorEvents(transport, sym); err == nil {
			o.layer["trace.events_per_task"] = n
		} else {
			o.fail(err)
		}
		o.runtimes++
	}
	settle()
	o.leak = before.to(takeSnap())
	return o, nil
}

// factorEvents counts the events one factorization puts into the runtime's
// event ring, per task: with a ring of one event, everything but the last
// event is counted as dropped.
func factorEvents(transport string, sym *cholesky.Matrix) (float64, error) {
	r, err := newFactorRuntime(transport, 1)
	if err != nil {
		return 0, err
	}
	if err := r.Run(func(t *jade.Task) { cholesky.ToJade(t, sym, 0).Factor(t) }); err != nil {
		return 0, err
	}
	rep := r.Report()
	return float64(rep.DroppedEvents+1) / float64(rep.Tasks.Run), nil
}

// dispose ends a runtime that set-up started but no operation uses, by
// running an empty program on it (a live runtime's workers exit after Run).
func dispose(r *jade.Runtime) { _ = r.Run(func(*jade.Task) {}) }

// runProgramsSMP is the programs-smp workload: one client runs the small
// programs in the seeded block order, back to back, each on a fresh SMP
// runtime with one processor per CPU.
func runProgramsSMP(op opts) (*outcome, error) {
	o := newOutcome("programs-smp")
	before := takeSnap()
	procs := runtime.NumCPU()

	var ps *programSet
	var first *jade.Runtime
	var err error
	o.setupS, err = timeSetups(op.setups, func() error {
		ps = newPrograms(op.seed)
		op.sp.span(0, 0, "setup", "NewSMP", func() { first = jade.NewSMP(jade.SMPConfig{Procs: procs}) })
		o.runtimes++
		return nil
	}, func() {})
	if err != nil {
		return nil, err
	}
	if err := ps.addOracles(); err != nil {
		return nil, err
	}

	runSequential(o, op, numKinds, false, func(i int) (time.Duration, *jade.Runtime, int, func(jade.Report) error, error) {
		p := ps.blocks[(i/numKinds)%numBlocks][i%numKinds]
		t0 := time.Now()
		r := first
		first = nil
		if r == nil {
			op.sp.span(0, i+1, "runtime", "NewSMP", func() { r = jade.NewSMP(jade.SMPConfig{Procs: procs}) })
			o.runtimes++
		}
		var check func() error
		var err error
		op.sp.span(0, i+1, "runtime", "Run "+kindNames[p.kind], func() { check, err = runProgram(r, p) })
		if err != nil {
			return time.Since(t0), nil, p.kind, nil, err
		}
		return time.Since(t0), r, p.kind, func(rep jade.Report) error {
			if err := check(); err != nil {
				return fmt.Errorf("%s: %w", kindNames[p.kind], err)
			}
			if p.kind == kindCholesky && rep.Tasks.Run != p.cholTasks {
				return fmt.Errorf("cholesky: %d tasks run, the symbolic structure gives %d", rep.Tasks.Run, p.cholTasks)
			}
			return nil
		}, nil
	})
	if op.traced {
		n, err := programEvents(ps.blocks[0])
		if err != nil {
			o.fail(err)
		}
		o.layer["trace.events_per_task"] = n
		o.runtimes += numKinds
	}
	settle()
	o.leak = before.to(takeSnap())
	return o, nil
}

// tenantName is the one tenant the session workload opens sessions under.
const tenantName = "bench"

// runSessions is the sessions-tcp workload: one client per CPU, each
// running whole blocks of small programs (one of each kind, in the seeded
// order) back to back, each program in a fresh session on one shared TCP
// service. The measured phase is the wall time from the end of every
// client's warm-up to the end of the last client's last block.
func runSessions(op opts) (*outcome, error) {
	o := newOutcome("sessions-tcp")
	before := takeSnap()
	clients := runtime.NumCPU()

	var ps *programSet
	var svc *jade.Service
	var err error
	o.setupS, err = timeSetups(op.setups, func() error {
		ps = newPrograms(op.seed)
		op.sp.span(0, 0, "setup", "NewService", func() {
			svc, err = jade.NewService(jade.ServiceConfig{
				Workers: clients, Transport: "tcp", MaxSessions: clients,
			})
		})
		o.runtimes++
		return err
	}, func() { svc.Close() })
	if err != nil {
		return nil, fmt.Errorf("sessions-tcp set-up: %w", err)
	}
	if err := ps.addOracles(); err != nil {
		return nil, err
	}

	// Per-client results, merged after the run.
	type clientRes struct {
		attempted, failed, succ, tasks int
		errs                           map[string]int
		wrong                          []string
		lat, at                        []float64
		kindLat                        [numKinds][]float64
		kindTasks                      [numKinds]int
		open, run, close               []float64
	}
	res := make([]clientRes, clients)
	var next, opSeq atomic.Int64
	var warmed, done sync.WaitGroup
	warmed.Add(clients)
	done.Add(clients)
	var start time.Time
	var startOnce sync.Once
	var s0 procSnap
	var sums engineSums
	var sumsMu sync.Mutex

	runOne := func(c int, p *program, measured bool) {
		cr := &res[c]
		cr.attempted++
		opID := int(opSeq.Add(1))
		var sess *jade.Session
		var check func() error
		var err error
		var tRun, tClose time.Duration
		t0 := time.Now()
		op.sp.span(c+1, opID, "session", "OpenSession", func() { sess, err = svc.OpenSession(tenantName) })
		tOpen := time.Since(t0)
		if err == nil {
			op.sp.span(c+1, opID, "session", "Run "+kindNames[p.kind], func() { check, err = runProgram(sess.Runtime, p) })
			tRun = time.Since(t0) - tOpen
			t1 := time.Now()
			op.sp.span(c+1, opID, "session", "Close", func() {
				if cerr := sess.Close(); err == nil {
					err = cerr
				}
			})
			tClose = time.Since(t1)
		}
		wall := time.Since(t0)
		if err != nil {
			cr.failed++
			if cr.errs == nil {
				cr.errs = map[string]int{}
			}
			cr.errs[errClass(err)]++
			return
		}
		var rep jade.Report
		op.sp.span(c+1, opID, "session", "Report", func() { rep = sess.Report() })
		if err := check(); err != nil && len(cr.wrong) < 10 {
			cr.wrong = append(cr.wrong, kindNames[p.kind]+": "+err.Error())
		}
		if p.kind == kindCholesky && rep.Tasks.Run != p.cholTasks && len(cr.wrong) < 10 {
			cr.wrong = append(cr.wrong, fmt.Sprintf("cholesky: %d tasks run, the symbolic structure gives %d",
				rep.Tasks.Run, p.cholTasks))
		}
		if !measured {
			return
		}
		ms := float64(wall.Nanoseconds()) / 1e6
		cr.succ++
		cr.tasks += rep.Tasks.Run
		cr.lat = append(cr.lat, ms)
		cr.at = append(cr.at, time.Since(start).Seconds())
		cr.kindLat[p.kind] = append(cr.kindLat[p.kind], ms)
		cr.kindTasks[p.kind] += rep.Tasks.Run
		cr.open = append(cr.open, float64(tOpen.Nanoseconds())/1e3)
		cr.run = append(cr.run, float64(tRun.Nanoseconds())/1e6)
		cr.close = append(cr.close, float64(tClose.Nanoseconds())/1e3)
		if op.traced {
			sumsMu.Lock()
			sums.add(rep, wall)
			sumsMu.Unlock()
		}
	}

	var end time.Time
	var endMu sync.Mutex
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer done.Done()
			for w := 0; w < op.warm; w++ {
				for _, p := range ps.blocks[int(next.Add(1)-1)%numBlocks] {
					runOne(c, p, false)
				}
			}
			warmed.Done()
			warmed.Wait()
			startOnce.Do(func() { s0 = takeSnap(); start = time.Now() })
			for b := 0; ; b++ {
				if op.maxOps > 0 && b >= op.maxOps || op.maxOps == 0 && time.Since(start).Seconds() >= op.seconds {
					break
				}
				for _, p := range ps.blocks[int(next.Add(1)-1)%numBlocks] {
					runOne(c, p, true)
				}
			}
			endMu.Lock()
			if t := time.Now(); t.After(end) {
				end = t
			}
			endMu.Unlock()
		}(c)
	}
	done.Wait()
	o.proc = s0.to(takeSnap())
	o.host = o.proc
	o.wallS = end.Sub(start).Seconds()

	var open, run, closeT []float64
	type timed struct{ at, ms float64 }
	var all []timed
	for _, cr := range res {
		for i, ms := range cr.lat {
			all = append(all, timed{cr.at[i], ms})
		}
		o.attempted += cr.attempted
		o.failed += cr.failed
		for k, v := range cr.errs {
			o.errs[k] += v
		}
		for _, w := range cr.wrong {
			o.wrongf("%s", w)
		}
		o.succ += cr.succ
		o.tasks += cr.tasks
		for k := range cr.kindLat {
			o.kindLat[k] = append(o.kindLat[k], cr.kindLat[k]...)
			o.kindTasks[k] += cr.kindTasks[k]
		}
		open = append(open, cr.open...)
		run = append(run, cr.run...)
		closeT = append(closeT, cr.close...)
	}
	// Latencies in completion order, for the first/second-half split.
	sort.Slice(all, func(i, j int) bool { return all[i].at < all[j].at })
	for _, t := range all {
		o.lat = append(o.lat, t.ms)
	}
	rep := svc.Report()
	if rep.SessionsRejected != 0 {
		o.wrongf("%d sessions rejected by admission", rep.SessionsRejected)
	}
	for _, w := range rep.Workers {
		if w.Ledger.Violation != "" {
			o.wrongf("worker %s slot ledger violation: %s", w.Name, w.Ledger.Violation)
		}
		if w.Ledger.Held != 0 {
			o.wrongf("worker %s holds %d slots after every session closed", w.Name, w.Ledger.Held)
		}
	}
	if op.traced && rep.SessionsClosed > 0 {
		o.layer["tenant.open_us.p50"] = median(open)
		o.layer["tenant.run_ms.p50"] = median(run)
		o.layer["tenant.close_us.p50"] = median(closeT)
		o.layer["tenant.frames_per_session"] = float64(rep.Frames) / float64(rep.SessionsClosed)
		sums.coreLedger(o)
		procLedger(o, o.proc, o.succ)
	}
	op.sp.span(0, 0, "setup", "Service.Close", func() { svc.Close() })
	settle()
	o.leak = before.to(takeSnap())
	return o, nil
}

// programEvents counts ring events per task over one block of programs
// (see factorEvents).
func programEvents(blk [numKinds]*program) (float64, error) {
	var events, tasks float64
	for _, p := range blk {
		r := jade.NewSMP(jade.SMPConfig{Procs: runtime.NumCPU(), TraceRingSize: 1})
		if _, err := runProgram(r, p); err != nil {
			return 0, err
		}
		rep := r.Report()
		events += float64(rep.DroppedEvents + 1)
		tasks += float64(rep.Tasks.Run)
	}
	return events / tasks, nil
}

// rateQuantile is the quantile of each kind's operation times that the
// rates are taken at: the lower quartile. Stalls only lengthen operations,
// so a low quantile follows the program and moves least with the CPU time
// the host's hypervisor steals (see README.md).
const rateQuantile = 0.25

// rates returns the operations and the tasks one client completes per
// second at each operation kind's lower-quartile time. With kinds k of
// lower-quartile time m_k and t_k tasks per operation, ops_per_s = K ÷ Σm_k
// and tasks_per_s = Σt_k ÷ Σm_k: the rates of a client running one
// operation of each kind in turn. A factorization is the only kind of its
// workloads.
func (o *outcome) rates() (opsPerS, tasksPerS float64) {
	var ms, tasks float64
	kinds := 0
	for k, xs := range o.kindLat {
		if len(xs) > 0 {
			ms += quantile(xs, rateQuantile)
			tasks += float64(o.kindTasks[k]) / float64(len(xs))
			kinds++
		}
	}
	if kinds == 0 {
		ms, tasks, kinds = quantile(o.lat, rateQuantile), float64(o.tasks)/float64(o.succ), 1
	}
	return 1000 * float64(kinds) / ms, 1000 * tasks / ms
}

// halves returns the median of the first and the second half of xs.
func halves(xs []float64) (first, second float64) {
	h := len(xs) / 2
	if h == 0 {
		return 0, 0
	}
	return median(xs[:h]), median(xs[h:])
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
