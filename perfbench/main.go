// Command perfbench is the Jade runtime's benchmark: closed-loop workloads
// driven through the public jade API, every output checked against
// computations made apart from the runtime, with end-to-end metrics from
// untraced runs and a per-layer ledger from a traced run. See README.md.
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload factor-smp --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 80, "failed": 0, "metrics": {"ops_per_s": {"value": 11.4, "unit": "1/s"}, ...}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workload is one benchmark workload. factor-smp and programs-smp are the
// ones in BENCHMARK.json; factor-tcp and sessions-tcp fail now and then from
// the task registration race (see README.md) and are run by hand.
type workload struct {
	run    func(opts) (*outcome, error)
	setups int // set-ups timed per run
	warm   int // warm-up rounds (operations, or blocks of programs)
}

var workloads = map[string]workload{
	"factor-smp": {run: func(o opts) (*outcome, error) { return runFactor("factor-smp", "smp", o) },
		setups: 25, warm: 2},
	"programs-smp": {run: runProgramsSMP,
		setups: 25, warm: 1},
	"factor-tcp": {run: func(o opts) (*outcome, error) { return runFactor("factor-tcp", "tcp", o) },
		setups: 5, warm: 1},
	"sessions-tcp": {run: runSessions,
		setups: 3, warm: 1},
}

var workloadOrder = []string{"factor-smp", "programs-smp", "factor-tcp", "sessions-tcp"}

// metric is one reported metric.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// perLayer is every metric of the traced ledger, with its unit, in report
// order.
var perLayer = []struct{ name, unit string }{
	{"core.replay_ns_per_task", "ns"},
	{"core.replay_allocs_per_task", "count"},
	{"core.lock_acqs_per_task", "count"},
	{"core.wakes_per_task", "count"},
	{"core.waits_per_task", "count"},
	{"smp.busy_share", "share"},
	{"kernel.serial_ms", "ms"},
	{"live.op_ms.p50", "ms"},
	{"live.failed_share", "share"},
	{"live.frames_per_task", "count"},
	{"live.bytes_per_task", "B"},
	{"live.coalesced_per_task", "count"},
	{"live.delta_share", "share"},
	{"live.queue_us_per_task", "us"},
	{"live.fetch_us_per_task", "us"},
	{"live.exec_us_per_task", "us"},
	{"live.commit_us_per_task", "us"},
	{"live.critical_path_share", "share"},
	{"live.worker_busy_share", "share"},
	{"wire.encode_ns_per_frame", "ns"},
	{"wire.decode_ns_per_frame", "ns"},
	{"wire.allocs_per_frame", "count"},
	{"tcp.frames_per_write", "count"},
	{"tcp.syscalls_per_task", "count"},
	{"tcp.rtt_us", "us"},
	{"tenant.open_us.p50", "us"},
	{"tenant.run_ms.p50", "ms"},
	{"tenant.close_us.p50", "us"},
	{"tenant.frames_per_session", "count"},
	{"gc.allocs_per_task", "count"},
	{"gc.alloc_bytes_per_task", "B"},
	{"gc.cycles_per_op", "count"},
	{"gc.cpu_share", "share"},
	{"proc.cpu_ms_per_op", "ms"},
	{"proc.sys_share", "share"},
	{"trace.events_per_task", "count"},
	{"leak.goroutines_per_runtime", "count"},
	{"leak.fds_per_runtime", "count"},
}

func main() {
	name := flag.String("workload", "factor-smp", "workload: "+strings.Join(workloadOrder, ", ")+", or all")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	traced := flag.Int("trace", 0, "1: run traced and report the per-layer ledger")
	short := flag.Bool("short", false, "a quick pass: 1s measured phase, 3 set-ups")
	selfCheck := flag.Bool("selfcheck", false, "show that corrupted results fail the checks, then exit")
	traceOut := flag.String("trace-out", "", "span file of a traced run (default: spans-<workload>.json in the build directory)")
	flag.Parse()

	if *selfCheck {
		if err := runSelfCheck(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench self-check:", err)
			os.Exit(1)
		}
		return
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (known: %s, all)\n", n, strings.Join(workloadOrder, ", "))
			os.Exit(2)
		}
	}
	fmt.Printf("perfbench: host nproc=%d GOMAXPROCS=%d %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)

	final := result{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		w := workloads[n]
		op := opts{seed: *seed, seconds: *seconds, setups: w.setups, warm: w.warm}
		if *short {
			op.seconds, op.setups = 1, 3
		}
		var res result
		var err error
		if *traced == 1 {
			path := *traceOut
			if path == "" {
				path = filepath.Join(buildDir(), "spans-"+n+".json")
			}
			res, err = runTraced(n, op, path)
		} else {
			res, err = runUntraced(n, op)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(names) > 1 {
				k = n + "/" + k
			}
			final.Metrics[k] = v
		}
	}
	out, _ := json.Marshal(final)
	fmt.Println(string(out))
}

// result is the final line's JSON object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func buildDir() string {
	if d := os.Getenv("PERFBENCH_OUT"); d != "" {
		return d
	}
	return ".bench_build"
}

// runUntraced runs one workload and reports its end-to-end metrics.
func runUntraced(name string, op opts) (result, error) {
	o, err := workloads[name].run(op)
	if err != nil {
		return result{}, err
	}
	printOutcome(o)
	if o.succ == 0 {
		return result{}, fmt.Errorf("%s: no operation succeeded", name)
	}
	res := outcomeResult(o)
	ops, tasks := o.rates()
	res.Metrics = map[string]metric{
		"setup_s":     {o.setupS, "s"},
		"ops_per_s":   {ops, "1/s"},
		"tasks_per_s": {tasks, "1/s"},
	}
	return res, nil
}

func outcomeResult(o *outcome) result {
	return result{Correct: len(o.wrong) == 0, Attempted: o.attempted, Failed: o.failed}
}

// printOutcome prints the human-readable account of one pass.
func printOutcome(o *outcome) {
	fmt.Printf("== %s: attempted %d, failed %d, measured %d successful operations in %.3fs\n",
		o.workload, o.attempted, o.failed, o.succ, o.wallS)
	for _, k := range sortedKeys(o.errs) {
		fmt.Printf("   failed %d× %s\n", o.errs[k], k)
	}
	if len(o.wrong) == 0 {
		fmt.Printf("   checks: every output matches its serial oracle\n")
	}
	for _, w := range o.wrong {
		fmt.Printf("   CHECK FAILED: %s\n", w)
	}
	fmt.Printf("   setup %.3fms (median of set-ups); op p50 %.3fms p90 %.3fms p99 %.3fms\n",
		1e3*o.setupS, quantile(o.lat, 0.5), quantile(o.lat, 0.9), quantile(o.lat, 0.99))
	if o.wallS > 0 {
		fmt.Printf("   measured phase: %.2f operations and %.0f tasks per second\n",
			float64(o.succ)/o.wallS, float64(o.tasks)/o.wallS)
	}
	a, b := halves(o.lat)
	fmt.Printf("   op p50 first half %.3fms, second half %.3fms\n", a, b)
	for k, xs := range o.kindLat {
		if len(xs) > 0 {
			fmt.Printf("   %s: %d ops, p50 %.3fms\n", kindNames[k], len(xs), median(xs))
		}
	}
	fmt.Printf("   host: %.1f%% of the machine's CPU time stolen by the hypervisor during the measured phase\n",
		100*o.host.stealShare)
	if o.succ > 0 {
		fmt.Printf("   process CPU %.3fms per successful operation\n",
			float64((o.proc.user+o.proc.sys).Nanoseconds())/1e6/float64(o.succ))
	}
	fmt.Printf("   left behind: %+d goroutines, %+d descriptors after %d runtimes/services\n",
		o.leak.goroutines, o.leak.fds, o.runtimes)
}

// runTraced runs one workload traced, plus the probes and microbenchmarks
// of the layers it does not exercise, and reports the per-layer ledger.
func runTraced(name string, op opts, spanPath string) (result, error) {
	sp := &spans{start: time.Now()}
	op.traced, op.sp = true, sp
	own, err := workloads[name].run(op)
	if err != nil {
		return result{}, err
	}
	printOutcome(own)
	layer := map[string]float64{}
	fill := func(o *outcome) {
		for k, v := range o.layer {
			if _, ok := layer[k]; !ok {
				layer[k] = v
			}
		}
	}
	fill(own)

	probe := func(w string, ops int) (*outcome, error) {
		if w == name {
			return own, nil
		}
		p := opts{seed: op.seed, setups: 1, warm: 1, maxOps: ops, traced: true, sp: sp}
		o, err := workloads[w].run(p)
		if err != nil {
			return nil, err
		}
		fmt.Printf("-- probe of the layers below %s:\n", w)
		printOutcome(o)
		return o, nil
	}
	live, err := probe("factor-tcp", 4)
	if err != nil {
		return result{}, err
	}
	layer["live.op_ms.p50"] = median(live.lat)
	layer["live.failed_share"] = float64(live.failed) / float64(live.attempted)
	layer["leak.goroutines_per_runtime"] = float64(live.leak.goroutines) / float64(live.runtimes)
	layer["leak.fds_per_runtime"] = float64(live.leak.fds) / float64(live.runtimes)
	fill(live)
	sess, err := probe("sessions-tcp", 3)
	if err != nil {
		return result{}, err
	}
	fill(sess)
	if _, ok := layer["smp.busy_share"]; !ok {
		smp, err := probe("factor-smp", 3)
		if err != nil {
			return result{}, err
		}
		fill(smp)
	}

	_, sym := newFactorMatrix(op.seed)
	budget := 500 * time.Millisecond
	if layer["core.replay_ns_per_task"], layer["core.replay_allocs_per_task"], err = coreReplay(factorDecls(sym), budget, sp); err != nil {
		return result{}, err
	}
	if live.sums.frames == 0 {
		return result{}, fmt.Errorf("no factor-tcp factorization succeeded, so there is no frame mix")
	}
	if layer["wire.encode_ns_per_frame"], layer["wire.decode_ns_per_frame"], layer["wire.allocs_per_frame"], err = wireCodec(mixFromSums(&live.sums), budget, sp); err != nil {
		return result{}, err
	}
	if layer["tcp.rtt_us"], err = tcpRTT(budget, sp); err != nil {
		return result{}, err
	}
	if err := sp.write(spanPath); err != nil {
		return result{}, err
	}
	fmt.Printf("-- spans: %d written to %s\n", len(sp.evs), spanPath)

	res := outcomeResult(own)
	res.Metrics = map[string]metric{}
	for _, m := range perLayer {
		v, ok := layer[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
		fmt.Printf("   %-30s %14.4f %s\n", m.name, v, m.unit)
	}
	return res, nil
}
