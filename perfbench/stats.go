package main

import (
	"bufio"
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// quantile returns the q-quantile of xs by linear interpolation (xs is not
// modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// procSnap is the process-wide counters the ledger takes deltas of, all
// read from outside the program: the Go runtime's metrics, getrusage,
// /proc/self/io, the goroutine count and the open descriptors.
type procSnap struct {
	allocObjs, allocBytes uint64
	gcCycles              uint64
	gcCPU, totalCPU       float64
	user, sys             time.Duration
	syscr, syscw          uint64
	goroutines, fds       int
	hostTotal, hostSteal  uint64
}

var metricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func takeSnap() procSnap {
	var s procSnap
	samples := make([]metrics.Sample, len(metricNames))
	for i, n := range metricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	s.allocObjs = samples[0].Value.Uint64()
	s.allocBytes = samples[1].Value.Uint64()
	s.gcCycles = samples[2].Value.Uint64()
	s.gcCPU = samples[3].Value.Float64()
	s.totalCPU = samples[4].Value.Float64()
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.user = time.Duration(ru.Utime.Nano())
		s.sys = time.Duration(ru.Stime.Nano())
	}
	s.syscr, s.syscw = procIO()
	s.hostTotal, s.hostSteal = hostSteal()
	s.goroutines = runtime.NumGoroutine()
	if ents, err := os.ReadDir("/proc/self/fd"); err == nil {
		s.fds = len(ents)
	}
	return s
}

// hostSteal reads the whole machine's CPU time and the part of it stolen
// by the hypervisor, in clock ticks, from /proc/stat.
func hostSteal() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		n, _ := strconv.ParseUint(f, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

// procIO reads the read and write syscall counts of /proc/self/io.
func procIO() (syscr, syscw uint64) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ": ")
		if !ok {
			continue
		}
		n, _ := strconv.ParseUint(v, 10, 64)
		switch k {
		case "syscr":
			syscr = n
		case "syscw":
			syscw = n
		}
	}
	return syscr, syscw
}

// procDelta is the difference of two snapshots.
type procDelta struct {
	allocObjs, allocBytes float64
	gcCycles              float64
	gcCPU, totalCPU       float64
	user, sys             time.Duration
	syscr, syscw          float64
	goroutines, fds       int
	stealShare            float64 // of the machine's CPU time
}

func (b procSnap) to(a procSnap) procDelta {
	return procDelta{
		allocObjs:  float64(a.allocObjs - b.allocObjs),
		allocBytes: float64(a.allocBytes - b.allocBytes),
		gcCycles:   float64(a.gcCycles - b.gcCycles),
		gcCPU:      a.gcCPU - b.gcCPU,
		totalCPU:   a.totalCPU - b.totalCPU,
		user:       a.user - b.user,
		sys:        a.sys - b.sys,
		syscr:      float64(a.syscr - b.syscr),
		syscw:      float64(a.syscw - b.syscw),
		goroutines: a.goroutines - b.goroutines,
		fds:        a.fds - b.fds,
		stealShare: float64(a.hostSteal-b.hostSteal) / float64(a.hostTotal-b.hostTotal),
	}
}

// errClass groups errors by their text with every number replaced by N,
// and names the known fault an error belongs to.
var digits = regexp.MustCompile(`[0-9]+`)

func errClass(err error) string {
	s := digits.ReplaceAllString(err.Error(), "N")
	if strings.Contains(s, "for unknown task N") || strings.Contains(s, "of unknown task N") {
		s += " [task registration race, ROADMAP open item 1]"
	}
	return s
}

// spans records the benchmark's own spans around each call into a layer,
// in memory, and writes them as one Chrome trace (Perfetto loads it).
type spans struct {
	mu    sync.Mutex
	start time.Time
	evs   []spanEvent
}

type spanEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
	Args struct {
		Op int `json:"op"`
	} `json:"args"`
}

// span times f as one span on lane tid, tagged with the operation it
// belongs to (spans of one operation share op; 0 is set-up and the
// microbenchmarks). A nil recorder just calls f.
func (s *spans) span(tid, op int, cat, name string, f func()) {
	if s == nil {
		f()
		return
	}
	t0 := time.Now()
	f()
	d := time.Since(t0)
	ev := spanEvent{Name: name, Cat: cat, Ph: "X",
		TS: float64(t0.Sub(s.start).Nanoseconds()) / 1e3, Dur: float64(d.Nanoseconds()) / 1e3,
		PID: 1, TID: tid}
	ev.Args.Op = op
	s.mu.Lock()
	s.evs = append(s.evs, ev)
	s.mu.Unlock()
}

func (s *spans) write(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": s.evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
