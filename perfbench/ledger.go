package main

import (
	"fmt"
	"time"

	"repro/internal/access"
	"repro/internal/apps/cholesky"
	"repro/internal/core"
	"repro/internal/transport/tcp"
	"repro/internal/transport/wire"
)

// Layer microbenchmarks: each drives one layer through its exported
// functions only, and reports the median over repetitions of ns (or µs)
// and allocations per unit.

// factorDecls is the access declarations of every task of the Jade
// factorization of sym, in creation order, exactly as
// cholesky.JadeMatrix.Factor declares them (objects: 1 = ColPtr,
// 2 = RowIdx, 3+j = column j).
func factorDecls(sym *cholesky.Matrix) [][]access.Decl {
	col := func(j int32) access.ObjectID { return access.ObjectID(3 + j) }
	structure := []access.Decl{{Object: 1, Mode: access.Read}, {Object: 2, Mode: access.Read}}
	var out [][]access.Decl
	for i := 0; i < sym.N; i++ {
		out = append(out, append([]access.Decl{{Object: col(int32(i)), Mode: access.ReadWrite}}, structure...))
		for _, j := range sym.RowIdx[sym.ColPtr[i]+1 : sym.ColPtr[i+1]] {
			out = append(out, append([]access.Decl{
				{Object: col(j), Mode: access.ReadWrite},
				{Object: col(int32(i)), Mode: access.Read},
			}, structure...))
		}
	}
	return out
}

// replayWindow bounds the replay's outstanding tasks, as the SMP
// runtime's default MaxLiveTasks (64 per processor) does on two CPUs.
const replayWindow = 128

// coreReplay replays the factor task graph through core.Engine on one
// goroutine: the root creates the tasks in program order; whenever
// replayWindow tasks are outstanding, and at the end, the oldest ready task
// is started and completed.
func coreReplay(decls [][]access.Decl, budget time.Duration, sp *spans) (nsPerTask, allocsPerTask float64, err error) {
	var ns, allocs []float64
	deadline := time.Now().Add(budget)
	for rep := 0; rep < 3 || time.Now().Before(deadline); rep++ {
		var ready []*core.Task
		s0 := takeSnap()
		t0 := time.Now()
		sp.span(0, 0, "core", "replay", func() {
			e := core.New(core.Hooks{Ready: func(t *core.Task) { ready = append(ready, t) }})
			root := e.Root()
			k := 0
			retire := func() bool {
				if k == len(ready) {
					return false
				}
				if err = e.Start(ready[k]); err == nil {
					err = e.Complete(ready[k])
				}
				k++
				return err == nil
			}
			for _, d := range decls {
				for e.Live()-1 >= replayWindow && retire() {
				}
				if err != nil {
					return
				}
				if _, err = e.Create(root, d, nil); err != nil {
					return
				}
			}
			for retire() {
			}
			if err != nil {
				return
			}
			if n := e.Stats().TasksCompleted; n != uint64(len(decls)) {
				err = fmt.Errorf("core replay completed %d of %d tasks", n, len(decls))
			}
		})
		d := time.Since(t0)
		if err != nil {
			return 0, 0, err
		}
		n := float64(len(decls))
		ns = append(ns, float64(d.Nanoseconds())/n)
		allocs = append(allocs, s0.to(takeSnap()).allocObjs/n)
	}
	return median(ns), median(allocs), nil
}

// frameMix is the frames of a factor-tcp factorization by class, with the
// average payload of each, as derived from the live runtime's Report().Net
// and Report().Delta counters.
type frameMix struct {
	images, patches, control float64 // frame counts
	imageBytes, patchBytes   float64 // average payload
	controlBytes             float64 // average whole frame
	coalesced                float64 // pushes carrying a dispatch
}

func mixFromSums(s *engineSums) frameMix {
	m := frameMix{images: s.full, patches: s.delta, coalesced: s.coalesced}
	m.control = s.frames - s.full - s.delta
	if s.full > 0 {
		m.imageBytes = s.fullBytes / s.full
	}
	if s.delta > 0 {
		m.patchBytes = s.dByte / s.delta
	}
	if m.control > 0 {
		m.controlBytes = (s.bytes - s.fullBytes - s.dByte) / m.control
	}
	return m
}

// frames builds about n frames in the mix's proportions. Control frames
// rotate through the payload-free RPC types and carry a label that brings
// them to the measured average size; a share of the object pushes carries
// an encoded dispatch in Aux, as coalesced dispatches do.
func (m frameMix) frames(n int) ([]*wire.Frame, error) {
	total := m.images + m.patches + m.control
	if total == 0 {
		return nil, fmt.Errorf("empty frame mix")
	}
	dispatch, err := wire.Encode(&wire.Frame{Type: wire.TDispatch, Task: 1234, A: 7, Label: "external(123,140)"})
	if err != nil {
		return nil, err
	}
	header := float64(len(mustEncode(&wire.Frame{Type: wire.TTaskDone})))
	labelLen := int(m.controlBytes - header)
	if labelLen < 0 {
		labelLen = 0
	}
	label := string(make([]byte, labelLen))
	controlTypes := []byte{wire.TAccessReq, wire.TEndAccess, wire.TTaskDone, wire.TReply}
	var out []*wire.Frame
	add := func(count float64, mk func(i int) *wire.Frame) {
		for i := 0; i < int(count/total*float64(n)+0.5); i++ {
			out = append(out, mk(i))
		}
	}
	pushes := m.images + m.patches
	carry := func(i int) string {
		if pushes > 0 && float64(i%100) < 100*m.coalesced/pushes {
			return string(dispatch)
		}
		return ""
	}
	add(m.images, func(i int) *wire.Frame {
		return &wire.Frame{Type: wire.TObjImage, Obj: uint64(3 + i), A: 2, B: 1,
			Aux: carry(i), Payload: make([]byte, int(m.imageBytes))}
	})
	add(m.patches, func(i int) *wire.Frame {
		return &wire.Frame{Type: wire.TObjPatch, Obj: uint64(3 + i), A: 3, B: 1, C: 2,
			Aux: carry(i), Payload: make([]byte, int(m.patchBytes))}
	})
	add(m.control, func(i int) *wire.Frame {
		return &wire.Frame{Type: controlTypes[i%len(controlTypes)], Req: uint64(i), Task: uint64(100 + i),
			Obj: uint64(3 + i%256), A: 1, Label: label}
	})
	return out, nil
}

func mustEncode(f *wire.Frame) []byte {
	b, err := wire.Encode(f)
	if err != nil {
		panic(err)
	}
	return b
}

// wireCodec runs the frame mix through wire.AppendFrame (into a reused
// buffer, as the pooled send path does) and wire.DecodeOwned.
func wireCodec(mix frameMix, budget time.Duration, sp *spans) (encNS, decNS, allocs float64, err error) {
	frames, err := mix.frames(2000)
	if err != nil {
		return 0, 0, 0, err
	}
	encoded := make([][]byte, len(frames))
	for i, f := range frames {
		encoded[i] = mustEncode(f)
	}
	var enc, dec, al []float64
	n := float64(len(frames))
	buf := make([]byte, 0, 1<<16)
	deadline := time.Now().Add(budget)
	for rep := 0; rep < 3 || time.Now().Before(deadline); rep++ {
		s0 := takeSnap()
		t0 := time.Now()
		sp.span(0, 0, "wire", "encode mix", func() {
			for _, f := range frames {
				if buf, err = wire.AppendFrame(buf[:0], f); err != nil {
					return
				}
			}
		})
		t1 := time.Now()
		sp.span(0, 0, "wire", "decode mix", func() {
			for _, b := range encoded {
				if _, err = wire.DecodeOwned(b); err != nil {
					return
				}
			}
		})
		t2 := time.Now()
		if err != nil {
			return 0, 0, 0, err
		}
		enc = append(enc, float64(t1.Sub(t0).Nanoseconds())/n)
		dec = append(dec, float64(t2.Sub(t1).Nanoseconds())/n)
		al = append(al, s0.to(takeSnap()).allocObjs/n)
	}
	return median(enc), median(dec), median(al), nil
}

// tcpRTT ping-pongs one small frame over a loopback tcp connection pair
// and returns the median round trip in µs over batches of 200.
func tcpRTT(budget time.Duration, sp *spans) (float64, error) {
	l, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	c, err := tcp.Dial(l.Addr())
	if err != nil {
		return 0, err
	}
	defer c.Close()
	s, err := l.Accept()
	if err != nil {
		return 0, err
	}
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		for {
			m, err := s.Recv()
			if err != nil {
				return
			}
			if s.Send(m) != nil {
				return
			}
		}
	}()
	defer func() { s.Close(); <-echoDone }()
	msg := mustEncode(&wire.Frame{Type: wire.TAccessReq, Req: 1, Task: 2, Obj: 3, A: 1})
	const batch = 200
	var rtts []float64
	deadline := time.Now().Add(budget)
	for rep := 0; rep < 3 || time.Now().Before(deadline); rep++ {
		t0 := time.Now()
		sp.span(0, 0, "tcp", "200 round trips", func() {
			for i := 0; i < batch && err == nil; i++ {
				if err = c.Send(msg); err == nil {
					_, err = c.Recv()
				}
			}
		})
		if err != nil {
			return 0, err
		}
		rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/1e3/batch)
	}
	return median(rtts), nil
}
