package main

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/apps/cholesky"
	"repro/internal/apps/water"
	"repro/jade"
)

// runSelfCheck shows that the checks accept real results and reject
// corrupted ones: it runs one program of every kind on the SMP runtime,
// checks the results, then corrupts each in turn and requires the check to
// fail.
func runSelfCheck(seed int64) error {
	a, sym := newFactorMatrix(seed)
	in, err := newFactorOracle(a, sym)
	if err != nil {
		return err
	}
	r := jade.NewSMP(jade.SMPConfig{Procs: runtime.NumCPU()})
	var jm *cholesky.JadeMatrix
	if err := r.Run(func(t *jade.Task) { jm = cholesky.ToJade(t, sym, 0); jm.Factor(t) }); err != nil {
		return err
	}
	got := cholesky.FromJade(r, jm)
	tasks := r.Report().Tasks.Run

	ps := newPrograms(seed)
	if err := ps.addOracles(); err != nil {
		return err
	}
	pw, pm := ps.variants[kindWater][0], ps.variants[kindMake][0]
	w, err := water.RunJade(jade.NewSMP(jade.SMPConfig{Procs: runtime.NumCPU()}), pw.water)
	if err != nil {
		return err
	}
	rm := jade.NewSMP(jade.SMPConfig{Procs: runtime.NumCPU()})
	checkMk, err := runProgram(rm, pm)
	if err != nil {
		return err
	}
	if err := checkMk(); err != nil {
		return fmt.Errorf("real make result rejected: %w", err)
	}
	list := append([]string(nil), pm.makeList...)

	taskCheck := func(n int) error {
		if n != in.tasks {
			return fmt.Errorf("%d tasks run, the symbolic structure gives %d", n, in.tasks)
		}
		return nil
	}
	real := []struct {
		what string
		err  error
	}{
		{"factor vs FactorSerial", checkFactor(got, in.oracle)},
		{"factor residual", checkResidual(a, got)},
		{"task count", taskCheck(tasks)},
		{"water vs RunSerial", checkWater(w, pw.waterOracle)},
	}
	for _, c := range real {
		if c.err != nil {
			return fmt.Errorf("real %s rejected: %w", c.what, c.err)
		}
		fmt.Printf("accepted real result: %s\n", c.what)
	}

	// Corruptions, each applied to a fresh copy of a real result.
	flipped := got.Clone()
	flipped.Cols[100][1] = math.Float64frombits(math.Float64bits(flipped.Cols[100][1]) ^ 1)
	skewed := got.Clone()
	skewed.Cols[7][0] *= 1 + 1e-9
	w2 := *w
	w2.Pos = append([]float64(nil), w.Pos...)
	w2.Pos[5] = math.Nextafter(w2.Pos[5], math.Inf(1))
	swapped := append([]string(nil), list...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	files := map[string][]byte{}
	for k, v := range pm.makeOut {
		files[k] = v
	}
	files["prog"] = append(append([]byte(nil), files["prog"]...), 'x')

	corrupt := []struct {
		what string
		err  error
	}{
		{"factor with one bit flipped", checkFactor(flipped, in.oracle)},
		{"factor with one entry off by 1e-9 (residual)", checkResidual(a, skewed)},
		{"task count off by one", taskCheck(tasks + 1)},
		{"water with one coordinate one ulp off", checkWater(&w2, pw.waterOracle)},
		{"make with two build steps swapped", checkMake(swapped, pm.makeOut, pm.makeList, pm.makeOut)},
		{"make with a changed output file", checkMake(list, files, pm.makeList, pm.makeOut)},
	}
	for _, c := range corrupt {
		if c.err == nil {
			return fmt.Errorf("corrupted result accepted: %s", c.what)
		}
		fmt.Printf("rejected corrupted result: %s: %v\n", c.what, c.err)
	}
	fmt.Printf("self-check passed: %d real results accepted, %d corrupted results rejected\n", len(real), len(corrupt))
	return nil
}
