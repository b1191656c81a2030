package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"time"

	"repro/internal/apps/cholesky"
	"repro/internal/apps/pmake"
	"repro/internal/apps/water"
	"repro/jade"
)

// factorGrid is the side of the grid whose 5-point Laplacian structure the
// factor workloads factorize: 256 columns, 4,111 tasks after fill (the L3
// experiment's size).
const factorGrid = 16

// factorInput is one factor workload's input and everything the checks
// compare against, all derived from the seed.
type factorInput struct {
	a      *cholesky.Matrix // the seeded matrix, no fill
	sym    *cholesky.Matrix // a with its fill structure (what the runtime gets)
	oracle *cholesky.Matrix // cholesky.FactorSerial of sym
	// tasks is Report().Tasks.Run of one factorization as derived from the
	// symbolic structure: one internal update per column, one external
	// update per below-diagonal fill entry, plus the main program.
	tasks    int
	serialMS float64 // median wall time of FactorSerial on sym
}

// seededGrid returns the grid Laplacian's structure (the paper's §6 shape)
// with seeded values: off-diagonals in [-1.5,-0.5), diagonals in [6,7).
// Every row has at most four off-diagonals, so the matrix is strictly
// diagonally dominant and therefore SPD whatever the seed.
func seededGrid(k int, rng *rand.Rand) *cholesky.Matrix {
	m := cholesky.GridLaplacian(k)
	for _, col := range m.Cols {
		col[0] = 6 + rng.Float64()
		for p := 1; p < len(col); p++ {
			col[p] = -(0.5 + rng.Float64())
		}
	}
	return m
}

// newFactorMatrix generates the factor workloads' input: the seeded matrix
// and its symbolic analysis. This is the input half of set-up.
func newFactorMatrix(seed int64) (a, sym *cholesky.Matrix) {
	a = seededGrid(factorGrid, rand.New(rand.NewSource(seed)))
	return a, cholesky.Symbolic(a)
}

// newFactorOracle computes the checks' references for a factor input,
// apart from the runtime: the serial factorization (timed, it is the
// kernel-only floor of one operation), the task count from the structure,
// and the residual of the serial factor.
func newFactorOracle(a, sym *cholesky.Matrix) (*factorInput, error) {
	in := &factorInput{a: a, sym: sym, tasks: sym.NNZ() + 1}
	var times []float64
	for i := 0; i < 15; i++ {
		c := sym.Clone()
		t0 := time.Now()
		cholesky.FactorSerial(c)
		times = append(times, msSince(t0))
		in.oracle = c
	}
	in.serialMS = median(times)
	if err := checkResidual(a, in.oracle); err != nil {
		return nil, fmt.Errorf("serial oracle: %w", err)
	}
	return in, nil
}

// checkFactor checks one factorization against the serial oracle, bit for
// bit.
func checkFactor(got, oracle *cholesky.Matrix) error {
	if got.N != oracle.N || len(got.Cols) != len(oracle.Cols) {
		return fmt.Errorf("factor has order %d, want %d", got.N, oracle.N)
	}
	for j, col := range oracle.Cols {
		g := got.Cols[j]
		if len(g) != len(col) {
			return fmt.Errorf("factor column %d has %d entries, want %d", j, len(g), len(col))
		}
		for p, v := range col {
			if math.Float64bits(g[p]) != math.Float64bits(v) {
				return fmt.Errorf("factor entry (%d,%d) = %v, serial oracle has %v",
					oracle.RowIdx[oracle.ColPtr[j]+int32(p)], j, g[p], v)
			}
		}
	}
	return nil
}

// checkResidual computes max|L·Lᵀ − A| / max|A| over the lower triangle
// with its own dense accumulation and fails above 1e-12.
func checkResidual(a, l *cholesky.Matrix) error {
	n := a.N
	acc := make([]float64, n*n) // acc[i*n+j], i >= j
	for k := 0; k < n; k++ {
		rows := l.RowIdx[l.ColPtr[k]:l.ColPtr[k+1]]
		vals := l.Cols[k]
		for p, j := range rows {
			for q := p; q < len(rows); q++ {
				acc[int(rows[q])*n+int(j)] += vals[q] * vals[p]
			}
		}
	}
	var scale float64
	for j := 0; j < n; j++ {
		rows := a.RowIdx[a.ColPtr[j]:a.ColPtr[j+1]]
		for p, i := range rows {
			v := a.Cols[j][p]
			acc[int(i)*n+j] -= v
			scale = math.Max(scale, math.Abs(v))
		}
	}
	var worst float64
	for _, v := range acc {
		worst = math.Max(worst, math.Abs(v))
	}
	if r := worst / scale; !(r <= 1e-12) {
		return fmt.Errorf("residual max|L·Lᵀ−A|/max|A| = %.3g, tolerance 1e-12", r)
	}
	return nil
}

// Program kinds of the small-program workloads (MT1's mix).
const (
	kindCholesky = iota
	kindWater
	kindMake
	numKinds
)

var kindNames = [numKinds]string{"cholesky", "water", "make"}

// variantsPerKind is how many seeded inputs of each kind a run cycles
// through.
const variantsPerKind = 4

// program is one small Jade program with its serial oracle.
type program struct {
	kind int

	chol       *cholesky.Matrix // symbolic 4×4-grid matrix
	cholOracle *cholesky.Matrix
	cholTasks  int

	water       water.Config
	waterOracle *water.State

	makeSrc   string
	makeFiles map[string][]byte // the project's sources
	makeList  []string          // serial build order
	makeOut   map[string][]byte // every file after the serial build
}

// programSet is the input of the small-program workloads: seeded variants
// of each kind and a seeded order of blocks, each block one program of each
// kind in shuffled order.
type programSet struct {
	variants [numKinds][]*program
	blocks   [][numKinds]*program
}

// numBlocks is the length of the seeded block order; clients cycle
// through it.
const numBlocks = 64

// newPrograms generates the small programs' inputs from the seed (the
// input half of set-up). Oracles are filled in by addOracles.
func newPrograms(seed int64) *programSet {
	rng := rand.New(rand.NewSource(seed ^ 0x5e55))
	ps := &programSet{}
	for v := 0; v < variantsPerKind; v++ {
		ps.variants[kindCholesky] = append(ps.variants[kindCholesky], &program{
			kind: kindCholesky,
			chol: cholesky.Symbolic(seededGrid(4, rng)),
		})
		ps.variants[kindWater] = append(ps.variants[kindWater], &program{
			kind:  kindWater,
			water: water.Config{N: 27, Steps: 1, Tasks: 2, Seed: rng.Int63()}.WithDefaults(),
		})
		src, files := makeProject(4, rng)
		ps.variants[kindMake] = append(ps.variants[kindMake], &program{
			kind: kindMake, makeSrc: src, makeFiles: files,
		})
	}
	for b := 0; b < numBlocks; b++ {
		var blk [numKinds]*program
		for i, k := range rng.Perm(numKinds) {
			blk[i] = ps.variants[k][rng.Intn(variantsPerKind)]
		}
		ps.blocks = append(ps.blocks, blk)
	}
	return ps
}

// makeProject is a wide parallel-make project: n seeded sources compiled
// independently and linked.
func makeProject(n int, rng *rand.Rand) (string, map[string][]byte) {
	files := map[string][]byte{}
	prog, link, rules := "prog:", "\tlink", ""
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("m%02d", i)
		prog += " " + name + ".o"
		link += " " + name + ".o"
		rules += name + ".o: " + name + ".c\n\tcc " + name + ".c\n"
		src := make([]byte, 3000+137*i)
		for k := range src {
			src[k] = byte('a' + rng.Intn(26))
		}
		files[name+".c"] = src
	}
	return prog + "\n" + link + "\n" + rules, files
}

func (p *program) project() *pmake.Project {
	proj := pmake.NewProject()
	for name, src := range p.makeFiles {
		proj.WriteFile(name, src)
	}
	return proj
}

// addOracles runs every variant serially, apart from the runtime.
func (ps *programSet) addOracles() error {
	for _, p := range ps.variants[kindCholesky] {
		p.cholOracle = p.chol.Clone()
		cholesky.FactorSerial(p.cholOracle)
		p.cholTasks = p.chol.NNZ() + 1
	}
	for _, p := range ps.variants[kindWater] {
		p.waterOracle = water.RunSerial(p.water)
	}
	for _, p := range ps.variants[kindMake] {
		mf, err := pmake.Parse(p.makeSrc)
		if err != nil {
			return err
		}
		proj := p.project()
		if p.makeList, err = pmake.BuildSerial(proj, mf, "prog"); err != nil {
			return err
		}
		p.makeOut = proj.Files
	}
	return nil
}

// runProgram runs p on r and returns a check of its output against the
// serial oracle. The check reads only values already copied out of the
// runtime, so it may run after the operation's timer stops.
func runProgram(r *jade.Runtime, p *program) (check func() error, err error) {
	switch p.kind {
	case kindCholesky:
		var jm *cholesky.JadeMatrix
		if err := r.Run(func(t *jade.Task) {
			jm = cholesky.ToJade(t, p.chol, 0)
			jm.Factor(t)
		}); err != nil {
			return nil, err
		}
		got := cholesky.FromJade(r, jm)
		return func() error { return checkFactor(got, p.cholOracle) }, nil
	case kindWater:
		got, err := water.RunJade(r, p.water)
		if err != nil {
			return nil, err
		}
		return func() error { return checkWater(got, p.waterOracle) }, nil
	default:
		mf, err := pmake.Parse(p.makeSrc)
		if err != nil {
			return nil, err
		}
		proj := p.project()
		list, err := pmake.BuildJade(r, proj, mf, "prog", 2e-6)
		if err != nil {
			return nil, err
		}
		return func() error { return checkMake(list, proj.Files, p.makeList, p.makeOut) }, nil
	}
}

func checkWater(got, want *water.State) error {
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("water state differs from water.RunSerial")
	}
	return nil
}

func checkMake(list []string, files map[string][]byte, wantList []string, wantFiles map[string][]byte) error {
	if !reflect.DeepEqual(list, wantList) {
		return fmt.Errorf("build order %v, pmake.BuildSerial gives %v", list, wantList)
	}
	if !reflect.DeepEqual(files, wantFiles) {
		return fmt.Errorf("built files differ from pmake.BuildSerial's")
	}
	return nil
}
