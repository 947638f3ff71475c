package cluster

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/document"
	"repro/internal/index"
	"repro/internal/par"
)

// reuseInput is one KMeansVecs call of the scratch-reuse test.
type reuseInput struct {
	idx  *index.Index
	ids  []document.DocID
	vecs []*Vector
	opts Options
}

// fingerprint renders every observable of a run — membership, assignment,
// distortion, iteration and restart counts, and the per-restart trail. %v
// prints a float64 in its shortest round-trip form, so equal strings mean
// bit-identical values.
func (in reuseInput) fingerprint() string {
	opts := in.opts
	opts.Trail = &Trail{}
	cl := KMeansVecs(in.idx.NumTerms(), in.vecs, in.ids, opts)
	return fmt.Sprintf("%+v %+v", *cl, *opts.Trail)
}

// reuseInputs differ in n, in local term space size L, in k and in
// quality, so each call resizes the previous call's buffers; the 300-doc
// input runs its ranges through par.Chunks.
func reuseInputs() []reuseInput {
	var ins []reuseInput
	for i, c := range []struct {
		n, k     int
		q        Quality
		plusPlus bool
	}{
		{120, 3, QualityExact, true},
		{30, 2, QualityServing, true},
		{182, 5, QualityMinimal, true},
		{45, 4, QualityExact, false},
		{300, 3, QualityServing, true},
		{60, 6, QualityExact, true},
		{90, 3, QualityServing, false},
	} {
		idx, ids := randomCorpus(int64(40+i), c.n)
		ins = append(ins, reuseInput{idx: idx, ids: ids, vecs: VectorsFromDocs(idx, ids),
			opts: Options{K: c.k, Seed: int64(i), PlusPlus: c.plusPlus, Restarts: 5, Quality: c.q}})
	}
	return ins
}

// TestScratchReuseIsBitIdentical pins the pooled k-means scratch: calls
// that reuse buffers sized and filled by other inputs return exactly what
// each input returned on a never-used scratch, serially and from four
// goroutines at once.
func TestScratchReuseIsBitIdentical(t *testing.T) {
	ins := reuseInputs()
	want := make([]string, len(ins))
	for i, in := range ins {
		// Two collections empty a sync.Pool, so this call gets a fresh
		// scratch, as the first call of a process does.
		runtime.GC()
		runtime.GC()
		want[i] = in.fingerprint()
	}
	for round := 0; round < 3; round++ {
		for i := range ins {
			j := (i*3 + round) % len(ins)
			if got := ins[j].fingerprint(); got != want[j] {
				t.Fatalf("input %d on a reused scratch:\n got %s\nwant %s", j, got, want[j])
			}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for i := range ins {
					j := (i*(g+2) + round) % len(ins)
					if got := ins[j].fingerprint(); got != want[j] {
						errs <- fmt.Sprintf("goroutine %d, input %d: got %s, want %s", g, j, got, want[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// hasPointers reports whether values of t can hold a pointer.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.String, reflect.Interface,
		reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestScratchReleaseDropsPointers checks the release path: every slab of a
// released scratch whose elements can hold a pointer is zero up to its
// capacity, so a pooled scratch keeps no request's vectors live.
func TestScratchReleaseDropsPointers(t *testing.T) {
	in := reuseInputs()[0]
	s := new(scratch)
	runs := s.prepare(in.idx.NumTerms(), in.vecs, Options{K: 3, PlusPlus: true, MaxIter: 50}, 5)
	for r := range runs {
		runs[r].seed()
		for !runs[r].done {
			runs[r].step()
		}
	}
	s.release()
	v := reflect.ValueOf(s).Elem()
	slabs := 0
	for f := 0; f < v.NumField(); f++ {
		slab := v.Field(f)
		if slab.Kind() != reflect.Slice || !hasPointers(slab.Type().Elem()) {
			continue
		}
		if slab.Cap() == 0 {
			t.Errorf("slab %s was never filled", v.Type().Field(f).Name)
		}
		slabs++
		full := slab.Slice(0, slab.Cap())
		for i := 0; i < full.Len(); i++ {
			if !full.Index(i).IsZero() {
				t.Errorf("released slab %s keeps element %d", v.Type().Field(f).Name, i)
				break
			}
		}
	}
	if slabs == 0 {
		t.Fatal("scratch has no pointer-holding slab")
	}
}

// TestStepAllocatesNothing pins the iteration loop of a result set below
// par.MinChunk points: assignment, reduction and centroid update run on
// preallocated buffers with no per-call closure.
func TestStepAllocatesNothing(t *testing.T) {
	idx, ids := randomCorpus(5, 150)
	st := &new(scratch).prepare(idx.NumTerms(), VectorsFromDocs(idx, ids),
		Options{K: 4, Seed: 3, PlusPlus: true, MaxIter: 50}, 1)[0]
	st.seed()
	if a := testing.AllocsPerRun(100, st.step); a != 0 {
		t.Errorf("step allocates %v times per call", a)
	}
}

// TestExactDriveIsOneFan pins the exact drive's fan-out: all restarts run
// under one par.For, whatever the number of iterations, and a result set
// below par.MinChunk fans out nowhere else.
func TestExactDriveIsOneFan(t *testing.T) {
	idx, ids := randomCorpus(9, 150)
	vecs := VectorsFromDocs(idx, ids)
	before := par.Fans.Load()
	cl := KMeansVecs(idx.NumTerms(), vecs, ids, Options{K: 3, Seed: 2, PlusPlus: true, Restarts: 5})
	if d := par.Fans.Load() - before; d != 1 {
		t.Fatalf("exact drive with 5 restarts raised par.Fans by %d, want 1", d)
	}
	if cl.Restarts != 5 || cl.TotalIterations <= cl.Restarts {
		t.Fatalf("drive ran %d restarts, %d iterations in all", cl.Restarts, cl.TotalIterations)
	}
}
