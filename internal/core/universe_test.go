package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/document"
	"repro/internal/index"
	"repro/internal/search"
)

// universeInput is one NewUniverse call of the table-reuse test.
type universeInput struct {
	idx *index.Index
	q   search.Query
	ids []document.DocID
}

// fingerprint resolves the universe and renders its pool, the pool's
// TermIDs and the keyword incidence.
func (in universeInput) fingerprint() string {
	u := NewUniverse(in.idx, in.q, in.ids, nil, DefaultPoolOptions())
	return fmt.Sprint(u.pool, u.poolTids, u.containB)
}

// universeInputs spans two indexes of different vocabulary sizes and
// universes of different sizes, so each call meets a table last written by
// another.
func universeInputs() []universeInput {
	var ins []universeInput
	for c, vocab := range []int{40, 400} {
		rng := rand.New(rand.NewSource(int64(c)))
		corpus := document.NewCorpus()
		var ids []document.DocID
		for i := 0; i < 90; i++ {
			text := "seed"
			for j := 0; j < 5+rng.Intn(20); j++ {
				text += " w" + strconv.Itoa(rng.Intn(vocab))
			}
			ids = append(ids, corpus.AddText("", text))
		}
		idx := index.Build(corpus, analysis.Simple())
		for _, step := range []int{1, 3} {
			var sub []document.DocID
			for i := 0; i < len(ids); i += step {
				sub = append(sub, ids[i])
			}
			ins = append(ins,
				universeInput{idx, search.NewQuery("seed"), sub},
				universeInput{idx, search.NewQuery("seed w1"), sub})
		}
	}
	return ins
}

// TestUniverseTableReuseIsExact pins the pooled TermID table behind pool
// scoring and keyword incidence: universes resolved after others, serially
// and from four goroutines at once, equal what each resolved on a fresh
// table.
func TestUniverseTableReuseIsExact(t *testing.T) {
	ins := universeInputs()
	want := make([]string, len(ins))
	for i, in := range ins {
		// Two collections empty a sync.Pool, so this call gets a fresh table.
		runtime.GC()
		runtime.GC()
		want[i] = in.fingerprint()
	}
	var wg sync.WaitGroup
	errs := make(chan string, 5)
	check := func(g int) {
		for round := 0; round < 3; round++ {
			for i := range ins {
				j := (i*(g+2) + round) % len(ins)
				if got := ins[j].fingerprint(); got != want[j] {
					errs <- fmt.Sprintf("pass %d, input %d: got %s, want %s", g, j, got, want[j])
					return
				}
			}
		}
	}
	check(0)
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			check(g)
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
