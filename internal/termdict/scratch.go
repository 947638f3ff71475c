package termdict

// DenseScratch is an epoch-stamped accumulation buffer over a dense TermID
// space: a vocabulary-sized []float64 whose cells are invalidated by epoch
// stamping instead of clearing, so resets are O(1) and repeated accumulations
// (TFICF labels per cluster, the vector backend's neighborhood centroid) do
// not pay a vocabulary-sized memset each.
//
// The contract that keeps callers bit-identical to a freshly zeroed buffer:
// the first Add of a cell in a new epoch zero-initializes it before
// accumulating, so the value of every touched cell is exactly the sum a fresh
// buffer would hold, accumulated in the same call order. Touched records the
// cells in first-touch order; callers that need ascending-ID emission sort it
// themselves.
//
// A DenseScratch is single-goroutine state; share across goroutines via
// pooling, not concurrently.
type DenseScratch struct {
	// Vals holds the accumulated value of every cell touched this epoch.
	// Cells not in Touched hold stale garbage — never read them.
	Vals []float64
	// Touched lists the cells written this epoch, in first-touch order.
	Touched []TermID

	stamp []uint32
	epoch uint32
}

// Reset prepares the scratch for a new accumulation over an n-cell space,
// growing the buffers if needed and invalidating every cell.
func (s *DenseScratch) Reset(n int) {
	if len(s.Vals) < n {
		s.Vals = make([]float64, n)
		s.stamp = make([]uint32, n)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could collide, clear them
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.epoch = 1
	}
	s.Touched = s.Touched[:0]
}

// Add accumulates w into cell id, zero-initializing it on the first touch of
// the current epoch (exactly like a zeroed buffer would behave).
func (s *DenseScratch) Add(id TermID, w float64) {
	if s.stamp[id] != s.epoch {
		s.stamp[id] = s.epoch
		s.Vals[id] = 0
		s.Touched = append(s.Touched, id)
	}
	s.Vals[id] += w
}
