package obs

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

func mkRec(id uint64, took time.Duration) *RequestRecord {
	return &RequestRecord{
		TraceID:  id,
		Endpoint: "expand",
		Query:    "java",
		Start:    time.Now(),
		Took:     took,
	}
}

func TestFlightRecorderRetainsNewestFirst(t *testing.T) {
	f := NewFlightRecorder(4, 2)
	for id := uint64(1); id <= 6; id++ {
		f.Record(mkRec(id, time.Millisecond), false)
	}
	got := f.Snapshot(0)
	if len(got) != 4 {
		t.Fatalf("snapshot size = %d, want 4", len(got))
	}
	for i, want := range []uint64{6, 5, 4, 3} {
		if got[i].TraceID != want {
			t.Errorf("snapshot[%d] = %d, want %d", i, got[i].TraceID, want)
		}
	}
	if f.Find(2) != nil {
		t.Error("evicted record still findable")
	}
	if rec := f.Find(5); rec == nil || rec.TraceID != 5 {
		t.Error("retained record not findable")
	}
}

// TestFlightRecorderNotableSurvivesEviction pins the acceptance property:
// a slow/error record survives 2x ring-capacity of subsequent fast traffic
// because the notable ring is never sampled and never sees plain records.
func TestFlightRecorderNotableSurvivesEviction(t *testing.T) {
	f := NewFlightRecorder(8, 4)
	f.Record(mkRec(100, 2*time.Second), true) // the slow request
	f.Record(mkRec(101, time.Millisecond), false)
	// errRec: an error outcome is notable too.
	errRec := mkRec(102, time.Millisecond)
	errRec.Outcome = OutcomeError
	f.Record(errRec, true)
	for id := uint64(200); id < 200+2*8; id++ { // 2x main-ring capacity
		f.Record(mkRec(id, time.Millisecond), false)
	}
	if rec := f.Find(100); rec == nil || !rec.Notable {
		t.Fatal("slow request evicted by 2x-capacity fast traffic")
	}
	if rec := f.Find(102); rec == nil || rec.Outcome != OutcomeError {
		t.Fatal("error request evicted by 2x-capacity fast traffic")
	}
	snap := f.Snapshot(0)
	if len(snap) > 8+4 {
		t.Fatalf("snapshot %d records exceeds total capacity %d", len(snap), 12)
	}
	found := false
	for _, rec := range snap {
		if rec.TraceID == 100 {
			found = true
		}
	}
	if !found {
		t.Error("snapshot does not surface the retained slow request")
	}
}

// TestFlightRecorderSampling drives the ring through fast laps and checks
// that adaptive decimation kicks in, sheds only plain records, and that the
// ring never exceeds capacity.
func TestFlightRecorderSampling(t *testing.T) {
	f := NewFlightRecorder(16, 4)
	f.minWrap = time.Hour // any lap is "too fast": force sampling on
	for id := uint64(1); id <= 4096; id++ {
		f.Record(mkRec(id, time.Microsecond), false)
	}
	recorded, sampledOut, shift := f.Stats()
	if shift == 0 {
		t.Error("sampling shift never increased under fast wrap")
	}
	if sampledOut == 0 {
		t.Error("no plain records were shed")
	}
	if recorded+sampledOut != 4096 {
		t.Errorf("recorded %d + sampled %d != offered 4096", recorded, sampledOut)
	}
	// Notables still always land.
	f.Record(mkRec(9999, time.Second), true)
	if f.Find(9999) == nil {
		t.Error("notable dropped while sampling active")
	}
	if got := len(f.Snapshot(0)); got > 20 {
		t.Errorf("snapshot %d records exceeds capacity 20", got)
	}
}

// TestFlightRecorderDropIsAllocFree pins that Record decides admission
// before it copies: with sampling on, a plain record it drops costs no
// allocation, and an admitted one costs exactly the one copy it keeps.
func TestFlightRecorderDropIsAllocFree(t *testing.T) {
	f := NewFlightRecorder(16, 4)
	f.sampleShift.Store(maxSampleShift) // admit 1 plain record in 1024
	rec := mkRec(1, time.Millisecond)
	const runs = 100 // with the warm-up call, 101 < 1024 offers: all dropped
	if allocs := testing.AllocsPerRun(runs, func() { f.Record(rec, false) }); allocs != 0 {
		t.Errorf("dropped plain record: %v allocs/op; want 0", allocs)
	}
	if recorded, sampledOut, _ := f.Stats(); recorded != 0 || sampledOut != runs+1 {
		t.Fatalf("recorded %d, sampled %d; want 0, %d", recorded, sampledOut, runs+1)
	}
	if allocs := testing.AllocsPerRun(runs, func() { f.Record(rec, true) }); allocs != 1 {
		t.Errorf("admitted notable record: %v allocs/op; want 1", allocs)
	}
	if got := f.Find(1); got == nil || got == rec || !got.Notable || rec.Notable {
		t.Fatal("Record must keep its own copy, marked notable, and leave the caller's record alone")
	}
}

// TestFlightRecorderConcurrent hammers concurrent record/read/evict under
// -race: writers wrap the ring many times while readers snapshot and Find.
func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(8, 2)
	const writers, perWriter = 8, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, rec := range f.Snapshot(0) {
					if rec.TraceID == 0 {
						t.Error("zero-ID record surfaced")
						return
					}
				}
				f.Find(42)
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := uint64(w*perWriter + i + 1)
				f.Record(mkRec(id, time.Millisecond), i%17 == 0)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	<-done
	if got := len(f.Snapshot(0)); got > 10 {
		t.Errorf("snapshot %d records exceeds capacity 10", got)
	}
}

// TestFlightRecorderProperties drives random traffic mixes through
// recorders of random geometry and checks the structural invariants that
// every example-based test above spot-checks: notables within the notable
// ring's reach are always retrievable no matter how much plain traffic
// followed, snapshots never exceed total capacity or repeat a trace ID,
// and the admission ledger accounts for every offered record.
func TestFlightRecorderProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(20110811))
	for trial := 0; trial < 50; trial++ {
		capMain := 1 + rng.Intn(32)
		capNotable := 1 + rng.Intn(8)
		f := NewFlightRecorder(capMain, capNotable)
		if rng.Intn(2) == 0 {
			f.minWrap = time.Hour // force decimation of plain records
		}
		var notables []uint64
		var offered, notableCount uint64
		n := 1 + rng.Intn(512)
		for id := uint64(1); id <= uint64(n); id++ {
			notable := rng.Intn(8) == 0
			f.Record(mkRec(id, time.Duration(rng.Intn(1e6))), notable)
			offered++
			if notable {
				notables = append(notables, id)
				notableCount++
			}
		}
		// Every notable the dedicated ring can still hold must be findable.
		start := 0
		if len(notables) > capNotable {
			start = len(notables) - capNotable
		}
		for _, id := range notables[start:] {
			if rec := f.Find(id); rec == nil || !rec.Notable {
				t.Fatalf("trial %d (cap %d/%d): notable %d lost after %d records",
					trial, capMain, capNotable, id, n)
			}
		}
		snap := f.Snapshot(0)
		if len(snap) > capMain+capNotable {
			t.Fatalf("trial %d: snapshot %d exceeds capacity %d",
				trial, len(snap), capMain+capNotable)
		}
		seen := make(map[uint64]bool, len(snap))
		for _, rec := range snap {
			if seen[rec.TraceID] {
				t.Fatalf("trial %d: trace %d repeated in snapshot", trial, rec.TraceID)
			}
			seen[rec.TraceID] = true
		}
		// recorded counts main-ring admissions (notables always land there
		// too); sampled counts decimated plain records; together they must
		// account for every offer.
		recorded, sampledOut, _ := f.Stats()
		if recorded+sampledOut != offered {
			t.Fatalf("trial %d: recorded %d + sampled %d != offered %d",
				trial, recorded, sampledOut, offered)
		}
		if sampledOut > offered-notableCount {
			t.Fatalf("trial %d: %d sampled out exceeds %d plain offers",
				trial, sampledOut, offered-notableCount)
		}
	}
}

func TestActiveSet(t *testing.T) {
	a := NewActiveSet(3)
	t1 := a.Begin(&ActiveRequest{TraceID: 1, Endpoint: "expand", Start: time.Unix(10, 0)})
	t2 := a.Begin(&ActiveRequest{TraceID: 2, Endpoint: "search", Start: time.Unix(5, 0)})
	if t1 < 0 || t2 < 0 {
		t.Fatal("Begin failed with free slots")
	}
	snap := a.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("active = %d, want 2", len(snap))
	}
	if snap[0].TraceID != 2 || snap[1].TraceID != 1 {
		t.Errorf("snapshot not oldest-first: %d, %d", snap[0].TraceID, snap[1].TraceID)
	}
	a.End(t1)
	if got := a.Snapshot(); len(got) != 1 || got[0].TraceID != 2 {
		t.Errorf("End did not release slot: %+v", got)
	}
	// Fill to capacity; the overflow Begin is untracked but harmless.
	a.Begin(&ActiveRequest{TraceID: 3, Start: time.Unix(1, 0)})
	a.Begin(&ActiveRequest{TraceID: 4, Start: time.Unix(2, 0)})
	if tok := a.Begin(&ActiveRequest{TraceID: 5}); tok != -1 {
		t.Errorf("Begin beyond capacity returned %d, want -1", tok)
	}
	a.End(-1) // no-op
}

func TestActiveSetConcurrent(t *testing.T) {
	a := NewActiveSet(64)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tok := a.Begin(&ActiveRequest{TraceID: uint64(w + 1), Start: time.Now()})
				a.Snapshot()
				a.End(tok)
			}
		}(w)
	}
	wg.Wait()
	if got := a.Snapshot(); len(got) != 0 {
		t.Errorf("%d requests leaked in the active set", len(got))
	}
}

func TestOutcomeNames(t *testing.T) {
	for o := Outcome(0); o < NumOutcomes; o++ {
		name := o.String()
		if name == "unknown" {
			t.Fatalf("outcome %d has no name", o)
		}
		back, ok := ParseOutcome(name)
		if !ok || back != o {
			t.Errorf("ParseOutcome(%q) = %v, %v", name, back, ok)
		}
	}
	if _, ok := ParseOutcome("bogus"); ok {
		t.Error("ParseOutcome accepted bogus name")
	}
}
