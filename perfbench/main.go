// Command perfbench is the repository's serving benchmark. It starts
// qec-serve as a child process and drives it over loopback HTTP in a closed
// loop, checking every response against a reference answer computed
// in-process by the library on the same corpus and seed. With -trace 1 it
// instead serves the same engine in-process, times every layer from the
// outside and reports per-layer numbers.
//
// Run it through run.sh from the root of the repository, which builds both
// binaries first:
//
//	bash perfbench/run.sh --workload expand-cold --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics BENCHMARK.json declares for the mode. The lines
// before it give requests sent, succeeded and failed per phase, sample
// counts and the host probe. Any failed output check makes the run exit 1.
// README.md in this directory describes the workloads and metrics, and
// layers.json which end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

func main() {
	res, err := run()
	var line []byte
	if err == nil {
		line, err = json.Marshal(res.report())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.correct() {
		os.Exit(1)
	}
}

func run() (*result, error) {
	var (
		name    = flag.String("workload", "", "workload: expand-cold, expand-hot or search")
		seed    = flag.Int64("seed", 1, "workload seed: it alone fixes the requests of a run")
		seconds = flag.Int("seconds", 10, "run length; sizes the fixed request count")
		trace   = flag.Int("trace", 0, "1 runs the traced in-process run and reports per-layer metrics")
		bin     = flag.String("server", "", "qec-serve binary")
		out     = flag.String("out", ".", "directory for the traced run's span file")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		return nil, err
	}
	if *seconds < 1 {
		return nil, errors.New("-seconds must be at least 1")
	}
	declared, err := declaredMetrics("BENCHMARK.json", *trace == 1)
	if err != nil {
		return nil, err
	}
	var res *result
	if *trace == 1 {
		res, err = tracedRun(w, *seed, *seconds, *out)
	} else {
		res, err = servedRun(w, *seed, *seconds, *bin)
	}
	if err != nil {
		return nil, err
	}
	return res, res.sameNames(declared)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a run reports.
type result struct {
	// attempted and failed count requests; checks counts failed checks
	// that are not about one request, such as a /stats counter.
	attempted, failed, checks int
	// notes explains every failure.
	notes   []string
	metrics map[string]metric
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

func (r *result) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// count adds a phase's requests to the run's totals and prints them.
func (r *result) count(label string, p phase) {
	r.attempted += p.sent
	r.failed += p.sent - p.ok
	fmt.Printf("phase %-10s sent %6d  succeeded %6d  failed %d  in %v\n",
		label, p.sent, p.ok, p.sent-p.ok, p.wall.Round(time.Millisecond))
}

// fail records a failed check that is not about one request.
func (r *result) fail(format string, args ...any) {
	r.checks++
	r.note(fmt.Sprintf(format, args...))
}

// note records why a request or a check failed.
func (r *result) note(msgs ...string) { r.notes = append(r.notes, msgs...) }

func (r *result) correct() bool { return r.failed == 0 && r.checks == 0 }

func (r *result) report() any {
	for i, f := range r.notes {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "perfbench: ... and %d more\n", len(r.notes)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed + r.checks, r.metrics}
}

// sameNames checks that the run reports exactly the metrics BENCHMARK.json
// declares for its mode.
func (r *result) sameNames(declared map[string]string) error {
	for name, m := range r.metrics {
		unit, ok := declared[name]
		if !ok {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
		if unit != m.Unit {
			return fmt.Errorf("metric %s has unit %s, BENCHMARK.json says %s", name, m.Unit, unit)
		}
	}
	for name := range declared {
		if _, ok := r.metrics[name]; !ok {
			return fmt.Errorf("BENCHMARK.json declares %s, which this run does not report", name)
		}
	}
	return nil
}

// declaredMetrics reads the metric names and units BENCHMARK.json declares:
// the end-to-end ones, or with perLayer the per-layer ones.
func declaredMetrics(path string, perLayer bool) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	list := spec.EndToEnd
	if perLayer {
		list = spec.PerLayer
	}
	out := map[string]string{}
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out, nil
}

// batches is the number of equal parts a timed phase is cut into. Timings
// and CPU time are reported as the median of their per-batch values, so a
// few seconds of slow host, which spoil one batch or two, do not move them.
const batches = 10

// coldStartsPerBatch is the number of extra cold starts after each batch;
// setup_s is the median of them and the served process's own start.
const coldStartsPerBatch = 1

// minBatch is the smallest batch, so that each batch's rate and p50 rest on
// a few hundred requests.
const minBatch = 200

// requestCount sizes a run's timed phase.
func requestCount(w *workload, seconds int) int {
	n := int(math.Round(w.rate * float64(seconds)))
	return max(n, batches*minBatch)
}

// servedRun is the untraced run against a qec-serve child process.
func servedRun(w *workload, seed int64, seconds int, bin string) (*result, error) {
	res := newResult()
	probeBefore := hostProbe()

	d := w.corpus()
	ref := w.newEngine(d)
	rng := rand.New(rand.NewSource(seed))
	defs, err := w.requests(rng, d, ref)
	if err != nil {
		return nil, err
	}
	seq := w.draw(rng, defs, requestCount(w, seconds))
	// The reference engine and corpus are not needed any more; free them
	// before the server starts so they do not crowd it.
	d, ref = nil, nil
	runtime.GC()

	c, err := spawn(bin, w)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	setups := []time.Duration{c.setup}
	setupRSS := []float64{mb(c.setupRSS)}
	l := newLoader(c.base, defs, w.conns)
	defer l.close()

	st0, err := fetchStats(l.client, c.base)
	if err != nil {
		return nil, err
	}
	res.count("warm", l.warm())
	// A second untimed pass over the start of the timed order brings the
	// server's heap and connections to their steady state at full
	// concurrency.
	res.count("warm-seq", l.run(seq[:len(seq)/batches], w.conns))
	st1, err := fetchStats(l.client, c.base)
	if err != nil {
		return nil, err
	}

	pid := c.cmd.Process.Pid
	var (
		rates, p50s, cpus []float64
		timed             phase
		all               []time.Duration
	)
	size := len(seq) / batches
	for b := 0; b < batches; b++ {
		part := seq[b*size : (b+1)*size]
		if b == batches-1 {
			part = seq[b*size:]
		}
		before, err := cpuTime(pid)
		if err != nil {
			return nil, err
		}
		p := l.run(part, w.conns)
		after, err := cpuTime(pid)
		if err != nil {
			return nil, err
		}
		cpus = append(cpus, float64((after-before).Microseconds())/float64(p.sent))
		timed.sent += p.sent
		timed.ok += p.ok
		timed.wall += p.wall
		all = append(all, p.lat...)
		rates = append(rates, float64(p.ok)/p.wall.Seconds())
		p50s = append(p50s, ms(percentile(p.lat, 0.50)))

		// More cold starts after each batch, while the served process
		// idles: set-up samples spread over the whole run.
		for i := 0; i < coldStartsPerBatch; i++ {
			cs, err := spawn(bin, w)
			if err != nil {
				return nil, err
			}
			setups = append(setups, cs.setup)
			setupRSS = append(setupRSS, mb(cs.setupRSS))
			cs.stop()
		}
	}
	res.count("timed", timed)
	st2, err := fetchStats(l.client, c.base)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSS(pid)
	if err != nil {
		return nil, err
	}

	// Every request of expand-cold runs the pipeline exactly once; on the
	// cached workloads the timed phase runs it never.
	warmRuns := st1.Cache.Computations - st0.Cache.Computations
	timedRuns := st2.Cache.Computations - st1.Cache.Computations
	wantWarm, wantTimed := int64(0), int64(0)
	switch {
	case w.cacheOff:
		wantWarm, wantTimed = int64(len(defs)+len(seq)/batches), int64(timed.sent)
	case defs[0].path == "/expand":
		wantWarm = int64(len(defs))
	}
	if warmRuns != wantWarm || timedRuns != wantTimed {
		res.fail("/stats computations: warm-up %d (want %d), timed %d (want %d)",
			warmRuns, wantWarm, timedRuns, wantTimed)
	}
	res.note(l.failures...)

	probeAfter := hostProbe()
	fmt.Printf("samples: %d timed requests in %d batches of %d; %d cold starts\n",
		timed.sent, batches, size, len(setups))
	// p99 is printed, not reported as a metric: between two sets of runs of
	// the same code it moved by more than any bound the benchmark may set
	// (see README.md). The phase holds at least 2000 requests, so at least
	// 20 lie beyond it.
	fmt.Printf("whole timed phase: %.1f req/s, p50 %.3f ms, p99 %.3f ms (%d samples)\n",
		float64(timed.ok)/timed.wall.Seconds(), ms(percentile(all, 0.5)), ms(percentile(all, 0.99)), len(all))
	fmt.Printf("per batch: rps %v\n  p50 %v\n  cpu_us %v\n", round3(rates), round3(p50s), round3(cpus))
	fmt.Printf("setup_s samples: %v\n", round3(secs(setups)))
	fmt.Printf("VmHWM at healthy (MB): %v; served process at the end %.3f\n", round3(setupRSS), mb(rss))
	fmt.Printf("host.probe_ms before %.3f after %.3f\n", ms(probeBefore), ms(probeAfter))

	res.set("throughput_rps", median(rates), "1/s")
	res.set("latency_p50_ms", median(p50s), "ms")
	res.set("cpu_us_per_req", median(cpus), "us")
	// The peak resident set is reached at set-up, where it varies by a few
	// MB with garbage collection timing: take the median over all the
	// processes started, plus whatever the served process grew beyond its
	// own set-up peak while serving.
	res.set("peak_rss_mb", median(setupRSS)+mb(rss-c.setupRSS), "MB")
	res.set("setup_s", median(secs(setups)), "s")
	res.set("ok_ratio", float64(timed.ok)/float64(timed.sent), "ratio")
	res.set("answer_score_mean", l.meanScore(), "score")
	return res, nil
}

func mb(bytes int64) float64 { return float64(bytes) / (1 << 20) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func round3(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}

// percentile is the nearest-rank percentile of ds.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
