// Command qec-serve exposes the query expansion pipeline as a JSON HTTP
// service: POST /search, POST /expand, GET /healthz and GET /stats.
//
// The corpus comes from either a persisted index snapshot (written by
// Engine.Save / qec-serve -write-index) or one of the synthetic datasets:
//
//	qec-serve -dataset wikipedia -scale 2 -addr :8080
//	qec-serve -index wiki.idx -stemming
//	qec-serve -dataset shopping -write-index shop.idx   # build, save, serve
//
// A generated corpus is indexed once per process: the engine adopts the
// index the dataset builds, or, with -stemming, the dataset's corpus with
// one stemming build. The start-up log times dataset generation (its index
// included) and that adoption step separately.
//
// Repeated expansions of popular queries are served from a sharded LRU cache
// (-cache) and concurrent identical requests are coalesced into a single
// computation, so a hot ambiguous query ("apple", "jaguar") costs one
// k-means + ISKR run no matter how many users issue it at once.
//
// -quality sets the default clustering quality mode for expand requests that
// don't pin one ("exact" keeps the bit-identical 5-restart pipeline;
// "serving" trades a small deterministic accuracy delta for latency —
// at most two restarts, early restart abandonment):
//
//	qec-serve -dataset wikipedia -quality serving
//
// Expand requests select their expansion backend with the wire field
// "method" (iskr, pebc, deltaf, or, vector, lexical, orthogonal — aliases
// accepted; see docs/EXPANDERS.md). -synonyms loads a thesaurus file for
// method=lexical requests in place of the built-in demo table:
//
//	qec-serve -dataset wikipedia -synonyms thesaurus.txt
//
// With -pprof-addr a net/http/pprof debug listener starts on a separate
// address (off by default), so serving hot paths can be profiled in place —
// profiles are labeled per pipeline stage (qec_stage=...) while it is on:
//
//	qec-serve -dataset wikipedia -pprof-addr 127.0.0.1:6060
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=30
//
// Telemetry: GET /metrics serves Prometheus text exposition (including
// windowed 1m/5m QPS and error-rate gauges and build info); GET /stats adds
// latency quantiles and the same windowed rates. -access-log writes one JSON
// line per request (trace ID, endpoint, query, latency, cache disposition,
// status); -slow-query-ms marks requests over the threshold and attaches
// their per-stage breakdown:
//
//	qec-serve -dataset wikipedia -access-log access.jsonl -slow-query-ms 50
//
// Request introspection: GET /debug/requests lists the flight recorder's
// most recent completed requests (filterable by endpoint, min_ms and
// outcome; slow and failed requests survive sampling) plus everything
// currently in flight; GET /debug/requests/{trace_id} fetches one record.
// -flight sizes the recorder. Expand requests with "explain": true receive
// the pipeline's full decision trail inline (see docs/OBSERVABILITY.md).
// SIGUSR1 dumps the in-flight request registry to the access log.
//
// Under saturation the server degrades quality before availability: an
// adaptive controller (on by default; -degrade=false disables) walks a
// five-tier ladder — serving quality, one k-means restart, cache-only,
// and only then shedding with 503 + Retry-After. -degrade-max-tier clamps
// the ladder (3 forbids shedding); SIGUSR2 logs the controller snapshot.
// See docs/DEGRADATION.md. Building with -tags faultinject adds the
// QEC_FAULTS chaos hook for drills.
//
// The server drains gracefully on SIGINT/SIGTERM: in-flight requests run
// to completion, later arrivals get a retryable 503.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	qec "repro"
	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		flightCap  = flag.Int("flight", 256, "flight recorder capacity: completed request records retained for GET /debug/requests")
		indexPath  = flag.String("index", "", "load a persisted index snapshot instead of generating a dataset")
		writeIndex = flag.String("write-index", "", "after building, save the index snapshot here")
		ds         = flag.String("dataset", "wikipedia", "generated corpus when -index is unset: shopping or wikipedia")
		seed       = flag.Int64("seed", 2011, "dataset generation seed")
		scale      = flag.Int("scale", 1, "corpus scale multiplier")
		stemming   = flag.Bool("stemming", false, "use the stemming analyzer (must match a loaded index)")
		cacheSize  = flag.Int("cache", 1024, "expansion cache capacity in entries (0 disables)")
		workers    = flag.Int("workers", 0, "max concurrent expansions (0 = 2x GOMAXPROCS)")
		timeout    = flag.Duration("timeout", 10*time.Second, "per-request deadline")
		quality    = flag.String("quality", "exact", "default clustering quality for expand requests that don't set one: exact or serving")
		synonyms   = flag.String("synonyms", "", `thesaurus file for method=lexical requests ("head: syn1, syn2" | "a, b, c"; empty = built-in demo table)`)
		pprofAddr  = flag.String("pprof-addr", "", "separate net/http/pprof debug listener address (empty disables)")
		accessLog  = flag.String("access-log", "", `JSON-lines access log: "stderr", "stdout" or a file path (empty disables)`)
		slowMS     = flag.Int("slow-query-ms", 0, "log requests at or above this latency with their per-stage breakdown (0 disables)")
		degrade    = flag.Bool("degrade", true, "enable the adaptive degradation controller (see docs/DEGRADATION.md)")
		degradeMax = flag.Int("degrade-max-tier", 4, "highest degradation tier the controller may reach (1-4; 3 forbids shedding)")
	)
	flag.Parse()

	defQuality, ok := qec.ParseQuality(*quality)
	if !ok {
		log.Fatalf("unknown -quality %q (want exact or serving)", *quality)
	}

	if *pprofAddr != "" {
		// Stage labels cost a little on every span; only pay for them when
		// an operator actually asked for profiling.
		obs.EnableProfileLabels(true)
		go servePprof(*pprofAddr)
	}

	accessW, err := openLog(*accessLog)
	if err != nil {
		log.Fatalf("-access-log: %v", err)
	}
	var slowW io.Writer
	if *slowMS > 0 && accessW == nil {
		// No access log: slow-query breakdowns still need somewhere to go.
		slowW = os.Stderr
	}

	var opts []qec.Option
	if *stemming {
		opts = append(opts, qec.WithStemming())
	}
	opts = append(opts, qec.WithSeed(*seed))
	if *cacheSize > 0 {
		opts = append(opts, qec.WithExpansionCache(*cacheSize))
	}
	if *synonyms != "" {
		f, err := os.Open(*synonyms)
		if err != nil {
			log.Fatalf("-synonyms: %v", err)
		}
		src, err := qec.LoadSynonyms(f)
		f.Close()
		if err != nil {
			log.Fatalf("-synonyms: %v", err)
		}
		opts = append(opts, qec.WithSynonyms(src))
	}

	eng, err := loadEngine(*indexPath, *ds, *seed, *scale, *stemming, opts)
	if err != nil {
		log.Fatal(err)
	}

	if *writeIndex != "" {
		f, err := os.Create(*writeIndex)
		if err != nil {
			log.Fatal(err)
		}
		if err := eng.Save(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("index snapshot written to %s", *writeIndex)
	}

	if *slowMS <= 0 && accessW == nil && slowW == nil {
		// The active-request dump (SIGUSR1) needs a destination even when no
		// access log was configured.
		slowW = os.Stderr
	}
	srv := server.New(wrapEngine(eng), server.Options{
		RequestTimeout: *timeout,
		MaxConcurrent:  *workers,
		DefaultQuality: defQuality,
		AccessLog:      accessW,
		SlowQuery:      time.Duration(*slowMS) * time.Millisecond,
		SlowLog:        slowW,
		FlightCapacity: *flightCap,
		Degrade:        *degrade,
		DegradeMaxTier: *degradeMax,
	})
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGUSR1 dumps the in-flight request registry to the access log — the
	// "what is this server doing right now" signal, answerable without
	// restarting or attaching a debugger.
	usr1 := make(chan os.Signal, 1)
	signal.Notify(usr1, syscall.SIGUSR1)
	go func() {
		for range usr1 {
			n := srv.DumpActive()
			log.Printf("SIGUSR1: dumped %d active request(s)", n)
		}
	}()

	// SIGUSR2 dumps the degradation controller's snapshot — current tier,
	// pressure and transition count — for an operator deciding whether the
	// server is degraded because of load or stuck because of a bug.
	usr2 := make(chan os.Signal, 1)
	signal.Notify(usr2, syscall.SIGUSR2)
	go func() {
		for range usr2 {
			if snap, ok := srv.DegradeSnapshot(); ok {
				log.Printf("SIGUSR2: degrade tier=%s pressure=%.3f steps=%d transitions=%d",
					snap.Tier, snap.Pressure, snap.Steps, snap.Transitions)
			} else {
				log.Print("SIGUSR2: degradation controller disabled (-degrade=false)")
			}
		}
	}()
	log.Printf("serving on %s (cache %d entries, timeout %v, quality %s)",
		*addr, *cacheSize, *timeout, defQuality)
	if err := srv.Run(ctx, *addr); err != nil {
		log.Fatal(err)
	}
	log.Print("shutdown complete")
}

// openLog resolves an -access-log destination. An empty path disables the
// log (nil writer); files are opened in append mode so restarts do not
// truncate history.
func openLog(path string) (io.Writer, error) {
	switch path {
	case "":
		return nil, nil
	case "stderr":
		return os.Stderr, nil
	case "stdout":
		return os.Stdout, nil
	default:
		return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	}
}

// servePprof runs the pprof debug mux on its own listener, kept off the
// serving mux so profiling endpoints are never exposed on the public
// address. Failure to bind is fatal: an operator who asked for profiling
// should not silently run without it.
func servePprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	log.Printf("pprof debug listener on %s", addr)
	log.Fatal(http.ListenAndServe(addr, mux))
}

// loadEngine restores a snapshot when path is set. Otherwise it generates
// a dataset, which indexes its corpus with the default analyzer, and the
// engine adopts that index; with stemming the engine adopts the corpus with
// one stemming build instead. Each step logs its time.
func loadEngine(path, ds string, seed int64, scale int, stemming bool, opts []qec.Option) (*qec.Engine, error) {
	start := time.Now()
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		eng, err := qec.LoadEngine(f, opts...)
		if err != nil {
			return nil, err
		}
		log.Printf("index snapshot loaded: %d documents in %v", eng.Len(), time.Since(start))
		return eng, nil
	}

	var d *dataset.Dataset
	switch ds {
	case "shopping":
		d = dataset.Shopping(seed, scale)
	case "wikipedia":
		d = dataset.Wikipedia(seed+1, scale)
	default:
		return nil, fmt.Errorf("unknown dataset %q (want shopping or wikipedia)", ds)
	}
	log.Printf("dataset %s generated and indexed: %d documents in %v", ds, d.Corpus.Len(), time.Since(start))

	start = time.Now()
	idx, step := d.Index, "adopted the dataset index"
	if stemming {
		idx, step = index.Build(d.Corpus, analysis.Standard()), "built the stemming index"
	}
	eng := qec.NewEngineFromIndex(idx, opts...)
	log.Printf("engine ready: %s in %v", step, time.Since(start))
	return eng, nil
}
