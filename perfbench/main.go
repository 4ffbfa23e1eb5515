// Command perfbench is the repository benchmark. It builds the system
// in-process from its public packages, drives one named workload from an
// open-loop generator through the client SDK over a loopback listener,
// checks every response, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics of a traced run). See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workload is one traffic mix. Rates are requests per second offered by
// the open-loop generator; limitMs is the read p99 limit capacity_rps is
// judged against. Why each workload exists is recorded in BENCHMARK.json
// and README.md.
type workload struct {
	name       string
	fragments  int
	live       bool
	cluster    bool
	rate       float64
	writeShare float64 // share of open-loop operations that are writes
	writers    int     // closed-loop writers (ingest_stream)
	readRate   float64 // ingest_stream: the read-back after the writers stop
	ladder     []float64
	limitMs    float64
}

// The nominal rates keep the two generator connections lightly loaded, so
// the medians measure service time rather than a queue that the host's
// stolen CPU can tip over; the ladders find where queueing starts.
//
// A fourth workload, mixed_live, read a 10000-fragment corpus and was
// dropped: on shared 2-vCPU hosts its read median spread by up to half of
// itself across ten seeds, three builds of it took a third of each run,
// and cluster_mixed reads the same routes under the same live writes.
// README.md says more.
var workloads = []workload{
	{name: "hot_reads", fragments: 2000, rate: 400, ladder: []float64{2000, 4000, 6000, 8000}, limitMs: 25},
	{name: "ingest_stream", fragments: 2000, live: true, writers: max(1, runtime.NumCPU()-1), readRate: 200},
	// 2000 fragments: every batch-ingest insert is an RPC, and five builds
	// of a larger corpus over TCP do not fit a run.
	{name: "cluster_mixed", fragments: 2000, live: true, cluster: true, rate: 80, writeShare: 0.05, ladder: []float64{120, 160, 200, 250}, limitMs: 250},
}

// A run builds the system several times and reports the median set-up
// time. Set-up time depends on the corpus as well as on the host (two
// seeds' corpora of the same size differ by up to a fifth), so each build
// but the last uses a corpus of its own, derived from the run seed: the
// median then averages over corpora, not only over repeats of one. A run
// makes maxBuilds builds, or fewer, but at least minBuilds, when the first
// build shows that they would take more than setupBudgetS seconds, as on
// a host slow enough to need more than 2.4 s a build.
const (
	minBuilds    = 3
	maxBuilds    = 5
	setupBudgetS = 12.0
)

func main() {
	name := flag.String("workload", "", "workload to run: hot_reads, ingest_stream, cluster_mixed, or all (each in turn)")
	seed := flag.Int64("seed", 1, "seed for the corpus and the request mix")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for live data and result files")
	flag.Parse()

	var selected []*workload
	for i := range workloads {
		if *name == "all" || workloads[i].name == *name {
			selected = append(selected, &workloads[i])
		}
	}
	if len(selected) == 0 || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload <name|all> -seed <n> -seconds <s> -trace <0|1>")
		os.Exit(2)
	}
	correct := true
	for _, w := range selected {
		res, err := run(context.Background(), w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workdir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		res.print(os.Stdout)
		if err := res.save(*workdir, w.name, *seed, *trace); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: saving result:", err)
		}
		// Each workload's table ends with its machine-readable result line,
		// so a single-workload run ends with it.
		line, _ := json.Marshal(res.final(*trace == 1))
		fmt.Println(string(line))
		correct = correct && res.correct
	}
	if !correct {
		os.Exit(1)
	}
}

// result is everything one run measured.
type result struct {
	workload  string
	correct   bool
	attempted int64
	failed    int64
	problem   string
	e2e       []metric // every end-to-end metric that applies
	layer     []metric // per-layer metrics (traced run)
	meta      map[string]any
}

type metric struct {
	name  string
	value float64
	unit  string
	n     int    // sample count, 0 when not a sample statistic
	note  string // e.g. the percentile actually reported
}

// gated are the end-to-end metrics every workload reports and
// BENCHMARK.json bounds.
var gated = []string{"setup_s", "read_p50_ms", "heap_live_mb"}

func (r *result) add(name string, v float64, unit string, n int, note string) {
	r.e2e = append(r.e2e, metric{name, v, unit, n, note})
}

func (r *result) print(out *os.File) {
	fmt.Fprintf(out, "workload %s: attempted %d, failed %d, error_ratio %.6f, correct %v\n",
		r.workload, r.attempted, r.failed, float64(r.failed)/math.Max(1, float64(r.attempted)), r.correct)
	if r.problem != "" {
		fmt.Fprintf(out, "first problem: %s\n", r.problem)
	}
	for _, m := range r.e2e {
		fmt.Fprintf(out, "  %-22s %14.4f %-6s n=%-7d %s\n", m.name, m.value, m.unit, m.n, m.note)
	}
	for _, m := range r.layer {
		fmt.Fprintf(out, "  %-34s %14.4f %s\n", m.name, m.value, m.unit)
	}
}

// final is the one-line result: the gated end-to-end metrics, or every
// per-layer metric on a traced run.
func (r *result) final(traced bool) map[string]any {
	metrics := map[string]any{}
	list := r.layer
	if !traced {
		list = nil
		for _, name := range gated {
			for _, m := range r.e2e {
				if m.name == name {
					list = append(list, m)
				}
			}
		}
	}
	for _, m := range list {
		metrics[m.name] = map[string]any{"value": finite(m.value), "unit": m.unit}
	}
	return map[string]any{"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": metrics}
}

// save writes the full result with its run metadata under workdir/results.
func (r *result) save(workdir, name string, seed int64, trace int) error {
	dir := filepath.Join(workdir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	dump := func(ms []metric) []map[string]any {
		var out []map[string]any
		for _, m := range ms {
			out = append(out, map[string]any{"name": m.name, "value": finite(m.value), "unit": m.unit, "n": m.n, "note": m.note})
		}
		return out
	}
	data, err := json.MarshalIndent(map[string]any{
		"workload": r.workload, "correct": r.correct, "attempted": r.attempted, "failed": r.failed,
		"problem": r.problem, "end_to_end": dump(r.e2e), "per_layer": dump(r.layer), "meta": r.meta,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, trace)), data, 0o644)
}

// finite maps the +Inf latency of a failed operation to the largest
// float, which JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// heapLiveMB is the live heap after a forced collection.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// seededRNG derives an independent stream from the run seed.
func seededRNG(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + stream))
}
