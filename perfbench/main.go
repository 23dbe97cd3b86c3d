// Command perfbench is spio's end-to-end benchmark. It runs one named
// workload through the library's public surface, checks every answer,
// and prints the user-visible metrics (or, traced, the per-layer ones)
// as the last line of its output. See README.md for the workloads, the
// metric definitions and the layer map.
//
//	python3 perfbench/run.py --workload read-local --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// buildDir holds everything a run leaves behind, under the checkout.
const buildDir = ".bench_build"

type metricDef struct{ name, unit string }

// endToEndMetrics are what an untraced run prints on every workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"throughput_mb_s", "MB/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p95_ms", "ms"},
	{"success_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
}

// reportMetrics are end-to-end metrics that apply to some workloads
// only; they are printed in the report lines, not in the result line.
var reportMetrics = []metricDef{
	{"knn_p50_ms", "ms"},
	{"lod_first_ms", "ms"},
	{"stored_bytes_per_user_byte", "ratio"},
}

var workloads = []workload{ckptWorkload, readLocalWorkload, gatewayWorkload, lintWorkload}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	smoke := flag.Bool("smoke", false, "run every workload briefly and check its output against BENCHMARK.json")
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "root of the spio checkout")
	flag.Parse()
	o.trace = traceFlag == 1
	root, err := filepath.Abs(o.root)
	if err == nil {
		// Unix sockets are named relative to the checkout, which keeps
		// their paths short wherever it lives.
		err = os.Chdir(root)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o.root = root
	if *smoke {
		if err := runSmoke(o.root, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench smoke:", err)
			os.Exit(1)
		}
		return
	}
	res, err := runOnce(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
		names = append(names, wl.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// runOnce runs one workload, writes the human-readable report lines to
// out, and returns the result line. o.root must be absolute.
func runOnce(o options, out io.Writer) (*result, error) {
	wl, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	dataRoot := filepath.Join(o.root, buildDir, "data")
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(filepath.Join(dataRoot, wl.name))
	d := time.Duration(o.seconds * float64(time.Second))

	inst, setupS, err := setUp(wl, o.seed, o.root, dataRoot)
	if err != nil {
		return nil, err
	}
	w := run(inst, wl.clients, o.seed, d, nil)
	var tw *window
	var before, after any
	if o.trace {
		// The traced window replays the untraced one's operation
		// sequence, so the difference between them is the tracing cost.
		before = inst.snapshot()
		tw = run(inst, wl.clients, o.seed, d, newTracer())
		after = inst.snapshot()
	}
	recs := w.recs
	if tw != nil {
		recs = append(append([]*opRecord(nil), w.recs...), tw.recs...)
	}
	verifyErr := inst.verify(recs)
	if err := inst.close(); err != nil {
		return nil, fmt.Errorf("tear-down: %w", err)
	}
	e2e, dists := endToEnd(w, wl.primary)
	e2e["setup_s"] = setupS
	e2e["peak_rss_mb"] = float64(w.peakRSS) / 1e6
	inst.report(w, e2e)
	var layers map[string]float64
	if tw != nil {
		layers = inst.layers(tw, before, after)
		for k, v := range runtimeLayers(tw) {
			layers[k] = v
		}
		te2e, _ := endToEnd(tw, wl.primary)
		layers["trace.overhead_lat_p50_pct"] = 100 * (te2e["lat_p50_ms"]/e2e["lat_p50_ms"] - 1)
		layers["trace.overhead_ops_per_s_pct"] = 100 * (e2e["ops_per_s"]/te2e["ops_per_s"] - 1)
		path := filepath.Join(o.root, buildDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", wl.name, o.seed))
		if err := tw.tr.write(path); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(out, "# trace: %d spans written to %s\n", len(tw.tr.spans), path)
	}

	// An error is a failed operation; a wrong answer also makes the run
	// incorrect.
	res := &result{Correct: verifyErr == nil, Attempted: len(recs), Metrics: map[string]metricValue{}}
	for _, r := range recs {
		if r.failed() {
			res.Failed++
		}
		if r.bad != "" {
			res.Correct = false
		}
	}
	printReport(out, o, wl, collectProvenance(o.root, dataRoot), w, e2e, dists, recs, verifyErr)
	if o.trace {
		for _, m := range perLayerMetrics {
			res.Metrics[m.name] = metricValue{layers[m.name], m.unit}
			fmt.Fprintf(out, "# layer %-40s %14.6g %s\n", m.name, layers[m.name], m.unit)
		}
	} else {
		for _, m := range endToEndMetrics {
			res.Metrics[m.name] = metricValue{e2e[m.name], m.unit}
		}
	}
	return res, nil
}

// printReport writes the provenance, every end-to-end metric that
// applies, the sample counts behind each percentile, and any failures.
func printReport(out io.Writer, o options, wl workload, prov provenance, w *window,
	e2e map[string]float64, dists map[string]dist, recs []*opRecord, verifyErr error) {
	pj, _ := json.Marshal(prov)
	var busy time.Duration
	for _, b := range w.busy {
		busy += b
	}
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g trace=%v clients=%d window_s=%.3f busy_s=%.3f steal_pct=%.2f\n",
		wl.name, o.seed, o.seconds, o.trace, wl.clients, w.elapsed.Seconds(), busy.Seconds(), w.stealPct)
	fmt.Fprintf(out, "# provenance %s\n", pj)
	kinds := map[string]int{}
	for _, r := range w.recs {
		kinds[r.kind]++
	}
	var ks []string
	for k, n := range kinds {
		ks = append(ks, fmt.Sprintf("%s=%d", k, n))
	}
	sort.Strings(ks)
	fmt.Fprintf(out, "# operations %s\n", strings.Join(ks, " "))
	samples := map[string]struct {
		d dist
		p float64
	}{
		"lat_p50_ms": {dists["lat"], 50}, "lat_p95_ms": {dists["lat"], 95},
		"knn_p50_ms": {dists["knn"], 50}, "lod_first_ms": {dists["lod_first"], 50},
	}
	for _, m := range append(append([]metricDef(nil), endToEndMetrics...), reportMetrics...) {
		v, ok := e2e[m.name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("# metric %-28s %14.6g %s", m.name, v, m.unit)
		if s, ok := samples[m.name]; ok {
			line += fmt.Sprintf("  (n=%d, beyond=%d", len(s.d), s.d.beyond(s.p))
			if !s.d.resolved(s.p) {
				line += fmt.Sprintf(", fewer than %d beyond: not a tail estimate", minBeyond)
			}
			line += ")"
		}
		fmt.Fprintln(out, line)
	}
	shown := 0
	for _, r := range recs {
		if r.failed() && shown < 5 {
			shown++
			fmt.Fprintf(out, "# failed %s: err=%v bad=%q\n", r.kind, r.err, r.bad)
		}
	}
	if verifyErr != nil {
		fmt.Fprintf(out, "# verification failed: %v\n", verifyErr)
	}
}
