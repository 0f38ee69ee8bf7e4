// Command keystroke-bench prices one keystroke of the TeNDaX editor, end to
// end and layer by layer: it runs a real server over a file-backed
// database and two real client sessions in one process, drives one of four
// fixed-work workloads generated from a seed, checks its own outputs and
// prints every metric by name with its unit. See README.md.
//
// The driver's contract (BENCHMARK.json) is
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// whose last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// refSeconds is run_seconds in BENCHMARK.json: at -seconds refSeconds the
// workloads run at the sizes in specs, sized so that the three passes
// measure for about that long on the reference host. Other values scale
// every count linearly; only the reference scale is comparable.
const refSeconds = 20

const defaultSeed = 20060326

// passes is how many passes make a run.
const passes = 3

func main() {
	workloadName := flag.String("workload", "", "interactive, lockstep, burst or bigdoc_mixed (with -repeat also: all)")
	seed := flag.Uint64("seed", defaultSeed, "seed of every generated input")
	seconds := flag.Float64("seconds", refSeconds, "scales the fixed work: the reference sizes are for 20")
	traced := flag.Int("trace", 0, "1 = also run a traced pass and the layer replays, and report the per-layer metrics")
	traceOut := flag.String("trace-out", "", "with -trace 1: write the spans and their self times to this file as JSON")
	repeat := flag.Int("repeat", 0, "run N whole runs (seed, seed+1, ...) and print the spread of every end-to-end metric against its bound")
	dataDir := flag.String("data", "", "directory for the data directories of the passes (required; removed again after each pass)")
	flag.Parse()

	if err := realMain(*workloadName, *seed, *seconds, *traced != 0, *traceOut, *repeat, *dataDir); err != nil {
		fmt.Fprintln(os.Stderr, "keystroke-bench:", err)
		os.Exit(1)
	}
}

func realMain(name string, seed uint64, seconds float64, traced bool, traceOut string, repeat int, dataDir string) error {
	if dataDir == "" {
		return fmt.Errorf("-data is required")
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	scale := seconds / refSeconds
	if repeat > 0 {
		return repeatRuns(name, seed, scale, repeat, dataDir)
	}
	sp, ok := specByName(name)
	if !ok {
		return fmt.Errorf("unknown -workload %q", name)
	}
	fmt.Printf("keystroke-bench workload=%s seed=%d scale=%.3g device=none (Sync counted, not issued; data under %s)\n",
		name, seed, scale, dataDir)
	// Three passes either way: a traced run trades the third untraced
	// pass for the traced one, so both kinds of run take about as long.
	report, untraced := endToEnd, passes
	if traced {
		report, untraced = perLayer, passes-1
	}
	r, err := run(sp.scaled(scale), seed, dataDir, untraced, traced, traceOut)
	if err != nil {
		return err
	}
	return r.print(report)
}

// run is one run of a workload: untraced passes, each from a fresh data
// directory with a fresh server and fresh clients, every metric computed
// per pass and the median pass reported. A traced run adds one traced
// pass, which supplies the per-layer metrics; the end-to-end metrics
// always come from the untraced passes.
func run(sp spec, seed uint64, dataDir string, untraced int, traced bool, traceOut string) (*result, error) {
	out := &result{metrics: map[string]float64{}}
	var results []*result
	for i := 0; i < untraced; i++ {
		r, err := runPass(sp, seed, dataDir, nil)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i+1, err)
		}
		results = append(results, r)
		out.add(r, fmt.Sprintf("pass %d", i+1))
	}
	for _, m := range endToEnd {
		out.metrics[m.name] = median(column(results, m.name))
	}
	if !traced {
		return out, nil
	}

	tr := newTracer()
	r, err := runPass(sp, seed, dataDir, tr)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	out.add(r, "traced pass")
	for _, m := range perLayer {
		out.metrics[m.name] = r.metrics[m.name]
	}
	for _, name := range timed {
		out.metrics[name] = median(column(results, name))
	}
	kps := out.metrics["server.durable_keys_per_s"]
	out.metrics["trace.overhead_pct"] = (kps - r.metrics["server.durable_keys_per_s"]) / kps * 100
	// The run's own noise reading: how far apart the untraced passes put
	// the timed metrics.
	var spread float64
	for _, name := range timed {
		col := column(results, name)
		sort.Float64s(col)
		if s := (col[len(col)-1] - col[0]) / median(col) * 100; s > spread {
			spread = s
		}
	}
	out.metrics["trace.max_pass_spread_pct"] = spread
	// What the acknowledgement took beyond the parts driven directly:
	// socket, scheduling and the server's handler. A finding, not an error.
	out.metrics["server.unattributed_us"] = out.metrics["client.ack_p50_ms"]*1000 -
		(r.metrics["protocol.encode_us_1key"] + r.metrics["protocol.decode_us_1key"] +
			r.metrics["core.apply_us_1key"] + r.metrics["core.wait_durable_us"])

	fmt.Println("self time by span (traced pass):")
	for _, st := range tr.summary() {
		fmt.Printf("  %-28s n=%-7d total %10.2f ms  self %10.2f ms\n", st.Module+"."+st.Name, st.Count, st.TotalMS, st.SelfMS)
	}
	if traceOut != "" {
		if err := tr.write(traceOut); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return out, nil
}

func (o *result) add(r *result, label string) {
	o.attempted += r.attempted
	o.failed += r.failed
	for _, p := range r.problems {
		o.problems = append(o.problems, label+": "+p)
	}
}

func column(passes []*result, name string) []float64 {
	col := make([]float64, len(passes))
	for i, r := range passes {
		col[i] = r.metrics[name]
	}
	return col
}

// print writes the metrics by name with their units, the outcome of the
// checks, and the result object as the last line.
func (o *result) print(report []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(o.problems) == 0 && o.failed == 0, o.attempted, o.failed, map[string]value{}}
	for _, m := range report {
		v, ok := o.metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		fmt.Printf("%-40s %16.4f %s\n", m.name, v, m.unit)
		out.Metrics[m.name] = value{v, m.unit}
	}
	fmt.Printf("ops_attempted %d\nops_failed %d\n", o.attempted, o.failed)
	for _, p := range o.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	if out.Correct {
		fmt.Println("checks: replicas and server byte-identical after main phase and probe tail; crash image recovered to the acknowledged text; no failed op, lagged replica or throttle")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// repeatRuns is the tool for the acceptance check on repeatability: n
// whole runs of each selected workload on seeds seed, seed+1, ..., then for
// every end-to-end metric its median, quartiles, interquartile spread and
// worst single deviation as shares of the median, and PASS when the spread
// is within the metric's bound.
func repeatRuns(name string, seed uint64, scale float64, n int, dataDir string) error {
	var selected []spec
	for _, s := range specs {
		if name == "all" || name == s.name {
			selected = append(selected, s)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown -workload %q", name)
	}
	failed := false
	for _, sp := range selected {
		cols := map[string][]float64{}
		for i := 0; i < n; i++ {
			r, err := run(sp.scaled(scale), seed+uint64(i), dataDir, passes, false, "")
			if err != nil {
				return fmt.Errorf("%s run %d: %w", sp.name, i+1, err)
			}
			if len(r.problems) > 0 || r.failed > 0 {
				failed = true
				fmt.Printf("%s run %d: CHECKS FAILED: %s\n", sp.name, i+1, strings.Join(r.problems, "; "))
			}
			for _, m := range endToEnd {
				cols[m.name] = append(cols[m.name], r.metrics[m.name])
			}
		}
		fmt.Printf("%s: %d runs, seeds %d..%d\n", sp.name, n, seed, seed+uint64(n)-1)
		fmt.Printf("  %-22s %14s %14s %14s %9s %9s %7s\n", "metric", "q1", "median", "q3", "spread", "worst", "bound")
		for _, m := range endToEnd {
			q1, med, q3 := quartiles(cols[m.name])
			var worst float64
			for _, v := range cols[m.name] {
				if d := math.Abs(v-med) / med; d > worst {
					worst = d
				}
			}
			spread := (q3 - q1) / med
			verdict := "PASS"
			if spread > m.bound && m.name != "setup_s" {
				verdict, failed = "FAIL", true
			}
			fmt.Printf("  %-22s %14.4f %14.4f %14.4f %8.2f%% %8.2f%% %6.0f%% %s\n",
				m.name, q1, med, q3, spread*100, worst*100, m.bound*100, verdict)
		}
	}
	if failed {
		return fmt.Errorf("repeatability check failed")
	}
	return nil
}

// quartiles returns the first quartile, median and third quartile of v by
// the exclusive method, which is what Python's statistics.quantiles(v, n=4)
// computes and the driver uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(math.Floor(pos))
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.5), at(0.75)
}
