// Command perfbench is the repository benchmark. It runs one seeded
// workload — al1000 or salt through the engine, or serve-mix against a
// real mwserved daemon — for a fixed time, checks the outputs, and prints
// a report followed by one JSON result line.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash perfbench/run.sh --workload al1000|salt|serve-mix|all --seed N --seconds S --trace 0|1
//
// --workload all runs the three in turn, each printing its own report and
// result line.
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, and the report adds the tracing
// overhead on the end-to-end ones. See README.md beside this file.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"mw/internal/forces"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricOut is one metric of the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	desc  string
}

// metricSet maps metric names to values.
type metricSet map[string]metricOut

func (m metricSet) put(name string, v float64, unit, desc string) {
	m[name] = metricOut{Value: v, Unit: unit, desc: desc}
}

// report collects a run's outcome and prints the human-readable lines.
type report struct {
	out       io.Writer
	workload  string
	decl      *declared
	attempted int
	failures  []string
	e2e       metricSet // untraced runs
	layer     metricSet // traced runs
}

func (r *report) note(format string, args ...any) {
	fmt.Fprintf(r.out, "%s: "+format+"\n", append([]any{r.workload}, args...)...)
}

// attempt counts one checked operation; a non-empty failure marks it failed.
func (r *report) attempt(failure string) {
	r.attempted++
	if failure != "" {
		r.failures = append(r.failures, failure)
		r.note("FAILED: %s", failure)
	}
}

// fail counts n failed operations already counted as attempts.
func (r *report) fail(n int, why string) {
	for i := 0; i < n; i++ {
		r.failures = append(r.failures, why)
	}
	if n > 0 {
		r.note("FAILED: %d × %s", n, why)
	}
}

func (r *report) metric(name string, v float64, unit, desc string) {
	if r.layer == nil {
		r.layer = metricSet{}
	}
	r.layer.put(name, v, unit, desc)
}

// notExercised reports, as 0, the declared per-layer metrics under the
// given name prefixes: layers the workload does not run through.
func (r *report) notExercised(prefixes ...string) {
	for _, d := range r.decl.PerLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.Name, p) {
				r.metric(d.Name, 0, d.Unit, "not exercised by this workload")
			}
		}
	}
}

// overhead prints the end-to-end metrics of the untraced and traced parts
// of a traced run side by side, with the difference.
func (r *report) overhead(untraced, traced metricSet) {
	for _, name := range sortedNames(untraced) {
		u, t := untraced[name], traced[name]
		if _, ok := traced[name]; !ok {
			r.note("%-18s untraced %.6g %s (no traced value)", name, u.Value, u.Unit)
			continue
		}
		r.note("%-18s untraced %.6g %s, traced %.6g, overhead %+.6g (%+.1f%%)",
			name, u.Value, u.Unit, t.Value, t.Value-u.Value, 100*(t.Value-u.Value)/u.Value)
	}
}

func sortedNames(m metricSet) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// declared is the metric table of BENCHMARK.json.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declMetric `json:"end_to_end"`
	PerLayer []declMetric `json:"per_layer"`
}

type declMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func loadDeclared(path string) (*declared, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading metric declarations: %w", err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &d, nil
}

// checkMetrics verifies that m holds exactly the declared metrics, each
// with its declared unit, a well-formed name and a finite value.
func checkMetrics(m metricSet, decl []declMetric) error {
	want := map[string]string{}
	for _, d := range decl {
		want[d.Name] = d.Unit
	}
	for _, name := range sortedNames(m) {
		v := m[name]
		unit, ok := want[name]
		switch {
		case !metricName.MatchString(name):
			return fmt.Errorf("metric name %q is malformed", name)
		case !ok:
			return fmt.Errorf("metric %q is not declared in BENCHMARK.json", name)
		case unit != v.Unit:
			return fmt.Errorf("metric %q has unit %q, declared %q", name, v.Unit, unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			return fmt.Errorf("metric %q is not finite", name)
		}
	}
	for _, d := range decl {
		if _, ok := m[d.Name]; !ok {
			return fmt.Errorf("declared metric %q was not measured", d.Name)
		}
	}
	return nil
}

// result is the final JSON line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "al1000, salt, serve-mix, or all (each in turn)")
		seed     = fs.Int64("seed", 1, "input seed")
		seconds  = fs.Float64("seconds", 10, "measurement time")
		trace    = fs.Int("trace", 0, "1 = traced run (per-layer metrics)")
		daemon   = fs.String("mwserved", "", "mwserved binary (serve-mix)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	decl, err := loadDeclared("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	var names []string
	for _, w := range decl.Workloads {
		if *workload == "all" || w.Name == *workload {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	code := 0
	for _, name := range names {
		rep := &report{out: stdout, workload: name, decl: decl}
		if err := runWorkload(rep, *daemon, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

// runWorkload measures one workload and prints its report and result line.
func runWorkload(rep *report, daemon string, seed int64, dur time.Duration, traced bool) error {
	rep.note("env %s", envStamp())
	var err error
	switch rep.workload {
	case "serve-mix":
		err = runServe(daemon, seed, dur, traced, rep)
	default:
		if _, ok := engineWorkloads[rep.workload]; !ok {
			return fmt.Errorf("no runner for this workload")
		}
		err = runEngine(rep.workload, seed, dur, traced, rep)
	}
	if err != nil {
		return err
	}

	metrics, want := rep.e2e, rep.decl.EndToEnd
	if traced {
		metrics, want = rep.layer, rep.decl.PerLayer
	}
	for _, name := range sortedNames(metrics) {
		m := metrics[name]
		rep.note("%-32s %.6g %s  %s", name, m.Value, m.Unit, m.desc)
	}
	if err := checkMetrics(metrics, want); err != nil {
		return err
	}
	rep.note("attempted %d, failed %d", rep.attempted, len(rep.failures))
	line, err := json.Marshal(result{
		Correct:   len(rep.failures) == 0,
		Attempted: rep.attempted,
		Failed:    len(rep.failures),
		Metrics:   metrics,
	})
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	fmt.Fprintln(rep.out, string(line))
	return nil
}

// envStamp records what a result depends on besides the code: the CPU
// count the run saw, the Go runtime, the CPU model, and whether the packed
// AVX2 LJ kernel was available to the engine's auto-pick.
func envStamp() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s cpu=%q cluster_simd=%t",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), forces.HaveClusterSIMD)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the peak resident set (VmHWM) of process pid (0 = self) in
// MiB, or 0 where /proc is unavailable.
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid > 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
