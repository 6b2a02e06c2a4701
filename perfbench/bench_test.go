package main

import (
	"bytes"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"mw/internal/atom"
	"mw/internal/serve"
)

func sameSystem(a, b *atom.System) bool {
	return reflect.DeepEqual(a.Pos, b.Pos) && reflect.DeepEqual(a.Vel, b.Vel) &&
		reflect.DeepEqual(a.Elem, b.Elem) && reflect.DeepEqual(a.Charge, b.Charge)
}

// TestInputsSeeded checks that every generated input is a function of the
// seed alone: the same seed gives byte-identical systems, model bodies and
// arrival schedules, another seed gives different ones.
func TestInputsSeeded(t *testing.T) {
	for name, w := range engineWorkloads {
		if !sameSystem(w.build(7, 3), w.build(7, 3)) {
			t.Errorf("%s: same seed and episode built different systems", name)
		}
		if sameSystem(w.build(7, 3), w.build(8, 3)) || sameSystem(w.build(7, 3), w.build(7, 4)) {
			t.Errorf("%s: another seed or episode built the same system", name)
		}
	}
	a, err := tenantBody(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := tenantBody(7, 5)
	c, _ := tenantBody(8, 5)
	if !bytes.Equal(a, b) {
		t.Error("same seed gave different tenant bodies")
	}
	if bytes.Equal(a, c) {
		t.Error("another seed gave the same tenant body")
	}
	s1 := poissonSchedule(7, 1, 1000, 2, tenants, snapShare)
	s2 := poissonSchedule(7, 1, 1000, 2, tenants, snapShare)
	if !reflect.DeepEqual(s1, s2) {
		t.Error("same seed gave different arrival schedules")
	}
	if reflect.DeepEqual(s1, poissonSchedule(8, 1, 1000, 2, tenants, snapShare)) ||
		reflect.DeepEqual(s1, poissonSchedule(7, 2, 1000, 2, tenants, snapShare)) {
		t.Error("another seed or phase gave the same arrival schedule")
	}
	snaps := 0
	for _, a := range s1 {
		if a.Snapshot {
			snaps++
		}
	}
	if n := len(s1); n < 1800 || n > 2200 || snaps < n/10 || snaps > 3*n/10 {
		t.Errorf("schedule has %d arrivals (%d snapshots), want ~2000 (~20%%)", n, snaps)
	}
}

// TestPercentileBeyondRule checks that a percentile is refused unless ten
// samples lie beyond it, and that the sample count is reported.
func TestPercentileBeyondRule(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i)
		}
		return out
	}
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{1000, 0.99, true}, {999, 0.99, false}, {20, 0.5, true}, {19, 0.5, false}, {0, 0.5, false},
	} {
		p, err := percentile(xs(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err=%v, want ok=%t", c.q*100, c.n, err, c.ok)
		}
		if c.ok && p.N != c.n {
			t.Errorf("p%g of %d samples reports n=%d", c.q*100, c.n, p.N)
		}
	}
	if p, _ := percentile(xs(1000), 0.99); p.Value != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", p.Value)
	}
}

// TestDeclaredMetrics checks BENCHMARK.json's names and units and that
// checkMetrics holds a result to exactly the declared set.
func TestDeclaredMetrics(t *testing.T) {
	d, err := loadDeclared("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]declMetric{}, d.EndToEnd...), d.PerLayer...) {
		if !metricName.MatchString(m.Name) || len(m.Name) > 64 || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %q has malformed unit %q", m.Name, m.Unit)
		}
	}
	for _, w := range d.Workloads {
		if _, ok := engineWorkloads[w.Name]; !ok && w.Name != "serve-mix" {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
	full := metricSet{}
	for _, m := range d.EndToEnd {
		full.put(m.Name, 1, m.Unit, "")
	}
	if err := checkMetrics(full, d.EndToEnd); err != nil {
		t.Errorf("complete set rejected: %v", err)
	}
	missing := metricSet{}
	for k, v := range full {
		missing[k] = v
	}
	delete(missing, "setup_s")
	if checkMetrics(missing, d.EndToEnd) == nil {
		t.Error("a set missing setup_s was accepted")
	}
	full.put("undeclared", 1, "s", "")
	if checkMetrics(full, d.EndToEnd) == nil {
		t.Error("an undeclared metric was accepted")
	}
}

// TestLoadAgainstServer drives the open-loop generator, over its raw
// HTTP/1.1 connections, and the bitwise trajectory check against the serve
// handler in-process.
func TestLoadAgainstServer(t *testing.T) {
	srv := serve.NewServer(serve.Config{Workers: 2, GCInterval: -1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	d := &daemon{base: ts.URL, hc: ts.Client()}
	for i := range d.conns {
		d.conns[i] = &conn{addr: strings.TrimPrefix(ts.URL, "http://")}
	}
	defer func() {
		for _, c := range d.conns {
			c.close()
		}
	}()
	bodies := make([][]byte, 4)
	for k := range bodies {
		b, err := tenantBody(1, k)
		if err != nil {
			t.Fatal(err)
		}
		bodies[k] = b
	}
	ids, err := d.upload(bodies)
	if err != nil {
		t.Fatal(err)
	}
	sched := poissonSchedule(1, 1, 400, 0.5, len(ids), snapShare)
	ps := d.load(ids, sched, true)
	if len(ps.failures) > 0 {
		t.Fatalf("%d of %d requests failed, first: %s", len(ps.failures), len(sched), ps.failures[0])
	}
	if len(ps.steps)+len(ps.snaps) != len(sched) || len(ps.snaps) == 0 {
		t.Fatalf("%d steps + %d snapshots for %d arrivals", len(ps.steps), len(ps.snaps), len(sched))
	}
	for _, s := range ps.samples {
		if !s.snapshot && (s.step.ComputeUS <= 0 || s.step.BatchSize < 1) {
			t.Fatalf("traced step answer not parsed: %+v", s.step)
		}
		if s.snapshot && s.bytes < 1000 {
			t.Fatalf("snapshot answer of %d bytes", s.bytes)
		}
	}
	if fail, err := d.checkTrajectory(ids[0], bodies[0]); err != nil || fail != "" {
		t.Fatalf("trajectory check: %q, %v", fail, err)
	}
}

// TestStealScoring checks the /proc/stat parse and the choice of units to
// score: all clean units, topped up with the least-stolen ones to the floor.
func TestStealScoring(t *testing.T) {
	got := parseCPULine("cpu  100 5 50 800 10 1 2 30 7 0")
	if got != (cpuTimes{steal: 30, total: 998}) {
		t.Errorf("parseCPULine = %+v, want steal 30 of 998", got)
	}
	if parseCPULine("cpu0 1 2 3") != (cpuTimes{}) {
		t.Error("a short or per-CPU line parsed as the aggregate")
	}
	for _, c := range []struct {
		steal   []float64
		atLeast int
		want    []int
	}{
		{[]float64{0, 0.01, 0.2, 0, 0.3}, 2, []int{0, 1, 3}},
		{[]float64{0.5, 0.2, 0.3, 0.1}, 2, []int{1, 3}},
		{[]float64{0, 0, 0}, 3, []int{0, 1, 2}},
		{nil, 1, []int{}},
	} {
		if k := cleanest(c.steal, c.atLeast); !reflect.DeepEqual(k, c.want) {
			t.Errorf("cleanest(%v, %d) = %v, want %v", c.steal, c.atLeast, k, c.want)
		}
	}
}
