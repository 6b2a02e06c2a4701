package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
)

// The benchmark runs on shared virtual machines, where the hypervisor at
// times runs other guests on this guest's CPUs: "steal" time in /proc/stat.
// A stretch measured while that happens reads slow by whatever the
// neighbours did — on the reference machine a stretch with a quarter of the
// CPU time stolen doubled the serve-mix request latency — not by anything
// the program did. So every repeated unit of measurement (an engine
// episode, a load phase, a daemon boot, a max_rps probe) records the share
// of CPU time stolen while it ran, and the metrics score the clean units;
// serve-mix load phases, whose figures vary with more than steal, are
// scored by their own figures instead (serve.go) and only report theirs.
// Correctness is checked on every unit, clean or not.

// maxSteal is the stolen share of CPU time above which a unit is not
// scored. Steal is counted in 10 ms ticks, so on the shortest units
// (≈0.2 s over two CPUs) it takes three stolen ticks to exceed it.
const maxSteal = 0.05

// cpuTimes is a reading of the machine's cumulative CPU time, in ticks.
type cpuTimes struct {
	steal, total uint64
}

// readCPUTimes reads the aggregate "cpu" line of /proc/stat. Where the
// file is missing or has no steal column, it reads zero, and no unit is
// ever dropped.
func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return parseCPULine(line)
}

// parseCPULine parses "cpu user nice system idle iowait irq softirq steal
// ...": the total is the sum of the first eight columns (guest time is
// already counted in user).
func parseCPULine(line string) cpuTimes {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealSince is the share of the machine's CPU time stolen since a.
func stealSince(a cpuTimes) float64 {
	b := readCPUTimes()
	if b.total <= a.total || b.steal < a.steal {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// cleanest picks the units to score from their stolen shares: every unit
// at or under maxSteal, or, when fewer than atLeast are, the atLeast units
// with the least steal. It returns their indices in measurement order.
func cleanest(steal []float64, atLeast int) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	n := 0
	for n < len(idx) && (n < atLeast || steal[idx[n]] <= maxSteal) {
		n++
	}
	keep := idx[:n]
	sort.Ints(keep)
	return keep
}
