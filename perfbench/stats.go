package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile (0..1) of sorted by the nearest-rank
// method; 0 for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// dist is a latency sample summarised the way every timing in this
// benchmark is reported: a median and the highest percentile that still
// has at least ten samples beyond it.
type dist struct {
	n      int
	p50    float64
	tailQ  float64 // the tail percentile actually supported, e.g. 0.99
	tail   float64
	sorted []float64
}

// tailLevels are tried from the top; the first with >=10 samples past it wins.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

func summarize(samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d := dist{n: len(s), p50: quantile(s, 0.5), sorted: s}
	for _, q := range tailLevels {
		if float64(len(s))*(1-q) >= 10 {
			d.tailQ, d.tail = q, quantile(s, q)
			break
		}
	}
	return d
}

// at returns the q-quantile when the sample supports it (>=10 beyond),
// otherwise the highest supported tail, so a thin sample never reports a
// percentile it cannot resolve.
func (d dist) at(q float64) float64 {
	if float64(d.n)*(1-q) >= 10 {
		return quantile(d.sorted, q)
	}
	return d.tail
}

// label names the percentile at(q) reports.
func (d dist) label(q float64) string {
	if float64(d.n)*(1-q) < 10 {
		q = d.tailQ
	}
	if q == 0 {
		return "n/a"
	}
	return fmt.Sprintf("p%g", q*100)
}

// median of a small set of repeated measurements.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
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

// gitCommit names the checked-out commit when the working directory is the
// root of a git work tree; benchmark checkouts often are not, which is
// recorded as such.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown (not a git work tree)"
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown (not a git work tree)"
	}
	return strings.TrimSpace(string(out))
}

// stealSeconds reads the CPU time the hypervisor has taken from this
// machine's CPUs (the steal column of /proc/stat, in USER_HZ ticks).
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// runMeta is recorded with every result.
func runMeta() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"git_commit": gitCommit(),
	}
}
