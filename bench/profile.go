package main

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"
)

// samplePeriod is runtime/pprof's CPU sampling period (100 Hz).
const samplePeriod = 10 * time.Millisecond

// minSamples is the sample count below which a layer's CPU share is
// reported as below the profile's resolution.
const minSamples = 50

// cpuSplit is a CPU profile folded by module: every sample is charged to
// the module of its innermost vanetsim frame, or to one of the buckets
// for samples with no vanetsim frame.
type cpuSplit struct {
	seconds map[string]float64 // bucket -> CPU seconds
	samples map[string]int     // bucket -> sample count
	total   int                // samples in the profile
	// runtimeInLayer counts samples charged to a vanetsim module whose
	// leaf frame is the Go runtime (allocation, GC assist, write barriers).
	runtimeInLayer int
}

// moduleBucket maps a package path under vanetsim to its layer bucket.
// The root package is the report renderer; packages not listed are
// charged to "other".
var moduleBucket = map[string]string{
	"vanetsim":                        "render",
	"vanetsim/internal/sim":           "sim",
	"vanetsim/internal/phy":           "phy",
	"vanetsim/internal/geom":          "geom",
	"vanetsim/internal/mac80211":      "mac80211",
	"vanetsim/internal/mactdma":       "mactdma",
	"vanetsim/internal/queue":         "queue",
	"vanetsim/internal/aodv":          "aodv",
	"vanetsim/internal/netlayer":      "netlayer",
	"vanetsim/internal/tcp":           "tcp",
	"vanetsim/internal/app":           "app",
	"vanetsim/internal/ebl":           "app",
	"vanetsim/internal/mobility":      "mobility",
	"vanetsim/internal/packet":        "packet",
	"vanetsim/internal/metrics":       "metrics",
	"vanetsim/internal/stats":         "stats",
	"vanetsim/internal/stats/seqstop": "runner",
	"vanetsim/internal/runner":        "runner",
	"vanetsim/internal/service":       "service",
	"vanetsim/internal/service/canon": "canon",
	"vanetsim/internal/service/cache": "cache",
}

// cpuBuckets lists every bucket a split can charge, in report order.
var cpuBuckets = []string{
	"sim", "phy", "geom", "mac80211", "mactdma", "queue", "aodv", "netlayer",
	"tcp", "app", "mobility", "packet", "metrics", "stats", "render", "runner",
	"service", "canon", "cache", "other", "http", "harness", "gc_bg",
}

// packagePath returns the import path of a profiled function name such as
// "vanetsim/internal/sim.(*Scheduler).Step" or "runtime.mallocgc".
// Generic instantiations ("pkg.F[...]") may hold paths of their own in
// the brackets, so only the part before the first '[' is inspected.
func packagePath(fn string) string {
	head := fn
	if i := strings.IndexByte(head, '['); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(head[slash+1:], '.')
	if dot < 0 {
		return head
	}
	return head[:slash+1+dot]
}

// isRuntime reports whether fn belongs to the Go runtime proper.
func isRuntime(fn string) bool {
	p := packagePath(fn)
	return p == "runtime" || strings.HasPrefix(p, "runtime/internal/") || strings.HasPrefix(p, "internal/runtime/")
}

// bucketOf charges one sample, given its frames leaf first.
func bucketOf(frames []string) (bucket string, runtimeLeaf bool) {
	for _, fn := range frames {
		p := packagePath(fn)
		if p != "vanetsim" && !strings.HasPrefix(p, "vanetsim/") {
			continue
		}
		b, ok := moduleBucket[p]
		if !ok {
			b = "other"
		}
		return b, isRuntime(frames[0])
	}
	for _, fn := range frames {
		switch p := packagePath(fn); {
		case p == "net" || p == "syscall" || p == "internal/poll" || strings.HasPrefix(p, "net/http"):
			return "http", false
		}
	}
	for _, fn := range frames {
		if packagePath(fn) == "main" {
			return "harness", false
		}
	}
	return "gc_bg", false
}

// foldTraces reads the text of `go tool pprof -traces` for a CPU profile
// and folds it into a cpuSplit.
func foldTraces(r io.Reader) (*cpuSplit, error) {
	split := &cpuSplit{seconds: map[string]float64{}, samples: map[string]int{}}
	var (
		value  time.Duration
		frames []string
		inBody bool
	)
	flush := func() {
		if len(frames) == 0 {
			return
		}
		n := int((value + samplePeriod/2) / samplePeriod)
		b, rt := bucketOf(frames)
		split.seconds[b] += value.Seconds()
		split.samples[b] += n
		split.total += n
		if rt {
			split.runtimeInLayer += n
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBody = true
			continue
		}
		text := strings.TrimSpace(line)
		if !inBody || text == "" {
			continue
		}
		if len(frames) == 0 {
			fields := strings.Fields(text)
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: malformed sample line %q", line)
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: sample value in %q: %w", line, err)
			}
			value = d
			text = strings.Join(fields[1:], " ")
		}
		frames = append(frames, strings.TrimSuffix(text, " (inline)"))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pprof traces: %w", err)
	}
	flush()
	return split, nil
}
