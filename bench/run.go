package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"vanetsim/internal/stats"
)

// setupReps is how many times a run performs its set-up; setup_s is the
// median, so a one-off stall does not move it.
const setupReps = 9

// maxFailureNotes bounds how many failing operations a run describes.
const maxFailureNotes = 20

// result is the JSON line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run records one workload run: set-up repetitions, the untimed checks,
// the untraced timed phase that gives the end-to-end metrics and, when
// tracing, the traced timed phase that gives the per-layer metrics.
type run struct {
	name    string
	trace   bool
	workdir string
	tmp     string // this run's scratch directory, removed by cleanup

	setup []float64 // seconds per set-up repetition
	ops   []float64 // seconds per untraced fresh or hit operation
	fresh []float64 // seconds per untraced fresh or miss operation
	timed int       // untraced timed operations of every kind
	cpu   float64   // process CPU seconds over the untraced phase
	wall  float64   // wall seconds of the untraced phase

	attempted, failed int
	failures          []string
	outputs           [][]byte // each distinct input's output, in input order

	tr        *tracer   // non-nil inside the traced phase only
	traced    *tracer   // the traced phase's spans and counts, kept for perLayer
	tracedOps []float64 // seconds per traced fresh or hit operation
	tracedN   int       // traced timed operations of every kind
	split     *cpuSplit
	layers    map[string]float64 // per-layer values set directly, reported as they are

	calib [2]float64 // host probe seconds at the start and the end
	// peaks holds the resident-set peak in MB of each untraced operation,
	// or of each sampled interval when the operations overlap.
	peaks []float64

	// budget is the wall time a timed phase may take, and minOps how many
	// operations it performs regardless (see more). A zero budget lets a
	// phase perform every operation its size asks for.
	budget     time.Duration
	minOps     int
	phaseStart time.Time
	// forcedGCs and forcedPauseNs count begin's collections in the traced
	// phase.
	forcedGCs     uint32
	forcedPauseNs uint64
}

func newRun(name string, trace bool, workdir string) *run {
	return &run{name: name, trace: trace, workdir: workdir, layers: map[string]float64{}}
}

// measure runs body between the start and end host probes and returns
// the run's result line.
func (r *run) measure(body func(*run) error) (result, error) {
	tmp, err := os.MkdirTemp(r.workdir, r.name+"-")
	if err != nil {
		return result{}, err
	}
	r.tmp = tmp
	r.calib[0] = calibrate()
	if err := body(r); err != nil {
		return result{}, fmt.Errorf("%s: %w", r.name, err)
	}
	r.calib[1] = calibrate()
	return r.result(), nil
}

func (r *run) cleanup() {
	if r.tmp != "" {
		os.RemoveAll(r.tmp)
	}
}

// phases lists the timed phases a workload runs: untraced, then traced
// when the run traces.
func (r *run) phases() []bool {
	if r.trace {
		return []bool{false, true}
	}
	return []bool{false}
}

// more reports whether the current timed phase should begin its operation
// i. Below the workload's minimum it always does; after that, only while
// one more operation at the phase's pace so far would end within the
// budget. The operation count is planned from costs measured on a quiet
// host; when the host is slower, this shortens the phase rather than the
// run outgrowing its time.
func (r *run) more(i int) bool {
	if i < max(r.minOps, 1) || r.budget == 0 {
		return true
	}
	elapsed := time.Since(r.phaseStart)
	return elapsed+elapsed/time.Duration(i) <= r.budget
}

// setupDone records one set-up repetition that began at t0.
func (r *run) setupDone(t0 time.Time) { r.setup = append(r.setup, time.Since(t0).Seconds()) }

// opKind classifies a timed operation.
type opKind int

const (
	// opFresh computes its answer: a paper evaluation, a dense run, a
	// study. It counts toward both op_mean_ms and fresh_mean_ms.
	opFresh opKind = iota
	// opHit is answered from a result cache: a service hit. It counts
	// toward op_mean_ms only.
	opHit
	// opMiss simulates behind a cache: a service miss. It counts toward
	// fresh_mean_ms only.
	opMiss
)

// op records one timed operation of the current phase; a non-nil err
// marks it failed. A fresh operation must have started at begin.
func (r *run) op(d time.Duration, kind opKind, err error) {
	r.check(err)
	if r.tr != nil {
		r.tracedN++
		if kind != opMiss {
			r.tracedOps = append(r.tracedOps, d.Seconds())
		}
		return
	}
	r.timed++
	if kind != opMiss {
		r.ops = append(r.ops, d.Seconds())
	}
	if kind != opHit {
		r.fresh = append(r.fresh, d.Seconds())
	}
	if kind == opFresh {
		p, err := peakRSSMB()
		if err != nil {
			p = math.NaN() // peak_rss_mb then reads as not finite
		}
		r.peaks = append(r.peaks, p)
	}
}

// check records one operation whose output was checked; a non-nil err
// marks it failed.
func (r *run) check(err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if len(r.failures) < maxFailureNotes {
		r.failures = append(r.failures, err.Error())
	}
}

// output records the output of one distinct input; output_sha256 digests
// them in the order recorded.
func (r *run) output(b []byte) { r.outputs = append(r.outputs, b) }

// begin prepares the next timed operation and returns its start time. It
// collects garbage and returns the freed memory to the system, so every
// operation starts from the same heap, and in the untraced phase it resets
// the resident-set peak, so that peak_rss_mb holds each operation's own
// peak. Carrying one dense-1000 run's garbage into the next spread the
// run's peak by a fifth from run to run. The traced phase keeps these
// collections out of its gc.* counters.
func (r *run) begin() (time.Time, error) {
	if r.tr != nil {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		debug.FreeOSMemory()
		runtime.ReadMemStats(&m1)
		r.forcedGCs += m1.NumGC - m0.NumGC
		r.forcedPauseNs += m1.PauseTotalNs - m0.PauseTotalNs
		return time.Now(), nil
	}
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return time.Time{}, err
	}
	return time.Now(), nil
}

// sampleRSS records the resident-set peak of each interval of the given
// length until the returned function is called, for an untraced phase
// whose operations overlap, so that none begins alone to reset the peak.
// Measured as one peak over the whole phase, service-mix's spread by a
// tenth from run to run, depending on whether two misses happened to
// simulate at once; the median one-second peak spread by a hundredth.
func (r *run) sampleRSS(every time.Duration) (stop func()) {
	if r.tr != nil {
		return func() {}
	}
	var peaks []float64
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			p, err := peakRSSMB()
			if err == nil {
				err = resetPeakRSS()
			}
			if err != nil {
				p = math.NaN() // peak_rss_mb then reads as not finite
			}
			peaks = append(peaks, p)
		}
	}()
	return func() {
		close(quit)
		<-done
		r.peaks = append(r.peaks, peaks...)
	}
}

// phase runs body as one timed phase. The untraced phase accumulates
// process CPU and wall time and records resident-set peaks; the traced
// phase records a CPU profile, the Go runtime's counters and, through
// r.tr, spans and work counts.
func (r *run) phase(traced bool, body func() error) error {
	var prof *os.File
	if traced {
		r.traced = newTracer()
		r.tr = r.traced
		defer func() { r.tr = nil }()
		var err error
		if prof, err = os.Create(filepath.Join(r.tmp, "cpu.pprof")); err != nil {
			return err
		}
		defer prof.Close()
		if err := pprof.StartCPUProfile(prof); err != nil {
			return err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := r.begin(); err != nil {
		return err
	}
	peaks := len(r.peaks)
	c0, t0 := cpuSeconds(), time.Now()
	r.phaseStart = t0
	err := body()
	wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-c0
	runtime.ReadMemStats(&m1)
	if !traced {
		r.cpu += cpu
		r.wall += wall
		if err != nil || len(r.peaks) > peaks {
			return err
		}
		// Neither an operation nor a sampled interval recorded a peak: the
		// phase's peak stands for them.
		p, err := peakRSSMB()
		r.peaks = append(r.peaks, p)
		return err
	}
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	n := float64(r.tracedN)
	r.layers["gc.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / n
	r.layers["gc.cycles"] = float64(m1.NumGC-m0.NumGC-r.forcedGCs) / n
	r.layers["gc.pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs-r.forcedPauseNs) / 1e6 / n
	r.split, err = profileSplit(prof.Name())
	return err
}

// profileSplit folds a CPU profile with `go tool pprof -traces`.
func profileSplit(path string) (*cpuSplit, error) {
	args := []string{"tool", "pprof", "-traces"}
	if exe, err := os.Executable(); err == nil {
		args = append(args, exe)
	}
	cmd := exec.Command("go", append(args, path)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return foldTraces(bytes.NewReader(out))
}

// result assembles the run's JSON line: end-to-end metrics untraced,
// per-layer metrics traced.
func (r *run) result() result {
	res := result{Attempted: r.attempted, Failed: r.failed}
	var ms []metricValue
	if r.trace {
		ms = r.perLayer()
	} else {
		ms = r.endToEnd()
	}
	res.Metrics = make(map[string]metric, len(ms))
	finite := true
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			finite = false
			r.failures = append(r.failures, fmt.Sprintf("metric %s is not finite", m.name))
			m.value = 0
		}
		res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
	}
	res.Correct = r.attempted > 0 && r.failed == 0 && finite
	return res
}

// metricValue is one named metric with its unit and, for the human
// report, its sample count or a note.
type metricValue struct {
	name  string
	value float64
	unit  string
	note  string
}

// endToEnd returns the metrics a user of the workload sees. Operation
// times are the mean over the run: on the reference host, a shared 2-CPU
// VM, it spread least from run to run of the mean, the median and the
// fastest operation (README.md, Bounds). The notes carry the others.
func (r *run) endToEnd() []metricValue {
	return []metricValue{
		{"setup_s", median(r.setup), "s", fmt.Sprintf("median of n=%d, range [%.4g, %.4g]", len(r.setup), minimum(r.setup), maximum(r.setup))},
		{"op_mean_ms", 1e3 * mean(r.ops), "ms", distribution(r.ops)},
		{"fresh_mean_ms", 1e3 * mean(r.fresh), "ms", distribution(r.fresh)},
		{"peak_rss_mb", median(r.peaks), "MB", fmt.Sprintf("median VmHWM, n=%d", len(r.peaks))},
	}
}

// distribution describes operation times for the human report: their
// count, fastest, median and the highest percentile with ten samples
// beyond it.
func distribution(xs []float64) string {
	s := fmt.Sprintf("n=%d, min %.4g ms, p50 %.4g ms", len(xs), 1e3*minimum(xs), 1e3*median(xs))
	if p, ok := tailPercentile(len(xs)); ok && p > 0.5 {
		s += fmt.Sprintf(", p%g %.4g ms", 100*p, 1e3*stats.Percentile(xs, 100*p))
	}
	return s
}

// perLayer returns every per-layer metric of layerSpec; a layer the
// workload never calls reads 0.
func (r *run) perLayer() []metricValue {
	n := float64(r.tracedN)
	v := map[string]float64{}
	note := map[string]string{}
	for k, x := range r.traced.sum {
		v[k] = x / n
	}
	for k, x := range r.traced.max {
		v[k] = x
	}
	for _, b := range cpuBuckets {
		name := "cpu." + b + "_s"
		v[name] = r.split.seconds[b] / n
		if s := r.split.samples[b]; s < minSamples {
			note[name] = fmt.Sprintf("below resolution: %d samples", s)
		}
	}
	v["pprof.samples"] = float64(r.split.total)
	v["cpu.runtime_in_layer_share"] = ratio(float64(r.split.runtimeInLayer), float64(r.split.total))
	v["sim.ns_per_event"] = 1e9 * ratio(r.traced.sum["sim.span_s"], r.traced.sum["sim.events"])
	v["phy.rx_ok_ratio"] = ratio(r.traced.sum["phy.rx_ok"], r.traced.sum["phy.rx_ok"]+r.traced.sum["phy.rx_collided"])
	v["app.delivery_ratio"] = ratio(r.traced.sum["app.delivered"], r.traced.sum["app.sent"])
	v["runner.cpu_util"] = ratio(r.cpu, float64(runtime.GOMAXPROCS(0))*r.wall)
	v["host.calib_s"] = (r.calib[0] + r.calib[1]) / 2
	v["trace.overhead_frac"] = mean(r.tracedOps)/mean(r.ops) - 1
	for k, x := range r.layers {
		v[k] = x
	}
	out := make([]metricValue, len(layerSpec))
	for i, s := range layerSpec {
		out[i] = metricValue{s.name, v[s.name], s.unit, note[s.name]}
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// outputDigest is the SHA-256 over each distinct input's output digest.
func (r *run) outputDigest() string {
	h := sha256.New()
	for _, o := range r.outputs {
		s := sha256.Sum256(o)
		h.Write(s[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// print writes the human-readable report that precedes the JSON line.
func (r *run) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s: attempted %d, failed %d, output_sha256 %s\n",
		r.name, r.attempted, r.failed, r.outputDigest())
	fmt.Fprintf(w, "  host.calib_s start %.4f end %.4f (diagnostic only)\n", r.calib[0], r.calib[1])
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	show := func(ms []metricValue) {
		for _, m := range ms {
			fmt.Fprintf(w, "  %-28s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
		}
	}
	fmt.Fprintf(w, "end-to-end (untraced phase: %d timed operations in %.2f s):\n", r.timed, r.wall)
	show(r.endToEnd())
	if r.trace {
		fmt.Fprintf(w, "per-layer (traced phase, per timed operation, n=%d):\n", r.tracedN)
		show(r.perLayer())
	}
}

// tracer accumulates spans and work counts over the traced phase. Its
// methods are safe for concurrent use and do nothing on a nil tracer, so
// operation code calls them unconditionally.
type tracer struct {
	mu  sync.Mutex
	sum map[string]float64 // summed over the phase, reported per operation
	max map[string]float64 // high-water marks over the phase
}

func newTracer() *tracer {
	return &tracer{sum: map[string]float64{}, max: map[string]float64{}}
}

func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sum[name] += v
	t.mu.Unlock()
}

// since adds the seconds elapsed from t0 to the span name.
func (t *tracer) since(name string, t0 time.Time) {
	if t != nil {
		t.add(name, time.Since(t0).Seconds())
	}
}

func (t *tracer) peak(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if v > t.max[name] {
		t.max[name] = v
	}
	t.mu.Unlock()
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// resetPeakRSS sets the process's resident-set high-water mark to its
// current resident set (Linux 4.0 and later).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// calibrate times a fixed, standard-library-only probe: SHA-256 over
// 64 MiB and a sort of 1 Mi float64s. It never normalises a metric; it
// lets a reader tell host drift from a regression.
func calibrate() float64 {
	t0 := time.Now()
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	h := sha256.New()
	for i := 0; i < 64; i++ {
		h.Write(buf)
	}
	h.Sum(nil)
	rng := rand.New(rand.NewPCG(1, 2))
	xs := make([]float64, 1<<20)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	sort.Float64s(xs)
	return time.Since(t0).Seconds()
}
