// Command ebltrace reproduces the paper's offline methodology: it parses
// an ns-2-style trace file (written by `vanetsim -trace`) and computes the
// one-way delay and throughput statistics from the raw send/receive
// events, independently of the simulator's online bookkeeping.
//
//	vanetsim -trial 1 -trace t1.tr
//	ebltrace t1.tr
//	vanetsim -trial 1 -trace /dev/stdout | ebltrace -        # stream from stdin
//	ebltrace -format chrome t1.tr > t1.json                  # chrome://tracing view
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"vanetsim"
	"vanetsim/internal/cliflag"
	"vanetsim/internal/packet"
	"vanetsim/internal/sim"
	"vanetsim/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "ebltrace:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("ebltrace", flag.ContinueOnError)
	bin := fs.Float64("bin", 0.5, "throughput bin width in seconds")
	stats := fs.Bool("stats", false, "print a telemetry-style summary of the trace records")
	statsJSN := fs.String("stats-json", "", "write the trace summary as NDJSON to this path")
	format := fs.String("format", "report", "output format: report (delay/throughput tables) or chrome (trace-event JSON)")
	if err := cliflag.Parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: ebltrace [-bin seconds] [-stats] [-stats-json path] [-format report|chrome] <trace-file|->")
	}
	switch *format {
	case "report":
		if b := *bin; !(b > 0) || math.IsInf(b, 1) {
			return fmt.Errorf("invalid -bin %v: want a positive finite width in seconds", b)
		}
	case "chrome":
		if set := cliflag.Set(fs, "bin", "stats", "stats-json"); len(set) > 0 {
			return fmt.Errorf("-format chrome does not take %s", strings.Join(set, ", "))
		}
	default:
		return fmt.Errorf("unknown -format %q (want report or chrome)", *format)
	}
	src := in
	if name := fs.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	recs, err := trace.ReadAll(src)
	if err != nil {
		return err
	}
	if *format == "chrome" {
		return writeChromeTrace(out, recs)
	}
	fmt.Fprintf(out, "%d trace records\n\n", len(recs))

	if *stats || *statsJSN != "" {
		snap := traceSnapshot(recs)
		if *statsJSN != "" {
			jf, err := os.Create(*statsJSN)
			if err != nil {
				return err
			}
			if err := snap.NDJSON(jf); err != nil {
				jf.Close()
				return err
			}
			if err := jf.Close(); err != nil {
				return err
			}
		}
		if *stats {
			fmt.Fprintln(out, "Trace telemetry:")
			fmt.Fprint(out, snap.FormatText())
			fmt.Fprintln(out)
		}
	}

	delays := trace.OneWayDelays(recs)
	keys := make([]trace.FlowKey, 0, len(delays))
	for k := range delays {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Src != keys[j].Src {
			return keys[i].Src < keys[j].Src
		}
		return keys[i].Dst < keys[j].Dst
	})
	fmt.Fprintln(out, "One-way delay per flow (computed from the trace):")
	fmt.Fprintf(out, "%-18s %6s %9s %9s %9s %9s %9s\n", "flow", "n", "avg(s)", "min(s)", "max(s)", "first(s)", "steady(s)")
	for _, k := range keys {
		s := delays[k]
		sm := s.Summary()
		first, _ := s.First()
		_, steady := s.SteadyState()
		flow := fmt.Sprintf("%v:%d->%v:%d", k.Src, k.SrcPt, k.Dst, k.DstPt)
		fmt.Fprintf(out, "%-18s %6d %9.4f %9.4f %9.4f %9.4f %9.4f\n",
			flow, sm.N, sm.Mean, sm.Min, sm.Max, float64(first), steady)
	}

	fmt.Fprintln(out, "\nThroughput per receiving node:")
	fmt.Fprintf(out, "%-6s %10s %10s %10s %12s %8s\n", "node", "avg(Mbps)", "min(Mbps)", "max(Mbps)", "95%CI(Mbps)", "relprec")
	tps := trace.FlowThroughput(recs, sim.Time(*bin))
	nodes := make([]packet.NodeID, 0, len(tps))
	for n := range tps {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	end := lastTime(recs)
	for _, n := range nodes {
		tp := tps[n]
		sm := tp.Summary(end)
		ci := tp.CI(end, 10, 0.95)
		fmt.Fprintf(out, "%-6v %10.4f %10.4f %10.4f %12.4f %7.1f%%\n",
			n, sm.Mean, sm.Min, sm.Max, ci.HalfWidth, ci.RelPrecision()*100)
	}
	return nil
}

// opNames maps trace ops to metric-name slugs.
var opNames = map[trace.Op]string{
	trace.Send: "send", trace.Recv: "recv", trace.Drop: "drop", trace.Forward: "forward",
}

// traceSnapshot summarises a trace as a telemetry snapshot: record counts
// by operation × layer, drop reasons, packet types, and the covered time
// span — the same shapes the live registry reports, recovered offline.
func traceSnapshot(recs []trace.Record) *vanetsim.Telemetry {
	reg := vanetsim.NewTelemetryRegistry()
	reg.Counter("trace/records_total", "trace records parsed").Add(uint64(len(recs)))
	for _, r := range recs {
		op := opNames[r.Op]
		if op == "" {
			op = "other"
		}
		reg.Counter("trace/"+op+"_"+strings.ToLower(string(r.Layer)),
			"trace records by operation and layer").Inc()
		reg.Counter("trace/type_"+strings.ToLower(r.Type),
			"trace records by packet type").Inc()
		if r.Op == trace.Drop && r.Reason != "" {
			reg.Counter("trace/drop_reason_"+strings.ToLower(r.Reason),
				"drops by recorded reason").Inc()
		}
	}
	reg.Gauge("trace/span_s", "time covered by the trace").Set(float64(lastTime(recs)))
	return reg.Snapshot()
}

func lastTime(recs []trace.Record) sim.Time {
	var end sim.Time
	for _, r := range recs {
		if r.At > end {
			end = r.At
		}
	}
	return end
}

// writeChromeTrace converts parsed trace records to Chrome trace-event JSON
// (chrome://tracing / Perfetto): one instant event per record on the node's
// thread track, plus one complete ("X") "flight" event per agent-level
// send/receive pair showing the packet's one-way flight on the receiver's
// track. Timestamps are microseconds, as the format requires.
func writeChromeTrace(out io.Writer, recs []trace.Record) error {
	type key struct {
		uid uint64
		dst packet.NodeID
	}
	sends := make(map[key]sim.Time)
	us := func(t sim.Time) float64 { return float64(t) * 1e6 }
	first := true
	emit := func(format string, args ...any) error {
		sep := ",\n"
		if first {
			sep, first = "", false
		}
		_, err := fmt.Fprintf(out, sep+format, args...)
		return err
	}
	if _, err := fmt.Fprint(out, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	for _, r := range recs {
		if r.Layer == trace.LayerAgent {
			k := key{r.UID, r.Dst}
			switch r.Op {
			case trace.Send:
				sends[k] = r.At
			case trace.Recv:
				if at, ok := sends[k]; ok {
					delete(sends, k)
					if err := emit(`{"name":"flight","cat":"agt","ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{"uid":%d,"type":%q,"size":%d}}`,
						us(at), us(r.At-at), int32(r.Node), r.UID, r.Type, r.Size); err != nil {
						return err
					}
				}
			}
		}
		name := opNames[r.Op]
		if name == "" {
			name = "other"
		}
		name += " " + string(r.Layer)
		if r.Op == trace.Drop && r.Reason != "" {
			name += "/" + r.Reason
		}
		if err := emit(`{"name":%q,"cat":%q,"ph":"i","ts":%.3f,"pid":1,"tid":%d,"s":"t","args":{"uid":%d,"type":%q,"size":%d}}`,
			name, strings.ToLower(string(r.Layer)), us(r.At), int32(r.Node), r.UID, r.Type, r.Size); err != nil {
			return err
		}
	}
	_, err := fmt.Fprint(out, "\n]}\n")
	return err
}
