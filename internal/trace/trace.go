// Package trace records simulation events in an ns-2-like trace format and
// parses them back. The paper computed its one-way delay "offline by
// parsing the trace file"; cmd/ebltrace reproduces that workflow on the
// traces this package writes.
//
// Line format (one event per line):
//
//	s 12.000350 _0_ AGT --- 42 tcp 1040 [0:100 1:200] 5
//
// fields: op time _node_ layer reason uid type size [src:sport dst:dport]
// seq. Reason is "---" when absent; seq is the transport sequence number
// or -1.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"vanetsim/internal/packet"
	"vanetsim/internal/sim"
)

// Op is the event kind.
type Op byte

// Event kinds, using ns-2's letters.
const (
	Send    Op = 's'
	Recv    Op = 'r'
	Drop    Op = 'd'
	Forward Op = 'f'
)

// Layer identifies where in the stack the event happened.
type Layer string

// Stack layers, ns-2 names.
const (
	LayerAgent   Layer = "AGT" // application/transport boundary
	LayerRouting Layer = "RTR"
	LayerIfq     Layer = "IFQ"
	LayerMac     Layer = "MAC"
)

// Record is one trace event.
type Record struct {
	Op     Op
	At     sim.Time
	Node   packet.NodeID
	Layer  Layer
	Reason string // drop reason, empty otherwise
	UID    uint64
	Type   string // packet type name ("tcp", "ack", "AODV", ...)
	Size   int
	Src    packet.NodeID
	SrcPt  int
	Dst    packet.NodeID
	DstPt  int
	Seq    int // transport sequence number, -1 if none
}

// AppendLine appends the record's trace-file line (no trailing newline) to
// buf and returns the extended slice. Callers that reuse the returned
// buffer encode with zero allocations; the byte output is identical to the
// fmt-based formatting this replaced ('f' with 6 digits is exactly %.6f).
func (r Record) AppendLine(buf []byte) []byte {
	buf = append(buf, byte(r.Op), ' ')
	buf = strconv.AppendFloat(buf, float64(r.At), 'f', 6, 64)
	buf = append(buf, ' ', '_')
	buf = strconv.AppendInt(buf, int64(int32(r.Node)), 10)
	buf = append(buf, '_', ' ')
	buf = append(buf, r.Layer...)
	buf = append(buf, ' ')
	if r.Reason == "" {
		buf = append(buf, "---"...)
	} else {
		buf = append(buf, r.Reason...)
	}
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, r.UID, 10)
	buf = append(buf, ' ')
	buf = append(buf, r.Type...)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(r.Size), 10)
	buf = append(buf, ' ', '[')
	buf = strconv.AppendInt(buf, int64(int32(r.Src)), 10)
	buf = append(buf, ':')
	buf = strconv.AppendInt(buf, int64(r.SrcPt), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(int32(r.Dst)), 10)
	buf = append(buf, ':')
	buf = strconv.AppendInt(buf, int64(r.DstPt), 10)
	buf = append(buf, ']', ' ')
	buf = strconv.AppendInt(buf, int64(r.Seq), 10)
	return buf
}

// Line formats the record in the trace-file syntax.
func (r Record) Line() string { return string(r.AppendLine(nil)) }

// FromPacket fills a record's packet-derived fields.
func FromPacket(op Op, at sim.Time, node packet.NodeID, layer Layer, p *packet.Packet) Record {
	seq := -1
	if p.TCP != nil {
		seq = p.TCP.Seq
	}
	return Record{
		Op: op, At: at, Node: node, Layer: layer,
		UID: p.UID, Type: p.Type.String(), Size: p.Size,
		Src: p.IP.Src, SrcPt: p.IP.SrcPort,
		Dst: p.IP.Dst, DstPt: p.IP.DstPort,
		Seq: seq,
	}
}

// asciiSpace marks the ASCII bytes unicode.IsSpace reports as whitespace,
// the same fast-path table strings.Fields uses.
var asciiSpace = [256]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

// splitFields splits line on Unicode whitespace exactly like
// strings.Fields, writing at most len(dst) fields and returning the total
// field count (which may exceed len(dst)). The fields are substrings
// sharing line's backing array, so splitting allocates nothing.
func splitFields(line string, dst []string) int {
	n := 0
	for i := 0; i < len(line); {
		space, w := false, 1
		if c := line[i]; c < utf8.RuneSelf {
			space = asciiSpace[c] == 1
		} else {
			var r rune
			r, w = utf8.DecodeRuneInString(line[i:])
			space = unicode.IsSpace(r)
		}
		if space {
			i += w
			continue
		}
		start := i
		for i < len(line) {
			space, w = false, 1
			if c := line[i]; c < utf8.RuneSelf {
				space = asciiSpace[c] == 1
			} else {
				var r rune
				r, w = utf8.DecodeRuneInString(line[i:])
				space = unicode.IsSpace(r)
			}
			if space {
				break
			}
			i += w
		}
		if n < len(dst) {
			dst[n] = line[start:i]
		}
		n++
	}
	return n
}

// Parse decodes one trace line. It allocates only on error: the field
// scanner and the strconv parsers all work on substrings of line.
func Parse(line string) (Record, error) {
	var f [11]string
	if n := splitFields(line, f[:]); n != 11 {
		return Record{}, fmt.Errorf("trace: want 11 fields, got %d in %q", n, line)
	}
	var r Record
	if len(f[0]) != 1 {
		return Record{}, fmt.Errorf("trace: bad op %q", f[0])
	}
	switch Op(f[0][0]) {
	case Send, Recv, Drop, Forward:
		r.Op = Op(f[0][0])
	default:
		return Record{}, fmt.Errorf("trace: unknown op %q", f[0])
	}
	at, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return Record{}, fmt.Errorf("trace: bad time: %w", err)
	}
	r.At = sim.Time(at)
	node := strings.Trim(f[2], "_")
	n, err := strconv.ParseInt(node, 10, 32)
	if err != nil {
		return Record{}, fmt.Errorf("trace: bad node: %w", err)
	}
	r.Node = packet.NodeID(n)
	r.Layer = Layer(f[3])
	if f[4] != "---" {
		r.Reason = f[4]
	}
	uid, err := strconv.ParseUint(f[5], 10, 64)
	if err != nil {
		return Record{}, fmt.Errorf("trace: bad uid: %w", err)
	}
	r.UID = uid
	r.Type = f[6]
	size, err := strconv.Atoi(f[7])
	if err != nil {
		return Record{}, fmt.Errorf("trace: bad size: %w", err)
	}
	r.Size = size
	srcPart := strings.TrimPrefix(f[8], "[")
	dstPart := strings.TrimSuffix(f[9], "]")
	if r.Src, r.SrcPt, err = parseAddr(srcPart); err != nil {
		return Record{}, err
	}
	if r.Dst, r.DstPt, err = parseAddr(dstPart); err != nil {
		return Record{}, err
	}
	seq, err := strconv.Atoi(f[10])
	if err != nil {
		return Record{}, fmt.Errorf("trace: bad seq: %w", err)
	}
	r.Seq = seq
	return r, nil
}

func parseAddr(s string) (packet.NodeID, int, error) {
	host, port, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("trace: bad address %q", s)
	}
	h, err := strconv.ParseInt(host, 10, 32)
	if err != nil {
		return 0, 0, fmt.Errorf("trace: bad address host: %w", err)
	}
	p, err := strconv.Atoi(port)
	if err != nil {
		return 0, 0, fmt.Errorf("trace: bad address port: %w", err)
	}
	return packet.NodeID(h), p, nil
}

// WriteAll writes records to w one line each, buffered — the inverse of
// ReadAll. It is the on-disk format's only producer.
func WriteAll(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	var buf []byte
	for _, r := range recs {
		buf = append(r.AppendLine(buf[:0]), '\n')
		if _, err := bw.Write(buf); err != nil {
			return fmt.Errorf("trace: write: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: write: %w", err)
	}
	return nil
}

// Collector accumulates records in memory. The zero value is ready to use.
type Collector struct {
	recs []Record
}

// Add records one event.
func (c *Collector) Add(r Record) { c.recs = append(c.recs, r) }

// Records returns all events in order.
func (c *Collector) Records() []Record { return c.recs }

// ReadAll parses a whole trace stream.
func ReadAll(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	ln := 0
	for sc.Scan() {
		ln++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rec, err := Parse(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return out, nil
}
