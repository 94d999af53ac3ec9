package canon

import (
	"crypto/sha256"
	"strings"
	"testing"
)

// sinkHash keeps the compiler from eliding the hash computation.
var sinkHash Hash

// BenchmarkCanonicalHash pins the cache-key hot path: encoding a
// resolved trial config into a reused buffer and hashing it must not
// allocate (BENCH.json holds it at 0 allocs/op). Every request
// the daemon serves — hit or miss — pays exactly this cost before the
// cache is consulted.
func BenchmarkCanonicalHash(b *testing.B) {
	req, err := Decode(strings.NewReader(
		`{"kind":"trial","trial":{"trial":1,"telemetry":true,"check":true,"faults":{"loss":0.05,"burst_loss":0.1,"outages":[{"node":1,"start_s":22,"duration_s":5}]}}}`))
	if err != nil {
		b.Fatal(err)
	}
	c, err := Canonicalize(req)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = c.AppendBinary(buf[:0])
		sinkHash = sha256.Sum256(buf)
	}
}
