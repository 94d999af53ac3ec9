package canon

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzCanonicalRoundTrip checks the cache key's soundness in both
// directions for any JSON body the canonicaliser accepts. (1)
// Injectivity: perturbing any keyed field of the resolved config, walked
// through the same `canon` tags the encoder uses, must move the hash.
// (2) Stability: rewriting the body through a generic map[string]any,
// which re-orders every object's keys, must reproduce the exact hash. A
// failure of (1) aliases two different configurations onto one cache
// entry; a failure of (2) splits entries on the wire form instead of the
// semantic configuration.
func FuzzCanonicalRoundTrip(f *testing.F) {
	f.Add(`{"kind":"trial","trial":{"trial":1}}`)
	f.Add(`{"kind":"trial","trial":{"trial":0,"mac":"802.11","packet":500,"duration_s":40,"seed":7}}`)
	f.Add(`{"kind":"trial","trial":{"trial":2,"telemetry":true,"check":true}}`)
	f.Add(`{"kind":"trial","trial":{"trial":3,"faults":{"loss":0.05,"burst_loss":0.1,"burst_len":4,"shadow_db":6,"outages":[{"node":1,"start_s":22,"duration_s":5}]}}}`)
	f.Add(`{"kind":"dense","dense":{"vehicles":240,"lanes":4,"platoon_len":10,"beacon_fraction":0.25,"duration_s":8}}`)
	f.Add(`{"kind":"dense","dense":{"vehicles":48,"mac":"dcf","beacon_fraction":0,"safety_depth":2,"beacon_jitter":0.5}}`)
	f.Add(`{"kind":"degradation","degradation":{"mac":"tdma","loss_probs":[0,0.1,0.3],"burst_len":4,"duration_s":20}}`)
	f.Add(`{"kind":"degradation","degradation":{"outage":{"node":1,"start_s":22,"duration_s":5}}}`)
	f.Add(`{"kind":"replication","replication":{"trial":{"trial":3,"duration_s":40},"tolerance":0.05}}`)
	f.Add(`{"kind":"replication","replication":{"trial":{"trial":1,"seed":9,"check":true},"tolerance":0.02,"min_reps":3,"max_reps":8}}`)
	f.Add(`{"kind":"replication","replication":{"trial":{"trial":0,"mac":"802.11","packet":500,"faults":{"loss":0.1}},"tolerance":0.1,"max_reps":16}}`)

	f.Fuzz(func(t *testing.T, body string) {
		req, err := Decode(strings.NewReader(body))
		if err != nil {
			return
		}
		c1, err := Canonicalize(req)
		if err != nil {
			return
		}
		s, _ := c1.root()
		for _, f := range perturbedHashes(c1, s.hashed, false) {
			t.Fatalf("changing keyed field %s of %s left the hash unchanged", f, body)
		}

		// Reorder every object's fields by bouncing the body through a
		// generic map (Go maps marshal with sorted keys). UseNumber keeps
		// 64-bit seeds exact.
		dec := json.NewDecoder(strings.NewReader(body))
		dec.UseNumber()
		var generic any
		if err := dec.Decode(&generic); err != nil {
			return
		}
		reordered, err := json.Marshal(generic)
		if err != nil {
			return
		}
		req2, err := Decode(bytes.NewReader(reordered))
		if err != nil {
			// The generic bounce can legalise duplicate keys the strict
			// decoder tolerated; only equal-decodable bodies must agree.
			return
		}
		c2, err := Canonicalize(req2)
		if err != nil {
			return
		}
		if c2.Hash() != c1.Hash() {
			t.Fatalf("field reordering changed the hash:\noriginal:  %s\nreordered: %s", body, reordered)
		}
	})
}
