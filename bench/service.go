package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"vanetsim/internal/service"
	"vanetsim/internal/service/cache"
	"vanetsim/internal/service/canon"
)

// mixSize sizes the service-mix workload.
type mixSize struct {
	Configs  int // distinct trial configurations: exactly one miss each
	Requests int // requests across both clients, misses included
	// afterMiss, when set, is called with the cache directory and the
	// artifact hash right after each configuration's miss. The negative
	// test uses it to damage a stored artifact.
	afterMiss func(cacheDir, hash string)
}

const (
	mixClients = 2  // closed-loop clients, one connection each
	mixWorkers = 2  // service simulation workers
	mixSimS    = 40 // simulated seconds per trial-3 configuration
	// microReps is how many batches the traced phase times for each canon
	// and cache call; the per-call figure is the median batch.
	microReps = 200
	// mixSetupReps is how many times the workload starts its service. A
	// start takes about half a millisecond, mostly in system calls whose
	// time varied fourfold within one run on the reference host, so the
	// median needs more repetitions than setupReps gives.
	mixSetupReps = 31
)

// serviceMix drives an in-process service over loopback HTTP with two
// closed-loop clients. Client c owns the configurations k with
// k%2 == c, so no request coalesces: each configuration misses once,
// when it first appears, and every later request for it hits. A request
// is POST /v1/run read to its done event, then GET /v1/results/{hash};
// every hit must return the bytes its configuration's miss returned.
func serviceMix(r *run, seed uint64, sz mixSize) error {
	if sz.Requests < sz.Configs {
		return fmt.Errorf("service-mix: %d requests cannot introduce %d configurations", sz.Requests, sz.Configs)
	}
	var (
		s      *svc
		bodies [][]byte
	)
	for i := 0; i < mixSetupReps; i++ {
		if s != nil {
			s.stop() // tearing the last repetition down is not set-up
		}
		t0 := time.Now()
		bodies = mixBodies(seed, sz.Configs)
		var err error
		if s, err = startService(r.tmp); err != nil {
			return err
		}
		r.setupDone(t0)
	}
	artifacts := make([][]byte, sz.Configs)
	hashes := make([]string, sz.Configs)
	var tracedHits []float64
	for _, traced := range r.phases() {
		if traced {
			s.stop()
			var err error
			if s, err = startService(r.tmp); err != nil {
				return err
			}
		}
		err := r.phase(traced, func() error {
			stop := r.sampleRSS(time.Second)
			loads := s.load(seed, sz, bodies, artifacts, hashes)
			stop()
			for _, rs := range loads {
				for i, d := range rs.d {
					kind := opHit
					if rs.miss[i] {
						kind = opMiss
					} else if traced {
						tracedHits = append(tracedHits, d.Seconds())
					}
					r.op(d, kind, rs.errs[i])
				}
			}
			return nil
		})
		if err != nil {
			s.stop()
			return err
		}
	}
	defer s.stop()
	for _, a := range artifacts {
		r.output(a)
	}

	// The HTTP path must serve exactly what the library renders.
	t0 := time.Now()
	ref, err := buildArtifact(bodies[0])
	if r.trace {
		r.layers["service.artifact_s"] = time.Since(t0).Seconds()
	}
	if err == nil && !bytes.Equal(ref, artifacts[0]) {
		err = fmt.Errorf("config 0: served artifact differs from service.BuildArtifact")
	}
	r.check(err)
	if r.trace {
		return s.traceLayers(r, bodies, artifacts, hashes, median(tracedHits))
	}
	return nil
}

// mixBodies returns the request bodies: trial 3 at 40 s simulated, one
// seed per configuration.
func mixBodies(seed uint64, configs int) [][]byte {
	bodies := make([][]byte, configs)
	for k := range bodies {
		bodies[k] = []byte(fmt.Sprintf(`{"kind":"trial","trial":{"trial":3,"duration_s":%d,"seed":%d}}`,
			mixSimS, seed*uint64(configs)+uint64(k)+1))
	}
	return bodies
}

// mixSchedule returns client c's request sequence as configuration
// indices. The client's j-th configuration first appears at its request
// j·m/owned; every other request picks uniformly among the client's
// configurations introduced so far.
func mixSchedule(seed uint64, c int, sz mixSize) []int {
	var own []int
	for k := c; k < sz.Configs; k += mixClients {
		own = append(own, k)
	}
	m := sz.Requests / mixClients
	if c < sz.Requests%mixClients {
		m++
	}
	rng := rand.New(rand.NewPCG(seed, uint64(c)))
	seq := make([]int, m)
	intro := 0
	for i := range seq {
		if intro < len(own) && i >= intro*m/len(own) {
			seq[i] = own[intro]
			intro++
			continue
		}
		seq[i] = own[rng.IntN(intro)]
	}
	return seq
}

// svc is one in-process service behind a loopback HTTP server.
type svc struct {
	dir    string
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
}

// startService opens a fresh cache directory under parent, starts the
// service on it and waits until it answers its health check.
func startService(parent string) (*svc, error) {
	dir, err := os.MkdirTemp(parent, "cache-")
	if err != nil {
		return nil, err
	}
	srv, err := service.New(service.Config{CacheDir: dir, Workers: mixWorkers})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &svc{
		dir:    dir,
		srv:    srv,
		ts:     httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: mixClients, MaxIdleConnsPerHost: mixClients}},
	}
	resp, err := s.client.Get(s.ts.URL + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop shuts the server down, drains the service and removes its cache.
func (s *svc) stop() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	s.srv.Close()
	os.RemoveAll(s.dir)
}

// requests is one client's outcomes in schedule order: each request's
// latency, whether it was its configuration's first, and the rare errors
// by index. A run holds hundreds of thousands, so the record is compact
// and allocated up front, to keep the harness out of peak_rss_mb.
type requests struct {
	d    []time.Duration
	miss []bool
	errs map[int]error
}

// load runs both clients' schedules to completion and returns each
// client's requests. Each client checks its own requests: a
// configuration's first answer is recorded in artifacts and hashes (or, if
// a previous phase recorded it, compared), and every later answer is
// compared with it. Clients own disjoint configurations, so they never
// touch the same elements.
func (s *svc) load(seed uint64, sz mixSize, bodies, artifacts [][]byte, hashes []string) []requests {
	out := make([]requests, mixClients)
	var wg sync.WaitGroup
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sched := mixSchedule(seed, c, sz)
			rs := requests{d: make([]time.Duration, len(sched)), miss: make([]bool, len(sched)), errs: map[int]error{}}
			seen := make(map[int]bool)
			for i, k := range sched {
				rs.miss[i] = !seen[k]
				seen[k] = true
				t0 := time.Now()
				cached, hash, artifact, err := s.do(bodies[k])
				rs.d[i] = time.Since(t0)
				if err == nil {
					err = verify(k, rs.miss[i], cached, hash, artifact, artifacts, hashes)
				}
				if rs.miss[i] && err == nil && sz.afterMiss != nil {
					sz.afterMiss(s.dir, hash)
				}
				if err != nil {
					rs.errs[i] = err
				}
			}
			out[c] = rs
		}(c)
	}
	wg.Wait()
	return out
}

// event mirrors one NDJSON line of the service's run stream.
type event struct {
	Event  string `json:"event"`
	Hash   string `json:"hash"`
	Cached bool   `json:"cached"`
	Bytes  int    `json:"bytes"`
	Error  string `json:"error"`
}

// do submits one run request, reads its stream to the done event and
// fetches the artifact.
func (s *svc) do(body []byte) (cached bool, hash string, artifact []byte, err error) {
	done, err := s.submit(body)
	if err != nil {
		return false, "", nil, err
	}
	got, err := s.client.Get(s.ts.URL + "/v1/results/" + done.Hash)
	if err != nil {
		return false, "", nil, err
	}
	defer got.Body.Close()
	artifact, err = io.ReadAll(got.Body)
	if err != nil {
		return false, "", nil, err
	}
	if got.StatusCode != http.StatusOK {
		return false, "", nil, fmt.Errorf("GET /v1/results: %s", got.Status)
	}
	if len(artifact) != done.Bytes {
		return false, "", nil, fmt.Errorf("GET /v1/results/%s: %d bytes, done event announced %d", done.Hash, len(artifact), done.Bytes)
	}
	return done.Cached, done.Hash, artifact, nil
}

// submit posts a run request and returns its done event. It reads the
// stream to its end, which returns the connection to the client's pool
// for the fetch that follows: with one connection per client, a fetch
// issued while the stream is open would wait forever.
func (s *svc) submit(body []byte) (*event, error) {
	resp, err := s.client.Post(s.ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("POST /v1/run: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	var done *event
	dec := json.NewDecoder(resp.Body)
	for {
		var e event
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("POST /v1/run: %w", err)
		}
		if e.Event == "done" {
			done = &e
		}
	}
	switch {
	case done == nil:
		return nil, fmt.Errorf("POST /v1/run: stream ended without a done event")
	case done.Error != "":
		return nil, fmt.Errorf("POST /v1/run: job failed: %s", done.Error)
	}
	return done, nil
}

// verify checks one answer for configuration k against its miss: a miss
// must be uncached and becomes the reference (a later phase's fresh
// service must reproduce it); a hit must be cached and return the
// reference bytes under the same hash.
func verify(k int, miss, cached bool, hash string, artifact []byte, artifacts [][]byte, hashes []string) error {
	switch {
	case miss && cached:
		return fmt.Errorf("config %d: first request answered from the cache", k)
	case miss && artifacts[k] == nil:
		artifacts[k], hashes[k] = artifact, hash
		return nil
	case !miss && !cached:
		return fmt.Errorf("config %d: repeat request was not a cache hit", k)
	case hash != hashes[k]:
		return fmt.Errorf("config %d: answer hash %s, first answer %s", k, hash, hashes[k])
	case !bytes.Equal(artifact, artifacts[k]):
		return fmt.Errorf("config %d: answer on %s differs from the first answer's bytes", k, hash)
	}
	return nil
}

// buildArtifact renders a request body's artifact through the library,
// bypassing HTTP, the queue and the cache.
func buildArtifact(body []byte) ([]byte, error) {
	req, err := canon.Decode(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	c, err := canon.Canonicalize(req)
	if err != nil {
		return nil, err
	}
	return service.BuildArtifact(c, nil)
}

// traceLayers reads the service's counters and times the hit path's
// canon and cache calls on the workload's own inputs.
func (s *svc) traceLayers(r *run, bodies, artifacts [][]byte, hashes []string, hitP50 float64) error {
	counters, err := s.counters()
	if err != nil {
		return err
	}
	r.layers["service.hits"] = counters["service_cache_hits_total"]
	r.layers["service.misses"] = counters["service_cache_misses_total"]
	r.layers["service.coalesced"] = counters["service_coalesced_total"]

	reqs := make([]canon.Request, len(bodies))
	cans := make([]*canon.Canonical, len(bodies))
	for i, b := range bodies {
		if reqs[i], err = canon.Decode(bytes.NewReader(b)); err != nil {
			return err
		}
		if cans[i], err = canon.Canonicalize(reqs[i]); err != nil {
			return err
		}
	}
	decode := perCall(microReps, len(bodies), func(i int) { canon.Decode(bytes.NewReader(bodies[i])) })
	canonicalize := perCall(microReps, len(bodies), func(i int) { canon.Canonicalize(reqs[i]) })
	hash := perCall(microReps, len(bodies), func(i int) { cans[i].Hash() })
	get := perCall(microReps, len(bodies), func(i int) { s.srv.Cache().Get(hashes[i]) })
	scratch, err := cache.Open(filepath.Join(r.tmp, "put"), 0)
	if err != nil {
		return err
	}
	put := perCall(microReps/10, len(bodies), func(i int) { scratch.Put(hashes[i], artifacts[i]) })

	r.layers["canon.decode_us"] = 1e6 * decode
	r.layers["canon.canonicalize_us"] = 1e6 * canonicalize
	r.layers["canon.hash_us"] = 1e6 * hash
	r.layers["cache.get_us"] = 1e6 * get
	r.layers["cache.put_us"] = 1e6 * put
	// A hit decodes, canonicalises, hashes and reads the cache for the
	// POST, then reads the cache again for the GET; the rest is HTTP.
	r.layers["http.hit_residual_us"] = 1e6 * (hitP50 - decode - canonicalize - hash - 2*get)
	return nil
}

// perCall returns the median over reps batches of the seconds one call of
// fn takes, each batch calling fn(0) … fn(n-1).
func perCall(reps, n int, fn func(i int)) float64 {
	per := make([]float64, reps)
	for j := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		per[j] = time.Since(t0).Seconds() / float64(n)
	}
	return median(per)
}

// counters scrapes the service's Prometheus counters.
func (s *svc) counters() (map[string]float64, error) {
	resp, err := s.client.Get(s.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}
