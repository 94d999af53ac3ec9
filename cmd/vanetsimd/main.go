// Command vanetsimd serves the simulator over HTTP: scenario configs
// in, deterministic result artifacts out, with a persistent
// content-addressed cache in between.
//
//	vanetsimd -addr :8077 -cache-dir /var/cache/vanetsimd
//	vanetsimd -cache-budget 256MiB -workers 4 -rate 5
//
// Endpoints:
//
//	POST /v1/run             submit a config (JSON); NDJSON progress stream
//	GET  /v1/results/{hash}  fetch a cached artifact verbatim
//	GET  /v1/status          cache occupancy, queue depth, drain state
//	GET  /metrics            Prometheus text format (service/* metrics)
//	GET  /healthz            liveness (503 while draining)
//
// Because every run is a pure function of its canonical config, a
// cache hit is byte-identical to a fresh run — resubmitting a config
// never re-simulates. SIGINT/SIGTERM drain gracefully: no new jobs
// are admitted, in-flight simulations finish and are cached, then the
// process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vanetsim/internal/cliflag"
	"vanetsim/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "vanetsimd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("vanetsimd", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":8077", "listen address")
		cacheDir = fs.String("cache-dir", defaultCacheDir(), "result cache directory")
		budget   = fs.String("cache-budget", "0", "cache disk budget, e.g. 512MiB or 1GiB (0 = unlimited)")
		workers  = fs.Int("workers", 2, "concurrently executing simulation jobs")
		depth    = fs.Int("queue-depth", 16, "accepted-but-unstarted job backlog before 503s")
		maxSim   = fs.Float64("max-sim-seconds", 3600, "per-request budget on total simulated seconds")
		maxVeh   = fs.Int("max-vehicles", 4096, "per-request budget on a single run's fleet size")
		rate     = fs.Float64("rate", 0, "per-client run requests per second (0 = unlimited)")
		burst    = fs.Int("rate-burst", 8, "per-client token-bucket burst")
		drainFor = fs.Duration("drain-timeout", 10*time.Minute, "how long shutdown waits for in-flight jobs")
	)
	if err := cliflag.Parse(fs, args); err != nil {
		return err
	}
	budgetBytes, err := parseBytes(*budget)
	if err != nil {
		return err
	}

	svc, err := service.New(service.Config{
		CacheDir:      *cacheDir,
		CacheBudget:   budgetBytes,
		Workers:       *workers,
		QueueDepth:    *depth,
		MaxSimSeconds: *maxSim,
		MaxVehicles:   *maxVeh,
		RatePerSec:    *rate,
		RateBurst:     *burst,
	})
	if err != nil {
		return err
	}

	httpSrv := &http.Server{Addr: *addr, Handler: svc.Handler()}
	errc := make(chan error, 1)
	go func() {
		log.Printf("vanetsimd: listening on %s, cache %s", *addr, svc.Cache())
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		log.Printf("vanetsimd: %v — draining (new runs refused, in-flight jobs finishing)", sig)
	}

	// Drain order matters: refuse new work first, then let open HTTP
	// streams (clients watching their runs) end naturally, then wait
	// for the queue to finish and cache everything it accepted.
	svc.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	svc.Close()
	log.Printf("vanetsimd: drained, cache %s", svc.Cache())
	return nil
}

// defaultCacheDir places the cache under the user cache root, falling
// back to a fixed temp path for environments without one.
func defaultCacheDir() string {
	if dir, err := os.UserCacheDir(); err == nil {
		return filepath.Join(dir, "vanetsimd")
	}
	return filepath.Join(os.TempDir(), "vanetsimd-cache")
}

// parseBytes reads a human byte size: plain digits, or KiB/MiB/GiB
// (binary) suffixes.
func parseBytes(s string) (int64, error) {
	mult := int64(1)
	upper := strings.ToUpper(strings.TrimSpace(s))
	for suffix, m := range map[string]int64{"KIB": 1 << 10, "MIB": 1 << 20, "GIB": 1 << 30} {
		if strings.HasSuffix(upper, suffix) {
			mult = m
			upper = strings.TrimSpace(strings.TrimSuffix(upper, suffix))
			break
		}
	}
	n, err := strconv.ParseInt(upper, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad byte size %q (want e.g. 0, 1048576, 512MiB, 1GiB)", s)
	}
	return n * mult, nil
}
