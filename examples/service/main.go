// Service walkthrough: the full aggsimd round trip in one process.
//
// A production deployment runs `aggsimd` as a daemon and talks to it with
// the `pimdsm submit/status/result/jobs` subcommands; this example embeds
// the same server in-process so the whole lifecycle — submit, progress,
// cache hit, admission-window rejection, graceful drain — runs as one
// self-contained program:
//
//	go run ./examples/service
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"time"

	"pimdsm"
)

func main() {
	// 1. Start the service: 1 simulation slot, an admission window of 2, a
	// persistent cache index. This is exactly what `aggsimd -slots 1
	// -queue 2 -cache-file ...` wires, minus the signal handling.
	cacheFile := "service-example.cache"
	defer os.Remove(cacheFile)
	// A budget of 1 simulation slot makes a job's wall time the sum of its
	// runs — which is what lets the submit storm below actually fill the
	// queue on a fast machine.
	srv, err := pimdsm.NewServer(pimdsm.ServerOptions{
		Slots:      1,
		QueueLimit: 2,
		CachePath:  cacheFile,
	}, 1)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Expose it over HTTP next to the live dashboard and talk to it
	// through the same client the CLI uses.
	dash := pimdsm.NewDashboard()
	addr, closeHTTP, err := pimdsm.NewServiceAPI(srv, dash).ListenAndServe("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer closeHTTP()
	fmt.Printf("aggsimd (embedded) listening on http://%s/\n\n", addr)
	client := pimdsm.NewServiceClient(addr)

	// 3. Submit the paper's Figure 6 batch for FFT at a demo scale and
	// stream its progress while it simulates.
	job := pimdsm.JobSpec{Name: "fig6-fft", Metrics: true,
		Configs: pimdsm.Figure6Specs("fft", 8, 0.1)}
	st, err := client.Submit(job)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted %s (%d configurations):\n", st.ID, st.Total)
	if err := client.StreamProgress(context.Background(), st.ID, os.Stdout); err != nil {
		log.Fatal(err)
	}
	first, results, err := client.Result(st.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("=> %d results, %d simulated, %d bytes of canonical JSON\n\n",
		len(results), first.Simulated, len(results[0]))

	// 4. Resubmit the identical batch: every configuration is served from
	// the content-addressed cache, byte-identical, with zero simulation.
	st2, err := client.Submit(job)
	if err != nil {
		log.Fatal(err)
	}
	fin, err := client.Wait(context.Background(), st2.ID, 50*time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	stats, _ := client.Stats()
	fmt.Printf("resubmission %s: %d cache hits, %d simulated (server total: %d runs, %d engine cycles)\n\n",
		fin.ID, fin.CacheHits, fin.Simulated, stats.SimulatedRuns, stats.SimulatedCycles)

	// 5. Overload the admission window to see bounded-queue rejection: the
	// server answers 429 with a Retry-After hint instead of queueing
	// without bound. A long multi-run job pins the single slot first so
	// the storm can only queue behind it.
	var blockerCfgs []pimdsm.ConfigSpec
	for p := 0; p < 8; p++ {
		blockerCfgs = append(blockerCfgs, pimdsm.ConfigSpec{
			Arch: "agg", App: "ocean", Scale: 0.5, Threads: 16,
			Pressure: 0.10 + 0.1*float64(p), DRatio: 1,
		})
	}
	if _, err := client.Submit(pimdsm.JobSpec{Name: "blocker", Configs: blockerCfgs}); err != nil {
		log.Fatal(err)
	}
	// The storm arrives as a concurrent burst, the way N impatient clients
	// would hit a shared daemon.
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			_, err := client.Submit(pimdsm.JobSpec{
				Name: fmt.Sprintf("storm-%d", i),
				Configs: []pimdsm.ConfigSpec{{
					Arch: "agg", App: "ocean", Scale: 0.2, Threads: 8,
					Pressure: 0.10 + 0.1*float64(i), DRatio: 1,
				}},
			})
			errs <- err
		}(i)
	}
	rejections := 0
	var retryAfter time.Duration
	for i := 0; i < 8; i++ {
		err := <-errs
		if err == nil {
			continue
		}
		var busy *pimdsm.BusyError
		if !errors.As(err, &busy) {
			log.Fatal(err)
		}
		rejections++
		retryAfter = busy.RetryAfter
	}
	fmt.Printf("submit storm: %d of 8 rejected by admission control (retry after %s)\n\n",
		rejections, retryAfter)

	// 6. Graceful drain: running jobs finish, queued jobs abort, and the
	// cache index lands on disk for the next start.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	if fi, err := os.Stat(cacheFile); err == nil {
		fmt.Printf("drained; cache index persisted to %s (%d bytes)\n", cacheFile, fi.Size())
	}
}
