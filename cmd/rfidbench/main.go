// Command rfidbench reproduces the tables and figures of the paper's
// evaluation (Section V). Each experiment is identified by the figure or
// table it regenerates; -list shows them all.
//
// Usage:
//
//	rfidbench -list
//	rfidbench -exp table6b -scale 0.5
//	rfidbench -exp all -scale 0.25
//	rfidbench -art            # ASCII heat maps of the true and learned sensor models
//	rfidbench -serve -sessions 1,4 -json BENCH_serve.json  # HTTP serving-path bench
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/wal"
)

// intList parses a comma-separated list of positive integers.
func intList(flagName, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad %s %q", flagName, s)
		}
		out = append(out, n)
	}
	return out, nil
}

// zipWorkloads pairs the -batch and -particles lists element-wise; a
// single-element list is broadcast across the other.
func zipWorkloads(batches, particles []int) ([]serveWorkload, error) {
	n := len(batches)
	if len(particles) > n {
		n = len(particles)
	}
	pick := func(list []int, i int) (int, bool) {
		if len(list) == 1 {
			return list[0], true
		}
		if i < len(list) {
			return list[i], true
		}
		return 0, false
	}
	out := make([]serveWorkload, n)
	for i := range out {
		b, okB := pick(batches, i)
		p, okP := pick(particles, i)
		if !okB || !okP {
			return nil, fmt.Errorf("-batch has %d entries but -particles has %d; lists must match (or be length 1)", len(batches), len(particles))
		}
		out[i] = serveWorkload{objectsPerBatch: b, particles: p}
	}
	return out, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("rfidbench: ")

	var (
		exp     = flag.String("exp", "", "experiment id to run (see -list), or 'all'")
		scale   = flag.Float64("scale", 0.25, "experiment scale in (0,1]; 1.0 approximates the paper's sizes")
		seed    = flag.Int64("seed", 1, "random seed")
		list    = flag.Bool("list", false, "list available experiments")
		art     = flag.Bool("art", false, "render the sensor models of Fig. 5(a)-(b) as ASCII heat maps")
		workers = flag.Int("workers", 0, "engine worker goroutines for -durable (0 = GOMAXPROCS)")
		objects = flag.Int("objects", 300, "number of objects for -durable")
		jsonOut = flag.String("json", "", "write -serve results as JSON to this file (e.g. BENCH_serve.json)")

		serveBench = flag.Bool("serve", false, "run the serving-path benchmark (HTTP ingest -> long-polled result latency/throughput per session count)")
		stream     = flag.Bool("stream", false, "also run -serve over the persistent binary stream (client.StreamIngester, send->ack latency)")
		sessions   = flag.String("sessions", "1,4", "comma-separated session counts for -serve")
		epochs     = flag.Int("epochs", 40, "epochs ingested per session for -serve")
		batchObjs  = flag.String("batch", "16", "objects (readings) per ingest batch for -serve; a comma list is zipped with -particles into workloads")
		particles  = flag.String("particles", "200", "particles per object for -serve; a comma list is zipped with -batch into workloads")

		densitySessions = flag.String("density-sessions", "", "comma-separated session counts for -serve density rows (session density under a resident cap; requires -max-resident)")
		maxResident     = flag.Int("max-resident", 0, "resident-session cap (LRU evict/hydrate) for the -serve density rows")
		densityEpochs   = flag.Int("density-epochs", 6, "epochs ingested per session for the density rows")

		durable   = flag.Bool("durable", false, "run the durability-overhead benchmark (WAL + checkpoints vs in-memory)")
		fsyncMode = flag.String("fsync", "never", "WAL fsync policy for -durable: always, interval or never")
		ckptEvery = flag.Int("checkpoint-every", 32, "epochs between checkpoints for -durable")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("create -cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("start CPU profile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Printf("close -cpuprofile: %v", err)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Printf("create -memprofile: %v", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("write -memprofile: %v", err)
			}
		}()
	}

	opts := experiments.Options{Scale: *scale, Seed: *seed}

	if *serveBench {
		counts, err := intList("-sessions", *sessions)
		if err != nil {
			log.Fatal(err)
		}
		batches, err := intList("-batch", *batchObjs)
		if err != nil {
			log.Fatal(err)
		}
		parts, err := intList("-particles", *particles)
		if err != nil {
			log.Fatal(err)
		}
		workloads, err := zipWorkloads(batches, parts)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := runServeBench(counts, *epochs, workloads, *stream, *seed)
		if err != nil {
			log.Fatalf("serving benchmark: %v", err)
		}
		if *densitySessions != "" {
			if *maxResident <= 0 {
				log.Fatal("-density-sessions requires -max-resident > 0")
			}
			dCounts, err := intList("-density-sessions", *densitySessions)
			if err != nil {
				log.Fatal(err)
			}
			dRows, err := runDensityBench(dCounts, *densityEpochs, *maxResident, *seed)
			if err != nil {
				log.Fatalf("density benchmark: %v", err)
			}
			rep.Results = append(rep.Results, dRows...)
		}
		printServeReport(rep)
		if *jsonOut != "" {
			if err := writeServeReportJSON(rep, *jsonOut); err != nil {
				log.Fatalf("write %s: %v", *jsonOut, err)
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		return
	}

	if *durable {
		policy, err := wal.ParseSyncPolicy(*fsyncMode)
		if err != nil {
			log.Fatalf("%v", err)
		}
		res, err := runDurableBench(*objects, *workers, *seed, policy, *ckptEvery)
		if err != nil {
			log.Fatalf("durability benchmark: %v", err)
		}
		printDurableResult(res)
		if !res.EventsIdentical {
			log.Fatal("durable run output diverged from the in-memory run")
		}
		return
	}

	if *list {
		fmt.Println("available experiments:")
		for _, id := range experiments.IDs() {
			fmt.Printf("  %s\n", id)
		}
		return
	}
	if *art {
		out, err := experiments.SensorModelArt(opts)
		if err != nil {
			log.Fatalf("sensor model art: %v", err)
		}
		fmt.Print(out)
		return
	}
	if *exp == "" {
		log.Fatal("specify -exp <id>, -exp all, -list or -art")
	}

	start := time.Now()
	var tables []experiments.Table
	var err error
	if *exp == "all" {
		tables, err = experiments.RunAll(opts)
	} else {
		tables, err = experiments.Run(*exp, opts)
	}
	if err != nil {
		log.Fatalf("experiment %s: %v", *exp, err)
	}
	for _, t := range tables {
		fmt.Println(t.String())
	}
	fmt.Printf("completed in %s (scale %.2f)\n", time.Since(start).Round(time.Millisecond), *scale)
}
