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
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rfidbench: ")

	var (
		exp   = flag.String("exp", "", "experiment id to run (see -list), or 'all'")
		scale = flag.Float64("scale", 0.25, "experiment scale in (0,1]; 1.0 approximates the paper's sizes")
		seed  = flag.Int64("seed", 1, "random seed")
		list  = flag.Bool("list", false, "list available experiments")
		art   = flag.Bool("art", false, "render the sensor models of Fig. 5(a)-(b) as ASCII heat maps")

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
