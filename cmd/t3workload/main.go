// Command t3workload generates and prints the random query workload for an
// instance, one physical plan tree per query (plan.Node.Explain). Useful for
// inspecting what the 16 structure groups produce; internal/planio's JSON is
// the format for handing plans to other programs.
//
// With -collect it instead executes the workload through the parallel
// label-collection runner, fanning queries out across -workers workers —
// which also sets the morsel-driven parallelism degree *inside* each query's
// pipelines (override with -intra, tune the split granularity with -morsel) —
// and prints throughput, the fraction of pipelines that ran morsel-parallel,
// and the label set's stable fingerprint (which is identical for every
// worker count, inter- or intra-query).
//
// Usage:
//
//	t3workload [-instance tpch|tpcds|imdb] [-scale 0.05] [-pergroup 2] [-seed 7] [-group SeJA]
//	t3workload -collect [-workers 4] [-intra 4] [-morsel 4096] [-runs 3] [-instance tpch] [-scale 0.05]
//
// -cpuprofile/-memprofile write pprof profiles of the run (the collection
// path is the interesting one: it exercises the parallel runner end to end).
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"t3/internal/engine/plan"
	"t3/internal/obs"
	"t3/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("t3workload: ")
	var (
		instance = flag.String("instance", "tpch", "instance schema: tpch|tpcds|imdb")
		scale    = flag.Float64("scale", 0.05, "instance size multiplier")
		perGroup = flag.Int("pergroup", 2, "queries per structure group")
		seed     = flag.Int64("seed", 7, "generator seed")
		group    = flag.String("group", "", "only this structure group (e.g. SeJA)")
		fixed    = flag.Bool("fixed", false, "also print the fixed benchmark queries")
		collect  = flag.Bool("collect", false, "execute the workload and collect (plan, pipeline-time) labels")
		workers  = flag.Int("workers", 0, "collection workers, inter- and intra-query (0 = GOMAXPROCS)")
		intra    = flag.Int("intra", 0, "intra-query morsel parallelism (0 = same as -workers, -1 = off)")
		morsel   = flag.Int("morsel", 0, "rows per morsel partition (0 = engine default)")
		runs     = flag.Int("runs", 1, "timing runs per query during collection")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := obs.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()

	var spec workload.InstanceSpec
	switch *instance {
	case "tpch":
		spec = workload.TPCHSpec("tpch", *scale, *seed)
	case "tpcds":
		spec = workload.TPCDSSpec("tpcds", *scale*20, *seed)
	case "imdb":
		spec = workload.IMDBSpec("imdb", *scale, *seed)
	default:
		log.Fatalf("unknown instance %q", *instance)
	}
	in := workload.MustGenerate(spec)

	if *collect {
		ls, err := workload.CollectLabels(in, workload.CollectConfig{
			Workers:      *workers,
			IntraWorkers: *intra,
			MorselRows:   *morsel,
			Runs:         *runs,
			PerGroup:     *perGroup,
			Seed:         *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		var pipelines, parallelPipes, maxPar int
		for _, l := range ls.Labels {
			pipelines += len(l.Pipelines)
			for _, deg := range l.Parallelism {
				if deg > 1 {
					parallelPipes++
				}
				if deg > maxPar {
					maxPar = deg
				}
			}
		}
		fmt.Printf("collected %d queries (%d pipelines, %d timing runs each) on %s\n",
			len(ls.Labels), pipelines, *runs, ls.Instance)
		fmt.Printf("intra-query: %d/%d pipelines ran morsel-parallel (max degree %d)\n",
			parallelPipes, pipelines, maxPar)
		fmt.Printf("workers=%d elapsed=%s throughput=%.1f queries/s\n",
			ls.Workers, ls.Elapsed.Round(time.Millisecond), obs.CollectThroughput.Value())
		fmt.Printf("stable fingerprint: %016x\n", ls.Fingerprint())
		return
	}

	qs := workload.GenerateQueries(in, workload.GenConfig{PerGroup: *perGroup, Seed: *seed})
	if *fixed {
		switch *instance {
		case "tpch":
			qs = append(qs, workload.TPCHBenchmarkQueries(in)...)
		case "tpcds":
			qs = append(qs, workload.TPCDSBenchmarkQueries(in)...)
		case "imdb":
			qs = append(qs, workload.JOBQueries(in)...)
		}
	}

	printed := 0
	for _, q := range qs {
		if *group != "" && string(q.Group) != *group {
			continue
		}
		fmt.Printf("-- %s (group %s, %d pipelines)\n%s\n",
			q.Name, q.Group, len(plan.Decompose(q.Root)), q.Root.Explain())
		printed++
	}
	log.Printf("%d queries", printed)
}
