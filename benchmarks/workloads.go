package main

import (
	"embed"
	"fmt"
	"time"

	"stateslice"
)

//go:embed workloads/*.sql
var sqlFS embed.FS

// workload is one benchmark workload: a SliceQL query set, the synthetic
// input it reads, how it is built, and the load figures frozen at the seed
// commit on the 2-core reference host. The frozen figures are deliberately
// not re-derived per run: a run that measured its own saturation rate and
// paced itself at half of it would move the goalposts with the system.
type workload struct {
	name, why string
	sql       string  // file under workloads/
	keys      int64   // uniform key domain [0, keys)
	rate      float64 // Poisson arrivals per virtual second, per stream

	strategy   stateslice.Strategy
	model      *stateslice.CostModel // CPU-Opt optimizer input; nil = strategy needs none
	shards     int                   // 0 = sequential engine
	migratable bool

	// refTPS is the saturation input rate at the seed commit. The
	// closed-loop passes feed refTPS × seconds inputs, so a pass lasts about
	// the requested time on the reference host and the same number of
	// inputs — the same work, the same counts — on every commit.
	refTPS int
	// pacedTPS is the paced pass's fixed input rate, about half of refTPS.
	pacedTPS int
	// opEvery schedules churn's session operations: one every opEvery
	// post-warm-up inputs, by input position. 0 = none.
	opEvery int
}

var workloads = []*workload{
	{
		name: "fanout",
		why:  "12 unfiltered queries, 387 results per input: result construction, per-query union and sink are half the work; the single-threaded baseline the others are read against",
		sql:  "fanout.sql", keys: 40, rate: 80,
		strategy: stateslice.MemOpt,
		refTPS:   36000, pacedTPS: 18000,
	},
	{
		name: "probe",
		why:  "4 queries over 16k-tuple states and 4000 keys, 4 results per input: purge and probe do nearly all the work, so an output-path change must show no change here",
		sql:  "probe.sql", keys: 4000, rate: 100,
		strategy: stateslice.MemOpt,
		refTPS:   32000, pacedTPS: 16000,
	},
	{
		name: "filtered",
		why:  "24 queries, nested selections on two of three, CPU-Opt layout: lineage marks, gates, routers and mask filters on the same chain, twice the operators per scheduler pass",
		sql:  "filtered.sql", keys: 40, rate: 150,
		strategy: stateslice.CPUOpt,
		model:    &stateslice.CostModel{RateA: 150, RateB: 150, JoinSelectivity: 0.025, Csys: stateslice.DefaultCsys, TupleKB: stateslice.DefaultTupleKB},
		refTPS:   24000, pacedTPS: 12000,
	},
	{
		name: "sharded",
		why:  "fanout through 2 shards on the slice-merge path: feed/partition, replicas, k-merge and assembly, where slab batching trades latency for throughput",
		sql:  "fanout.sql", keys: 40, rate: 80,
		strategy: stateslice.MemOpt, shards: 2,
		refTPS: 57000, pacedTPS: 14000,
	},
	{
		name: "churn",
		why:  "fanout through 2 migratable shards (per-query merge path) with a checkpoint, detach, attach, merge or split barrier every fixed number of inputs: barrier cost end to end",
		sql:  "fanout.sql", keys: 40, rate: 80,
		strategy: stateslice.MemOpt, shards: 2, migratable: true,
		refTPS: 30000, pacedTPS: 10000, opEvery: 1000,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// gap is the spacing of the paced pass's inputs.
func (wl *workload) gap() time.Duration { return time.Second / time.Duration(wl.pacedTPS) }

func (wl *workload) text() string {
	b, err := sqlFS.ReadFile("workloads/" + wl.sql)
	if err != nil {
		panic(err) // the file set is fixed at compile time
	}
	return string(b)
}

// options are the build options of the workload's plan, result handler
// excluded.
func (wl *workload) options() []stateslice.Option {
	var opts []stateslice.Option
	if wl.model != nil {
		opts = append(opts, stateslice.WithCostParams(*wl.model))
	}
	if wl.shards > 0 {
		opts = append(opts, stateslice.WithShards(wl.shards))
	}
	if wl.migratable {
		opts = append(opts, stateslice.WithMigratable())
	}
	return opts
}
