package main

import "testing"

// BenchmarkKernels runs the kernel probes under the testing harness, one
// sub-benchmark per per-layer metric, so two commits can be compared with
// benchstat:
//
//	go test -run '^$' -bench Kernels -count 10 ./benchmarks
//
// The reported ns/unit (or MB/s) is the same quantity the probe prints.
func BenchmarkKernels(b *testing.B) {
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			body := k.prepare()
			b.ResetTimer()
			work := 0.0
			for i := 0; i < b.N; i++ {
				work += body()
			}
			if k.perSecond {
				b.ReportMetric(work/b.Elapsed().Seconds()/1e6, "MB/s")
			} else {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/work, "ns/unit")
			}
		})
	}
}
