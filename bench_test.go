package startvoyager_test

import (
	"fmt"
	"testing"

	"startvoyager/internal/bench"
	"startvoyager/internal/blockxfer"
	"startvoyager/internal/stats"
)

// The benchmarks below regenerate every figure of the paper's evaluation
// (plus this reproduction's extension experiments) and report the simulated
// quantities as custom metrics:
//
//	sim-lat-ns      latency of one transfer (simulated ns)
//	sim-bw-MBps     steady-state bandwidth
//	sim-*-busy-ns   processor occupancy
//
// Wall-clock ns/op measures only the simulator's own speed.

var fig34Approaches = []blockxfer.Approach{blockxfer.A1, blockxfer.A2, blockxfer.A3}

var benchSizes = []int{1 << 10, 16 << 10, 64 << 10}

// BenchmarkFig3Latency regenerates Figure 3 (latency of approaches 1-3).
func BenchmarkFig3Latency(b *testing.B) {
	for _, a := range fig34Approaches {
		for _, size := range benchSizes {
			b.Run(fmt.Sprintf("%v/%s", a, stats.FormatBytes(size)), func(b *testing.B) {
				var m blockxfer.Metrics
				for i := 0; i < b.N; i++ {
					m = blockxfer.MeasureLatency(a, size)
				}
				b.ReportMetric(float64(m.Latency), "sim-lat-ns")
			})
		}
	}
}

// BenchmarkFig4Bandwidth regenerates Figure 4 (bandwidth of approaches 1-3).
func BenchmarkFig4Bandwidth(b *testing.B) {
	for _, a := range fig34Approaches {
		for _, size := range benchSizes {
			b.Run(fmt.Sprintf("%v/%s", a, stats.FormatBytes(size)), func(b *testing.B) {
				var bw float64
				for i := 0; i < b.N; i++ {
					bw = blockxfer.MeasureBandwidth(a, size, nil)
				}
				b.ReportMetric(bw, "sim-bw-MBps")
			})
		}
	}
}

// BenchmarkExtAEarlyNotification measures approaches 4-5 (the variants the
// paper describes without numbers): notification and consume-done latency.
func BenchmarkExtAEarlyNotification(b *testing.B) {
	for _, a := range []blockxfer.Approach{blockxfer.A3, blockxfer.A4, blockxfer.A5} {
		b.Run(fmt.Sprintf("%v/64KB", a), func(b *testing.B) {
			var m blockxfer.Metrics
			for i := 0; i < b.N; i++ {
				m = blockxfer.MeasureLatency(a, 64<<10)
			}
			b.ReportMetric(float64(m.NotifyAt), "sim-notify-ns")
			b.ReportMetric(float64(m.ConsumeDone), "sim-consume-ns")
		})
	}
}

// BenchmarkExtBOccupancy reports per-approach aP/sP occupancy for a 32 KB
// transfer.
func BenchmarkExtBOccupancy(b *testing.B) {
	for _, a := range []blockxfer.Approach{blockxfer.A1, blockxfer.A2, blockxfer.A3,
		blockxfer.A4, blockxfer.A5} {
		b.Run(a.String(), func(b *testing.B) {
			var m blockxfer.Metrics
			for i := 0; i < b.N; i++ {
				m = blockxfer.MeasureLatency(a, 32<<10)
			}
			b.ReportMetric(float64(m.APSrcBusy), "sim-aPsrc-busy-ns")
			b.ReportMetric(float64(m.SPSrcBusy), "sim-sPsrc-busy-ns")
			b.ReportMetric(float64(m.SPDstBusy), "sim-sPdst-busy-ns")
		})
	}
}

// BenchmarkExtDReflective compares reflective-memory implementations
// (firmware vs aBIU hardware vs deferred diff flushing).
func BenchmarkExtDReflective(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.ExtDReflective()
	}
}

// BenchmarkExtEQueueCaching measures resident vs non-resident receive-queue
// delivery.
func BenchmarkExtEQueueCaching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.ExtEQueueCaching()
	}
}

// BenchmarkExtFCollectives measures MPI collective scaling on the fat tree.
func BenchmarkExtFCollectives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.ExtFCollectives([]int{2, 4, 8})
	}
}

// BenchmarkExtGNetworkScaling reruns Figure 4 with faster links: only the
// hardware approach can exploit the extra wire.
func BenchmarkExtGNetworkScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.ExtGNetworkScaling(64 << 10)
	}
}

// BenchmarkExtCMechanisms characterizes the Section 5 mechanisms.
func BenchmarkExtCMechanisms(b *testing.B) {
	mechs := bench.MeasureMechanisms()
	for idx, r := range mechs {
		idx, r := idx, r
		b.Run(r.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r = bench.MeasureMechanisms()[idx]
			}
			b.ReportMetric(float64(r.OneWay), "sim-oneway-ns")
			if r.Throughput > 0 {
				b.ReportMetric(r.Throughput, "sim-tput-MBps")
			}
		})
	}
}
