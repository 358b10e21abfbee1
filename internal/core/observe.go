package core

import (
	"startvoyager/internal/stats"
	"startvoyager/internal/trace"
)

// Trace attaches a structured event buffer to the machine's engine and
// returns it. Capacity <= 0 selects the default. Call before Run; tracing
// has no effect on simulated timing. The ring's drop count is exported as
// the trace/dropped metric so a truncated trace is visible in the metrics
// artifact (and fails -strict-trace runs) instead of passing silently.
func (m *Machine) Trace(capacity int) *trace.Buffer {
	b := trace.Attach(m.Eng, capacity)
	b.RegisterMetrics(m.Reg.Child("trace"))
	return b
}

// Metrics returns the machine's metrics registry (populated by every
// component at construction).
func (m *Machine) Metrics() *stats.Registry { return m.Reg }

// Series attaches a windowed telemetry sampler scraping every registered
// metric on the given cadence and arms it. Call before Run (and after any
// Trace call whose trace/dropped metric should be scraped), then
// Sampler.Finish once the run completes. Sampling rides the engine's
// out-of-band timer hook: it changes no simulated outcome.
func (m *Machine) Series(cfg stats.SamplerConfig) *stats.Sampler {
	s := stats.NewSampler(m.Eng, m.Reg, cfg)
	s.Start()
	return s
}
