package fault

import "testing"

// FuzzParseTime: no time string panics the parser, every time it accepts is
// non-negative, and FormatTime of that time parses back to the same time.
func FuzzParseTime(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		v, err := ParseTime(s)
		if err != nil {
			return
		}
		if v < 0 {
			t.Fatalf("%q parses to the negative time %d", s, int64(v))
		}
		r := FormatTime(v)
		w, err := ParseTime(r)
		if err != nil {
			t.Fatalf("%q parses to %dns, which renders as %q, which does not parse: %v", s, int64(v), r, err)
		}
		if w != v {
			t.Fatalf("%q parses to %dns, which renders as %q, which parses to %dns", s, int64(v), r, int64(w))
		}
	})
}

// FuzzParsePlan: every spec ParsePlan accepts renders, through Plan.String,
// to a spec that parses back to an equal plan, so any accepted -faults flag
// can be committed in canonical form and replayed.
func FuzzParsePlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil {
			return
		}
		s := p.String()
		q, err := ParsePlan(s)
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", spec, s, err)
		}
		if !plansEqual(p, q) {
			t.Fatalf("%q renders as %q, which parses to %+v, not %+v", spec, s, q, p)
		}
	})
}
