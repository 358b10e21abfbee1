package fault

import "testing"

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
