package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("wrong order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("now = %v, want 30", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of insertion order at %d: %v", i, v)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var trace []Time
	e.Schedule(10, func() {
		trace = append(trace, e.Now())
		e.Schedule(5, func() { trace = append(trace, e.Now()) })
		e.Schedule(0, func() { trace = append(trace, e.Now()) })
	})
	e.Run()
	want := []Time{10, 10, 15}
	if len(trace) != len(want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(10, func() { fired++ })
	e.Schedule(20, func() { fired++ })
	e.Schedule(30, func() { fired++ })
	e.RunUntil(20)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("now = %v, want 20", e.Now())
	}
	e.Run()
	if fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative delay")
		}
	}()
	NewEngine().Schedule(-1, func() {})
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic scheduling in the past")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

// Property: events fire in nondecreasing time order and ties preserve
// insertion order, for arbitrary insertion sequences.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		type rec struct {
			at  Time
			idx int
		}
		var fired []rec
		for i, d := range delays {
			i, at := i, Time(d)
			e.Schedule(at, func() { fired = append(fired, rec{e.Now(), i}) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		// Must match a stable sort of the insertion sequence by time.
		want := make([]rec, len(delays))
		for i, d := range delays {
			want[i] = rec{Time(d), i}
		}
		sort.SliceStable(want, func(a, b int) bool { return want[a].at < want[b].at })
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		e := NewEngine()
		rng := rand.New(rand.NewSource(seed))
		var log []Time
		var gen func()
		n := 0
		gen = func() {
			log = append(log, e.Now())
			n++
			if n < 500 {
				e.Schedule(Time(rng.Intn(50)), gen)
			}
		}
		e.Schedule(0, gen)
		e.Run()
		return log
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2500000, "2.500ms"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}
