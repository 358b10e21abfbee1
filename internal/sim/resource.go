package sim

// Resource is an exclusive-use resource (a bus, the IBus, a DMA engine port)
// with FIFO granting and busy-time accounting. Requests are served strictly
// in arrival order; each holder releases explicitly.
type Resource struct {
	eng       *Engine
	name      string
	busy      bool
	queue     []func() // pending grant callbacks
	busySince Time
	busyTotal Time
	grants    uint64

	// useFree recycles useReq records so the steady-state Use cycle —
	// acquire, hold for d, release, notify — allocates nothing.
	useFree []*useReq
	// acquireFn is the prebound Acquire method value handed to Proc.Call by
	// AcquireP; usePD stages UseP's duration for usePStart, which Call
	// invokes synchronously.
	acquireFn func(func())
	usePFn    func(func())
	usePD     Time

	// Observation state (see Observe): each hold becomes a span on track
	// (obsNode, obsComp) and waiter-queue depth is sampled on change.
	observed    bool
	obsNode     int
	obsComp     string
	waitersName string
	span        Span
}

// NewResource returns an idle resource.
func NewResource(e *Engine, name string) *Resource {
	r := &Resource{eng: e, name: name}
	r.acquireFn = r.Acquire
	r.usePFn = r.usePStart
	return r
}

// Observe puts each hold of the resource on the observability track
// (node, component) as a span named after the resource, and samples the
// waiter-queue depth whenever it changes. With no engine observer installed
// the emission calls are no-ops.
func (r *Resource) Observe(node int, component string) {
	r.observed = true
	r.obsNode = node
	r.obsComp = component
	r.waitersName = r.name + "-waiters"
}

func (r *Resource) grant() {
	r.busy = true
	r.busySince = r.eng.now
	r.grants++
	if r.observed {
		r.span = r.eng.BeginSpan(r.obsNode, r.obsComp, r.name)
	}
}

// Acquire requests the resource; granted runs (as an engine event) once the
// resource is exclusively held by the caller.
func (r *Resource) Acquire(granted func()) {
	if !r.busy {
		r.grant()
		r.eng.Schedule(0, granted)
		return
	}
	r.queue = append(r.queue, granted)
	if r.observed {
		r.eng.Sample(r.obsNode, r.obsComp, r.waitersName, int64(len(r.queue)))
	}
}

// Release relinquishes the resource, granting it to the next waiter if any.
func (r *Resource) Release() {
	if !r.busy {
		panic("sim: release of idle resource " + r.name)
	}
	r.busyTotal += r.eng.now - r.busySince
	r.busy = false
	if r.observed {
		r.span.End()
		r.span = Span{}
	}
	if len(r.queue) > 0 {
		// Pop by copy-down, keeping the backing array for later Acquires.
		next := r.queue[0]
		n := copy(r.queue, r.queue[1:])
		r.queue[n] = nil
		r.queue = r.queue[:n]
		if r.observed {
			r.eng.Sample(r.obsNode, r.obsComp, r.waitersName, int64(len(r.queue)))
		}
		r.grant()
		r.eng.Schedule(0, next)
	}
}

// useReq is one in-flight Use: a recycled record whose prebound method
// values stand in for the closures this pattern used to allocate. The event
// sequence (grant at +0, release after d, then done) is unchanged.
type useReq struct {
	r         *Resource
	d         Time
	done      func()
	grantedFn func()
	expireFn  func()
}

//voyager:noalloc
func (u *useReq) granted() {
	u.r.eng.Schedule(u.d, u.expireFn)
}

//voyager:noalloc
func (u *useReq) expire() {
	r, done := u.r, u.done
	u.done = nil
	r.useFree = append(r.useFree, u) //voyager:alloc-ok(amortized: pool backing array is retained)
	r.Release()
	if done != nil {
		done()
	}
}

// Use acquires the resource, holds it for d, then releases it, invoking done
// (if non-nil) at release time. It is the common "occupy for a fixed service
// time" pattern.
//
//voyager:noalloc steady-state uses ride a recycled useReq record
func (r *Resource) Use(d Time, done func()) {
	var u *useReq
	if n := len(r.useFree); n > 0 {
		u = r.useFree[n-1]
		r.useFree = r.useFree[:n-1]
	} else {
		u = &useReq{r: r}       //voyager:alloc-ok(pool warm-up; recycled thereafter)
		u.grantedFn = u.granted //voyager:alloc-ok(one-time method binding for the pooled record)
		u.expireFn = u.expire   //voyager:alloc-ok(one-time method binding for the pooled record)
	}
	u.d = d
	u.done = done
	r.Acquire(u.grantedFn)
}

// UseP is the blocking form of Use for Procs. The duration is staged on the
// resource and consumed synchronously by usePStart, so no adapter closure is
// built per call.
//
//voyager:noalloc
func (r *Resource) UseP(p *Proc, d Time) {
	r.usePD = d
	p.Call(r.usePFn)
}

//voyager:noalloc
func (r *Resource) usePStart(done func()) {
	r.Use(r.usePD, done)
}

// AcquireP blocks p until it exclusively holds the resource; the caller must
// Release it explicitly.
//
//voyager:noalloc
func (r *Resource) AcquireP(p *Proc) {
	p.Call(r.acquireFn)
}

// Busy reports whether the resource is currently held.
func (r *Resource) Busy() bool { return r.busy }

// QueueLen returns the number of waiting requests.
func (r *Resource) QueueLen() int { return len(r.queue) }

// BusyTime returns accumulated held time (including the current hold, if
// any, up to now).
func (r *Resource) BusyTime() Time {
	t := r.busyTotal
	if r.busy {
		t += r.eng.now - r.busySince
	}
	return t
}

// Grants returns the number of times the resource has been granted.
func (r *Resource) Grants() uint64 { return r.grants }

// Name returns the resource's name.
func (r *Resource) Name() string { return r.name }
