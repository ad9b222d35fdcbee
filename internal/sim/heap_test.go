package sim

// eventQueue is a binary min-heap ordered by (at, seq): the oracle the
// timing wheel is pinned against. It implements the same queue contract,
// so the order tests drive one Scheduler over each and compare.
type eventQueue []*Event

// newHeapScheduler returns a Scheduler that runs on the min-heap oracle
// instead of the timing wheel.
func newHeapScheduler(cfg Config) *Scheduler {
	s := NewWithConfig(cfg)
	s.q = &eventQueue{}
	return s
}

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) swap(i, j int) {
	q[i], q[j] = q[j], q[i]
}

func (q *eventQueue) push(ev *Event) {
	ev.queued = true
	i := len(*q)
	*q = append(*q, ev)
	// Sift up.
	h := *q
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (q *eventQueue) pop() *Event {
	h := *q
	n := len(h) - 1
	h.swap(0, n)
	ev := h[n]
	h[n] = nil
	ev.queued = false
	h = h[:n]
	*q = h
	// Sift down from the root.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.swap(i, smallest)
		i = smallest
	}
	return ev
}

func (q *eventQueue) size() int64 { return int64(len(*q)) }

func (q *eventQueue) nextAt() (Time, bool) {
	if len(*q) == 0 {
		return 0, false
	}
	return (*q)[0].at, true
}
