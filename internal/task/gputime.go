package task

import (
	"triosim/internal/network"
	"triosim/internal/sim"
)

// pieceSum sums pieces of time in dispatch order, as a sorted sweep would:
// a stopped piece is held, a resume at the same instant continues it
// (touching intervals merge), a later one first adds it to the total (a
// zero-length piece adds +0), and commit ends it for good. The zero value
// holds the empty piece [0, 0].
type pieceSum struct {
	open, close sim.VTime
	running     bool
	total       sim.VTime
}

func (p *pieceSum) resume(now sim.VTime) {
	if now.After(p.close) {
		p.total += p.close - p.open
		p.open = now
	}
	p.running = true
}

func (p *pieceSum) hold(now sim.VTime) {
	p.close, p.running = now, false
}

func (p *pieceSum) commit(now sim.VTime) {
	if p.running {
		p.hold(now)
	}
	p.total += p.close - p.open
	p.open = p.close
}

func (p *pieceSum) sum() sim.VTime { return p.total + (p.close - p.open) }

// busyCounter sums the union of one kind's activity intervals, bit for bit
// timeline.UnionTime: a piece runs while depth activities do.
type busyCounter struct {
	depth int
	pieceSum
}

func (b *busyCounter) start(now sim.VTime) {
	if b.depth == 0 {
		b.resume(now)
	}
	b.depth++
}

func (b *busyCounter) end(now sim.VTime) {
	if b.depth--; b.depth == 0 {
		b.hold(now)
	}
}

// GPUTime partitions each GPU's run as its tasks start and finish: its
// compute union, its transfers in flight while it does not compute
// (exposed comm), its host staging while it does neither (exposed host);
// the rest is idle. A comm task counts on its Src and Dst GPU (once if
// equal), host staging on its Dst. Each share is a pieceSum: O(1) per task,
// no interval storage, bit for bit the sorted union and subtraction.
type GPUTime struct {
	gpuOf []int32 // GPU index by network.NodeID, or -1
	gpus  []gpuClock
}

// GPUShare is one GPU's partition of a run.
type GPUShare struct {
	Compute, ExposedComm, ExposedHost sim.VTime
	ComputeTasks                      int
}

// gpuClock is one GPU's state. Kinds rank Compute, Comm, HostLoad; the
// share of the top kind in flight runs. A kind taking over commits the
// lower kinds' pieces, so none spans a higher kind's task, even a
// zero-length one; a kind finishing its last task hands over.
type gpuClock struct {
	depth [HostLoad + 1]int
	share [HostLoad + 1]pieceSum
	tasks int
}

// top returns the highest-ranked kind in flight, or HostLoad+1.
func (c *gpuClock) top() Kind {
	k := Compute
	for k <= HostLoad && c.depth[k] == 0 {
		k++
	}
	return k
}

func (c *gpuClock) start(k Kind, now sim.VTime) {
	if c.depth[k] == 0 && k < c.top() {
		for l := k + 1; l <= HostLoad; l++ {
			c.share[l].commit(now)
		}
		c.share[k].resume(now)
	}
	c.depth[k]++
}

func (c *gpuClock) finish(k Kind, now sim.VTime) {
	c.depth[k]--
	if k == Compute {
		c.tasks++
	}
	if c.depth[k] == 0 && k < c.top() {
		c.share[k].hold(now)
		if next := c.top(); next <= HostLoad {
			c.share[next].resume(now)
		}
	}
}

// NewGPUTime returns an empty partition over topo's GPUs, indexed in
// topo.GPUs() order.
func NewGPUTime(topo *network.Topology) *GPUTime {
	p := &GPUTime{gpuOf: make([]int32, len(topo.Nodes))}
	for i := range p.gpuOf {
		p.gpuOf[i] = -1
	}
	for i, id := range topo.GPUs() {
		p.gpuOf[id] = int32(i)
		p.gpus = append(p.gpus, gpuClock{})
	}
	return p
}

// Start records that t started at now; a nil GPUTime records nothing.
func (p *GPUTime) Start(t *Task, now sim.VTime) {
	if p != nil {
		p.each(t, now, (*gpuClock).start)
	}
}

// Finish records that t, started earlier, finished at now.
func (p *GPUTime) Finish(t *Task, now sim.VTime) {
	if p != nil {
		p.each(t, now, (*gpuClock).finish)
	}
}

// each applies f to the state of every GPU t counts on.
func (p *GPUTime) each(t *Task, now sim.VTime,
	f func(*gpuClock, Kind, sim.VTime)) {
	on := func(n network.NodeID) {
		if n >= 0 && int(n) < len(p.gpuOf) && p.gpuOf[n] >= 0 {
			f(&p.gpus[p.gpuOf[n]], t.Kind, now)
		}
	}
	switch t.Kind {
	case Compute:
		for int(t.GPU) >= len(p.gpus) {
			p.gpus = append(p.gpus, gpuClock{})
		}
		f(&p.gpus[t.GPU], Compute, now)
	case Comm:
		on(t.Src)
		if t.Dst != t.Src {
			on(t.Dst)
		}
	case HostLoad:
		on(t.Dst)
	}
}

// Share returns GPU g's partition after the run; it is zero for a GPU no
// task touched and for every GPU of a nil GPUTime.
func (p *GPUTime) Share(g int) GPUShare {
	if p == nil || g < 0 || g >= len(p.gpus) {
		return GPUShare{}
	}
	c := &p.gpus[g]
	return GPUShare{c.share[Compute].sum(), c.share[Comm].sum(),
		c.share[HostLoad].sum(), c.tasks}
}
