package task

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"triosim/internal/network"
	"triosim/internal/sim"
)

// span is a closed [s, e] interval in seconds, the unit of the sorted
// interval algebra GPUTime is checked against.
type span struct{ s, e float64 }

// unionSpans merges overlapping and touching spans into a sorted disjoint
// set.
func unionSpans(in []span) []span {
	if len(in) == 0 {
		return nil
	}
	sort.Slice(in, func(i, j int) bool {
		if in[i].s != in[j].s {
			return in[i].s < in[j].s
		}
		return in[i].e < in[j].e
	})
	out := []span{in[0]}
	for _, sp := range in[1:] {
		last := &out[len(out)-1]
		if sp.s <= last.e {
			if sp.e > last.e {
				last.e = sp.e
			}
			continue
		}
		out = append(out, sp)
	}
	return out
}

// spansLen sums a disjoint span set's total length in order.
func spansLen(in []span) float64 {
	var total float64
	for _, sp := range in {
		total += sp.e - sp.s
	}
	return total
}

// subtractSpans returns a minus b; both must be sorted disjoint sets.
func subtractSpans(a, b []span) []span {
	var out []span
	j := 0
	for _, sp := range a {
		cur := sp
		for j < len(b) && b[j].e <= cur.s {
			j++
		}
		k := j
		for k < len(b) && b[k].s < cur.e {
			if b[k].s > cur.s {
				out = append(out, span{cur.s, b[k].s})
			}
			if b[k].e > cur.s {
				cur.s = b[k].e
			}
			if cur.s >= cur.e {
				break
			}
			k++
		}
		if cur.s < cur.e {
			out = append(out, cur)
		}
	}
	return out
}

func TestSpanAlgebra(t *testing.T) {
	u := unionSpans([]span{{5, 7}, {1, 3}, {2, 4}})
	if len(u) != 2 || u[0] != (span{1, 4}) || u[1] != (span{5, 7}) {
		t.Fatalf("union = %v", u)
	}
	if got := spansLen(u); got != 5 {
		t.Fatalf("len = %v", got)
	}
	d := subtractSpans(u, []span{{2, 6}})
	if len(d) != 2 || d[0] != (span{1, 2}) || d[1] != (span{6, 7}) {
		t.Fatalf("subtract = %v", d)
	}
	if got := subtractSpans([]span{{0, 10}}, u); spansLen(got) != 5 {
		t.Fatalf("complement = %v", got)
	}
}

// referenceShares computes every GPU's partition the sorted way from the
// intervals GPUTime attributes to it: compute is the union of its compute,
// exposed comm its comm union minus that, exposed host its host-load union
// minus the union of compute and comm.
func referenceShares(gpus int, compute, comm, host [][]span) []GPUShare {
	out := make([]GPUShare, gpus)
	for g := range out {
		c := unionSpans(append([]span(nil), compute[g]...))
		m := unionSpans(append([]span(nil), comm[g]...))
		h := unionSpans(append([]span(nil), host[g]...))
		notIdle := unionSpans(append(append([]span{}, c...), m...))
		out[g] = GPUShare{
			Compute:      sim.VTime(spansLen(c)),
			ExposedComm:  sim.VTime(spansLen(subtractSpans(m, c))),
			ExposedHost:  sim.VTime(spansLen(subtractSpans(h, notIdle))),
			ComputeTasks: len(compute[g]),
		}
	}
	return out
}

// fmtShare renders a share with round-trip float64 values, so shares that
// differ in their last bits print differently.
func fmtShare(s GPUShare) string {
	return fmt.Sprintf("{compute %v, exposed comm %v, exposed host %v, "+
		"%d compute tasks}", float64(s.Compute), float64(s.ExposedComm),
		float64(s.ExposedHost), s.ComputeTasks)
}

// sameShare compares two partitions bit for bit.
func sameShare(a, b GPUShare) bool {
	bits := func(v sim.VTime) uint64 { return math.Float64bits(float64(v)) }
	return bits(a.Compute) == bits(b.Compute) &&
		bits(a.ExposedComm) == bits(b.ExposedComm) &&
		bits(a.ExposedHost) == bits(b.ExposedHost) &&
		a.ComputeTasks == b.ComputeTasks
}

// intervalLog records the intervals GPUTime would attribute to each GPU of
// a topology whose GPU i is node i.
type intervalLog struct {
	gpus                int
	compute, comm, host [][]span
}

func newIntervalLog(gpus int) *intervalLog {
	return &intervalLog{gpus: gpus, compute: make([][]span, gpus),
		comm: make([][]span, gpus), host: make([][]span, gpus)}
}

func (l *intervalLog) isGPU(n network.NodeID) bool {
	return n >= 0 && int(n) < l.gpus
}

// TaskDone implements Observer.
func (l *intervalLog) TaskDone(t *Task, start, end sim.VTime) {
	sp := span{start.Seconds(), end.Seconds()}
	switch t.Kind {
	case Compute:
		l.compute[t.GPU] = append(l.compute[t.GPU], sp)
	case Comm:
		if l.isGPU(t.Src) {
			l.comm[t.Src] = append(l.comm[t.Src], sp)
		}
		if l.isGPU(t.Dst) && t.Dst != t.Src {
			l.comm[t.Dst] = append(l.comm[t.Dst], sp)
		}
	case HostLoad:
		if l.isGPU(t.Dst) {
			l.host[t.Dst] = append(l.host[t.Dst], sp)
		}
	}
}

// gpuTopology returns a topology whose first gpus nodes are GPUs 0..gpus-1
// and whose remaining nodes up to n are switches, the last one a host.
func gpuTopology(gpus, n int) *network.Topology {
	topo := network.NewTopology()
	for i := 0; i < n; i++ {
		kind := network.SwitchNode
		switch {
		case i < gpus:
			kind = network.GPUNode
		case i == n-1:
			kind = network.HostNode
		}
		topo.AddNode(fmt.Sprintf("n%d", i), kind)
	}
	return topo
}

// TestGPUTimeSpanAlgebra replays TestSpanAlgebra's cases on GPUTime: the
// union of overlapping compute, comm minus compute, and comm covering the
// complement of compute.
func TestGPUTimeSpanAlgebra(t *testing.T) {
	topo := gpuTopology(1, 3)
	g := NewGraph()
	c := []*Task{g.AddCompute(0, 2, "a"), g.AddCompute(0, 2, "b"),
		g.AddCompute(0, 2, "c")}
	type ev struct {
		t      *Task
		at     sim.VTime
		finish bool
	}
	run := func(evs []ev) GPUShare {
		p := NewGPUTime(topo)
		for _, e := range evs {
			if e.finish {
				p.Finish(e.t, e.at)
			} else {
				p.Start(e.t, e.at)
			}
		}
		return p.Share(0)
	}
	// Compute {1,3}, {2,4}, {5,7}: union {1,4} ∪ {5,7}, length 5.
	union := []ev{{c[0], 1, false}, {c[1], 2, false}, {c[0], 3, true},
		{c[1], 4, true}, {c[2], 5, false}, {c[2], 7, true}}
	if got := run(union); got != (GPUShare{Compute: 5, ComputeTasks: 3}) {
		t.Fatalf("union: %+v", got)
	}
	// Comm {1,4}, {5,7} minus compute {2,6}: {1,2} ∪ {6,7}.
	m := []*Task{g.AddComm(0, 1, 1, "x"), g.AddComm(0, 1, 1, "y")}
	sub := []ev{{m[0], 1, false}, {c[0], 2, false}, {m[0], 4, true},
		{m[1], 5, false}, {c[0], 6, true}, {m[1], 7, true}}
	if got := run(sub); got != (GPUShare{Compute: 4, ExposedComm: 2,
		ComputeTasks: 1}) {
		t.Fatalf("subtract: %+v", got)
	}
	// Comm {0,10} around the compute union {1,4} ∪ {5,7}: 5 exposed.
	comp := append([]ev{{m[0], 0, false}}, union...)
	comp = append(comp, ev{m[0], 10, true})
	if got := run(comp); got != (GPUShare{Compute: 5, ExposedComm: 5,
		ComputeTasks: 3}) {
		t.Fatalf("complement: %+v", got)
	}
}

// TestGPUTimeMatchesExecutorIntervals is the differential test on the
// executor: on seeded random graphs, with and without a straggler Stretch
// hook, the partition the executor feeds equals the sorted reference over
// the same run's task intervals, bit for bit.
func TestGPUTimeMatchesExecutorIntervals(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// randomBusyGraph uses GPUs 0–2 and nodes 0–2 and 9 (the host).
	topo := gpuTopology(3, 10)
	for trial := 0; trial < 300; trial++ {
		g := randomBusyGraph(rng)
		eng := sim.NewSerialEngine()
		var lat sim.VTime
		if trial%2 == 0 {
			lat = 1e-6
		}
		x := NewExecutor(eng, network.NewIdealNetwork(eng, 1e9, lat), g, nil)
		x.GPUTime = NewGPUTime(topo)
		log := newIntervalLog(3)
		x.Observe(log)
		if trial%3 == 0 {
			x.Stretch = func(gpu int, at sim.VTime) float64 {
				if gpu == 1 && at.AtOrAfter(2e-4) {
					return 1.7
				}
				return 1
			}
		}
		if _, err := x.Run(); err != nil {
			t.Fatal(err)
		}
		want := referenceShares(3, log.compute, log.comm, log.host)
		for gpu, w := range want {
			if got := x.GPUTime.Share(gpu); !sameShare(got, w) {
				t.Fatalf("trial %d gpu%d: %s, reference %s", trial, gpu,
					fmtShare(got), fmtShare(w))
			}
		}
	}
}

// FuzzGPUPartition checks GPUTime against the sorted reference on random
// intervals over two GPUs, a switch and a host. Each GPU's compute is a
// serial lane with touching and zero-length tasks; comm (GPU↔GPU, GPU↔
// switch, local) and host staging are free. Times sit on an integer grid
// scaled by an awkward float, so ties and touching ends are common, and
// same-timestamp events are shuffled, except that a task starts before it
// finishes and a lane finishes a task before it starts the next.
func FuzzGPUPartition(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, 0.1)
	}
	f.Add(int64(42), 1.0/3)
	f.Add(int64(7), 3.3e-6)
	f.Add(int64(9), math.Pi*1e-4)
	// Cases that fail when a compute start does not commit a held comm
	// piece (a zero-length compute then splits nothing).
	f.Add(int64(678), 0.1)
	f.Add(int64(4658), 1.0/3)
	f.Add(int64(5619), 0.1)
	f.Fuzz(checkPartition)
}

// checkPartition is one FuzzGPUPartition case.
func checkPartition(t *testing.T, seed int64, scale float64) {
	if !(scale >= 1e-9 && scale <= 1e3) {
		scale = 0.1
	}
	topo := gpuTopology(2, 4) // GPUs 0 and 1, switch 2, host 3
	rng := rand.New(rand.NewSource(seed))
	// Grid point k sits at k·scale, or on a jittered grid whose steps
	// grow (3^k) or shrink (2 − 0.8^k): ordered like k, and in the
	// jittered grids with full mantissas and spread magnitudes, so that
	// adding two pieces rounds unlike adding their union.
	mode := rng.Intn(3)
	grid := make([]sim.VTime, 48)
	for k := range grid {
		u := 1 - rng.Float64()/10
		switch mode {
		case 0:
			grid[k] = sim.VTime(float64(k) * scale)
		case 1:
			grid[k] = sim.VTime(math.Pow(3, float64(k)) * u * scale)
		default:
			grid[k] = sim.VTime((2 - math.Pow(0.8, float64(k))*u) * scale)
		}
	}
	at := func(k int) sim.VTime { return grid[k] }
	g := NewGraph()
	type job struct {
		t          *Task
		start, end int
		prev       int // the lane's previous task, or -1
	}
	var tasks []job
	// free returns a free task's [start, end]: each end lands on a point
	// another task already starts or ends at half the time, so touching
	// intervals are common.
	var marks []int
	free := func() (int, int) {
		s := rng.Intn(8)
		if rng.Intn(2) == 0 {
			s = marks[rng.Intn(len(marks))]
		}
		e := s + rng.Intn(3)
		if m := marks[rng.Intn(len(marks))]; m >= s && rng.Intn(2) == 0 {
			e = m
		}
		marks = append(marks, s, e)
		return s, e
	}
	for gpu := 0; gpu < 2; gpu++ {
		k, prev := 0, -1
		for n := rng.Intn(9); n > 0; n-- {
			k += rng.Intn(2)
			d := rng.Intn(2)
			tasks = append(tasks, job{g.AddCompute(gpu, 0, "c"),
				k, k + d, prev})
			marks = append(marks, k, k+d)
			prev = len(tasks) - 1
			k += d
		}
	}
	marks = append(marks, 0)
	for n := rng.Intn(11); n > 0; n-- {
		src := network.NodeID(rng.Intn(3))
		dst := network.NodeID(rng.Intn(3))
		s, e := free()
		tasks = append(tasks, job{g.AddComm(src, dst, 1, "x"), s, e, -1})
	}
	for n := rng.Intn(4); n > 0; n-- {
		dst := network.NodeID(rng.Intn(2))
		s, e := free()
		tasks = append(tasks, job{g.AddHostLoad(3, dst, 1, "h"), s, e, -1})
	}

	// Emit starts and finishes in time order, picking at random among
	// the events at the earliest pending time whose predecessor (the
	// task's own start, or the lane's previous finish) is out.
	p := NewGPUTime(topo)
	log := newIntervalLog(2)
	started := make([]bool, len(tasks))
	finished := make([]bool, len(tasks))
	for left := 2 * len(tasks); left > 0; left-- {
		now := math.MaxInt
		for i, tk := range tasks {
			switch {
			case !started[i]:
				now = min(now, tk.start)
			case !finished[i]:
				now = min(now, tk.end)
			}
		}
		var ready []int // task index; +len(tasks) marks a finish
		for i, tk := range tasks {
			switch {
			case !started[i] && tk.start == now &&
				(tk.prev < 0 || finished[tk.prev]):
				ready = append(ready, i)
			case started[i] && !finished[i] && tk.end == now:
				ready = append(ready, i+len(tasks))
			}
		}
		pick := ready[rng.Intn(len(ready))]
		if pick < len(tasks) {
			started[pick] = true
			p.Start(tasks[pick].t, at(now))
			continue
		}
		i := pick - len(tasks)
		finished[i] = true
		p.Finish(tasks[i].t, at(now))
		log.TaskDone(tasks[i].t, at(tasks[i].start), at(now))
	}
	want := referenceShares(2, log.compute, log.comm, log.host)
	for gpu, w := range want {
		if got := p.Share(gpu); !sameShare(got, w) {
			t.Fatalf("gpu%d: %s, reference %s (compute %v, comm %v, "+
				"host %v)", gpu, fmtShare(got), fmtShare(w), log.compute[gpu],
				log.comm[gpu], log.host[gpu])
		}
	}
}
