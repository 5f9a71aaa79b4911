// Package task defines the dependency-graph intermediate representation the
// multi-GPU trace extrapolator produces and the simulator executes.
//
// The paper extrapolates the single-GPU trace "while the simulation
// unfolds": reading each trace element, deciding which GPU(s) perform it,
// and inserting data-movement operators when tensors are not resident. This
// reproduction expresses the same decisions as an explicit task graph per
// training iteration — a task only runs once its dependencies resolve, so
// the execution semantics are identical, and the graph form is directly
// unit-testable.
package task

import (
	"fmt"
	"math"
	"unsafe"

	"triosim/internal/network"
	"triosim/internal/sim"
)

// Kind classifies tasks.
type Kind int

// Task kinds.
const (
	// Compute occupies one GPU's compute stream for Duration.
	Compute Kind = iota
	// Comm transfers Bytes from Src to Dst over the network model.
	Comm
	// HostLoad transfers Bytes from the host node to Dst (input staging).
	HostLoad
	// Barrier is an instantaneous synchronization point.
	Barrier
	// Delay occupies no resource but takes Duration (protocol latencies,
	// CPU scheduling overheads).
	Delay
)

var kindNames = [...]string{"compute", "comm", "hostload", "barrier", "delay"}

// String returns the kind name.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Task is one node of the execution graph. Tasks live inside their Graph:
// the Add methods return a pointer that stays valid for the graph's life.
type Task struct {
	ID   int
	Kind Kind

	// GPU is the executing GPU index for Compute tasks.
	GPU int
	// Duration is the predicted execution time for Compute tasks.
	Duration sim.VTime

	// Src and Dst are topology node IDs for Comm/HostLoad tasks.
	Src, Dst network.NodeID
	// Bytes is the transfer volume for Comm/HostLoad tasks.
	Bytes float64

	// Layer and MicroBatch tag the task for breakdowns and tests.
	Layer      int
	MicroBatch int
	// Collective tags Comm tasks emitted by a collective generator with the
	// collective instance's label, so telemetry can aggregate per collective.
	Collective string

	// label is the static label, or a formatted label's string operand; form
	// and args hold the rest of a formatted label (see SetLabelf).
	label string
	form  LabelForm
	args  [maxLabelInts]int32
}

// maxLabelInts bounds a formatted label's integer operands.
const maxLabelInts = 3

// Storage chunks hold 8 KiB, then 16 KiB, then 32 KiB of elements each, so
// small graphs stay small and large ones never copy what they hold: a chunk
// is allocated whole and never reallocated, which keeps task pointers
// stable. The sizes are allocator size classes (32 KiB is the largest small
// one), so every chunk fills its allocation.
const (
	taskSize = int(unsafe.Sizeof(Task{}))
	// Tasks in the first, second and every later chunk.
	taskChunk0 = (8 << 10) / taskSize
	taskChunk1 = (16 << 10) / taskSize
	taskChunkN = (32 << 10) / taskSize
)

// chunkCap is the capacity of the c-th storage chunk of size-byte elements.
func chunkCap(c, size int) int { return (8 << 10 << min(c, 2)) / size }

// edge is one logged dependency: before must finish before after starts.
type edge struct{ before, after int32 }

// adjacency is a frozen compressed-sparse-row list: row v is
// idx[off[v]:off[v+1]].
type adjacency struct {
	off []int32
	idx []int32
}

func (a *adjacency) row(v int) []int32 { return a.idx[a.off[v]:a.off[v+1]] }

// Graph is a DAG of tasks. Tasks are stored by value in graph-owned chunks.
// AddDep appends to a chunked edge log; the first read of the adjacency
// (Validate, Deps, Dependents, the executor) freezes the log into CSR deps
// and dependents lists, and a later AddDep is folded in by the next read.
type Graph struct {
	chunks [][]Task
	n      int

	log [][]edge
	// dangling is the first AddDep whose endpoint is not a task of this
	// graph; Validate reports it.
	dangling *edge

	deps, dependents adjacency
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// add appends a zero task of kind k, assigning its ID.
func (g *Graph) add(k Kind, label string) *Task {
	last := len(g.chunks) - 1
	if last < 0 || len(g.chunks[last]) == cap(g.chunks[last]) {
		if g.n == math.MaxInt32 {
			panic("task: graph exceeds 2^31-1 tasks")
		}
		g.chunks = append(g.chunks, make([]Task, 0, chunkCap(last+1,
			taskSize)))
		last++
	}
	c := &g.chunks[last]
	*c = (*c)[:len(*c)+1]
	t := &(*c)[len(*c)-1]
	t.ID, t.Kind, t.label = g.n, k, label
	g.n++
	return t
}

// Task returns the task with the given ID.
func (g *Graph) Task(id int) *Task {
	switch {
	case id < taskChunk0:
		return &g.chunks[0][id]
	case id < taskChunk0+taskChunk1:
		return &g.chunks[1][id-taskChunk0]
	}
	id -= taskChunk0 + taskChunk1
	return &g.chunks[2+id/taskChunkN][id%taskChunkN]
}

// AddCompute adds a compute task on gpu lasting dur.
func (g *Graph) AddCompute(gpu int, dur sim.VTime, label string) *Task {
	t := g.add(Compute, label)
	t.GPU, t.Duration = gpu, dur
	return t
}

// AddComm adds a network transfer task.
func (g *Graph) AddComm(src, dst network.NodeID, bytes float64,
	label string) *Task {
	t := g.add(Comm, label)
	t.Src, t.Dst, t.Bytes = src, dst, bytes
	return t
}

// AddHostLoad adds a host→GPU staging transfer.
func (g *Graph) AddHostLoad(host, dst network.NodeID, bytes float64,
	label string) *Task {
	t := g.add(HostLoad, label)
	t.Src, t.Dst, t.Bytes = host, dst, bytes
	return t
}

// AddBarrier adds an instantaneous barrier task.
func (g *Graph) AddBarrier(label string) *Task {
	return g.add(Barrier, label)
}

// AddDelay adds a resource-free task taking dur (protocol/CPU overheads).
func (g *Graph) AddDelay(dur sim.VTime, label string) *Task {
	t := g.add(Delay, label)
	t.Duration = dur
	return t
}

// AddDep records that before must finish before after starts. Self- and
// duplicate dependencies are ignored: the adjacency keeps each edge once,
// in the order of its first AddDep.
func (g *Graph) AddDep(before, after *Task) {
	if before == nil || after == nil || before.ID == after.ID {
		return
	}
	if before.ID < 0 || before.ID >= g.n || after.ID < 0 ||
		after.ID >= g.n {
		if g.dangling == nil {
			g.dangling = &edge{int32(before.ID), int32(after.ID)}
		}
		return
	}
	last := len(g.log) - 1
	if last < 0 || len(g.log[last]) == cap(g.log[last]) {
		g.log = append(g.log, make([]edge, 0,
			chunkCap(last+1, int(unsafe.Sizeof(edge{})))))
		last++
	}
	g.log[last] = append(g.log[last], edge{int32(before.ID), int32(after.ID)})
}

// Len returns the number of tasks.
func (g *Graph) Len() int { return g.n }

// Deps returns the IDs of the tasks that must finish before task id starts,
// in first-AddDep order. The slice is shared: do not modify it.
func (g *Graph) Deps(id int) []int32 {
	g.freeze()
	return g.deps.row(id)
}

// Dependents returns the IDs of the tasks waiting on task id, in first-AddDep
// order. The slice is shared: do not modify it.
func (g *Graph) Dependents(id int) []int32 {
	g.freeze()
	return g.dependents.row(id)
}

// freeze folds the edge log into the CSR deps and dependents lists. Each row
// holds the previously frozen row followed by the logged edges in AddDep
// order, with repeats of an edge dropped, so every row lists its edges in
// first-insertion order.
func (g *Graph) freeze() {
	if len(g.deps.off) == g.n+1 && g.log == nil {
		return
	}
	seen := make([]int32, g.n)
	g.deps = g.fold(g.deps, true, seen)
	clear(seen)
	g.dependents = g.fold(g.dependents, false, seen)
	g.log = nil
}

// fold returns old (frozen over a prefix of the tasks) extended by the edge
// log: rows are keyed by each edge's after task (deps) when byAfter is set,
// else by its before task (dependents). seen is zeroed scratch of one entry
// per task.
func (g *Graph) fold(old adjacency, byAfter bool, seen []int32) adjacency {
	key := func(e edge) (row, entry int32) {
		if byAfter {
			return e.after, e.before
		}
		return e.before, e.after
	}
	oldN := max(len(old.off)-1, 0)
	// Count row lengths into off[v], then turn them into row ends.
	off := make([]int32, g.n+1)
	for v := 0; v < oldN; v++ {
		off[v] = old.off[v+1] - old.off[v]
	}
	for _, chunk := range g.log {
		for _, e := range chunk {
			v, _ := key(e)
			off[v]++
		}
	}
	var total int32
	for v := 0; v < g.n; v++ {
		total += off[v]
		off[v] = total
	}
	off[g.n] = total
	// Scatter back to front, so each row fills from its end and off[v] ends
	// at the row's start: the log in reverse, then the frozen prefix.
	idx := make([]int32, total)
	for c := len(g.log) - 1; c >= 0; c-- {
		chunk := g.log[c]
		for k := len(chunk) - 1; k >= 0; k-- {
			v, x := key(chunk[k])
			off[v]--
			idx[off[v]] = x
		}
	}
	for v := 0; v < oldN; v++ {
		row := old.row(v)
		off[v] -= int32(len(row))
		copy(idx[off[v]:], row)
	}
	// Drop repeats, keeping each entry's first occurrence in its row:
	// seen[x] == v+1 marks x as already listed in row v.
	var w int32
	start := off[0]
	for v := 0; v < g.n; v++ {
		end := off[v+1]
		off[v] = w
		for _, x := range idx[start:end] {
			if seen[x] != int32(v)+1 {
				seen[x] = int32(v) + 1
				idx[w] = x
				w++
			}
		}
		start = end
	}
	off[g.n] = w
	return adjacency{off: off, idx: idx[:w]}
}

// Validate checks that the graph is a DAG with resolvable dependencies and
// well-formed task fields, freezing the adjacency.
func (g *Graph) Validate() error {
	_, err := g.validate()
	return err
}

// validate is Validate, also handing back its in-degree buffer (all zeros
// once the graph checks out) for the executor to refill.
func (g *Graph) validate() ([]int32, error) {
	for _, chunk := range g.chunks {
		for i := range chunk {
			if err := chunk[i].check(); err != nil {
				return nil, err
			}
		}
	}
	if e := g.dangling; e != nil {
		return nil, fmt.Errorf("task %d: dangling dep %d", e.after, e.before)
	}
	g.freeze()
	// Kahn's algorithm: all tasks must be reachable at indegree 0. Each task
	// enters the queue once, so it never outgrows n.
	indeg := g.indegrees(make([]int32, g.n))
	queue := make([]int32, 0, g.n)
	for id, d := range indeg {
		if d == 0 {
			queue = append(queue, int32(id))
		}
	}
	for head := 0; head < len(queue); head++ {
		for _, dep := range g.dependents.row(int(queue[head])) {
			indeg[dep]--
			if indeg[dep] == 0 {
				queue = append(queue, dep)
			}
		}
	}
	if len(queue) != g.n {
		return nil, fmt.Errorf("task: graph has a cycle (%d of %d reachable)",
			len(queue), g.n)
	}
	return indeg, nil
}

// indegrees fills indeg (one entry per task) with every task's dependency
// count, read off the frozen CSR offsets.
func (g *Graph) indegrees(indeg []int32) []int32 {
	for v := range indeg {
		indeg[v] = g.deps.off[v+1] - g.deps.off[v]
	}
	return indeg
}

// check validates one task's fields.
func (t *Task) check() error {
	switch t.Kind {
	case Compute:
		if t.Duration.Before(0) {
			return fmt.Errorf("task %d (%s): negative duration",
				t.ID, t.Label())
		}
		if t.GPU < 0 {
			return fmt.Errorf("task %d (%s): no GPU", t.ID, t.Label())
		}
	case Delay:
		if t.Duration.Before(0) {
			return fmt.Errorf("task %d (%s): negative delay",
				t.ID, t.Label())
		}
	case Comm, HostLoad:
		if t.Bytes < 0 {
			return fmt.Errorf("task %d (%s): negative bytes",
				t.ID, t.Label())
		}
	}
	return nil
}

// CriticalPathLength returns the longest dependency chain's total compute
// duration, ignoring communication (a lower bound on makespan and a useful
// diagnostic for stage balancing).
func (g *Graph) CriticalPathLength() sim.VTime {
	g.freeze()
	memo := make([]sim.VTime, g.n)
	done := make([]bool, g.n)
	var longest func(id int) sim.VTime
	longest = func(id int) sim.VTime {
		if done[id] {
			return memo[id]
		}
		done[id] = true
		var best sim.VTime
		for _, d := range g.deps.row(id) {
			if v := longest(int(d)); v.After(best) {
				best = v
			}
		}
		memo[id] = best + g.Task(id).Duration
		return memo[id]
	}
	var best sim.VTime
	for id := 0; id < g.n; id++ {
		if v := longest(id); v.After(best) {
			best = v
		}
	}
	return best
}

// Stats summarizes a graph for logs and tests.
type Stats struct {
	Compute, Comm, HostLoad, Barrier int
	ComputeTime                      sim.VTime
	CommBytes                        float64
}

// Summarize counts tasks by kind.
func (g *Graph) Summarize() Stats {
	var s Stats
	for id := 0; id < g.n; id++ {
		t := g.Task(id)
		switch t.Kind {
		case Compute:
			s.Compute++
			s.ComputeTime += t.Duration
		case Comm:
			s.Comm++
			s.CommBytes += t.Bytes
		case HostLoad:
			s.HostLoad++
			s.CommBytes += t.Bytes
		case Barrier:
			s.Barrier++
		}
	}
	return s
}
