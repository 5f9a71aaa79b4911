package task

import (
	"fmt"
	"slices"
	"testing"
)

// refGraph is the slice-per-task adjacency the CSR freeze replaces: AddDep
// drops nil, self and duplicate edges on insertion and appends the rest to
// the after task's deps and the before task's dependents.
type refGraph struct {
	deps, dependents [][]int32
}

func (r *refGraph) addTask() {
	r.deps = append(r.deps, nil)
	r.dependents = append(r.dependents, nil)
}

func (r *refGraph) addDep(before, after *Task) {
	if before == nil || after == nil || before.ID == after.ID {
		return
	}
	if slices.Contains(r.deps[after.ID], before.ID) {
		return
	}
	r.deps[after.ID] = append(r.deps[after.ID], before.ID)
	r.dependents[before.ID] = append(r.dependents[before.ID],
		after.ID)
}

// validate is the queue-slicing Kahn's algorithm over the slices.
func (r *refGraph) validate() error {
	indeg := make([]int, len(r.deps))
	var queue []int
	for id := range r.deps {
		if indeg[id] = len(r.deps[id]); indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	seen := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		seen++
		for _, d := range r.dependents[id] {
			indeg[d]--
			if indeg[d] == 0 {
				queue = append(queue, int(d))
			}
		}
	}
	if seen != len(r.deps) {
		return fmt.Errorf("task: graph has a cycle (%d of %d reachable)",
			seen, len(r.deps))
	}
	return nil
}

// sameAdjacency reports the first task whose deps or dependents differ.
func sameAdjacency(t *testing.T, g *Graph, r *refGraph) {
	t.Helper()
	if g.Len() != len(r.deps) {
		t.Fatalf("%d tasks, reference %d", g.Len(), len(r.deps))
	}
	for id := range r.deps {
		if got := g.Deps(id); !slices.Equal(got, r.deps[id]) {
			t.Fatalf("deps of %d = %v, reference %v", id, got, r.deps[id])
		}
		if got := g.Dependents(id); !slices.Equal(got, r.dependents[id]) {
			t.Fatalf("dependents of %d = %v, reference %v", id, got,
				r.dependents[id])
		}
	}
}

// FuzzGraphFreeze is the differential test for the CSR freeze: a byte
// string drives task adds, AddDep calls (nil endpoints, self edges and
// repeats included) and freezes part-way through, against the slice
// reference. Deps and dependents must match in order after every freeze,
// and Validate must return the same error.
func FuzzGraphFreeze(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 1, 1, 0, 1, 2, 1, 1, 0, 3})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 1, 1, 1, 2, 1, 2, 0, 3, 1, 0, 1, 3})
	f.Add([]byte{0, 5, 1, 0, 0, 1, 7, 7, 3, 0, 0, 1, 1, 0, 3, 1, 0, 1, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		g := NewGraph()
		ref := &refGraph{}
		var tasks []*Task
		// pick maps a byte to a task, or to nil one time in len+1.
		pick := func(b byte) *Task {
			if i := int(b) % (len(tasks) + 1); i < len(tasks) {
				return tasks[i]
			}
			return nil
		}
		var last [2]*Task
		for i := 0; i+2 < len(ops); i += 3 {
			switch ops[i] % 4 {
			case 0:
				tasks = append(tasks, g.AddBarrier(""))
				ref.addTask()
			case 1:
				last = [2]*Task{pick(ops[i+1]), pick(ops[i+2])}
				g.AddDep(last[0], last[1])
				ref.addDep(last[0], last[1])
			case 2:
				g.AddDep(last[0], last[1])
				ref.addDep(last[0], last[1])
			case 3:
				sameAdjacency(t, g, ref)
			}
		}
		got, want := g.Validate(), ref.validate()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Validate = %v, reference %v", got, want)
		}
		sameAdjacency(t, g, ref)
	})
}
