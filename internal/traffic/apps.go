// Foreground Grid application traffic models: workflow DAGs (GridNPB) and
// iterative broadcast/gather (ScaLapack).
package traffic

import (
	"fmt"

	"massf/internal/des"
	"massf/internal/model"
	"massf/internal/netsim"
)

// Task is one node of an application workflow: it runs on a host, computes
// for a while, then ships its output to each successor task. A task starts
// once all its predecessors' outputs have arrived.
type Task struct {
	// Host executes the task.
	Host model.NodeID
	// Compute is the modeled computation time before output is sent.
	Compute des.Time
	// OutBytes is the data sent to each successor.
	OutBytes int64
	// Succ lists successor task indices.
	Succ []int
}

// Workflow is a data-flow graph of tasks — the structure of the GridNPB
// benchmarks ("a workflow style composition in data flow graphs"). For
// continuous (looping) execution the graph must be a single-sink DAG in
// which every task reaches the sink; the sink then re-triggers the sources
// for the next round, which keeps all bookkeeping causally ordered and
// engine-ownership safe.
type Workflow struct {
	Name  string
	Tasks []Task
}

// Validate checks the shape: successor indices in range, acyclic, exactly
// one sink, and every task on a path to the sink.
func (w *Workflow) Validate() error {
	n := len(w.Tasks)
	if n == 0 {
		return fmt.Errorf("traffic: workflow %q is empty", w.Name)
	}
	indeg := make([]int, n)
	sink := -1
	for i, t := range w.Tasks {
		if len(t.Succ) == 0 {
			if sink >= 0 {
				return fmt.Errorf("traffic: workflow %q has multiple sinks (%d and %d)", w.Name, sink, i)
			}
			sink = i
		}
		for _, s := range t.Succ {
			if s < 0 || s >= n {
				return fmt.Errorf("traffic: task %d successor %d out of range", i, s)
			}
			if s == i {
				return fmt.Errorf("traffic: task %d is its own successor", i)
			}
			indeg[s]++
		}
	}
	if sink < 0 {
		return fmt.Errorf("traffic: workflow %q has no sink (cycle)", w.Name)
	}
	// Kahn's algorithm detects cycles.
	deg := append([]int(nil), indeg...)
	var queue []int
	for i, d := range deg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	seen := 0
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, s := range w.Tasks[u].Succ {
			deg[s]--
			if deg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if seen != n {
		return fmt.Errorf("traffic: workflow %q contains a cycle", w.Name)
	}
	// Reverse reachability from the sink.
	reach := make([]bool, n)
	reach[sink] = true
	for changed := true; changed; {
		changed = false
		for i, t := range w.Tasks {
			if reach[i] {
				continue
			}
			for _, s := range t.Succ {
				if reach[s] {
					reach[i] = true
					changed = true
					break
				}
			}
		}
	}
	for i, r := range reach {
		if !r {
			return fmt.Errorf("traffic: task %d cannot reach the sink", i)
		}
	}
	return nil
}

// Sink returns the index of the workflow's unique sink task.
func (w *Workflow) Sink() int {
	for i, t := range w.Tasks {
		if len(t.Succ) == 0 {
			return i
		}
	}
	return -1
}

// Sources returns the indices of tasks with no predecessors.
func (w *Workflow) Sources() []int {
	n := len(w.Tasks)
	indeg := make([]int, n)
	for _, t := range w.Tasks {
		for _, s := range t.Succ {
			indeg[s]++
		}
	}
	var src []int
	for i, d := range indeg {
		if d == 0 {
			src = append(src, i)
		}
	}
	return src
}

// WorkflowStats reports a workflow run. Fields are written on the sink
// host's engine; read only after the simulation's Run returns.
type WorkflowStats struct {
	// Rounds is the number of complete workflow executions.
	Rounds int
	// LastFinish is the completion time of the last finished round.
	LastFinish des.Time
	// FirstFinish is the completion time of the first round — the
	// workflow's unloaded makespan.
	FirstFinish des.Time
}

// controlBytes is the size of the sink→source round-restart message.
const controlBytes = 100

// InstallWorkflow wires the workflow into the simulation, starting at time
// start and re-running until the horizon (the paper's applications run
// continuously for the whole experiment).
func InstallWorkflow(s *netsim.Sim, w Workflow, start des.Time) (*WorkflowStats, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	stats := &WorkflowStats{}
	n := len(w.Tasks)
	indeg := make([]int, n)
	for _, t := range w.Tasks {
		for _, succ := range t.Succ {
			indeg[succ]++
		}
	}
	sinkIdx := w.Sink()
	sinkHost := w.Tasks[sinkIdx].Host
	sources := w.Sources()

	// waiting[i] is touched only on task i's host engine.
	waiting := make([]int, n)
	for i := range waiting {
		waiting[i] = indeg[i]
	}

	var fire func(i int, at des.Time)
	arrived := func(i int, at des.Time) {
		waiting[i]--
		if waiting[i] == 0 {
			fire(i, at)
		}
	}
	fire = func(i int, at des.Time) {
		t := &w.Tasks[i]
		waiting[i] = indeg[i] // reset for the next round
		finish := func(doneAt des.Time) {
			if i == sinkIdx {
				stats.Rounds++
				stats.LastFinish = doneAt
				if stats.FirstFinish == 0 {
					stats.FirstFinish = doneAt
				}
				// Restart every source with a control message; same-host
				// sources restart locally on this engine.
				for _, src := range sources {
					src := src
					h := w.Tasks[src].Host
					if h == sinkHost {
						fire(src, doneAt)
						continue
					}
					s.StartFlowRecv(doneAt, sinkHost, h, controlBytes, nil,
						func(arr des.Time) { fire(src, arr) })
				}
				return
			}
			for _, succ := range t.Succ {
				succ := succ
				dst := w.Tasks[succ].Host
				if dst == t.Host {
					arrived(succ, doneAt)
					continue
				}
				s.StartFlowRecv(doneAt, t.Host, dst, t.OutBytes, nil,
					func(arr des.Time) { arrived(succ, arr) })
			}
		}
		s.ScheduleAt(t.Host, at+t.Compute, finish)
	}
	for _, src := range sources {
		src := src
		s.ScheduleAt(w.Tasks[src].Host, start, func(at des.Time) { fire(src, at) })
	}
	return stats, nil
}
