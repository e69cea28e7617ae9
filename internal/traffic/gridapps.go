// Concrete foreground application models: ScaLapack and the GridNPB 3.0
// benchmarks (Helical Chain, Visualization Pipeline, Mixed Bag) at class S
// scale, matching the workloads of Sections 4.2 and 5.2.1.
package traffic

import (
	"massf/internal/des"
	"massf/internal/model"
)

// ScaLapack sizes at class S: communication-heavy relative to compute,
// which is why the paper sees the largest load-balance effects on
// ScaLapack.
const (
	// scalapackPanel is the broadcast panel size per iteration.
	scalapackPanel = 400_000
	// scalapackResult is each worker's contribution gathered back.
	scalapackResult = 200_000
	// scalapackCompute is the per-task computation time per iteration.
	scalapackCompute = 80 * des.Millisecond
)

// ScaLapack models the ScaLapack LU factorization traffic: per iteration
// the root broadcasts the current panel to all workers, the workers
// compute, and partial results are gathered back at the root. hosts[0] is
// the root; the paper uses 7 application hosts.
func ScaLapack(hosts []model.NodeID) Workflow {
	w := Workflow{Name: "scalapack"}
	workers := len(hosts) - 1
	if workers < 1 {
		workers = 0
	}
	// Task 0: root broadcast. Tasks 1..workers: worker compute. Last
	// task: gather/sink at the root.
	root := Task{Host: hosts[0], Compute: scalapackCompute / 2, OutBytes: scalapackPanel}
	for i := 1; i <= workers; i++ {
		root.Succ = append(root.Succ, i)
	}
	w.Tasks = append(w.Tasks, root)
	sink := workers + 1
	for i := 1; i <= workers; i++ {
		w.Tasks = append(w.Tasks, Task{
			Host: hosts[i], Compute: scalapackCompute, OutBytes: scalapackResult,
			Succ: []int{sink},
		})
	}
	w.Tasks = append(w.Tasks, Task{Host: hosts[0], Compute: scalapackCompute / 4})
	if workers == 0 {
		w.Tasks = []Task{{Host: hosts[0], Compute: scalapackCompute}}
	}
	return w
}

// GridNPB transfer sizes (class S data-flow graph initialization payloads)
// and per-task solve times — small data, moderate compute.
const (
	npbTransfer = 150_000
	npbCompute  = 120 * des.Millisecond
)

// GridNPBHC builds the Helical Chain benchmark: a linear chain of NPB
// solver tasks (BT→SP→LU repeated three times) wound helically across the
// hosts — task i runs on hosts[i % len(hosts)].
func GridNPBHC(hosts []model.NodeID) Workflow {
	const length = 9
	w := Workflow{Name: "gridnpb-hc"}
	for i := 0; i < length; i++ {
		t := Task{
			Host:     hosts[i%len(hosts)],
			Compute:  npbCompute,
			OutBytes: npbTransfer,
		}
		if i < length-1 {
			t.Succ = []int{i + 1}
		}
		w.Tasks = append(w.Tasks, t)
	}
	return w
}

// GridNPBVP builds the Visualization Pipeline: three stages (flow solver
// BT, post-processor MG, visualization FT) in three pipelined columns,
// feeding a merge sink. Stage s of column c runs on hosts[(c+s) %
// len(hosts)].
func GridNPBVP(hosts []model.NodeID) Workflow {
	const cols, stages = 3, 3
	w := Workflow{Name: "gridnpb-vp"}
	id := func(c, s int) int { return c*stages + s }
	for c := 0; c < cols; c++ {
		for s := 0; s < stages; s++ {
			t := Task{
				Host:     hosts[(c+s)%len(hosts)],
				Compute:  npbCompute,
				OutBytes: npbTransfer,
			}
			if s < stages-1 {
				t.Succ = []int{id(c, s+1)}
			} else {
				t.Succ = []int{cols * stages} // merge sink
			}
			w.Tasks = append(w.Tasks, t)
		}
	}
	w.Tasks = append(w.Tasks, Task{Host: hosts[0], Compute: npbCompute / 4})
	return w
}

// GridNPBMB builds the Mixed Bag benchmark: a fan of heterogeneous NPB
// tasks (LU, MG, FT at different sizes) between a scatter source and a
// gather sink, with deliberately unequal compute and transfer volumes.
func GridNPBMB(hosts []model.NodeID) Workflow {
	w := Workflow{Name: "gridnpb-mb"}
	branches := []struct {
		compute des.Time
		bytes   int64
	}{
		{npbCompute / 2, npbTransfer / 2},
		{npbCompute, npbTransfer},
		{2 * npbCompute, 2 * npbTransfer},
	}
	sink := len(branches) + 1
	src := Task{Host: hosts[0], Compute: npbCompute / 4, OutBytes: npbTransfer}
	for i := range branches {
		src.Succ = append(src.Succ, i+1)
	}
	w.Tasks = append(w.Tasks, src)
	for i, b := range branches {
		w.Tasks = append(w.Tasks, Task{
			Host:     hosts[(i+1)%len(hosts)],
			Compute:  b.compute,
			OutBytes: b.bytes,
			Succ:     []int{sink},
		})
	}
	w.Tasks = append(w.Tasks, Task{Host: hosts[0], Compute: npbCompute / 4})
	return w
}

// GridNPB returns the combination the paper runs: HC, VP and MB together.
func GridNPB(hosts []model.NodeID) []Workflow {
	return []Workflow{GridNPBHC(hosts), GridNPBVP(hosts), GridNPBMB(hosts)}
}
