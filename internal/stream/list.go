package stream

import (
	"container/heap"
	"fmt"
	"slices"
	"sync"

	"clsacim/internal/schedule"
)

// conflictFree reports whether no two models' PE ranges overlap. The
// replica groups of one mapping never share a PE, so on disjoint ranges
// every group serves only its own model's jobs and is never arbitrated:
// the workload runList schedules exactly.
func conflictFree(models []ModelSpec) bool {
	for a, x := range models {
		for _, y := range models[a+1:] {
			if x.PEBase < y.PEBase+y.Mapping.F && y.PEBase < x.PEBase+x.Mapping.F {
				return false
			}
		}
	}
	return true
}

// scratchPool recycles the Stage IV working memory across runs.
var scratchPool = sync.Pool{New: func() any { return new(schedule.Scratch) }}

// listModel is one model class's state in runList: the free time of
// each of its replica groups after the model's last scheduled job, and
// its scheduled jobs in issue order.
type listModel struct {
	free []int64
	jobs []int32
}

// runList schedules a conflict-free workload job by job in issue order.
// Each replica group serves its model's jobs FIFO in issue order, so a
// job's sets only wait on earlier jobs of the same model, through its
// groups' free times and its admission. Stage IV (schedule.Scratch.Job)
// places each job's sets; around it runList derives admission,
// closed-loop arrivals and the queue trace. Under
// DropTimelines it builds no timeline. The result equals the event
// loop's on every conflict-free workload.
func runList(w Workload, opt Options) (*Result, error) {
	nj := len(w.Sequence)
	res := &Result{Jobs: make([]JobStat, nj)}
	if !opt.DropTimelines {
		res.Timelines = make([]*schedule.Timeline, nj)
	}
	ms := make([]listModel, len(w.Models))
	for mi, spec := range w.Models {
		reps := 0
		for _, ls := range spec.Graph.Plan.Layers {
			reps += ls.Group.Dup
		}
		ms[mi].free = make([]int64, reps)
	}
	sc := scratchPool.Get().(*schedule.Scratch)
	defer scratchPool.Put(sc)
	// Closed loop: the first Concurrency jobs arrive at cycle 0, and each
	// later job arrives at the next retirement. Every job ends no earlier
	// than it arrives, and it arrives at the latest end popped so far, so
	// ends enter the heap in nondecreasing order relative to the pops and
	// the k-th pop is the k-th retirement.
	closed := w.Arrivals == nil
	var ends endHeap
	for j, mi := range w.Sequence {
		if opt.Context != nil {
			if err := opt.Context.Err(); err != nil {
				return nil, fmt.Errorf("stream: run abandoned before job %d of %d: %w", j, nj, err)
			}
		}
		var arrival int64
		switch {
		case !closed:
			arrival = w.Arrivals[j]
		case j >= w.Concurrency:
			arrival = heap.Pop(&ends).(int64)
		}
		// Job k of a model is admitted once it has arrived and job
		// k-MaxInFlight has retired. Arrivals and a model's ends are
		// nondecreasing in issue order, so admissions are too, as the
		// event loop's in-order admission requires.
		m := &ms[mi]
		release := arrival
		if g := opt.MaxInFlight; g > 0 && len(m.jobs) >= g {
			release = max(release, res.Jobs[m.jobs[len(m.jobs)-g]].End)
		}
		spec := w.Models[mi]
		var tl *schedule.Timeline
		if res.Timelines != nil {
			tl = schedule.NewTimeline(spec.Graph, spec.Policy)
			res.Timelines[j] = tl
		}
		start, end, err := sc.Job(spec.Graph, spec.Policy, spec.Edge, release, m.free, tl)
		if err != nil {
			return nil, err
		}
		res.Jobs[j] = JobStat{Model: mi, Arrival: arrival, Start: start, End: end}
		res.MakespanCycles = max(res.MakespanCycles, end)
		m.jobs = append(m.jobs, int32(j))
		if closed {
			heap.Push(&ends, end)
		}
	}
	res.Queue = queueTrace(res.Jobs)
	res.PEActive = peActive(w)
	return res, nil
}

// peActive returns the busy cycles of every fabric PE over a run that
// retired every job of w. Each job runs every set of its model exactly
// once on the set's Stage III replica, so a model's jobs each keep a
// replica busy for the cycles deps.Graph.Activity gives it, whenever
// they run, and every PE of a replica is busy while the replica is.
func peActive(w Workload) []int64 {
	out := make([]int64, w.FabricPEs)
	for mi, spec := range w.Models {
		var jobs int64
		for _, m := range w.Sequence {
			if m == mi {
				jobs++
			}
		}
		if jobs == 0 {
			continue
		}
		_, active := spec.Graph.Activity()
		for li, row := range active {
			for r, a := range row {
				for _, pe := range spec.Mapping.Groups[li].ReplicaPEs(r) {
					out[spec.PEBase+pe] += jobs * a
				}
			}
		}
	}
	return out
}

// queueTrace is the queue-depth trace of a finished stream: one sample
// per distinct arrival or end time, with the depth once every arrival
// and retirement at that time has happened. Arrivals are already in
// issue order, which is time order.
func queueTrace(jobs []JobStat) []QueueSample {
	ends := make([]int64, len(jobs))
	for j, js := range jobs {
		ends[j] = js.End
	}
	slices.Sort(ends)
	var q []QueueSample
	depth, a := 0, 0
	for e := 0; e < len(ends); {
		t := ends[e]
		if a < len(jobs) && jobs[a].Arrival < t {
			t = jobs[a].Arrival
		}
		for ; a < len(jobs) && jobs[a].Arrival == t; a++ {
			depth++
		}
		for ; e < len(ends) && ends[e] == t; e++ {
			depth--
		}
		q = append(q, QueueSample{Time: t, Depth: depth})
	}
	return q
}

// endHeap is a min-heap of job end times (container/heap).
type endHeap []int64

func (h endHeap) Len() int           { return len(h) }
func (h endHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h endHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *endHeap) Push(x any)        { *h = append(*h, x.(int64)) }
func (h *endHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
