package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"

	"iupdater/internal/trace"
)

// span is one recorded interval: a layer call the benchmark wrapped, or a
// stage span the update pipeline recorded itself.
type span struct {
	// trace numbers the request; parent indexes the causing span in the
	// recorder, -1 for a request's root.
	trace, parent int32
	name          string
	// start and end are nanoseconds since the recorder's epoch.
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps a run's spans in memory; they are written out when the
// run ends. A recorder that is off records nothing and reads no clock, so
// a pass with it off measures the calls alone.
type recorder struct {
	on    bool
	epoch time.Time
	spans []span
	trace int32
}

// spansPerOp sizes a recorder that is on up front (a locate records up
// to seven spans), so recording does not pay for growing the slice.
const spansPerOp = 8

func newRecorder(on bool) *recorder {
	r := &recorder{on: on, epoch: time.Now()}
	if on {
		r.spans = make([]span, 0, passOps*spansPerOp)
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// root opens the root span of a new request.
func (r *recorder) root(name string) int32 {
	if !r.on {
		return -1
	}
	r.trace++
	return r.open(name, -1)
}

// begin opens a child span of parent.
func (r *recorder) begin(name string, parent int32) int32 {
	if !r.on {
		return -1
	}
	return r.open(name, parent)
}

func (r *recorder) open(name string, parent int32) int32 {
	r.spans = append(r.spans, span{trace: r.trace, parent: parent, name: name, start: r.now()})
	return int32(len(r.spans) - 1)
}

// end closes span i (a no-op for the -1 a recorder that is off returns).
func (r *recorder) end(i int32) {
	if i >= 0 {
		r.spans[i].end = r.now()
	}
}

// importTrace appends a retained program trace as a new request, its
// root first, keeping the program's parent links.
func (r *recorder) importTrace(td *trace.TraceData) {
	if !r.on || td == nil {
		return
	}
	r.trace++
	base := int32(len(r.spans))
	index := make(map[uint64]int32, len(td.Spans))
	off := int64(td.Start.Sub(r.epoch))
	for i, sd := range td.Spans {
		index[sd.ID] = base + int32(i)
	}
	for _, sd := range td.Spans {
		parent, ok := index[sd.ParentID]
		if !ok {
			parent = -1
		}
		start := off + int64(sd.Start)
		r.spans = append(r.spans, span{trace: r.trace, parent: parent, name: sd.Name, start: start, end: start + int64(sd.Duration)})
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children count
// once, and a child reaching outside its parent counts only inside).
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi int64
		for k, in := range iv {
			switch {
			case k == 0:
				curLo, curHi = in[0], in[1]
			case in[0] <= curHi:
				curHi = max(curHi, in[1])
			default:
				covered += curHi - curLo
				curLo, curHi = in[0], in[1]
			}
		}
		if len(iv) > 0 {
			covered += curHi - curLo
		}
		self[i] = s.dur() - covered
	}
	return self
}

// spanStats aggregates spans by name.
type spanStats struct {
	durs map[string][]float64 // µs
	// rootDur and rootSelf sum the durations and self times of each
	// root name's spans (ns).
	rootDur, rootSelf map[string]int64
}

func aggregate(spans []span) spanStats {
	self := selfTimes(spans)
	st := spanStats{durs: map[string][]float64{}, rootDur: map[string]int64{}, rootSelf: map[string]int64{}}
	for i, s := range spans {
		st.durs[s.name] = append(st.durs[s.name], float64(s.dur())/1e3)
		if s.parent < 0 {
			st.rootDur[s.name] += s.dur()
			st.rootSelf[s.name] += self[i]
		}
	}
	return st
}

// unattributed is the share of root's time that no child span covers.
func (st spanStats) unattributed(root string) float64 {
	if st.rootDur[root] == 0 {
		return 0
	}
	return float64(st.rootSelf[root]) / float64(st.rootDur[root])
}

// writeSpans writes the spans as JSON: one array per span of
// [trace, parent, name, start_ns, duration_ns, self_ns].
func writeSpans(path, workload string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	self := selfTimes(spans)
	head, _ := json.Marshal(map[string]any{"workload": workload, "columns": []string{"trace", "parent", "name", "start_ns", "duration_ns", "self_ns"}})
	w.Write(head[:len(head)-1])
	w.WriteString(`,"spans":[`)
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		row, _ := json.Marshal([]any{s.trace, s.parent, s.name, s.start, s.dur(), self[i]})
		w.Write(row)
		w.WriteByte('\n')
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
