package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one round
// (live or replayed) share Round; Parent is the span that caused it.
type span struct {
	Name     string `json:"name"`
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"` // 0: a root
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Round    int    `json:"round"`
}

// phaseSpan is one phase of a live round as the program itself timed
// it. The program reports durations, not start times, so the harness
// lays phases out back to back from the round's start; a phase marked
// inside ran within the phase before it and starts where that one did.
type phaseSpan struct {
	name   string
	d      time.Duration
	inside bool
}

// phaseLog holds the phases of every live round of a traced run, a
// fixed number per round in one flat preallocated slice.
type phaseLog struct {
	per  int
	flat []phaseSpan
}

func newPhaseLog(per int) *phaseLog {
	return &phaseLog{per: per, flat: make([]phaseSpan, 0, per*1<<14)}
}

// addSplit appends one round's Figure-12 split, the phases every plane
// reports in its round statistics.
func (p *phaseLog) addSplit(compute, comm, agg time.Duration) {
	p.flat = append(p.flat,
		phaseSpan{name: "compute", d: compute},
		phaseSpan{name: "communication", d: comm},
		phaseSpan{name: "aggregation", d: agg})
}

func (p *phaseLog) rounds() int { return len(p.flat) / p.per }

func (p *phaseLog) round(i int) []phaseSpan { return p.flat[i*p.per : (i+1)*p.per] }

// spanLog keeps the traced run's spans in memory until exit.
type spanLog struct {
	workload string
	t0       time.Time
	spans    []span
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{workload: workload, t0: time.Now(), spans: make([]span, 0, 1<<15)}
}

func (l *spanLog) add(name string, parent int64, round int, start, end time.Time) int64 {
	id := int64(len(l.spans) + 1)
	l.spans = append(l.spans, span{
		Name: name, ID: id, Parent: parent,
		StartNS: start.Sub(l.t0).Nanoseconds(), EndNS: end.Sub(l.t0).Nanoseconds(),
		Workload: l.workload, Round: round,
	})
	return id
}

// liveRound records one live round and its program-reported phases.
func (l *spanLog) liveRound(round int, start, end time.Time, phases []phaseSpan) {
	root := l.add("round", 0, round, start, end)
	cursor, prevStart, prevID := start, start, root
	for _, p := range phases {
		if p.inside {
			l.add(p.name, prevID, round, prevStart, prevStart.Add(p.d))
			continue
		}
		prevStart = cursor
		cursor = cursor.Add(p.d)
		prevID = l.add(p.name, root, round, prevStart, cursor)
	}
}

// selfTimes returns, per span name, the mean self time in ms: a span's
// duration minus the part of it its children cover.
func (l *spanLog) selfTimes() map[string]float64 {
	child := make(map[int64]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	sum := make(map[string]time.Duration)
	count := make(map[string]int)
	for _, s := range l.spans {
		sum[s.Name] += time.Duration(s.EndNS - s.StartNS - child[s.ID])
		count[s.Name]++
	}
	self := make(map[string]float64, len(sum))
	for name, d := range sum {
		self[name] = ms(d) / float64(count[name])
	}
	return self
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
