package main

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// spanPid is the Chrome trace process the benchmark's spans live under.
// The engine's own trace export (trace.WriteChromeTrace) uses pid 1, so
// both files load side by side in Perfetto without their rows merging.
const spanPid = 2

// span is one timed call the benchmark made into a layer. Spans nest
// by Parent: workload, then session or probe run, then the layer call.
type span struct {
	ID, Parent int
	Name       string
	// Track is the Chrome thread row: 0 for the workload's own calls,
	// the client number (1-based) for a client's sessions.
	Track      int
	Start, End time.Time
}

// spans records spans in memory until the run ends. The nil recorder
// records nothing, so untraced runs pay one branch per call.
type spans struct {
	mu     sync.Mutex
	origin time.Time
	list   []span
}

func newSpans() *spans { return &spans{origin: time.Now()} }

// add records a finished span and returns its ID (0 on a nil recorder).
func (s *spans) add(name string, parent, track int, start, end time.Time) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := len(s.list) + 1
	s.list = append(s.list, span{ID: id, Parent: parent, Name: name, Track: track, Start: start, End: end})
	return id
}

// begin opens a span that finish closes; use it when children must
// name their parent before the parent ends.
func (s *spans) begin(name string, parent, track int) int {
	now := time.Now()
	return s.add(name, parent, track, now, now)
}

func (s *spans) finish(id int) {
	if s == nil || id == 0 {
		return
	}
	s.mu.Lock()
	s.list[id-1].End = time.Now()
	s.mu.Unlock()
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome renders the spans as Chrome trace_event JSON ("X"
// slices in wall microseconds since the recorder started, one row per
// track, each slice carrying its id and parent id).
func (s *spans) writeChrome(w io.Writer) error {
	s.mu.Lock()
	list := append([]span(nil), s.list...)
	s.mu.Unlock()
	sort.SliceStable(list, func(i, j int) bool { return list[i].Start.Before(list[j].Start) })
	tracks := map[int]bool{}
	events := []chromeEvent{{Name: "process_name", Ph: "M", Pid: spanPid, Args: map[string]any{"name": "perfbench"}}}
	for _, sp := range list {
		if !tracks[sp.Track] {
			tracks[sp.Track] = true
			name := "workload"
			if sp.Track > 0 {
				name = "client " + strconv.Itoa(sp.Track)
			}
			events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: spanPid, Tid: sp.Track, Args: map[string]any{"name": name}})
		}
		events = append(events, chromeEvent{
			Name: sp.Name, Ph: "X", Pid: spanPid, Tid: sp.Track,
			Ts:   float64(sp.Start.Sub(s.origin).Nanoseconds()) / 1e3,
			Dur:  float64(sp.End.Sub(sp.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": sp.ID, "parent": sp.Parent},
		})
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
}
