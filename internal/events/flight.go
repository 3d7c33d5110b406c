package events

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

func wallClock() int64 { return time.Now().UnixNano() }

// flightKeep bounds the events ReadFlightLog returns for a run. The artifact
// holds up to twice as many lines between rewrites.
const flightKeep = 2048

// FlightRecorder persists a bounded tail of bus events to a JSONL artifact
// next to the journal, for post-mortem reconstruction of a run that died
// with no live subscriber attached. Events are written through on arrival
// (crash-safe up to OS buffering). The file restarts when a new run starts
// (apply.run_start or recover.start) and is cut back to its newest flightKeep
// lines whenever it reaches twice that, so one artifact never grows without
// bound and a long run pays for a rewrite once per flightKeep events.
type FlightRecorder struct {
	mu   sync.Mutex
	path string
	f    *os.File
	w    *bufio.Writer
	tail []Event // the lines in the file, fewer than 2*flightKeep
	sub  *Subscription
	done chan struct{}
}

// NewFlightRecorder opens (creating or appending) the artifact at path and
// starts consuming the bus in a goroutine. Close flushes and detaches.
func NewFlightRecorder(path string, bus *Bus) (*FlightRecorder, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	r := &FlightRecorder{
		path: path,
		f:    f,
		w:    bufio.NewWriter(f),
		sub:  bus.Subscribe(Filter{}, 1024),
		done: make(chan struct{}),
	}
	go r.run()
	return r, nil
}

// Path returns the artifact location.
func (r *FlightRecorder) Path() string {
	if r == nil {
		return ""
	}
	return r.path
}

func (r *FlightRecorder) run() {
	defer close(r.done)
	for e := range r.sub.C() {
		r.record(e)
	}
}

func (r *FlightRecorder) record(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.Kind == "apply.run_start" || e.Kind == "recover.start" {
		// New run: restart the artifact so it holds this run's events.
		r.tail = r.tail[:0]
		r.restart()
	}
	r.tail = append(r.tail, e)
	if len(r.tail) >= 2*flightKeep {
		// Over budget: rewrite the file from the newest flightKeep events.
		r.tail = append(r.tail[:0], r.tail[len(r.tail)-flightKeep:]...)
		if r.restart() {
			for _, te := range r.tail {
				r.writeLine(te)
			}
			r.w.Flush()
			return
		}
	}
	r.writeLine(e)
	r.w.Flush()
}

// restart empties the artifact, reporting whether it could.
func (r *FlightRecorder) restart() bool {
	r.w.Flush()
	if err := r.f.Truncate(0); err != nil {
		return false
	}
	r.w.Reset(r.f) // f is O_APPEND: the next write lands at the new end
	return true
}

func (r *FlightRecorder) writeLine(e Event) {
	b, err := json.Marshal(e)
	if err != nil {
		return
	}
	r.w.Write(b)
	r.w.WriteByte('\n')
}

// Close detaches from the bus, drains buffered events, flushes, and closes
// the artifact.
func (r *FlightRecorder) Close() error {
	if r == nil {
		return nil
	}
	r.sub.Close()
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	r.w.Flush()
	return r.f.Close()
}

// ReadFlightLog loads the newest flightKeep events of a flight-recorder
// artifact, tolerant of a torn final line from a crash mid-write.
func ReadFlightLog(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Event
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var e Event
		if json.Unmarshal(sc.Bytes(), &e) == nil && e.Kind != "" {
			out = append(out, e)
		}
	}
	if len(out) > flightKeep {
		out = out[len(out)-flightKeep:]
	}
	return out, sc.Err()
}
