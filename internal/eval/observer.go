package eval

// This file defines the Observer sink the grid runners stream progress
// through. Every cell of a matrix or sweep run emits a started and a
// finished event; run-level events bracket the grid and carry the
// terminal error (context cancellation, checkpoint write failure). A
// cell's record is in its lane (sweep.go) before its finished event is
// emitted. The CLI progress printer (internal/exp) is the stock
// observer; anything implementing the one-method interface can subscribe
// through MatrixConfig.Observer.

// EventKind discriminates Observer events.
type EventKind int

// Observer event kinds.
const (
	// EventRunStart opens a grid run; Total carries the full grid size
	// (for a sweep: the whole grid, not just this shard).
	EventRunStart EventKind = iota
	// EventCellStart marks one grid cell beginning execution.
	EventCellStart
	// EventCellDone marks one grid cell finishing; Result holds its
	// metrics and Done the number of cells finished so far in this run.
	EventCellDone
	// EventLog carries a harness progress line (the same text the
	// injected Env logger receives); Msg holds the formatted line.
	EventLog
	// EventRunDone closes the run; Err is nil on success, the context
	// error on cancellation, or the checkpoint write error.
	EventRunDone
)

// String names the kind for logs and progress printers.
func (k EventKind) String() string {
	switch k {
	case EventRunStart:
		return "run-start"
	case EventCellStart:
		return "cell-start"
	case EventCellDone:
		return "cell-done"
	case EventLog:
		return "log"
	case EventRunDone:
		return "run-done"
	}
	return "unknown"
}

// Event is one progress notification from a grid runner. Cell events
// identify their grid point through Cell; only the fields documented on
// the kind are meaningful.
type Event struct {
	Kind  EventKind
	Total int // full grid size
	Done  int // cells finished so far (EventCellDone)

	Cell   CellID      // EventCellStart / EventCellDone
	Result *MatrixCell // EventCellDone; shared, do not mutate

	Msg string // EventLog
	Err error  // EventRunDone
}

// Observer receives run progress events. Observe is called from the
// worker goroutines of a parallel grid run and must be safe for
// concurrent use; implementations that buffer (progress printers)
// serialise internally.
type Observer interface {
	Observe(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// Observe implements Observer.
func (f ObserverFunc) Observe(ev Event) { f(ev) }

// MultiObserver fans events out to every non-nil observer in order.
func MultiObserver(obs ...Observer) Observer {
	var live []Observer
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multiObserver(live)
}

type multiObserver []Observer

// Observe implements Observer.
func (m multiObserver) Observe(ev Event) {
	for _, o := range m {
		o.Observe(ev)
	}
}

// emit sends ev to obs when a sink is subscribed.
func emit(obs Observer, ev Event) {
	if obs != nil {
		obs.Observe(ev)
	}
}
