package serve

import (
	"context"
	"sync"
)

// This file implements the single-flight machinery of the /run endpoint:
// one in-flight computation per canonical spec hash, with every
// subscriber (the initiating request plus any duplicate submissions that
// arrive while it runs) streaming the same event broadcast. The run's
// context is cancelled only when the last subscriber disconnects, and a
// cancelled run is never cached — so a mid-stream disconnect aborts the
// compute without poisoning the cache.

// subscriber is one client's view of a flight: an unbounded FIFO of wire
// lines fed by the broadcaster and drained by the HTTP handler. The
// queue is unbounded so a slow client can never stall the compute or the
// other subscribers; memory is bounded in practice by the run's finite
// event count.
type subscriber struct {
	mu     sync.Mutex
	lines  [][]byte
	closed bool
	wake   chan struct{} // 1-buffered wakeup signal
}

func newSubscriber() *subscriber {
	return &subscriber{wake: make(chan struct{}, 1)}
}

// push appends a line to the queue and wakes the drainer.
func (s *subscriber) push(line []byte) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.lines = append(s.lines, line)
	s.mu.Unlock()
	s.signal()
}

// close marks the stream complete; queued lines remain drainable.
func (s *subscriber) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.signal()
}

func (s *subscriber) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// next returns the next queued line, blocking until one arrives, the
// stream completes (ok=false), or ctx is done (the client disconnected).
func (s *subscriber) next(ctx context.Context) (line []byte, ok bool, err error) {
	for {
		s.mu.Lock()
		if len(s.lines) > 0 {
			line = s.lines[0]
			s.lines = s.lines[1:]
			s.mu.Unlock()
			return line, true, nil
		}
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return nil, false, nil
		}
		select {
		case <-ctx.Done():
			return nil, false, ctx.Err()
		case <-s.wake:
		}
	}
}

// flight is one in-flight spec computation and its subscriber set.
type flight struct {
	key string

	mu       sync.Mutex
	subs     map[*subscriber]struct{}
	cancel   context.CancelFunc
	finished bool
	terminal [][]byte // terminal lines, replayed to late subscribers
}

func newFlight(key string, cancel context.CancelFunc) *flight {
	return &flight{key: key, cancel: cancel, subs: map[*subscriber]struct{}{}}
}

// subscribe attaches a new subscriber. A flight that already finished
// replays its terminal lines immediately.
func (f *flight) subscribe() *subscriber {
	sub := newSubscriber()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.finished {
		for _, line := range f.terminal {
			sub.lines = append(sub.lines, line)
		}
		sub.closed = true
		sub.signal()
		return sub
	}
	f.subs[sub] = struct{}{}
	return sub
}

// unsubscribe detaches a subscriber (client gone or stream drained).
// When the last subscriber of an unfinished flight leaves, the compute
// context is cancelled: nobody is listening, so the run aborts — and
// because aborted runs are never cached, this cannot poison the cache.
func (f *flight) unsubscribe(sub *subscriber) {
	f.mu.Lock()
	if _, attached := f.subs[sub]; !attached {
		f.mu.Unlock()
		return
	}
	delete(f.subs, sub)
	lastGone := len(f.subs) == 0 && !f.finished
	cancel := f.cancel
	f.mu.Unlock()
	sub.close()
	if lastGone && cancel != nil {
		cancel()
	}
}

// subscribers returns the current subscriber count; only tests read it.
func (f *flight) subscribers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.subs)
}

// broadcast pushes one line to every subscriber.
func (f *flight) broadcast(line []byte) {
	f.mu.Lock()
	for sub := range f.subs {
		sub.push(line)
	}
	f.mu.Unlock()
}

// finish delivers the terminal lines and completes every subscriber's
// stream. Subsequent subscribe calls replay the terminal lines.
func (f *flight) finish(terminal ...[]byte) {
	f.mu.Lock()
	f.finished = true
	f.terminal = terminal
	for sub := range f.subs {
		for _, line := range terminal {
			sub.push(line)
		}
		sub.close()
	}
	f.subs = map[*subscriber]struct{}{}
	f.mu.Unlock()
}
