package remote

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/storage"
	"github.com/diorama/continual/internal/vclock"
)

// Default connection-management timeouts; override with SetIdleTimeout
// and SetDrainTimeout before Serve.
const (
	// DefaultIdleTimeout is how long a connection may sit between
	// requests before the server sheds it as a dead peer. Clients
	// reconnect transparently, so shedding an idle-but-live client
	// costs one reconnect.
	DefaultIdleTimeout = 5 * time.Minute
	// DefaultDrainTimeout bounds how long Close waits for in-flight
	// requests to finish before force-closing connections.
	DefaultDrainTimeout = 5 * time.Second
)

// Server exposes a store over TCP. Each connection is served by one
// goroutine; requests on a connection are processed in order.
type Server struct {
	store *storage.Store
	ln    net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed bool

	idleTimeout  time.Duration
	drainTimeout time.Duration

	// stats
	queriesServed  int64
	deltasServed   int64
	tuplesExecuted int64

	// obs instrumentation; nil unless Instrument was called.
	met *serverMetrics
	reg *obs.Registry

	// checkpointFn handles OpCheckpoint; nil refuses the op (the
	// server's store is not durably backed). Set before Serve.
	checkpointFn func() error
	// depsFn handles OpDeps; nil answers with an empty DAG (the server
	// runs no CQ manager). Set before Serve.
	depsFn func() []WireDep
}

// SetCheckpointFunc enables OpCheckpoint: fn is invoked once per
// request and should durably checkpoint the backing store. Call before
// Serve.
func (s *Server) SetCheckpointFunc(fn func() error) {
	s.checkpointFn = fn
}

// SetDepsFunc enables OpDeps: fn should snapshot the CQ manager's
// cascade dependency DAG in topological order. Call before Serve.
func (s *Server) SetDepsFunc(fn func() []WireDep) {
	s.depsFn = fn
}

// serverMetrics is the server's bundle of obs handles, resolved once at
// Instrument time.
type serverMetrics struct {
	requests   *obs.Counter // remote.requests
	queries    *obs.Counter // remote.queries_served
	windows    *obs.Counter // remote.windows_pulled: delta windows shipped
	snapshots  *obs.Counter // remote.snapshots_served
	updates    *obs.Counter // remote.updates_applied: pushed delta rows
	tuples     *obs.Counter // remote.tuples_executed: server-side query scans
	bytesIn    *obs.Counter // remote.bytes_in
	bytesOut   *obs.Counter // remote.bytes_out
	conns      *obs.Gauge   // remote.conns
	connsTotal *obs.Counter // remote.conns_total

	// Fault visibility: how connections end.
	readTimeouts *obs.Counter // remote.read_timeouts: idle peers shed by deadline
	connsBroken  *obs.Counter // remote.conns_broken: conns dropped on I/O or codec errors
}

// Instrument attaches the server to a metrics registry. Call before
// Serve; the registry also becomes the payload of OpStats so clients
// (cqctl stats) can read the daemon's counters over the wire.
func (s *Server) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.reg = reg
	s.met = &serverMetrics{
		requests:   reg.Counter("remote.requests"),
		queries:    reg.Counter("remote.queries_served"),
		windows:    reg.Counter("remote.windows_pulled"),
		snapshots:  reg.Counter("remote.snapshots_served"),
		updates:    reg.Counter("remote.updates_applied"),
		tuples:     reg.Counter("remote.tuples_executed"),
		bytesIn:    reg.Counter("remote.bytes_in"),
		bytesOut:   reg.Counter("remote.bytes_out"),
		conns:      reg.Gauge("remote.conns"),
		connsTotal: reg.Counter("remote.conns_total"),

		readTimeouts: reg.Counter("remote.read_timeouts"),
		connsBroken:  reg.Counter("remote.conns_broken"),
	}
}

// ServerStats is a snapshot of server-side work counters, used by the
// scalability experiment (E7): server CPU work per client refresh.
type ServerStats struct {
	QueriesServed  int64
	DeltasServed   int64
	TuplesExecuted int64
}

// NewServer wraps a store. Call Serve to start listening.
func NewServer(store *storage.Store) *Server {
	return &Server{
		store:        store,
		conns:        make(map[net.Conn]struct{}),
		idleTimeout:  DefaultIdleTimeout,
		drainTimeout: DefaultDrainTimeout,
	}
}

// SetIdleTimeout sets the per-connection read deadline between requests
// (0 disables idle shedding). Call before Serve.
func (s *Server) SetIdleTimeout(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.idleTimeout = d
}

// SetDrainTimeout sets how long Close waits for in-flight requests
// before force-closing connections. Call before Serve.
func (s *Server) SetDrainTimeout(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainTimeout = d
}

// Serve starts listening on addr ("127.0.0.1:0" picks a free port) and
// returns the bound address. Connections are handled until Close.
func (s *Server) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("remote: listen: %w", err)
	}
	return s.ServeListener(ln), nil
}

// ServeListener serves on an existing listener and returns its address.
// Fault-injection harnesses use this to interpose a faulty listener
// (faults.Injector.WrapListener) between the server and its clients.
func (s *Server) ServeListener(ln net.Listener) string {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String()
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	if m := s.met; m != nil {
		m.conns.Add(1)
		m.connsTotal.Inc()
		defer m.conns.Add(-1)
	}
	c := newCodec(conn)
	s.mu.Lock()
	idle := s.idleTimeout
	s.mu.Unlock()
	var lastIn, lastOut int64
	for {
		// Re-check shutdown at each loop top: Close nudges blocked
		// readers with an expired deadline, and a handler that was
		// mid-request lands here right after sending its response.
		if s.isClosed() {
			return
		}
		if idle > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(idle))
		}
		var req Request
		if err := c.recv(&req); err != nil {
			// Dropping the conn; classify why, unless shutting down.
			if m := s.met; m != nil && !s.isClosed() {
				var ne net.Error
				switch {
				case errors.As(err, &ne) && ne.Timeout():
					m.readTimeouts.Inc() // dead/idle peer shed
				case errors.Is(err, io.EOF):
					// clean close
				default:
					m.connsBroken.Inc() // mid-frame death or garbage
				}
			}
			return
		}
		_ = conn.SetReadDeadline(time.Time{}) // no deadline while handling
		resp := s.handle(req)
		if err := c.send(resp); err != nil {
			if m := s.met; m != nil && !s.isClosed() {
				m.connsBroken.Inc()
			}
			return
		}
		if m := s.met; m != nil {
			// Fold this request's wire traffic into the counters: one
			// pair of adds per request, not per byte.
			in, out := c.bytesRead(), c.bytesWritten()
			m.requests.Inc()
			m.bytesIn.Add(in - lastIn)
			m.bytesOut.Add(out - lastOut)
			lastIn, lastOut = in, out
		}
	}
}

// Stats returns a snapshot of the work counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ServerStats{
		QueriesServed:  s.queriesServed,
		DeltasServed:   s.deltasServed,
		TuplesExecuted: s.tuplesExecuted,
	}
}

func (s *Server) handle(req Request) Response {
	switch req.Op {
	case OpListTables:
		return Response{Tables: s.store.TableNames()}

	case OpSchema:
		schema, err := s.store.Schema(req.Table)
		if err != nil {
			return errResponse(err)
		}
		return Response{Columns: toWireSchema(schema)}

	case OpSnapshot:
		// The clock is read under the same read lock as the copy: commits
		// tick it under the write lock, so the copy is exactly the state
		// at now.
		var rel *relation.Relation
		var now vclock.Timestamp
		err := s.store.View(func(v storage.LiveView) error {
			live, err := v.Relation(req.Table)
			if err != nil {
				return err
			}
			rel, now = live.Clone(), s.store.Now()
			return nil
		})
		if err != nil {
			return errResponse(err)
		}
		if m := s.met; m != nil {
			m.snapshots.Inc()
		}
		return Response{Rel: toWireRelation(rel), Now: now}

	case OpDeltaSince:
		// The clock first, the window clamped to it: a commit ticks the
		// clock under the write lock before it appends, so once the read
		// lock is granted every row at or before now is in the log, and a
		// row past now is left for the next pull. The frame is encoded
		// from the store's one-pass image of (Since, now], with no
		// row-form copy of the window.
		now := s.store.Now()
		b, err := s.store.WindowImage(req.Table, req.Since, now, false)
		if err != nil {
			return errResponse(err)
		}
		s.mu.Lock()
		s.deltasServed++
		s.mu.Unlock()
		if m := s.met; m != nil {
			m.windows.Inc()
		}
		return Response{ColDelta: toWireColBatch(b), Now: now}

	case OpQuery:
		plan, err := algebra.PlanSQL(req.Query, s.store.Live())
		if err != nil {
			return errResponse(err)
		}
		ex := algebra.NewExecutor(s.store.Live())
		rel, err := ex.Execute(algebra.Optimize(plan))
		if err != nil {
			return errResponse(err)
		}
		s.mu.Lock()
		s.queriesServed++
		s.tuplesExecuted += int64(ex.Stats.TuplesScanned)
		s.mu.Unlock()
		if m := s.met; m != nil {
			m.queries.Inc()
			m.tuples.Add(int64(ex.Stats.TuplesScanned))
		}
		return Response{Rel: toWireRelation(rel), Now: s.store.Now()}

	case OpNow:
		return Response{Now: s.store.Now()}

	case OpApplyUpdates:
		if err := s.applyUpdates(req); err != nil {
			return errResponse(err)
		}
		if m := s.met; m != nil {
			m.updates.Add(int64(len(req.Updates)))
		}
		return Response{Now: s.store.Now()}

	case OpStats:
		snap := s.statsSnapshot()
		return Response{Stats: &snap, Now: s.store.Now()}

	case OpCheckpoint:
		fn := s.checkpointFn
		if fn == nil {
			return errResponse(fmt.Errorf("checkpoint: server has no durable store"))
		}
		if err := fn(); err != nil {
			return errResponse(err)
		}
		return Response{Now: s.store.Now()}

	case OpDeps:
		fn := s.depsFn
		deps := []WireDep{}
		if fn != nil {
			deps = fn()
		}
		return Response{Deps: deps, Now: s.store.Now()}

	default:
		return errResponse(fmt.Errorf("unknown op %d", req.Op))
	}
}

// statsSnapshot builds the OpStats payload: the attached registry's
// snapshot when instrumented, otherwise the legacy work counters so
// `cqctl stats` still renders something against a bare server.
func (s *Server) statsSnapshot() obs.Snapshot {
	if s.reg != nil {
		return s.reg.Snapshot()
	}
	st := s.Stats()
	return obs.Snapshot{
		Counters: map[string]int64{
			"remote.queries_served":  st.QueriesServed,
			"remote.windows_pulled":  st.DeltasServed,
			"remote.tuples_executed": st.TuplesExecuted,
		},
		Gauges:     map[string]int64{},
		Histograms: map[string]obs.HistogramStat{},
	}
}

// applyUpdates commits a batch of differential rows pushed by a client
// (used by benchmark drivers).
func (s *Server) applyUpdates(req Request) error {
	if req.Table == "" {
		return errors.New("table required")
	}
	tx := s.store.Begin()
	for _, r := range req.Updates {
		switch {
		case r.Old == nil && r.New == nil:
			tx.Abort()
			return errors.New("empty update row")
		case r.Old == nil:
			if _, err := tx.Insert(req.Table, r.New); err != nil {
				tx.Abort()
				return err
			}
		case r.New == nil:
			if err := tx.Delete(req.Table, relation.TID(r.TID)); err != nil {
				tx.Abort()
				return err
			}
		default:
			if err := tx.Update(req.Table, relation.TID(r.TID), r.New); err != nil {
				tx.Abort()
				return err
			}
		}
	}
	_, err := tx.Commit()
	return err
}

// Close shuts the server down gracefully: the listener stops, requests
// already in flight run to completion and get their responses, and only
// then are connections torn down. Readers blocked waiting for a next
// request are nudged off immediately with an expired read deadline — a
// blocked read means no request is in flight on that conn. If the drain
// exceeds the drain timeout, remaining connections are force-closed.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for conn := range s.conns {
		conns = append(conns, conn)
	}
	drain := s.drainTimeout
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	now := time.Now()
	for _, conn := range conns {
		_ = conn.SetReadDeadline(now)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if drain <= 0 {
		drain = DefaultDrainTimeout
	}
	select {
	case <-done:
	case <-time.After(drain):
		s.mu.Lock()
		for conn := range s.conns {
			_ = conn.Close()
		}
		s.mu.Unlock()
		<-done
	}
	return nil
}
