package remote

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/batch"
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

	// obs instrumentation: a registry of the server's own until
	// Instrument attaches another.
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
	tuples     *obs.Counter // remote.tuples_executed: server-side query scans
	bytesIn    *obs.Counter // remote.bytes_in
	bytesOut   *obs.Counter // remote.bytes_out
	conns      *obs.Gauge   // remote.conns
	connsTotal *obs.Counter // remote.conns_total

	// Fault visibility: how connections end.
	readTimeouts *obs.Counter // remote.read_timeouts: idle peers shed by deadline
	connsBroken  *obs.Counter // remote.conns_broken: conns dropped on I/O or codec errors
}

// Instrument attaches the server to a metrics registry in place of its
// own. Call before Serve; the registry also becomes the payload of
// OpStats so clients (cqctl stats) can read the daemon's counters over
// the wire.
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
		tuples:     reg.Counter("remote.tuples_executed"),
		bytesIn:    reg.Counter("remote.bytes_in"),
		bytesOut:   reg.Counter("remote.bytes_out"),
		conns:      reg.Gauge("remote.conns"),
		connsTotal: reg.Counter("remote.conns_total"),

		readTimeouts: reg.Counter("remote.read_timeouts"),
		connsBroken:  reg.Counter("remote.conns_broken"),
	}
}

// NewServer wraps a store, instrumented into a registry of its own.
// Call Serve to start listening.
func NewServer(store *storage.Store) *Server {
	s := &Server{
		store:        store,
		conns:        make(map[net.Conn]struct{}),
		idleTimeout:  DefaultIdleTimeout,
		drainTimeout: DefaultDrainTimeout,
	}
	s.Instrument(obs.NewRegistry())
	return s
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
	m := s.met
	m.conns.Add(1)
	m.connsTotal.Inc()
	defer m.conns.Add(-1)
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
		if err := c.recv(req.decode); err != nil {
			// Dropping the conn; classify why, unless shutting down.
			if !s.isClosed() {
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
		if err := c.send(&resp); err != nil {
			if !s.isClosed() {
				m.connsBroken.Inc()
			}
			return
		}
		// Fold this request's wire traffic into the counters: one pair of
		// adds per request, not per byte.
		in, out := c.bytesRead(), c.bytesWritten()
		m.requests.Inc()
		m.bytesIn.Add(in - lastIn)
		m.bytesOut.Add(out - lastOut)
		lastIn, lastOut = in, out
	}
}

// Stats returns a snapshot of the server's metrics registry: its own,
// or the one Instrument attached.
func (s *Server) Stats() obs.Snapshot { return s.reg.Snapshot() }

// bound clamps a requested timestamp to the server's clock. The clock is
// read first and the rows after it: a commit ticks the clock under the
// store's write lock before it appends, so once a later read lock is
// granted every row at or before the bound is in the log, and a row past
// it is left for the next request.
func (s *Server) bound(until vclock.Timestamp) vclock.Timestamp {
	return min(until, s.store.Now())
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
		return Response{Image: batch.New(schema, 0)}

	case OpSnapshot:
		at := s.bound(req.Until)
		b, err := s.store.TableImage(req.Table, at)
		if err != nil {
			return errResponse(err)
		}
		s.met.snapshots.Inc()
		return Response{Image: b, Now: at}

	case OpDeltaSince:
		until := s.bound(req.Until)
		b, err := s.store.WindowImage(req.Table, req.Since, until, req.Compact)
		if err != nil {
			return errResponse(err)
		}
		s.met.windows.Inc()
		return Response{Image: b, Now: until}

	case OpQuery:
		plan, err := algebra.PlanSQL(req.Query, s.store.Live())
		if err != nil {
			return errResponse(err)
		}
		plan = algebra.Optimize(plan)
		// The scan runs under the read lock, and the clock is read there:
		// commits tick it under the write lock, so now is the timestamp of
		// exactly the state the result reflects.
		var rel *relation.Relation
		var now vclock.Timestamp
		var ex *algebra.Executor
		err = s.store.View(func(v storage.LiveView) (err error) {
			now = s.store.Now()
			ex = algebra.NewExecutor(v)
			rel, err = ex.Execute(plan)
			return err
		})
		if err != nil {
			return errResponse(err)
		}
		s.met.queries.Inc()
		s.met.tuples.Add(int64(ex.Stats.TuplesScanned))
		b, err := imageOf(rel)
		if err != nil {
			return errResponse(err)
		}
		return Response{Image: b, Now: now}

	case OpNow:
		return Response{Now: s.store.Now()}

	case OpStats:
		snap := s.Stats()
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

// imageOf is a query result as an all-insert image, each value typed to
// its column (batch.Table.Set).
func imageOf(rel *relation.Relation) (*batch.Batch, error) {
	t := batch.NewTable(rel.Schema(), rel.Len())
	for _, tu := range rel.Tuples() {
		if err := t.Set(tu.TID, tu.Values); err != nil {
			return nil, err
		}
	}
	return t.Rows(), nil
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
