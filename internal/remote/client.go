package remote

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"

	"time"

	"github.com/diorama/continual/internal/algebra"
	"github.com/diorama/continual/internal/batch"
	"github.com/diorama/continual/internal/delta"
	"github.com/diorama/continual/internal/dra"
	"github.com/diorama/continual/internal/obs"
	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/vclock"
)

// Client talks to a Server. It is safe for concurrent use; requests are
// serialized over the single connection.
//
// The client is fault tolerant per its Policy: requests carry I/O
// deadlines, every request is retried with capped exponential backoff,
// and a failed connection is marked broken — never reused, so
// a desynced codec cannot serve a later request — and transparently
// re-established on the next attempt.
type Client struct {
	mu     sync.Mutex
	addr   string
	policy Policy
	rng    *rand.Rand // backoff jitter

	conn   net.Conn
	codec  *codec
	broken bool // conn saw an I/O error; must be replaced before reuse
	dialed bool // a connection has been established at least once
	closed bool

	// Wire totals from connections already torn down; BytesRead/Written
	// add the live codec's counts on top so totals survive reconnects.
	baseIn, baseOut int64

	// obs instrumentation; nil unless Instrument was called.
	met *clientMetrics
}

// clientMetrics is the client's bundle of obs handles.
type clientMetrics struct {
	requests   *obs.Counter   // remote.client.requests
	windows    *obs.Counter   // remote.client.windows_pulled
	bytesIn    *obs.Counter   // remote.client.bytes_in
	bytesOut   *obs.Counter   // remote.client.bytes_out
	retries    *obs.Counter   // remote.client.retries: re-sent requests
	reconnects *obs.Counter   // remote.client.reconnects: dials after the first
	timeouts   *obs.Counter   // remote.client.timeouts: deadline-exceeded ops
	broken     *obs.Counter   // remote.client.broken_conns: conns marked unusable
	rtt        *obs.Histogram // remote.client.rtt_ns: request round-trip time
}

// Instrument attaches the client to a metrics registry. Every request
// afterwards records its round-trip latency, wire traffic, and fault
// recovery activity (retries, reconnects, timeouts, broken conns).
func (c *Client) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.met = &clientMetrics{
		requests:   reg.Counter("remote.client.requests"),
		windows:    reg.Counter("remote.client.windows_pulled"),
		bytesIn:    reg.Counter("remote.client.bytes_in"),
		bytesOut:   reg.Counter("remote.client.bytes_out"),
		retries:    reg.Counter("remote.client.retries"),
		reconnects: reg.Counter("remote.client.reconnects"),
		timeouts:   reg.Counter("remote.client.timeouts"),
		broken:     reg.Counter("remote.client.broken_conns"),
		rtt:        reg.Histogram("remote.client.rtt_ns"),
	}
}

// Dial connects to a server with DefaultPolicy.
func Dial(addr string) (*Client, error) { return DialPolicy(addr, DefaultPolicy()) }

// DialPolicy connects to a server under an explicit fault-tolerance
// policy. The initial connection is attempted eagerly so an unreachable
// address fails fast; later reconnects happen inside request retries.
func DialPolicy(addr string, p Policy) (*Client, error) {
	c := &Client{
		addr:   addr,
		policy: p,
		rng:    rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	c.mu.Lock()
	err := c.ensureConnLocked()
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Close closes the connection; subsequent requests fail with
// ErrClientClosed instead of reconnecting.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn == nil {
		return nil
	}
	c.foldWireTotalsLocked()
	err := c.conn.Close()
	c.conn, c.codec = nil, nil
	return err
}

// foldWireTotalsLocked banks the live codec's byte counts before the
// conn is discarded.
func (c *Client) foldWireTotalsLocked() {
	if c.codec != nil {
		c.baseIn += c.codec.bytesRead()
		c.baseOut += c.codec.bytesWritten()
	}
}

// BytesRead returns total bytes received from the server, across all
// connections this client has used.
func (c *Client) BytesRead() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.baseIn
	if c.codec != nil {
		n += c.codec.bytesRead()
	}
	return n
}

// BytesWritten returns total bytes sent to the server, across all
// connections this client has used.
func (c *Client) BytesWritten() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.baseOut
	if c.codec != nil {
		n += c.codec.bytesWritten()
	}
	return n
}

// ensureConnLocked makes a usable connection available, dialing if the
// previous one is absent or marked broken.
func (c *Client) ensureConnLocked() error {
	if c.closed {
		return ErrClientClosed
	}
	if c.conn != nil && !c.broken {
		return nil
	}
	dial := c.policy.Dialer
	if dial == nil {
		timeout := c.policy.DialTimeout
		dial = func(addr string) (net.Conn, error) { return net.DialTimeout("tcp", addr, timeout) }
	}
	conn, err := dial(c.addr)
	if err != nil {
		return fmt.Errorf("remote: dial %s: %w", c.addr, err)
	}
	c.conn = conn
	c.codec = newCodec(conn)
	c.broken = false
	if c.dialed {
		if m := c.met; m != nil {
			m.reconnects.Inc()
		}
	}
	c.dialed = true
	return nil
}

// breakConnLocked retires a connection after an I/O error. The codec
// may be mid-frame, so the conn can never be reused: it is closed and
// replaced on the next attempt.
func (c *Client) breakConnLocked(err error) {
	c.foldWireTotalsLocked()
	if c.conn != nil {
		_ = c.conn.Close()
	}
	c.conn, c.codec = nil, nil
	c.broken = true
	if m := c.met; m != nil {
		m.broken.Inc()
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			m.timeouts.Inc()
		}
	}
}

func (c *Client) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if s := c.policy.Sleep; s != nil {
		s(d)
		return
	}
	time.Sleep(d)
}

// roundTrip sends one request, transparently reconnecting and retrying
// per the policy: every op only reads, so a request that may have
// reached the server is safe to send again. Server-level errors (a
// well-formed error Response) are returned as-is and never retried —
// only transport failures are.
func (c *Client) roundTrip(req Request) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	attempts := c.policy.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			if m := c.met; m != nil {
				m.retries.Inc()
			}
			c.sleep(c.policy.backoff(attempt-1, c.rng))
		}
		if err := c.ensureConnLocked(); err != nil {
			if errors.Is(err, ErrClientClosed) {
				return Response{}, err
			}
			lastErr = err // dial failures are always safe to retry
			continue
		}
		resp, err := c.doRequestLocked(req)
		if err == nil {
			return resp, resp.asError()
		}
		c.breakConnLocked(err)
		lastErr = fmt.Errorf("remote: %s: %w", req.Op, err)
	}
	return Response{}, lastErr
}

// doRequestLocked performs one send/recv exchange on the live conn
// under the policy's I/O deadline.
func (c *Client) doRequestLocked(req Request) (Response, error) {
	var start time.Time
	var lastIn, lastOut int64
	if c.met != nil {
		start = time.Now()
		lastIn, lastOut = c.codec.bytesRead(), c.codec.bytesWritten()
	}
	if t := c.policy.IOTimeout; t > 0 {
		_ = c.conn.SetDeadline(time.Now().Add(t))
	}
	if err := c.codec.send(req); err != nil {
		return Response{}, fmt.Errorf("send: %w", err)
	}
	var resp Response
	if err := c.codec.recv(&resp); err != nil {
		return Response{}, fmt.Errorf("recv: %w", err)
	}
	if c.policy.IOTimeout > 0 {
		_ = c.conn.SetDeadline(time.Time{})
	}
	if m := c.met; m != nil {
		m.requests.Inc()
		m.rtt.Observe(time.Since(start))
		m.bytesIn.Add(c.codec.bytesRead() - lastIn)
		m.bytesOut.Add(c.codec.bytesWritten() - lastOut)
		if req.Op == OpDeltaSince {
			m.windows.Inc()
		}
	}
	return resp, nil
}

// Stats fetches the server's metrics snapshot over the wire (OpStats).
func (c *Client) Stats() (obs.Snapshot, error) {
	resp, err := c.roundTrip(Request{Op: OpStats})
	if err != nil {
		return obs.Snapshot{}, err
	}
	if resp.Stats == nil {
		return obs.Snapshot{}, fmt.Errorf("remote: server returned no stats")
	}
	return *resp.Stats, nil
}

// Checkpoint asks the server to take a durable checkpoint now
// (OpCheckpoint). Errors if the server has no durable store.
func (c *Client) Checkpoint() error {
	_, err := c.roundTrip(Request{Op: OpCheckpoint})
	return err
}

// Deps fetches the server's cascade dependency DAG in topological
// order (OpDeps). Empty when the server runs no CQ manager.
func (c *Client) Deps() ([]WireDep, error) {
	resp, err := c.roundTrip(Request{Op: OpDeps})
	return resp.Deps, err
}

// ListTables returns the server's table names.
func (c *Client) ListTables() ([]string, error) {
	resp, err := c.roundTrip(Request{Op: OpListTables})
	return resp.Tables, err
}

// Schema fetches a table's schema.
func (c *Client) Schema(table string) (relation.Schema, error) {
	resp, err := c.roundTrip(Request{Op: OpSchema, Table: table})
	if err != nil {
		return relation.Schema{}, err
	}
	return fromWireSchema(resp.Columns)
}

// Snapshot fetches a table's contents as of at (Latest: now, which the
// reply's timestamp then is) as a slot table the caller owns.
func (c *Client) Snapshot(table string, at vclock.Timestamp) (*batch.Table, vclock.Timestamp, error) {
	resp, err := c.roundTrip(Request{Op: OpSnapshot, Table: table, Until: at})
	if err != nil {
		return nil, 0, err
	}
	t, err := tableFromWire(resp.Image, resp.Columns)
	return t, resp.Now, err
}

// Window fetches a table's window (since, until] as its columnar image,
// folded to its net per-tid effect when compact is set. The server
// clamps until to its clock (Latest reads up to now) and the reply's
// timestamp is the bound it used. The image carries its schema, so no
// second request follows.
func (c *Client) Window(table string, since, until vclock.Timestamp, compact bool) (*batch.Batch, vclock.Timestamp, error) {
	resp, err := c.roundTrip(Request{Op: OpDeltaSince, Table: table, Since: since, Until: until, Compact: compact})
	if err != nil {
		return nil, 0, err
	}
	b, err := fromWire(resp.Image, resp.Columns)
	return b, resp.Now, err
}

// WindowBatch reads a window image from the server: a mirror's
// dra.Context.Windows.
func (c *Client) WindowBatch(table string, from, to vclock.Timestamp, compact bool) (*batch.Batch, error) {
	b, _, err := c.Window(table, from, to, compact)
	return b, err
}

// DeltaSince fetches a table's differential window up to now in row
// form.
func (c *Client) DeltaSince(table string, since vclock.Timestamp) (*delta.Delta, vclock.Timestamp, error) {
	b, now, err := c.Window(table, since, Latest, false)
	if err != nil {
		return nil, 0, err
	}
	d, err := b.ToDeltaOrdered()
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", errColDelta, err)
	}
	return d, now, nil
}

// Query executes a SELECT on the server and ships the full result back —
// the server-side-evaluation mode the paper argues against for scalable
// monitoring.
func (c *Client) Query(query string) (*relation.Relation, vclock.Timestamp, error) {
	resp, err := c.roundTrip(Request{Op: OpQuery, Query: query})
	if err != nil {
		return nil, 0, err
	}
	t, err := tableFromWire(resp.Image, resp.Columns)
	if err != nil {
		return nil, 0, err
	}
	return t.Relation(), resp.Now, nil
}

// Now returns the server's logical clock.
func (c *Client) Now() (vclock.Timestamp, error) {
	resp, err := c.roundTrip(Request{Op: OpNow})
	return resp.Now, err
}

// MirrorCQ is a client-side continual query — "shifting the processing
// to the client side" (Section 6). It keeps a copy of each operand table
// and the query's current result, and refreshes them with the same
// evaluator a server CQ holds: the query is prepared once (dra.Prepared),
// seeded from snapshots of its tables at one timestamp, and every
// Refresh is one Step over the compacted window images it pulled, the
// images read in place as a server CQ reads its round's. The result and
// the copies are slot tables (batch.Table), as a server CQ's result is:
// each Step's change is written typed into the result, each window
// image is applied to its copy (batch.Table.ApplyBatch), so neither
// references the windows or step output it came from. The copies are
// the step's pre-state; they are read only where the evaluator re-seeds
// (a retry of a refresh that failed after its step ran) or re-evaluates
// completely.
type MirrorCQ struct {
	client *Client
	prep   *dra.Prepared

	tables   []string // distinct operand tables
	replicas replicas // operand tables at lastTS
	lastTS   vclock.Timestamp
	result   *batch.Table

	// Degraded-mode state: when a Refresh fails (server unreachable,
	// retries exhausted) the CQ keeps serving the last good result and
	// records why it is stale.
	stale   bool
	lastErr error
}

// NewMirrorCQ installs a client-side CQ: it prepares the query,
// snapshots the operand tables once, all as of the timestamp of the
// first snapshot, seeds the initial result locally, and afterwards
// refreshes by pulling only deltas.
func NewMirrorCQ(client *Client, query string) (*MirrorCQ, error) {
	// Plan against server schemas.
	serverCat := &clientCatalog{client: client}
	plan, err := algebra.PlanSQL(query, serverCat)
	if err != nil {
		return nil, err
	}
	plan = algebra.Optimize(plan)
	prep, err := dra.NewEngine().Prepare(plan, dra.StrategyAuto)
	if err != nil {
		return nil, err
	}
	m := &MirrorCQ{client: client, prep: prep, replicas: make(replicas)}
	ts := Latest
	for _, table := range prep.Tables() {
		if _, dup := m.replicas[table]; dup {
			continue
		}
		t, at, err := client.Snapshot(table, ts)
		if err != nil {
			return nil, err
		}
		m.tables = append(m.tables, table)
		m.replicas[table], ts = t, at
	}
	m.lastTS = ts
	if m.result, err = prep.Seed(m.replicas, ts); err != nil {
		return nil, err
	}
	return m, nil
}

// replicas are a mirror's copies of its operand tables, a dra.Context's
// Pre (through TableImage) and, advanced by a window, its Post.
type replicas map[string]*batch.Table

func (r replicas) table(name string) (*batch.Table, error) {
	t, ok := r[name]
	if !ok {
		return nil, fmt.Errorf("remote: mirror holds no table %q", name)
	}
	return t, nil
}

// Relation renders a copy for the row executor (complete re-evaluation).
func (r replicas) Relation(name string) (*relation.Relation, error) {
	t, err := r.table(name)
	if err != nil {
		return nil, err
	}
	return t.Relation(), nil
}

// TableImage is the table's live rows as an all-insert image.
func (r replicas) TableImage(name string) (*batch.Batch, error) {
	t, err := r.table(name)
	if err != nil {
		return nil, err
	}
	return t.Clone().Rows(), nil
}

// clientCatalog resolves schemas over the wire for planning.
type clientCatalog struct{ client *Client }

func (cc *clientCatalog) Schema(table string) (relation.Schema, error) {
	return cc.client.Schema(table)
}

// Result returns the current result, rendered from the result table as
// a copy the caller owns. While the server is unreachable this keeps
// serving the last successfully refreshed result; check Stale to tell
// the two apart.
func (m *MirrorCQ) Result() *relation.Relation { return m.result.Relation() }

// LastTS returns the logical time of the last refresh.
func (m *MirrorCQ) LastTS() vclock.Timestamp { return m.lastTS }

// Stale reports whether the most recent Refresh failed, meaning Result
// reflects the state as of LastTS rather than the present.
func (m *MirrorCQ) Stale() bool { return m.stale }

// LastErr returns the error that made the result stale (nil when
// fresh).
func (m *MirrorCQ) LastErr() error { return m.lastErr }

// Refresh pulls the delta windows since the last refresh, steps the
// prepared query over them, advances the replicas, and returns the
// result change.
//
// Refresh is failure-atomic and resumes differentially: no local state
// changes until every window has been pulled and the step has
// succeeded, so a refresh that dies mid-stream (connection killed,
// server restarted) leaves lastTS intact and the next Refresh simply
// re-pulls the windows since lastTS over a fresh connection — no
// snapshot rebuild. On failure the CQ enters degraded mode (Stale
// reports true, Result serves the last good state) until a refresh
// succeeds.
func (m *MirrorCQ) Refresh() (*delta.Delta, error) {
	d, err := m.refresh()
	if err != nil {
		m.stale, m.lastErr = true, err
		return nil, err
	}
	m.stale, m.lastErr = false, nil
	return d, nil
}

func (m *MirrorCQ) refresh() (*delta.Delta, error) {
	// One request per table: the first window's reply names the cut, the
	// server's clock, and every other window is asked up to it.
	windows := make(map[string]*batch.Batch, len(m.tables))
	cut := Latest
	for _, table := range m.tables {
		b, now, err := m.client.Window(table, m.lastTS, cut, true)
		if err != nil {
			return nil, err
		}
		windows[table], cut = b, now
	}
	ctx := &dra.Context{
		Pre:       m.replicas,
		Batches:   windows,
		Compacted: true,
		LastTS:    m.lastTS,
		Windows:   m.client,
	}
	if m.prep.Strategy() == dra.StrategyPropagate {
		// Complete re-evaluation runs the query on the post state and
		// diffs against the previous result.
		ctx.Prev = m.result.Relation()
		post := make(replicas, len(m.replicas))
		for table, t := range m.replicas {
			post[table] = t.Clone()
			post[table].ApplyBatch(windows[table], nil)
		}
		ctx.Post = post
	}
	res, err := m.prep.Step(ctx, cut)
	if err == nil {
		err = res.Fits(m.result)
	}
	if err != nil {
		return nil, err
	}
	// In place, once the step has succeeded.
	for table, t := range m.replicas {
		t.ApplyBatch(windows[table], nil)
	}
	m.result = res.Maintain(m.result) // fits: checked above
	m.lastTS = cut
	return res.Delta, nil
}
