// Command cqctl is the client for cqd:
//
//	cqctl -addr 127.0.0.1:7070 tables
//	cqctl query 'SELECT * FROM stocks WHERE price > 120'
//	cqctl snapshot stocks
//	cqctl delta stocks 0
//	cqctl watch 'SELECT * FROM stocks WHERE price > 120' -interval 1s
//	cqctl stats [prefix]
//	cqctl health
//	cqctl checkpoint
//
// watch installs a client-side continual query (a mirror evaluated by
// DRA over shipped deltas) and prints each change as it arrives. stats
// fetches the daemon's metrics snapshot and renders it as a table; an
// optional name prefix (`cqctl stats push.`) narrows it to one
// subsystem.
//
// Requests carry a -timeout deadline and are retried up to -retries
// times with backoff, reconnecting as needed. watch survives daemon
// restarts: while the server is down it serves the stale result, and on
// reconnect it catches up by pulling only the missed delta windows.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/diorama/continual/internal/remote"
	"github.com/diorama/continual/internal/vclock"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cqctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cqctl", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "server address")
	interval := fs.Duration("interval", time.Second, "watch poll interval")
	count := fs.Int("count", 0, "watch: stop after N refreshes (0 = run forever)")
	timeout := fs.Duration("timeout", 15*time.Second, "per-request deadline")
	retries := fs.Int("retries", 4, "attempts per request (reconnecting as needed)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("usage: cqctl [flags] tables|query|snapshot|delta|watch|stats|health|deps|checkpoint ...")
	}

	policy := remote.DefaultPolicy()
	policy.IOTimeout = *timeout
	policy.MaxAttempts = *retries
	client, err := remote.DialPolicy(*addr, policy)
	if err != nil {
		return err
	}
	defer func() { _ = client.Close() }()

	switch rest[0] {
	case "tables":
		tables, err := client.ListTables()
		if err != nil {
			return err
		}
		for _, t := range tables {
			schema, err := client.Schema(t)
			if err != nil {
				return err
			}
			fmt.Printf("%s %s\n", t, schema)
		}
		return nil

	case "query":
		if len(rest) < 2 {
			return fmt.Errorf("usage: cqctl query '<select>'")
		}
		rel, now, err := client.Query(rest[1])
		if err != nil {
			return err
		}
		fmt.Printf("-- %d rows at t=%d (%d bytes received)\n", rel.Len(), now, client.BytesRead())
		fmt.Print(rel)
		return nil

	case "snapshot":
		if len(rest) < 2 {
			return fmt.Errorf("usage: cqctl snapshot <table>")
		}
		t, now, err := client.Snapshot(rest[1], remote.Latest)
		if err != nil {
			return err
		}
		fmt.Printf("-- %d rows at t=%d\n", t.Len(), now)
		fmt.Print(t.Relation())
		return nil

	case "delta":
		if len(rest) < 3 {
			return fmt.Errorf("usage: cqctl delta <table> <since-ts>")
		}
		since, err := strconv.ParseUint(rest[2], 10, 64)
		if err != nil {
			return fmt.Errorf("bad timestamp %q", rest[2])
		}
		d, now, err := client.DeltaSince(rest[1], vclock.Timestamp(since))
		if err != nil {
			return err
		}
		ins, del, mod := d.Counts()
		fmt.Printf("-- %d delta rows (%d ins / %d del / %d mod) up to t=%d\n", d.Len(), ins, del, mod, now)
		for _, r := range d.Rows() {
			fmt.Printf("%s tid=%d ts=%d old=%v new=%v\n", r.Kind(), r.TID, r.TS, r.Old, r.New)
		}
		return nil

	case "watch":
		if len(rest) < 2 {
			return fmt.Errorf("usage: cqctl watch '<select>'")
		}
		mirror, err := remote.NewMirrorCQ(client, rest[1])
		if err != nil {
			return err
		}
		fmt.Printf("-- initial result: %d rows; polling every %s\n", mirror.Result().Len(), *interval)
		refreshes := 0
		wasStale := false
		for {
			time.Sleep(*interval)
			d, err := mirror.Refresh()
			if err != nil {
				// Degraded mode: the mirror keeps serving its last
				// result and the next refresh resumes differentially
				// from lastTS once the server is back.
				fmt.Printf("-- refresh failed (%v); serving stale result as of t=%d, retrying\n",
					err, mirror.LastTS())
				wasStale = true
				continue
			}
			if wasStale {
				fmt.Printf("-- reconnected; caught up to t=%d\n", mirror.LastTS())
				wasStale = false
			}
			if d.Len() > 0 {
				refreshes++
				ins, del, mod := d.Counts()
				fmt.Printf("t=%d: +%d -%d ~%d (result now %d rows, %d bytes total received)\n",
					mirror.LastTS(), ins, del, mod, mirror.Result().Len(), client.BytesRead())
			}
			if *count > 0 && refreshes >= *count {
				return nil
			}
		}

	case "stats":
		snap, err := client.Stats()
		if err != nil {
			return err
		}
		// An optional prefix narrows the table to one subsystem:
		// `cqctl stats push.` shows the push pipeline, `cqctl stats wal.`
		// durability, etc.
		if len(rest) > 1 {
			snap = snap.Filter(rest[1])
			if snap.Empty() {
				return fmt.Errorf("no instruments match prefix %q", rest[1])
			}
		}
		snap.WriteTable(os.Stdout)
		return nil

	case "health":
		// Derived from the daemon's guard gauges: the same numbers the
		// /healthz endpoint serves, over the TCP protocol.
		snap, err := client.Stats()
		if err != nil {
			return err
		}
		healthy := snap.Gauges["cq.health.healthy"]
		probation := snap.Gauges["cq.health.probation"]
		quarantined := snap.Gauges["cq.health.quarantined"]
		level := snap.Gauges["storage.overload.level"]
		overload := "none"
		switch level {
		case 1:
			overload = "soft"
		case 2:
			overload = "hard"
		}
		status := "ok"
		switch {
		case level >= 2:
			status = "overloaded"
		case level == 1 || quarantined > 0 || probation > 0:
			status = "degraded"
		}
		fmt.Printf("status: %s\n", status)
		fmt.Printf("cqs: %d healthy / %d probation / %d quarantined\n", healthy, probation, quarantined)
		fmt.Printf("overload: %s (%d delta rows retained)\n", overload, snap.Gauges["storage.delta_len"])
		fmt.Printf("refresh faults: %d errors, %d panics, %d timeouts, %d quarantine trips\n",
			snap.Counters["cq.refresh.errors"], snap.Counters["cq.refresh.panics"],
			snap.Counters["cq.refresh.timeouts"], snap.Counters["cq.quarantines"])
		return nil

	case "checkpoint":
		if err := client.Checkpoint(); err != nil {
			return err
		}
		fmt.Println("checkpoint written")
		return nil

	case "deps":
		deps, err := client.Deps()
		if err != nil {
			return err
		}
		if len(deps) == 0 {
			fmt.Println("no continual queries registered")
			return nil
		}
		// Topological order (by stage) straight off the wire; render one
		// line per CQ: stage, name, sources, and the INTO target when
		// the query materializes one.
		for _, d := range deps {
			line := fmt.Sprintf("[stage %d] %s <- %s", d.Stage, d.CQ, strings.Join(d.Sources, ", "))
			if d.Target != "" {
				line += " -> INTO " + d.Target
			}
			fmt.Println(line)
		}
		return nil

	default:
		return fmt.Errorf("unknown command %q", rest[0])
	}
}
