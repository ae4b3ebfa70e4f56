package faults

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path"
	"path/filepath"
	"sort"
	"sync"

	"github.com/diorama/continual/internal/wal"
)

// ErrCrashed is returned by every filesystem operation after a MemFS
// kill-point fires: from the process's point of view the machine is
// gone, and nothing it does can succeed until Crash() reboots it.
var ErrCrashed = errors.New("faults: filesystem crashed")

// MemFS is a deterministic in-memory filesystem implementing wal.FS,
// built to prove crash safety of the durability layer. It tracks, per
// file, which bytes have been fsynced (survive a crash) and which are
// only pending in the "page cache" (may be lost, possibly partially).
//
// A test arms a kill-point with KillAfterWrites(n): the FS completes n
// File.Write calls normally, then freezes — every later operation on
// the FS or its files fails with ErrCrashed, modelling the process
// dying mid-sequence. Crash() then simulates the reboot: each file's
// content collapses to its synced bytes plus a seeded-random prefix of
// its pending bytes (the suffix the OS happened to flush before power
// loss — this is what produces torn WAL frames), pending state is
// discarded, and the FS unfreezes so recovery code can reopen it.
//
// Simplification, documented on purpose: directory entries (Create,
// Rename, Remove) are durable immediately rather than waiting for
// SyncDir. The WAL's atomic-rename checkpoint protocol is therefore
// not weakened by this harness — its file CONTENT durability, which is
// what the protocol orders via Sync-before-Rename, is fully modelled.
type MemFS struct {
	mu     sync.Mutex
	rng    *rand.Rand
	files  map[string]*memFile
	dirs   map[string]bool
	frozen bool
	writes int // successful File.Write calls so far
	killAt int // freeze when writes reaches this; 0 = disarmed
}

type memFile struct {
	synced  []byte
	pending []byte
}

// NewMemFS builds a filesystem whose crash outcomes are fully
// determined by seed.
func NewMemFS(seed int64) *MemFS {
	return &MemFS{
		rng:   rand.New(rand.NewSource(seed)),
		files: make(map[string]*memFile),
		dirs:  map[string]bool{".": true},
	}
}

// norm canonicalizes paths so Join/Clean differences don't split files.
func norm(name string) string { return path.Clean(filepath.ToSlash(name)) }

// KillAfterWrites arms the kill-point: after n more successful
// File.Write calls, the filesystem freezes. n <= 0 disarms.
func (fs *MemFS) KillAfterWrites(n int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if n <= 0 {
		fs.killAt = 0
		return
	}
	fs.killAt = fs.writes + n
}

// Writes returns the number of successful File.Write calls so far —
// run a workload once uninjured to learn the kill-point sweep range.
func (fs *MemFS) Writes() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.writes
}

// Frozen reports whether a kill-point has fired.
func (fs *MemFS) Frozen() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.frozen
}

// Crash simulates the reboot after a power loss: every file keeps its
// synced bytes plus a random prefix of its pending bytes, pending data
// is gone, and the filesystem unfreezes. The kill-point is disarmed;
// the caller re-arms it for the next iteration if desired.
func (fs *MemFS) Crash() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, f := range fs.files {
		if len(f.pending) > 0 {
			keep := fs.rng.Intn(len(f.pending) + 1)
			f.synced = append(f.synced, f.pending[:keep]...)
		}
		f.pending = nil
	}
	fs.frozen = false
	fs.killAt = 0
}

// CrashClean is Crash with no torn tail: pending bytes are dropped
// whole. Used to pin down specific recovery scenarios.
func (fs *MemFS) CrashClean() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, f := range fs.files {
		f.pending = nil
	}
	fs.frozen = false
	fs.killAt = 0
}

// Create implements wal.FS.
func (fs *MemFS) Create(name string) (wal.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.frozen {
		return nil, ErrCrashed
	}
	name = norm(name)
	f := &memFile{}
	fs.files[name] = f
	return &memHandle{fs: fs, f: f, name: name}, nil
}

// Open implements wal.FS. The reader sees the process-visible content
// (synced + pending) snapshotted at open time, like a read from page
// cache.
func (fs *MemFS) Open(name string) (io.ReadCloser, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.frozen {
		return nil, ErrCrashed
	}
	f, ok := fs.files[norm(name)]
	if !ok {
		return nil, fmt.Errorf("faults: open %s: file does not exist", name)
	}
	content := make([]byte, 0, len(f.synced)+len(f.pending))
	content = append(content, f.synced...)
	content = append(content, f.pending...)
	return io.NopCloser(bytes.NewReader(content)), nil
}

// List implements wal.FS.
func (fs *MemFS) List(dir string) ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.frozen {
		return nil, ErrCrashed
	}
	dir = norm(dir)
	if !fs.dirs[dir] {
		return nil, fmt.Errorf("faults: list %s: directory does not exist", dir)
	}
	var names []string
	for p := range fs.files {
		if path.Dir(p) == dir {
			names = append(names, path.Base(p))
		}
	}
	sort.Strings(names)
	return names, nil
}

// Rename implements wal.FS. Atomic and (simplification) immediately
// durable.
func (fs *MemFS) Rename(oldname, newname string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.frozen {
		return ErrCrashed
	}
	oldname, newname = norm(oldname), norm(newname)
	f, ok := fs.files[oldname]
	if !ok {
		return fmt.Errorf("faults: rename %s: file does not exist", oldname)
	}
	delete(fs.files, oldname)
	fs.files[newname] = f
	return nil
}

// Remove implements wal.FS.
func (fs *MemFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.frozen {
		return ErrCrashed
	}
	name = norm(name)
	if _, ok := fs.files[name]; !ok {
		return fmt.Errorf("faults: remove %s: file does not exist", name)
	}
	delete(fs.files, name)
	return nil
}

// MkdirAll implements wal.FS.
func (fs *MemFS) MkdirAll(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.frozen {
		return ErrCrashed
	}
	dir = norm(dir)
	for {
		fs.dirs[dir] = true
		parent := path.Dir(dir)
		if parent == dir {
			return nil
		}
		dir = parent
	}
}

// SyncDir implements wal.FS. Directory entries are already durable
// (documented simplification), so this only checks liveness.
func (fs *MemFS) SyncDir(string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.frozen {
		return ErrCrashed
	}
	return nil
}

// memHandle is an open write handle.
type memHandle struct {
	fs     *MemFS
	f      *memFile
	name   string
	closed bool
}

// Write appends to the file's pending (unsynced) bytes. The kill-point
// counts successful writes; when it fires, this write and everything
// after it fails.
func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.frozen {
		return 0, ErrCrashed
	}
	if h.closed {
		return 0, fmt.Errorf("faults: write to closed file %s", h.name)
	}
	if h.fs.killAt > 0 && h.fs.writes >= h.fs.killAt {
		h.fs.frozen = true
		return 0, ErrCrashed
	}
	h.f.pending = append(h.f.pending, p...)
	h.fs.writes++
	if h.fs.killAt > 0 && h.fs.writes >= h.fs.killAt {
		// The armed write completes into the page cache, then the
		// machine dies: whether those bytes survive is decided by
		// Crash()'s prefix roll, which is exactly the ambiguity a real
		// torn write leaves behind.
		h.fs.frozen = true
	}
	return len(p), nil
}

// Sync promotes pending bytes to synced (crash-surviving) bytes.
func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.frozen {
		return ErrCrashed
	}
	if h.closed {
		return fmt.Errorf("faults: sync of closed file %s", h.name)
	}
	h.f.synced = append(h.f.synced, h.f.pending...)
	h.f.pending = nil
	return nil
}

// Close implements wal.File. Closing does not sync.
func (h *memHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.frozen {
		return ErrCrashed
	}
	h.closed = true
	return nil
}

var _ wal.FS = (*MemFS)(nil)
