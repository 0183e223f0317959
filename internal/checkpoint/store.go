package checkpoint

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Store manages a directory of checkpoint files. Writes are atomic
// (temp-file + fsync + rename) and serialized; loads scan newest-first
// and skip anything that fails validation, so a crash between the temp
// write and the rename — or mid-rename power loss leaving a torn file —
// costs at most the newest snapshot, never the ability to restore.
type Store struct {
	dir    string
	retain int
	logf   func(format string, args ...any)

	mu sync.Mutex // serializes Write/Prune
}

// NewStore opens (creating if needed) a checkpoint directory. retain is
// the number of snapshots kept after each write; values < 1 default to 1.
func NewStore(dir string, retain int, logf func(format string, args ...any)) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: empty directory")
	}
	if retain < 1 {
		retain = 1
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: create dir: %w", err)
	}
	return &Store{dir: dir, retain: retain, logf: logf}, nil
}

// Dir returns the directory the store manages.
func (st *Store) Dir() string { return st.dir }

// fileName builds a snapshot file name that sorts lexically by recency:
// total consumed sequence first (monotone across snapshots of one
// stream), wall-clock nanos as tie-break. The nanos are the only place
// Meta.UnixNanos is kept; nanosOf reads them back.
func fileName(m Meta) string {
	return fmt.Sprintf("ckpt-%020d-%020d.ckpt", m.SeqR+m.SeqS, uint64(m.UnixNanos))
}

// nanosOf recovers Meta.UnixNanos from a name list accepted (0 when the
// file was not named by fileName).
func nanosOf(name string) int64 {
	rest := strings.TrimSuffix(name, ".ckpt")
	n, _ := strconv.ParseUint(rest[strings.LastIndexByte(rest, '-')+1:], 10, 64)
	return int64(n)
}

// Write streams the snapshot into a temp file and installs it
// atomically, then prunes old snapshots beyond the retain count. Returns
// the encoded size.
func (st *Store) Write(s Snapshot) (int, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	final := filepath.Join(st.dir, fileName(s.Meta))
	tmp, err := os.CreateTemp(st.dir, ".ckpt-*.tmp")
	if err != nil {
		return 0, fmt.Errorf("checkpoint: create temp: %w", err)
	}
	err = encode(tmp, s)
	var size int64
	if err == nil {
		size, err = tmp.Seek(0, io.SeekCurrent)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), final)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("checkpoint: write %s: %w", final, err)
	}
	// Best-effort directory sync so the rename itself is durable.
	if d, err := os.Open(st.dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	st.pruneLocked()
	return int(size), nil
}

// list returns the snapshot files in the directory sorted newest-first.
func (st *Store) list() ([]string, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		n := e.Name()
		if strings.HasPrefix(n, "ckpt-") && strings.HasSuffix(n, ".ckpt") {
			names = append(names, n)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	return names, nil
}

// LatestValid loads the newest snapshot that decodes and validates,
// skipping (and logging) corrupt, torn, or other-generation files.
// Returns ok=false when the directory holds no usable snapshot.
func (st *Store) LatestValid() (Snapshot, bool, error) {
	names, err := st.list()
	if err != nil {
		return Snapshot{}, false, err
	}
	for _, name := range names {
		f, err := os.Open(filepath.Join(st.dir, name))
		if err != nil {
			st.logf("checkpoint: skip %s: %v", name, err)
			continue
		}
		snap, err := decode(f)
		f.Close()
		if err != nil {
			st.logf("checkpoint: skip corrupt %s: %v", name, err)
			continue
		}
		snap.Meta.UnixNanos = nanosOf(name)
		return snap, true, nil
	}
	return Snapshot{}, false, nil
}

// Prune removes snapshots beyond the retain count (newest kept) and any
// stale temp files left by a crashed writer.
func (st *Store) Prune() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.pruneLocked()
}

func (st *Store) pruneLocked() {
	names, err := st.list()
	if err != nil {
		st.logf("%v", err)
		return
	}
	for _, name := range names[min(st.retain, len(names)):] {
		if err := os.Remove(filepath.Join(st.dir, name)); err != nil {
			st.logf("checkpoint: prune %s: %v", name, err)
		}
	}
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasPrefix(n, ".ckpt-") && strings.HasSuffix(n, ".tmp") {
			if err := os.Remove(filepath.Join(st.dir, n)); err == nil {
				st.logf("checkpoint: removed stale temp file %s", n)
			}
		}
	}
}
