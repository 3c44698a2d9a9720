package store

import (
	"fmt"
	"io"
	"io/fs"
	"sort"
	"strings"
	"sync"
)

// MemFS is a deterministic in-memory FS with power-loss simulation:
// every file tracks the content present at its last successful Sync,
// and Crash reverts each file to that durable image (plus, optionally,
// a caller-chosen prefix of the unsynced suffix — the torn tail a real
// disk leaves behind). Renames are modelled as durable immediately; the
// *content* of a renamed-but-unsynced file still reverts, which is the
// case that matters for the store's tmp-write+sync+rename discipline.
//
// MemFS is safe for concurrent use. It exists so crash-recovery tests
// and the chaos harness can kill and restart a store thousands of times
// without touching the real disk.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
	dirs  map[string]bool
}

type memFile struct {
	data   []byte
	synced []byte // nil = never synced: the file vanishes on crash
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: map[string]*memFile{}, dirs: map[string]bool{}}
}

// Crash simulates power loss: every file reverts to its last-synced
// content plus a keep(path, n)-byte prefix of its n unsynced trailing
// bytes (nil keep drops the whole unsynced suffix). Files that were
// never synced are removed. Files are visited in sorted path order so a
// seeded keep function yields reproducible wreckage.
func (m *MemFS) Crash(keep func(path string, unsynced int) int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	paths := make([]string, 0, len(m.files))
	for p := range m.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		f := m.files[p]
		if f.synced == nil {
			delete(m.files, p)
			continue
		}
		extra := len(f.data) - len(f.synced)
		kept := 0
		if keep != nil && extra > 0 {
			kept = keep(p, extra)
			if kept < 0 {
				kept = 0
			}
			if kept > extra {
				kept = extra
			}
		}
		nd := append([]byte(nil), f.synced...)
		if kept > 0 {
			nd = append(nd, f.data[len(f.synced):len(f.synced)+kept]...)
		}
		f.data = nd
	}
}

// Flip flips one bit of the file at path in place — silent on-media
// corruption for tests. The change does not count as unsynced: it
// survives Crash, like real bit rot.
func (m *MemFS) Flip(path string, bit int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[path]
	if !ok {
		return fmt.Errorf("memfs: flip %s: %w", path, fs.ErrNotExist)
	}
	if len(f.data) == 0 {
		return fmt.Errorf("memfs: flip %s: empty file", path)
	}
	bit %= len(f.data) * 8
	if bit < 0 {
		bit += len(f.data) * 8
	}
	f.data[bit/8] ^= 1 << (bit % 8)
	if f.synced != nil && bit/8 < len(f.synced) {
		f.synced[bit/8] ^= 1 << (bit % 8)
	}
	return nil
}

// ReadFile returns a copy of the file's current content (tests).
func (m *MemFS) ReadFile(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[path]
	if !ok {
		return nil, fmt.Errorf("memfs: read %s: %w", path, fs.ErrNotExist)
	}
	return append([]byte(nil), f.data...), nil
}

// WriteFile replaces the file's content, marking it synced (tests).
func (m *MemFS) WriteFile(path string, data []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := &memFile{data: append([]byte(nil), data...)}
	f.synced = append([]byte(nil), data...)
	m.files[path] = f
}

func (m *MemFS) MkdirAll(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dirs[path] = true
	return nil
}

func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		f = &memFile{}
		m.files[name] = f
	} else {
		f.data = nil // O_TRUNC; the synced image persists until Sync
	}
	return &memHandle{fs: m, name: name, write: true}, nil
}

func (m *MemFS) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return nil, fmt.Errorf("memfs: open %s: %w", name, fs.ErrNotExist)
	}
	return &memHandle{fs: m, name: name}, nil
}

func (m *MemFS) OpenAppend(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		m.files[name] = &memFile{}
	}
	return &memHandle{fs: m, name: name, write: true}, nil
}

func (m *MemFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldpath]
	if !ok {
		return fmt.Errorf("memfs: rename %s: %w", oldpath, fs.ErrNotExist)
	}
	m.files[newpath] = f
	delete(m.files, oldpath)
	return nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("memfs: remove %s: %w", name, fs.ErrNotExist)
	}
	delete(m.files, name)
	return nil
}

func (m *MemFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return fmt.Errorf("memfs: truncate %s: %w", name, fs.ErrNotExist)
	}
	if size < 0 || size > int64(len(f.data)) {
		return fmt.Errorf("memfs: truncate %s to %d (size %d)", name, size, len(f.data))
	}
	f.data = f.data[:size]
	return nil
}

func (m *MemFS) Stat(name string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return 0, fmt.Errorf("memfs: stat %s: %w", name, fs.ErrNotExist)
	}
	return int64(len(f.data)), nil
}

// ReadDir lists the names (not paths) of the files directly in dir,
// sorted, so tests can inspect the store's blob and quarantine areas.
func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prefix := strings.TrimSuffix(dir, "/") + "/"
	var names []string
	for p := range m.files {
		if strings.HasPrefix(p, prefix) && !strings.Contains(p[len(prefix):], "/") {
			names = append(names, p[len(prefix):])
		}
	}
	sort.Strings(names)
	return names, nil
}

// memHandle is an open MemFS file: reads walk the current content from
// a private offset; writes append (both Create- and append-opened
// handles only ever append, which matches how the store writes).
type memHandle struct {
	fs     *MemFS
	name   string
	off    int
	write  bool
	closed bool
}

func (h *memHandle) file() (*memFile, error) {
	f, ok := h.fs.files[h.name]
	if !ok {
		return nil, fmt.Errorf("memfs: %s: %w", h.name, fs.ErrNotExist)
	}
	return f, nil
}

func (h *memHandle) Read(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, fs.ErrClosed
	}
	f, err := h.file()
	if err != nil {
		return 0, err
	}
	if h.off >= len(f.data) {
		return 0, io.EOF
	}
	n := copy(p, f.data[h.off:])
	h.off += n
	return n, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, fs.ErrClosed
	}
	if !h.write {
		return 0, fmt.Errorf("memfs: %s: write on read-only handle", h.name)
	}
	f, err := h.file()
	if err != nil {
		return 0, err
	}
	f.data = append(f.data, p...)
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return fs.ErrClosed
	}
	f, err := h.file()
	if err != nil {
		return err
	}
	f.synced = append([]byte(nil), f.data...)
	return nil
}

func (h *memHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.closed = true
	return nil
}
