package store

import (
	"errors"
	"fmt"
	"time"

	"prpart/internal/faults"
)

// ErrInjected tags every fault manufactured by a FaultFS, so tests and
// recovery paths can tell injected failures from real ones.
var ErrInjected = errors.New("store: injected I/O fault")

// FaultFS wraps an FS and applies the decisions of a seeded
// faults.IOInjector: short writes, read corruption, fsync and rename
// failures, and latency stalls. Only the data-path operations are
// injected (write, read, sync, rename); namespace operations (mkdir,
// remove, truncate, stat, readdir) pass through, keeping recovery
// itself runnable under any seed.
type FaultFS struct {
	fs  FS
	inj *faults.IOInjector
}

// NewFaultFS wraps fs with the injector. A nil injector passes
// everything through.
func NewFaultFS(fs FS, inj *faults.IOInjector) *FaultFS {
	return &FaultFS{fs: fs, inj: inj}
}

func (f *FaultFS) plan(op faults.IOOp, size int) faults.IODecision {
	if f.inj == nil {
		return faults.IODecision{}
	}
	d := f.inj.PlanOp(op, size)
	if d.Kind == faults.IOStall {
		time.Sleep(d.Stall)
		return faults.IODecision{}
	}
	return d
}

func (f *FaultFS) MkdirAll(path string) error { return f.fs.MkdirAll(path) }

func (f *FaultFS) Create(name string) (File, error) {
	h, err := f.fs.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultHandle{File: h, fs: f}, nil
}

func (f *FaultFS) Open(name string) (File, error) {
	h, err := f.fs.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultHandle{File: h, fs: f}, nil
}

func (f *FaultFS) OpenAppend(name string) (File, error) {
	h, err := f.fs.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &faultHandle{File: h, fs: f}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if d := f.plan(faults.OpRename, 0); d.Kind == faults.IORenameErr {
		return fmt.Errorf("rename %s -> %s: %w", oldpath, newpath, ErrInjected)
	}
	return f.fs.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error { return f.fs.Remove(name) }

func (f *FaultFS) Truncate(name string, size int64) error { return f.fs.Truncate(name, size) }

func (f *FaultFS) Stat(name string) (int64, error) { return f.fs.Stat(name) }

// faultHandle intercepts the data path of one open file.
type faultHandle struct {
	File
	fs *FaultFS
}

func (h *faultHandle) Read(p []byte) (int, error) {
	n, err := h.File.Read(p)
	if n > 0 {
		if d := h.fs.plan(faults.OpRead, n); d.Kind == faults.IOReadCorrupt {
			bit := d.Bit % (n * 8)
			p[bit/8] ^= 1 << (bit % 8)
		}
	}
	return n, err
}

func (h *faultHandle) Write(p []byte) (int, error) {
	if d := h.fs.plan(faults.OpWrite, len(p)); d.Kind == faults.IOShortWrite {
		keep := d.Keep
		if keep > len(p) {
			keep = len(p)
		}
		n, err := h.File.Write(p[:keep])
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("short write (%d of %d bytes): %w", n, len(p), ErrInjected)
	}
	return h.File.Write(p)
}

func (h *faultHandle) Sync() error {
	if d := h.fs.plan(faults.OpSync, 0); d.Kind == faults.IOSyncErr {
		return fmt.Errorf("fsync: %w", ErrInjected)
	}
	return h.File.Sync()
}
