package store

import (
	"io"
	"os"
	"path/filepath"
)

// FS is the filesystem seam the store runs on. Production uses OSFS;
// tests substitute MemFS (crash simulation) and chaos suites wrap
// either in a FaultFS (seeded I/O fault injection). The store only
// needs this narrow surface, and keeping it narrow is what makes every
// durability decision — what is written, synced, renamed, truncated,
// and in which order — visible to the fault injector.
type FS interface {
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(path string) error
	// Create opens a file for writing, truncating it if it exists.
	Create(name string) (File, error)
	// Open opens a file for reading.
	Open(name string) (File, error)
	// OpenAppend opens a file for appending, creating it if missing.
	OpenAppend(name string) (File, error)
	// Rename atomically moves a file.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// Truncate shrinks a file to size bytes.
	Truncate(name string, size int64) error
	// Stat returns the file's size, or an error satisfying
	// errors.Is(err, fs.ErrNotExist) when it does not exist.
	Stat(name string) (int64, error)
}

// File is an open handle on the FS.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes the file's content to stable storage.
	Sync() error
}

// osFS is the production FS over the real filesystem.
type osFS struct{}

// OSFS returns the FS backed by the operating system.
func OSFS() FS { return osFS{} }

func (osFS) MkdirAll(path string) error { return os.MkdirAll(path, 0o755) }

func (osFS) Create(name string) (File, error) { return os.Create(name) }

func (osFS) Open(name string) (File, error) { return os.Open(name) }

func (osFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (osFS) Stat(name string) (int64, error) {
	fi, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// join builds an FS path. The store always uses forward slashes
// internally; osFS maps them through filepath for the host.
func join(elem ...string) string { return filepath.ToSlash(filepath.Join(elem...)) }
