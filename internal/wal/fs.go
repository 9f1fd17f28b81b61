// The WAL never touches the disk directly: every byte goes through the
// FS interface below. Production uses OSFS (thin os wrappers including
// the directory fsyncs real durability needs); the crash harness swaps
// in CrashFS, a deterministic in-memory filesystem that can kill the
// process's view of the disk at the Nth mutating operation and control
// exactly how much un-synced data "survives" the crash.
package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// ErrCrashed is returned by a crash-injection filesystem for every
// operation after the injected crash point. The engine surfaces it to
// the caller like any other IO error.
var ErrCrashed = errors.New("wal: simulated disk crash")

// File is a writable log or snapshot file. Sync must not return until
// previously written bytes are durable.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS is the filesystem surface the WAL and checkpointer need. All
// paths are full paths (the Log joins its directory itself). Rename,
// Remove and Create are durable only after SyncDir on the parent
// directory, matching POSIX semantics.
type FS interface {
	MkdirAll(dir string) error
	// Create opens a new file for writing, truncating any existing one.
	Create(name string) (File, error)
	// Open opens an existing file for reading.
	Open(name string) (io.ReadCloser, error)
	// ReadDir lists the file names (not full paths) in dir, sorted.
	ReadDir(dir string) ([]string, error)
	Rename(oldPath, newPath string) error
	Remove(name string) error
	// Truncate shortens a file to size bytes and makes the new length
	// durable (used by recovery to drop a torn tail).
	Truncate(name string, size int64) error
	// SyncDir makes preceding namespace operations (create, rename,
	// remove) under dir durable.
	SyncDir(dir string) error
}

// OSFS is the production FS backed by the real filesystem.
type OSFS struct{}

func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (OSFS) Create(name string) (File, error) { return os.Create(name) }

func (OSFS) Open(name string) (io.ReadCloser, error) { return os.Open(name) }

func (OSFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (OSFS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

func (OSFS) Remove(name string) error { return os.Remove(name) }

func (OSFS) Truncate(name string, size int64) error {
	if err := os.Truncate(name, size); err != nil {
		return err
	}
	f, err := os.OpenFile(name, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Directory fsync is how POSIX makes renames durable; some
	// filesystems reject it, which is not fatal for correctness there.
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err
	}
	return nil
}

// WriteFile durably publishes the file name in dir: write fills a temp
// file beside it, which is fsynced, renamed to name, and made durable by
// a directory fsync. After a crash name therefore holds either its old
// content (nothing, for a new file) or all of the new one; never a
// prefix. A failure before the rename removes the temp file, and Replay
// removes one a crash left behind in a log directory. Checkpoints
// publish their table snapshots with it (Log.WriteSnapshot), and so does
// a table snapshot written to any other directory.
func WriteFile(fs FS, dir, name string, write func(io.Writer) error) error {
	tmp := joinDir(dir, name+tmpSuffix)
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: create %s: %w", tmp, err)
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fs.Remove(tmp)
		return fmt.Errorf("wal: write %s: %w", tmp, err)
	}
	if err := fs.Rename(tmp, joinDir(dir, name)); err != nil {
		return fmt.Errorf("wal: publish %s: %w", name, err)
	}
	if err := fs.SyncDir(dir); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// joinDir is a tiny helper shared by Log and Replay.
func joinDir(dir, name string) string { return filepath.Join(dir, name) }
