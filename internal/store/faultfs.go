package store

import (
	"errors"
	"sync"
)

// ErrInjected is the root of every FaultFS-injected failure.
var ErrInjected = errors.New("store: injected fault")

// FaultFS wraps an FS and injects failures at exact operation counts, so a
// test can prove crash safety deterministically: "the 3rd write fails",
// "the 2nd write tears after 7 bytes", "the 1st fsync fails". Counters are
// global across files and 1-based; zero means never. A torn write delivers
// its prefix to the inner FS before reporting failure — the bytes are on
// "disk", the caller believes they are not.
type FaultFS struct {
	Inner FS

	// FailWriteN fails the Nth write without delivering any bytes.
	FailWriteN int
	// TearWriteN delivers only TearBytes bytes of the Nth write, then fails.
	TearWriteN int
	TearBytes  int
	// FailSyncN fails the Nth File.Sync.
	FailSyncN int
	// FailRenameN fails the Nth Rename.
	FailRenameN int
	// FailDirSyncN fails the Nth SyncDir.
	FailDirSyncN int

	mu      sync.Mutex
	writes  int
	syncs   int
	renames int
	dsyncs  int
}

// Writes returns how many writes the wrapped FS has seen.
func (f *FaultFS) Writes() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writes
}

func (f *FaultFS) MkdirAll(dir string) error            { return f.Inner.MkdirAll(dir) }
func (f *FaultFS) ReadDir(dir string) ([]string, error) { return f.Inner.ReadDir(dir) }
func (f *FaultFS) ReadFile(p string) ([]byte, error)    { return f.Inner.ReadFile(p) }
func (f *FaultFS) Remove(p string) error                { return f.Inner.Remove(p) }

func (f *FaultFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	f.renames++
	fail := f.FailRenameN > 0 && f.renames == f.FailRenameN
	f.mu.Unlock()
	if fail {
		return errors.Join(ErrInjected, errors.New("rename failed"))
	}
	return f.Inner.Rename(oldpath, newpath)
}

func (f *FaultFS) SyncDir(dir string) error {
	f.mu.Lock()
	f.dsyncs++
	fail := f.FailDirSyncN > 0 && f.dsyncs == f.FailDirSyncN
	f.mu.Unlock()
	if fail {
		return errors.Join(ErrInjected, errors.New("dir sync failed"))
	}
	return f.Inner.SyncDir(dir)
}

func (f *FaultFS) Create(p string) (File, error) {
	inner, err := f.Inner.Create(p)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

type faultFile struct {
	fs    *FaultFS
	inner File
}

func (ff *faultFile) Write(b []byte) (int, error) {
	f := ff.fs
	f.mu.Lock()
	f.writes++
	n := f.writes
	fail := f.FailWriteN > 0 && n == f.FailWriteN
	tear := f.TearWriteN > 0 && n == f.TearWriteN
	tearBytes := f.TearBytes
	f.mu.Unlock()
	if fail {
		return 0, errors.Join(ErrInjected, errors.New("write failed"))
	}
	if tear {
		if tearBytes > len(b) {
			tearBytes = len(b)
		}
		_, _ = ff.inner.Write(b[:tearBytes])
		return tearBytes, errors.Join(ErrInjected, errors.New("torn write"))
	}
	return ff.inner.Write(b)
}

func (ff *faultFile) Sync() error {
	f := ff.fs
	f.mu.Lock()
	f.syncs++
	fail := f.FailSyncN > 0 && f.syncs == f.FailSyncN
	f.mu.Unlock()
	if fail {
		return errors.Join(ErrInjected, errors.New("fsync failed"))
	}
	return ff.inner.Sync()
}

func (ff *faultFile) Close() error { return ff.inner.Close() }
