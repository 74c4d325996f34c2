package journal

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"
)

// fakeSync stands in for fsync. Each call reports the journal's size on
// entered, then waits for a token on release (or for release to close),
// and records that size as synced once it returns.
type fakeSync struct {
	path    string
	entered chan int64
	release chan struct{}
	err     error

	mu     sync.Mutex
	synced int64
}

func newFakeWriter(t *testing.T) (*Writer, *fakeSync) {
	t.Helper()
	fs := &fakeSync{
		path:    filepath.Join(t.TempDir(), "sweep.journal"),
		entered: make(chan int64, 16),
		release: make(chan struct{}),
	}
	f, err := os.OpenFile(fs.path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	return newWriter(f, fs.sync), fs
}

func (fs *fakeSync) sync() error {
	size := fs.size()
	fs.entered <- size
	<-fs.release
	if fs.err != nil {
		return fs.err
	}
	fs.mu.Lock()
	fs.synced = size
	fs.mu.Unlock()
	return nil
}

func (fs *fakeSync) size() int64 {
	st, err := os.Stat(fs.path)
	if err != nil {
		return -1
	}
	return st.Size()
}

func (fs *fakeSync) syncedSize() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.synced
}

// waitErr waits for the writer's sticky error to be set.
func waitErr(w *Writer) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.err == nil {
		w.cond.Wait()
	}
	return w.err
}

func done(t *testing.T, w *Writer, key string) {
	t.Helper()
	if err := w.Done(key, 1, OutcomeOK, "", []byte(`{"k":"`+key+`"}`)); err != nil {
		t.Fatal(err)
	}
}

// doneWithin journals keys as done points and fails the test if the
// calls do not return promptly.
func doneWithin(t *testing.T, w *Writer, keys ...string) {
	t.Helper()
	returned := make(chan error, 1)
	go func() {
		for _, key := range keys {
			if err := w.Done(key, 1, OutcomeOK, "", []byte(`{}`)); err != nil {
				returned <- err
				return
			}
		}
		returned <- nil
	}()
	select {
	case err := <-returned:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Done waited for a sync while another sync was blocked")
	}
}

// TestGroupCommitDoneDoesNotWait: Done calls made while a sync is blocked
// return without waiting for it, and exactly one following sync covers
// all of them.
func TestGroupCommitDoneDoesNotWait(t *testing.T) {
	w, fs := newFakeWriter(t)
	doneWithin(t, w, "p0")
	if got := <-fs.entered; got != fs.size() {
		t.Fatalf("first sync entered at %d bytes, journal holds %d", got, fs.size())
	}
	doneWithin(t, w, "p1", "p2", "p3", "p4")
	written := fs.size()
	fs.release <- struct{}{}
	if got := <-fs.entered; got != written {
		t.Fatalf("second sync entered at %d bytes, the blocked Dones wrote %d", got, written)
	}
	close(fs.release)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-fs.entered:
		t.Fatalf("a third sync at %d bytes; one sync should have covered the batch", got)
	default:
	}
}

// TestGroupCommitCloseSyncsEverything: Close returns only once a sync has
// covered every record written, including one written while the last
// sync ran and a start record no done record followed.
func TestGroupCommitCloseSyncsEverything(t *testing.T) {
	w, fs := newFakeWriter(t)
	done(t, w, "p0")
	<-fs.entered
	done(t, w, "p1")
	if err := w.Start("p2", 1); err != nil {
		t.Fatal(err)
	}
	type closed struct {
		err    error
		synced int64
	}
	result := make(chan closed, 1)
	go func() {
		err := w.Close()
		result <- closed{err, fs.syncedSize()}
	}()
	w.mu.Lock()
	for !w.closing {
		w.cond.Wait()
	}
	w.mu.Unlock()
	close(fs.release)
	r := <-result
	if r.err != nil {
		t.Fatal(r.err)
	}
	if size := fs.size(); r.synced != size {
		t.Fatalf("Close returned with %d of %d journal bytes synced", r.synced, size)
	}
}

// TestGroupCommitSyncErrorSurfaces: a failed sync comes back from the
// next Done, which writes nothing, and from Close.
func TestGroupCommitSyncErrorSurfaces(t *testing.T) {
	w, fs := newFakeWriter(t)
	fs.err = errors.New("disk on fire")
	close(fs.release)
	done(t, w, "p0")
	if err := waitErr(w); !errors.Is(err, fs.err) {
		t.Fatalf("sticky error %v, want the sync's", err)
	}
	before := fs.size()
	if err := w.Done("p1", 1, OutcomeOK, "", []byte(`{}`)); !errors.Is(err, fs.err) {
		t.Fatalf("Done after a failed sync returned %v", err)
	}
	if fs.size() != before {
		t.Fatal("Done wrote a record after a failed sync")
	}
	if err := w.Close(); !errors.Is(err, fs.err) {
		t.Fatalf("Close after a failed sync returned %v", err)
	}
}

// TestStickyIOError: over a pipe, writes succeed and fsync fails with
// EINVAL. The first failure stops the writer: a second Done writes no
// line, and it, Start and Close all return the first error.
func TestStickyIOError(t *testing.T) {
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	w := newWriter(pw, pw.Sync)
	done(t, w, "p0")
	first := waitErr(w)
	if !errors.Is(first, syscall.EINVAL) {
		t.Fatalf("fsync on a pipe failed with %v, want EINVAL", first)
	}
	if err := w.Done("p1", 1, OutcomeOK, "", []byte(`{}`)); err != first {
		t.Fatalf("second Done returned %v, want the first error %v", err, first)
	}
	if err := w.Start("p2", 1); err != first {
		t.Fatalf("Start returned %v, want the first error", err)
	}
	if err := w.Close(); err != first {
		t.Fatalf("Close returned %v, want the first error", err)
	}
	data, err := io.ReadAll(pr)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte{'\n'}); n != 1 {
		t.Fatalf("%d records in the pipe, want 1:\n%s", n, data)
	}
}
