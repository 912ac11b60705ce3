// Package fstest is the shared conformance suite for implementations of
// the cedarfs.FS interface. The same suite runs against the in-process
// local adapter (cedarfs.NewLocalFS) and against the remote client talking
// to a real server over a socket — the contract that lets every future
// layer program against the interface instead of the Volume struct.
package fstest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	cedarfs "repro"
)

// Factory builds a fresh FS over a fresh volume for one subtest. The
// factory owns volume lifecycle (register cleanup with t.Cleanup) and, with
// it, the last word on every subtest: the volume must Verify clean before it
// is shut down.
type Factory func(t *testing.T) cedarfs.FS

// Run executes the conformance suite against factories' FS.
func Run(t *testing.T, mk Factory) {
	t.Run("CreateReadBack", func(t *testing.T) { testCreateReadBack(t, mk(t)) })
	t.Run("StreamWrite", func(t *testing.T) { testStreamWrite(t, mk(t)) })
	t.Run("Versions", func(t *testing.T) { testVersions(t, mk(t)) })
	t.Run("List", func(t *testing.T) { testList(t, mk(t)) })
	t.Run("RenameDelete", func(t *testing.T) { testRenameDelete(t, mk(t)) })
	t.Run("SetKeep", func(t *testing.T) { testSetKeep(t, mk(t)) })
	t.Run("Errors", func(t *testing.T) { testErrors(t, mk(t)) })
	t.Run("Durability", func(t *testing.T) { testDurability(t, mk(t)) })
	t.Run("ContextCancel", func(t *testing.T) { testContextCancel(t, mk(t)) })
	t.Run("HandleClose", func(t *testing.T) { testHandleClose(t, mk(t)) })
	t.Run("StaleHandle", func(t *testing.T) { testStaleHandle(t, mk(t)) })
	t.Run("Stats", func(t *testing.T) { testStats(t, mk(t)) })
	t.Run("Concurrent", func(t *testing.T) { testConcurrent(t, mk(t)) })
}

var bg = context.Background()

func testCreateReadBack(t *testing.T, fs cedarfs.FS) {
	data := []byte("the quick brown fox jumps over the lazy dog")
	h, err := fs.Create(bg, "conf/hello.txt", data)
	if err != nil {
		t.Fatal(err)
	}
	fi := h.Info()
	if fi.Name != "conf/hello.txt" || fi.Version != 1 || fi.ByteSize != uint64(len(data)) || fi.Class != cedarfs.Local {
		t.Fatalf("create info = %+v", fi)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	h2, err := fs.Open(bg, "conf/hello.txt", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	buf := make([]byte, len(data))
	if n, err := h2.ReadAt(bg, buf, 0); err != nil && err != io.EOF {
		t.Fatalf("ReadAt: %d, %v", n, err)
	} else if !bytes.Equal(buf[:n], data) {
		t.Fatalf("readback = %q", buf[:n])
	}
	// Offset read straddling the middle.
	if n, err := h2.ReadAt(bg, buf[:9], 4); err != nil || string(buf[:n]) != "quick bro" {
		t.Fatalf("offset read = %q, %v", buf[:n], err)
	}
	// Read at EOF is io.EOF.
	if n, err := h2.ReadAt(bg, buf[:4], int64(len(data))); err != io.EOF || n != 0 {
		t.Fatalf("read at EOF = %d, %v (want 0, io.EOF)", n, err)
	}
	// Short read past EOF returns the tail plus io.EOF.
	if n, err := h2.ReadAt(bg, buf[:8], int64(len(data)-3)); err != io.EOF || string(buf[:n]) != "dog" {
		t.Fatalf("tail read = %q, %v", buf[:n], err)
	}
}

func testStreamWrite(t *testing.T, fs cedarfs.FS) {
	// The write-stream idiom: create empty, then sequential WriteAt chunks
	// of awkward sizes; the allocation must grow under the stream.
	h, err := fs.Create(bg, "conf/stream.bin", nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	off := int64(0)
	var lastSeq uint64
	for i := 0; i < 9; i++ {
		chunk := bytes.Repeat([]byte{byte('a' + i)}, 123+i*77)
		n, seq, err := h.WriteAt(bg, chunk, off)
		if err != nil || n != len(chunk) {
			t.Fatalf("chunk %d: %d, %v", i, n, err)
		}
		if seq == 0 {
			t.Fatalf("chunk %d: ack carried no commit seq", i)
		}
		lastSeq = seq
		off += int64(n)
		want = append(want, chunk...)
	}
	if got := h.Info().ByteSize; got != uint64(len(want)) {
		t.Fatalf("streamed size = %d, want %d", got, len(want))
	}
	// The ack's commit sequence is a real durability watermark.
	if err := fs.WaitCommitted(bg, lastSeq); err != nil {
		t.Fatal(err)
	}
	h.Close()
	h2, err := fs.Open(bg, "conf/stream.bin", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	got := make([]byte, len(want)+64)
	n, err := h2.ReadAt(bg, got, 0)
	if err != io.EOF && err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:n], want) {
		t.Fatalf("streamed readback: %d bytes, want %d (mismatch at %d)", n, len(want), firstDiff(got[:n], want))
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

func testVersions(t *testing.T, fs cedarfs.FS) {
	for i := 1; i <= 3; i++ {
		h, err := fs.Create(bg, "conf/ver.txt", []byte(fmt.Sprintf("version %d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if v := h.Info().Version; v != uint32(i) {
			t.Fatalf("create %d got version %d", i, v)
		}
		h.Close()
	}
	// Version 0 opens the newest.
	fi, err := fs.Stat(bg, "conf/ver.txt", 0)
	if err != nil || fi.Version != 3 {
		t.Fatalf("stat newest = %+v, %v", fi, err)
	}
	// A specific version opens that version.
	h, err := fs.Open(bg, "conf/ver.txt", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	buf := make([]byte, 16)
	n, _ := h.ReadAt(bg, buf, 0)
	if string(buf[:n]) != "version 2" {
		t.Fatalf("version 2 read = %q", buf[:n])
	}
}

func testList(t *testing.T, fs cedarfs.FS) {
	names := []string{"list/b.txt", "list/a.txt", "list/c/d.txt", "other/x.txt"}
	for _, n := range names {
		h, err := fs.Create(bg, n, []byte(n))
		if err != nil {
			t.Fatal(err)
		}
		h.Close()
	}
	fis, err := fs.List(bg, "list/")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, fi := range fis {
		got = append(got, fi.Name)
	}
	want := []string{"list/a.txt", "list/b.txt", "list/c/d.txt"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("list = %v, want %v", got, want)
	}
	// Empty result is fine, not an error.
	if fis, err := fs.List(bg, "nosuchprefix/"); err != nil || len(fis) != 0 {
		t.Fatalf("empty list = %v, %v", fis, err)
	}
}

func testRenameDelete(t *testing.T, fs cedarfs.FS) {
	for i := 0; i < 2; i++ {
		h, err := fs.Create(bg, "rn/old.txt", []byte("payload"))
		if err != nil {
			t.Fatal(err)
		}
		h.Close()
	}
	if err := fs.Rename(bg, "rn/old.txt", "rn/new.txt"); err != nil {
		t.Fatal(err)
	}
	// Every version moved; the old name is gone.
	if _, err := fs.Stat(bg, "rn/old.txt", 0); !errors.Is(err, cedarfs.ErrNotFound) {
		t.Fatalf("stat old after rename = %v", err)
	}
	if fi, err := fs.Stat(bg, "rn/new.txt", 0); err != nil || fi.Version != 2 {
		t.Fatalf("stat new after rename = %+v, %v", fi, err)
	}
	// Renaming onto an existing name is refused.
	h, _ := fs.Create(bg, "rn/block.txt", nil)
	if h != nil {
		h.Close()
	}
	if err := fs.Rename(bg, "rn/new.txt", "rn/block.txt"); !errors.Is(err, cedarfs.ErrExists) {
		t.Fatalf("rename onto existing = %v", err)
	}
	// Delete the newest version; the older one remains.
	if err := fs.Delete(bg, "rn/new.txt", 0); err != nil {
		t.Fatal(err)
	}
	if fi, err := fs.Stat(bg, "rn/new.txt", 0); err != nil || fi.Version != 1 {
		t.Fatalf("stat after delete = %+v, %v", fi, err)
	}
	if err := fs.Delete(bg, "rn/new.txt", 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete(bg, "rn/new.txt", 0); !errors.Is(err, cedarfs.ErrNotFound) {
		t.Fatalf("delete of deleted = %v", err)
	}
}

func testSetKeep(t *testing.T, fs cedarfs.FS) {
	for i := 0; i < 4; i++ {
		h, err := fs.Create(bg, "keep/f.txt", []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		h.Close()
	}
	if err := fs.SetKeep(bg, "keep/f.txt", 2); err != nil {
		t.Fatal(err)
	}
	if fi, err := fs.Stat(bg, "keep/f.txt", 0); err != nil || fi.Keep != 2 {
		t.Fatalf("keep not recorded: %+v, %v", fi, err)
	}
	// The keep count applies at the next create: version 5 inherits it and
	// trims everything older than the newest two.
	h, err := fs.Create(bg, "keep/f.txt", []byte{5})
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	fis, err := fs.List(bg, "keep/f.txt")
	if err != nil {
		t.Fatal(err)
	}
	if len(fis) != 2 || fis[0].Version != 4 || fis[1].Version != 5 {
		t.Fatalf("after SetKeep(2)+create: %+v", fis)
	}
	if fis[1].Keep != 2 {
		t.Fatalf("keep not inherited: %+v", fis[1])
	}
}

func testErrors(t *testing.T, fs cedarfs.FS) {
	// The wire-stable registry: the same errors.Is answers on both sides
	// of the interface.
	if _, err := fs.Open(bg, "missing.txt", 0); !errors.Is(err, cedarfs.ErrNotFound) {
		t.Fatalf("open missing = %v", err)
	}
	if _, err := fs.Stat(bg, "missing.txt", 0); !errors.Is(err, cedarfs.ErrNotFound) {
		t.Fatalf("stat missing = %v", err)
	}
	if _, err := fs.Create(bg, "bad\x00name", nil); !errors.Is(err, cedarfs.ErrBadName) {
		t.Fatalf("create NUL name = %v", err)
	}
	if _, err := fs.Create(bg, "", nil); !errors.Is(err, cedarfs.ErrBadName) {
		t.Fatalf("create empty name = %v", err)
	}
	// Codes survive the registry round trip regardless of transport.
	err := func() error { _, e := fs.Open(bg, "missing.txt", 0); return e }()
	if c := cedarfs.Code(err); c != cedarfs.CodeNotFound {
		t.Fatalf("Code(open missing) = %v", c)
	}
}

func testDurability(t *testing.T, fs cedarfs.FS) {
	h, err := fs.Create(bg, "dur/f.txt", []byte("must survive"))
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	seq, err := fs.Force(bg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WaitCommitted(bg, seq); err != nil {
		t.Fatal(err)
	}
	// Waiting on an already-durable sequence is a no-op, not an error.
	if err := fs.WaitCommitted(bg, seq); err != nil {
		t.Fatal(err)
	}
	st, err := fs.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if st.CommitSeq < seq {
		t.Fatalf("stats CommitSeq %d < forced %d", st.CommitSeq, seq)
	}
}

func testContextCancel(t *testing.T, fs cedarfs.FS) {
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := fs.Open(ctx, "x", 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("open on cancelled ctx = %v", err)
	}
	if _, err := fs.Create(ctx, "x", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("create on cancelled ctx = %v", err)
	}
	if err := fs.Delete(ctx, "x", 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("delete on cancelled ctx = %v", err)
	}
	if _, err := fs.Stats(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("stats on cancelled ctx = %v", err)
	}
}

func testHandleClose(t *testing.T, fs cedarfs.FS) {
	h, err := fs.Create(bg, "hc/f.txt", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ReadAt(bg, make([]byte, 1), 0); !errors.Is(err, cedarfs.ErrClosed) {
		t.Fatalf("read after close = %v", err)
	}
	if _, _, err := h.WriteAt(bg, []byte("y"), 0); !errors.Is(err, cedarfs.ErrClosed) {
		t.Fatalf("write after close = %v", err)
	}
	// Double close is idempotent.
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// testStaleHandle: a handle that outlives its file must not bring the file
// back, nor touch whatever took its place. Growing the file through it —
// which would touch only pages the growth itself allocates — is refused with
// ErrNotFound, whether the volume applies updates on the spot or queues
// them; the name stays gone, the file that inherited the deleted one's pages
// is untouched, and so is a new file created under the deleted one's very
// name and version.
func testStaleHandle(t *testing.T, fs cedarfs.FS) {
	h, err := fs.Create(bg, "stale/doomed", bytes.Repeat([]byte{'d'}, 3000))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if err := fs.Delete(bg, "stale/doomed", 0); err != nil {
		t.Fatal(err)
	}
	// Committed, the deletion frees its pages for the next create.
	if _, err := fs.Force(bg); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{'h'}, 3000)
	heir, err := fs.Create(bg, "stale/heir", want)
	if err != nil {
		t.Fatal(err)
	}
	defer heir.Close()
	// An append at the end of the allocation: Extend, a write into the new
	// pages, SetByteSize.
	end := int64(h.Info().Pages) * 512
	grow := func(when string) {
		t.Helper()
		if _, _, err := h.WriteAt(bg, bytes.Repeat([]byte{'x'}, 2000), end); !errors.Is(err, cedarfs.ErrNotFound) {
			t.Fatalf("write through the stale handle %s = %v, want ErrNotFound", when, err)
		}
		if _, err := fs.Force(bg); err != nil {
			t.Fatal(err)
		}
	}
	grow("after the delete")
	if fi, err := fs.Stat(bg, "stale/doomed", 0); !errors.Is(err, cedarfs.ErrNotFound) {
		t.Fatalf("stat of the deleted file after a stale-handle write = %+v, %v; want ErrNotFound", fi, err)
	}
	// The same name and version again, another file.
	again, err := fs.Create(bg, "stale/doomed", []byte("second life"))
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	grow("after the name was created again")
	if fi, err := fs.Stat(bg, "stale/doomed", 0); err != nil || fi.Version != 1 || fi.ByteSize != 11 || fi.Pages != 1 {
		t.Fatalf("stat of the new file after a stale-handle write = %+v, %v; want version 1, 11 bytes, 1 page", fi, err)
	}
	if fis, err := fs.List(bg, "stale/"); err != nil || len(fis) != 2 {
		t.Fatalf("list = %+v, %v; want stale/doomed and stale/heir", fis, err)
	}
	got := make([]byte, len(want))
	if n, err := heir.ReadAt(bg, got, 0); (err != nil && err != io.EOF) || !bytes.Equal(got[:n], want) {
		t.Fatalf("the heir's data changed under it: %d bytes, %v", n, err)
	}
}

func testStats(t *testing.T, fs cedarfs.FS) {
	for i := 0; i < 3; i++ {
		h, err := fs.Create(bg, fmt.Sprintf("st/f%d", i), []byte("zz"))
		if err != nil {
			t.Fatal(err)
		}
		h.Close()
	}
	st, err := fs.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if st.OpsTotal < 3 {
		t.Fatalf("OpsTotal = %d", st.OpsTotal)
	}
	if st.Health != cedarfs.HealthHealthy {
		t.Fatalf("health = %v", st.Health)
	}
	if st.CommitSeq == 0 {
		t.Fatalf("CommitSeq = 0 after mutations: %+v", st)
	}
}

func testConcurrent(t *testing.T, fs cedarfs.FS) {
	const workers = 8
	const perWorker = 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				name := fmt.Sprintf("conc/w%d/f%d", w, i)
				data := bytes.Repeat([]byte{byte(w + 1)}, 64+i)
				h, err := fs.Create(bg, name, data)
				if err != nil {
					errs <- fmt.Errorf("%s create: %w", name, err)
					return
				}
				h.Close()
				h2, err := fs.Open(bg, name, 0)
				if err != nil {
					errs <- fmt.Errorf("%s open: %w", name, err)
					return
				}
				buf := make([]byte, len(data))
				if n, err := h2.ReadAt(bg, buf, 0); (err != nil && err != io.EOF) || !bytes.Equal(buf[:n], data) {
					errs <- fmt.Errorf("%s readback: %d, %v", name, n, err)
					h2.Close()
					return
				}
				h2.Close()
				if i%4 == 3 {
					if err := fs.Delete(bg, name, 0); err != nil {
						errs <- fmt.Errorf("%s delete: %w", name, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	seq, err := fs.Force(bg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WaitCommitted(bg, seq); err != nil {
		t.Fatal(err)
	}
}
