package core

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestReaderSequentialAndSeek(t *testing.T) {
	v, _, _ := newTestVolume(t)
	data := payload(3000, 4)
	f, err := v.Create("st/r", data)
	if err != nil {
		t.Fatal(err)
	}
	r := io.NewSectionReader(f, 0, f.Size())
	got, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("ReadAll via a section reader: %v", err)
	}
	// Seek back and reread a window.
	if _, err := r.Seek(100, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 50)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[100:150]) {
		t.Fatal("seek/read window mismatch")
	}
	// SeekEnd.
	if pos, err := r.Seek(-10, io.SeekEnd); err != nil || pos != 2990 {
		t.Fatalf("SeekEnd: %d, %v", pos, err)
	}
	tail, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(tail, data[2990:]) {
		t.Fatal("tail read mismatch")
	}
	if _, err := r.Seek(-1, io.SeekStart); err == nil {
		t.Fatal("negative seek accepted")
	}
}

func TestWriterExtendsAllocation(t *testing.T) {
	v, _, _ := newTestVolume(t)
	f, err := v.Create("st/w", nil)
	if err != nil {
		t.Fatal(err)
	}
	w := io.NewOffsetWriter(f, 0)
	chunk := payload(700, 6)
	for i := 0; i < 5; i++ { // 3500 bytes total, growing page by page
		if _, err := w.Write(chunk); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if f.Size() != 3500 {
		t.Fatalf("size = %d", f.Size())
	}
	got, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if !bytes.Equal(got[i*700:(i+1)*700], chunk) {
			t.Fatalf("chunk %d mismatch", i)
		}
	}
}

// TestWriteStream: output of unknown length (a compiler's object file, in the
// paper's world) goes into a new version through Create and io.Copy over an
// io.OffsetWriter, and reads back the same after a force and a reopen.
func TestWriteStream(t *testing.T) {
	v, _, _ := newTestVolume(t)
	content := strings.Repeat("object code ", 400) // ~4.8 KB
	f, err := v.Create("st/obj", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.NewOffsetWriter(f, 0), strings.NewReader(content)); err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadAll()
	if err != nil || string(got) != content {
		t.Fatalf("streamed round trip: %v", err)
	}
	// Survives commit + reopen.
	v.Force()
	g, err := v.Open("st/obj", 0)
	if err != nil {
		t.Fatal(err)
	}
	got, _ = g.ReadAll()
	if string(got) != content {
		t.Fatal("streamed file corrupted after reopen")
	}
}
